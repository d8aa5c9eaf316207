"""The benchmark in perfbench/ still fits the program it measures.

perfbench checks each CLI call's products against the library
(`checks.check_products`) and times each layer by wrapping the function under
the name its caller imports (`spans.LAYERS`). Both are loaded with
runpy.run_path, which writes nothing under perfbench/.
"""

import importlib
import runpy
from pathlib import Path

from nf_aliaser import resolve_config, run

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# A small 2D run with every key check_products reads, at lambda = 1 as in the
# benchmark workloads.
CONFIG = {
    "wave": {"lambda": 1.0},
    "tx": {"origin": [10.0, 0.0], "axes": [[1.0, 0.0]], "counts": [8],
           "spacings_lambda": [2.0]},
    "rx": {"origin": [0.0, 10.0], "axes": [[0.0, 1.0]], "counts": [8],
           "spacings_lambda": [2.0]},
    "scene": {"scatterer": [20.0, 20.0], "reflectivity_re": 0.5, "reflectivity_im": -0.25},
    "grid": {"min": [2.0, 2.0], "max": [38.0, 38.0], "resolution": [24, 20]},
    "outputs": ["partial_tx", "partial_rx", "image", "mask"],
}


def test_checks_pass_on_a_small_run(tmp_path):
    check_products = runpy.run_path(str(PERFBENCH / "checks.py"))["check_products"]
    run(resolve_config(CONFIG), tmp_path, threads=1)
    hashes, problems = check_products(CONFIG, str(tmp_path), 0, 0)
    assert problems == []
    assert {"partial_tx.csv", "partial_rx.csv", "image.csv", "mask.csv",
            "manifest.json"} <= set(hashes)


def test_every_traced_layer_resolves():
    layers = runpy.run_path(str(PERFBENCH / "spans.py"))["LAYERS"]
    missing = []
    for module_name, attr, _, _ in layers:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
