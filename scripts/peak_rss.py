#!/usr/bin/env python3
"""Show which runner stage sets a workload's peak RSS.

Builds a benchmark workload's seeded config from perfbench/workloads.py and
runs it --calls times in this process through `nf_aliaser.cli.main`, with the
arguments and thread count the benchmark uses. Every stage the runner calls
(the aliasing mask, each partial image, the bistatic product, the spectrum
stages, each writer and the manifest) is wrapped so that the running
`ru_maxrss` is read as it returns, under the stage names of
perfbench/spans.py. Prints one JSON object: the reading after import and
config load, then per call each stage's reading in MB and the first stage
that raised the call's peak (null when the call did not raise it).

    python scripts/peak_rss.py --workload fig1_run --seed 0 --calls 3
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import resource
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from nf_aliaser import cli, runner
from nf_aliaser.imaging import default_threads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS, cli_args, make_config  # noqa: E402

# (attribute of nf_aliaser.runner, stage name) for every stage the runner calls.
STAGES = [(attr, name) for module, attr, name, _ in LAYERS if module == "nf_aliaser.runner"]


def maxrss_mb() -> float:
    """The process's peak resident set so far, in MB (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def recording(fn, name: str, readings: list):
    """fn, appending (name, maxrss_mb()) to readings as each call returns."""
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        readings.append((name, maxrss_mb()))
        return result
    return wrapper


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="fig1_run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--calls", type=int, default=3)
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error(f"--calls must be at least 1, got {args.calls}")

    readings = []
    originals = {attr: getattr(runner, attr) for attr, _ in STAGES}
    report = {"workload": args.workload, "seed": args.seed, "cpus": default_threads(),
              "python": platform.python_version(), "numpy": np.__version__}
    with tempfile.TemporaryDirectory() as work:
        config = make_config(args.workload, args.seed)
        config_path = Path(work) / "config.json"
        config_path.write_text(json.dumps(config))
        out = Path(work) / "out"
        call_args = cli_args(args.workload, config, str(config_path), str(out))
        cli.load_config(str(config_path))
        report["setup_mb"] = maxrss_mb()
        calls = []
        try:
            for attr, name in STAGES:
                setattr(runner, attr, recording(originals[attr], name, readings))
            for _ in range(args.calls):
                shutil.rmtree(out, ignore_errors=True)
                before = maxrss_mb()
                readings.clear()
                with redirect_stdout(io.StringIO()):
                    rc = cli.main(call_args)
                if rc != 0:
                    print(f"call {len(calls)} exited with {rc}", file=sys.stderr)
                    return 1
                peak = maxrss_mb()
                raised = next((name for name, mb in readings if mb == peak), None)
                calls.append({"stages": [[name, mb] for name, mb in readings],
                              "peak_mb": peak,
                              "peak_stage": raised if peak > before else None})
        finally:
            for attr, fn in originals.items():
                setattr(runner, attr, fn)
    report["calls"] = calls
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
