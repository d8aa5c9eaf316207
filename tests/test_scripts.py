"""Smoke tests for the reproduction scripts under scripts/."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_spectrum_vs_bound_writes_rows(tmp_path):
    out = tmp_path / "spectrum.csv"
    result = run_script("spectrum_vs_bound.py", "--points", "3", "--out", str(out))
    assert result.returncode == 0, result.stderr
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 3


@pytest.mark.parametrize("name", ["parameter_trends.py", "run_figures.py"])
def test_imports_resolve(name):
    namespace = runpy.run_path(str(SCRIPTS / name), run_name="smoke")
    assert callable(namespace["main"])


# run_figures.py gets --presets with no names, so it would run nothing if
# --threads 0 were accepted.
@pytest.mark.parametrize("name, extra", [("run_figures.py", ["--presets"]),
                                         ("parameter_trends.py", [])])
def test_threads_zero_rejected(tmp_path, name, extra):
    result = run_script(name, "--threads", "0", *extra)
    assert result.returncode == 2
    assert "--threads" in result.stderr


def test_check_float_format_smoke():
    result = run_script("check_float_format.py", "--values", "3", "--seed", "1")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "values: 1900, formatted by Python: " in result.stdout
    assert result.stdout.rstrip().endswith("mismatching rows: 0")


def test_check_float_format_flags_a_mismatch(monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPTS / "check_float_format.py"), run_name="smoke")["main"]
    write = main.__globals__["_write_pairs_csv"]

    def off_by_one_digit(path, head, pairs):
        write(path, head, pairs)
        text = path.read_text(encoding="ascii")
        path.write_text(text.replace("e-1", "e-2", 1), encoding="ascii")

    monkeypatch.setitem(main.__globals__, "_write_pairs_csv", off_by_one_digit)
    assert main(["--values", "3", "--seed", "1"]) == 1
    assert "mismatching rows: 1" in capsys.readouterr().out


def test_kernel_threads_smoke():
    # 91 x 91 cells make two blocks, so the 2-thread calls run two workers.
    result = run_script("kernel_threads.py", "--workload", "planar_sweep", "--rounds", "1",
                        "--resolution", "91")
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout)
    assert set(report["geometries"]) == {"1d", "2d"}
    assert report["geometries"]["2d"]["elements"] == {"tx": 1024, "rx": 1024}
    for geometry in report["geometries"].values():
        assert geometry["cells"] == 91 * 91
        for kernel in ("partial_image", "aliasing_mask"):
            assert geometry[kernel]["identical"] is True
            elements = (sum(geometry["elements"].values()) if kernel == "aliasing_mask"
                        else geometry["elements"]["tx"])
            for threads in ("threads_1", "threads_2"):
                times = geometry[kernel][threads]
                assert 0 < times["q1"] <= times["median"] <= times["q3"]
                # The median is rounded to 0.1 ms, the rate to 0.001 ns.
                seconds = times["ns_per_element_cell"] * elements * geometry["cells"] / 1e9
                assert seconds == pytest.approx(times["median"], abs=1e-4)


@pytest.mark.parametrize("resolution", ["1", "0"])
def test_kernel_threads_resolution_below_two_rejected(resolution):
    result = run_script("kernel_threads.py", "--rounds", "1", "--resolution", resolution)
    assert result.returncode == 2
    assert "--resolution must be at least 2" in result.stderr


def test_peak_rss_smoke():
    result = run_script("peak_rss.py", "--workload", "fig1_run", "--seed", "3", "--calls", "2")
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads(result.stdout)
    assert (report["workload"], report["seed"], len(report["calls"])) == ("fig1_run", 3, 2)
    before = report["setup_mb"]
    for call in report["calls"]:
        names = [name for name, _ in call["stages"]]
        assert names[:4] == ["chirp.aliasing_mask", "imaging.partial_image",
                             "imaging.partial_image", "imaging.bistatic_image"]
        assert names[-1] == "outputs.write_manifest"
        assert names.count("outputs.write_field_pgm") == 3
        readings = [before] + [mb for _, mb in call["stages"]]
        assert readings == sorted(readings)
        assert call["peak_mb"] >= readings[-1]
        assert call["peak_stage"] is None or call["peak_stage"] in names
        before = call["peak_mb"]


def test_peak_rss_calls_below_one_rejected():
    result = run_script("peak_rss.py", "--calls", "0")
    assert result.returncode == 2
    assert "--calls must be at least 1" in result.stderr
