"""One workload in a fresh process: set-up, a warm-up call, timed calls, checks.

Started by run.py, so that set-up time and peak RSS belong to this workload
alone. Every call goes through the public entry point ``nf_aliaser.cli.main``
with the generated config. Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure import plus config load, then exit")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory the CLI writes products to")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from nf_aliaser import cli
    cli.load_config(args.config)
    setup_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"nf_aliaser imported from {cli.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy

    from spans import Tracer
    from workloads import cli_args

    config = json.loads(Path(args.config).read_text())
    out = Path(args.out)
    call_args = cli_args(args.workload, config, args.config, str(out))
    tracer = Tracer()
    reference = None
    problems = []
    calls = {"untraced": [], "traced": []}
    attempted = failed = 0

    # Products are checked in a separate process, so that the checks' memory
    # does not count in this process's peak RSS.
    checker = subprocess.Popen([sys.executable, str(HERE / "checks.py")],
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                               env={**os.environ, "PYTHONPATH": str(ROOT / "src")})

    def one_call(index: int, traced: bool) -> float:
        nonlocal reference, attempted, failed
        shutil.rmtree(out, ignore_errors=True)
        found = []
        if traced:
            with tracer.installed():
                with tracer.call(index) as span, redirect_stdout(io.StringIO()):
                    rc = _guarded(cli.main, call_args, found)
            elapsed = span["end"] - span["start"]
        else:
            with redirect_stdout(io.StringIO()):
                begin = time.perf_counter()
                rc = _guarded(cli.main, call_args, found)
                elapsed = time.perf_counter() - begin
        attempted += 1
        if rc != 0 and not found:
            found.append(f"exit code {rc}")
        if not found:
            checker.stdin.write(json.dumps([config, str(out), args.seed, index]) + "\n")
            checker.stdin.flush()
            hashes, found = json.loads(checker.stdout.readline())
            if not found:
                if reference is None:
                    reference = hashes
                elif hashes != reference:
                    found.append("products differ from the first call's")
        if found:
            failed += 1
            problems.append(f"call {index}: " + "; ".join(found))
        return elapsed

    try:
        one_call(0, traced=False)  # warm-up, untimed
        measured = 0.0
        index = 1
        # Traced runs alternate traced and untraced calls so that the tracing
        # overhead is measured under the same conditions.
        while (measured < args.seconds or not calls["untraced"]
               or (args.trace and not calls["traced"])):
            traced = bool(args.trace) and index % 2 == 1
            elapsed = one_call(index, traced)
            calls["traced" if traced else "untraced"].append(elapsed)
            measured += elapsed
            index += 1
    finally:
        checker.stdin.close()
        checker.wait()
        shutil.rmtree(out, ignore_errors=True)

    print(json.dumps({
        "setup_s": setup_s,
        "walls": calls["untraced"],
        "traced_walls": calls["traced"],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "products": reference or {},
        "spans": tracer.spans,
        "missing": sorted(tracer.missing),
        "numpy": numpy.__version__,
    }))
    return 0


def _guarded(fn, argv, found):
    """Exit code of fn(argv); an exception counts as a failed call."""
    try:
        return fn(argv)
    except Exception:
        found.append(traceback.format_exc(limit=3))
        return -1


if __name__ == "__main__":
    sys.exit(main())
