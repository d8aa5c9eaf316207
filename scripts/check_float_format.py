#!/usr/bin/env python3
"""Compare the CSV pair writer with "%.17g" on seeded doubles from every decade.

For each decade 10**k, k = -324..308, draws --values doubles with a uniform
mantissa in [1, 10) and a random sign (the lowest decades are subnormal, the
top one overflows partly to inf), writes them as rows of two through
`outputs._write_pairs_csv`, CHECK_ROWS rows per file, and compares every row
with "%.17g" applied to one value at a time. Prints the count of values
checked, of values formatted by Python instead of the vectorized path, and of
mismatching rows; exits 1 on any mismatch.

    python scripts/check_float_format.py --values 5000 --seed 1
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from nf_aliaser.floatfmt import python_formatted
from nf_aliaser.outputs import _write_pairs_csv

DECADES = np.arange(-324, 309)
CHECK_ROWS = 200_000


def seeded_values(per_decade: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mantissa = rng.uniform(1.0, 10.0, size=(len(DECADES), per_decade))
    with np.errstate(over="ignore"):
        values = mantissa * 10.0 ** DECADES[:, None].astype(float)
    values *= rng.choice([-1.0, 1.0], size=values.shape)
    return rng.permutation(values.ravel())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--values", type=int, default=1000, help="doubles per decade")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.values < 1:
        parser.error("--values must be at least 1")

    values = seeded_values(args.values, args.seed)
    if len(values) % 2:
        values = np.append(values, 1.0)
    pairs = values.reshape(-1, 2)
    bad, python = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.csv"
        # CHECK_ROWS rows per file, so the strings held do not grow with --values.
        for start in range(0, len(pairs), CHECK_ROWS):
            chunk = pairs[start:start + CHECK_ROWS]
            python += python_formatted(chunk)
            _write_pairs_csv(path, ["# float format check"], chunk)
            rows = path.read_text(encoding="ascii").split("\n")[1:-1]
            expected = ["%.17g,%.17g" % (a, b) for a, b in chunk.tolist()]
            if len(rows) != len(expected):
                print(f"rows {start}-: wrote {len(rows)} rows for {len(expected)} pairs")
                bad.append(start)
                continue
            for i, (got, want) in enumerate(zip(rows, expected)):
                if got != want:
                    if len(bad) < 10:
                        print(f"row {start + i}: wrote {got!r}, %.17g gives {want!r}")
                    bad.append(start + i)
    print(f"values: {len(values)}, formatted by Python: {python}, "
          f"mismatching rows: {len(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
