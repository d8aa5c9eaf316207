#!/usr/bin/env python3
"""Run every figure preset and write its data products under out/.

Equivalent to `nf-aliaser preset <name>` for each preset; useful as a single
reproduction entry point. Each preset's line ends with the sha256 of its
manifest.json, which holds the sha256 of every product, so comparing those
fields between two checkouts (for example with `awk '{print $1, $NF}'`) shows
whether they write byte-identical products.
"""

from __future__ import annotations

import argparse
import hashlib
import time
from pathlib import Path

from nf_aliaser import resolve_config, run
from nf_aliaser.presets import PRESETS, preset_config


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out"))
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--presets", nargs="*", default=sorted(PRESETS))
    args = parser.parse_args()

    for name in args.presets:
        config = resolve_config(preset_config(name))
        start = time.perf_counter()
        manifest = run(config, args.out / name, threads=args.threads)
        elapsed = time.perf_counter() - start
        digest = hashlib.sha256((args.out / name / "manifest.json").read_bytes()).hexdigest()
        print(f"{name}: {len(manifest['products'])} products in {elapsed:.1f}s "
              f"-> {args.out / name} manifest sha256 {digest}")


if __name__ == "__main__":
    main()
