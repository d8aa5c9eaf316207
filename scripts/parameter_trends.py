#!/usr/bin/env python3
"""Print the aliasing-free-region trends as a table.

Covers the four comparisons: antenna spacing, array length at fixed spacing,
scatterer range, and array dimensionality. Mask areas are combined-mask cell
counts on each preset's grid.
"""

from __future__ import annotations

import argparse

from nf_aliaser import resolve_config, sweep
from nf_aliaser.cli import add_threads_option
from nf_aliaser.presets import preset_config


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    add_threads_option(parser)
    args = parser.parse_args()

    studies = [
        ("spacing (fixed 500-wavelength length)", "fig2a", None, None),
        ("length (fixed spacing)", "fig2b", None, None),
        ("scatterer range (fig1 arrays)", "fig1", "range",
         [[500.0, 500.0], [1000.0, 1000.0]]),
        ("dimensionality (1D vs 2D)", "fig2c", None, None),
    ]

    print(f"{'study':42} {'variant':16} {'mask cells':>10} {'peak/artifact dB':>17}")
    for title, preset, param, values in studies:
        config = resolve_config(preset_config(preset))
        rows = sweep(config, param, values, threads=args.threads)
        for row in rows:
            print(f"{title:42} {row['value']:16} {row['mask_cells']:>10} "
                  f"{row['peak_to_artifact_db']:>17.2f}")
        title = ""


if __name__ == "__main__":
    main()
