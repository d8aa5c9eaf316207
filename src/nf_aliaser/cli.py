"""Command-line entry point: run configs, figure presets, and parameter sweeps."""

from __future__ import annotations

import argparse
import json
import sys

from .config import SWEEP_PARAMS, load_config, resolve_config
from .errors import ConfigError, GeometryError, GridError, SingularityError
from .imaging import default_threads
from .presets import PRESETS, preset_config
from .runner import run, sweep


def _thread_count(text: str) -> int:
    """--threads value: a whole number of at least 1."""
    try:
        threads = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a whole number, got {text!r}") from None
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {threads}")
    return threads


def add_threads_option(parser: argparse.ArgumentParser) -> None:
    """--threads, defaulting to the CPUs this process may run on."""
    threads = default_threads()
    parser.add_argument("--threads", type=_thread_count, default=threads,
                        help=f"compute threads (default: {threads}, the available CPUs)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nf-aliaser",
        description="Near-field bistatic imaging simulator with aliasing-region prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON configuration")
    p_run.add_argument("config", help="path to a config.json")
    p_run.add_argument("--out", default="nf_aliaser_out", help="output directory")
    add_threads_option(p_run)

    p_preset = sub.add_parser("preset", help="run a built-in figure preset")
    p_preset.add_argument("name", choices=sorted(PRESETS), help="preset name")
    p_preset.add_argument("--out", default=None, help="output directory (default: out_<name>)")
    add_threads_option(p_preset)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter of a configuration")
    p_sweep.add_argument("config", help="path to a config.json")
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True,
                         help="JSON list of sweep values, e.g. '[16, 64]'")
    p_sweep.add_argument("--out", default="nf_aliaser_out", help="output directory")
    add_threads_option(p_sweep)
    return parser


def _report(manifest: dict, out: str) -> None:
    names = ", ".join(p["name"] for p in manifest["products"])
    print(f"wrote {len(manifest['products'])} products to {out}: {names}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            manifest = run(config, args.out, threads=args.threads)
            _report(manifest, args.out)
        elif args.command == "preset":
            config = resolve_config(preset_config(args.name))
            out = args.out if args.out is not None else f"out_{args.name}"
            manifest = run(config, out, threads=args.threads)
            _report(manifest, out)
        elif args.command == "sweep":
            config = load_config(args.config)
            try:
                values = json.loads(args.values)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--values is not valid JSON: {exc.msg}") from exc
            rows = sweep(config, args.param, values, out_dir=args.out,
                         threads=args.threads)
            for row in rows:
                print(f"{row['value']}: mask_cells={row['mask_cells']} "
                      f"peak_cell={row['peak_cell']} "
                      f"peak_to_artifact_db={row['peak_to_artifact_db']:.2f}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, GridError, SingularityError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
