"""Command-line front end: run sweeps, dump pilot grids, render charts.

Exit codes: 0 success, 1 I/O failure, 2 configuration/validation failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .core import (
    BandConfig,
    ConfigError,
    Method,
    default_config,
    load_config,
    validate_config,
)
from .montecarlo import SWEEP_PARAMS, SweepSpec, apply_point, format_csv, run_sweep
from .pilots import build_pilot_grid
from .plotting import PlotSpec, write_chart
from .presets import PRESETS, build_preset

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2

_AXIS_TYPES = {
    "k_factor_db": float,
    "velocity_kmh": float,
    "snr_db": float,
    "pilot_k_p": int,
    "method": str,
}
_SCALAR_TYPES = {
    "n_realizations": int,
    "master_seed": int,
    "k_factor_scale_db": float,
    "snr_db_sub6": float,
}


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {value})")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmlink",
        description=(
            "Monte-Carlo link-level simulator for dual-band MIMO-OFDM with "
            "out-of-band-aided mmWave channel estimation"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a sweep or single point, emit CSV")
    src = run.add_mutually_exclusive_group()
    src.add_argument("--config", metavar="PATH", help="config file (INI format)")
    src.add_argument(
        "--preset", metavar="NAME", help=f"experiment preset: {', '.join(sorted(PRESETS))}"
    )
    run.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        help="override a parameter; sweep axes take comma-separated lists "
        f"({', '.join(SWEEP_PARAMS)}; scalars: {', '.join(_SCALAR_TYPES)})",
    )
    run.add_argument(
        "--workers",
        type=_worker_count,
        # a string default goes through the type check like a command-line
        # value, so a bad $MMLINK_WORKERS is a usage error (exit 2), not a
        # traceback
        default=os.environ.get("MMLINK_WORKERS", "1"),
        help="parallel worker processes (default $MMLINK_WORKERS or 1)",
    )
    run.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")

    plot = sub.add_parser("plot", help="render a results CSV as an SVG chart")
    plot.add_argument("csv", help="results CSV produced by 'run'")
    plot.add_argument(
        "--x", required=True, help="x-axis column (k_factor_db, velocity_kmh, ...)"
    )
    plot.add_argument("--out", metavar="PATH", help="output SVG path")
    plot.add_argument("--title", default="", help="chart title")

    grid = sub.add_parser("pilots", help="dump a pilot grid as CSV rows")
    grid.add_argument("m_tx", type=int, help="number of transmit antennas")
    grid.add_argument("k_p", type=int, help="pilot symbols per direction")
    grid.add_argument("n", type=int, help="number of subcarriers")
    grid.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    return parser


def _parse_overrides(pairs: list[str]) -> tuple[dict, dict]:
    axes: dict[str, tuple] = {}
    scalars: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE (got '{pair}')")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if key in _AXIS_TYPES:
            conv = _AXIS_TYPES[key]
            try:
                values = tuple(conv(v.strip()) for v in raw.split(","))
            except ValueError:
                raise ConfigError(f"cannot parse '{raw}' for {key}") from None
            if key == "method":
                for v in values:
                    if v not in [m.value for m in Method]:
                        raise ConfigError(
                            f"method must be one of {[m.value for m in Method]} "
                            f"(got '{v}')"
                        )
            axes[key] = values
        elif key in _SCALAR_TYPES:
            try:
                scalars[key] = _SCALAR_TYPES[key](raw.strip())
            except ValueError:
                raise ConfigError(f"cannot parse '{raw}' for {key}") from None
        else:
            raise ConfigError(f"unknown --set key '{key}'")
    return axes, scalars


def _apply_overrides(
    specs: list[SweepSpec], axes: dict, scalars: dict
) -> list[SweepSpec]:
    out = []
    for spec in specs:
        base = replace(spec.base, **scalars) if scalars else spec.base
        new_axes = [(n, v) for n, v in spec.axes if n not in axes]
        new_axes += [(n, v) for n, v in axes.items()]
        out.append(SweepSpec(base=base, axes=tuple(new_axes)))
    return out


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        if args.preset:
            specs = build_preset(args.preset)
        elif args.config:
            specs = [SweepSpec(base=load_config(args.config))]
        else:
            specs = [SweepSpec(base=default_config())]
        axes, scalars = _parse_overrides(args.set)
        specs = _apply_overrides(specs, axes, scalars)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    violations = []
    for spec in specs:
        for point in spec.points():
            try:
                cfg = apply_point(spec.base, point)
            except ValueError as exc:
                violations.append(str(exc))
                continue
            violations.extend(validate_config(cfg))
    if violations:
        for v in dict.fromkeys(violations):  # dedupe, keep order
            print(f"invalid configuration: {v}", file=sys.stderr)
        return EXIT_VALIDATION

    records = []
    for spec in specs:
        records.extend(run_sweep(spec, workers=args.workers))
    csv_text = format_csv(records)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(csv_text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _cmd_plot(args: argparse.Namespace) -> int:
    out = args.out or os.path.splitext(args.csv)[0] + ".svg"
    spec = PlotSpec(csv_path=args.csv, x_param=args.x, out_path=out, title=args.title)
    try:
        write_chart(spec)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # a malformed CSV or an unknown --x column
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_pilots(args: argparse.Namespace) -> int:
    band = BandConfig(
        carrier_freq_hz=1e9,
        subcarrier_spacing_hz=1.0,
        n_subcarriers=args.n,
        m_tx=args.m_tx,
        m_rx=args.m_tx,
        tx_power_watt=1.0,
        rms_delay_spread_s=0.0,
    )
    try:
        grid = build_pilot_grid(band, args.k_p, np.random.Generator(np.random.PCG64(0)))
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    lines = ["antenna,direction,symbol,subcarrier"]
    lines += [f"{a},{d},{s},{n}" for a, d, s, n in grid.rows()]
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "plot":
        return _cmd_plot(args)
    return _cmd_pilots(args)


if __name__ == "__main__":
    sys.exit(main())
