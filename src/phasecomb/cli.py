"""Command line front end.

Subcommands mirror the library drivers: loss-curve, a-omega-range,
speed-sweep, pl-losses, design-rule, validate.  Distances are meters and
speeds km/h here and in the sweep drivers, which convert them; all below is
SI.  Exit codes: 0 success, 1 runtime or validation failure, 2 usage
(bad flags, or a request the library rejects as InvalidRequest).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
import warnings

import numpy as np

from . import antenna, experiments, geometry, pathloss, snr, validation
from .errors import InvalidRequest, PhasecombError

ENV_OUT_DIR = "PHASECOMB_OUT_DIR"


def _default_out(filename: str) -> str:
    return os.path.join(os.environ.get(ENV_OUT_DIR, "."), filename)


def _positive_float(text: str) -> float:
    """argparse type for steps and intervals: a finite number above zero."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def _int_at_least(low: int, what: str):
    """argparse type for --packets/--K (at least 2) and validate --seed (at least 0)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not a {what} of at least {low}")
        return value
    parse.__name__ = what  # argparse names it in "invalid <name> value"
    return parse


def _resolve_pattern(spec: str) -> antenna.AntennaPattern:
    if spec in antenna.BUILTIN_PATTERNS:
        return antenna.builtin_pattern(spec)
    return antenna.load_pattern_csv(spec)


def _wavelength_spacing(args) -> tuple[float, float]:
    """Carrier wavelength and antenna spacing (default 10 wavelengths) [m]."""
    wavelength = geometry.carrier_wavelength(args.fc_ghz * 1e9)
    return wavelength, 10.0 * wavelength if args.spacing is None else args.spacing


def _model(args) -> pathloss.PathlossModel:
    return (pathloss.load_pathloss_config(args.pathloss_config)
            if args.pathloss_config else pathloss.PathlossModel())


def _parse_slopes(spec: str, n_packets: int, t_interval: float) -> dict[str, float]:
    base = 2.0 * math.pi / (n_packets * t_interval)
    chosen: dict[str, float] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if item == "star":
            for slope in snr.design_rule_alpha_star(n_packets, t_interval):
                q = round(slope / base)
                chosen[f"q{q}"] = float(slope)
        else:
            try:
                q = int(item)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"slope {item!r} is neither an integer index nor 'star'")
            if not 1 <= q <= n_packets - 1:
                raise argparse.ArgumentTypeError(
                    f"slope index {q} outside 1..{n_packets - 1}")
            chosen[f"q{q}"] = q * base
    return chosen


def _cmd_loss_curve(args) -> int:
    result = experiments.loss_curve(args.packets, c1=args.c1, c2=args.c2,
                                    x_step=args.step)
    result.to_csv(args.out)
    print(f"wrote {args.out} ({len(result.values)} rows)")
    return 0


def _cmd_a_omega_range(args) -> int:
    wavelength, spacing = _wavelength_spacing(args)
    d_x = experiments._span(args.dx_min, args.dx_max, args.dx_step, "distance")
    result = experiments.a_omega_range(
        d_x, delta_a=spacing, wavelength=wavelength, n_packets=args.packets,
        t_interval=args.interval, dv_max_kmh=args.dv_max,
        dv_step_kmh=args.dv_step, d_y_values=args.dy_set)
    for label, bound in (("pi_2", math.pi / 2),
                         ("pi_n", math.pi / args.packets)):
        result.metadata[f"threshold_{label}_m"] = experiments.threshold_distance(
            result, bound)
    result.to_csv(args.out)
    print(f"wrote {args.out} ({len(result.values)} rows)")
    print(f"half slope-offset below pi/2 beyond "
          f"{result.metadata['threshold_pi_2_m']:g} m, "
          f"below pi/{args.packets} beyond "
          f"{result.metadata['threshold_pi_n_m']:g} m")
    return 0


def _cmd_speed_sweep(args) -> int:
    slopes = _parse_slopes(args.slopes, args.packets, args.interval)
    dv = experiments._span(args.dv_min, args.dv_max, args.dv_step, "speed")
    wavelength, spacing = _wavelength_spacing(args)
    base = geometry.ScenarioParams(
        d_x=args.dx, d_y=args.dy_set[0], delta_v=0.0, delta_a=spacing, wavelength=wavelength,
        n_packets=args.packets, t_interval=args.interval)
    _, uses_pl, uses_resp = snr._FACTORS[args.mode]
    model = _model(args) if uses_pl else None
    patterns = ((_resolve_pattern(args.pattern0), _resolve_pattern(args.pattern1))
                if uses_resp else None)
    if args.paths.strip() == "both":
        paths = ("exact", "affine")
    else:
        paths = tuple(p.strip() for p in args.paths.split(",") if p.strip())
    result = experiments.speed_sweep(
        args.mode, slopes, dv, base, model=model, patterns=patterns,
        paths=paths, d_y_values=args.dy_set)
    # the patterns and pathloss model the sweep read, which the library's
    # metadata leaves out
    if uses_resp:
        result.metadata.update(pattern0=args.pattern0, pattern1=args.pattern1)
    if uses_pl:
        result.metadata["pathloss_model"] = dataclasses.asdict(model)
    result.to_csv(args.out)
    print(f"wrote {args.out} ({len(result.values)} rows)")
    for label in slopes:
        for path in paths:
            series = result.series[f"{label}_{path}_db"]
            dip = result.series["reference_db"] - series
            i = int(np.argmax(dip))
            print(f"{label} {path}: worst dip {dip[i]:.2f} dB below reference "
                  f"at {result.values[i]:g} km/h")
    return 0


def _cmd_pl_losses(args) -> int:
    result = experiments.pl_slope_losses(
        args.packets, model=_model(args), d_x=args.dx, dv_kmh=args.dv, d_y=args.dy,
        t_interval=args.interval)
    result.to_csv(args.out)
    print(f"wrote {args.out} ({len(result.values)} rows)")
    for q, floor in zip(result.values, result.series["floor_universal_db"]):
        print(f"q={int(q)}: universal floor {floor:.2f} dB")
    return 0


def _cmd_design_rule(args) -> int:
    slopes = snr.optimal_slope_set(args.packets, args.interval)
    chosen = snr.design_rule_alpha_star(args.packets, args.interval)
    base = 2.0 * math.pi / (args.packets * args.interval)
    print(f"packets: {args.packets}, interval: {args.interval:g} s")
    print("zero-loss slope set [rad/s]: "
          + ", ".join(f"{s:.6g}" for s in slopes))
    for slope in chosen:
        q = round(slope / base)
        half = 0.5 * slope * args.interval
        print(f"design-rule slope: {slope:.6g} rad/s (q={q}, "
              f"half-angle per interval {half:.6g} rad = "
              f"{math.degrees(half):g} deg)")
    ok = snr.check_optimality([0.0, float(chosen[0])], args.packets, args.interval)
    print(f"pairwise zero-loss condition: {'satisfied' if ok else 'violated'}")
    return 0


def _cmd_validate(args) -> int:
    results = validation.run_validation(seed=args.seed)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    failed = sum(not res.passed for res in results)
    print(f"{len(results) - failed}/{len(results)} checks passed (seed {args.seed})")
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later run.  It holds
    no per-run state: list defaults are tuples and --out defaults to None,
    resolved against $PHASECOMB_OUT_DIR by main on each run."""
    parser = argparse.ArgumentParser(
        prog="phasecomb",
        description="Worst-case burst sum-SNR analysis for two-branch "
                    "analog phase-slope combining.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_csv=None, interval=True):
        p.add_argument("--packets", "--K", type=_int_at_least(2, "packet count"), default=10,
                       help="packets per burst, at least 2 (default 10)")
        if interval:
            p.add_argument("--interval", "--T", type=_positive_float, default=0.1,
                           help="packet interval in seconds (default 0.1)")
        if default_csv:
            p.add_argument("--out", help=f"output CSV path (default ${ENV_OUT_DIR} or cwd)")
            p.set_defaults(default_csv=default_csv)

    p = sub.add_parser("loss-curve", help="loss and envelope bounds over x")
    add_common(p, "loss_curve.csv", interval=False)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--c2", type=float, default=0.0)
    p.add_argument("--step", type=_positive_float, default=1e-3,
                   help="x grid step in radians")
    p.set_defaults(func=_cmd_loss_curve, parser=p)

    p = sub.add_parser("a-omega-range",
                       help="phase-difference drift range versus distance")
    add_common(p, "a_omega_range.csv")
    p.add_argument("--fc-ghz", type=float, default=5.9)
    p.add_argument("--spacing", type=float, default=None,
                   help="antenna separation in meters (default 10 wavelengths)")
    p.add_argument("--dx-min", type=float, default=1.0)
    p.add_argument("--dx-max", type=float, default=100.0)
    p.add_argument("--dx-step", type=_positive_float, default=1.0)
    p.add_argument("--dv-max", type=float, default=60.0, help="speed range [km/h]")
    p.add_argument("--dv-step", type=_positive_float, default=1.0)
    p.add_argument("--dy-set", type=float, nargs="+", default=(-4.0, 4.0),
                   help="lateral offsets to cover [m]")
    p.set_defaults(func=_cmd_a_omega_range, parser=p)

    p = sub.add_parser("speed-sweep",
                       help="worst-case sum-SNR versus relative speed")
    add_common(p, "speed_sweep.csv")
    p.add_argument("--mode", choices=tuple(snr._FACTORS), default="omega")
    p.add_argument("--fc-ghz", type=float, default=5.9)
    p.add_argument("--spacing", type=float, default=None)
    p.add_argument("--dx", type=float, default=30.0)
    p.add_argument("--dy-set", "--dy", type=float, nargs="+", default=(-4.0,),
                   help="take the worst case over these lateral offsets [m]")
    p.add_argument("--dv-min", type=float, default=-60.0)
    p.add_argument("--dv-max", type=float, default=60.0)
    p.add_argument("--dv-step", type=_positive_float, default=1.0)
    p.add_argument("--slopes", default="1,star",
                   help="comma list of slope indices q or 'star' (default '1,star')")
    p.add_argument("--paths", default="exact,affine",
                   help="evaluation paths: exact, affine or both")
    p.add_argument("--pattern0", default="patch_front",
                   help="builtin name or CSV path (phi/combined modes)")
    p.add_argument("--pattern1", default="patch_rear")
    p.add_argument("--pathloss-config", default=None,
                   help="JSON file overriding the pathloss model")
    p.set_defaults(func=_cmd_speed_sweep, parser=p)

    p = sub.add_parser("pl-losses",
                       help="per-slope sum-SNR floors under path gain drift")
    add_common(p, "pl_losses.csv")
    p.add_argument("--dx", type=float, default=30.0)
    p.add_argument("--dy", type=float, default=0.0)
    p.add_argument("--dv", type=float, default=-60.0, help="relative speed [km/h]")
    p.add_argument("--pathloss-config", default=None)
    p.set_defaults(func=_cmd_pl_losses, parser=p)

    p = sub.add_parser("design-rule", help="print the robust slope choice")
    add_common(p)
    p.set_defaults(func=_cmd_design_rule, parser=p)

    p = sub.add_parser("validate", help="run the invariant self-checks")
    p.add_argument("--seed", type=_int_at_least(0, "seed"), default=42)
    p.set_defaults(func=_cmd_validate, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out", "") is None:  # no --out given: read the env on each run
        args.out = _default_out(args.default_csv)
    try:
        # entering catch_warnings resets the once-per-location registry, so
        # each run shows its own warnings; the caller's filters still apply
        with warnings.catch_warnings():
            return args.func(args)
    except (argparse.ArgumentTypeError, InvalidRequest) as exc:
        args.parser.error(str(exc))  # the subcommand's usage, as argparse's own errors show
    except (PhasecombError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
