"""Dump and compare the values of a fixed set of public phasecomb calls.

    PYTHONPATH=src python3 tools/parity.py dump OUT
    python3 tools/parity.py compare A B

``dump`` imports phasecomb from the import path (so ``PYTHONPATH`` picks
the checkout to measure) and writes one ``key<TAB>value`` line per call:
each float as ``float.hex``, or the class name of the error the call
raised.  The calls are

* ``sum_snr_*`` for the 4 modes, both evaluation paths and, for ``pl``,
  both fits, at several slopes, on seeded random scenarios and on
  degenerate ones (a transmitter on an antenna or on the array center,
  close approaches past the pathloss reference distance, weights the fits
  drive negative);
* ``sum_snr_phi`` and ``sum_snr_combined`` on both paths at two slopes
  per scenario on pairs that reach a pattern pair's kept worst-case AOA in
  other ways: each builtin pair reversed, its first pattern passed twice,
  and a freshly loaded copy of the pair;
* ``speed_sweep`` for the 4 modes x several d_x x 3 offset orders x 3 path
  sets x 2 pattern pairs: every series value, or the error;
* malformed requests to every driver and ``sum_snr_*`` call: empty grids
  (also an empty ``threshold_distance`` sweep), nested, scalar and
  non-numeric distance and offset grids, no, unknown or repeated paths, no
  slopes, an unknown fit on both paths, non-finite slopes and slopes that are
  no real number (an array or ``None``), zero and NaN steps; a NaN or
  infinite sample time or value passed to ``least_squares_fit``,
  ``threshold_distance`` bound and ``c_ratio_squared`` w; non-integer packet
  counts, and counts below 2 passed to the kernels and weight helpers;
  slope-set requests with too few packets or a zero, negative or NaN
  interval; a burst of 3 packets 1e308 s apart, whose span overflows, passed
  to ``ScenarioParams``, every ``sum_snr_*`` call, the slope-set and weight
  helpers; grid scenarios (array ``d_x``, ``d_y`` or ``delta_v``) passed to
  ``sum_snr_*`` and as the base of ``speed_sweep``; a pathloss model or
  antenna pattern left ``None`` in each ``sum_snr_*`` mode that reads it and
  in every ``speed_sweep`` mode, also beside an unknown path or an empty
  speed grid.  Each records the class name of whatever it raises (any
  exception), or what it returns;
* the brute-force ``validation.worst_case_y_scan`` on seeded bursts (one
  burst; 200 zero-padded bursts shaped like the battery's scan check; 2,000
  bursts on a 5,000-point grid) and on edge bursts for its pruning bound, on
  a 100,000-point and a 32,891-point grid (minima on and between the points
  beside sub-block and chunk boundaries, at the first and the last point;
  sums from subnormal to 1e300; an all-zero burst): every y and value; on
  both grids, one burst at a time, a NaN or infinite weight or phase and two
  packets whose sum overflows: the outcome; and for ``run_validation(seed)``,
  seeds 0-9 and 42, every y and value of the scan the battery makes and the
  pass flag and detail string of each check;
* the public helpers the evaluators call or route around, on the same
  scenarios: ``least_squares_fit`` on 1-D data and by column,
  ``taylor_omega`` and ``taylor_pathgain``, each model's slope and
  intercept bit for bit; and the set tests ``in_severe_set``,
  ``in_zero_loss_set`` and ``check_optimality`` at a NaN or infinite x;
* ``cli.main`` on each subcommand at its defaults, the README examples and
  a few requests that exit 2 (usage) or 1 (runtime), each run three times
  in this process: twice with ``$PHASECOMB_OUT_DIR`` unset, then with it
  set to a temporary directory, every run in a fresh working directory.
  Each run records its exit status, stdout, stderr and the bytes of every
  file it wrote, with the temporary paths replaced by ``<cwd>`` and
  ``<env>``.  Warnings are filtered out, as everywhere in the dump: the
  CSV metadata records the pathloss validity flag.

``compare`` prints every key whose value differs or that only one dump
holds, and exits 1 if there is any; it compares bit for bit.  It then
prints, for each call group, the number of differing entries, how many of
them change outcome class (an error's class name, a value, or missing),
and the largest absolute and relative difference between the numbers of
entries that hold numbers on both sides.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import sys
import tempfile
import warnings
from dataclasses import replace

import numpy as np

SEED = 20221
N_RANDOM = 150
MODES = ("omega", "pl", "phi", "combined")
PATTERN_PAIRS = (("patch_front", "patch_rear"), ("isotropic", "cardioid"))
# grid scenario fields: a one-element array, which is still a grid, and two others
GRIDS = {"d_x": np.array([30.0]), "d_y": np.array([-4.0, 4.0]),
         "delta_v": np.array([[0.0], [11.0]])}
# a burst whose span n * T overflows although T is finite
OVERFLOW = {"n_packets": 3, "t_interval": 1e308}
# one burst each: a NaN or infinite weight or phase, and two packets whose sum overflows
NON_FINITE_BURSTS = {"w=nan": ([math.nan], [0.3]), "w=inf": ([math.inf], [1.0]),
                     "w=-inf": ([-math.inf], [0.3]), "theta=nan": ([1.0], [math.nan]),
                     "theta=inf": ([1.0], [math.inf]), "sum=-inf": ([1e308, 1e308], [3.0, 3.0])}
# each subcommand at its defaults, the README examples, a sweep past the
# pathloss validity horizon, then requests that exit 2 and ones that exit 1
CLI_REQUESTS = (
    ("loss-curve",), ("a-omega-range",), ("speed-sweep",), ("pl-losses",), ("design-rule",),
    ("validate",),
    ("design-rule", "--K", "10", "--T", "0.1"), ("loss-curve", "--K", "10", "--out", "loss.csv"),
    ("a-omega-range", "--dx-min", "10", "--dx-max", "120", "--spacing", "0.508"),
    ("speed-sweep", "--mode", "omega", "--dx", "30", "--dy-set", "-4", "0", "4",
     "--slopes", "1,star"),
    ("speed-sweep", "--mode", "combined", "--pattern0", "patch_front", "--pattern1",
     "patch_rear"),
    ("pl-losses", "--dx", "30", "--dv", "60"), ("validate", "--seed", "42"),
    ("speed-sweep", "--mode", "pl", "--dx", "170"),
    ("no-such-command",), ("loss-curve", "--step", "0"), ("speed-sweep", "--slopes", "junk"),
    ("speed-sweep", "--dy-set"), ("speed-sweep", "--paths", "exact,exact"),
    ("a-omega-range", "--dx-min", "50", "--dx-max", "10"),
    ("speed-sweep", "--dx", "nan"), ("speed-sweep", "--mode", "phi", "--pattern0", "missing.csv"),
    ("pl-losses", "--pathloss-config", "missing.json"),
)


def _value(pc, fn, *args, **kwargs) -> str:
    try:
        return float(fn(*args, **kwargs)).hex()
    except (pc.PhasecombError, ValueError) as exc:
        return type(exc).__name__


def _scenarios(pc):
    """(label, scenario) pairs: seeded random ones, then degenerate ones."""
    lam = pc.carrier_wavelength(5.9e9)
    rng = np.random.default_rng(SEED)
    for i in range(N_RANDOM):
        yield f"random{i}", pc.ScenarioParams(
            d_x=float(rng.uniform(-120.0, 120.0)), d_y=float(rng.uniform(-6.0, 6.0)),
            delta_v=pc.kmh_to_mps(float(rng.uniform(-60.0, 60.0))),
            delta_a=float(rng.choice([0.0, 0.5, 10.0 * lam])), wavelength=lam,
            n_packets=int(rng.choice([2, 3, 8, 10, 16])),
            t_interval=float(rng.choice([0.05, 0.1, 0.2])))
    # K 5, T 0.5 s: mid-burst t0 is 1 s, the third packet; the transmitter
    # sits at along-track 0 then, so on antenna 0 or 1 or on the array center
    for d_x in (5.0, 10.0, 20.0):
        for d_y in (-0.5, 0.0, 0.5):
            yield f"crossing{d_x:g}_{d_y:g}", pc.ScenarioParams(
                d_x=d_x, d_y=d_y, delta_v=-d_x, delta_a=1.0, wavelength=lam,
                n_packets=5, t_interval=0.5)
    for d_x, d_y, dv_kmh in ((2.0, 0.0, 0.0), (10.0, -4.0, -60.0), (10.0, 0.5, -60.0),
                             (3.0, 0.3, 10.0), (10.0, 0.0, 60.0)):
        yield f"close{d_x:g}_{d_y:g}_{dv_kmh:g}", pc.ScenarioParams(
            d_x=d_x, d_y=d_y, delta_v=pc.kmh_to_mps(dv_kmh), delta_a=10.0 * lam,
            wavelength=lam)


def _single_calls(pc, model, pairs):
    for label, scen in _scenarios(pc):
        unit = 2.0 * math.pi / (scen.n_packets * scen.t_interval)
        slopes = [q * unit for q in range(1, scen.n_packets)] + [0.37 * unit]
        for path, exact in (("exact", True), ("affine", False)):
            for j, slope in enumerate(slopes):
                key = f"{label}\t{path}\ts{j}"
                yield f"omega\t{key}", _value(pc, pc.sum_snr_omega, slope, scen,
                                               use_exact=exact)
                for fit in ("taylor", "least_squares"):
                    yield f"pl_{fit}\t{key}", _value(pc, pc.sum_snr_pl, slope, scen, model,
                                                    use_exact=exact, fit=fit)
                for name, pair in pairs.items():
                    yield f"phi_{name}\t{key}", _value(pc, pc.sum_snr_phi, slope, scen, *pair,
                                                      use_exact=exact)
                    yield f"combined_{name}\t{key}", _value(
                        pc, pc.sum_snr_combined, slope, scen, model, *pair, use_exact=exact)


def _cache_calls(pc, model, pairs):
    for name, (p0, p1) in pairs.items():
        variants = {"reversed": (p1, p0), "same": (p0, p0),
                    "fresh": tuple(map(pc.builtin_pattern, name.split("+")))}
        for variant, pair in variants.items():
            for label, scen in _scenarios(pc):
                unit = 2.0 * math.pi / (scen.n_packets * scen.t_interval)
                for path, exact in (("exact", True), ("affine", False)):
                    for j, slope in enumerate((unit, 0.37 * unit)):
                        key = f"{variant}\t{name}\t{label}\t{path}\ts{j}"
                        yield f"cache\tphi\t{key}", _value(pc, pc.sum_snr_phi, slope, scen,
                                                            *pair, use_exact=exact)
                        yield f"cache\tcombined\t{key}", _value(
                            pc, pc.sum_snr_combined, slope, scen, model, *pair,
                            use_exact=exact)


def _outcome(fn, *args, **kwargs) -> str:
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # any class: the parent of a change may raise another one
        return type(exc).__name__
    if isinstance(result, float):
        return f"ok {result.hex()}"
    if isinstance(result, np.ndarray):
        return "ok " + " ".join(float(v).hex() for v in result)
    if hasattr(result, "series"):
        columns = (result.values, *result.series.values())
    elif dataclasses.is_dataclass(result):  # an affine model
        columns = [np.ravel(getattr(result, f.name)) for f in dataclasses.fields(result)]
    else:
        return f"ok {result!r}"
    return "ok " + " | ".join(" ".join(float(v).hex() for v in col) for col in columns)


def _malformed(label: str, key: str) -> dict[str, dict]:
    """Nested, scalar and non-numeric grids passed as the keyword key."""
    grids = {"[[-4,4]]": [[-4.0, 4.0]], "4": 4.0, "['a']": ["a"]}
    return {f"{label}={name}": {key: grid} for name, grid in grids.items()}


def _requests(pc, model, pairs):
    lam = pc.carrier_wavelength(5.9e9)
    pair = pairs["patch_front+patch_rear"]
    for step in (0.0, -1e-3, math.nan, math.inf, math.pi, 4.0):
        yield f"request\tloss_curve\tx_step={step!r}", _outcome(pc.loss_curve, 5, x_step=step)
    ranges = {"d_x=[]": dict(d_x_values=[]), "d_y=()": dict(d_y_values=()),
              "dv_max=-0.1": dict(dv_max_kmh=-0.1), "dv_max=-5": dict(dv_max_kmh=-5.0),
              "dv_max=0": dict(dv_max_kmh=0.0), "dv_step=0": dict(dv_step_kmh=0.0),
              "dv_step=nan": dict(dv_step_kmh=math.nan), "dv_step=11": dict(dv_step_kmh=11.0, d_y_values=(4.0,)),
              **_malformed("d_x", "d_x_values"), **_malformed("d_y", "d_y_values")}
    for label, kwargs in ranges.items():
        kwargs = {"d_x_values": [10.0, 30.0], "dv_step_kmh": 10.0, **kwargs}
        yield f"request\ta_omega_range\t{label}", _outcome(
            pc.a_omega_range, delta_a=10.0 * lam, wavelength=lam, **kwargs)
    empty = pc.SweepResult(name="a_omega_range", independent="d_x_m", values=np.array([]),
                           series={"half_slope_absmax_rad": np.array([])})
    yield "request\tthreshold_distance\tempty", _outcome(pc.threshold_distance, empty, 1.0)
    table = pc.SweepResult(name="a_omega_range", independent="d_x_m",
                           values=np.array([10.0, 20.0, 30.0]),
                           series={"half_slope_absmax_rad": np.array([2.0, 1.0, 0.5])})
    for bound in (math.nan, math.inf, -math.inf):
        yield f"request\tthreshold_distance\tbound={bound!r}", _outcome(
            pc.threshold_distance, table, bound)
    samples = {"t=[0,nan,0.2]": ([0.0, math.nan, 0.2], [1.0, 2.0, 3.0]),
               "t=[0,inf,0.2]": ([0.0, math.inf, 0.2], [1.0, 2.0, 3.0]),
               "v=[1,nan,3]": ([0.0, 0.1, 0.2], [1.0, math.nan, 3.0]),
               "v=[1,inf,3]": ([0.0, 0.1, 0.2], [1.0, math.inf, 3.0])}
    for label, (times, values) in samples.items():
        yield f"request\tleast_squares_fit\t{label}", _outcome(pc.least_squares_fit,
                                                                times, values)
    for w in (math.nan, math.inf):
        yield f"request\tc_ratio_squared\tw={w!r}", _outcome(pc.c_ratio_squared, w, 10, 0.1)
    base = pc.ScenarioParams(d_x=30.0, d_y=-4.0, delta_v=0.0, delta_a=10.0 * lam,
                             wavelength=lam)
    unit = 2.0 * math.pi / (base.n_packets * base.t_interval)
    sweeps = {"dv=[]": dict(dv_kmh_values=[]), "d_y=()": dict(d_y_values=()),
              "paths=()": dict(paths=()), "paths=bogus": dict(paths=("bogus",)),
              "paths=exact,bogus": dict(paths=("exact", "bogus")),
              "paths=exact,exact": dict(paths=("exact", "exact")),
              "slopes={}": dict(slopes={}), "slope=nan": dict(slopes={"q1": math.nan}),
              "slope=inf": dict(slopes={"q1": math.inf}),
              "slope=[6.28]": dict(slopes={"q1": np.array([6.28])}),
              "slope=None": dict(slopes={"q1": None}),
              **_malformed("d_y", "d_y_values"),
              "model=None": dict(model=None), "patterns=None": dict(patterns=None),
              "patterns=(p,None)": dict(patterns=(pair[0], None)),
              "patterns=(None,p)": dict(patterns=(None, pair[1])),
              "model=None,paths=bogus": dict(model=None, paths=("bogus",)),
              "patterns=None,dv=[]": dict(patterns=None, dv_kmh_values=[])}
    for mode in MODES:
        for label, kwargs in sweeps.items():
            kwargs = {"slopes": {"q1": unit}, "dv_kmh_values": [-20.0, 0.0, 20.0],
                      "model": model, "patterns": pair, **kwargs}
            yield f"request\tspeed_sweep\t{mode}\t{label}", _outcome(
                pc.speed_sweep, mode, base=base, **kwargs)
    scen = pc.ScenarioParams(d_x=30.0, d_y=-4.0, delta_v=pc.kmh_to_mps(40.0),
                             delta_a=10.0 * lam, wavelength=lam)
    for exact in (True, False):
        path = "exact" if exact else "affine"
        yield f"request\tsum_snr_pl\t{path}\tfit=bogus", _outcome(
            pc.sum_snr_pl, unit, scen, model, use_exact=exact, fit="bogus")
        calls = {"omega": (pc.sum_snr_omega, ()), "pl": (pc.sum_snr_pl, (model,)),
                 "phi": (pc.sum_snr_phi, pair), "combined": (pc.sum_snr_combined,
                                                             (model, *pair))}
        p0, p1 = pair
        missing = {"pl": {"model=None": (None,)},
                   "phi": {"pattern0=None": (None, p1), "pattern1=None": (p0, None),
                           "patterns=None": (None, None)},
                   "combined": {"model=None": (None, p0, p1), "pattern0=None": (model, None, p1),
                                "pattern1=None": (model, p0, None)}}
        for mode, cases in missing.items():
            for label, extra in cases.items():
                yield f"request\tsum_snr_{mode}\t{path}\t{label}", _outcome(
                    calls[mode][0], unit, scen, *extra, use_exact=exact)
        for slope in (math.nan, math.inf):
            for mode, (fn, extra) in calls.items():
                yield f"request\tsum_snr_{mode}\t{path}\tslope={slope!r}", _outcome(
                    fn, slope, scen, *extra, use_exact=exact)
        for mode, (fn, extra) in calls.items():
            yield f"request\tsum_snr_{mode}\t{path}\tn_packets=3,t_interval=1e308", _outcome(
                lambda: fn(1.0, replace(scen, **OVERFLOW), *extra, use_exact=exact))
        for field, grid in GRIDS.items():
            for mode, (fn, extra) in calls.items():
                yield f"request\tsum_snr_{mode}\t{path}\tgrid {field}={grid.tolist()}", _outcome(
                    lambda: fn(unit, replace(scen, **{field: grid}), *extra, use_exact=exact))
    for field, grid in GRIDS.items():
        for mode in MODES:
            yield f"request\tspeed_sweep\t{mode}\tgrid base {field}={grid.tolist()}", _outcome(
                lambda: pc.speed_sweep(mode, {"q1": unit}, [-20.0, 0.0, 20.0],
                                       replace(base, **{field: grid}), model=model, patterns=pair))
    for n in (2.5, 10.0):
        yield f"request\tsum_snr_omega\tn_packets={n!r}", _outcome(
            lambda: pc.sum_snr_omega(1.0, replace(scen, n_packets=n)))
        yield f"request\tloss\tn_packets={n!r}", _outcome(pc.loss, 0.3, 1.0, 0.0, n)
    kernels = {"f1": lambda n: pc.f1(0.3, n), "f2": lambda n: pc.f2(0.3, n),
               "j_affine": lambda n: pc.j_affine(0.3, 0.0, 1.0, 0.0, n),
               "in_zero_loss_set": lambda n: pc.in_zero_loss_set(0.3, n),
               "affine_coefficients": lambda n: pc.affine_coefficients(1.0, 2.0, n, 0.1),
               "c_ratio_squared": lambda n: pc.c_ratio_squared(0.1, n, 0.1)}
    for name, fn in kernels.items():
        for n in (1, 2.5):
            yield f"request\t{name}\tn_packets={n!r}", _outcome(fn, n)
    slope_sets = {"optimal_slope_set": pc.optimal_slope_set,
                  "design_rule_alpha_star": pc.design_rule_alpha_star,
                  "check_optimality": lambda n, t: pc.check_optimality([0.0, 1.0], n, t)}
    for name, fn in slope_sets.items():
        for n, t in ((1, 0.1), (2.5, 0.1), (4, 0.0), (4, -0.1), (4, math.nan), (3, 1e308)):
            yield f"request\t{name}\tn={n!r},t={t!r}", _outcome(fn, n, t)
    overflowing = {"affine_coefficients": lambda: pc.affine_coefficients(1.0, 2.0, 3, 1e308),
                   "c_ratio_squared": lambda: pc.c_ratio_squared(0.1, 3, 1e308),
                   "ScenarioParams": lambda: replace(scen, **OVERFLOW)}
    for name, fn in overflowing.items():
        yield f"request\t{name}\tn=3,t=1e308", _outcome(fn)


def _sweeps(pc, model, pairs):
    lam = pc.carrier_wavelength(5.9e9)
    dv = np.arange(-60.0, 60.5, 12.0)
    # (d_x, delta_a, K, T, offsets); the last one crosses an antenna and the
    # array center at -36 km/h, as the crossing scenarios above do
    setups = [(d_x, 10.0 * lam, 10, 0.1, (-4.0, 0.5, 4.0))
              for d_x in (2.0, 10.0, 30.0, 100.0, 170.0)]
    setups.append((10.0, 1.0, 4, 0.5, (-0.5, 0.0, 0.5)))
    for mode in MODES:
        for d_x, delta_a, n_packets, t_interval, dy in setups:
            base = pc.ScenarioParams(d_x=d_x, d_y=0.0, delta_v=0.0, delta_a=delta_a,
                                     wavelength=lam, n_packets=n_packets,
                                     t_interval=t_interval)
            unit = 2.0 * math.pi / (n_packets * t_interval)
            slopes = {"q1": unit, "q2": 2.0 * unit, "off": 2.3 * unit}
            for offsets in (dy, dy[::-1], dy[1:] + dy[:1]):
                for paths in (("exact",), ("affine",), ("affine", "exact")):
                    for name, pair in pairs.items():
                        key = (f"sweep\t{mode}\t{d_x:g}_{delta_a:g}\t{offsets}"
                               f"\t{','.join(paths)}\t{name}")
                        try:
                            res = pc.speed_sweep(mode, slopes, dv, base, model=model,
                                                 patterns=pair, paths=paths,
                                                 d_y_values=offsets)
                        except (pc.PhasecombError, ValueError) as exc:
                            yield key, type(exc).__name__
                            continue
                        for series, values in res.series.items():
                            yield f"{key}\t{series}", " ".join(
                                float(v).hex() for v in values)
                        yield f"{key}\tmetadata", repr(res.metadata)


def _helpers(pc, model):
    rng = np.random.default_rng(SEED)
    for n in (2, 3, 8, 16):
        t, v = np.arange(n) * 0.1, rng.uniform(-2.0, 2.0, (n, 3, 2))
        yield f"helper\tleast_squares_fit\t1-D n={n}", _outcome(pc.least_squares_fit, t, v[:, 0, 0])
        yield f"helper\tleast_squares_fit\tcolumns n={n}", _outcome(
            pc.least_squares_fit, t.reshape(-1, 1, 1), v)
    for label, scen in _scenarios(pc):
        yield f"helper\ttaylor_omega\t{label}", _outcome(pc.taylor_omega, scen)
        yield f"helper\ttaylor_pathgain\t{label}", _outcome(pc.taylor_pathgain, model, scen)
    for x in (math.nan, math.inf, -math.inf):
        yield f"helper\tin_severe_set\tx={x!r}", _outcome(pc.in_severe_set, x)
        yield f"helper\tin_zero_loss_set\tx={x!r}", _outcome(pc.in_zero_loss_set, x, 5)
        for slopes in ([0.0, x], [0.0, 0.5, x]):
            yield f"helper\tcheck_optimality\tslopes={slopes!r}", _outcome(
                pc.check_optimality, slopes, 5, 0.1)


def _edge_bursts(n_grid: int):
    """One-packet and scaled bursts that sit where the scan's pruning bound is
    tightest: minima on and halfway between the grid points on both sides of
    sub-block (1,024 points) and chunk (16,384 points) boundaries, at the
    first and the last point; sums from subnormal to 1e300; an all-zero
    burst."""
    step = 2.0 * math.pi / n_grid
    edges = np.array([0, 1, 1023, 1024, 2047, 2048, 16383, 16384, 17407, 17408,
                      n_grid - 1025, n_grid - 1024, n_grid - 2, n_grid - 1])
    shifts = np.array([0.0, 0.5, -0.5, 0.49, -0.49, 1e-9])
    theta = ((edges[:, None] + shifts).ravel() * step - math.pi)[None]
    rng = np.random.default_rng(SEED + n_grid)
    yield "edges", (np.ones_like(theta), theta)
    for amplitude in (5e-324, 1e-310, 1e-300, 1e300):
        yield f"amplitude {amplitude:g}", (amplitude * rng.uniform(0.1, 1.0, (12, 30)),
                                           rng.uniform(-50.0, 50.0, (12, 30)))
    yield "zero", (np.array([0.0]), np.array([0.3]))


def _scans(pc):
    from phasecomb import validation
    rng = np.random.default_rng(SEED)
    cases = {"1 burst": (rng.uniform(0.1, 2.0, 12), rng.uniform(-50.0, 50.0, 12), 100_000)}
    weights, phases = np.zeros((2, 15, 200))  # packet counts 2 to 15, zero-padded
    for b in range(200):
        n = int(rng.integers(2, 16))
        weights[:n, b] = rng.uniform(0.2, 5.0) + rng.uniform(-0.5, 2.0) * np.arange(n) * 0.1
        phases[:n, b] = 2.0 * rng.uniform(1e-6, math.pi - 1e-6) * np.arange(n)
    cases["200 padded bursts"] = (weights, phases, 100_000)
    cases["2000 bursts"] = (rng.uniform(0.1, 2.0, (15, 2000)),
                            rng.uniform(-50.0, 50.0, (15, 2000)), 5_000)
    for n_grid in (100_000, 2 * 16384 + 123):
        for label, (w, p) in _edge_bursts(n_grid):
            cases[f"{label} on {n_grid}"] = (w, p, n_grid)
    for label, (w, p, n_grid) in cases.items():
        for name, values in zip(("y", "value"), validation.worst_case_y_scan(w, p, n_grid)):
            yield f"scan\t{label}\t{name}", " ".join(float(v).hex() for v in np.ravel(values))
    for n_grid in (100_000, 2 * 16384 + 123):
        for label, (w, p) in NON_FINITE_BURSTS.items():
            yield f"scan\t{label} on {n_grid}\toutcome", _outcome(
                validation.worst_case_y_scan, np.array(w), np.array(p), n_grid)
    scan, seen = validation.worst_case_y_scan, []

    def recorded(*args):
        seen.append(scan(*args))
        return seen[-1]

    validation.worst_case_y_scan = recorded
    try:  # the results of the battery and of the one scan it makes, per seed
        for seed in (*range(10), 42):
            seen.clear()
            results = pc.run_validation(seed)
            (found,) = seen
            for name, values in zip(("y", "value"), found):
                yield f"scan\tvalidate seed={seed}\t{name}", " ".join(
                    float(v).hex() for v in np.ravel(values))
            for res in results:
                key = res.name if seed == 42 else f"seed={seed}\t{res.name}"
                yield f"validate\t{key}", f"{res.passed} {res.detail}"
    finally:
        validation.worst_case_y_scan = scan


def _cli_run(cli, argv, with_env: bool) -> list[tuple[str, str]]:
    """One cli.main run in fresh temporary directories: (field, value) pairs."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as cwd, tempfile.TemporaryDirectory() as env:
        os.chdir(cwd)
        if with_env:
            os.environ[cli.ENV_OUT_DIR] = env
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(list(argv))
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # a traceback, which no request should reach
            status = type(exc).__name__
        finally:
            os.environ.pop(cli.ENV_OUT_DIR, None)
            os.chdir(home)

        def clean(text: str) -> str:
            return text.replace(env, "<env>").replace(cwd, "<cwd>")

        fields = [("status", repr(status)), ("stdout", repr(clean(out.getvalue()))),
                  ("stderr", repr(clean(err.getvalue())))]
        for label, folder in (("cwd", cwd), ("env", env)):
            for name in sorted(os.listdir(folder)):
                with open(os.path.join(folder, name), "rb") as fh:
                    fields.append((f"{label}/{name}", repr(fh.read())))
    return fields


def _cli(cli):
    saved = os.environ.pop(cli.ENV_OUT_DIR, None)
    try:
        for argv in CLI_REQUESTS:
            for run, with_env in (("1", False), ("2", False), ("env", True)):
                for field, value in _cli_run(cli, argv, with_env):
                    yield f"cli\t{' '.join(argv)}\t{run}\t{field}", value
    finally:
        if saved is not None:
            os.environ[cli.ENV_OUT_DIR] = saved


def dump(out: str) -> None:
    import phasecomb as pc
    from phasecomb import cli
    warnings.simplefilter("ignore")  # the pathloss validity warning is in the metadata
    model = pc.PathlossModel()
    pairs = {f"{a}+{b}": (pc.builtin_pattern(a), pc.builtin_pattern(b))
             for a, b in PATTERN_PAIRS}
    print(f"phasecomb from {pc.__file__}", file=sys.stderr)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in (*_single_calls(pc, model, pairs), *_cache_calls(pc, model, pairs),
                           *_sweeps(pc, model, pairs),
                           *_requests(pc, model, pairs), *_helpers(pc, model),
                           *_scans(pc), *_cli(cli)):
            fh.write(f"{key}\t{value}\n")


def _read(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").rsplit("\t", 1) for line in fh)


def _group(key: str) -> str:
    """The call group of a key: a single call and its path, a kept-AOA call's
    mode and pair variant, a sweep's mode
    and series kind (a path, the reference, the metadata or the outcome of a
    failed sweep), a request's driver, a helper, a scan case, the validation
    battery or a CLI subcommand."""
    fields = key.split("\t")
    if fields[0] == "cli":
        return f"cli {fields[1].split()[0]}"
    if fields[0] == "cache":
        return f"cache {fields[1]} {fields[2]}"
    if fields[0] == "scan":
        return f"scan {fields[1]}"
    if fields[0] == "validate":
        return "validate"
    if fields[0] == "sweep":
        series = fields[6] if len(fields) > 6 else "outcome"
        return f"sweep {fields[1]} {series.removesuffix('_db').rsplit('_', 1)[-1]}"
    if fields[0] in ("request", "helper"):
        return f"{fields[0]} {fields[1]}"
    return f"{fields[0]} {fields[2]}"


def _class(value: str) -> str:
    """The class name a value records an error by, or "value" for a result."""
    return value if value.isidentifier() and value not in ("inf", "nan") else "value"


def _numbers(value: str) -> list[float] | None:
    """The floats a value records, or None when it records anything else."""
    try:
        return [float.fromhex(t) for t in value.removeprefix("ok ").split() if t != "|"]
    except ValueError:
        return None


def compare(a: str, b: str) -> int:
    left, right = _read(a), _read(b)
    differences = 0
    groups: dict[str, list] = {}  # group: [differing, class changes, max abs, max rel]
    for key in dict.fromkeys((*left, *right)):
        stats = groups.setdefault(_group(key), [0, 0, 0.0, 0.0])
        old, new = left.get(key), right.get(key)
        if old == new:
            continue
        differences += 1
        print(f"{key.replace(chr(9), ' ')}: {old or '<missing>'} -> {new or '<missing>'}")
        stats[0] += 1
        if old is None or new is None or _class(old) != _class(new):
            stats[1] += 1  # a missing entry changes class too
            continue
        x, y = _numbers(old), _numbers(new)
        if x is not None and y is not None and len(x) == len(y):
            for u, v in zip(x, y):
                if u != v and not (math.isnan(u) and math.isnan(v)):
                    stats[2] = max(stats[2], abs(u - v))
                    stats[3] = max(stats[3], abs(u - v) / max(abs(u), abs(v)))
    width = max(map(len, groups))
    print(f"{'group':{width}}  differ  class  max_abs  max_rel")
    for group, (count, changed, most, most_rel) in groups.items():
        print(f"{group:{width}}  {count:6d}  {changed:5d}  {most:.2e}  {most_rel:.2e}")
    print(f"{differences} of {len(left.keys() | right.keys())} entries differ")
    return 1 if differences else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        dump(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
