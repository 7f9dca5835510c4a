"""Seeded inputs, operations and output checks of the three workloads.

Every workload is a list of passes.  Pass ``p`` of seed ``s`` is generated
from ``numpy.random.default_rng([s, p, stream])`` alone, so the same seed
always yields the same inputs, and each pass has the same shape (the same
number of operations of each kind), so its cost hardly depends on the seed.
An operation is one public call into the package; the benchmark times that
call and nothing else.
"""

from __future__ import annotations

import math
import os
import re
import types
from dataclasses import dataclass, field

import numpy as np

from oracle import Oracle, affine_terms, agrees, min_cross_term

PATTERN_NAMES = ("isotropic", "cardioid", "patch_front", "patch_rear")
# Pattern pair of a sweep job by its number of lateral offsets.  Fixed, so
# that every pass pays the same for worst_case_aoa, whose cost depends on
# the pair.
SWEEP_PAIRS = (("patch_front", "patch_rear"), ("cardioid", "patch_rear"),
               ("patch_rear", "isotropic"))
MODES = ("omega", "pl", "phi", "combined")
WAVELENGTH = 299_792_458.0 / 5.9e9     # 5.9 GHz carrier
SPACING = 10.0 * WAVELENGTH            # antenna separation, the CLI default
PACKETS = (8, 10, 12)
INTERVALS = (0.05, 0.1)
MIN_CHECKS_PASSED = 12                 # size of the validation battery


@dataclass
class Op:
    """One public call: ``module.function(*args, **kwargs)`` plus what the
    checks need to know about it."""

    module: str
    function: str
    args: tuple
    kwargs: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


class Context:
    """The package's modules and the loaded inputs every pass shares."""

    def __init__(self, package, workload: str, tmpdir: str) -> None:
        self.package = package
        self.modules = {name: getattr(package, name)
                        for name in ("snr", "antenna", "experiments", "cli")}
        self.workload = workload
        self.tmpdir = tmpdir
        self.patterns: dict = {}
        self.model = None
        self.oracle = None

    def load(self) -> None:
        """Load the workload's patterns and pathloss model (its set-up)."""
        self.patterns, self.model = load_inputs(self.package, self.workload)
        self.oracle = Oracle(self.modules["antenna"])

    def call(self, op: Op):
        return getattr(self.modules[op.module], op.function)(*op.args, **op.kwargs)


def load_inputs(package, workload: str):
    """What a user loads before the first call: patterns and pathloss model."""
    patterns = {}
    if workload in ("sweeps", "queries"):
        patterns = {name: package.antenna.builtin_pattern(name) for name in PATTERN_NAMES}
    return patterns, package.pathloss.PathlossModel()


def rng_for(seed: int, pass_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2 ** 63, pass_index, stream])


def _scenario(ctx: Context, rng):
    return ctx.package.geometry.ScenarioParams(
        d_x=float(rng.uniform(30.0, 120.0)), d_y=float(rng.uniform(-6.0, 6.0)),
        delta_v=float(rng.uniform(-60.0, 60.0)) * (1000.0 / 3600.0),
        delta_a=SPACING, wavelength=WAVELENGTH, n_packets=int(rng.choice(PACKETS)),
        t_interval=float(rng.choice(INTERVALS)))


def _slope_unit(n_packets: int, t_interval: float) -> float:
    return 2.0 * math.pi / (n_packets * t_interval)


def _pattern_pair(ctx: Context, rng):
    names = rng.choice(PATTERN_NAMES, size=2)
    return ctx.patterns[names[0]], ctx.patterns[names[1]]


# ---------------------------------------------------------------------------
# sweeps: speed_sweep jobs, equal numbers per mode
# ---------------------------------------------------------------------------

def sweeps_pass(ctx: Context, seed: int, pass_index: int, smoke: bool) -> list[Op]:
    rng = rng_for(seed, pass_index, 1)
    n_speeds = 2 if smoke else 4
    offset_counts = (1,) if smoke else (1, 2, 3)
    ops = []
    for mode in MODES:
        for n_offsets in offset_counts:
            k = int(rng.choice(PACKETS))
            t = float(rng.choice(INTERVALS))
            base = ctx.package.geometry.ScenarioParams(
                d_x=float(rng.uniform(30.0, 120.0)), d_y=0.0, delta_v=0.0,
                delta_a=SPACING, wavelength=WAVELENGTH, n_packets=k, t_interval=t)
            unit = _slope_unit(k, t)
            qs = [1] + ([k // 2] if k % 2 == 0 else [(k - 1) // 2, (k + 1) // 2])
            slopes = {f"q{q}": q * unit for q in qs}
            speeds = np.sort(rng.uniform(-60.0, 60.0, n_speeds))
            offsets = tuple(float(v) for v in rng.uniform(-6.0, 6.0, n_offsets))
            kwargs = {"paths": ("exact", "affine"), "d_y_values": offsets}
            if mode in ("pl", "combined"):
                kwargs["model"] = ctx.model
            if mode in ("phi", "combined"):
                kwargs["patterns"] = tuple(ctx.patterns[name]
                                           for name in SWEEP_PAIRS[n_offsets - 1])
            ops.append(Op("experiments", "speed_sweep", (mode, slopes, speeds, base),
                          kwargs, {"cells": rng.integers(0, 1 << 30, 2)}))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def sweeps_check(ctx: Context, op: Op, result, text: str) -> str | None:
    mode, slopes, speeds, base = op.args
    series = result.series
    reference = np.asarray(series["reference_db"], dtype=float)
    for name, values in series.items():
        if not np.all(np.isfinite(values)):
            return f"non-finite value in {name}"
        if name.endswith("_exact_db") and np.any(np.asarray(values) > reference):
            return f"{name} above reference_db"
    # Spot-check seeded cells against the closed-form reference.
    labels = list(slopes)
    for draw in op.info["cells"]:
        i = int(draw % len(speeds))
        label = labels[int(draw // len(speeds)) % len(labels)]
        found, ref = [], []
        for dy in op.kwargs["d_y_values"]:
            scen = types.SimpleNamespace(**{**vars(base), "d_y": dy,
                                            "delta_v": float(speeds[i]) * (1000.0 / 3600.0)})
            value, zero_loss = ctx.oracle.exact(mode, slopes[label], scen,
                                                op.kwargs.get("model"),
                                                op.kwargs.get("patterns"))
            found.append(value)
            ref.append(zero_loss)
        expected, zero_loss = min(found), min(ref)
        cell = 10.0 ** (float(series[f"{label}_exact_db"][i]) / 10.0)
        if not agrees(cell, expected, zero_loss):
            return f"{label} exact cell {i} is {cell!r}, oracle {expected!r}"
        if not agrees(10.0 ** (float(reference[i]) / 10.0), zero_loss, zero_loss):
            return f"reference cell {i} disagrees with the oracle"
    return None


# ---------------------------------------------------------------------------
# queries: single public calls, each on a fresh scenario
# ---------------------------------------------------------------------------

# One round of the stream: each public call once, and the path-gain mode
# also with its least-squares fit.  Eleven kinds put the median in the
# middle of one kind's latencies, not on the edge between two kinds.
QUERY_ROUND = (("omega", True), ("omega", False), ("pl", True), ("pl", False),
               ("pl", "least_squares"), ("phi", True), ("phi", False),
               ("combined", True), ("combined", False),
               ("loss", None), ("worst_case_y", None))
ORACLE_SHARE = 0.25     # share of exact calls checked against the oracle


def queries_pass(ctx: Context, seed: int, pass_index: int, smoke: bool) -> list[Op]:
    rng = rng_for(seed, pass_index, 2)
    rounds = 1 if smoke else 50
    kinds = [kind for _ in range(rounds) for kind in QUERY_ROUND]
    ops = []
    for i in rng.permutation(len(kinds)):
        mode, exact = kinds[i]
        check = bool(rng.random() < ORACLE_SHARE) or smoke
        if mode in ("loss", "worst_case_y"):
            n = int(rng.choice(PACKETS))
            x = float(rng.uniform(0.01, math.pi - 0.01))
            c1 = float(rng.uniform(0.5, 2.0))
            c2 = c1 * float(rng.uniform(-0.9, 0.9)) / (n - 1)
            ops.append(Op("snr", mode, (x, c1, c2, n), {}, {"kind": mode}))
            continue
        scen = _scenario(ctx, rng)
        q = int(rng.integers(1, scen.n_packets))
        slope = q * _slope_unit(scen.n_packets, scen.t_interval)
        args = (slope, scen)
        if mode in ("pl", "combined"):
            args += (ctx.model,)
        if mode in ("phi", "combined"):
            args += _pattern_pair(ctx, rng)
        kwargs = {"use_exact": exact is True}
        if exact == "least_squares":
            kwargs["fit"] = exact
        ops.append(Op("snr", f"sum_snr_{mode}", args, kwargs,
                      {"kind": mode, "exact": exact is True, "check": check}))
    return ops


def queries_check(ctx: Context, op: Op, result, text: str) -> str | None:
    kind = op.info["kind"]
    if kind in ("loss", "worst_case_y"):
        x, c1, _, n = op.args
        w, theta = affine_terms(*op.args)
        expected = min_cross_term(w, theta)
        if kind == "loss":
            if not 0.0 <= result <= 1.0:
                return f"loss {result!r} outside [0, 1]"
            value = -result * c1 * n
        else:
            y, value = result
            if not 0.0 <= y < 2.0 * math.pi:
                return f"worst-case offset {y!r} outside [0, 2 pi)"
        if not agrees(float(value), expected, c1 * n):
            return f"{kind} gives {value!r}, oracle {expected!r}"
        return None
    if not math.isfinite(result):
        return f"sum_snr_{kind} returned {result!r}"
    if op.info["exact"] and op.info["check"]:
        slope, scen = op.args[:2]
        model = ctx.model if kind in ("pl", "combined") else None
        patterns = op.args[-2:] if kind in ("phi", "combined") else None
        expected, zero_loss = ctx.oracle.exact(kind, slope, scen, model, patterns)
        if not agrees(result, expected, zero_loss):
            return f"sum_snr_{kind} gives {result!r}, oracle {expected!r}"
    return None


# ---------------------------------------------------------------------------
# tables: in-process CLI runs that write CSV tables
# ---------------------------------------------------------------------------

def tables_pass(ctx: Context, seed: int, pass_index: int, smoke: bool) -> list[Op]:
    """Seven CLI runs.  validate keeps its default seed: its cost depends on
    the seed by up to a third, which would otherwise set query_p99_ms."""
    rng = rng_for(seed, pass_index, 3)

    def opt(name, value):
        # "--name=value" keeps a negative value in exponent notation from
        # being read as an option.
        return f"--{name}={value if isinstance(value, str) else repr(value)}"

    def kt():
        return [opt("K", int(rng.choice(PACKETS))), opt("T", float(rng.choice(INTERVALS)))]

    def out(name):
        return [opt("out", os.path.join(ctx.tmpdir, f"{name}.csv"))]

    # One loss curve per K: seven runs put the median on the middle one.
    loss_curves = []
    for k in PACKETS:
        c1 = float(rng.uniform(0.5, 2.0))
        c2 = c1 * float(rng.uniform(-0.9, 0.9)) / (k - 1)
        loss_curves.append(["loss-curve", opt("K", k), opt("c1", c1), opt("c2", c2)]
                           + out(f"loss_curve_{k}"))
    n_dx, dv_step = (5, 10.0) if smoke else (40, 2.0)
    dx_min = float(rng.uniform(1.0, 20.0))
    dx_step = float(rng.uniform(0.5, 3.0))
    a_omega = ["a-omega-range", *kt(), opt("dx-min", dx_min),
               opt("dx-max", dx_min + (n_dx - 1) * dx_step), opt("dx-step", dx_step),
               opt("dv-step", dv_step),
               "--dy-set", *(f"{v:.6f}" for v in rng.uniform(-6.0, 6.0, 2))]
    pl_losses = ["pl-losses", *kt(), opt("dx", float(rng.uniform(30.0, 120.0))),
                 opt("dv", float(rng.uniform(-60.0, 60.0))),
                 opt("dy", float(rng.uniform(-6.0, 6.0)))]
    runs = [*loss_curves, a_omega + out("a_omega_range"),
            pl_losses + out("pl_losses"), ["design-rule", *kt()],
            ["validate"]]
    order = rng.permutation(len(runs))
    return [Op("cli", "main", (runs[i],), {}, {"csv": _out_path(runs[i])}) for i in order]


def _out_path(argv) -> str | None:
    outs = [arg[len("--out="):] for arg in argv if arg.startswith("--out=")]
    return outs[0] if outs else None


def read_csv(op: Op) -> bytes | None:
    path = op.info["csv"]
    if path is None or not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def tables_check(ctx: Context, op: Op, result, text: str) -> str | None:
    rc, csv_bytes = result, read_csv(op)
    if rc != 0:
        return f"{op.args[0][0]} exited {rc}"
    if op.args[0][0] == "validate":
        m = re.search(r"(\d+)/(\d+) checks passed", text)
        if not m or m.group(1) != m.group(2) or int(m.group(2)) < MIN_CHECKS_PASSED:
            return f"validate: {m.group(0) if m else 'no summary line'}"
    if op.info["csv"]:
        if csv_bytes is None:
            return f"{op.args[0][0]} wrote no CSV"
        rows = [line for line in csv_bytes.decode().splitlines()
                if line and not line.startswith("#")][1:]
        if not rows:
            return f"{op.args[0][0]} wrote no data rows"
        if not all(math.isfinite(float(v)) for line in rows for v in line.split(",")):
            return f"{op.args[0][0]} wrote a non-finite value"
    return None


# What must repeat byte for byte when an operation is run again.
def sweeps_digest(op: Op, result, text: str) -> bytes:
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in result.series.values())


def queries_digest(op: Op, result, text: str) -> bytes:
    return repr(result).encode()


def tables_digest(op: Op, result, text: str) -> bytes:
    csv_bytes = read_csv(op)
    return csv_bytes if csv_bytes is not None else text.encode()


# name -> (make one pass of operations, check an output, digest an output)
WORKLOADS = {
    "sweeps": (sweeps_pass, sweeps_check, sweeps_digest),
    "queries": (queries_pass, queries_check, queries_digest),
    "tables": (tables_pass, tables_check, tables_digest),
}
