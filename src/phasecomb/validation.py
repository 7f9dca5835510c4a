"""Self-check battery: every structural invariant the closed forms rely on.

Each check compares an implementation claim against an independent route
(direct sums, finite differences, dense scans) on seeded random inputs.
The CLI exposes the battery as the `validate` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import affine, experiments, geometry, pathloss as pl, snr
from .errors import PositivityViolation, ValidityViolation

TWO_PI = 2.0 * math.pi
Y_SCAN_GRID = 100_000  # grid size of the brute-force search over the offset y
_SCAN_CHUNK = 1 << 14  # grid points per scan chunk: its cos, sin and value rows stay in cache
_SCAN_BLOCK = 1 << 10  # grid points per sub-block that the scan's bound keeps or skips
_SCAN_BURSTS = 256  # bursts per slice of the per-burst sums and bounds
_X_RANGE = (1e-6, math.pi - 1e-6)  # x draws: |sin x| >= sin(1e-6) clears snr.X_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def worst_case_y_scan(weights, phases, n_grid: int = Y_SCAN_GRID):
    """Brute-force minimum over a y grid of sum_k w_k cos(theta_k - y), the
    oracle for the closed-form minima: (y, value) at the first grid minimum,
    floats for one burst.  Packets run along the first axis and further axes
    hold independent bursts, as in `snr.min_cross_term`.  The grid is walked in
    chunks of `_SCAN_CHUNK` points: cos/sin of a chunk are taken once, then each
    burst scans its kept range of the chunk as one contiguous row, so memory
    stays bounded in both the grid and the bursts.  A burst's sum
    g(y) = C cos y + S sin y has a grid point within step/2 of its minimum
    -hypot(C, S), so the scan's minimum is at most -hypot(C, S) cos(step/2).  A
    sub-block of `_SCAN_BLOCK` points with middle m and half-width h is skipped
    only when g(m) - |g'(m)| h - (|C| + |S|) h^2 / 2, a lower bound of g on it,
    exceeds that ceiling plus a rounding slack of 1e-12 (|C| + |S|) + 1e-300, so
    the result is the exhaustive scan's bit for bit.  A NaN or infinite weight or
    phase, or sums whose hypot(C, S) overflows, raise ValueError before any scan."""
    if isinstance(n_grid, bool) or not isinstance(n_grid, (int, np.integer)) or n_grid < 1:
        raise ValueError(f"n_grid {n_grid!r} is not a positive integer")
    w, p = (np.moveaxis(a, 0, -1) for a in np.broadcast_arrays(weights, phases))
    shape = p.shape[:-1]
    w, p = (a.reshape(math.prod(shape), a.shape[-1]) for a in (w, p))
    step = TWO_PI / n_grid
    h = 0.5 * (_SCAN_BLOCK - 1) * step  # half-width of a sub-block
    mid = (np.arange(0, n_grid, _SCAN_BLOCK) + 0.5 * (_SCAN_BLOCK - 1)) * step
    cm, sm = np.cos(mid), np.sin(mid)
    cw, sw = np.empty((2, len(p)))
    keep = np.empty((len(p), mid.size), dtype=bool)
    for s in range(0, len(p), _SCAN_BURSTS):  # C order: each burst sums as a 1-D burst
        part = slice(s, s + _SCAN_BURSTS)
        with np.errstate(over="ignore", invalid="ignore"):  # an infinite bound skips nothing
            c, d = (np.sum(np.multiply(f(p[part]), w[part], order="C"), axis=-1)
                    for f in (np.cos, np.sin))
            r = np.hypot(c, d)  # NaN or infinite if any weight, phase or sum is
            if not np.isfinite(r).all():
                raise ValueError("burst weights, phases and their sums must be finite")
            cw[part], sw[part] = c, d
            a = np.abs(c) + np.abs(d)
            ceil = 1e-12 * a + 1e-300 - r * math.cos(0.5 * step) + 0.5 * h * h * a
            c, d = c[:, None], d[:, None]
            keep[part] = ~(c * cm + d * sm - h * np.abs(d * cm - c * sm) > ceil[:, None])
    best, best_i = np.full(len(p), np.inf), np.zeros(len(p), dtype=int)
    rows = np.empty((4, min(n_grid, _SCAN_CHUNK)))  # cos y, sin y, values, y then scratch
    for start in range(0, n_grid, _SCAN_CHUNK):
        cy, sy, v, t = rows[:, :min(_SCAN_CHUNK, n_grid - start)]
        np.multiply(np.arange(start, start + t.size), step, out=t)
        np.cos(t, out=cy), np.sin(t, out=sy)
        kept = keep[:, start // _SCAN_BLOCK:(start + _SCAN_CHUNK) // _SCAN_BLOCK]
        lo = kept.argmax(axis=1) * _SCAN_BLOCK  # the kept range: first to last kept sub-block
        hi = (kept.shape[1] - kept[:, ::-1].argmax(axis=1)) * _SCAN_BLOCK
        for b in np.flatnonzero(kept.any(axis=1)):
            r = slice(lo[b], hi[b])
            vb = np.multiply(cy[r], cw[b], out=v[r])
            vb += np.multiply(sy[r], sw[b], out=t[r])
            i = vb.argmin()
            if vb[i] < best[b]:  # strict, so a tie keeps the earlier grid point
                best[b], best_i[b] = vb[i], i + lo[b] + start
    y_min, best = (best_i * step).reshape(shape), best.reshape(shape)
    return (float(y_min), float(best)) if not shape else (y_min, best)


def _sample_affine(rng: np.random.Generator, t: float, with_y: bool = False) -> tuple:
    """One draw (n, x, y, a, b, c1, c2): a packet count, an x off the poles, an
    offset y if asked for (else None) and positive weights b + a t_k: intercept
    b > 0 and slope/intercept ratio inside the admissible region w > -1 / ((n-1) t)."""
    n = int(rng.integers(2, 16))
    x = rng.uniform(*_X_RANGE)
    y = rng.uniform(0.0, TWO_PI) if with_y else None
    b = rng.uniform(0.2, 5.0)
    edge = 1.0 / ((n - 1) * t)
    a = rng.uniform(-0.99 * edge, 4.0 * edge) * b
    return n, x, y, a, b, *snr.affine_coefficients(a, b, n, t)


def _sample_scenario(rng: np.random.Generator, d_x_min: float) -> geometry.ScenarioParams:
    return geometry.ScenarioParams(
        d_x=float(rng.uniform(d_x_min, 120.0)), d_y=float(rng.uniform(-6.0, 6.0)),
        delta_v=float(rng.uniform(-17.0, 17.0)), delta_a=float(rng.uniform(0.01, 1.0)),
        wavelength=0.0508)


def _check_closed_form_vs_direct(rng: np.random.Generator) -> CheckResult:
    t = 0.1
    by_n: dict[int, list] = {}
    for _ in range(200):
        n, x, y, a, b, c1, c2 = _sample_affine(rng, t, with_y=True)
        by_n.setdefault(n, []).append((x, y, a, b, snr.j_affine(x, y, c1, c2, n)))
    worst = 0.0
    for n, draws in by_n.items():  # C-ordered (draws, n) rows: each sums as one burst
        x, y, a, b, closed = (np.array(v)[:, None] for v in zip(*draws))
        k = np.arange(n)
        direct = np.sum((b + a * (k * t)) * np.cos(y - 2.0 * x * k), axis=-1, keepdims=True)
        worst = max(worst, float(np.max(np.abs(direct - closed))))
    return CheckResult("closed_form_matches_direct_sum", worst < 1e-10,
                       f"max abs deviation {worst:.3e} over 200 draws")


def _check_worst_y_vs_scan(rng: np.random.Generator) -> CheckResult:
    t = 0.1
    draws = []
    for _ in range(200):
        n, x, _, a, b, c1, c2 = _sample_affine(rng, t)
        draws.append((n, x, a, b, c1, snr.worst_case_y(x, c1, c2, n)[1]))
    n, x, a, b, c1, j_closed = np.array(draws).T
    k = np.arange(15)[:, None]  # bursts zero-padded to 15 packets
    weights, phases = np.where(k < n, [b + a * k * t, 2.0 * x * k], 0.0)
    bound = 2.0 * (TWO_PI / Y_SCAN_GRID) ** 2 * c1 * n
    gap = worst_case_y_scan(weights, phases)[1] - j_closed  # scan can only overshoot
    ok = bool(np.all((-1e-12 <= gap) & (gap <= bound)))
    return CheckResult("worst_case_y_matches_grid_scan", ok,
                       f"worst margin to curvature bound {np.max(gap - bound):.3e}")


def _check_f2_is_f1_derivative(rng: np.random.Generator) -> CheckResult:
    h = 1e-6
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(2, 16))
        x = rng.uniform(*_X_RANGE)
        if abs(math.sin(x + h)) < 1e-8 or abs(math.sin(x - h)) < 1e-8:
            continue
        fd = (snr.f1(x + h, n) - snr.f1(x - h, n)) / (2.0 * h)
        f2v = snr.f2(x, n)
        worst = max(worst, abs(fd - f2v) / max(1.0, abs(f2v)))
    return CheckResult("f2_matches_f1_finite_difference", worst < 1e-5,
                       f"max mixed-tolerance error {worst:.3e}")


def _check_loss_range_and_sets(rng: np.random.Generator) -> CheckResult:
    ok = True
    for n in (2, 3, 5, 10, 13):
        x = rng.uniform(*_X_RANGE, 400)
        vals = snr.loss(x, 1.0, 0.0, n)
        ok = ok and bool(np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-12))
        for q in range(1, n):
            xq = q * math.pi / n
            ok = ok and snr.loss(xq, 1.0, 0.0, n) < 1e-7
            ok = ok and snr.in_zero_loss_set(xq, n)
        ok = ok and snr.loss(math.pi, 1.0, 0.0, n) == 1.0
        ok = ok and not snr.in_zero_loss_set(math.pi, n)
    return CheckResult("loss_in_unit_interval_and_sets", ok,
                       "range [0,1]; zero-loss and severe sets classified")


def _check_loss_symmetries(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for n in (2, 5, 10, 11):
        x = rng.uniform(*_X_RANGE, 200)
        base = snr.loss(x, 1.0, 0.3 / max(1, n - 1), n)
        shifted = snr.loss(x + math.pi, 1.0, 0.3 / max(1, n - 1), n)
        mirrored = snr.loss(math.pi - x, 1.0, 0.3 / max(1, n - 1), n)
        worst = max(worst, float(np.max(np.abs(base - shifted))),
                    float(np.max(np.abs(base - mirrored))))
    return CheckResult("loss_periodic_and_symmetric", worst < 1e-9,
                       f"max deviation {worst:.3e} (period pi, mirror at pi/2)")


def _check_bound_order(rng: np.random.Generator) -> CheckResult:
    t = 0.1
    by_n: dict[int, list] = {}
    for _ in range(100):
        n, x, _, a, b, c1, c2 = _sample_affine(rng, t)
        by_n.setdefault(n, []).append((x, snr.loss(x, c1, c2, n)))
    ok = True
    for n, draws in by_n.items():  # one envelope evaluation per packet count
        x, val = np.array(draws).T
        lower, upper = snr.loss_bounds(x, n)
        ok = ok and bool(np.all((lower - 1e-12 <= val) & (val <= upper + 1e-12)))
    return CheckResult("loss_between_envelope_bounds", ok,
                       "lower <= loss <= upper on admissible weights")


def _check_ratio_monotone(rng: np.random.Generator) -> CheckResult:
    ok = True
    for n, t in ((5, 0.1), (10, 0.1), (7, 0.05)):
        edge = 1.0 / ((n - 1) * t)
        left = np.linspace(-0.98 * edge, 0.0, 200)
        right = np.linspace(0.0, 6.0 * edge, 200)
        lv = [snr.c_ratio_squared(float(w), n, t) for w in left]
        rv = [snr.c_ratio_squared(float(w), n, t) for w in right]
        ok = ok and bool(np.all(np.diff(lv) <= 1e-15))
        ok = ok and bool(np.all(np.diff(rv) >= -1e-15))
    return CheckResult("weight_ratio_monotone", ok,
                       "(c2/c1)^2 falls on (-edge, 0], rises on [0, inf)")


def _check_design_rule_dominance(rng: np.random.Generator) -> CheckResult:
    t = 0.1
    ok = True
    sweep = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 801)
    for n in range(3, 13):
        slopes = snr.optimal_slope_set(n, t)
        chosen = snr.design_rule_alpha_star(n, t)
        # a drift of 0.5*s*t - q*pi inside the sweep lands the phase argument
        # exactly on the pole q*pi, so each slope's drifts add those hits exactly
        xs = [np.concatenate([0.5 * s * t - sweep, [q * math.pi for q in (-1, 0, 1)
              if abs(0.5 * s * t - q * math.pi) <= math.pi / 2 - 0.01]]) for s in slopes]
        starts = np.cumsum([0] + [x.size for x in xs[:-1]])
        worst = np.maximum.reduceat(snr.loss(np.concatenate(xs), 1.0, 0.0, n), starts)
        for s in chosen:
            idx = int(np.argmin(np.abs(slopes - s)))
            ok = ok and worst[idx] <= worst.min() + 1e-12
    return CheckResult("design_rule_minimizes_worst_loss", ok,
                       "chosen slopes attain the minimax over the drift sweep")


def _check_geometry_symmetries(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        scen = _sample_scenario(rng, 5.0)
        tg = np.linspace(0.0, scen.burst_window, (scen.n_packets - 1) * 10 + 1)
        om = geometry.omega_exact(scen, tg)
        flipped = geometry.omega_exact(replace(scen, d_y=-scen.d_y), tg)
        scaled = geometry.omega_exact(replace(scen, wavelength=2.0 * scen.wavelength), tg)
        worst = max(worst, float(np.max(np.abs(om + flipped))),
                    float(np.max(np.abs(om - 2.0 * scaled))))
    return CheckResult("omega_antisymmetric_and_wavelength_scaled", worst < 1e-9,
                       f"max deviation {worst:.3e}")


def _check_taylor_slopes(rng: np.random.Generator) -> CheckResult:
    h = 1e-5
    worst = 0.0
    model = pl.PathlossModel()
    done = 0
    while done < 50:
        scen = _sample_scenario(rng, 15.0)
        t0 = float(rng.uniform(0.0, scen.burst_window))
        try:
            pg = affine.taylor_pathgain(model, scen, t0)
        except (PositivityViolation, ValidityViolation):
            # close fly-by outside the linearizable regime: redraw
            continue
        done += 1
        om = affine.taylor_omega(scen, t0)
        pair = t0 + np.array([h, -h])  # t0 - h is t0 + (-h) bit for bit
        fd = float(np.subtract(*geometry.omega_exact(scen, pair)) / (2 * h))
        worst = max(worst, abs(om.slope - fd) / max(1.0, abs(fd)))
        # the gain one distance at a time: its power rounds apart on an array
        dp, dm = geometry.transmitter_distance(scen, pair)
        fd = (pl.mean_path_gain(model, dp) - pl.mean_path_gain(model, dm)) / (2 * h)
        worst = max(worst, abs(pg.slope - fd) / max(1e-12, abs(fd)))
    return CheckResult("taylor_slopes_match_finite_difference", worst < 1e-4,
                       f"max relative error {worst:.3e}")


def _check_interval_bound(rng: np.random.Generator) -> CheckResult:
    ok = True
    for n in (5, 10):
        x = np.linspace(math.pi / n, (n - 1) * math.pi / n, 20001)
        bound = snr.interval_loss_bound(n)
        ok = ok and bool(np.all(snr.loss(x, 1.0, 0.0, n) <= bound + 1e-12))
        ok = ok and abs(float(np.max(1.0 / (n * np.sin(x)))) - bound) < 1e-3
    return CheckResult("interval_bound_dominates_loss", ok,
                       "ceiling 1/(n sin(pi/n)) holds on [pi/n, (n-1)pi/n]")


def _check_floor_symmetry(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for n in (4, 5, 10, 12):
        floors = experiments.pl_slope_losses(n).series["floor_universal_db"]
        worst = max(worst, float(np.max(np.abs(floors - floors[::-1]))))
    return CheckResult("slope_floor_symmetry", worst < 1e-10,
                       f"q vs n-q asymmetry {worst:.3e}")


_CHECKS = (
    _check_closed_form_vs_direct,
    _check_worst_y_vs_scan,
    _check_f2_is_f1_derivative,
    _check_loss_range_and_sets,
    _check_loss_symmetries,
    _check_bound_order,
    _check_ratio_monotone,
    _check_design_rule_dominance,
    _check_geometry_symmetries,
    _check_taylor_slopes,
    _check_interval_bound,
    _check_floor_symmetry,
)


def run_validation(seed: int = 42) -> list[CheckResult]:
    """Run every invariant check on a seeded RNG and collect the results."""
    return [check(np.random.default_rng(seed)) for check in _CHECKS]
