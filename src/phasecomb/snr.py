"""Worst-case burst sum-SNR of a two-branch analog phase-slope combiner.

A burst of n_packets packets arrives at times k * t_interval.  Branch l of
the combiner adds the deterministic phase slope_l * t + offset_l before the
branches are summed, so each packet's combined power carries a cross term.
With per-packet weights w_k the burst cross term is

    J(y) = sum_k w_k * cos(y - 2 * x * k),

where x is half the slope difference times t_interval and y collects all
constant phase offsets.  The environment is scored at the worst y.  For
affine weights w_k = b + a * k * T the sum collapses to a closed form built
from the Dirichlet-kernel ratio f1(x) = sin(n x) / sin(x) and its
derivative f2 = f1', which yields the worst-case y, the worst-case value
-R(x), and the relative loss L(x) = R(x) / (c1 n) without any search.

Two slope sets organize the analysis:

* severe set, x in {q pi}: every packet adds with the same phase, the worst
  y nulls the whole burst (loss 1);
* zero-loss set, x in {q pi / n} minus the severe set: the cross term
  vanishes identically, no y can hurt the burst (loss 0 for constant
  weights).

Spacing branch slopes so all pairwise differences land in the zero-loss set
makes the burst immune to any constant offset y; the design rule picks the
member of that set farthest from the severe set, which stays robust when
the slope difference is perturbed by channel dynamics.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import affine, antenna, geometry, pathloss
from .errors import DomainX, InvalidRequest, NonFiniteX, NonPositiveC1, ZeroGain

TWO_PI = 2.0 * math.pi

# |sin(x)| below this counts as "on a pole", i.e. x in the severe set.
X_TOL = 1e-9

# Within this offset from a pole the f2 numerator cancels and a series in
# the offset takes over.
_SERIES_TOL = 1e-3

# pi minus its float value: tail of the two-term pole split.
_PI_TAIL = 1.2246467991473532e-16

# Transmit power over noise power, 23 dBm - (-95 dBm) = 118 dB.
DESIGN_SNR_SCALE = 10.0 ** 11.8


def in_severe_set(x: float) -> bool:
    """True when x is within tolerance of a multiple of pi."""
    if not math.isfinite(x):
        raise NonFiniteX(f"x={x!r} is not finite")
    return abs(math.sin(x)) < X_TOL


def in_zero_loss_set(x: float, n_packets: int) -> bool:
    """True when x is within tolerance of q * pi / n_packets but not of q * pi."""
    geometry._check_burst(n_packets)
    return not in_severe_set(x) and abs(math.sin(n_packets * x)) < n_packets * X_TOL


def _f2_series(e, n: int):
    """Series in the pole offset e of the f2 numerator, which cancels there:
    -(n^3-n)/3 * e^3 * (1 - (n^2+1) e^2 / 10 + c4 e^4)."""
    e2 = e * e
    c4 = (n ** 4 + n * n + 1) / 280.0 + n * n / 120.0
    return -(n ** 3 - n) / 3.0 * e * e2 * (1.0 - (n * n + 1) * e2 / 10.0 + c4 * e2 * e2)


def _dirichlet(x: float, n: int) -> tuple[float, float] | None:
    """(f1, f2) at a float x, or None on the severe set.

    With x = q pi + e and s = (-1)^(q (n - 1)), f1 = s sin(n e) / sin(e) and
    f2 = s (n cos(n e) sin(e) - sin(n e) cos(e)) / sin(e)^2 at any offset e.
    """
    geometry._check_burst(n)
    if not abs(x) < 2.0 ** 53:  # NaN fails it too
        raise NonFiniteX(f"x={x!r} is not finite or not below 2**53 in magnitude")
    # math.remainder is exact against the float value of pi; the _PI_TAIL
    # correction adds the part of pi the float drops, which would otherwise
    # cost ~8 digits in sin(n e) when x sits within 1e-4 of a pole
    e = math.remainder(x, math.pi)
    q = round((x - e) / math.pi)
    e -= q * _PI_TAIL
    se = math.sin(e)
    if abs(se) < X_TOL:
        return None
    sne = math.sin(n * e)
    if abs(e) < _SERIES_TOL:
        num = _f2_series(e, n)
    else:
        num = n * math.cos(n * e) * se - sne * math.cos(e)
    s = -1.0 if (q * (n - 1)) % 2 else 1.0
    return s * sne / se, s * num / (se * se)


def _pole_split(x, n: int):
    """_dirichlet's pole split and f1 over an array of x: (f1, severe, e, sin e,
    sin n e, sign), sin e set to 1 and f1 finite but meaningless where severe."""
    geometry._check_burst(n)
    x = np.asarray(x, dtype=float)
    if not (np.abs(x) < 2.0 ** 53).all():
        raise NonFiniteX("x holds a NaN, infinite or 2**53-or-larger value")
    # fmod is exact and the fold subtractions are exact by Sterbenz, so e
    # matches the scalar math.remainder split
    r = np.fmod(x, np.pi)
    e = np.where(r > np.pi / 2, r - np.pi, np.where(r < -np.pi / 2, r + np.pi, r))
    q = np.rint((x - e) / np.pi)
    e = e - q * _PI_TAIL
    se = np.sin(e)
    severe = np.abs(se) < X_TOL
    se = np.where(severe, 1.0, se)
    sne = np.sin(n * e)
    sign = np.where(np.fmod(q * (n - 1), 2.0) == 0.0, 1.0, -1.0)
    return sign * sne / se, severe, e, se, sne, sign


def _dirichlet_values(x, n: int):
    """(f1, f2, severe) over an array of x, as _pole_split; kept beside the
    scalar _dirichlet, which is about 30x faster on a single float."""
    f1v, severe, e, se, sne, sign = _pole_split(x, n)
    num = np.where(np.abs(e) < _SERIES_TOL, _f2_series(e, n),
                   n * np.cos(n * e) * se - sne * np.cos(e))
    return f1v, sign * num / (se * se), severe


def f1(x: float, n_packets: int) -> float:
    """Dirichlet-kernel ratio sin(n x) / sin(x); |f1| <= n everywhere."""
    f = _dirichlet(x, n_packets)
    if f is None:
        raise DomainX(f"x={x!r} is within tolerance of a multiple of pi")
    return f[0]


def f2(x: float, n_packets: int) -> float:
    """Derivative of f1 with respect to x."""
    f = _dirichlet(x, n_packets)
    if f is None:
        raise DomainX(f"x={x!r} is within tolerance of a multiple of pi")
    return f[1]


def affine_coefficients(slope: float, intercept: float, n_packets: int,
                        t_interval: float) -> tuple[float, float]:
    """Map an affine weight model b + a*t sampled at packet times to (c1, c2).

    c1 is the mean per-packet weight, c2 half the per-interval increment;
    the closed-form cross term depends on the weights only through them.
    """
    geometry._check_burst(n_packets, t_interval)
    c1 = intercept + slope * t_interval * (n_packets - 1) / 2.0
    c2 = slope * t_interval / 2.0
    return c1, c2


def c_ratio_squared(w: float, n_packets: int, t_interval: float) -> float:
    """Squared ratio (c2 / c1)^2 as a function of w = slope / intercept.

    Defined for w > -1 / ((n_packets - 1) * t_interval), the region where
    all per-packet weights stay positive.  Decreasing in w below 0,
    increasing above: faster weight drift in either direction costs more.
    """
    geometry._check_burst(n_packets, t_interval)
    if not math.isfinite(w):
        raise ValueError(f"w={w!r} is not finite")
    a_edge = 1.0 / ((n_packets - 1) * t_interval)
    if w <= -a_edge:
        raise NonPositiveC1(f"w={w!r} leaves the positive-weight region")
    return (w / ((n_packets - 1) * (w + 2.0 * a_edge))) ** 2


def _check_weights(c1: float, c2: float) -> None:
    """Admissible affine weights: 0 < c1 < inf and a finite c2."""
    if not 0.0 < c1 < math.inf:
        raise NonPositiveC1("mean per-packet weight must be positive and finite")
    if not math.isfinite(c2):
        raise ValueError("per-interval weight increment must be finite")


def loss(x, c1, c2, n_packets: int):
    """Relative worst-case loss of the burst cross term, in [0, 1].

    1 on the severe set; off it, R(x) / (c1 n) with
    R = sqrt((c1 f1)^2 + (c2 f2)^2).  Weights must average positive.  Floats
    give a float; any array among x, c1 and c2 broadcasts to an array."""
    if isinstance(x, np.ndarray) or isinstance(c1, np.ndarray) or isinstance(c2, np.ndarray):
        # the extreme weights are admissible only if all of them are
        c1, c2 = np.asarray(c1), np.asarray(c2)
        _check_weights(c1.min() if c1.max() < math.inf else c1.max(), abs(c2).max())
        if c2.any():
            f1v, f2v, severe = _dirichlet_values(x, n_packets)
            r = np.hypot(c1 * f1v, c2 * f2v)
        else:  # constant weights: |c1 f1 + c2| is that hypot bit for bit, in c2's shape too
            f1v, severe = _pole_split(x, n_packets)[:2]
            r = np.abs(c1 * f1v + c2)
        return np.where(severe, 1.0, r / (c1 * n_packets))
    _check_weights(c1, c2)
    f = _dirichlet(x, n_packets)
    if f is None:
        return 1.0
    return math.hypot(c1 * f[0], c2 * f[1]) / (c1 * n_packets)


def loss_bounds(x, n_packets: int):
    """Weight-independent envelope (lower, upper) of the loss at x.

    lower = |f1| / n holds for any admissible weights (and is the loss for
    constant weights); upper = sqrt((n-1)^2 f1^2 + f2^2) / (n (n-1)) holds
    for any positive affine weights.  On the severe set both collapse to 1.
    x may be a float (two floats returned) or an array (two arrays).
    """
    n = n_packets
    f1v, f2v, severe = _dirichlet_values(x, n)
    lower = np.where(severe, 1.0, np.abs(f1v) / n)
    upper = np.where(severe, 1.0, np.hypot((n - 1) * f1v, f2v) / (n * (n - 1)))
    if np.ndim(x) == 0:
        return float(lower), float(upper)
    return lower, upper


def interval_loss_bound(n_packets: int) -> float:
    """Loss ceiling for constant weights when x is kept at least pi / n away
    from the severe set: max of 1 / (n sin(x)) over [pi/n, (n-1) pi/n],
    attained at the interval edges."""
    geometry._check_burst(n_packets)
    return 1.0 / (n_packets * math.sin(math.pi / n_packets))


def j_affine(x: float, y: float, c1: float, c2: float, n_packets: int) -> float:
    """Closed form of sum_k (b + a k T) cos(y - 2 x k) via (c1, c2).

    On the severe set the sum is c1 n cos(y); elsewhere it is the two-term
    Dirichlet form.
    """
    n = n_packets
    f = _dirichlet(x, n)
    if f is None:
        return c1 * n * math.cos(y)
    u = y - (n - 1) * x
    return c1 * f[0] * math.cos(u) - c2 * f[1] * math.sin(u)


def worst_case_y(x: float, c1: float, c2: float,
                 n_packets: int) -> tuple[float, float]:
    """Offset phase minimizing the affine cross term, and the minimum value.

    Returns (y_min, j_min) with y_min in [0, 2 pi).  When the cross term
    vanishes identically (c2 = 0 and f1(x) = 0) the convention is (0, 0).
    """
    _check_weights(c1, c2)
    n = n_packets
    f = _dirichlet(x, n)
    if f is None:
        return math.pi, -c1 * n
    v1 = c1 * f[0]
    v2 = c2 * f[1]
    r = math.hypot(v1, v2)
    if r == 0.0:
        return 0.0, 0.0
    y_min = ((n - 1) * x + math.pi - math.atan2(v2, v1)) % TWO_PI
    return y_min, -r


def min_cross_term(weights, phases):
    """Minimum over the offset y of sum_k w_k cos(theta_k - y), for any
    weights and phases: the sum is C cos(y) + S sin(y) with C = sum w cos(theta)
    and S = sum w sin(theta), so its minimum is -hypot(C, S).  Packets run
    along the first axis; further axes hold independent bursts, whose minima
    come back as an array."""
    c = (weights * np.cos(phases)).sum(axis=0)
    s = (weights * np.sin(phases)).sum(axis=0)
    return -np.hypot(c, s) if isinstance(c, np.ndarray) else -math.hypot(c, s)


def optimal_slope_set(n_packets: int, t_interval: float) -> np.ndarray:
    """All slope differences whose half-angle per interval lands in the
    zero-loss set: q * 2 pi / (n_packets * t_interval), q = 1 .. n_packets - 1."""
    geometry._check_burst(n_packets, t_interval)
    base = TWO_PI / (n_packets * t_interval)
    return np.arange(1, n_packets) * base


def design_rule_alpha_star(n_packets: int, t_interval: float) -> np.ndarray:
    """Members of the optimal slope set farthest from the severe set.

    One slope for even n_packets (q = n/2), the two straddling q for odd
    n_packets.  These maximize the margin |x - q pi| under slope
    perturbation, i.e. stay robust when channel dynamics shift x.
    """
    qs = sorted({n_packets // 2, (n_packets + 1) // 2})
    return optimal_slope_set(n_packets, t_interval)[[q - 1 for q in qs]]


def check_optimality(slopes: Sequence[float], n_packets: int,
                     t_interval: float) -> bool:
    """True when every pairwise slope difference lands in the zero-loss set.

    Under that condition the burst cross term vanishes for constant weights
    regardless of the offset phases, for any number of branches.
    """
    geometry._check_burst(n_packets, t_interval)
    s = np.asarray(slopes, dtype=float)
    if s.size < 2:
        raise ValueError("need at least two branch slopes")
    # a list, not a generator: every pair is tested, so any non-finite x raises
    return all([in_zero_loss_set(0.5 * (b - a) * t_interval, n_packets)
                for i, a in enumerate(s) for b in s[i + 1:]])


# ---------------------------------------------------------------------------
# Mode evaluators: worst-case sum-SNR with channel quantities drifting.  Each
# mode drifts the factors _FACTORS marks (phase difference, path gain,
# antenna responses); weights multiply the gain factors, phases add up.
# Per call, _terms builds the packet times once and samples and fits each
# factor once for every slope: (gain, norm, weights, phases) per packet, the
# exact path's true factors or the affine path's fits at the packet times.
# On both paths a slope's value is (gain + min of the cross term) / norm.
# ---------------------------------------------------------------------------
_FACTORS = {"omega": (True, False, False), "pl": (True, True, False),
            "phi": (False, False, True), "combined": (True, True, True)}


def _terms(scen, mode, paths, model, patterns, fit):
    """{path: (gain, norm, weights, phases, packet times)} for each path in
    paths.  The affine path fits each factor once, the phase difference
    first, and evaluates each fit once, in its positivity check if it has one.
    A mode missing the model or a pattern it reads raises InvalidRequest first."""
    has_omega, has_pl, has_resp = _FACTORS[mode]
    if has_pl and model is None:
        raise InvalidRequest(f"mode {mode!r} needs a pathloss model")
    if has_resp and (patterns is None or patterns[0] is None or patterns[1] is None):
        raise InvalidRequest(f"mode {mode!r} needs a pair of antenna patterns")
    if fit not in ("taylor", "least_squares"):
        raise ValueError(f"unknown fit method {fit!r}")
    t0 = affine._default_t0(scen, None)
    n = scen.n_packets
    tk = scen.packet_times()
    if has_resp:
        phi_min, aoa_gain = antenna._pair_invariants(*patterns)
        if aoa_gain is None and not has_pl:
            raise ZeroGain("both antenna patterns have zero gain at the worst-case AOA")
        # the first packet arrives from the pair's worst-case AOA
        mag0, phase0, mag1, phase1 = antenna._sample_burst(*patterns, scen, tk, phi_min)
        half_gain = 0.5 * (mag0 ** 2 + mag1 ** 2)
    norm = (1.0 / DESIGN_SNR_SCALE if has_pl and has_resp
            else n * pathloss.mean_path_gain(model, geometry.transmitter_distance(scen, 0.0))
            if has_pl else n * aoa_gain if has_resp else n)
    if has_pl and ("exact" in paths or fit == "least_squares"):
        pl = pathloss.mean_path_gain(model, geometry.transmitter_distance(scen, tk))
    if "affine" in paths and (has_resp or has_pl and fit == "least_squares"):
        fitter = affine._fitter(tk)
    terms = {}
    for path in paths:
        exact = path == "exact"
        w, phase = 1.0, 0.0
        if has_omega:
            # a constant phase drops out of the minimum over the offset, so
            # the affine path reads only the slope of the phase difference
            phase = geometry.omega_exact(scen, tk) if exact else geometry._omega_slope(scen, t0) * tk
        if has_pl and exact:
            w = pl
        elif has_pl:
            fitted = affine._taylor_pathgain(model, scen, t0) if fit == "taylor" else fitter(pl)
            w = fitted._positive(tk)
        gain = (w * half_gain if has_resp else w).sum(axis=0) if has_pl or has_resp else n
        if has_resp:
            w = w * mag0 * mag1 if exact else w * fitter(mag0 * mag1)._positive(tk)
            # the affine path unwraps the difference before fitting, so a 2 pi
            # seam in either branch's tabulated phase cannot masquerade as drift
            phase = phase + (phase0 - phase1 if exact
                             else fitter(affine._unwrap(phase0 - phase1))(tk))
        terms[path] = gain, norm, w, phase, tk
    return terms


def _worst(terms, slope):
    """Worst-case sum-SNR from _terms' terms at one slope, or over an array
    of slopes that broadcasts against the grid behind the packet axis."""
    gain, norm, w, phase, tk = terms
    return (gain + min_cross_term(w, phase - slope * tk)) / norm


def _sum_snr(slope, scen, mode, use_exact, model=None, patterns=None, fit="taylor"):
    scen._require_single()
    if not math.isfinite(slope):
        raise ValueError(f"slope {slope!r} is not finite")
    path = "exact" if use_exact else "affine"
    return float(_worst(_terms(scen, mode, (path,), model, patterns, fit)[path], slope))


def sum_snr_omega(slope: float, scen: geometry.ScenarioParams, *, use_exact: bool = True) -> float:
    """Worst-case sum-SNR with only the branch phase difference varying, over
    n_packets (1.0 means no combining loss).  The exact path takes the true
    phase difference, the affine path its linearization at mid-burst."""
    return _sum_snr(slope, scen, "omega", use_exact)


def sum_snr_pl(slope: float, scen: geometry.ScenarioParams, model: pathloss.PathlossModel,
               *, use_exact: bool = True, fit: str = "taylor") -> float:
    """Worst-case sum-SNR with the mean path gain (and any phase difference)
    varying, over n_packets times the path gain at t = 0.  The affine path
    fits the path gain by "taylor" at mid-burst or by "least_squares"."""
    return _sum_snr(slope, scen, "pl", use_exact, model, fit=fit)


def sum_snr_phi(slope: float, scen: geometry.ScenarioParams,
                pattern0: antenna.AntennaPattern, pattern1: antenna.AntennaPattern, *,
                use_exact: bool = True) -> float:
    """Worst-case sum-SNR with only the angle of arrival varying.  The first
    packet arrives from the worst-case AOA; the burst is normalized by
    n_packets times the mean branch gain there."""
    return _sum_snr(slope, scen, "phi", use_exact, patterns=(pattern0, pattern1))


def sum_snr_combined(slope: float, scen: geometry.ScenarioParams,
                     model: pathloss.PathlossModel,
                     pattern0: antenna.AntennaPattern,
                     pattern1: antenna.AntennaPattern, *, use_exact: bool = True) -> float:
    """Worst-case sum-SNR with phase difference, path gain and AOA all varying,
    times DESIGN_SNR_SCALE.  Weights compose multiplicatively and phases
    additively; the affine path fits each factor separately (approximation)."""
    return _sum_snr(slope, scen, "combined", use_exact, model, (pattern0, pattern1))
