"""Affine-in-time models of slowly drifting channel quantities.

The affine evaluation path and the closed forms need each time-varying
quantity reduced to slope * t + intercept over the burst window.  Two routes produce such a
model: a first-order Taylor expansion of the known closed-form quantity
around a chosen instant (default: the middle of the burst window), or an
unweighted least-squares fit through sampled values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, pathloss
from .errors import DegenerateSamples, PositivityViolation, ValidityViolation


@dataclass(frozen=True)
class AffineModel:
    """slope * t + intercept; for a grid of scenarios slope and intercept
    are arrays of the grid's shape."""

    slope: float
    intercept: float

    def __call__(self, t):
        return self.intercept + self.slope * np.asarray(t, dtype=float)

    def _positive(self, t):
        """The values at times t; raises PositivityViolation unless every one
        is strictly positive, since the closed forms assume positive
        per-packet weights."""
        values = self(t)
        if not (values > 0.0).all():
            raise PositivityViolation(
                f"affine weight model dips to {float(values.min()):.3e} inside the burst")
        return values


def _default_t0(scen: geometry.ScenarioParams, t0: float | None) -> float:
    # Mid-burst expansion balances the residual over the packet times.
    if t0 is None:
        return 0.5 * scen.burst_window
    if not math.isfinite(t0):
        raise ValueError("linearization instant t0 must be finite")
    return t0


def taylor_omega(scen: geometry.ScenarioParams, t0: float | None = None) -> AffineModel:
    """First-order model of the branch phase difference around t0."""
    t0 = _default_t0(scen, t0)
    slope = geometry._omega_slope(scen, t0)
    intercept = geometry.omega_exact(scen, t0) - slope * t0
    return AffineModel(slope=slope, intercept=intercept)


def taylor_pathgain(model: pathloss.PathlossModel, scen: geometry.ScenarioParams,
                    t0: float | None = None) -> AffineModel:
    """First-order model of the mean path gain around t0.

    Requires the transmitter to stay beyond the model's reference distance
    for the whole burst (the linearization cannot cross the clamp), and the
    resulting per-packet weights to stay positive.
    """
    fitted = _taylor_pathgain(model, scen, _default_t0(scen, t0))
    fitted._positive(scen.packet_times())
    return fitted


def _taylor_pathgain(model, scen, t0: float) -> AffineModel:
    """taylor_pathgain at a resolved t0, before the positivity check."""
    # Minimum distance over the burst: at the smaller |along-track coordinate|
    # of the endpoints, or at the closest approach if it changes sign between.
    u_end = scen.d_x + scen.delta_v * scen.burst_window
    u_min = np.where(scen.d_x * u_end <= 0.0, 0.0, np.minimum(abs(scen.d_x), abs(u_end)))
    d_min = np.hypot(u_min, scen.d_y).min()
    if d_min <= model.d_ref:
        raise ValidityViolation(
            f"distance {d_min:.3f} m reaches the reference distance "
            f"{model.d_ref:.3f} m inside the burst window")
    u = scen.d_x + scen.delta_v * t0
    d_t0 = geometry.transmitter_distance(scen, t0)
    scale = model.shadowing_mean * model.ref_gain * model.d_ref ** model.exponent
    slope = -scale * model.exponent * scen.delta_v * u / d_t0 ** (model.exponent + 2.0)
    intercept = pathloss.mean_path_gain(model, d_t0) - slope * t0
    return AffineModel(slope=slope, intercept=intercept)


def least_squares_fit(times, values) -> AffineModel:
    """Unweighted least-squares affine fit through (times, values), in the
    centered closed form.  values may carry axes after the sample axis, one
    fit per column of the same sample times."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size < 2 or v.shape[:1] != (t.size,):
        raise DegenerateSamples("need at least two samples of matching shape")
    return _fitter(t.reshape((-1,) + (1,) * (v.ndim - 1)))(v)


def _fitter(t):
    """least_squares_fit at the sample times t, as a function of the values,
    which must have t's number of axes; t is checked and centred once."""
    if not -math.inf < t.min() < t.max() < math.inf:  # NaN fails every comparison
        raise DegenerateSamples("sample times must be finite and not all identical")
    # sum / size is the float mean() gives, without its Python-level wrapper
    tm = t.sum() / t.size
    dt = t - tm
    dt2 = (dt * dt).sum()

    def fit(v) -> AffineModel:
        # checked before the sums, which warn on +inf with -inf
        if np.count_nonzero(np.isfinite(v)) < v.size:
            raise DegenerateSamples("sample values must be finite")
        vm = v.sum(axis=0) / t.size
        slope = (dt * (v - vm)).sum(axis=0) / dt2
        return AffineModel(slope=slope, intercept=vm - slope * tm)
    return fit


def _unwrap(p):
    """np.unwrap(p, axis=0) for a float array p, by the same numpy steps
    without its dtype and axis set-up, so bit for bit the same."""
    dd = p[1:] - p[:-1]
    ddmod = np.mod(dd + math.pi, 2.0 * math.pi) - math.pi
    # a jump of exactly +pi stays +pi, as in np.unwrap
    np.copyto(ddmod, math.pi, where=(ddmod == -math.pi) & (dd > 0))
    correct = ddmod - dd
    np.copyto(correct, 0.0, where=abs(dd) < math.pi)
    up = p.copy()
    up[1:] = p[1:] + correct.cumsum(axis=0)
    return up
