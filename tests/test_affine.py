"""Affine channel models: Taylor linearizations and least-squares fits."""

import math
import warnings

import numpy as np
import pytest

from phasecomb import (AffineModel, BurstResponses, DegenerateSamples,
                       PathlossModel, PositivityViolation, ScenarioParams,
                       ValidityViolation, fit_antenna_gain_product,
                       fit_antenna_phase_diff, least_squares_fit,
                       mean_path_gain, omega_exact, taylor_omega,
                       taylor_pathgain, transmitter_distance)
from phasecomb.affine import require_positive


def make_scen(**kw):
    base = dict(d_x=30.0, d_y=-4.0, delta_v=-60.0 / 3.6, delta_a=0.508,
                wavelength=0.0508, n_packets=10, t_interval=0.1)
    base.update(kw)
    return ScenarioParams(**base)


def central_difference(fun, t0: float, h: float = 1e-5) -> float:
    return (fun(t0 + h) - fun(t0 - h)) / (2.0 * h)


def test_affine_model_call():
    model = AffineModel(slope=2.0, intercept=-1.0)
    assert model(0.0) == -1.0
    assert model(0.5) == 0.0
    np.testing.assert_allclose(model(np.array([0.0, 1.0])), [-1.0, 1.0], atol=0.0)


# ---------------------------------------------------------------------------
# Taylor linearizations
# ---------------------------------------------------------------------------

def test_taylor_omega_slope_matches_finite_difference():
    scen = make_scen()
    for t0 in (0.0, 0.45, 0.9):
        model = taylor_omega(scen, t0)
        fd = central_difference(lambda t: omega_exact(scen, t), t0)
        assert model.slope == pytest.approx(fd, rel=1e-6, abs=1e-9)
        # tangency at the expansion point
        assert model(t0) == pytest.approx(omega_exact(scen, t0), abs=1e-12)


def test_taylor_omega_default_expands_mid_burst():
    scen = make_scen()
    default = taylor_omega(scen)
    explicit = taylor_omega(scen, 0.5 * scen.burst_window)
    assert default.slope == explicit.slope
    assert default.intercept == explicit.intercept


def test_taylor_omega_zero_slope_when_static():
    model = taylor_omega(make_scen(delta_v=0.0))
    assert model.slope == 0.0


def test_taylor_pathgain_slope_matches_finite_difference():
    scen = make_scen()
    pl = PathlossModel()
    for t0 in (0.0, 0.45):
        model = taylor_pathgain(pl, scen, t0)
        fd = central_difference(
            lambda t: mean_path_gain(pl, transmitter_distance(scen, t)), t0)
        assert model.slope == pytest.approx(fd, rel=1e-6)
        assert model(t0) == pytest.approx(
            mean_path_gain(pl, transmitter_distance(scen, t0)), rel=1e-12)


def test_taylor_pathgain_rejects_clamped_range():
    pl = PathlossModel()
    with pytest.raises(ValidityViolation):
        taylor_pathgain(pl, make_scen(d_x=2.5, d_y=0.5, delta_v=0.0))


def test_taylor_pathgain_checks_closest_approach_inside_burst():
    # endpoints stay far out but the track passes within d_ref mid-burst
    scen = make_scen(d_x=5.0, d_y=1.0, delta_v=-20.0)
    assert transmitter_distance(scen, 0.0) > 3.0
    assert transmitter_distance(scen, scen.burst_window) > 3.0
    with pytest.raises(ValidityViolation):
        taylor_pathgain(PathlossModel(), scen)


# ---------------------------------------------------------------------------
# least squares
# ---------------------------------------------------------------------------

def test_least_squares_fit_matches_normal_equations():
    rng = np.random.default_rng(11)
    t = np.sort(rng.uniform(0.0, 1.0, 15))
    v = rng.normal(0.0, 2.0, 15)
    model = least_squares_fit(t, v)
    tm, vm = t.mean(), v.mean()
    slope = float(np.sum((t - tm) * (v - vm)) / np.sum((t - tm) ** 2))
    assert model.slope == pytest.approx(slope, rel=1e-10)
    assert model.intercept == pytest.approx(vm - slope * tm, rel=1e-10)


def test_least_squares_fit_exact_on_affine_data():
    t = np.arange(10) * 0.1
    model = least_squares_fit(t, 3.0 - 1.25 * t)
    assert model.slope == pytest.approx(-1.25, abs=1e-12)
    assert model.intercept == pytest.approx(3.0, abs=1e-12)


def test_least_squares_fit_fits_each_column():
    rng = np.random.default_rng(12)
    t = np.arange(8) * 0.1
    v = rng.normal(0.0, 2.0, (8, 3, 2))
    model = least_squares_fit(t.reshape(-1, 1, 1), v)
    assert model.slope.shape == model.intercept.shape == (3, 2)
    for i, j in np.ndindex(3, 2):
        column = least_squares_fit(t, v[:, i, j])
        assert model.slope[i, j] == pytest.approx(column.slope, rel=1e-12, abs=1e-12)
        assert model.intercept[i, j] == pytest.approx(column.intercept, rel=1e-12, abs=1e-12)
    fitted = model(t.reshape(-1, 1, 1))
    assert fitted.shape == (8, 3, 2)
    np.testing.assert_allclose(fitted[:, 1, 0], model.intercept[1, 0] + model.slope[1, 0] * t)


def test_least_squares_degenerate_inputs():
    with pytest.raises(DegenerateSamples):
        least_squares_fit([0.0], [1.0])
    with pytest.raises(DegenerateSamples):
        least_squares_fit([0.0, 1.0], [1.0])
    with pytest.raises(DegenerateSamples):
        least_squares_fit([0.5, 0.5, 0.5], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# positivity guard
# ---------------------------------------------------------------------------

def test_require_positive_accepts_positive_model():
    times = np.arange(10) * 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert require_positive(AffineModel(0.1, 1.0), times) is None


def test_require_positive_strict_raises():
    times = np.arange(10) * 0.1
    with pytest.raises(PositivityViolation):
        require_positive(AffineModel(-1.0, 0.5), times)


# ---------------------------------------------------------------------------
# fits through sampled branch responses
# ---------------------------------------------------------------------------

def make_responses(phase0, phase1, mag0=None, mag1=None):
    n = len(phase0)
    times = np.arange(n) * 0.1
    ones = np.ones(n)
    return BurstResponses(times=times,
                          mag0=ones if mag0 is None else np.asarray(mag0),
                          phase0=np.asarray(phase0, dtype=float),
                          mag1=ones if mag1 is None else np.asarray(mag1),
                          phase1=np.asarray(phase1, dtype=float))


def test_phase_diff_fit_sees_through_wrap_seam():
    # branch 0 phase is tabulated wrapped; the 2 pi jump must not leak
    # into the fitted slope
    t = np.arange(10) * 0.1
    raw = 4.0 * t
    wrapped = np.mod(raw + math.pi, 2.0 * math.pi) - math.pi
    model = fit_antenna_phase_diff(make_responses(wrapped, np.zeros(10)))
    assert model.slope == pytest.approx(4.0, abs=1e-9)


def test_gain_product_fit_values():
    mag0 = 1.0 + 0.1 * np.arange(10) * 0.1
    mag1 = np.full(10, 2.0)
    model = fit_antenna_gain_product(make_responses(np.zeros(10), np.zeros(10),
                                                    mag0, mag1))
    assert model.slope == pytest.approx(0.2, abs=1e-10)
    assert model.intercept == pytest.approx(2.0, abs=1e-10)


def test_gain_product_fit_strictness():
    # sharply decaying product pulls the fitted line negative at the tail
    mags = np.sqrt(np.array([5.0, 0.1, 0.1, 0.1]))
    resp = make_responses(np.zeros(4), np.zeros(4), mags, mags)
    with pytest.raises(PositivityViolation):
        fit_antenna_gain_product(resp)
