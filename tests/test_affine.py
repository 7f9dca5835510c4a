"""Affine channel models: Taylor linearizations and least-squares fits."""

import math
import warnings

import numpy as np
import pytest

from phasecomb import (AffineModel, DegenerateSamples, PathlossModel,
                       PositivityViolation, ScenarioParams, ValidityViolation,
                       least_squares_fit, mean_path_gain, omega_exact,
                       taylor_omega, taylor_pathgain, transmitter_distance)
from phasecomb.affine import _unwrap


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


@pytest.mark.parametrize("times, values", [
    ([0.0, math.nan, 0.2], [1.0, 2.0, 3.0]),
    ([0.0, math.inf, 0.2], [1.0, 2.0, 3.0]),
    ([0.0, 0.1, -math.inf], [1.0, 2.0, 3.0]),
    ([0.0, 0.1, 0.2], [1.0, math.nan, 3.0]),
    ([0.0, 0.1, 0.2], [1.0, math.inf, 3.0]),
    ([0.0, 0.1, 0.2], [-math.inf, 2.0, math.inf]),
])
def test_least_squares_rejects_non_finite_samples(times, values):
    # the typed error and nothing else: no warning comes before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSamples, match="finite"):
            least_squares_fit(times, values)
        # one bad column of a fit by column rejects the whole fit
        columns = np.tile(np.arange(3.0)[:, None], (1, 4))
        columns[:, 2] = values
        with pytest.raises(DegenerateSamples, match="finite"):
            least_squares_fit(np.asarray(times).reshape(-1, 1), columns)


# ---------------------------------------------------------------------------
# positivity guard
# ---------------------------------------------------------------------------

def test_positive_check_accepts_positive_model():
    times = np.arange(10) * 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = AffineModel(0.1, 1.0)._positive(times)
    np.testing.assert_array_equal(values, AffineModel(0.1, 1.0)(times))


@pytest.mark.parametrize("slope, intercept", [(-1.0, 0.5), (-1.0, 0.9), (0.0, 0.0)])
def test_positive_check_raises_on_a_dip(slope, intercept):
    # the line dips below 0, to exactly 0 at the last packet, or stays at 0
    times = np.arange(10) * 0.1
    with pytest.raises(PositivityViolation):
        AffineModel(slope, intercept)._positive(times)


def test_taylor_pathgain_checks_positivity_at_the_packet_times():
    # a transmitter receding fast from just past the reference distance:
    # the tangent at mid-burst drops below 0 before the last packet
    model = PathlossModel()
    scen = make_scen(d_x=1.5 * model.d_ref, d_y=0.0, delta_v=60.0, t_interval=0.5)
    with pytest.raises(PositivityViolation):
        taylor_pathgain(model, scen, t0=0.0)


# ---------------------------------------------------------------------------
# fit through sampled branch phases
# ---------------------------------------------------------------------------

def test_phase_diff_fit_sees_through_wrap_seam():
    # branch 0 phase is tabulated wrapped; the 2 pi jump must not leak
    # into the fitted slope
    t = np.arange(10) * 0.1
    raw = 4.0 * t
    wrapped = np.mod(raw + math.pi, 2.0 * math.pi) - math.pi
    model = least_squares_fit(t, _unwrap(wrapped))
    assert model.slope == pytest.approx(4.0, abs=1e-9)


def test_unwrap_matches_numpy_bit_for_bit():
    # random phases, and whole multiples of pi, whose jumps of exactly +-pi
    # take np.unwrap's tie-breaking branch
    rng = np.random.default_rng(25)
    ties = 0
    for i in range(2000):
        shape = (int(rng.integers(2, 13)),) + tuple(rng.integers(1, 4, rng.integers(0, 3)))
        if i % 3:
            p = rng.uniform(-20.0, 20.0, shape)
        else:
            p = rng.integers(-4, 5, shape) * math.pi
            ties += np.count_nonzero(np.abs(np.diff(p, axis=0)) == math.pi)
        assert _unwrap(p).tobytes() == np.unwrap(p, axis=0).tobytes(), p
    assert ties > 0
