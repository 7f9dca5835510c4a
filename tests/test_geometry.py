"""Scenario geometry: distances, phase difference, angle of arrival."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from phasecomb import (DegenerateGeometry, ScenarioParams, TooFewPackets, aoa_exact,
                       carrier_wavelength, kmh_to_mps, omega_exact,
                       propagation_distances, taylor_omega, transmitter_distance)


def make_scen(**kw):
    base = dict(d_x=30.0, d_y=-4.0, delta_v=10.0, delta_a=0.5,
                wavelength=0.0508, n_packets=10, t_interval=0.1)
    base.update(kw)
    return ScenarioParams(**base)


def test_kmh_to_mps():
    assert kmh_to_mps(36.0) == pytest.approx(10.0, abs=1e-12)
    assert kmh_to_mps(-60.0) == pytest.approx(-60.0 / 3.6, abs=1e-12)


def test_carrier_wavelength():
    assert carrier_wavelength(5.9e9) == pytest.approx(299792458.0 / 5.9e9, rel=1e-15)
    with pytest.raises(ValueError):
        carrier_wavelength(0.0)
    with pytest.raises(ValueError):
        carrier_wavelength(-1e9)


def test_scenario_validation():
    with pytest.raises(ValueError):
        make_scen(n_packets=1)
    # too few packets is the same typed error as in the kernels
    with pytest.raises(TooFewPackets):
        make_scen(n_packets=1)
    # a fractional count has no packet times that match its burst window
    for bad in (2.5, 10.0, np.float64(10.0)):
        with pytest.raises(ValueError, match="packet count"):
            make_scen(n_packets=bad)
    assert make_scen(n_packets=np.int64(10)).packet_times().shape == (10,)
    with pytest.raises(ValueError):
        make_scen(t_interval=0.0)
    with pytest.raises(ValueError):
        make_scen(wavelength=-0.05)
    with pytest.raises(ValueError):
        make_scen(delta_a=-0.1)
    # NaN passes every sign check, so finiteness is checked on its own
    for field in ("d_x", "d_y", "delta_v", "delta_a", "wavelength", "t_interval"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                make_scen(**{field: bad})


def test_scenario_burst_span_must_not_overflow():
    # a finite interval whose burst span n * T overflows would put the last
    # packet at inf, and every exact sum_snr_* call would return NaN
    for n, t in ((3, 1e308), (np.int64(3), 1e308), (10, np.float64(1.8e307))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no overflow warning on the way
            with pytest.raises(ValueError, match="overflow"):
                make_scen(n_packets=n, t_interval=t)
    assert make_scen(n_packets=2, t_interval=8e307).packet_times()[-1] == 8e307


def test_scenario_is_frozen():
    scen = make_scen()
    with pytest.raises(dataclasses.FrozenInstanceError):
        scen.d_x = 100.0


def test_burst_timing():
    scen = make_scen(n_packets=5, t_interval=0.2)
    assert scen.burst_window == pytest.approx(0.8, abs=1e-15)
    np.testing.assert_allclose(scen.packet_times(),
                               [0.0, 0.2, 0.4, 0.6, 0.8], atol=1e-15)


def test_transmitter_distance_hand_value():
    scen = make_scen(d_x=30.0, d_y=-4.0, delta_v=10.0)
    assert transmitter_distance(scen, 0.0) == pytest.approx(math.hypot(30.0, 4.0), abs=1e-12)
    assert transmitter_distance(scen, 0.5) == pytest.approx(math.hypot(35.0, 4.0), abs=1e-12)
    d = transmitter_distance(scen, np.array([0.0, 0.5]))
    np.testing.assert_allclose(d, [math.hypot(30, 4), math.hypot(35, 4)], atol=1e-12)


def test_propagation_distances_hand_value():
    # antenna 0 sits at lateral offset -delta_a/2, antenna 1 at +delta_a/2
    scen = make_scen(d_x=30.0, d_y=-4.0, delta_v=0.0, delta_a=0.5)
    d0, d1 = propagation_distances(scen, 0.0)
    assert d0 == pytest.approx(math.hypot(30.0, -4.0 + 0.25), abs=1e-12)
    assert d1 == pytest.approx(math.hypot(30.0, -4.0 - 0.25), abs=1e-12)


def test_propagation_distances_vectorized():
    scen = make_scen()
    t = np.array([0.0, 0.3, 0.9])
    d0, d1 = propagation_distances(scen, t)
    for i, ti in enumerate(t):
        s0, s1 = propagation_distances(scen, float(ti))
        assert d0[i] == s0 and d1[i] == s1


def test_propagation_degenerate_on_antenna():
    scen = make_scen(d_x=0.0, d_y=0.25, delta_v=0.0, delta_a=0.5)
    with pytest.raises(DegenerateGeometry):
        propagation_distances(scen, 0.0)


def test_omega_hand_value():
    scen = make_scen(delta_v=0.0)
    d0, d1 = propagation_distances(scen, 0.0)
    want = (2.0 * math.pi / scen.wavelength) * (d1 - d0)
    assert omega_exact(scen, 0.0) == pytest.approx(want, rel=1e-15)


def test_omega_antisymmetric_in_lateral_offset():
    a = make_scen(d_y=-4.0)
    b = make_scen(d_y=4.0)
    t = np.linspace(0.0, 0.9, 7)
    np.testing.assert_allclose(omega_exact(a, t), -omega_exact(b, t), atol=1e-12)


def test_omega_scales_inversely_with_wavelength():
    a = make_scen(wavelength=0.05)
    b = make_scen(wavelength=0.10)
    assert omega_exact(a, 0.4) == pytest.approx(2.0 * omega_exact(b, 0.4), rel=1e-12)


def test_omega_zero_for_collocated_antennas():
    scen = make_scen(delta_a=0.0)
    assert omega_exact(scen, 0.7) == 0.0


def test_omega_drift_decays_with_distance():
    # the per-burst phase-difference swing shrinks monotonically once the
    # transmitter starts well outside the array and its track
    window = 10 * 0.1
    scen0 = make_scen(d_x=0.0, delta_v=kmh_to_mps(60.0), d_y=4.0)
    floor = scen0.delta_a + abs(scen0.d_y) + abs(scen0.delta_v) * window
    swings = []
    for d_x in np.arange(math.ceil(floor) + 1.0, 200.0, 5.0):
        scen = make_scen(d_x=float(d_x), delta_v=scen0.delta_v, d_y=4.0)
        swings.append(abs(omega_exact(scen, window) - omega_exact(scen, 0.0)))
    assert np.all(np.diff(swings) <= 1e-12)


def test_aoa_hand_values():
    scen = make_scen(d_y=-4.0, delta_v=0.0)
    assert aoa_exact(scen, 0.0) == pytest.approx(math.atan2(-4.0, 30.0) + 2.0 * math.pi, abs=1e-12)
    scen = make_scen(d_y=4.0, delta_v=0.0)
    assert aoa_exact(scen, 0.0) == pytest.approx(math.atan2(4.0, 30.0), abs=1e-12)


def test_aoa_wraps_to_unit_circle():
    scen = make_scen(d_x=-50.0, d_y=-1.0, delta_v=0.0)
    phi = aoa_exact(scen, 0.0)
    assert 0.0 <= phi < 2.0 * math.pi


def test_aoa_degenerate_at_array_center():
    scen = make_scen(d_x=0.0, d_y=0.0, delta_a=0.0)
    with pytest.raises(DegenerateGeometry):
        aoa_exact(scen, 0.0)


# ---------------------------------------------------------------------------
# grids of scenarios: d_x, d_y and delta_v as arrays broadcast together
# ---------------------------------------------------------------------------

def make_grid():
    return make_scen(d_y=np.array([-4.0, 0.5, 4.0])[:, None],
                     delta_v=np.array([-12.0, 0.0, 7.5, 16.0])[None, :])


def test_grid_packet_times_run_along_a_first_axis():
    scen = make_grid()
    tk = scen.packet_times()
    assert tk.shape == (10, 1, 1)
    assert omega_exact(scen, tk).shape == (10, 3, 4)
    np.testing.assert_array_equal(tk[:, 0, 0], make_scen().packet_times())
    assert make_scen(d_x=np.array(30.0)).packet_times().shape == (10,)


def test_grid_fields_are_checked_elementwise():
    for field in ("d_x", "d_y", "delta_v"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="scenario parameters must be finite"):
                make_scen(**{field: np.array([[1.0, bad], [2.0, 3.0]])})
    # a grid runs every check a single scenario runs
    with pytest.raises(ValueError, match="wavelength"):
        make_scen(d_x=np.array([10.0, 20.0]), wavelength=-0.05)
    with pytest.raises(ValueError, match="packet count"):
        make_scen(d_x=np.array([10.0, 20.0]), n_packets=2.5)


def test_grid_values_equal_the_per_cell_scalar_calls():
    grid = make_grid()
    times = grid.packet_times()
    cells = {"omega": omega_exact(grid, times), "aoa": aoa_exact(grid, times),
             "distance": transmitter_distance(grid, times),
             "slope": np.broadcast_to(taylor_omega(grid).slope, (3, 4))}
    for i, d_y in enumerate(grid.d_y[:, 0]):
        for j, delta_v in enumerate(grid.delta_v[0]):
            scen = make_scen(d_y=float(d_y), delta_v=float(delta_v))
            tk = scen.packet_times()
            assert cells["omega"][:, i, j].tolist() == omega_exact(scen, tk).tolist()
            assert cells["aoa"][:, i, j].tolist() == aoa_exact(scen, tk).tolist()
            assert cells["distance"][:, i, j].tolist() == transmitter_distance(scen, tk).tolist()
            assert cells["slope"][i, j] == taylor_omega(scen).slope
