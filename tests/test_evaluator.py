"""Public worst-case sum-SNR evaluators and the sweep built on them.

The four sum_snr_* calls share one burst evaluator, which the sweep driver
runs once on a whole (speed, offset) grid; both paths end in the same
worst-case-offset step over per-packet weights and phases.  These tests pin
each mode against independent routes: single calls cell by cell (values,
and the error the first failing scenario raises), a brute force offset
scan over weights and phases rebuilt from the scenario fields, and, for
the affine path, a direct resummation of the affine models and the
paper's closed form wherever at most one weight factor drifts.
"""

import inspect
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecomb import (DESIGN_SNR_SCALE, AntennaPattern, DegenerateGeometry, InvalidRequest,
                       NonPositiveDistance, PathlossModel, PhasecombError, PositivityViolation,
                       ScenarioParams, ValidityViolation, ZeroGain, affine_coefficients,
                       aoa_exact, builtin_pattern, carrier_wavelength, kmh_to_mps,
                       least_squares_fit, load_pattern_csv, loss, mean_path_gain,
                       min_cross_term, speed_sweep,
                       sum_snr_combined, sum_snr_omega, sum_snr_phi, sum_snr_pl,
                       taylor_omega, taylor_pathgain, transmitter_distance)
from phasecomb import affine, antenna, experiments
from phasecomb.validation import Y_SCAN_GRID, worst_case_y_scan

TWO_PI = 2.0 * math.pi
LAM = carrier_wavelength(5.9e9)
MODEL = PathlossModel()
PATTERNS = (builtin_pattern("patch_front"), builtin_pattern("patch_rear"))
MODES = ("omega", "pl", "phi", "combined")


def scen_at(d_x=30.0, d_y=-4.0, dv_kmh=40.0, n_packets=10, t_interval=0.1):
    return ScenarioParams(d_x=d_x, d_y=d_y, delta_v=kmh_to_mps(dv_kmh),
                          delta_a=10.0 * LAM, wavelength=LAM,
                          n_packets=n_packets, t_interval=t_interval)


def public_call(mode, slope, scen, use_exact, patterns=PATTERNS):
    if mode == "omega":
        return sum_snr_omega(slope, scen, use_exact=use_exact)
    if mode == "pl":
        return sum_snr_pl(slope, scen, MODEL, use_exact=use_exact)
    if mode == "phi":
        return sum_snr_phi(slope, scen, *patterns, use_exact=use_exact)
    return sum_snr_combined(slope, scen, MODEL, *patterns, use_exact=use_exact)


def slopes_for(n_packets, t_interval):
    # every comb member plus two slopes between comb members
    unit = TWO_PI / (n_packets * t_interval)
    return [q * unit for q in range(1, n_packets)] + [0.37 * unit, 2.61 * unit]


# ---------------------------------------------------------------------------
# sweep cells against single calls
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", ["exact", "affine"])
@pytest.mark.parametrize("mode", MODES)
def test_sweep_cells_are_the_worst_single_call(mode, path):
    base = scen_at(dv_kmh=0.0)
    unit = TWO_PI / (base.n_packets * base.t_interval)
    slopes = {"q1": unit, "q5": 5.0 * unit, "off": 2.3 * unit}
    dv = [-45.0, 0.0, 25.0]
    offsets = (-4.0, 1.5, 4.0)
    res = speed_sweep(mode, slopes, dv, base, model=MODEL, patterns=PATTERNS,
                      paths=(path,), d_y_values=offsets)
    for i, dv_kmh in enumerate(dv):
        scens = [scen_at(d_y=dy, dv_kmh=dv_kmh) for dy in offsets]
        for label, slope in slopes.items():
            want = min(public_call(mode, slope, s, path == "exact") for s in scens)
            got = 10.0 ** (res.series[f"{label}_{path}_db"][i] / 10.0)
            assert got == pytest.approx(want, rel=1e-12), (label, dv_kmh)


def first_error(mode, cells, paths, patterns=PATTERNS):
    """Class of the first error single calls meet, visiting the (speed,
    offset) cells speed by speed, each speed's paths (the exact path last,
    for the reference series) and then its offsets; None if none fails."""
    for row in cells:
        for path in (*paths, "exact"):
            for scen in row:
                try:
                    public_call(mode, 1.0, scen, path == "exact", patterns)
                except PhasecombError as exc:
                    return type(exc)
    return None


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_sweep_equals_worst_single_call_over_random_grids(mode, data):
    d_x = data.draw(st.floats(15.0, 150.0), label="d_x")
    offsets = tuple(data.draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4),
                              label="offsets"))
    dv = data.draw(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=5), label="dv")
    k = data.draw(st.sampled_from((2, 3, 8, 10, 12, 16)), label="K")
    t = data.draw(st.sampled_from((0.05, 0.1)), label="T")
    qs = data.draw(st.lists(st.one_of(st.integers(1, k - 1), st.floats(0.05, k - 0.05)),
                            min_size=1, max_size=4), label="q")
    slopes = {f"s{i}": q * TWO_PI / (k * t) for i, q in enumerate(qs)}
    base = scen_at(d_x=d_x, dv_kmh=0.0, n_packets=k, t_interval=t)
    cells = [[scen_at(d_x=d_x, d_y=dy, dv_kmh=v, n_packets=k, t_interval=t)
              for dy in offsets] for v in dv]
    error = first_error(mode, cells, ("exact", "affine"))

    def sweep():
        return speed_sweep(mode, slopes, dv, base, model=MODEL, patterns=PATTERNS,
                           d_y_values=offsets)

    if error is not None:
        with pytest.raises(error):
            sweep()
        return
    res = sweep()
    for i, row in enumerate(cells):
        zero_loss = min(gain / norm for gain, norm, _, _ in
                        (oracle_terms(mode, scen) for scen in row))
        got = 10.0 ** (res.series["reference_db"][i] / 10.0)
        assert got == pytest.approx(zero_loss, rel=1e-12)
        for label, slope in slopes.items():
            for path in ("exact", "affine"):
                want = min(public_call(mode, slope, scen, path == "exact") for scen in row)
                got = 10.0 ** (res.series[f"{label}_{path}_db"][i] / 10.0)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * zero_loss)


# A transmitter starting at d_x = 10 m and closing at 36 km/h (10 m/s) is at
# along-track 0 at the third packet, t = 1 s: on an antenna (d_y = -0.5 m
# with delta_a = 1 m) or on the array center (d_y = 0).
CROSSING = {"d_x": 10.0, "delta_a": 1.0, "n_packets": 4, "t_interval": 0.5}
CLOSE = {"d_x": 10.0}
BOTH = ("exact", "affine")
NAN = float("nan")
ERROR_CASES = [
    ("omega", CROSSING, [-36.0], (-0.5,), BOTH, DegenerateGeometry),
    ("combined", CROSSING, [-36.0], (-0.5,), BOTH, DegenerateGeometry),
    ("phi", CROSSING, [-36.0], (0.0,), BOTH, DegenerateGeometry),
    ("combined", CROSSING, [-36.0], (0.0,), BOTH, DegenerateGeometry),
    ("pl", CROSSING, [-36.0], (0.0,), BOTH, NonPositiveDistance),
    ("pl", {"d_x": 2.0}, [0.0], (1.0,), BOTH, ValidityViolation),
    ("combined", {"d_x": 2.0}, [0.0], (1.0,), BOTH, ValidityViolation),
    ("pl", CLOSE, [-60.0], (-4.0,), BOTH, PositivityViolation),
    ("phi", CLOSE, [-60.0, 60.0], (4.0,), BOTH, PositivityViolation),
    # the first failing offset decides, as the order of the offsets says
    ("pl", CLOSE, [-60.0], (-4.0, 0.5), ("affine",), PositivityViolation),
    ("pl", CLOSE, [-60.0], (0.5, -4.0), ("affine",), ValidityViolation),
    # and the first failing speed
    ("omega", CROSSING, [-36.0, NAN], (-0.5,), BOTH, DegenerateGeometry),
    ("omega", CROSSING, [NAN, -36.0], (-0.5,), BOTH, ValueError),
    ("omega", {}, [0.0, NAN], (1.0,), BOTH, ValueError),
    ("phi", {}, [0.0], (1.0, NAN), BOTH, ValueError),
    # the phase-difference fit comes before the path-gain fit: on an antenna
    # at t0 = 1 s the Taylor path gain would raise ValidityViolation
    ("pl", {"d_x": 10.0, "delta_a": 1.0, "n_packets": 5, "t_interval": 0.5}, [-36.0],
     (-0.5,), ("affine",), DegenerateGeometry),
]


@pytest.mark.parametrize("mode, fields, dv, offsets, paths, error", ERROR_CASES)
def test_sweep_raises_what_the_first_failing_scenario_raises(mode, fields, dv, offsets,
                                                             paths, error):
    base = ScenarioParams(**{"d_x": 30.0, "d_y": 0.0, "delta_v": 0.0,
                             "delta_a": 10.0 * LAM, "wavelength": LAM, **fields})
    patterns = PATTERNS
    if mode == "phi" and error is PositivityViolation:
        # a null of the cardioid drags the fitted gain product below zero
        patterns = (builtin_pattern("isotropic"), builtin_pattern("cardioid"))
    slopes = {"q1": TWO_PI / (base.n_packets * base.t_interval)}
    with pytest.raises(error):
        speed_sweep(mode, slopes, dv, base, model=MODEL, patterns=patterns, paths=paths,
                    d_y_values=offsets)
    if all(map(math.isfinite, (*dv, *offsets))):
        cells = [[ScenarioParams(**{**vars(base), "d_y": dy, "delta_v": kmh_to_mps(v)})
                  for dy in offsets] for v in dv]
        assert first_error(mode, cells, paths, patterns) is error


@pytest.mark.parametrize("mode, fields, dv, offsets, paths, error", ERROR_CASES)
def test_sweep_in_speed_blocks_raises_what_the_first_failing_scenario_raises(
        mode, fields, dv, offsets, paths, error, monkeypatch):
    # one speed row per grid: an error met in a later block still wins only
    # if no earlier speed fails
    monkeypatch.setattr(experiments, "_BLOCK_CELLS", 1)
    test_sweep_raises_what_the_first_failing_scenario_raises(mode, fields, dv, offsets,
                                                             paths, error)


def test_inadmissible_least_squares_path_gain_raises():
    # an approaching transmitter whose path gain rises steeply: the
    # least-squares line through it dips below 0 inside the burst (to
    # -1.2e-9), while the Taylor line and the exact path score the burst
    scen = ScenarioParams(d_x=30.33586683192, d_y=0.8730746650004795,
                          delta_v=-16.64071341068446, delta_a=10.0 * LAM, wavelength=LAM,
                          n_packets=12, t_interval=0.1)
    unit = TWO_PI / (12 * 0.1)
    for q in (1, 4):
        with pytest.raises(PositivityViolation):
            sum_snr_pl(q * unit, scen, MODEL, use_exact=False, fit="least_squares")
        assert math.isfinite(sum_snr_pl(q * unit, scen, MODEL, use_exact=False))
        assert math.isfinite(sum_snr_pl(q * unit, scen, MODEL))
    assert sum_snr_pl(unit, scen, MODEL, use_exact=False) == pytest.approx(1.754331864533572,
                                                                           rel=1e-12)
    assert sum_snr_pl(unit, scen, MODEL) == pytest.approx(2.2552552957140217, rel=1e-12)


@pytest.mark.parametrize("mode", MODES)
def test_sweep_in_speed_blocks_matches_one_grid(mode, monkeypatch):
    # at d_x = 170 m only the fastest receding speed passes the pathloss
    # validity horizon (177 m), so the flag must come from a middle block
    base = scen_at(d_x=170.0, dv_kmh=0.0)
    unit = TWO_PI / (base.n_packets * base.t_interval)
    slopes = {"q1": unit, "q5": 5.0 * unit, "off": 2.3 * unit}

    def sweep():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = speed_sweep(mode, slopes, [-60.0, -20.0, 60.0, 20.0], base, model=MODEL,
                              patterns=PATTERNS, d_y_values=(-4.0, 0.5, 4.0))
        return res, [str(w.message) for w in caught]

    whole, whole_warnings = sweep()
    monkeypatch.setattr(experiments, "_BLOCK_CELLS", 1)
    blocked, blocked_warnings = sweep()
    assert blocked.series.keys() == whole.series.keys()
    for key, values in whole.series.items():
        np.testing.assert_array_equal(blocked.series[key], values, err_msg=key)
    assert blocked.metadata == whole.metadata
    assert blocked_warnings == whole_warnings
    # only the modes that read the path gain flag the pathloss horizon
    if mode in ("pl", "combined"):
        assert whole.metadata["pl_validity_exceeded"]
    else:
        assert "pl_validity_exceeded" not in whole.metadata and not whole_warnings


# (d_x, speeds in km/h, offsets) near the 177 m pathloss validity horizon,
# and whether the sweep passes it
HORIZON_CASES = [
    # receding: farthest at the last packet
    (170.0, [0.0, 20.0, 60.0], (-6.0, 0.5), True),
    (160.0, [20.0, 40.0, 60.0], (-4.0, 0.5), False),
    # approaching only: farthest at the first packet
    (178.0, [-60.0, -40.0, -20.0], (-4.0, 4.0), True),
    (-178.0, [20.0, 60.0], (4.0,), True),
    (176.9, [-60.0, -20.0], (-0.5, 0.5), False),
    # both directions
    (165.0, [-60.0, 0.0, 60.0, 20.0], (-4.0, 0.5, 4.0), True),
    (160.0, [-60.0, 20.0, 10.0], (0.5, -4.0), False),
]


@pytest.mark.parametrize("block_cells", [experiments._BLOCK_CELLS, 1])
@pytest.mark.parametrize("d_x, dv, offsets, passes", HORIZON_CASES)
def test_sweep_horizon_flag_matches_every_packet_distance(d_x, dv, offsets, passes,
                                                          block_cells, monkeypatch):
    monkeypatch.setattr(experiments, "_BLOCK_CELLS", block_cells)
    base = scen_at(d_x=d_x, dv_kmh=0.0)
    cells = [ScenarioParams(**{**vars(base), "d_y": dy, "delta_v": kmh_to_mps(v)})
             for v in dv for dy in offsets]
    farthest = max(transmitter_distance(scen, scen.packet_times()).max() for scen in cells)
    assert bool(farthest > MODEL.validity_m) is passes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = speed_sweep("pl", {"q1": TWO_PI}, dv, base, model=MODEL, d_y_values=offsets)
    assert res.metadata.get("pl_validity_exceeded", False) is passes
    assert [str(w.message) for w in caught] == (
        [f"sweep reaches {farthest:.1f} m, past the pathloss validity horizon 177.0 m"]
        if passes else [])


@pytest.mark.parametrize("mode", ["omega", "phi"])
def test_sweep_without_path_gain_ignores_the_horizon(mode):
    # omega and phi never read the path gain: a model passed along neither
    # flags nor warns, even 23 m past the 177 m horizon, and changes no value
    base = scen_at(d_x=200.0, dv_kmh=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = speed_sweep(mode, {"q1": TWO_PI}, [-20.0, 20.0], base, model=MODEL,
                          patterns=PATTERNS)
    assert "pl_validity_exceeded" not in res.metadata
    assert caught == []
    bare = speed_sweep(mode, {"q1": TWO_PI}, [-20.0, 20.0], base, patterns=PATTERNS)
    assert res.metadata == bare.metadata
    for key, values in bare.series.items():
        np.testing.assert_array_equal(res.series[key], values, err_msg=key)


# ---------------------------------------------------------------------------
# exact path against a brute-force offset scan
# ---------------------------------------------------------------------------

def oracle_terms(mode, scen):
    """(gain, norm, weights, phases) rebuilt from the scenario fields with
    plain numpy; only the worst-case AOA, an input convention, comes from
    the package."""
    n = scen.n_packets
    tk = np.arange(n) * scen.t_interval
    u = scen.d_x + scen.delta_v * tk
    half = 0.5 * scen.delta_a
    omega = (TWO_PI / scen.wavelength) * (np.hypot(u, scen.d_y - half)
                                          - np.hypot(u, scen.d_y + half))
    shadow = math.exp((math.log(10.0) * MODEL.sigma_shadow_db) ** 2 / 200.0)

    def path_gain(d):
        ratio = MODEL.d_ref / np.maximum(d, MODEL.d_ref)
        return shadow * MODEL.ref_gain * ratio ** MODEL.exponent

    if mode == "omega":
        return float(n), float(n), np.ones(n), omega
    pl = path_gain(np.hypot(u, scen.d_y))
    if mode == "pl":
        norm = n * float(path_gain(math.hypot(scen.d_x, scen.d_y)))
        return float(np.sum(pl)), norm, pl, omega
    phi_min = antenna.worst_case_aoa(*PATTERNS)
    aoa = np.arctan2(scen.d_y, u)
    phi = np.mod(phi_min + (aoa - aoa[0]), TWO_PI)
    (m0, p0), (m1, p1) = (pattern.evaluate(phi) for pattern in PATTERNS)
    half_gain = 0.5 * (m0 ** 2 + m1 ** 2)
    if mode == "phi":
        g0, g1 = (pattern.evaluate(phi_min)[0] for pattern in PATTERNS)
        norm = n * 0.5 * (g0 ** 2 + g1 ** 2)
        return float(np.sum(half_gain)), norm, m0 * m1, p0 - p1
    return (float(np.sum(pl * half_gain)), 1.0 / DESIGN_SNR_SCALE,
            pl * m0 * m1, omega + (p0 - p1))


@pytest.mark.parametrize("mode", MODES)
def test_exact_path_matches_offset_scan(mode):
    for d_x, d_y, dv_kmh, k in ((30.0, -4.0, 40.0, 10), (10.0, 2.5, -60.0, 8),
                                (100.0, 0.5, 15.0, 12)):
        scen = scen_at(d_x=d_x, d_y=d_y, dv_kmh=dv_kmh, n_packets=k)
        gain, norm, w, theta = oracle_terms(mode, scen)
        tk = np.arange(k) * scen.t_interval
        slopes = slopes_for(k, scen.t_interval)
        # one stacked scan covers every slope; it overshoots the true minimum
        # by at most its curvature bound
        _, j_scans = worst_case_y_scan(w[:, None], theta[:, None] - np.outer(tk, slopes))
        bound = 2.0 * (TWO_PI / Y_SCAN_GRID) ** 2 * float(np.sum(w)) / gain
        for slope, j_scan in zip(slopes, j_scans):
            got = public_call(mode, slope, scen, True)
            gap = ((gain + j_scan) / norm - got) / (gain / norm)
            assert -1e-12 <= gap <= bound + 1e-12, (d_x, slope)


# ---------------------------------------------------------------------------
# affine path against direct resummation of the fits and the closed form
# ---------------------------------------------------------------------------

def affine_fits(mode, scen, fit):
    """(gain, norm, weight fits, phase fits): the affine path's weights are
    the product of the weight fits at the packet times, its phases the sum
    of the phase fits."""
    n = scen.n_packets
    tk = scen.packet_times()
    om = taylor_omega(scen)
    if mode == "omega":
        return float(n), float(n), [], [om]
    if mode != "phi":
        pg = (taylor_pathgain(MODEL, scen) if fit == "taylor" else
              least_squares_fit(tk, mean_path_gain(MODEL, transmitter_distance(scen, tk))))
    if mode == "pl":
        norm = n * mean_path_gain(MODEL, transmitter_distance(scen, 0.0))
        return float(np.sum(pg(tk))), norm, [pg], [om]
    # both patterns along the AOA trajectory, packet 0 at the worst-case AOA
    phi_min = antenna.worst_case_aoa(*PATTERNS)
    phi = np.mod(aoa_exact(scen, tk) + (phi_min - aoa_exact(scen, 0.0)), TWO_PI)
    (mag0, phase0), (mag1, phase1) = (p.evaluate(phi) for p in PATTERNS)
    half_gain = 0.5 * (mag0 ** 2 + mag1 ** 2)
    product = least_squares_fit(tk, mag0 * mag1)
    dphase = least_squares_fit(tk, np.unwrap(phase0 - phase1))
    if mode == "phi":
        norm = n * antenna.combined_mean_gain(*PATTERNS, phi_min)
        return float(np.sum(half_gain)), norm, [product], [dphase]
    return (float(np.sum(pg(tk) * half_gain)), 1.0 / DESIGN_SNR_SCALE,
            [pg, product], [om, dphase])


@pytest.mark.parametrize("mode, fit", [("omega", "taylor"), ("pl", "taylor"),
                                       ("pl", "least_squares"), ("phi", "taylor"),
                                       ("combined", "taylor")])
def test_affine_path_matches_resummation_and_closed_form(mode, fit):
    for d_x, d_y, dv_kmh, k in ((30.0, -4.0, 40.0, 10), (20.0, 3.0, -40.0, 7),
                                (100.0, 0.5, 55.0, 12)):
        scen = scen_at(d_x=d_x, d_y=d_y, dv_kmh=dv_kmh, n_packets=k)
        t = scen.t_interval
        gain, norm, weights, phases = affine_fits(mode, scen, fit)
        tk = scen.packet_times()
        w = math.prod(f(tk) for f in weights)
        theta = sum(f(tk) for f in phases)
        for slope in slopes_for(k, t):
            if mode == "pl":
                got = sum_snr_pl(slope, scen, MODEL, use_exact=False, fit=fit)
            else:
                got = public_call(mode, slope, scen, False)
            want = (gain + min_cross_term(w, theta - slope * tk)) / norm
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * gain / norm), (d_x, slope)
            if len(weights) > 1:
                continue  # two drifting weight factors leave the affine closed form
            c1, c2 = (affine_coefficients(weights[0].slope, weights[0].intercept, k, t)
                      if weights else (1.0, 0.0))
            x = 0.5 * (slope - phases[0].slope) * t
            want = (gain - c1 * k * loss(x, c1, c2, k)) / norm
            assert got == pytest.approx(want, abs=1e-12), (d_x, slope)


# ---------------------------------------------------------------------------
# per-sweep work
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["phi", "combined"])
def test_sweep_finds_worst_case_aoa_once(mode, monkeypatch):
    # a freshly loaded pair has no worst-case AOA yet; one sweep finds it
    # once, and a second sweep and 20 single calls on the pair reuse it
    calls = []
    original = antenna._find_worst_case_aoa

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(antenna, "_find_worst_case_aoa", counting)
    pair = (builtin_pattern("patch_front"), builtin_pattern("patch_rear"))
    unit = TWO_PI / (10 * 0.1)
    for _ in range(2):
        speed_sweep(mode, {"q1": unit, "q5": 5.0 * unit}, [-30.0, 0.0, 30.0],
                    scen_at(dv_kmh=0.0), model=MODEL, patterns=pair,
                    d_y_values=(-4.0, 4.0))
        assert len(calls) == 1
    for i in range(10):
        scen = scen_at(dv_kmh=-30.0 + 6.0 * i)
        sum_snr_phi(unit, scen, *pair, use_exact=i % 2 == 0)
        sum_snr_combined(unit, scen, MODEL, *pair, use_exact=i % 2 == 1)
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["phi", "combined"])
def test_sweep_samples_responses_once(mode, monkeypatch):
    # both paths share one sampling of the antenna responses per grid block
    calls = []
    original = antenna._sample_burst

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(antenna, "_sample_burst", counting)
    unit = TWO_PI / (10 * 0.1)
    speed_sweep(mode, {"q1": unit, "q5": 5.0 * unit}, [-30.0, 0.0, 30.0],
                scen_at(dv_kmh=0.0), model=MODEL, patterns=PATTERNS,
                paths=("exact", "affine"), d_y_values=(-4.0, 4.0))
    assert len(calls) == 1
    calls.clear()
    monkeypatch.setattr(experiments, "_BLOCK_CELLS", 1)  # one grid block per speed
    speed_sweep(mode, {"q1": unit}, [-30.0, 0.0, 30.0], scen_at(dv_kmh=0.0), model=MODEL,
                patterns=PATTERNS, paths=("exact", "affine"), d_y_values=(-4.0, 4.0))
    assert len(calls) == 3


def test_each_least_squares_call_builds_one_fitter(monkeypatch):
    # the affine path checks and centres the packet times once per call, for
    # all its least-squares fits; exact and Taylor-only calls fit nothing
    calls = []
    original = affine._fitter

    def counting(t):
        calls.append(t)
        return original(t)

    monkeypatch.setattr(affine, "_fitter", counting)
    scen = scen_at()
    unit = TWO_PI / (10 * 0.1)
    for mode in MODES:
        for exact in (True, False):
            calls.clear()
            public_call(mode, unit, scen, exact)
            assert len(calls) == (mode in ("phi", "combined") and not exact), (mode, exact)
    for exact in (True, False):
        calls.clear()
        sum_snr_pl(unit, scen, MODEL, use_exact=exact, fit="least_squares")
        assert len(calls) == (not exact), exact
    calls.clear()
    speed_sweep("combined", {"q1": unit, "q5": 5.0 * unit}, [-30.0, 0.0, 30.0],
                scen_at(dv_kmh=0.0), model=MODEL, patterns=PATTERNS,
                paths=("exact", "affine"), d_y_values=(-4.0, 4.0))
    assert len(calls) == 1


def test_sweep_memory_stays_flat_as_the_speed_grid_grows():
    # 16 packets x 15 slopes x 11 offsets: at 1,201 speeds one grid would
    # hold 25 MB per (packet, slope, speed, offset) array
    base = scen_at(d_x=100.0, dv_kmh=0.0, n_packets=16)
    slopes = {f"q{q}": q * TWO_PI / (16 * 0.1) for q in range(1, 16)}
    offsets = tuple(np.linspace(-5.0, 5.0, 11))
    peaks = []
    for n_speeds in (121, 1201):
        tracemalloc.start()
        try:
            speed_sweep("combined", slopes, np.linspace(-60.0, 60.0, n_speeds), base,
                        model=MODEL, patterns=PATTERNS, d_y_values=offsets)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


# ---------------------------------------------------------------------------
# request checks of the single calls
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("use_exact", [True, False], ids=["exact", "affine"])
def test_single_calls_check_fit_and_slope_on_both_paths(use_exact):
    # the exact path does not read fit, yet a bad one is still an error
    scen = scen_at()
    unit = TWO_PI / (scen.n_packets * scen.t_interval)
    with pytest.raises(ValueError, match="unknown fit method 'bogus'"):
        sum_snr_pl(unit, scen, MODEL, use_exact=use_exact, fit="bogus")
    # a non-finite slope is named, never a NaN result or a conversion error
    for slope in (math.nan, math.inf, -math.inf):
        for mode in MODES:
            with pytest.raises(ValueError, match="slope .* is not finite"):
                public_call(mode, slope, scen, use_exact)


def test_readme_lists_the_sum_snr_signatures():
    # "The four drift modes have one call each": each README line must name the
    # parameters, kinds and defaults that the call has
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for call in (sum_snr_omega, sum_snr_pl, sum_snr_phi, sum_snr_combined):
        (listed,) = re.findall(rf"^\* `{call.__name__}\((.*)\)`$", readme, re.MULTILINE)
        namespace = {}
        exec(f"def listed({listed}): pass", namespace)  # the README's text as a signature
        want = [(p.name, p.kind, p.default)
                for p in inspect.signature(call).parameters.values()]
        got = [(p.name, p.kind, p.default)
               for p in inspect.signature(namespace["listed"]).parameters.values()]
        assert got == want, call.__name__


@pytest.mark.parametrize("use_exact", [True, False], ids=["exact", "affine"])
@pytest.mark.parametrize("mode", MODES)
def test_single_calls_and_sweep_bases_reject_a_grid(mode, use_exact):
    # even a one-element array is a grid, not a number
    fields = {"d_x": np.array([30.0]), "d_y": np.array([-4.0, 4.0]),
              "delta_v": np.array([[0.0], [11.0]])}
    unit = TWO_PI / (10 * 0.1)
    for name, grid in fields.items():
        scen = ScenarioParams(**{**vars(scen_at()), name: grid})
        with pytest.raises(InvalidRequest, match="one scenario"):
            public_call(mode, unit, scen, use_exact)
        with pytest.raises(InvalidRequest, match="one scenario"):
            speed_sweep(mode, {"q1": unit}, [0.0, 20.0], scen, model=MODEL, patterns=PATTERNS,
                        paths=("exact" if use_exact else "affine",))
    # a zero-dimensional array is one scenario
    scen = ScenarioParams(**{**vars(scen_at()), "d_x": np.array(30.0)})
    assert public_call(mode, unit, scen, use_exact) == public_call(mode, unit, scen_at(),
                                                                   use_exact)


P0, P1 = PATTERNS
# each mode's calls with a model or pattern it reads left out, and the message
MISSING_INPUTS = [
    (sum_snr_pl, (None,), "needs a pathloss model"),
    (sum_snr_phi, (None, P1), "needs a pair of antenna patterns"),
    (sum_snr_phi, (P0, None), "needs a pair of antenna patterns"),
    (sum_snr_phi, (None, None), "needs a pair of antenna patterns"),
    (sum_snr_combined, (None, P0, P1), "needs a pathloss model"),
    (sum_snr_combined, (MODEL, None, P1), "needs a pair of antenna patterns"),
    (sum_snr_combined, (MODEL, P0, None), "needs a pair of antenna patterns"),
]


@pytest.mark.parametrize("use_exact", [True, False], ids=["exact", "affine"])
@pytest.mark.parametrize("call, inputs, message", MISSING_INPUTS,
                         ids=["pl-model", "phi-pattern0", "phi-pattern1", "phi-both",
                              "combined-model", "combined-pattern0", "combined-pattern1"])
def test_single_calls_reject_a_missing_model_or_pattern(call, inputs, message, use_exact,
                                                        monkeypatch):
    # the evaluator checks before it samples anything
    monkeypatch.setattr(antenna, "_sample_burst", None)
    scen = scen_at()
    with pytest.raises(InvalidRequest, match=message):
        call(TWO_PI / (scen.n_packets * scen.t_interval), scen, *inputs, use_exact=use_exact)


@pytest.mark.parametrize("mode, model, patterns, message", [
    ("pl", None, PATTERNS, "needs a pathloss model"),
    ("combined", None, PATTERNS, "needs a pathloss model"),
    *[(mode, MODEL, pair, "needs a pair of antenna patterns") for mode in ("phi", "combined")
      for pair in (None, (P0, None), (None, P1))],
], ids=["pl-model", "combined-model", "phi-no-pair", "phi-pattern1", "phi-pattern0",
        "combined-no-pair", "combined-pattern1", "combined-pattern0"])
def test_sweep_rejects_a_missing_model_or_pattern(mode, model, patterns, message, monkeypatch):
    unit = TWO_PI / (10 * 0.1)
    for block_cells in (experiments._BLOCK_CELLS, 1):
        monkeypatch.setattr(experiments, "_BLOCK_CELLS", block_cells)
        with pytest.raises(InvalidRequest, match=message):
            speed_sweep(mode, {"q1": unit}, [-20.0, 0.0, 20.0], scen_at(), model=model,
                        patterns=patterns, d_y_values=(-4.0, 4.0))
    # beside a fault in the driver's own arguments, the driver reports first
    faults = [(dict(paths=("bogus",)), "unknown evaluation path"),
              (dict(dv_kmh_values=[]), "empty speed grid"),
              (dict(dv_kmh_values=["a"]), "speed grid must hold numbers"),
              (dict(slopes={"q1": math.nan}), "slopes must be finite"),
              (dict(base=scen_at(d_y=np.array([-4.0, 4.0]))), "one scenario")]
    for fault, fault_message in faults:
        kwargs = {"slopes": {"q1": unit}, "dv_kmh_values": [0.0], "base": scen_at(), **fault}
        with pytest.raises(ValueError, match=fault_message):
            speed_sweep(mode, model=model, patterns=patterns, **kwargs)


@pytest.mark.parametrize("mode", MODES)
def test_sweep_rejects_a_path_named_twice(mode):
    # one series per slope and path: a repeated path is named, never merged
    for paths, named in ((("exact", "exact"), "exact"), (("affine", "exact", "affine"), "affine")):
        with pytest.raises(InvalidRequest, match=f"evaluation path '{named}' named twice"):
            speed_sweep(mode, {"q1": TWO_PI}, [0.0], scen_at(), model=MODEL,
                        patterns=PATTERNS, paths=paths)


def test_phi_mode_rejects_a_pair_with_zero_gain_at_the_worst_case_aoa(tmp_path):
    # an all-zero pair, and a common null written as a -inf dBi row
    null = tmp_path / "null.csv"
    null.write_text("azimuth_deg,gain_dbi,phase_deg\n0,0,0\n90,-inf,0\n180,0,0\n",
                    encoding="utf-8")
    zero = AntennaPattern(azimuth=np.array([0.0, math.pi]), magnitude=np.zeros(2),
                          phase=np.zeros(2))
    scen = scen_at()
    unit = TWO_PI / (scen.n_packets * scen.t_interval)
    zero_pair, null_pair = (zero, zero), (load_pattern_csv(null),) * 2
    for pair in (zero_pair, null_pair):
        for use_exact in (True, False):
            with pytest.raises(ZeroGain, match="zero gain at the worst-case AOA"):
                sum_snr_phi(unit, scen, *pair, use_exact=use_exact)
        with pytest.raises(ZeroGain):
            speed_sweep("phi", {"q1": unit}, [-20.0, 0.0], scen, patterns=pair)
    # combined mode normalises by a fixed scale and still evaluates both pairs
    assert sum_snr_combined(unit, scen, MODEL, *zero_pair) == 0.0
    assert 0.0 < sum_snr_combined(unit, scen, MODEL, *null_pair) < math.inf


# ---------------------------------------------------------------------------
# bits kept
# ---------------------------------------------------------------------------

# The single-call path is tuned for speed, never for different values: these
# are float.hex of the values before that work, in dB for the sweeps.  Each
# call is made at q = 1 and 2.61 comb units; each sweep at speeds -40, -10,
# 20 and 50 km/h over the offsets -4 and 1.5 m, on both paths.
PINNED_SCENARIOS = {
    "near": scen_at(),
    "behind": scen_at(d_x=-75.0, d_y=2.5, dv_kmh=-55.0, n_packets=12, t_interval=0.05),
    "far": scen_at(d_x=110.0, d_y=0.5, dv_kmh=20.0, n_packets=8, t_interval=0.2),
}
PINNED_CALLS = {
    ("near", "omega", "exact", "taylor"): "0x1.9080f649540fep-1 0x1.fa91ad38be7f2p-1",
    ("near", "omega", "affine", "taylor"): "0x1.9094f42d5f20ap-1 0x1.f92862bf0c3dap-1",
    ("near", "pl", "exact", "taylor"): "0x1.213bb8cb853e7p-1 0x1.65dfcef033608p-1",
    ("near", "pl", "affine", "taylor"): "0x1.1b722976949e1p-1 0x1.59e9cadb05e92p-1",
    ("near", "pl", "affine", "least_squares"): "0x1.242991c5164b9p-1 0x1.6480e54302393p-1",
    ("near", "phi", "exact", "taylor"): "0x1.e9287ddb936f8p-1 0x1.baf74fa5e44b9p-1",
    ("near", "phi", "affine", "taylor"): "0x1.e92a32a6e8ed7p-1 0x1.bb07f936928fdp-1",
    ("near", "combined", "exact", "taylor"): "0x1.1be45f86c7db3p+16 0x1.593f5d2809e1bp+16",
    ("near", "combined", "affine", "taylor"): "0x1.1691e4b52ca6cp+16 0x1.4db87d6eb1515p+16",
    ("behind", "omega", "exact", "taylor"): "0x1.ec696598fe618p-1 0x1.bd6aec11bfe0dp-1",
    ("behind", "omega", "affine", "taylor"): "0x1.ec73b3b0e31bfp-1 0x1.bd6e58fc5285fp-1",
    ("behind", "pl", "exact", "taylor"): "0x1.abb1b99aff227p-1 0x1.8abfe3c26007fp-1",
    ("behind", "pl", "affine", "taylor"): "0x1.a9b7e00b39b80p-1 0x1.8995ae2e43958p-1",
    ("behind", "pl", "affine", "least_squares"): "0x1.ab76f5a8990adp-1 0x1.8b34cafaae7a7p-1",
    ("behind", "phi", "exact", "taylor"): "0x1.fdc4d80887592p-1 0x1.c008daa8a2857p-1",
    ("behind", "phi", "affine", "taylor"): "0x1.fdc4ec50d4b29p-1 0x1.c0091391897d6p-1",
    ("behind", "combined", "exact", "taylor"): "0x1.f9f42024ef44bp+13 0x1.d452a69791608p+13",
    ("behind", "combined", "affine", "taylor"): "0x1.f79a1aab83c6ep+13 0x1.d2f2b4786e078p+13",
    ("far", "omega", "exact", "taylor"): "0x1.fe313adaeeae5p-1 0x1.b937d44346a28p-1",
    ("far", "omega", "affine", "taylor"): "0x1.fe31a57d1c58bp-1 0x1.b937fd6117438p-1",
    ("far", "pl", "exact", "taylor"): "0x1.cc2a2970923f3p-1 0x1.983fe88325336p-1",
    ("far", "pl", "affine", "taylor"): "0x1.cb4ab041759dfp-1 0x1.97b66fb92e908p-1",
    ("far", "pl", "affine", "least_squares"): "0x1.cc246bee4ecc6p-1 0x1.9878517c7f0ecp-1",
    ("far", "phi", "exact", "taylor"): "0x1.ffc9db13c8416p-1 0x1.b995f4b2718fcp-1",
    ("far", "phi", "affine", "taylor"): "0x1.ffc9db239beaap-1 0x1.b995f1b1ce892p-1",
    ("far", "combined", "exact", "taylor"): "0x1.31bd92a3318d6p+12 0x1.0f40c1f452ea7p+12",
    ("far", "combined", "affine", "taylor"): "0x1.31299243c5fcap+12 0x1.0ee55e2106b55p+12",
}
PINNED_SWEEPS = {
    ("omega", "q1_exact_db"):
        "-0x1.0bff08c6b214fp+3 -0x1.645c377cd4d24p-1 "
        "-0x1.8c46a17ea8fe5p-1 -0x1.1895beb2e83d2p+0",
    ("omega", "q1_affine_db"):
        "-0x1.03976f789d680p+3 -0x1.63d0272945ae2p-1 "
        "-0x1.8b32c9cf7be1ep-1 -0x1.1a62fef722a94p+0",
    ("omega", "q5_exact_db"):
        "-0x1.76d7c7ab0d7bcp-2 -0x1.6b1a3284c6010p-3 "
        "-0x1.1676d26338a45p-2 -0x1.ce570ec9998dep-2",
    ("omega", "q5_affine_db"):
        "-0x1.8e1cafdc55ea4p-2 -0x1.6a5b4b9b3efe7p-3 "
        "-0x1.14c56cd0806a0p-2 -0x1.c734590df9804p-2",
    ("omega", "reference_db"):
        "0x0.0p+0 0x0.0p+0 "
        "0x0.0p+0 0x0.0p+0",
    ("pl", "q1_exact_db"):
        "-0x1.c6de6439e7e06p+2 -0x1.33ba6b6cb1086p-2 "
        "-0x1.8b1bfecb0109fp+0 -0x1.7760d4102ca72p+1",
    ("pl", "q1_affine_db"):
        "-0x1.ae06424837593p+2 -0x1.40cd22de1aa03p-2 "
        "-0x1.90de248c84318p+0 -0x1.905a5852e8b8dp+1",
    ("pl", "q5_exact_db"):
        "0x1.9032bcd58c861p+0 0x1.ebbe6859ef282p-3 "
        "-0x1.0632c14f805d8p+0 -0x1.125bda105a50cp+1",
    ("pl", "q5_affine_db"):
        "0x1.5a01fab830dbdp+0 0x1.d615e2c234defp-3 "
        "-0x1.0e37eb9cd4068p+0 -0x1.24abec54a49dep+1",
    ("pl", "reference_db"):
        "0x1.01a2ffe544731p+1 0x1.b1fd449062793p-2 "
        "-0x1.7f38770aac833p-1 -0x1.a9eef6720897dp+0",
    ("phi", "q1_exact_db"):
        "-0x1.5fa160cdb42fbp-2 -0x1.1574e0900bb4ep-4 "
        "-0x1.c8399fcb11fe0p-4 -0x1.e04cc0a7bf531p-3",
    ("phi", "q1_affine_db"):
        "-0x1.5fc21b30641fdp-2 -0x1.159663c67b381p-4 "
        "-0x1.c7ee75b5efccep-4 -0x1.e00d5f30c1465p-3",
    ("phi", "q5_exact_db"):
        "-0x1.b84c9cfdf2ce3p-4 -0x1.54837ab08c48ep-6 "
        "-0x1.0ad6ec372cdb8p-5 -0x1.0b4402ba37fe4p-4",
    ("phi", "q5_affine_db"):
        "-0x1.afbe6a073f282p-4 -0x1.5438a6483e45ap-6 "
        "-0x1.0a1a6fcc4de4fp-5 -0x1.074d2720eaba0p-4",
    ("phi", "reference_db"):
        "0x1.8e6a0dcadb49fp-10 0x1.5f976d22798fbp-13 "
        "0x1.44c950006f7cbp-12 0x1.b9543db8cd60ep-11",
    ("combined", "q1_exact_db"):
        "0x1.7068700c7b875p+5 0x1.96bf017f844eep+5 "
        "0x1.8c996c0d0fdf4p+5 0x1.822201bef7278p+5",
    ("combined", "q1_affine_db"):
        "0x1.72734038d3fb8p+5 0x1.96a49b49daff6p+5 "
        "0x1.8c6afe16701d4p+5 0x1.80da360013c17p+5",
    ("combined", "q5_exact_db"):
        "0x1.a499a1c5e162fp+5 0x1.9a7a6947e954fp+5 "
        "0x1.906edc087c22ap+5 0x1.87768fd0f0216p+5",
    ("combined", "q5_affine_db"):
        "0x1.a2ffb2f9beb16p+5 0x1.9a6479f094425p+5 "
        "0x1.902d7d8fd5026p+5 0x1.864ef865765d7p+5",
    ("combined", "reference_db"):
        "0x1.a898145eeedbcp+5 0x1.9bca2055d60fcp+5 "
        "0x1.927e43de2ea29p+5 0x1.8b42f640f9046p+5",
}


def test_single_calls_keep_their_bits():
    for (name, mode, path, fit), want in PINNED_CALLS.items():
        scen = PINNED_SCENARIOS[name]
        unit = TWO_PI / (scen.n_packets * scen.t_interval)
        exact = path == "exact"
        got = [sum_snr_pl(q * unit, scen, MODEL, use_exact=exact, fit=fit) if mode == "pl"
               else public_call(mode, q * unit, scen, exact) for q in (1.0, 2.61)]
        assert " ".join(v.hex() for v in got) == want, (name, mode, path, fit)


@pytest.mark.parametrize("mode", MODES)
def test_sweeps_keep_their_bits(mode):
    res = speed_sweep(mode, {"q1": TWO_PI, "q5": 5.0 * TWO_PI}, [-40.0, -10.0, 20.0, 50.0],
                      scen_at(dv_kmh=0.0), model=MODEL, patterns=PATTERNS,
                      d_y_values=(-4.0, 1.5))
    pinned = {series: want for (m, series), want in PINNED_SWEEPS.items() if m == mode}
    assert list(res.series) == list(pinned)
    for series, want in pinned.items():
        assert " ".join(float(v).hex() for v in res.series[series]) == want, series
