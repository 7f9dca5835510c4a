"""Sweep drivers: CSV output contract and cross-path consistency."""

import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from phasecomb import (DegenerateGeometry, InvalidRequest, PathlossModel, ScenarioParams,
                       SweepResult, a_omega_range, builtin_pattern, carrier_wavelength,
                       kmh_to_mps, loss_curve, pl_slope_losses, speed_sweep,
                       taylor_omega, threshold_distance)
from phasecomb import experiments
from phasecomb.experiments import _span

LAM = carrier_wavelength(5.9e9)
BASE_SLOPE = 2.0 * math.pi / (10 * 0.1)


def base_scen(d_x=30.0, delta_a=10.0 * LAM):
    return ScenarioParams(d_x=d_x, d_y=-4.0, delta_v=0.0, delta_a=delta_a,
                          wavelength=LAM, n_packets=10, t_interval=0.1)


# ---------------------------------------------------------------------------
# loss_curve
# ---------------------------------------------------------------------------

def test_loss_curve_structure():
    res = loss_curve(5, x_step=1e-2)
    assert res.name == "loss_curve"
    assert res.independent == "x_rad"
    assert set(res.series) == {"loss", "lower_bound", "upper_bound"}
    assert res.values[0] == pytest.approx(1e-2)
    assert res.values[-1] < math.pi
    assert np.all(res.series["loss"] >= 0.0)
    assert np.all(res.series["loss"] <= 1.0 + 1e-12)
    assert res.metadata["n_packets"] == 5


def test_loss_curve_rejects_an_empty_x_grid():
    # a step of pi or more leaves no point in (0, pi)
    for step in (math.pi, 4.0):
        with pytest.raises(InvalidRequest, match="empty x grid"):
            loss_curve(5, x_step=step)
    assert loss_curve(5, x_step=3.0).values.tolist() == [3.0]


def test_loss_curve_names_a_bad_step():
    for step in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="x grid step"):
            loss_curve(5, x_step=step)


def test_loss_curve_constant_weights_sit_on_lower_bound():
    res = loss_curve(10, c1=1.0, c2=0.0, x_step=1e-2)
    np.testing.assert_allclose(res.series["loss"], res.series["lower_bound"],
                               rtol=0.0, atol=1e-15)


def test_loss_curve_bound_order():
    res = loss_curve(8, c1=1.0, c2=0.04, x_step=1e-2)
    assert np.all(res.series["loss"] <= res.series["upper_bound"] + 1e-12)
    assert np.all(res.series["lower_bound"] <= res.series["loss"] + 1e-12)


# ---------------------------------------------------------------------------
# CSV contract
# ---------------------------------------------------------------------------

def test_to_csv_layout_and_precision(tmp_path):
    res = loss_curve(5, x_step=0.5)
    out = tmp_path / "curve.csv"
    res.to_csv(out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# name: loss_curve"
    meta = [l for l in lines if l.startswith("# ")]
    assert "# n_packets: 5" in meta
    header_i = len(meta)
    assert lines[header_i] == "x_rad,loss,lower_bound,upper_bound"
    rows = lines[header_i + 1:]
    assert len(rows) == len(res.values)
    # repr round-trips every float exactly
    first = [float(f) for f in rows[0].split(",")]
    assert first[0] == res.values[0]
    assert first[1] == res.series["loss"][0]


def cell_by_cell_rows(res):
    # the data rows as written one cell at a time: repr of each value as a float
    columns = [res.values, *res.series.values()]
    return [",".join(repr(float(col[i])) for col in columns) for i in range(len(res.values))]


def special_table(rows):
    # values whose repr is easy to get wrong, cycled at a different phase in each
    # column; 1,024 rows fill one formatting chunk exactly and 1,025 spill one row
    special = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2])
    values, a, b = (np.resize(np.roll(special, shift), rows) for shift in (0, 3, 5))
    return SweepResult(name="special", independent="x", values=values,
                       series={"a": a, "b": b})


@pytest.mark.parametrize("make", [
    lambda: loss_curve(10),
    lambda: pl_slope_losses(10),
    lambda: a_omega_range([10.0, 30.0, 100.0], delta_a=10.0 * LAM, wavelength=LAM,
                          dv_step_kmh=5.0),
    lambda: speed_sweep("omega", {"q1": BASE_SLOPE, "q2": 2.0 * BASE_SLOPE},
                        np.arange(-60.0, 61.0, 5.0), base_scen(), paths=("affine", "exact")),
    lambda: SweepResult(name="ints", independent="q", values=np.arange(1, 4),
                        series={"count": [2, 3, 4]}),
    *(lambda n=n: special_table(n) for n in (0, 1024, 1025)),
], ids=["loss_curve", "pl_slope_losses", "a_omega_range", "speed_sweep", "ints",
        "special_0", "special_1024", "special_1025"])
def test_to_csv_rows_match_cell_by_cell_formatting(tmp_path, make):
    res = make()
    out = tmp_path / "out.csv"
    res.to_csv(out)
    lines = out.read_text(encoding="utf-8").splitlines()
    rows = lines[len(lines) - len(res.values):]
    assert rows == cell_by_cell_rows(res)
    if res.name in ("pl_slope_losses", "ints"):  # integers still print as floats
        assert rows[0].startswith("1.0,")


@pytest.mark.parametrize("series", [np.arange(2.0), np.arange(4.0), np.ones((3, 2)), 1.0],
                         ids=["2", "4", "2d", "0d"])
def test_to_csv_rejects_a_series_of_another_length(tmp_path, series):
    # a 2-D series of the right length would write list cells, a 0-d one no rows
    res = SweepResult(name="bad", independent="x", values=np.arange(3.0),
                      series={"y": series})
    with pytest.raises(ValueError):
        res.to_csv(tmp_path / "out.csv")
    assert list(tmp_path.iterdir()) == []


def test_to_csv_memory_is_flat_in_the_table_length(tmp_path):
    # the writer holds one chunk of formatted rows, not the whole table
    # (a writer that builds the whole table first peaks near 29 MB here)
    x = np.linspace(0.0, 1.0, 100_000)
    res = SweepResult(name="long", independent="x", values=x,
                      series={"a": x / 3.0, "b": x * math.pi, "c": -x})
    tracemalloc.start()
    try:
        res.to_csv(tmp_path / "out.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert len((tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()) == 100_002


def test_to_csv_is_deterministic(tmp_path):
    res = loss_curve(7, x_step=0.1)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    res.to_csv(a)
    res.to_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_to_csv_leaves_no_temp_files(tmp_path):
    res = loss_curve(5, x_step=0.5)
    res.to_csv(tmp_path / "out.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_to_csv_creates_missing_directories(tmp_path):
    res = loss_curve(5, x_step=0.5)
    target = tmp_path / "nested" / "deeper" / "out.csv"
    res.to_csv(target)
    assert target.is_file()


def test_to_csv_cleans_up_when_rename_fails(tmp_path, monkeypatch):
    res = loss_curve(5, x_step=0.5)

    def boom(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        res.to_csv(tmp_path / "out.csv")
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# a_omega_range and thresholds
# ---------------------------------------------------------------------------

def test_a_omega_range_structure():
    res = a_omega_range([20.0, 40.0], delta_a=10.0 * LAM, wavelength=LAM,
                        dv_step_kmh=10.0)
    assert res.independent == "d_x_m"
    assert set(res.series) == {"half_slope_min_rad", "half_slope_max_rad",
                               "half_slope_absmax_rad"}
    assert np.all(res.series["half_slope_min_rad"] <= res.series["half_slope_max_rad"])
    # drift range shrinks with distance
    absmax = res.series["half_slope_absmax_rad"]
    assert absmax[1] < absmax[0]


def test_a_omega_range_narrow_spacing_shrinks_drift():
    wide = a_omega_range([30.0], delta_a=10.0 * LAM, wavelength=LAM,
                         dv_step_kmh=5.0)
    narrow = a_omega_range([30.0], delta_a=0.5 * LAM, wavelength=LAM,
                           dv_step_kmh=5.0)
    ratio = (wide.series["half_slope_absmax_rad"][0]
             / narrow.series["half_slope_absmax_rad"][0])
    assert ratio > 10.0


def per_point_range(d_x_values, d_y_values, delta_a, n_packets, t_interval,
                    dv_max_kmh, dv_step_kmh):
    # oracle: one scenario and one mid-burst Taylor slope per grid point
    speeds = kmh_to_mps(np.arange(-dv_max_kmh, dv_max_kmh + 0.5 * dv_step_kmh,
                                  dv_step_kmh))
    lo, hi = [], []
    for d_x in d_x_values:
        half = [0.5 * t_interval * taylor_omega(ScenarioParams(
                    d_x=float(d_x), d_y=float(d_y), delta_v=float(dv), delta_a=delta_a,
                    wavelength=LAM, n_packets=n_packets, t_interval=t_interval)).slope
                for d_y in d_y_values for dv in speeds]
        lo.append(min(half))
        hi.append(max(half))
    return np.array(lo), np.array(hi)


@pytest.mark.parametrize("d_x_values, d_y_values, delta_a, n_packets, t_interval, dv_step, block", [
    (np.arange(1.0, 101.0, 1.0), (-4.0, 4.0), 10.0 * LAM, 10, 0.1, 1.0, None),
    (np.arange(0.0, 101.0, 5.0), (-6.0, 0.3, 2.5), 10.0 * LAM, 8, 0.05, 2.0, None),
    ([-30.0, 2.5, 17.0, 250.0], (-1.0, 1.5), 0.5 * LAM, 3, 0.2, 7.5, None),
    # blocks of 3, 3 and 1 distances
    (np.arange(0.0, 101.0, 15.0), (-6.0, 0.3, 2.5), 10.0 * LAM, 8, 0.05, 2.0, 3 * 3 * 61),
], ids=["default", "three-offsets-K8-T0.05", "narrow-spacing", "distance-blocks"])
def test_a_omega_range_matches_per_point_oracle(d_x_values, d_y_values, delta_a, n_packets,
                                                t_interval, dv_step, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(experiments, "_BLOCK_CELLS", block)
    res = a_omega_range(d_x_values, delta_a=delta_a, wavelength=LAM, n_packets=n_packets,
                        t_interval=t_interval, dv_step_kmh=dv_step, d_y_values=d_y_values)
    lo, hi = per_point_range(d_x_values, d_y_values, delta_a, n_packets, t_interval,
                             60.0, dv_step)
    assert np.array_equal(res.series["half_slope_min_rad"], lo)
    assert np.array_equal(res.series["half_slope_max_rad"], hi)


def test_a_omega_range_memory_stays_flat_as_the_distance_grid_grows():
    # 121 speeds x 2 offsets: at 10,000 distances one grid would hold 19 MB
    # per (distance, offset, speed) array
    peaks = []
    for n_distances in (1_000, 10_000):
        tracemalloc.start()
        try:
            a_omega_range(np.linspace(10.0, 120.0, n_distances), delta_a=10.0 * LAM,
                          wavelength=LAM)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_a_omega_range_rejects_bad_input():
    kw = dict(delta_a=10.0 * LAM, wavelength=LAM, dv_step_kmh=10.0)
    # d_x = 0, d_y = delta_a / 2: at zero speed the transmitter sits on antenna 1
    with pytest.raises(DegenerateGeometry):
        a_omega_range([0.0], **{**kw, "d_y_values": (0.5 * kw["delta_a"],)})
    for bad in (dict(d_x_values=[10.0, math.nan]),
                dict(d_x_values=[10.0], d_y_values=(-4.0, math.inf)),
                dict(d_x_values=[10.0], delta_a=-1.0),
                dict(d_x_values=[10.0], n_packets=1),
                dict(d_x_values=[]),
                dict(d_x_values=[10.0], dv_max_kmh=-5.0),
                dict(d_x_values=[10.0], d_y_values=())):
        with pytest.raises(ValueError):
            a_omega_range(**{**kw, **bad})
    # a negative top speed empties the speed grid, however small
    for bad in (dict(d_x_values=[]), dict(d_x_values=[10.0], d_y_values=()),
                dict(d_x_values=[10.0], dv_max_kmh=-5.0),
                dict(d_x_values=[10.0], dv_max_kmh=-0.1)):
        with pytest.raises(InvalidRequest, match="empty"):
            a_omega_range(**{**kw, **bad})
    for step in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="speed grid bounds must be finite"):
            a_omega_range([10.0], **{**kw, "dv_step_kmh": step})
    for d_x in ([[10.0, 20.0], [30.0, 40.0]], 10.0):
        with pytest.raises(ValueError, match="distance grid must be one-dimensional"):
            a_omega_range(d_x, **kw)


def test_a_omega_range_builds_its_whole_grid_before_it_evaluates_one():
    # antennas 1 m apart, offset -0.5 m: at -72 km/h the transmitter starting
    # 9 m out sits on antenna 0 at mid-burst.  Alone that distance raises
    # DegenerateGeometry, but a NaN distance anywhere in the grid fails its
    # construction first, with ValueError
    kw = dict(delta_a=1.0, wavelength=LAM, d_y_values=(-0.5,), dv_max_kmh=72.0,
              dv_step_kmh=72.0)
    with pytest.raises(DegenerateGeometry):
        a_omega_range([9.0], **kw)
    for d_x in ([9.0, math.nan], [math.nan, 9.0]):
        with pytest.raises(ValueError, match="scenario parameters must be finite") as exc:
            a_omega_range(d_x, **kw)
        assert exc.type is ValueError


def test_span_is_aranges_grid_closed_at_its_maximum():
    # the values are np.arange's, bit for bit, wherever the step divides the range
    for lo, hi, step in ((-60.0, 60.0, 1.0), (1.0, 100.0, 1.0), (0.0, 0.3, 0.1),
                         (-60.0, 60.0, 7.5), (0.0, 100.0, 5.0), (2.5, 2.5, 1.0)):
        want = np.arange(lo, hi + 0.5 * step, step)
        assert np.array_equal(_span(lo, hi, step, "test"), want), (lo, hi, step)
    # a step that does not divide it stops at or below the maximum
    assert _span(-60.0, 60.0, 11.0, "speed")[-1] == 50.0
    assert _span(1.0, 10.0, 3.5, "distance").tolist() == [1.0, 4.5, 8.0]
    with pytest.raises(InvalidRequest, match="empty distance grid: 50 exceeds 10"):
        _span(50.0, 10.0, 1.0, "distance")
    for lo, hi, step in ((0.0, 1.0, 0.0), (0.0, 1.0, -1.0), (0.0, 1.0, math.nan),
                         (math.nan, 1.0, 1.0), (0.0, math.inf, 1.0)):
        with pytest.raises(ValueError, match="grid bounds must be finite"):
            _span(lo, hi, step, "test")


def synthetic_range_sweep(values, absmax):
    return SweepResult(name="a_omega_range", independent="d_x_m",
                       values=np.asarray(values, dtype=float),
                       series={"half_slope_absmax_rad": np.asarray(absmax)})


def test_threshold_distance_cases():
    sweep = synthetic_range_sweep([10, 20, 30, 40], [5.0, 3.0, 1.0, 0.5])
    assert threshold_distance(sweep, 2.0) == 30.0
    assert threshold_distance(sweep, 10.0) == 10.0    # never exceeded
    assert threshold_distance(sweep, 0.1) == math.inf  # exceeded at the end
    assert threshold_distance(sweep, 0.7) == 40.0
    with pytest.raises(InvalidRequest, match="empty distance grid"):
        threshold_distance(synthetic_range_sweep([], []), 2.0)


def test_threshold_distance_rejects_a_nan_bound():
    sweep = synthetic_range_sweep([10, 20, 30, 40], [5.0, 3.0, 1.0, 0.5])
    with pytest.raises(ValueError, match="NaN"):
        threshold_distance(sweep, math.nan)
    # an infinite bound has a well-defined answer: never or always exceeded
    assert threshold_distance(sweep, math.inf) == 10.0
    assert threshold_distance(sweep, -math.inf) == math.inf


# ---------------------------------------------------------------------------
# speed_sweep
# ---------------------------------------------------------------------------

def test_speed_sweep_rejects_bad_requests():
    with pytest.raises(ValueError):
        speed_sweep("bogus", {"q1": BASE_SLOPE}, [0.0], base_scen())
    with pytest.raises(InvalidRequest, match="needs a pathloss model"):
        speed_sweep("pl", {"q1": BASE_SLOPE}, [0.0], base_scen())
    with pytest.raises(InvalidRequest, match="needs a pair of antenna patterns"):
        speed_sweep("phi", {"q1": BASE_SLOPE}, [0.0], base_scen())
    with pytest.raises(InvalidRequest, match="unknown evaluation path 'bogus'"):
        speed_sweep("omega", {"q1": BASE_SLOPE}, [0.0], base_scen(), paths=("bogus",))
    with pytest.raises(InvalidRequest, match="unknown evaluation path 'bogus'"):
        speed_sweep("omega", {"q1": BASE_SLOPE}, [0.0], base_scen(),
                    paths=("exact", "bogus", "junk"))
    with pytest.raises(InvalidRequest, match="empty speed grid"):
        speed_sweep("omega", {"q1": BASE_SLOPE}, [], base_scen())
    with pytest.raises(ValueError, match="one-dimensional"):
        speed_sweep("omega", {"q1": BASE_SLOPE}, [[0.0, 10.0], [20.0, 30.0]], base_scen())
    with pytest.raises(InvalidRequest, match="empty offset grid"):
        speed_sweep("omega", {"q1": BASE_SLOPE}, [0.0], base_scen(), d_y_values=())
    for offsets in ([[1.0, 2.0]], 4.0):
        with pytest.raises(ValueError, match="offset grid must be one-dimensional"):
            speed_sweep("omega", {"q1": BASE_SLOPE}, [0.0], base_scen(), d_y_values=offsets)
    with pytest.raises(ValueError, match="offset grid must hold numbers"):
        speed_sweep("omega", {"q1": BASE_SLOPE}, [0.0], base_scen(), d_y_values=["a"])
    with pytest.raises(InvalidRequest, match="no evaluation paths"):
        speed_sweep("omega", {"q1": BASE_SLOPE}, [0.0], base_scen(), paths=())
    with pytest.raises(InvalidRequest, match="no slopes"):
        speed_sweep("omega", {}, [0.0], base_scen())
    patterns = (builtin_pattern("patch_front"), builtin_pattern("patch_rear"))
    with pytest.raises(InvalidRequest, match="no evaluation paths"):
        speed_sweep("combined", {"q1": BASE_SLOPE}, [0.0], base_scen(),
                    model=PathlossModel(), patterns=patterns, paths=())
    # a non-finite slope is an error, never an all-NaN series or a warning
    for bad in (math.nan, math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="slopes must be finite"):
                speed_sweep("omega", {"q1": BASE_SLOPE, "bad": bad}, [0.0], base_scen())
    # so is a slope that is no real scalar, named by its label
    for bad in (np.array([BASE_SLOPE]), None, [BASE_SLOPE], "fast", 1j, str(BASE_SLOPE),
                str(BASE_SLOPE).encode(), True, np.bool_(True)):
        with pytest.raises(ValueError, match="slope 'bad' is not a real number") as exc:
            speed_sweep("omega", {"q1": BASE_SLOPE, "bad": bad}, [0.0], base_scen())
        assert type(exc.value) is ValueError


def test_offsets_reach_the_csv_metadata_as_plain_floats(tmp_path):
    offsets = np.array([-4.0, 4.0])
    for res in (speed_sweep("omega", {"q1": BASE_SLOPE}, [0.0], base_scen(),
                            d_y_values=offsets),
                a_omega_range([30.0], delta_a=10.0 * LAM, wavelength=LAM,
                              dv_step_kmh=30.0, d_y_values=offsets)):
        out = tmp_path / f"{res.name}.csv"
        res.to_csv(out)
        assert "# d_y_values_m: [-4.0, 4.0]\n" in out.read_text(encoding="utf-8")


def test_speed_sweep_static_channel_is_lossless():
    # with no relative motion every zero-loss slope stays at 0 dB
    slopes = {f"q{q}": q * BASE_SLOPE for q in range(1, 10)}
    res = speed_sweep("omega", slopes, [0.0], base_scen())
    for label in slopes:
        for path in ("exact", "affine"):
            assert res.series[f"{label}_{path}_db"][0] == pytest.approx(0.0, abs=1e-6)
    assert res.series["reference_db"][0] == pytest.approx(0.0, abs=1e-12)


def test_speed_sweep_exact_and_affine_agree_far_out():
    dv = np.arange(-60.0, 61.0, 1.0)
    slopes = {"q1": BASE_SLOPE, "q5": 5.0 * BASE_SLOPE}
    res = speed_sweep("omega", slopes, dv, base_scen(d_x=100.0),
                      d_y_values=(-4.0, 4.0))
    for label in slopes:
        gap = np.abs(res.series[f"{label}_exact_db"]
                     - res.series[f"{label}_affine_db"])
        assert float(np.max(gap)) < 0.1


def test_speed_sweep_narrow_spacing_never_does_worse():
    # the drift-prone slope loses less at lambda/2 separation than at 10
    # lambda, at every speed
    dv = np.arange(-60.0, 61.0, 1.0)
    slopes = {"q1": BASE_SLOPE}
    curves = {}
    for spacing in (0.5 * LAM, 10.0 * LAM):
        curves[spacing] = speed_sweep("omega", slopes, dv, base_scen(delta_a=spacing),
                                      d_y_values=(-4.0, 4.0))
    for path in ("exact", "affine"):
        narrow = curves[0.5 * LAM].series[f"q1_{path}_db"]
        wide = curves[10.0 * LAM].series[f"q1_{path}_db"]
        assert np.all(narrow >= wide - 1e-9)


def test_speed_sweep_exact_dip_is_shallower_than_affine_up_close():
    # the linearized model overstates the worst case at short range
    dv = np.arange(-60.0, 61.0, 1.0)
    res = speed_sweep("omega", {"q1": BASE_SLOPE}, dv, base_scen(d_x=10.0),
                      d_y_values=(-4.0, 4.0))
    aff = res.series["q1_affine_db"]
    exa = res.series["q1_exact_db"]
    i = int(np.argmin(aff))
    assert exa[i] > aff[i] + 3.0


def test_speed_sweep_combined_dip_depths():
    slopes = {"q1": BASE_SLOPE, "q5": 5.0 * BASE_SLOPE}
    model = PathlossModel()
    pats = (builtin_pattern("patch_front"), builtin_pattern("patch_rear"))
    dv = np.arange(-60.0, 61.0, 1.0)
    dips = {}
    for d_x in (30.0, 10.0):
        res = speed_sweep("combined", slopes, dv, base_scen(d_x=d_x),
                          model=model, patterns=pats, paths=("exact",),
                          d_y_values=(-4.0, 4.0))
        ref = res.series["reference_db"]
        dips[d_x] = {lab: float(np.max(ref - res.series[f"{lab}_exact_db"]))
                     for lab in slopes}
        assert res.metadata["affine_path"].startswith("composed")
    assert dips[30.0]["q1"] == pytest.approx(13.0, abs=2.0)
    assert dips[10.0]["q1"] > dips[30.0]["q1"]     # closer means deeper
    assert dips[30.0]["q1"] - dips[30.0]["q5"] >= 5.0
    assert dips[10.0]["q1"] - dips[10.0]["q5"] >= 5.0


def test_speed_sweep_flags_pathloss_validity():
    model = PathlossModel()
    slopes = {"q5": 5.0 * BASE_SLOPE}
    with pytest.warns(UserWarning, match="validity"):
        res = speed_sweep("pl", slopes, [0.0, 60.0], base_scen(d_x=200.0),
                          model=model)
    assert res.metadata["pl_validity_exceeded"] is True
    inside = speed_sweep("pl", slopes, [0.0], base_scen(d_x=30.0), model=model)
    assert "pl_validity_exceeded" not in inside.metadata


# ---------------------------------------------------------------------------
# pl_slope_losses
# ---------------------------------------------------------------------------

def test_pl_slope_losses_universal_floor_values():
    res = pl_slope_losses(10)
    np.testing.assert_allclose(res.values, np.arange(1, 10, dtype=float), atol=0.0)
    uni = res.series["floor_universal_db"]
    want_q1 = 10.0 * math.log10(1.0 - 1.0 / (9.0 * math.sin(math.pi / 10.0)))
    assert uni[0] == pytest.approx(want_q1, abs=1e-12)
    assert uni[0] == pytest.approx(-1.9352, abs=1e-4)
    assert uni[4] == pytest.approx(-0.5115, abs=1e-4)


def test_pl_slope_losses_symmetric_in_q():
    res = pl_slope_losses(10)
    for key in ("floor_universal_db", "floor_scenario_db"):
        series = res.series[key]
        np.testing.assert_allclose(series, series[::-1], atol=1e-10)


def test_pl_slope_losses_scenario_floor_above_universal():
    # the actual drift of the default geometry is milder than the bound
    res = pl_slope_losses(10)
    assert np.all(res.series["floor_scenario_db"]
                  >= res.series["floor_universal_db"] - 1e-12)
    assert math.isfinite(res.metadata["c2_over_c1"])


def test_pl_slope_losses_two_packets_floor_without_warning():
    # K = 2: the universal floor 1 - 1/sin(pi/2) is exactly 0, i.e. -inf dB
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = pl_slope_losses(2)
    assert res.series["floor_universal_db"].tolist() == [-math.inf]
    assert math.isfinite(res.series["floor_scenario_db"][0])


def test_pl_slope_losses_floors_are_plain_db():
    for n in range(3, 13):
        res = pl_slope_losses(n)
        x = np.arange(1, n) * math.pi / n
        want = 10.0 * np.log10(1.0 - 1.0 / ((n - 1) * np.sin(x)))
        assert res.series["floor_universal_db"].tolist() == want.tolist()
        assert np.all(np.isfinite(res.series["floor_scenario_db"]))
