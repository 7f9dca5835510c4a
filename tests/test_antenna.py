"""Antenna patterns: interpolation, worst-case AOA, builtins, CSV loading."""

import copy
import gc
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phasecomb import (AntennaPattern, EmptyPattern, MalformedRow,
                       NonMonotonicAzimuth, ScenarioParams, aoa_exact,
                       builtin_pattern, combined_mean_gain, load_pattern_csv,
                       sum_snr_phi, worst_case_aoa)
from phasecomb import antenna, snr
from phasecomb.antenna import BUILTIN_PATTERNS

TWO_PI = 2.0 * math.pi


def patch_pair():
    return builtin_pattern("patch_front"), builtin_pattern("patch_rear")


def lobe_pattern(boresight_deg, front_dbi, back_dbi, n_points):
    # power gain in dBi swinging cosinusoidally from front_dbi at boresight
    # to back_dbi opposite it, zero phase
    az = np.arange(n_points) * (TWO_PI / n_points)
    gain_dbi = (0.5 * (front_dbi + back_dbi)
                + 0.5 * (front_dbi - back_dbi) * np.cos(az - math.radians(boresight_deg)))
    return AntennaPattern(azimuth=az, magnitude=10.0 ** (gain_dbi / 20.0),
                          phase=np.zeros(n_points))


def two_point_pattern():
    return AntennaPattern(azimuth=np.array([0.0, math.pi]),
                          magnitude=np.array([1.0, 3.0]),
                          phase=np.array([0.0, math.pi / 2.0]))


# ---------------------------------------------------------------------------
# construction and interpolation
# ---------------------------------------------------------------------------

def test_interpolation_between_grid_nodes():
    pat = two_point_pattern()
    m, p = pat.evaluate(math.pi / 2.0)
    assert m == pytest.approx(2.0, abs=1e-12)
    assert p == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_grid_nodes_reproduce_samples():
    pat = two_point_pattern()
    for phi, m_want, p_want in ((0.0, 1.0, 0.0), (math.pi, 3.0, math.pi / 2.0)):
        m, p = pat.evaluate(phi)
        assert m == pytest.approx(m_want, abs=1e-12)
        assert p == pytest.approx(p_want, abs=1e-12)


def test_evaluation_is_periodic():
    pat = two_point_pattern()
    for phi in (0.3, 2.0, 5.5):
        a = pat.evaluate(phi)
        b = pat.evaluate(phi + TWO_PI)
        c = pat.evaluate(phi - TWO_PI)
        assert a == pytest.approx(b, abs=1e-9)
        assert a == pytest.approx(c, abs=1e-9)


def test_evaluate_is_polymorphic():
    pat = two_point_pattern()
    phi = np.array([0.0, math.pi / 2.0, math.pi])
    m, p = pat.evaluate(phi)
    assert m.shape == (3,)
    np.testing.assert_allclose(m, [1.0, 2.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(p, [0.0, math.pi / 4.0, math.pi / 2.0], atol=1e-12)


def test_wraparound_segment_keeps_phase_winding():
    # one full winding across the grid: the seam segment must continue it
    az = np.arange(8) * (TWO_PI / 8.0)
    pat = AntennaPattern(azimuth=az, magnitude=np.ones(8), phase=az.copy())
    seam = az[-1] + 0.5 * (TWO_PI / 8.0)
    _, p = pat.evaluate(seam)
    assert p == pytest.approx(seam, abs=1e-12)


def test_constructor_validation():
    with pytest.raises(EmptyPattern):
        AntennaPattern(azimuth=np.array([]), magnitude=np.array([]),
                       phase=np.array([]))
    with pytest.raises(ValueError):
        AntennaPattern(azimuth=np.array([0.0, 1.0]), magnitude=np.array([1.0]),
                       phase=np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        AntennaPattern(azimuth=np.array([0.0, TWO_PI]),
                       magnitude=np.ones(2), phase=np.zeros(2))
    with pytest.raises(NonMonotonicAzimuth):
        AntennaPattern(azimuth=np.array([0.0, 2.0, 1.0]),
                       magnitude=np.ones(3), phase=np.zeros(3))
    with pytest.raises(ValueError):
        AntennaPattern(azimuth=np.array([0.0, 1.0]),
                       magnitude=np.array([1.0, -0.5]), phase=np.zeros(2))
    with pytest.raises(ValueError):
        AntennaPattern(azimuth=np.array([0.0, 1.0]),
                       magnitude=np.array([1.0, math.nan]), phase=np.zeros(2))


# ---------------------------------------------------------------------------
# combined gain and worst-case AOA
# ---------------------------------------------------------------------------

def test_combined_mean_gain_hand_value():
    p0 = two_point_pattern()
    p1 = builtin_pattern("isotropic")
    # at pi/2: |g0| = 2, |g1| = 1 -> (4 + 1) / 2
    assert combined_mean_gain(p0, p1, math.pi / 2.0) == pytest.approx(2.5, abs=1e-12)


def test_worst_case_aoa_against_dense_scan():
    p0, p1 = patch_pair()
    got = worst_case_aoa(p0, p1)
    grid = np.linspace(0.0, TWO_PI, 720_001)
    vals = combined_mean_gain(p0, p1, grid)
    i = int(np.argmin(vals))
    assert combined_mean_gain(p0, p1, got) <= vals[i] + 1e-12
    # the minimizer itself sits within a scan step of the dense argmin,
    # modulo the symmetry of the pattern pair (ties broken toward 0)
    diff = min(abs(got - grid[i]), TWO_PI - abs(got - grid[i]),
               abs((TWO_PI - got) - grid[i]))
    assert diff < 2.0 * (TWO_PI / 720_000) + 1e-6


lobe = st.fixed_dictionaries({
    "boresight_deg": st.floats(min_value=0.0, max_value=359.0),
    "front_dbi": st.floats(min_value=-5.0, max_value=10.0),
    "back_dbi": st.floats(min_value=-40.0, max_value=-5.0),
    "n_points": st.integers(min_value=3, max_value=400),
})


@given(lobe0=lobe, lobe1=lobe)
@settings(max_examples=40, deadline=None)
def test_worst_case_aoa_exact_on_unaligned_grids(lobe0, lobe1):
    # different node counts put the two grids' breakpoints apart, so the
    # merged segments differ from either pattern's own
    assume(lobe0["n_points"] != lobe1["n_points"])
    p0, p1 = lobe_pattern(**lobe0), lobe_pattern(**lobe1)
    got = worst_case_aoa(p0, p1)
    assert 0.0 <= got < TWO_PI
    grid = np.linspace(0.0, TWO_PI, 720_001)
    dense = float(np.min(combined_mean_gain(p0, p1, grid)))
    assert combined_mean_gain(p0, p1, got) <= dense + 1e-12


def test_worst_case_aoa_patch_pair_finds_broadside_null():
    # back-to-back identical lobes put the minima at 90 and 270 deg
    p0, p1 = patch_pair()
    got = worst_case_aoa(p0, p1)
    dist = min(abs(got - math.pi / 2.0), abs(got - 3.0 * math.pi / 2.0))
    assert dist < 1e-3


def test_worst_case_aoa_tie_breaks_to_smallest_angle():
    # two flat plateaus share the exact minimum value; the earlier one wins
    az = np.array([0.0, 1.4, 1.6, 3.0, 4.4, 4.6])
    mag = np.array([2.0, 1.0, 1.0, 2.0, 1.0, 1.0])
    pat = AntennaPattern(azimuth=az, magnitude=mag, phase=np.zeros(6))
    got = worst_case_aoa(pat, builtin_pattern("isotropic"))
    assert 1.3 < got < 1.7


def test_worst_case_aoa_isotropic_returns_zero():
    p = builtin_pattern("isotropic")
    assert worst_case_aoa(p, p) == 0.0


# ---------------------------------------------------------------------------
# pair invariants kept with the patterns
# ---------------------------------------------------------------------------

def test_cached_worst_case_aoa_matches_the_search_bit_for_bit():
    first = [builtin_pattern(name) for name in BUILTIN_PATTERNS]
    second = [builtin_pattern(name) for name in BUILTIN_PATTERNS]
    pairs = [(a, b) for a in first for b in second] + [(p, p) for p in first]
    for p0, p1 in pairs:
        want = antenna._find_worst_case_aoa(p0, p1)
        for _ in range(3):  # the first call searches, the others reuse
            assert worst_case_aoa(p0, p1).hex() == want.hex()
        phi, gain = antenna._pair_invariants(p0, p1)
        assert phi.hex() == want.hex()
        assert gain.hex() == combined_mean_gain(p0, p1, want).hex()


def test_pair_invariants_live_no_longer_than_the_patterns():
    p0, p1 = patch_pair()
    for pair in ((p0, p1), (p1, p0), (p0, p0)):
        worst_case_aoa(*pair)
    refs = [weakref.ref(p0), weakref.ref(p1)]
    del p0, p1, pair
    gc.collect()
    assert [r() for r in refs] == [None, None]
    # a partner the caller drops leaves the pattern it was paired with
    kept, dropped = patch_pair()
    worst_case_aoa(kept, dropped)
    ref = weakref.ref(dropped)
    del dropped
    gc.collect()
    assert ref() is None
    assert len(kept._partners) == 0


def test_a_paired_pattern_pickles_and_copies():
    p0, p1 = patch_pair()
    want = worst_case_aoa(p0, p1)
    for clone in (pickle.loads(pickle.dumps(p0)), copy.copy(p0), copy.deepcopy(p0)):
        assert not clone.magnitude.flags.writeable
        np.testing.assert_array_equal(clone.magnitude, p0.magnitude)
        assert worst_case_aoa(clone, p1) == want


def test_pattern_arrays_are_read_only():
    pat = two_point_pattern()
    for values in (pat.azimuth, pat.magnitude, pat.phase):
        with pytest.raises(ValueError):
            values[0] = 0.5


def test_pattern_ignores_later_writes_to_the_caller_arrays():
    partner = builtin_pattern("cardioid")
    grid = np.linspace(0.0, TWO_PI, 97)
    az, mag, ph = np.array([0.0, 1.0, 3.0]), np.array([1.0, 0.2, 2.0]), np.zeros(3)
    reference = AntennaPattern(azimuth=az.copy(), magnitude=mag.copy(), phase=ph.copy())
    want_m, want_p = reference.evaluate(grid)
    want_aoa = worst_case_aoa(reference, partner)
    # one pattern derives its values before the write, the other after it
    used = AntennaPattern(azimuth=az, magnitude=mag, phase=ph)
    assert worst_case_aoa(used, partner) == want_aoa
    used.evaluate(grid)
    fresh = AntennaPattern(azimuth=az, magnitude=mag, phase=ph)
    az[1], mag[:], ph[:] = 2.0, 5.0, 1.0
    for pat in (used, fresh):
        m, p = pat.evaluate(grid)
        np.testing.assert_array_equal(m, want_m)
        np.testing.assert_array_equal(p, want_p)
        assert worst_case_aoa(pat, partner) == want_aoa


@pytest.mark.parametrize("grid", [False, True])
def test_burst_sampling_follows_trajectory(grid):
    # packet 0 arrives from the pair's worst-case AOA, and the later packets
    # follow the trajectory turned by the same angle
    p0, p1 = patch_pair()
    scen = ScenarioParams(d_x=30.0, d_y=-4.0, delta_v=10.0, delta_a=0.5,
                          wavelength=0.0508, n_packets=6)
    if grid:
        scen = ScenarioParams(d_x=30.0, d_y=np.linspace(-6.0, 6.0, 7)[None, :],
                              delta_v=np.linspace(-20.0, 20.0, 5)[:, None],
                              delta_a=0.5, wavelength=0.0508, n_packets=6)
    tk = scen.packet_times()
    phi_min = worst_case_aoa(p0, p1)
    mag0, phase0, mag1, phase1 = antenna._sample_burst(p0, p1, scen, tk, phi_min)
    shape = (6, 5, 7) if grid else (6,)
    assert mag0.shape == phase0.shape == mag1.shape == phase1.shape == shape
    for pattern, mag, phase in ((p0, mag0, phase0), (p1, mag1, phase1)):
        m, f = pattern.evaluate(phi_min)
        np.testing.assert_array_equal(mag[0], m)
        np.testing.assert_array_equal(phase[0], f)
        turn = phi_min - aoa_exact(scen, 0.0)
        want = pattern.evaluate(np.mod(aoa_exact(scen, tk) + turn, TWO_PI))
        np.testing.assert_array_equal(mag, want[0])
        np.testing.assert_array_equal(phase, want[1])


# ---------------------------------------------------------------------------
# builtin patterns
# ---------------------------------------------------------------------------

def test_builtin_patterns_load():
    assert BUILTIN_PATTERNS == ("isotropic", "cardioid", "patch_front", "patch_rear")
    for name in BUILTIN_PATTERNS:
        pat = builtin_pattern(name)
        assert pat.azimuth.size >= 36
    # only the listed bare names, not file names or paths into the package
    for name in ("does_not_exist", "isotropic.csv", "../patterns/isotropic", ""):
        with pytest.raises(FileNotFoundError):
            builtin_pattern(name)


def test_builtin_patch_front_to_back():
    m_front, _ = builtin_pattern("patch_front").evaluate(0.0)
    m_back, _ = builtin_pattern("patch_front").evaluate(math.pi)
    assert 20.0 * math.log10(m_front) == pytest.approx(6.0, abs=1e-9)
    assert 20.0 * math.log10(m_back) == pytest.approx(-10.0, abs=1e-9)


def test_builtin_cardioid_rear_null_depth():
    pat = builtin_pattern("cardioid")
    m_front, _ = pat.evaluate(0.0)
    m_back, _ = pat.evaluate(math.pi)
    assert 20.0 * math.log10(m_front / m_back) == pytest.approx(40.0, abs=1e-9)


def test_builtin_patch_pair_is_mirrored():
    front, rear = patch_pair()
    for phi in (0.0, 0.7, 2.0):
        mf, _ = front.evaluate(phi)
        mr, _ = rear.evaluate(math.pi + phi)
        assert mf == pytest.approx(mr, rel=1e-9)


# ---------------------------------------------------------------------------
# CSV exchange format
# ---------------------------------------------------------------------------

def test_csv_header_and_units(tmp_path):
    path = tmp_path / "pat.csv"
    path.write_text("azimuth_deg,gain_dbi,phase_deg\n"
                    "0,6,0\n"
                    "90,0,90\n"
                    "180,-10,-90\n", encoding="utf-8")
    pat = load_pattern_csv(path)
    np.testing.assert_allclose(pat.azimuth, np.radians([0.0, 90.0, 180.0]), atol=1e-12)
    np.testing.assert_allclose(pat.magnitude,
                               [10.0 ** 0.3, 1.0, 10.0 ** -0.5], rtol=1e-12)
    np.testing.assert_allclose(pat.phase,
                               [0.0, math.pi / 2.0, -math.pi / 2.0], atol=1e-12)


def test_csv_header_case_insensitive(tmp_path):
    path = tmp_path / "pat.csv"
    path.write_text("Azimuth_Deg, GAIN_DBI ,phase_deg\n0,0,0\n", encoding="utf-8")
    pat = load_pattern_csv(path)
    assert pat.magnitude[0] == 1.0


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "pat.csv"
    path.write_text("azimuth_deg,gain_dbi,phase_deg\n\n0,0,0\n\n90,3,10\n",
                    encoding="utf-8")
    assert load_pattern_csv(path).azimuth.size == 2


def test_one_sample_pattern_is_the_same_response_everywhere(tmp_path):
    # a single row closes on itself with no phase winding
    path = tmp_path / "one.csv"
    path.write_text("azimuth_deg,gain_dbi,phase_deg\n90,3,45\n", encoding="utf-8")
    pat = load_pattern_csv(path)
    sample = (10.0 ** 0.15, math.radians(45.0))
    for phi in (0.0, 0.5 * math.pi, 3.0, TWO_PI - 1e-9, -7.0, 40.0):
        assert pat.evaluate(phi) == pytest.approx(sample, rel=1e-15)
    assert worst_case_aoa(pat, pat) == 0.0
    # both branches alike: constant weights, so both paths score the burst
    # at 1 - |f1(x)| / n for the half slope-offset x
    scen = ScenarioParams(d_x=30.0, d_y=-4.0, delta_v=11.0, delta_a=0.5, wavelength=0.05)
    n, t = scen.n_packets, scen.t_interval
    for q in (1.0, 5.0, 0.37):
        slope = q * TWO_PI / (n * t)
        want = 1.0 - abs(snr.f1(0.5 * slope * t, n)) / n
        for use_exact in (True, False):
            got = sum_snr_phi(slope, scen, pat, pat, use_exact=use_exact)
            assert got == pytest.approx(want, abs=1e-12)


def test_csv_malformed_rows(tmp_path):
    cases = [
        ("azimuth_deg,gain_dbi\n0,0\n", MalformedRow),            # bad header
        ("azimuth_deg,gain_dbi,phase_deg\n0,0\n", MalformedRow),  # short row
        ("azimuth_deg,gain_dbi,phase_deg\n0,zero,0\n", MalformedRow),
        ("azimuth_deg,gain_dbi,phase_deg\n-5,0,0\n", MalformedRow),
        ("azimuth_deg,gain_dbi,phase_deg\n360,0,0\n", MalformedRow),
        ("azimuth_deg,gain_dbi,phase_deg\n90,0,0\n10,0,0\n", NonMonotonicAzimuth),
        ("azimuth_deg,gain_dbi,phase_deg\n", EmptyPattern),
        ("", EmptyPattern),
    ]
    for text, exc in cases:
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(exc):
            load_pattern_csv(path)


def test_csv_error_names_file_and_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("azimuth_deg,gain_dbi,phase_deg\n0,0,0\n10,oops,0\n",
                    encoding="utf-8")
    with pytest.raises(MalformedRow, match=r"bad\.csv:3"):
        load_pattern_csv(path)
