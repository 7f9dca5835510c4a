"""Core kernel and closed-form tests against independent oracles.

The oracles here never reuse the library's formulas: the cross term is
re-summed term by term, the derivative is taken by complex-step
differentiation of the defining ratio, and worst-case offsets are checked
by brute-force scans.
"""

import cmath
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecomb import (DomainX, NonFiniteX, NonPositiveC1, PhasecombError,
                       TooFewPackets, affine_coefficients, c_ratio_squared,
                       check_optimality, design_rule_alpha_star, f1, f2, in_severe_set,
                       in_zero_loss_set, interval_loss_bound, j_affine,
                       loss, loss_bounds, min_cross_term, optimal_slope_set, worst_case_y)
from phasecomb import snr, validation
from phasecomb.snr import _dirichlet_values
from phasecomb.validation import worst_case_y_scan

TWO_PI = 2.0 * math.pi


def burst_cross_sum(y: float, x: float, b: float, a: float, t: float, n: int) -> float:
    # independent re-summation of sum_k (b + a k t) cos(y - 2 x k)
    return sum((b + a * k * t) * math.cos(y - 2.0 * x * k) for k in range(n))


def f1_reference(z: complex, n: int) -> complex:
    return cmath.sin(n * z) / cmath.sin(z)


def f2_complex_step(x: float, n: int, h: float = 1e-20) -> float:
    # derivative of f1 without subtractive cancellation in h
    return f1_reference(complex(x, h), n).imag / h


def dirichlet_sums(x: float, n: int) -> tuple[float, float]:
    # division-free oracle, accurate at the poles too:
    # f1 = sum_k cos(m_k x), f2 = -sum_k m_k sin(m_k x), m_k = n - 1 - 2k
    m = [n - 1 - 2 * k for k in range(n)]
    return (math.fsum(math.cos(mk * x) for mk in m),
            -math.fsum(mk * math.sin(mk * x) for mk in m))


# strategy for x comfortably away from the poles of 1/sin
safe_x = st.floats(min_value=0.05, max_value=math.pi - 0.05).filter(
    lambda x: abs(math.sin(x)) > 0.05)


@st.composite
def pole_offset_x(draw):
    # x = q pi + e with q in [-3, 3] and |e| log-uniform in [1e-8, pi/2]
    q = draw(st.integers(min_value=-3, max_value=3))
    e = 10.0 ** draw(st.floats(min_value=-8.0, max_value=math.log10(math.pi / 2)))
    return q * math.pi + draw(st.sampled_from((-1.0, 1.0))) * e


# ---------------------------------------------------------------------------
# kernel ratio f1 and its derivative f2
# ---------------------------------------------------------------------------

def test_f1_reduces_to_two_cos_for_two_packets():
    for x in (0.3, 1.0, 2.0, 2.8):
        assert f1(x, 2) == pytest.approx(2.0 * math.cos(x), abs=1e-14)


def test_f1_hand_values():
    assert f1(math.pi / 2.0, 3) == pytest.approx(-1.0, abs=1e-12)
    assert abs(f1(math.pi / 2.0, 10)) < 1e-14  # sin(5 pi) numerator


def test_f1_f2_raise_on_severe_set():
    for x in (0.0, math.pi, -math.pi, 2.0 * math.pi, math.pi + 1e-12):
        with pytest.raises(DomainX):
            f1(x, 10)
        with pytest.raises(DomainX):
            f2(x, 10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kernels_reject_non_finite_x(bad):
    scalar_calls = (lambda x: f1(x, 5), lambda x: f2(x, 5), lambda x: loss(x, 1.0, 0.0, 5),
                    lambda x: loss_bounds(x, 5), lambda x: j_affine(x, 0.2, 1.0, 0.1, 5),
                    lambda x: worst_case_y(x, 1.0, 0.1, 5), in_severe_set,
                    lambda x: in_zero_loss_set(x, 5),
                    # the first pair fails, the later ones carry the bad x
                    lambda x: check_optimality([0.0, 0.5, x / 0.05], 5, 0.1))
    for call in scalar_calls:
        for x in (bad, np.float64(bad)):
            with pytest.raises(NonFiniteX):
                call(x)
    # one bad entry of an array is enough, in any position and shape
    for x in (np.array([bad, 0.3]), np.array([0.3, 0.6, bad]), np.array([[0.3], [bad]]),
              np.array(bad)):
        with pytest.raises(NonFiniteX):
            loss(x, 1.0, 0.0, 5)
        with pytest.raises(NonFiniteX):
            loss(x, np.ones(x.shape), 0.1, 5)
        with pytest.raises(NonFiniteX):
            loss_bounds(x, 5)
        with pytest.raises(NonFiniteX):
            _dirichlet_values(x, 5)
    assert issubclass(NonFiniteX, PhasecombError) and issubclass(NonFiniteX, ValueError)


@pytest.mark.parametrize("big", [1e17, -1e17, 1e300, 2.0 ** 53])
def test_kernels_reject_x_without_a_phase(big):
    # from 2**53 on floats are spaced 2 apart, so x carries no phase (and past
    # about 1e17 the pole offset leaves [-pi/2, pi/2]); raise before numpy warns
    calls = (lambda x: f1(x, 5), lambda x: f2(x, 5), lambda x: loss(x, 1.0, 0.0, 5),
             lambda x: loss(np.array([0.3, x]), 1.0, 0.05, 5),
             lambda x: loss_bounds(x, 5), lambda x: loss_bounds(np.array([x, 0.3]), 5),
             lambda x: j_affine(x, 0.2, 1.0, 0.1, 5), lambda x: worst_case_y(x, 1.0, 0.1, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(NonFiniteX):
                call(big)
    below = np.nextafter(2.0 ** 53, 0.0)
    assert f1(below, 5) == _dirichlet_values(np.array([below]), 5)[0][0]


@given(x=st.floats(min_value=1e-6, max_value=4.0 * math.pi),
       n=st.integers(min_value=2, max_value=30))
def test_f1_bounded_by_packet_count(x, n):
    if abs(math.sin(x)) < 1e-6:
        return
    assert abs(f1(x, n)) <= n * (1.0 + 1e-12)


@given(x=safe_x, n=st.integers(min_value=2, max_value=15))
def test_f2_matches_complex_step_derivative(x, n):
    want = f2_complex_step(x, n)
    assert f2(x, n) == pytest.approx(want, rel=1e-8, abs=1e-8)


def test_f2_two_packet_closed_form():
    for x in (0.4, 1.3, 2.5):
        assert f2(x, 2) == pytest.approx(-2.0 * math.sin(x), abs=1e-13)


def test_f2_near_pole_limit_slope():
    # f1 flattens to n near every pole with curvature -(n^3 - n)/3, so the
    # derivative approaches that slope times the offset from the pole
    n = 10
    lim = (n ** 3 - n) / 3.0
    e = 1e-7
    assert f2(e, n) == pytest.approx(-lim * e, rel=1e-5)
    assert f2(math.pi + e, n) == pytest.approx(lim * e, rel=1e-5)
    assert f2(math.pi - e, n) == pytest.approx(-lim * e, rel=1e-5)
    assert f2(-e, 7) == pytest.approx((7 ** 3 - 7) / 3.0 * e, rel=1e-5)


def test_f2_keeps_its_digits_near_distant_poles():
    # near q pi the offset from the pole must be taken against the true pi,
    # not its float value, or f2 (which scales with the offset) loses ~8
    # digits; the offset here comes from 36 digits of pi in exact arithmetic
    pi_digits = Fraction("3.14159265358979323846264338327950288")
    n = 10
    lim = (n ** 3 - n) / 3.0
    for q in (-3, 2, 3):
        for e in (1e-8, -3e-7, 2e-5):
            x = q * math.pi + e
            offset = float(Fraction(x) - q * pi_digits)
            sign = -1.0 if q * (n - 1) % 2 else 1.0
            want = -sign * lim * offset * (1.0 - (n * n + 1) * offset ** 2 / 10.0)
            assert f2(x, n) == pytest.approx(want, rel=1e-12)


def test_f2_continuous_across_internal_branch_switches():
    # evaluation switches to a series in the offset 1e-3 from the pole; the
    # value must not jump there, nor at |sin x| = 0.05
    n = 12
    for center in (math.asin(0.05), math.pi - math.asin(0.05), math.pi + 1e-3):
        lo, hi = center - 1e-9, center + 1e-9
        step = abs(f2(hi, n) - f2(lo, n))
        assert step < 1e-4 * max(1.0, abs(f2(center, n)))


@given(x=pole_offset_x(), n=st.integers(min_value=2, max_value=15))
@settings(max_examples=300)
def test_f1_f2_match_division_free_sums_across_pole_bands(x, n):
    want1, want2 = dirichlet_sums(x, n)
    assert abs(f1(x, n) - want1) <= 1e-10 * max(1.0, abs(want1))
    assert abs(f2(x, n) - want2) <= 1e-10 * max(1.0, abs(want2))


@given(xs=st.lists(st.one_of(pole_offset_x(),
                             st.integers(min_value=-3, max_value=3).map(lambda q: q * math.pi)),
                   min_size=1, max_size=20),
       n=st.integers(min_value=2, max_value=15),
       c1=st.floats(min_value=0.1, max_value=5.0),
       w=st.floats(min_value=-0.9, max_value=0.9))
@settings(max_examples=200)
def test_array_kernels_match_scalar_kernels(xs, n, c1, w):
    # the array and scalar shapes of the kernel agree point by point,
    # severe points included
    x = np.array(xs)
    f1v, f2v, severe = _dirichlet_values(x, n)
    for xi, a, b in zip(x[~severe], f1v[~severe], f2v[~severe]):
        assert abs(a - f1(xi, n)) <= 1e-10 * max(1.0, abs(a))
        assert abs(b - f2(xi, n)) <= 1e-10 * max(1.0, abs(b))
    c2 = w * c1 / (n - 1)
    np.testing.assert_allclose(loss(x, c1, c2, n),
                               [loss(xi, c1, c2, n) for xi in xs], rtol=0.0, atol=1e-15)
    lower, upper = loss_bounds(x, n)
    want = np.array([loss_bounds(xi, n) for xi in xs])
    np.testing.assert_allclose(lower, want[:, 0], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(upper, want[:, 1], rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# severe and zero-loss sets
# ---------------------------------------------------------------------------

def test_severe_set_membership():
    assert in_severe_set(0.0)
    assert in_severe_set(math.pi)
    assert in_severe_set(-3.0 * math.pi)
    assert not in_severe_set(math.pi / 10.0)
    assert not in_severe_set(1.0)


def test_zero_loss_set_membership():
    assert in_zero_loss_set(math.pi / 10.0, 10)
    assert in_zero_loss_set(7.0 * math.pi / 10.0, 10)
    assert not in_zero_loss_set(math.pi, 10)   # severe, excluded
    assert not in_zero_loss_set(0.3, 10)


# ---------------------------------------------------------------------------
# affine weight bookkeeping
# ---------------------------------------------------------------------------

def test_affine_coefficients_hand_value():
    c1, c2 = affine_coefficients(1.0, 2.0, 3, 0.1)
    assert c1 == pytest.approx(2.1, abs=1e-15)
    assert c2 == pytest.approx(0.05, abs=1e-15)


def test_affine_coefficients_constant_weights():
    c1, c2 = affine_coefficients(0.0, 3.5, 10, 0.1)
    assert (c1, c2) == (3.5, 0.0)


def test_c_ratio_squared_shape():
    n, t = 10, 0.1
    edge = 1.0 / ((n - 1) * t)
    left = [c_ratio_squared(w, n, t) for w in (-0.9 * edge, -0.5 * edge, -0.1 * edge)]
    right = [c_ratio_squared(w, n, t) for w in (0.1 * edge, 0.5 * edge, 3.0 * edge)]
    assert left == sorted(left, reverse=True)      # decreasing up to 0
    assert right == sorted(right)                  # increasing past 0
    assert c_ratio_squared(0.0, n, t) == 0.0
    limit = (1.0 / (n - 1)) ** 2
    assert c_ratio_squared(1e12, n, t) == pytest.approx(limit, rel=1e-9)
    with pytest.raises(NonPositiveC1):
        c_ratio_squared(-edge, n, t)


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
def test_c_ratio_squared_rejects_non_finite_w(w):
    with pytest.raises(ValueError, match="not finite"):
        c_ratio_squared(w, 10, 0.1)


# ---------------------------------------------------------------------------
# closed-form cross term
# ---------------------------------------------------------------------------

def test_j_affine_matches_resummed_cross_term():
    rng = np.random.default_rng(1905)
    t = 0.1
    for _ in range(300):
        n = int(rng.integers(2, 20))
        x = float(rng.uniform(0.02, math.pi - 0.02))
        if abs(math.sin(x)) < 1e-6:
            continue
        y = float(rng.uniform(0.0, TWO_PI))
        b = float(rng.uniform(0.1, 5.0))
        a = float(rng.uniform(-2.0, 2.0))
        c1, c2 = affine_coefficients(a, b, n, t)
        want = burst_cross_sum(y, x, b, a, t, n)
        assert j_affine(x, y, c1, c2, n) == pytest.approx(want, abs=1e-10)


def test_j_affine_severe_convention():
    # on the severe set every packet shares the phase y
    n, c1 = 8, 1.5
    assert j_affine(math.pi, 0.0, c1, 0.2, n) == pytest.approx(c1 * n, abs=1e-12)
    assert j_affine(0.0, math.pi, c1, 0.2, n) == pytest.approx(-c1 * n, abs=1e-12)


def j_direct(slopes, psi, gains, weights, t_interval: float) -> float:
    """Direct double-sum cross term of the combined burst power.

    slopes: (L,) per-branch phase slopes [rad/s];
    psi: (K, L) per-packet per-branch phase offsets [rad];
    gains: (K, L) per-packet per-branch magnitudes;
    weights: (K,) per-packet weights.

    Plain trigonometric sum, no approximation; the reference the closed
    forms are tested against.
    """
    slopes = np.asarray(slopes, dtype=float)
    psi = np.asarray(psi, dtype=float)
    gains = np.asarray(gains, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n_packets, n_branches = psi.shape
    tk = np.arange(n_packets) * t_interval
    total = 0.0
    for l in range(n_branches):
        for m in range(l + 1, n_branches):
            ang = psi[:, m] - psi[:, l] - (slopes[m] - slopes[l]) * tk
            total += float(np.sum(weights * gains[:, l] * gains[:, m] * np.cos(ang)))
    return 2.0 * total / n_branches


def test_j_direct_matches_plain_double_loop():
    rng = np.random.default_rng(77)
    n, branches, t = 6, 4, 0.1
    slopes = rng.uniform(-30.0, 30.0, branches)
    psi = rng.uniform(0.0, TWO_PI, (n, branches))
    gains = rng.uniform(0.1, 2.0, (n, branches))
    weights = rng.uniform(0.1, 2.0, n)
    total = 0.0
    for k in range(n):
        for l in range(branches):
            for m in range(branches):
                if m == l:
                    continue
                ang = (psi[k, m] - slopes[m] * k * t) - (psi[k, l] - slopes[l] * k * t)
                total += weights[k] * gains[k, l] * gains[k, m] * math.cos(ang)
    want = total / branches
    got = j_direct(slopes, psi, gains, weights, t)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_j_direct_two_branches_reduces_to_j_affine():
    rng = np.random.default_rng(3)
    n, t = 10, 0.1
    for _ in range(25):
        s = float(rng.uniform(-40.0, 40.0))
        y = float(rng.uniform(0.0, TWO_PI))
        b = float(rng.uniform(0.5, 3.0))
        a = float(rng.uniform(-1.0, 1.0))
        x = 0.5 * s * t
        if abs(math.sin(x)) < 1e-6:
            continue
        w = b + a * np.arange(n) * t
        psi = np.column_stack([np.zeros(n), np.full(n, y)])
        direct = j_direct([0.0, s], psi, np.ones((n, 2)), w, t)
        c1, c2 = affine_coefficients(a, b, n, t)
        assert direct == pytest.approx(j_affine(x, y, c1, c2, n), abs=1e-10)


# ---------------------------------------------------------------------------
# worst-case offset phase
# ---------------------------------------------------------------------------

def test_worst_case_y_against_dense_scan():
    rng = np.random.default_rng(2024)
    t, n = 0.1, 10
    grid = np.arange(200_000) * (TWO_PI / 200_000)
    k = np.arange(n)
    for _ in range(20):
        x = float(rng.uniform(0.05, math.pi - 0.05))
        b = float(rng.uniform(0.5, 3.0))
        a = float(rng.uniform(-0.5, 4.0))
        c1, c2 = affine_coefficients(a, b, n, t)
        y_min, j_min = worst_case_y(x, c1, c2, n)
        w = b + a * k * t
        vals = np.cos(grid[:, None] - 2.0 * x * k[None, :]) @ w
        i = int(np.argmin(vals))
        # grid minimum cannot beat the true minimum by more than float noise
        assert j_min <= vals[i] + 1e-12
        assert vals[i] - j_min <= np.sum(np.abs(w)) * (TWO_PI / 200_000) ** 2
        assert 0.0 <= y_min < TWO_PI
        # closed form evaluated at its own minimizer reproduces the minimum
        assert j_affine(x, y_min, c1, c2, n) == pytest.approx(j_min, abs=1e-10)


def test_worst_case_y_severe_convention():
    y_min, j_min = worst_case_y(math.pi, 2.0, 0.3, 10)
    assert y_min == math.pi
    assert j_min == -20.0


def test_worst_case_y_vanishing_cross_term_convention():
    # c2 = 0 and c1 f1 underflows: the cross term vanishes, reported as (0, 0)
    assert worst_case_y(math.pi / 4.0, 5e-324, 0.0, 4) == (0.0, 0.0)


def test_worst_case_y_rejects_nonpositive_mean_weight():
    with pytest.raises(NonPositiveC1):
        worst_case_y(1.0, 0.0, 0.1, 10)
    with pytest.raises(NonPositiveC1):
        loss(1.0, -2.0, 0.0, 10)
    # NaN fails every comparison, so it must not slip past the check
    with pytest.raises(NonPositiveC1):
        worst_case_y(0.3, math.nan, 0.0, 10)
    with pytest.raises(NonPositiveC1):
        loss(0.3, math.nan, 0.0, 10)
    # an infinite mean weight turns the loss into inf / inf
    with pytest.raises(NonPositiveC1):
        worst_case_y(0.3, math.inf, 0.0, 10)
    with pytest.raises(NonPositiveC1):
        loss(0.3, math.inf, 0.0, 10)
    for c2 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            worst_case_y(0.3, 1.0, c2, 10)
        with pytest.raises(ValueError):
            loss(0.3, 1.0, c2, 10)


def test_worst_case_y_scan_matches_vector_identity():
    # the scan evaluates sum_k w_k cos(theta_k - y); cross-check one point
    rng = np.random.default_rng(5)
    w = rng.uniform(0.1, 2.0, 12)
    theta = rng.uniform(0.0, TWO_PI, 12)
    y_min, j_min = worst_case_y_scan(w, theta, n_grid=100_000)
    direct = float(np.sum(w * np.cos(theta - y_min)))
    assert j_min == pytest.approx(direct, abs=1e-12)
    amp = math.hypot(float(np.sum(w * np.cos(theta))), float(np.sum(w * np.sin(theta))))
    assert j_min == pytest.approx(-amp, abs=amp * (TWO_PI / 100_000) ** 2)


def one_burst_scan(weights, phases, n_grid=100_000):
    # the scan as written for a single burst: the whole grid in one array
    y = np.arange(n_grid) * (TWO_PI / n_grid)
    cw = float(np.sum(weights * np.cos(phases)))
    sw = float(np.sum(weights * np.sin(phases)))
    vals = cw * np.cos(y) + sw * np.sin(y)
    i = int(np.argmin(vals))
    return float(y[i]), float(vals[i])


@pytest.mark.parametrize("n_bursts", [2, 7, 200, 3000])
def test_stacked_scan_matches_one_burst_scans_bitwise(n_bursts):
    rng = np.random.default_rng(n_bursts)
    n_grid = 100_000 if n_bursts <= 200 else 5_000
    step = TWO_PI / n_grid
    w = rng.uniform(0.1, 2.0, (12, n_bursts))
    theta = rng.uniform(-50.0, 50.0, (12, n_bursts))
    w[:, 0] = 0.0  # every grid point ties at zero: the first one is reported
    # one packet at pi - step puts the minimum on the last grid point, which
    # the last block holds whatever the block width
    w[:, -1], theta[:, -1] = 0.0, math.pi - step
    w[0, -1] = 1.5
    y, j = worst_case_y_scan(w, theta, n_grid=n_grid)
    assert y.shape == j.shape == (n_bursts,)
    for b in range(n_bursts):
        ref = one_burst_scan(w[:, b], theta[:, b], n_grid)
        assert np.array([y[b], j[b]]).tobytes() == np.array(ref).tobytes(), b
    assert (y[0], j[0]) == (0.0, 0.0)
    assert y[-1] == (n_grid - 1) * step
    # a single burst comes back as floats, further burst axes keep their shape
    single = worst_case_y_scan(w[:, 1], theta[:, 1], n_grid=n_grid)
    assert type(single[0]) is float and type(single[1]) is float
    assert single == one_burst_scan(w[:, 1], theta[:, 1], n_grid)
    if n_bursts % 2 == 0:
        y2, j2 = worst_case_y_scan(w.reshape(12, 2, -1), theta.reshape(12, 2, -1), n_grid)
        assert np.array_equal(y2.ravel(), y) and np.array_equal(j2.ravel(), j)


def test_zero_padded_bursts_match_their_unpadded_scans():
    rng = np.random.default_rng(11)
    weights, phases = np.zeros((2, 15, 60))
    refs, scales = [], []
    for b in range(60):
        n = int(rng.integers(1, 16))
        weights[:n, b] = rng.uniform(0.1, 3.0, n)
        phases[:n, b] = rng.uniform(-20.0, 20.0, n)
        refs.append(worst_case_y_scan(weights[:n, b], phases[:n, b])[1])
        scales.append(float(np.sum(weights[:n, b])))
    _, j = worst_case_y_scan(weights, phases)
    assert np.all(np.abs(j - refs) <= 1e-12 * np.array(scales))


def test_scan_memory_stays_flat_as_bursts_are_stacked():
    rng = np.random.default_rng(3)
    peaks = []
    for n_bursts in (20, 2000):
        w = rng.uniform(0.1, 2.0, (15, n_bursts))
        theta = rng.uniform(0.0, TWO_PI, (15, n_bursts))
        tracemalloc.start()
        try:
            worst_case_y_scan(w, theta, n_grid=10_000)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


CHUNK = validation._SCAN_CHUNK  # grid points the scan takes at a time


@pytest.mark.parametrize("n_grid", [1_000, 2 * CHUNK, 2 * CHUNK + 123])
def test_scan_finds_minima_on_chunk_edges(n_grid):
    # one packet w cos(theta - y) is least at y = theta + pi, so each burst
    # puts its minimum on a chosen grid point: both sides of a chunk boundary,
    # the last point of the grid and inside a partial last chunk
    step = TWO_PI / n_grid
    targets = [i for i in (0, 1, CHUNK - 1, CHUNK, 2 * CHUNK - 1, n_grid - 60, n_grid - 1)
               if i < n_grid]
    w = np.ones((1, len(targets) + 1))
    theta = np.append(np.array(targets) * step - math.pi, 0.0)[np.newaxis]
    w[0, -1] = 0.0  # every grid point ties at zero, across every chunk
    y, j = worst_case_y_scan(w, theta, n_grid=n_grid)
    assert np.array_equal(y[:-1], np.array(targets) * step)
    assert (y[-1], j[-1]) == (0.0, 0.0)  # the tie keeps the first grid point
    for b in range(w.shape[1]):
        ref = one_burst_scan(w[:, b], theta[:, b], n_grid)
        assert np.array([y[b], j[b]]).tobytes() == np.array(ref).tobytes(), b


BLOCK = validation._SCAN_BLOCK  # grid points the scan's bound keeps or skips at a time


def assert_matches_one_burst_scans(w, theta, n_grid):
    y, j = worst_case_y_scan(w, theta, n_grid=n_grid)
    for b in range(w.shape[1]):
        ref = one_burst_scan(w[:, b], theta[:, b], n_grid)
        assert np.array([y[b], j[b]]).tobytes() == np.array(ref).tobytes(), b
    return y, j


@pytest.mark.parametrize("n_grid", [100_000, 2 * CHUNK + 123])
def test_pruned_scan_finds_minima_on_sub_block_edges(n_grid):
    # one packet puts its minimum on a grid point on either side of a
    # sub-block or chunk boundary, on the first and the last point; then a
    # shade to either side of each, where the nearest point still holds it
    step = TWO_PI / n_grid
    targets = np.array([0, 1, BLOCK - 1, BLOCK, 2 * BLOCK - 1, 2 * BLOCK, CHUNK - 1, CHUNK,
                        CHUNK + BLOCK - 1, CHUNK + BLOCK, n_grid - BLOCK, n_grid - 2, n_grid - 1])
    for shift in (0.0, 0.49, -0.49):
        theta = ((targets + shift) * step - math.pi)[np.newaxis]
        y, _ = assert_matches_one_burst_scans(np.ones_like(theta), theta, n_grid)
        assert np.array_equal(y, targets * step)


@pytest.mark.parametrize("k", [BLOCK - 1, CHUNK - 1, 5 * BLOCK - 1])
def test_pruned_scan_keeps_the_first_of_a_tie_across_a_sub_block_boundary(k):
    # a one-packet minimum halfway between the last point of a sub-block and
    # the first of the next, nudged until both points score the same float
    n_grid = 100_000
    step = TWO_PI / n_grid
    pair = np.arange(k, k + 2) * step
    for nudge in range(400):
        theta = np.array([[(k + 0.5) * step - math.pi + nudge * 1e-15]])
        cw, sw = float(np.cos(theta[0, 0])), float(np.sin(theta[0, 0]))
        values = cw * np.cos(pair) + sw * np.sin(pair)
        if values[0] == values[1]:
            break
    else:
        pytest.fail("no exact tie found")
    y, j = assert_matches_one_burst_scans(np.ones_like(theta), theta, n_grid)
    assert (y[0], j[0]) == (k * step, values[0])  # the earlier point of the tie


@pytest.mark.parametrize("amplitude", [1e-300, 1e300, 1e-310, 5e-324])
def test_pruned_scan_is_exact_at_extreme_amplitudes(amplitude):
    # the bound's slack is relative, plus 1e-300 for subnormal sums
    rng = np.random.default_rng(17)
    w = amplitude * rng.uniform(0.1, 1.0, (12, 40))
    theta = rng.uniform(-50.0, 50.0, (12, 40))
    assert_matches_one_burst_scans(w, theta, 100_000)


def test_pruned_scan_of_zero_and_non_finite_bursts():
    # every grid point of an all-zero burst ties at zero: the first one is reported
    assert worst_case_y_scan(np.zeros(3), np.full(3, 0.3)) == (0.0, 0.0)
    # a NaN or infinite weight or phase, or two packets whose sum overflows,
    # is an error before any numpy warning, alone or stacked with finite bursts
    bad = [([math.nan], [0.3]), ([math.inf], [0.0]), ([math.inf], [0.3]),
           ([-math.inf], [0.3]), ([1.0], [math.nan]), ([1.0], [math.inf]),
           ([0.0], [-math.inf]), ([1e308, 1e308], [3.0, 3.0])]
    for w, theta in bad:
        w, theta = np.array(w), np.array(theta)
        # alone, and as the last of 300 bursts, past the first slice of sums
        wide = np.ones((w.size, 300)), np.zeros((w.size, 300))
        wide[0][:, -1], wide[1][:, -1] = w, theta
        for args in ((w, theta), wide):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="must be finite"):
                    worst_case_y_scan(*args)


@pytest.mark.parametrize("n_grid", [0, -5, 10.5, True])
def test_scan_rejects_a_grid_size_that_is_not_a_positive_int(n_grid):
    with pytest.raises(ValueError, match="n_grid"):
        worst_case_y_scan(np.ones(3), np.zeros(3), n_grid=n_grid)


@pytest.mark.parametrize("shift, passes", [(0.0, True), (1e-9, False), (-1e-8, False),
                                           (-1e-9, True)])
def test_scan_check_catches_a_shifted_closed_form(monkeypatch, shift, passes):
    # the scan's curvature bound is 2 (2 pi / N)^2 c1 n, about 7.9e-9 c1 n: a
    # closed form above the scan by 1e-9 c1 n, or below it by more than the
    # bound, must fail the check; 1e-9 c1 n below stays inside the bound
    exact = snr.worst_case_y

    def shifted(x, c1, c2, n):
        y, j = exact(x, c1, c2, n)
        return y, j + shift * c1 * n

    monkeypatch.setattr(snr, "worst_case_y", shifted)
    assert validation._check_worst_y_vs_scan(np.random.default_rng(42)).passed is passes


@given(data=st.data(), k=st.integers(min_value=1, max_value=24))
@settings(max_examples=100, deadline=None)
def test_min_cross_term_matches_scan_within_curvature_bound(data, k):
    w = np.array(data.draw(st.lists(st.floats(min_value=1e-3, max_value=10.0),
                                    min_size=k, max_size=k)))
    theta = np.array(data.draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6), min_size=k, max_size=k)))
    _, j_scan = worst_case_y_scan(w, theta)
    gap = j_scan - min_cross_term(w, theta)  # the scan can only overshoot
    assert -1e-12 <= gap <= 2.0 * (TWO_PI / 100_000) ** 2 * float(np.sum(w))
    # further axes are independent bursts
    stacked = min_cross_term(np.column_stack([w, 2.0 * w]), np.column_stack([theta, theta]))
    single = [min_cross_term(w, theta), min_cross_term(2.0 * w, theta)]
    np.testing.assert_allclose(stacked, single, rtol=1e-12, atol=1e-12 * float(np.sum(w)))


# ---------------------------------------------------------------------------
# loss and its envelope
# ---------------------------------------------------------------------------

@given(x=st.one_of(safe_x, pole_offset_x(),
                  st.integers(min_value=-3, max_value=3).map(lambda q: q * math.pi)),
       n=st.integers(min_value=2, max_value=15),
       b=st.floats(min_value=0.1, max_value=5.0),
       w=st.floats(min_value=-0.9, max_value=4.0))
@settings(max_examples=300)
def test_loss_in_unit_interval_and_between_bounds(x, n, b, w):
    # poles included: x = q pi exactly and x within 1e-8 of one
    t = 0.1
    a = w * b / ((n - 1) * t)   # keeps all per-packet weights positive
    c1, c2 = affine_coefficients(a, b, n, t)
    val = loss(x, c1, c2, n)
    assert 0.0 <= val <= 1.0 + 1e-12
    lower, upper = loss_bounds(x, n)
    assert lower <= val + 1e-12
    assert val <= upper + 1e-12


def test_loss_is_one_on_severe_set():
    assert loss(0.0, 1.0, 0.0, 10) == 1.0
    assert loss(math.pi, 2.0, 0.1, 5) == 1.0


def test_loss_vanishes_on_zero_loss_set_for_constant_weights():
    for q in range(1, 10):
        assert loss(q * math.pi / 10.0, 1.0, 0.0, 10) < 1e-14


def test_loss_symmetries():
    for x in (0.3, 1.1, 2.2):
        base = loss(x, 1.3, 0.04, 10)
        assert loss(x + math.pi, 1.3, 0.04, 10) == pytest.approx(base, abs=1e-12)
        assert loss(-x, 1.3, 0.04, 10) == pytest.approx(base, abs=1e-12)


# mixed severe, near-pole and plain points
MIXED_X = (0.0, math.pi, 1e-6, math.pi - 1e-5, math.pi / 10.0,
           0.4, 1.3, 2.7, 3.0, math.pi + 0.02, 2.0 * math.pi - 1e-4)
# loss(x, 1.2, 0.05, 10) at MIXED_X, from the scalar and the array kernel alike
MIXED_LOSS_HEX = (
    "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.ffffffffddcb7p-1",
    "0x1.fffffff2a37cfp-1", "0x1.1424fbd0ff870p-3", "0x1.9b6098462deb1p-3",
    "0x1.ddcea60485880p-5", "0x1.caa52b7cd52e8p-3", "0x1.6f9bfb8f5176dp-1",
    "0x1.fcd21af7d0a41p-1", "0x1.fffffac7dcd24p-1")


def test_loss_dispatches_on_input_type():
    want = [float.fromhex(h) for h in MIXED_LOSS_HEX]
    # floats take the scalar kernel and give floats
    for x, w in zip(MIXED_X, want):
        got = loss(x, 1.2, 0.05, 10)
        assert type(got) is float and got == w
    # an array in any argument takes the array kernel and gives an array
    x = np.array(MIXED_X)
    for got in (loss(x, 1.2, 0.05, 10), loss(x, np.float64(1.2), 0.05, 10),
                loss(x, np.full(x.shape, 1.2), 0.05, 10),
                loss(x, 1.2, np.full(x.shape, 0.05), 10)):
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        assert got.tolist() == want
    for i, xi in enumerate(MIXED_X):
        for got in (loss(xi, np.array([1.2]), 0.05, 10), loss(xi, 1.2, np.array([0.05]), 10)):
            assert isinstance(got, np.ndarray) and got.tolist() == [want[i]]
    # numpy scalars are not arrays: they stay on the scalar kernel
    assert loss(np.float64(0.4), np.float64(1.2), np.float64(0.05), 10) == want[5]
    assert not isinstance(loss(np.float64(0.4), 1.2, 0.05, 10), np.ndarray)


def test_loss_on_arrays_matches_scalar_everywhere():
    # mixed severe, near-pole and plain points through the vector path
    x = np.array(MIXED_X)
    got = loss(x, 1.2, 0.05, 10)
    want = np.array([loss(float(v), 1.2, 0.05, 10) for v in x])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
    # per-point weights broadcast against x
    c1, c2 = np.array([[0.5], [1.2], [3.0]]), np.array([[-0.02], [0.05], [0.3]])
    got = loss(x, c1, c2, 10)
    want = np.array([[loss(float(v), a, b, 10) for v in x] for a, b in zip(c1[:, 0], c2[:, 0])])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


def test_constant_weight_loss_keeps_the_general_formulas_bits():
    # with every c2 zero, of either sign, the array loss never computes f2; it
    # must still give the general formula's bits, in its broadcast shape, and
    # the scalar loss's bits at each float
    q = np.arange(-3.0, 4.0) * math.pi
    x = np.concatenate([q, q + 3e-10, q - 7e-10,  # on the poles and in the severe band
                        q + 2e-4, q - 9e-4,  # in the f2 series band
                        -np.linspace(0.01, 7.0, 37), [1e3 + 0.1, -2e5, 1e8 + 0.25, 1e15]])
    for n in range(2, 17):
        f1v, f2v, severe = _dirichlet_values(x, n)
        for c1 in (1.3, np.full(x.shape, 0.7), np.array([[0.7], [1.3]])):
            for c2 in (0.0, -0.0, np.zeros(x.shape), -np.zeros((2, 1))):
                got = loss(x, c1, c2, n)
                want = np.where(severe, 1.0, np.hypot(c1 * f1v, c2 * f2v) / (c1 * n))
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                scalar = [loss(float(xi), float(c1i), float(c2i), n) for xi, c1i, c2i
                          in zip(*(a.ravel() for a in np.broadcast_arrays(x, c1, c2)))]
                assert np.array(scalar).tobytes() == got.tobytes()
    # the constant-weight pass checks x and c1 as the general one does
    with pytest.raises(NonFiniteX):
        loss(np.array([0.3, math.nan]), 1.0, -0.0, 5)
    with pytest.raises(NonPositiveC1):
        loss(np.array([0.3, 0.6]), np.array([1.0, 0.0]), np.zeros(2), 5)


def test_loss_on_arrays_rejects_nonpositive_mean_weight():
    with pytest.raises(NonPositiveC1):
        loss(np.array([0.5]), 0.0, 0.0, 10)
    with pytest.raises(NonPositiveC1):
        loss(np.array([0.5]), math.nan, 0.0, 10)
    with pytest.raises(NonPositiveC1):
        loss(np.array([0.5]), math.inf, 0.0, 10)
    for c2 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            loss(np.array([0.5]), 1.0, c2, 10)
    # one bad entry of a weight array is enough
    x = np.array([0.5, 0.6, 0.7])
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(NonPositiveC1):
            loss(x, np.array([1.0, bad, 2.0]), 0.0, 10)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            loss(x, np.array([1.0, 1.0, 2.0]), np.array([0.0, bad, 0.1]), 10)


def test_loss_bounds_severe_collapse():
    assert loss_bounds(math.pi, 10) == (1.0, 1.0)
    # the upper envelope divides by n - 1, the loss by n
    for n in (1, 0, -3):
        with pytest.raises(TooFewPackets):
            loss_bounds(0.3, n)
        with pytest.raises(TooFewPackets):
            loss(0.3, 1.0, 0.1, n)
        with pytest.raises(TooFewPackets):
            loss(np.array([0.3]), 1.0, 0.1, n)
        with pytest.raises(TooFewPackets):
            worst_case_y(0.3, 1.0, 0.1, n)


def test_interval_loss_bound_values():
    # max of the constant-weight ceiling 1/(n sin x) over the band that
    # stays pi/n away from the severe set, attained at the band edges
    assert interval_loss_bound(5) == pytest.approx(1.0 / (5.0 * math.sin(math.pi / 5.0)), abs=1e-15)
    assert interval_loss_bound(5) == pytest.approx(0.3402603233408164, abs=1e-12)
    assert interval_loss_bound(10) == pytest.approx(0.3236067977499790, abs=1e-12)
    for n in (1, 0):
        with pytest.raises(TooFewPackets):
            interval_loss_bound(n)


def test_interval_loss_bound_dominates_constant_weight_loss():
    n = 10
    x = np.linspace(math.pi / n, (n - 1) * math.pi / n, 4001)
    vals = loss(x, 1.0, 0.0, n)
    assert float(np.max(vals)) <= interval_loss_bound(n) + 1e-12


# ---------------------------------------------------------------------------
# slope sets and the design rule
# ---------------------------------------------------------------------------

def test_optimal_slope_set_values():
    got = optimal_slope_set(10, 0.1)
    assert got.shape == (9,)
    base = TWO_PI / (10 * 0.1)
    np.testing.assert_allclose(got, np.arange(1, 10) * base, rtol=0.0, atol=0.0)


def test_design_rule_even_packet_count_exact():
    got = design_rule_alpha_star(10, 0.1)
    assert got.shape == (1,)
    assert got[0] == 5 * (TWO_PI / (10 * 0.1))
    assert got[0] == 10.0 * math.pi


def test_design_rule_odd_packet_count_exact():
    got = design_rule_alpha_star(5, 0.1)
    assert got.shape == (2,)
    base = TWO_PI / (5 * 0.1)
    assert got[0] == 2 * base
    assert got[1] == 3 * base


def test_design_rule_members_are_zero_loss():
    for n in range(3, 13):
        for slope in design_rule_alpha_star(n, 0.1):
            assert in_zero_loss_set(0.5 * slope * 0.1, n)


def test_check_optimality():
    n, t = 10, 0.1
    base = TWO_PI / (n * t)
    assert check_optimality([0.0, base], n, t)
    assert check_optimality([0.0, base, 2.0 * base], n, t)
    assert not check_optimality([0.0, n * base], n, t)       # difference hits pi
    assert not check_optimality([0.0, 0.37 * base], n, t)
    with pytest.raises(ValueError):
        check_optimality([1.0], n, t)


def test_packet_counts_must_be_integers():
    # no burst has 2.5 packets, and a float count is not a count
    for n in (2.5, 10.0, np.float64(4.0)):
        for call in (lambda: loss(0.3, 1.0, 0.0, n),
                     lambda: loss(np.array([0.3]), 1.0, 0.0, n),
                     lambda: worst_case_y(0.3, 1.0, 0.1, n),
                     lambda: loss_bounds(0.3, n), lambda: interval_loss_bound(n)):
            with pytest.raises(ValueError, match="packet count"):
                call()
    assert loss(0.3, 1.0, 0.0, np.int64(10)) == loss(0.3, 1.0, 0.0, 10)


@pytest.mark.parametrize("call, takes_interval", [
    (optimal_slope_set, True), (design_rule_alpha_star, True),
    (lambda n, t: check_optimality([0.0, 1.0], n, t), True),
    (lambda n, t: affine_coefficients(1.0, 2.0, n, t), True),
    (lambda n, t: c_ratio_squared(0.1, n, t), True),
    (lambda n, t: f1(0.3, n), False), (lambda n, t: f2(0.3, n), False),
    (lambda n, t: j_affine(0.3, 0.0, 1.0, 0.0, n), False),
    (lambda n, t: in_zero_loss_set(0.3, n), False),
], ids=["optimal_slope_set", "design_rule_alpha_star", "check_optimality",
        "affine_coefficients", "c_ratio_squared", "f1", "f2", "j_affine", "in_zero_loss_set"])
def test_burst_calls_check_their_burst(call, takes_interval):
    # with n = 1 the design rule would pick slope 0, on the severe set, and
    # c_ratio_squared would divide by zero; f1(0.3, 2.5) would be 2.307
    for n in (1, 0, -2):
        with pytest.raises(TooFewPackets):
            call(n, 0.1)
    for n in (2.5, 4.0):
        with pytest.raises(ValueError, match="packet count"):
            call(n, 0.1)
    # a zero interval would divide by zero, a NaN one make every check False
    for t in (0.0, -0.1, math.nan, math.inf) if takes_interval else ():
        with pytest.raises(ValueError, match="packet interval"):
            call(4, t)
    call(np.int64(4), 0.1)


@pytest.mark.parametrize("call", [
    optimal_slope_set, design_rule_alpha_star,
    lambda n, t: check_optimality([0.0, 1.0], n, t),
    lambda n, t: affine_coefficients(1.0, 2.0, n, t),
    lambda n, t: c_ratio_squared(0.1, n, t),
], ids=["optimal_slope_set", "design_rule_alpha_star", "check_optimality",
        "affine_coefficients", "c_ratio_squared"])
def test_burst_calls_reject_an_overflowing_span(call):
    # 3 x 1e308 overflows, and optimal_slope_set(3, 1e308) would be [0, 0],
    # two slopes on the severe set
    for n, t in ((3, 1e308), (np.int64(3), 1e308), (10, np.float64(1.8e307))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no overflow warning on the way
            with pytest.raises(ValueError, match="overflow"):
                call(n, t)
    call(2, 8e307)
