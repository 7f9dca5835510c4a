"""End-to-end acceptance checks with pinned tolerances and time budgets.

One test per headline requirement, designed to be read as a checklist:
closed forms against brute force, the loss-ceiling numbers, the per-slope
floor table, the slope design rule and its dominance, distance thresholds
for the drift, pattern-dip separation, the invariant battery, and
byte-level determinism of the CLI output.  Run with -v for one line per
requirement.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import phasecomb
from phasecomb import (PathlossModel, ScenarioParams, a_omega_range, builtin_pattern,
                       carrier_wavelength, cli, design_rule_alpha_star,
                       interval_loss_bound, j_affine, loss,
                       pl_slope_losses, run_validation, speed_sweep,
                       threshold_distance, worst_case_y)

TWO_PI = 2.0 * math.pi


def test_closed_form_and_worst_offset_match_brute_force():
    # 1000 random (x, y, c1 > 0, c2) draws: the closed-form cross term must
    # match a term-by-term resummation to 1e-10, and its worst-case offset
    # value must agree with a 100k-point scan up to the grid curvature bound
    start = time.perf_counter()
    rng = np.random.default_rng(20240811)
    t = 0.1
    n_grid = 100_000
    h = TWO_PI / n_grid
    y_grid = np.arange(n_grid) * h
    cos_y, sin_y = np.cos(y_grid), np.sin(y_grid)

    worst_form = 0.0
    worst_gap = -math.inf
    for draw in range(1000):
        n = int(rng.integers(2, 21))
        while True:
            x = float(rng.uniform(0.0, math.pi))
            if abs(math.sin(x)) >= 1e-9:
                break
        y = float(rng.uniform(0.0, TWO_PI))
        c1 = float(rng.uniform(0.05, 5.0))
        c2 = float(rng.uniform(-2.0, 2.0))
        b = c1 - c2 * (n - 1)
        a = 2.0 * c2 / t
        k = np.arange(n)
        w = b + a * k * t

        direct = float(np.sum(w * np.cos(y - 2.0 * x * k)))
        worst_form = max(worst_form, abs(direct - j_affine(x, y, c1, c2, n)))

        y_min, j_min = worst_case_y(x, c1, c2, n)
        cw = float(np.sum(w * np.cos(2.0 * x * k)))
        sw = float(np.sum(w * np.sin(2.0 * x * k)))
        scan_min = float(np.min(cw * cos_y + sw * sin_y))
        sum_abs_w = float(np.sum(np.abs(w)))
        # second derivative of the scanned sum is bounded by sum |w_k|
        bound = 0.5 * sum_abs_w * h * h
        assert j_min <= scan_min + 1e-10
        assert scan_min - j_min <= bound
        worst_gap = max(worst_gap, scan_min - j_min - bound)
        if draw % 25 == 0:
            full = np.min(np.cos(y_grid[:, None] - 2.0 * x * k[None, :]) @ w)
            assert abs(float(full) - scan_min) < 1e-9

    elapsed = time.perf_counter() - start
    assert worst_form < 1e-10, f"closed form deviates by {worst_form:.3e}"
    assert elapsed < 5.0, f"brute-force comparison took {elapsed:.2f} s"


def test_interval_loss_ceiling_values_and_floors():
    # the constant-weight loss ceiling on the band [pi/n, (n-1)pi/n] peaks
    # at 1/(n sin(pi/n)); pinned values and dB floors for 5 and 10 packets
    for n, want_ceiling, want_floor_db in ((5, 0.340, -1.81), (10, 0.324, -1.70)):
        x = np.linspace(math.pi / n, (n - 1) * math.pi / n, 200001)
        ceiling_curve = 1.0 / (n * np.sin(x))
        computed_max = float(np.max(ceiling_curve))
        assert computed_max == pytest.approx(interval_loss_bound(n), abs=1e-9)
        assert computed_max == pytest.approx(want_ceiling, abs=1e-3)
        floor_db = 10.0 * math.log10(1.0 - computed_max)
        assert floor_db == pytest.approx(want_floor_db, abs=0.02)
        # and the ceiling really dominates the loss across the band
        assert np.all(loss(x, 1.0, 0.0, n) <= ceiling_curve + 1e-12)


def test_slope_floor_table_for_ten_packets():
    # worst-case floors for the zero-loss slopes q = 1..5 at ten packets,
    # against the pinned dB table, plus exact q <-> n-q symmetry
    res = pl_slope_losses(10)
    uni = np.asarray(res.series["floor_universal_db"])
    table = (-1.94, -0.91, -0.64, -0.54, -0.51)
    for q, want in enumerate(table, start=1):
        assert uni[q - 1] == pytest.approx(want, abs=0.01), f"q={q}"
    for q in range(1, 10):
        assert abs(uni[q - 1] - uni[9 - q]) < 1e-10


def test_design_rule_exactness_and_dominance():
    # the design rule returns the exact mid-set slopes, and those slopes
    # minimize the worst-case loss under bounded slope-offset drift for
    # every burst length from 3 to 12 packets
    start = time.perf_counter()
    t = 0.1

    got = design_rule_alpha_star(10, t)
    assert got.shape == (1,) and got[0] == 5 * (TWO_PI / (10 * t))
    got5 = design_rule_alpha_star(5, t)
    base5 = TWO_PI / (5 * t)
    assert got5.shape == (2,) and got5[0] == 2 * base5 and got5[1] == 3 * base5

    a_sweep = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 801)
    for n in range(3, 13):
        base = TWO_PI / (n * t)

        def worst_loss(slope: float) -> float:
            x = 0.5 * slope * t - a_sweep
            # drifts that land exactly on a pole of the kernel must be
            # included as the exact pole, where the loss is exactly 1
            poles = [q * math.pi for q in (-1, 0, 1, 2)
                     if abs(0.5 * slope * t - q * math.pi) <= math.pi / 2 - 0.01]
            x = np.concatenate([x, poles]) if poles else x
            return float(np.max(loss(x, 1.0, 0.0, n)))

        per_q = {q: worst_loss(q * base) for q in range(1, n)}
        best = min(per_q.values())
        for slope in design_rule_alpha_star(n, t):
            q = round(slope / base)
            assert per_q[q] <= best + 1e-12, f"n={n}, q={q}"

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"dominance check took {elapsed:.2f} s"


def test_drift_stays_bounded_past_threshold_distances():
    # with ten-wavelength separation at 5.9 GHz the phase-difference drift
    # per interval falls below pi/2 around 20 m and below pi/10 around 35 m
    lam = carrier_wavelength(5.9e9)
    sweep = a_omega_range(np.arange(1.0, 101.0), delta_a=10.0 * lam,
                          wavelength=lam)
    thr_half = threshold_distance(sweep, math.pi / 2.0)
    thr_tenth = threshold_distance(sweep, math.pi / 10.0)
    assert abs(thr_half - 20.0) <= 5.0, f"pi/2 threshold at {thr_half} m"
    assert abs(thr_tenth - 35.0) <= 5.0, f"pi/10 threshold at {thr_tenth} m"


def test_design_slope_separates_worst_case_dips():
    lam = carrier_wavelength(5.9e9)
    base = ScenarioParams(d_x=30.0, d_y=-4.0, delta_v=0.0, delta_a=10.0 * lam,
                          wavelength=lam, n_packets=10, t_interval=0.1)
    naive = TWO_PI / (10 * 0.1)
    chosen = float(design_rule_alpha_star(10, 0.1)[0])
    dv = np.arange(-60.0, 61.0, 1.0)

    # non-isotropic branch patterns, everything varying: the naive slope
    # dips at least 5 dB deeper below nominal than the design-rule slope
    res = speed_sweep("combined", {"naive": naive, "chosen": chosen}, dv, base,
                      model=PathlossModel(),
                      patterns=(builtin_pattern("patch_front"),
                                builtin_pattern("patch_rear")),
                      paths=("exact",), d_y_values=(-4.0, 4.0))
    ref = res.series["reference_db"]
    dip_naive = float(np.max(ref - res.series["naive_exact_db"]))
    dip_chosen = float(np.max(ref - res.series["chosen_exact_db"]))
    assert dip_naive - dip_chosen >= 5.0, (
        f"dips {dip_naive:.2f} vs {dip_chosen:.2f} dB")

    # identical branch gains (pattern drops out): phase-difference drift
    # alone sends the naive slope below -20 dB at its worst speed while
    # the design-rule slope never loses 2 dB
    res = speed_sweep("omega", {"naive": naive, "chosen": chosen}, dv, base,
                      d_y_values=(-4.0, 4.0))
    assert float(np.min(res.series["naive_affine_db"])) <= -20.0
    for path in ("exact", "affine"):
        assert float(np.min(res.series[f"chosen_{path}_db"])) >= -2.0


def test_invariant_battery_passes_within_budget():
    start = time.perf_counter()
    results = run_validation(seed=42)
    elapsed = time.perf_counter() - start
    failed = [r.name for r in results if not r.passed]
    assert len(results) == 12
    assert failed == [], f"failed checks: {failed}"
    assert elapsed < 30.0, f"battery took {elapsed:.2f} s"


def test_cli_outputs_are_byte_deterministic(tmp_path):
    # two runs of the same subcommand with the same arguments must produce
    # byte-identical CSV files
    cases = (
        ["loss-curve", "--packets", "10", "--step", "0.01"],
        ["pl-losses", "--packets", "10"],
        ["a-omega-range", "--dx-min", "10", "--dx-max", "50", "--dx-step",
         "10", "--dv-step", "15"],
        ["a-omega-range"],
        ["speed-sweep", "--mode", "omega", "--dv-min", "-30", "--dv-max",
         "30", "--dv-step", "30"],
    )
    for i, args in enumerate(cases):
        a = tmp_path / f"run_a_{i}.csv"
        b = tmp_path / f"run_b_{i}.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"nondeterministic: {args[0]}"


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone
    src = os.path.dirname(os.path.dirname(phasecomb.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, phasecomb; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
