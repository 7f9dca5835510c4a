"""The self-check battery must pass for any seed, not just the default."""

import numpy as np
import pytest

from phasecomb import cli, experiments, run_validation, snr


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_battery_passes_for_any_seed(seed):
    results = run_validation(seed=seed)
    assert len(results) == 12
    names = [r.name for r in results]
    assert len(set(names)) == len(names)
    failed = [r.name for r in results if not r.passed]
    assert failed == []


# `validate --seed 42` byte for byte: the detail strings carry each check's
# margin, so a change to any check's numbers shows here
VALIDATE_SEED_42 = (
    "PASS closed_form_matches_direct_sum: max abs deviation 9.948e-14 over 200 draws\n"
    "PASS worst_case_y_matches_grid_scan: worst margin to curvature bound -6.407e-09\n"
    "PASS f2_matches_f1_finite_difference: max mixed-tolerance error 4.122e-10\n"
    "PASS loss_in_unit_interval_and_sets: range [0,1]; zero-loss and severe sets classified\n"
    "PASS loss_periodic_and_symmetric: max deviation 2.442e-15 (period pi, mirror at pi/2)\n"
    "PASS loss_between_envelope_bounds: lower <= loss <= upper on admissible weights\n"
    "PASS weight_ratio_monotone: (c2/c1)^2 falls on (-edge, 0], rises on [0, inf)\n"
    "PASS design_rule_minimizes_worst_loss: chosen slopes attain the minimax over the drift sweep\n"
    "PASS omega_antisymmetric_and_wavelength_scaled: max deviation 0.000e+00\n"
    "PASS taylor_slopes_match_finite_difference: max relative error 1.303e-07\n"
    "PASS interval_bound_dominates_loss: ceiling 1/(n sin(pi/n)) holds on [pi/n, (n-1)pi/n]\n"
    "PASS slope_floor_symmetry: q vs n-q asymmetry 3.109e-15\n"
    "12/12 checks passed (seed 42)\n"
)


def test_validate_output_is_pinned_byte_for_byte(capsys):
    assert cli.main(["validate", "--seed", "42"]) == 0
    assert capsys.readouterr().out == VALIDATE_SEED_42

# the other seeds the battery test runs, byte for byte, so a check that draws
# or sums differently shows on them too
VALIDATE_OTHER_SEEDS = {
    0: (
        "PASS closed_form_matches_direct_sum: max abs deviation 5.045e-13 over 200 draws\n"
        "PASS worst_case_y_matches_grid_scan: worst margin to curvature bound -4.786e-09\n"
        "PASS f2_matches_f1_finite_difference: max mixed-tolerance error 2.946e-10\n"
        "PASS loss_in_unit_interval_and_sets: range [0,1]; zero-loss and severe sets classified\n"
        "PASS loss_periodic_and_symmetric: max deviation 2.498e-15 (period pi, mirror at pi/2)\n"
        "PASS loss_between_envelope_bounds: lower <= loss <= upper on admissible weights\n"
        "PASS weight_ratio_monotone: (c2/c1)^2 falls on (-edge, 0], rises on [0, inf)\n"
        "PASS design_rule_minimizes_worst_loss: chosen slopes attain the minimax over the drift sweep\n"
        "PASS omega_antisymmetric_and_wavelength_scaled: max deviation 0.000e+00\n"
        "PASS taylor_slopes_match_finite_difference: max relative error 1.044e-07\n"
        "PASS interval_bound_dominates_loss: ceiling 1/(n sin(pi/n)) holds on [pi/n, (n-1)pi/n]\n"
        "PASS slope_floor_symmetry: q vs n-q asymmetry 3.109e-15\n"
        "12/12 checks passed (seed 0)\n"
    ),
    7: (
        "PASS closed_form_matches_direct_sum: max abs deviation 3.837e-13 over 200 draws\n"
        "PASS worst_case_y_matches_grid_scan: worst margin to curvature bound -1.554e-08\n"
        "PASS f2_matches_f1_finite_difference: max mixed-tolerance error 2.572e-10\n"
        "PASS loss_in_unit_interval_and_sets: range [0,1]; zero-loss and severe sets classified\n"
        "PASS loss_periodic_and_symmetric: max deviation 2.442e-15 (period pi, mirror at pi/2)\n"
        "PASS loss_between_envelope_bounds: lower <= loss <= upper on admissible weights\n"
        "PASS weight_ratio_monotone: (c2/c1)^2 falls on (-edge, 0], rises on [0, inf)\n"
        "PASS design_rule_minimizes_worst_loss: chosen slopes attain the minimax over the drift sweep\n"
        "PASS omega_antisymmetric_and_wavelength_scaled: max deviation 0.000e+00\n"
        "PASS taylor_slopes_match_finite_difference: max relative error 8.618e-08\n"
        "PASS interval_bound_dominates_loss: ceiling 1/(n sin(pi/n)) holds on [pi/n, (n-1)pi/n]\n"
        "PASS slope_floor_symmetry: q vs n-q asymmetry 3.109e-15\n"
        "12/12 checks passed (seed 7)\n"
    ),
    12345: (
        "PASS closed_form_matches_direct_sum: max abs deviation 1.634e-13 over 200 draws\n"
        "PASS worst_case_y_matches_grid_scan: worst margin to curvature bound -1.198e-08\n"
        "PASS f2_matches_f1_finite_difference: max mixed-tolerance error 2.297e-10\n"
        "PASS loss_in_unit_interval_and_sets: range [0,1]; zero-loss and severe sets classified\n"
        "PASS loss_periodic_and_symmetric: max deviation 2.665e-15 (period pi, mirror at pi/2)\n"
        "PASS loss_between_envelope_bounds: lower <= loss <= upper on admissible weights\n"
        "PASS weight_ratio_monotone: (c2/c1)^2 falls on (-edge, 0], rises on [0, inf)\n"
        "PASS design_rule_minimizes_worst_loss: chosen slopes attain the minimax over the drift sweep\n"
        "PASS omega_antisymmetric_and_wavelength_scaled: max deviation 0.000e+00\n"
        "PASS taylor_slopes_match_finite_difference: max relative error 1.100e-07\n"
        "PASS interval_bound_dominates_loss: ceiling 1/(n sin(pi/n)) holds on [pi/n, (n-1)pi/n]\n"
        "PASS slope_floor_symmetry: q vs n-q asymmetry 3.109e-15\n"
        "12/12 checks passed (seed 12345)\n"
    ),
}


@pytest.mark.parametrize("seed", sorted(VALIDATE_OTHER_SEEDS))
def test_validate_output_is_pinned_for_other_seeds(capsys, seed):
    assert cli.main(["validate", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == VALIDATE_OTHER_SEEDS[seed]


def test_battery_reports_details():
    for res in run_validation(seed=42):
        assert res.detail


def _check(name):
    return next(r for r in run_validation(seed=42) if r.name == name)


def test_floor_symmetry_reads_the_package_floors(monkeypatch):
    # the check must fail when the package's universal floor is not symmetric in q
    real = experiments.pl_slope_losses

    def lopsided(n_packets, **kwargs):
        result = real(n_packets, **kwargs)
        result.series["floor_universal_db"][0] += 1e-6
        return result

    monkeypatch.setattr(experiments, "pl_slope_losses", lopsided)
    assert not _check("slope_floor_symmetry").passed


@pytest.mark.parametrize("shift, passes", [(0.0, True), (1e-9, False), (-1e-9, False)])
def test_direct_sum_check_reads_the_package_closed_form(monkeypatch, shift, passes):
    # the check allows 1e-10 between the direct sums and snr.j_affine
    exact = snr.j_affine
    monkeypatch.setattr(snr, "j_affine", lambda *args: exact(*args) + shift)
    assert _check("closed_form_matches_direct_sum").passed is passes


@pytest.mark.parametrize("shift, passes", [(0.0, True), (1e-4, False)])
def test_derivative_check_reads_the_package_f2(monkeypatch, shift, passes):
    # the check allows a mixed error of 1e-5 between snr.f2 and a difference of snr.f1
    exact = snr.f2
    monkeypatch.setattr(snr, "f2", lambda x, n: exact(x, n) + shift)
    assert _check("f2_matches_f1_finite_difference").passed is passes


@pytest.mark.parametrize("shift, passes", [(0.0, True), (1e-4, False), (-1e-4, False)])
def test_range_check_reads_the_constant_weight_array_loss(monkeypatch, shift, passes):
    # only the array calls with every c2 zero move: at seed 42 their values
    # reach within 1.1e-5 of 1 and 5.6e-5 of 0, so either shift leaves [0, 1]
    exact = snr.loss

    def shifted(x, c1, c2, n):
        value = exact(x, c1, c2, n)
        return value + shift if isinstance(x, np.ndarray) and not np.any(c2) else value

    monkeypatch.setattr(snr, "loss", shifted)
    assert _check("loss_in_unit_interval_and_sets").passed is passes
