"""The self-check battery must pass for any seed, not just the default."""

import pytest

from phasecomb import cli, experiments, run_validation


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


def test_battery_reports_details():
    for res in run_validation(seed=42):
        assert res.detail


def test_floor_symmetry_reads_the_package_floors(monkeypatch):
    # the check must fail when the package's universal floor is not symmetric in q
    real = experiments.pl_slope_losses

    def lopsided(n_packets, **kwargs):
        result = real(n_packets, **kwargs)
        result.series["floor_universal_db"][0] += 1e-6
        return result

    monkeypatch.setattr(experiments, "pl_slope_losses", lopsided)
    check = next(r for r in run_validation(seed=42) if r.name == "slope_floor_symmetry")
    assert not check.passed
