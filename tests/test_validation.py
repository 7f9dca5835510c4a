"""The self-check battery must pass for any seed, not just the default."""

import pytest

from phasecomb import experiments, run_validation


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_battery_passes_for_any_seed(seed):
    results = run_validation(seed=seed)
    assert len(results) == 12
    names = [r.name for r in results]
    assert len(set(names)) == len(names)
    failed = [r.name for r in results if not r.passed]
    assert failed == []


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
