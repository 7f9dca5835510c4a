"""Log-distance path gain model and its JSON exchange format."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from phasecomb import (NonPositiveDistance, PathlossModel, load_pathloss_config,
                       mean_path_gain)


def test_shadowing_mean_against_quadrature():
    # E[10^(X/10)] for X ~ N(0, sigma^2), integrated numerically
    for sigma in (1.0, 3.0, 6.0):
        model = PathlossModel(sigma_shadow_db=sigma)
        want, err = integrate.quad(
            lambda u: 10.0 ** (u / 10.0) * stats.norm.pdf(u, scale=sigma),
            -12.0 * sigma, 12.0 * sigma)
        assert err < 1e-6
        assert model.shadowing_mean == pytest.approx(want, rel=1e-7)


def test_shadowing_mean_default_value():
    assert PathlossModel().shadowing_mean == pytest.approx(1.2695, abs=1e-4)


def test_mean_path_gain_hand_value():
    model = PathlossModel()
    want = model.shadowing_mean * 10.0 ** -5.32 * (3.0 / 30.0) ** 2.27
    assert mean_path_gain(model, 30.0) == pytest.approx(want, rel=1e-12)


def test_mean_path_gain_clamps_below_reference_distance():
    model = PathlossModel()
    assert mean_path_gain(model, 1.0) == mean_path_gain(model, 3.0)
    assert mean_path_gain(model, 2.9) == mean_path_gain(model, model.d_ref)


def test_mean_path_gain_strictly_decreasing_past_reference():
    model = PathlossModel()
    d = np.linspace(model.d_ref, 300.0, 200)
    g = mean_path_gain(model, d)
    assert np.all(np.diff(g) < 0.0)


def test_mean_path_gain_vectorized():
    model = PathlossModel()
    d = np.array([5.0, 20.0, 100.0])
    g = mean_path_gain(model, d)
    assert g.shape == (3,)
    for i, di in enumerate(d):
        assert g[i] == mean_path_gain(model, float(di))


def test_mean_path_gain_rejects_nonpositive_distance():
    model = PathlossModel()
    with pytest.raises(NonPositiveDistance):
        mean_path_gain(model, 0.0)
    with pytest.raises(NonPositiveDistance):
        mean_path_gain(model, np.array([5.0, -1.0]))


def test_model_validation():
    with pytest.raises(ValueError):
        PathlossModel(ref_gain=0.0)
    with pytest.raises(ValueError):
        PathlossModel(d_ref=-3.0)
    with pytest.raises(ValueError):
        PathlossModel(sigma_shadow_db=-1.0)
    for field in ("ref_gain", "d_ref", "exponent", "sigma_shadow_db", "validity_m"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                PathlossModel(**{field: value})


def test_config_loads_every_key(tmp_path):
    model = PathlossModel(ref_gain=10.0 ** -4.8, d_ref=5.0, exponent=2.0,
                          sigma_shadow_db=4.0, validity_m=120.0)
    path = tmp_path / "pl.json"
    path.write_text('{"a0_log10": -4.8, "d_ref_m": 5.0, "n_e": 2.0, '
                    '"sigma_sh_db": 4.0, "validity_m": 120.0}\n', encoding="utf-8")
    loaded = load_pathloss_config(path)
    assert loaded.ref_gain == pytest.approx(model.ref_gain, rel=1e-14)
    assert loaded.d_ref == model.d_ref
    assert loaded.exponent == model.exponent
    assert loaded.sigma_shadow_db == model.sigma_shadow_db
    assert loaded.validity_m == model.validity_m


def test_config_missing_keys_fall_back_to_defaults(tmp_path):
    path = tmp_path / "pl.json"
    path.write_text('{"n_e": 2.0}\n', encoding="utf-8")
    model = load_pathloss_config(path)
    defaults = PathlossModel()
    assert model.exponent == 2.0
    assert model.ref_gain == defaults.ref_gain
    assert model.d_ref == defaults.d_ref
    assert model.sigma_shadow_db == defaults.sigma_shadow_db


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "pl.json"
    path.write_text('{"n_e": 2.0, "bogus": 1}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="bogus"):
        load_pathloss_config(path)


@pytest.mark.parametrize("text", [
    '{"a0_log10": 400}', '{"n_e": 1e400}', '{"d_ref_m": 1%s}' % ("0" * 400),
    '{"a0_log10": "x"}', '{"n_e": null}', '{"n_e": [1]}', "5", "[]",
    '{"a0_log10": true}', '{"validity_m": false}',
], ids=["a0-overflow", "n_e-inf", "d_ref-huge-int", "a0-string", "n_e-null",
        "n_e-list", "top-level-number", "top-level-list", "a0-true", "validity-false"])
def test_config_rejects_malformed_values(tmp_path, text):
    # a JSON object of numbers (booleans excluded) with finite 10**a0_log10
    path = tmp_path / "pl.json"
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_pathloss_config(path)

