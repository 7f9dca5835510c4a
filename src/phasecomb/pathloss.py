"""Mean path gain over distance: log-distance decay with shadowing folded in.

The model is the standard urban microcell parametrization

    gain(d) = mu_sh * ref_gain * (d_ref / d) ** exponent,

where mu_sh = E[10^(X/10)] for lognormal shadowing X ~ N(0, sigma_sh^2 dB)
is the shadowing mean-power factor.  Below the reference distance the model
saturates at its d_ref value; it is calibrated only out to validity_m, and
sweeps that leave that range flag it in their metadata.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDistance


@dataclass(frozen=True)
class PathlossModel:
    ref_gain: float = 10.0 ** -5.32   # mean path gain at d_ref (linear power ratio)
    d_ref: float = 3.0                # m
    exponent: float = 2.27
    sigma_shadow_db: float = 3.0
    validity_m: float = 177.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.ref_gain, self.d_ref, self.exponent,
                                       self.sigma_shadow_db, self.validity_m))):
            raise ValueError("pathloss parameters must be finite")
        if self.ref_gain <= 0.0:
            raise ValueError("reference gain must be positive")
        if self.d_ref <= 0.0:
            raise ValueError("reference distance must be positive")
        if self.sigma_shadow_db < 0.0:
            raise ValueError("shadowing sigma cannot be negative")

    @property
    def shadowing_mean(self) -> float:
        """E[10^(X/10)] for X ~ N(0, sigma^2): exp((ln10 * sigma)^2 / 200)."""
        return math.exp((math.log(10.0) * self.sigma_shadow_db) ** 2 / 200.0)


def mean_path_gain(model: PathlossModel, distance):
    """Mean path gain at the given distance(s), clamped below d_ref."""
    d = np.asarray(distance, dtype=float)
    if (d <= 0.0).any():
        raise NonPositiveDistance("path gain requires a positive distance")
    eff = np.maximum(d, model.d_ref)
    g = model.shadowing_mean * model.ref_gain * (model.d_ref / eff) ** model.exponent
    return float(g) if d.ndim == 0 else g


# JSON config keys for a PathlossModel; a0_log10 is log10 of ref_gain.
_CONFIG_KEYS = ("a0_log10", "d_ref_m", "n_e", "sigma_sh_db", "validity_m")


def load_pathloss_config(path: str | os.PathLike) -> PathlossModel:
    """Read a PathlossModel from a JSON object of numbers; absent keys keep
    defaults.  Any malformed config raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("pathloss config must be a JSON object")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown pathloss config keys: {sorted(unknown)}")
    for key, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"pathloss config {key!r} must be a number, not {value!r}")
    defaults = PathlossModel()
    try:
        return PathlossModel(
            ref_gain=10.0 ** raw["a0_log10"] if "a0_log10" in raw else defaults.ref_gain,
            d_ref=float(raw.get("d_ref_m", defaults.d_ref)),
            exponent=float(raw.get("n_e", defaults.exponent)),
            sigma_shadow_db=float(raw.get("sigma_sh_db", defaults.sigma_shadow_db)),
            validity_m=float(raw.get("validity_m", defaults.validity_m)),
        )
    except OverflowError:
        raise ValueError("pathloss config values must be finite") from None
