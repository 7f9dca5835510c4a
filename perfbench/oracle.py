"""The benchmark's own reference for exact-path worst-case sum-SNR values.

The exact paths of the package minimise sum_k w_k cos(theta_k - y) over the
unknown offset y.  That minimum is exactly -hypot(sum w cos theta,
sum w sin theta), so the reference needs no search.  The per-packet weights
w and phases theta are rebuilt here from the scenario's fields with plain
numpy, following the model the package documents (free-space geometry,
log-distance path gain, periodic linear interpolation of the patterns).
Only the worst-case starting angle of the phi and combined modes is taken
from the package, because it is an input convention, not a result.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Transmit power over noise power that the combined mode scales by (118 dB).
DESIGN_SNR_SCALE = 10.0 ** 11.8

# Allowed deviation from the reference, as a share of the zero-loss value.
TOLERANCE = 1e-6


def min_cross_term(w, theta) -> float:
    """min over y of sum_k w_k cos(theta_k - y), in closed form."""
    return -math.hypot(float(np.sum(w * np.cos(theta))),
                       float(np.sum(w * np.sin(theta))))


def agrees(value: float, expected: float, reference: float) -> bool:
    """True when value is within TOLERANCE of the zero-loss reference."""
    return math.isfinite(value) and abs(value - expected) <= TOLERANCE * abs(reference)


def _geometry(scen):
    tk = np.arange(scen.n_packets) * scen.t_interval
    u = scen.d_x + scen.delta_v * tk
    half = 0.5 * scen.delta_a
    omega = (TWO_PI / scen.wavelength) * (np.hypot(u, scen.d_y - half)
                                          - np.hypot(u, scen.d_y + half))
    return tk, u, omega


def _path_gain(model, distance):
    shadow = math.exp((math.log(10.0) * model.sigma_shadow_db) ** 2 / 200.0)
    eff = np.maximum(distance, model.d_ref)
    return shadow * model.ref_gain * (model.d_ref / eff) ** model.exponent


def _interp(pattern, phi):
    az = np.append(pattern.azimuth, pattern.azimuth[0] + TWO_PI)
    mag = np.append(pattern.magnitude, pattern.magnitude[0])
    winding = round(float(pattern.phase[-1] - pattern.phase[0]) / TWO_PI)
    ph = np.append(pattern.phase, pattern.phase[0] + winding * TWO_PI)
    p = np.mod(phi - az[0], TWO_PI) + az[0]
    return np.interp(p, az, mag), np.interp(p, az, ph)


class Oracle:
    """Exact-path reference values; caches the worst-case angle per pair."""

    def __init__(self, antenna) -> None:
        self._antenna = antenna
        self._phi_min: dict = {}

    def _responses(self, scen, u, patterns):
        key = (id(patterns[0]), id(patterns[1]))
        if key not in self._phi_min:
            self._phi_min[key] = self._antenna.worst_case_aoa(*patterns)
        phi_min = self._phi_min[key]
        aoa = np.mod(np.arctan2(scen.d_y, u), TWO_PI)
        phi = np.mod(aoa + (phi_min - aoa[0]), TWO_PI)
        m0, p0 = _interp(patterns[0], phi)
        m1, p1 = _interp(patterns[1], phi)
        g0, _ = _interp(patterns[0], np.array([phi_min]))
        g1, _ = _interp(patterns[1], np.array([phi_min]))
        floor_gain = 0.5 * float(g0[0] ** 2 + g1[0] ** 2)
        return m0, p0, m1, p1, floor_gain

    def exact(self, mode: str, slope: float, scen, model=None,
              patterns=None) -> tuple[float, float]:
        """(worst-case sum-SNR, zero-loss value) on the exact path."""
        n = scen.n_packets
        tk, u, omega = _geometry(scen)
        if mode == "omega":
            return (n + min_cross_term(np.ones(n), omega - slope * tk)) / n, 1.0
        if mode == "pl":
            w = _path_gain(model, np.hypot(u, scen.d_y))
            norm = n * float(_path_gain(model, np.hypot(scen.d_x, scen.d_y)))
            gain = float(np.sum(w))
            return (gain + min_cross_term(w, omega - slope * tk)) / norm, gain / norm
        m0, p0, m1, p1, floor_gain = self._responses(scen, u, patterns)
        half_gain = 0.5 * (m0 ** 2 + m1 ** 2)
        if mode == "phi":
            norm = n * floor_gain
            gain = float(np.sum(half_gain))
            jmin = min_cross_term(m0 * m1, (p0 - p1) - slope * tk)
            return (gain + jmin) / norm, gain / norm
        if mode == "combined":
            pl = _path_gain(model, np.hypot(u, scen.d_y))
            gain = float(np.sum(pl * half_gain))
            jmin = min_cross_term(pl * m0 * m1, omega + (p0 - p1) - slope * tk)
            return DESIGN_SNR_SCALE * (gain + jmin), DESIGN_SNR_SCALE * gain
        raise ValueError(f"unknown mode {mode!r}")


def affine_terms(x: float, c1: float, c2: float, n: int):
    """(weights, phases) of the affine burst sum behind loss and worst_case_y."""
    k = np.arange(n)
    return c1 + c2 * (2.0 * k - (n - 1)), 2.0 * x * k
