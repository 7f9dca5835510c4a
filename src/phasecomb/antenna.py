"""Azimuth antenna patterns: tabulated complex branch responses vs AOA.

A pattern stores the field magnitude |g| and the phase of g on a strictly
increasing azimuth grid in [0, 2 pi) and is evaluated by periodic linear
interpolation (magnitude and unwrapped phase separately).  The CSV exchange
format is one header row ``azimuth_deg,gain_dbi,phase_deg`` followed by
numeric rows; gain_dbi tabulates |g|^2 in dBi, so |g| = 10^(dBi/20).
"""

from __future__ import annotations

import csv
import math
import os
import weakref
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

from . import geometry
from .errors import EmptyPattern, MalformedRow, NonMonotonicAzimuth

TWO_PI = 2.0 * math.pi

PATTERN_HEADER = ("azimuth_deg", "gain_dbi", "phase_deg")
BUILTIN_PATTERNS = ("isotropic", "cardioid", "patch_front", "patch_rear")  # in patterns/


@dataclass(frozen=True, eq=False)
class AntennaPattern:
    """Tabulated azimuth response: strictly increasing grid, linear |g|, phase.

    phase is stored unwrapped along the grid; the wraparound segment between
    the last and (periodically repeated) first sample keeps the accumulated
    winding, so interpolated phase is continuous everywhere.  A pattern is
    immutable: it holds read-only copies of the arrays it is given, so the
    values it derives and keeps stay valid.
    """

    azimuth: np.ndarray    # radians in [0, 2 pi), strictly increasing
    magnitude: np.ndarray  # linear field magnitude, >= 0
    phase: np.ndarray      # radians, unwrapped along the grid

    def __post_init__(self) -> None:
        az = np.array(self.azimuth, dtype=float)
        mag = np.array(self.magnitude, dtype=float)
        ph = np.array(self.phase, dtype=float)
        if az.size == 0:
            raise EmptyPattern("pattern has no samples")
        if az.shape != mag.shape or az.shape != ph.shape:
            raise ValueError("azimuth, magnitude and phase must have equal length")
        if np.any(az < 0.0) or np.any(az >= TWO_PI):
            raise ValueError("azimuth grid must lie in [0, 2 pi)")
        if az.size > 1 and np.any(np.diff(az) <= 0.0):
            raise NonMonotonicAzimuth("azimuth grid must be strictly increasing")
        if np.any(mag < 0.0):
            raise ValueError("field magnitude cannot be negative")
        if not (np.all(np.isfinite(az)) and np.all(np.isfinite(mag))
                and np.all(np.isfinite(ph))):
            raise ValueError("pattern samples must be finite")
        for name, values in (("azimuth", az), ("magnitude", mag), ("phase", ph)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    @cached_property
    def _extended(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Close the grid periodically; the repeated first sample carries the
        # integer phase winding closest to the tabulated endpoint.
        az = np.append(self.azimuth, self.azimuth[0] + TWO_PI)
        mag = np.append(self.magnitude, self.magnitude[0])
        if self.azimuth.size > 1:
            winding = round(float(self.phase[-1] - self.phase[0]) / TWO_PI)
        else:
            winding = 0
        ph = np.append(self.phase, self.phase[0] + winding * TWO_PI)
        return az, mag, ph

    @cached_property
    def _partners(self) -> weakref.WeakKeyDictionary:
        # partner pattern -> invariants of the ordered pair (self, partner);
        # an entry lives as long as its partner does
        return weakref.WeakKeyDictionary()

    def __reduce__(self):
        # pickle and copy rebuild from the samples; the kept pair invariants,
        # held by weak reference, stay behind
        return AntennaPattern, (self.azimuth, self.magnitude, self.phase)

    def evaluate(self, phi):
        """Interpolated (magnitude, phase) at azimuth phi, periodic in 2 pi."""
        az, mag, ph = self._extended
        p = np.mod(np.asarray(phi, dtype=float) - az[0], TWO_PI) + az[0]
        m = np.interp(p, az, mag)
        f = np.interp(p, az, ph)
        return (float(m), float(f)) if p.ndim == 0 else (m, f)


def combined_mean_gain(pattern0: AntennaPattern, pattern1: AntennaPattern, phi):
    """Mean of the two branch power gains at AOA phi: (|g0|^2 + |g1|^2) / 2."""
    m0, _ = pattern0.evaluate(phi)
    m1, _ = pattern1.evaluate(phi)
    return 0.5 * (m0 ** 2 + m1 ** 2)


def worst_case_aoa(pattern0: AntennaPattern, pattern1: AntennaPattern) -> float:
    """AOA minimizing the combined mean gain, in [0, 2 pi); ties keep the
    smallest angle.  Found on the pair's first use and kept after that."""
    return _pair_invariants(pattern0, pattern1)[0]


def _pair_invariants(pattern0: AntennaPattern,
                     pattern1: AntennaPattern) -> tuple[float, float | None]:
    """(phi_min, gain) of the ordered pair: its worst-case AOA and the combined
    mean gain there, or None for the gain when it is 0 and cannot normalise
    a burst.  Computed on the pair's first use and kept with pattern0 for as
    long as pattern1 lives."""
    partners = pattern0._partners
    invariants = partners.get(pattern1)
    if invariants is None:
        phi = _find_worst_case_aoa(pattern0, pattern1)
        gain = combined_mean_gain(pattern0, pattern1, phi)
        invariants = partners[pattern1] = phi, (gain if gain > 0.0 else None)
    return invariants


def _find_worst_case_aoa(pattern0: AntennaPattern, pattern1: AntennaPattern) -> float:
    """The worst-case AOA search.  Between the merged azimuth nodes of both
    patterns each magnitude is linear, so the gain is a convex quadratic on
    each segment (wraparound included), minimal at its vertex clipped to the
    segment or, on a flat segment, at its start."""
    nodes = np.unique(np.concatenate(([0.0, TWO_PI], pattern0.azimuth, pattern1.azimuth)))
    m = np.array([pattern0.evaluate(nodes)[0], pattern1.evaluate(nodes)[0]])
    d = np.diff(m)
    curvature = np.sum(d * d, axis=0)
    vertex = np.divide(-np.sum(m[:, :-1] * d, axis=0), curvature,
                       out=np.zeros_like(curvature), where=curvature > 0.0)
    t = np.clip(vertex, 0.0, 1.0)
    # (1 - t) a + t b lands exactly on the node values at t = 0 and t = 1
    g = (1.0 - t) * m[:, :-1] + t * m[:, 1:]
    i = int(np.argmin(g[0] * g[0] + g[1] * g[1]))
    phi = (1.0 - t[i]) * nodes[i] + t[i] * nodes[i + 1]
    return float(phi) if phi < TWO_PI else 0.0


def _sample_burst(pattern0: AntennaPattern, pattern1: AntennaPattern,
                  scen: geometry.ScenarioParams, tk, phi0: float):
    """(|g0|, phase0, |g1|, phase1) at the packet times tk along the AOA
    trajectory, turned so that packet 0 arrives from azimuth phi0."""
    aoa = geometry.aoa_exact(scen, tk)
    phi = np.mod(aoa + (phi0 - aoa[0]), TWO_PI)
    return (*pattern0.evaluate(phi), *pattern1.evaluate(phi))


# ---------------------------------------------------------------------------
# CSV exchange format
# ---------------------------------------------------------------------------

def load_pattern_csv(path: str | os.PathLike) -> AntennaPattern:
    """Read a pattern from CSV (header azimuth_deg,gain_dbi,phase_deg).

    Azimuth must be strictly increasing within [0, 360); gain_dbi is |g|^2
    in dBi; phase is unwrapped after conversion to radians.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return _parse_pattern_rows(csv.reader(fh), str(path))


def _parse_pattern_rows(reader, origin: str) -> AntennaPattern:
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyPattern(f"{origin}: no header row") from None
    if tuple(h.strip().lower() for h in header) != PATTERN_HEADER:
        raise MalformedRow(f"{origin}: header must be {','.join(PATTERN_HEADER)}")
    az_deg, gain_dbi, phase_deg = [], [], []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise MalformedRow(f"{origin}:{lineno}: expected 3 fields, got {len(row)}")
        try:
            a, g, p = (float(field) for field in row)
        except ValueError:
            raise MalformedRow(f"{origin}:{lineno}: non-numeric field") from None
        if not 0.0 <= a < 360.0:
            raise MalformedRow(f"{origin}:{lineno}: azimuth {a!r} outside [0, 360)")
        az_deg.append(a)
        gain_dbi.append(g)
        phase_deg.append(p)
    if not az_deg:
        raise EmptyPattern(f"{origin}: no data rows")
    az = np.asarray(az_deg)
    if az.size > 1 and np.any(np.diff(az) <= 0.0):
        raise NonMonotonicAzimuth(f"{origin}: azimuth must be strictly increasing")
    magnitude = 10.0 ** (np.asarray(gain_dbi) / 20.0)
    phase = np.unwrap(np.radians(phase_deg))
    return AntennaPattern(azimuth=np.radians(az), magnitude=magnitude, phase=phase)


def builtin_pattern(name: str) -> AntennaPattern:
    """Load one of the BUILTIN_PATTERNS shipped with the package by bare name."""
    if name not in BUILTIN_PATTERNS:
        raise FileNotFoundError(f"no builtin pattern named {name!r}")
    resource = resources.files("phasecomb").joinpath("patterns", f"{name}.csv")
    with resources.as_file(resource) as path:
        return load_pattern_csv(path)
