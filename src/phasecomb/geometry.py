"""Line-of-sight geometry between a moving transmitter and a two-antenna array.

The receiving vehicle is the origin of the frame.  The transmitter sits at
(d_x, d_y) at t = 0 and slides along +x with the relative speed delta_v, so
its position at time t is (d_x + delta_v * t, d_y).  The two receive
antennas are mounted on the lateral axis, antenna 0 at y = -delta_a / 2 and
antenna 1 at y = +delta_a / 2.

Units are SI throughout: meters, seconds, m/s, radians.  Speeds in km/h
are taken only by the CLI, the demo scripts and the sweep drivers in
experiments, which convert them; everything below those drivers is SI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, InvalidRequest, TooFewPackets

TWO_PI = 2.0 * math.pi
SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact by the SI definition of the meter


def kmh_to_mps(speed_kmh: float) -> float:
    """Convert a speed from km/h to m/s."""
    return speed_kmh * (1000.0 / 3600.0)


def carrier_wavelength(carrier_hz: float) -> float:
    """Free-space wavelength in meters for a carrier frequency in Hz."""
    if carrier_hz <= 0.0:
        raise ValueError("carrier frequency must be positive")
    return SPEED_OF_LIGHT / carrier_hz


@dataclass(frozen=True)
class ScenarioParams:
    """Broadcast scenario: constant-velocity geometry plus burst timing.

    A burst of n_packets packets is received t_interval seconds apart;
    packet k arrives at t = k * t_interval, k = 0 .. n_packets - 1.  d_x, d_y
    and delta_v may be arrays that broadcast together, a grid of scenarios;
    packet times then run along a new first axis, broadcasting to (n_packets, *grid).
    """

    d_x: float | np.ndarray
    d_y: float | np.ndarray
    delta_v: float | np.ndarray  # relative speed along x, m/s
    delta_a: float      # antenna separation, m
    wavelength: float   # carrier wavelength, m
    n_packets: int = 10
    t_interval: float = 0.1

    def __post_init__(self) -> None:
        fields = (self.d_x, self.d_y, self.delta_v, self.delta_a, self.wavelength, self.t_interval)
        if not all(np.isfinite(v).all() if isinstance(v, np.ndarray) else math.isfinite(v)
                   for v in fields):
            raise ValueError("scenario parameters must be finite")
        _check_burst(self.n_packets, self.t_interval)
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        if self.delta_a < 0.0:
            raise ValueError("antenna separation cannot be negative")

    @property
    def burst_window(self) -> float:
        """Time of the last packet, (n_packets - 1) * t_interval."""
        return (self.n_packets - 1) * self.t_interval

    def packet_times(self) -> np.ndarray:
        tk = np.arange(self.n_packets) * self.t_interval
        ndim = self._ndim()
        return tk.reshape(tk.shape + (1,) * ndim) if ndim else tk

    def _ndim(self) -> int:  # grid axes of the broadcast fields, 0 for one scenario
        return (0 if type(self.d_x) is type(self.d_y) is type(self.delta_v) is float
                else np.broadcast(self.d_x, self.d_y, self.delta_v).ndim)

    def _require_single(self) -> None:
        if self._ndim():
            raise InvalidRequest("expected one scenario, got arrays in d_x, d_y or delta_v")


def _check_burst(n_packets: int, t_interval: float = 1.0) -> None:
    """A burst of an integer n >= 2 packets a positive interval apart, n * interval finite."""
    if not isinstance(n_packets, (int, np.integer)):
        raise ValueError(f"packet count {n_packets!r} is not an integer")
    if n_packets < 2:
        raise TooFewPackets("a burst needs at least two packets")
    if not 0.0 < t_interval < math.inf:
        raise ValueError(f"packet interval {t_interval!r} is not a positive finite number")
    if not float(n_packets) * float(t_interval) < math.inf:  # floats: numpy warns on overflow
        raise ValueError(f"{n_packets} packets {t_interval!r} s apart overflow the burst span")


def transmitter_distance(scen: ScenarioParams, t):
    """Distance from the array center to the transmitter at time t."""
    u = scen.d_x + scen.delta_v * np.asarray(t, dtype=float)
    d = np.hypot(u, scen.d_y)
    return float(d) if d.ndim == 0 else d


def propagation_distances(scen: ScenarioParams, t):
    """Distances (d_0, d_1) from the transmitter to the two antennas at time t."""
    u = scen.d_x + scen.delta_v * np.asarray(t, dtype=float)
    half = 0.5 * scen.delta_a
    d0 = np.hypot(u, scen.d_y + half)
    d1 = np.hypot(u, scen.d_y - half)
    if (d0 == 0.0).any() or (d1 == 0.0).any():
        raise DegenerateGeometry("transmitter coincides with a receive antenna")
    return (float(d0), float(d1)) if d0.ndim == 0 else (d0, d1)


def _omega_slope(scen: ScenarioParams, t):
    """Time derivative of the branch phase difference at time t, elementwise:
    (2 pi / wavelength) * delta_v * u * (1/d_1 - 1/d_0)."""
    d0, d1 = propagation_distances(scen, t)
    u = scen.d_x + scen.delta_v * t
    return (TWO_PI / scen.wavelength) * scen.delta_v * u * (1.0 / d1 - 1.0 / d0)


def omega_exact(scen: ScenarioParams, t):
    """Dominant-path phase difference between the two branches at time t.

    2 pi / wavelength times the propagation distance difference d_1 - d_0.
    Antisymmetric in d_y and identically zero for delta_a = 0.
    """
    d0, d1 = propagation_distances(scen, t)
    out = (TWO_PI / scen.wavelength) * (d1 - d0)
    return float(out) if np.ndim(out) == 0 else out


def aoa_exact(scen: ScenarioParams, t):
    """Angle of arrival at the array center, wrapped to [0, 2 pi).

    Zero azimuth points along +x (the direction of relative motion).
    """
    u = scen.d_x + scen.delta_v * np.asarray(t, dtype=float)
    if ((u == 0.0) & (scen.d_y == 0.0)).any():
        raise DegenerateGeometry("transmitter crosses the array center")
    phi = np.mod(np.arctan2(scen.d_y, u), TWO_PI)
    return float(phi) if phi.ndim == 0 else phi
