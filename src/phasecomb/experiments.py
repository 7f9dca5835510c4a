"""Sweep drivers producing tabulated results for plots, demos and the CLI.

Every driver returns a SweepResult: one independent column, one column per
series, plus free-form metadata.  CSV output is deterministic (full-precision
repr floats, no wall-clock stamps) and written atomically.
"""

from __future__ import annotations

import math
import os
import tempfile
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import affine, antenna, geometry, pathloss, snr
from .errors import InvalidRequest, PhasecombError

_BLOCK_CELLS = 1 << 18  # array elements a sweep evaluates at once
_CSV_ROWS = 1 << 10  # table rows to_csv formats at once


@dataclass
class SweepResult:
    name: str
    independent: str
    values: np.ndarray
    series: dict[str, np.ndarray]
    metadata: dict[str, object] = field(default_factory=dict)

    def to_csv(self, path: str | os.PathLike) -> None:
        """Write the sweep atomically: temp file in the same directory, then rename.
        Rows are repr floats, formatted and written _CSV_ROWS at a time."""
        columns = [np.asarray(col, dtype=float) for col in (self.values, *self.series.values())]
        if {col.ndim for col in columns} != {1} or len({col.size for col in columns}) != 1:
            raise ValueError(f"{self.name}: every column must be one-dimensional, of one length")
        path = os.fspath(path)
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        lines = [f"# name: {self.name}"]
        for key, value in self.metadata.items():
            lines.append(f"# {key}: {value}")
        lines.append(",".join([self.independent, *self.series.keys()]))
        row = ",".join(["%r"] * len(columns)) + "\n"  # %r of a float is its repr
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
                for start in range(0, columns[0].size, _CSV_ROWS):
                    chunk = np.column_stack([col[start:start + _CSV_ROWS] for col in columns])
                    fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def loss_curve(n_packets: int, c1: float = 1.0, c2: float = 0.0,
               x_step: float = 1e-3) -> SweepResult:
    """Loss and its weight-independent envelope over x in (0, pi)."""
    if not 0.0 < x_step < math.inf:
        raise ValueError(f"x grid step {x_step!r} is not a positive finite number")
    x = np.arange(x_step, math.pi, x_step)
    if x.size == 0:
        raise InvalidRequest(f"empty x grid: step {x_step:g} is not below pi")
    values = snr.loss(x, c1, c2, n_packets)
    lower, upper = snr.loss_bounds(x, n_packets)
    return SweepResult(
        name="loss_curve",
        independent="x_rad",
        values=x,
        series={"loss": values, "lower_bound": lower, "upper_bound": upper},
        metadata={"n_packets": n_packets, "c1": c1, "c2": c2},
    )


def _values(values, what: str) -> np.ndarray:
    """A caller's grid as a non-empty one-dimensional float array.  Finiteness is
    checked as scenarios are built: one by one in speed_sweep, which raises what
    its first failing scenario raises, but at once for a_omega_range's whole grid."""
    grid = np.asarray(values)
    if grid.size == 0:
        raise InvalidRequest(f"empty {what} grid")
    if grid.ndim != 1:
        raise ValueError(f"{what} grid must be one-dimensional")
    if grid.dtype.kind not in "biuf":
        raise ValueError(f"{what} grid must hold numbers")
    return grid.astype(float, copy=False)


def _span(lo: float, hi: float, step: float, what: str) -> np.ndarray:
    """np.arange(lo, hi, step) closed at hi: its values up to hi + 1e-9 * step."""
    if not (np.all(np.isfinite([lo, hi, step])) and step > 0.0):
        raise ValueError(f"{what} grid bounds must be finite and its step positive")
    if lo > hi:
        raise InvalidRequest(f"empty {what} grid: {lo:g} exceeds {hi:g}")
    grid = np.arange(lo, hi + step, step)
    return grid[grid <= hi + 1e-9 * step]


def _blocks(values: np.ndarray, cells: int) -> list[np.ndarray]:
    """values split into consecutive blocks of at least one value, each within
    _BLOCK_CELLS array elements when one value spans cells of them."""
    rows = max(1, _BLOCK_CELLS // cells)
    return [values[i:i + rows] for i in range(0, values.size, rows)]


def a_omega_range(d_x_values, *, delta_a: float, wavelength: float,
                  n_packets: int = 10, t_interval: float = 0.1,
                  dv_max_kmh: float = 60.0, dv_step_kmh: float = 1.0,
                  d_y_values=(-4.0, 4.0)) -> SweepResult:
    """Range of the half slope-offset x = a * T / 2 of the phase difference.

    For each starting distance d_x the phase-difference slope a at mid-burst
    is scanned over the speed grid and the lateral offsets, reporting the
    signed min/max and the absolute maximum of a * t_interval / 2.
    """
    speeds = geometry.kmh_to_mps(_span(-dv_max_kmh, dv_max_kmh, dv_step_kmh, "speed"))
    d_x = _values(d_x_values, "distance")
    dy = _values(d_y_values, "offset")
    grid = geometry.ScenarioParams(d_x=d_x[:, None, None], d_y=dy[:, None], delta_v=speeds,
                                   delta_a=delta_a, wavelength=wavelength,
                                   n_packets=n_packets, t_interval=t_interval)
    t0, lo, hi = affine._default_t0(grid, None), [], []
    for block in _blocks(d_x, dy.size * speeds.size):
        half = 0.5 * geometry._omega_slope(replace(grid, d_x=block[:, None, None]), t0) * t_interval
        lo.append(half.min(axis=(1, 2)))
        hi.append(half.max(axis=(1, 2)))
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    return SweepResult(
        name="a_omega_range",
        independent="d_x_m",
        values=d_x,
        series={"half_slope_min_rad": lo, "half_slope_max_rad": hi,
                "half_slope_absmax_rad": np.maximum(np.abs(lo), np.abs(hi))},
        metadata={"delta_a_m": delta_a, "wavelength_m": wavelength,
                  "n_packets": n_packets, "t_interval_s": t_interval,
                  "dv_max_kmh": dv_max_kmh, "dv_step_kmh": dv_step_kmh,
                  "d_y_values_m": dy.tolist()},
    )


def threshold_distance(sweep: SweepResult, bound: float) -> float:
    """Smallest d_x in an a_omega_range sweep past which the absolute half
    slope-offset stays below the bound for every larger tabulated d_x."""
    if math.isnan(bound):
        raise ValueError("threshold bound is NaN")
    values = _values(sweep.values, "distance")
    absmax = sweep.series["half_slope_absmax_rad"]
    exceeding = np.nonzero(absmax >= bound)[0]
    if exceeding.size == 0:
        return float(values[0])
    if exceeding[-1] + 1 >= values.size:
        return math.inf
    return float(values[exceeding[-1] + 1])


def speed_sweep(mode: str, slopes: dict[str, float], dv_kmh_values,
                base: geometry.ScenarioParams, *,
                model: pathloss.PathlossModel | None = None,
                patterns: tuple[antenna.AntennaPattern, antenna.AntennaPattern] | None = None,
                paths: tuple[str, ...] = ("exact", "affine"),
                d_y_values=None) -> SweepResult:
    """Worst-case sum-SNR versus relative speed, in dB, per slope and path.

    mode is one of omega|pl|phi|combined.  Values are worst case over
    d_y_values when given (otherwise the base scenario's d_y is used).
    A zero-loss reference series is included for the exact path.
    """
    if mode not in snr._FACTORS:
        raise ValueError(f"unknown sweep mode {mode!r}")
    base._require_single()
    for i, path in enumerate(paths):
        if path not in ("exact", "affine"):
            raise InvalidRequest(f"unknown evaluation path {path!r}")
        if path in paths[:i]:
            raise InvalidRequest(f"evaluation path {path!r} named twice")
    if not (paths and slopes):
        raise InvalidRequest("no evaluation paths" if not paths else "no slopes")
    dv_kmh_values = _values(dv_kmh_values, "speed")
    dy = _values((base.d_y,) if d_y_values is None else d_y_values, "offset")
    speeds = geometry.kmh_to_mps(dv_kmh_values)
    built = tuple(dict.fromkeys((*paths, "exact")))
    slope_grid = np.array([_slope(label, v) for label, v in slopes.items()])[:, None, None]
    if not np.all(np.isfinite(slope_grid)):
        raise ValueError("slopes must be finite")
    # each block's grid is sampled once for every slope; its leading axis of
    # length 1 takes the slopes, into (packet, slope, row, offset) arrays
    blocks = []
    for block in _blocks(speeds, base.n_packets * slope_grid.size * dy.size):
        try:
            grid = replace(base, d_y=dy[None, None, :], delta_v=block[None, :, None])
            terms = snr._terms(grid, mode, built, model, patterns, "taylor")
            worst = [snr._worst(terms[path], slope_grid) for path in paths]
        except (PhasecombError, ValueError):
            # raise the first failing scenario's error, not the grid's first failing check
            for v in block:
                scens = [replace(base, d_y=d, delta_v=v) for d in dy]
                for path in built:
                    for scen in scens:
                        snr._terms(scen, mode, (path,), model, patterns, "taylor")
            raise
        gain, norm = terms["exact"][:2]  # gain / norm is a float in omega mode
        worst.append(np.broadcast_to(gain / norm, (1, block.size, dy.size)))
        blocks.append(np.concatenate(worst).min(axis=-1))
    db = _to_db(blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=-1))
    series = {f"{label}_{path}_db": db[j * len(slopes) + i]
              for i, label in enumerate(slopes) for j, path in enumerate(paths)}
    series["reference_db"] = db[-1]

    metadata: dict[str, object] = {
        "mode": mode, "d_x_m": base.d_x, "d_y_values_m": dy.tolist(),
        "delta_a_m": base.delta_a, "wavelength_m": base.wavelength,
        "n_packets": base.n_packets, "t_interval_s": base.t_interval,
        "slopes_rad_per_s": {k: float(v) for k, v in slopes.items()},
    }
    if mode == "combined":
        metadata["affine_path"] = "composed per-factor fits (approximation)"
    if snr._FACTORS[mode][1]:
        # a straight pass is farthest from the array at a burst end and the widest offset
        reach = np.hypot(np.abs(base.d_x + speeds[:, None] * base.packet_times()[[0, -1]]).max(),
                         np.abs(dy).max())
        if reach > model.validity_m:
            metadata["pl_validity_exceeded"] = True
            warnings.warn(f"sweep reaches {reach:.1f} m, past the pathloss "
                          f"validity horizon {model.validity_m:.1f} m", stacklevel=2)
    return SweepResult(name=f"speed_sweep_{mode}", independent="delta_v_kmh",
                       values=dv_kmh_values, series=series, metadata=metadata)


def _slope(label: str, value) -> float:
    """A slope as a float, or a ValueError naming it if it is no real scalar."""
    try:  # float() alone would also read a numeric string or bytes, and a bool as 0 or 1
        if isinstance(value, (str, bytes, bytearray, bool, np.bool_)):
            raise TypeError
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"slope {label!r} is not a real number: {value!r}") from None


def _to_db(v):
    return np.where(v <= 0.0, -math.inf, 10.0 * np.log10(np.where(v <= 0.0, 1.0, v)))


def pl_slope_losses(n_packets: int, *, model: pathloss.PathlossModel | None = None,
                    d_x: float = 30.0, dv_kmh: float = -60.0, d_y: float = 0.0,
                    t_interval: float = 0.1) -> SweepResult:
    """Worst-case sum-SNR floor per zero-loss slope under drifting path gain.

    The universal floor 10 log10(1 - 1/((n-1) sin(q pi / n))) bounds any
    positive affine weight drift; the scenario floor evaluates the actual
    drift of the given geometry against the same slopes.
    """
    model = model or pathloss.PathlossModel()
    q = np.arange(1, n_packets)
    x = q * math.pi / n_packets
    universal = _to_db(1.0 - 1.0 / ((n_packets - 1) * np.sin(x)))
    # the path gain reads no wavelength: any valid one gives the same floors
    scen = geometry.ScenarioParams(
        d_x=d_x, d_y=d_y, delta_v=geometry.kmh_to_mps(dv_kmh), delta_a=0.0,
        wavelength=geometry.carrier_wavelength(5.9e9), n_packets=n_packets, t_interval=t_interval)
    fitted = affine.taylor_pathgain(model, scen)
    c1, c2 = snr.affine_coefficients(fitted.slope, fitted.intercept,
                                     n_packets, t_interval)
    scenario = _to_db(1.0 - snr.loss(x, c1, c2, n_packets))
    return SweepResult(
        name="pl_slope_losses",
        independent="q",
        values=q.astype(float),
        series={"floor_universal_db": universal, "floor_scenario_db": scenario},
        metadata={"n_packets": n_packets, "d_x_m": d_x, "dv_kmh": dv_kmh,
                  "d_y_m": d_y, "t_interval_s": t_interval,
                  "c2_over_c1": c2 / c1},
    )
