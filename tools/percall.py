"""Time one public sum_snr_* call per mode and evaluation path, the array
kernels, one speed_sweep job per mode, the validation battery and the CSV
writer.

    PYTHONPATH=src python3 tools/percall.py

Imports phasecomb from the import path (so ``PYTHONPATH`` picks the
checkout to measure), with BLAS and OpenMP pinned to one thread.  Every
call evaluates one fixed scenario (d_x 30 m, d_y -4 m, 40 km/h, antenna
spacing 10 wavelengths at 5.9 GHz, K 10 packets 0.1 s apart) at the design
rule's slope, with the default pathloss model and the builtin patch pair.
Each row is the best of REPEATS runs of CALLS calls, in microseconds per
call: the four modes on both paths, and the pathloss mode's affine path
with the least-squares fit.  A second table gives, in microseconds per
call, the best of REPEATS runs of KERNEL_CALLS array-kernel calls on the
20,001 points of [pi/10, 9 pi/10] at K 10: ``loss`` with constant weights
(c2 = 0, which never computes f2), ``loss`` with c2 = 0.05, and
``loss_bounds``.  A third table gives, in microseconds per job, the best
of REPEATS runs of SWEEP_CALLS ``speed_sweep`` jobs per mode at the shape
of a perfbench ``sweeps`` job: the scenario above at d_x 50 m, 4 speeds,
2 offsets, slopes q1 and q5, both paths.  A fourth table gives the best of
REPEATS single runs, in milliseconds, of ``run_validation(42)`` and of each
of its checks on the generator that the battery hands it.  A fifth table
gives, in milliseconds per write, the best of REPEATS runs of WRITE_CALLS
``to_csv`` writes of ``loss_curve(10, c2=0.05)`` at x steps 1e-3 and 1e-4
(3,141 and 31,415 rows) into a temporary directory, and the tracemalloc
peak of one write in MB.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import sys  # noqa: E402
import tempfile  # noqa: E402
import timeit  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

import phasecomb as pc  # noqa: E402
from phasecomb import validation  # noqa: E402

REPEATS = 7
CALLS = 3_000
KERNEL_CALLS = 300
SWEEP_CALLS = 300
WRITE_CALLS = 10


def calls() -> dict[str, object]:
    """Zero-argument calls by row label, mode and path."""
    lam = pc.carrier_wavelength(5.9e9)
    scen = pc.ScenarioParams(d_x=30.0, d_y=-4.0, delta_v=pc.kmh_to_mps(40.0),
                             delta_a=10.0 * lam, wavelength=lam, n_packets=10, t_interval=0.1)
    slope = float(pc.design_rule_alpha_star(scen.n_packets, scen.t_interval)[0])
    model = pc.PathlossModel()
    pair = (pc.builtin_pattern("patch_front"), pc.builtin_pattern("patch_rear"))
    rows = {}
    for path, exact in (("exact", True), ("affine", False)):
        rows[f"omega {path}"] = lambda e=exact: pc.sum_snr_omega(slope, scen, use_exact=e)
        rows[f"pl {path}"] = lambda e=exact: pc.sum_snr_pl(slope, scen, model, use_exact=e)
        rows[f"phi {path}"] = lambda e=exact: pc.sum_snr_phi(slope, scen, *pair, use_exact=e)
        rows[f"combined {path}"] = lambda e=exact: pc.sum_snr_combined(
            slope, scen, model, *pair, use_exact=e)
    rows["pl affine least_squares"] = lambda: pc.sum_snr_pl(
        slope, scen, model, use_exact=False, fit="least_squares")
    return rows


def kernels() -> dict[str, object]:
    """Zero-argument array-kernel calls by row label."""
    x = np.linspace(np.pi / 10, 0.9 * np.pi, 20_001)
    return {"loss c2=0": lambda: pc.loss(x, 1.0, 0.0, 10),
            "loss c2=0.05": lambda: pc.loss(x, 1.0, 0.05, 10),
            "loss_bounds": lambda: pc.loss_bounds(x, 10)}


def sweeps() -> dict[str, object]:
    """Zero-argument speed_sweep jobs by mode."""
    lam = pc.carrier_wavelength(5.9e9)
    base = pc.ScenarioParams(d_x=50.0, d_y=0.0, delta_v=0.0, delta_a=10.0 * lam,
                             wavelength=lam, n_packets=10, t_interval=0.1)
    unit = 2.0 * np.pi / (base.n_packets * base.t_interval)
    job = dict(slopes={"q1": unit, "q5": 5.0 * unit}, dv_kmh_values=[-45.0, -15.0, 15.0, 45.0],
               base=base, model=pc.PathlossModel(), paths=("exact", "affine"),
               patterns=(pc.builtin_pattern("patch_front"), pc.builtin_pattern("patch_rear")),
               d_y_values=(-4.0, 1.5))
    return {f"speed_sweep {mode}": lambda m=mode: pc.speed_sweep(m, **job)
            for mode in ("omega", "pl", "phi", "combined")}


def writes(directory: str) -> dict[str, object]:
    """Zero-argument to_csv writes of loss_curve(10, c2=0.05) by row label."""
    out = os.path.join(directory, "loss_curve.csv")
    tables = {f"loss_curve step {step:g}": pc.loss_curve(10, c2=0.05, x_step=step)
              for step in (1e-3, 1e-4)}
    return {label: lambda r=res: r.to_csv(out) for label, res in tables.items()}


def main() -> int:
    print(f"phasecomb from {pc.__file__}", file=sys.stderr)
    rows = calls()
    width = max(map(len, rows))
    print(f"{'call':{width}}  us_per_call")
    for label, fn in rows.items():
        fn()  # the first call fills the pattern pair's kept invariants
        best = min(timeit.repeat(fn, number=CALLS, repeat=REPEATS)) / CALLS
        print(f"{label:{width}}  {best * 1e6:11.1f}")
    rows = kernels()
    width = max(map(len, rows))
    print(f"\n{'array kernel':{width}}  us_per_call")
    for label, fn in rows.items():
        best = min(timeit.repeat(fn, number=KERNEL_CALLS, repeat=REPEATS)) / KERNEL_CALLS
        print(f"{label:{width}}  {best * 1e6:11.1f}")
    jobs = sweeps()
    width = max(map(len, jobs))
    print(f"\n{'sweep':{width}}  us_per_job")
    for label, fn in jobs.items():
        fn()
        best = min(timeit.repeat(fn, number=SWEEP_CALLS, repeat=REPEATS)) / SWEEP_CALLS
        print(f"{label:{width}}  {best * 1e6:10.1f}")
    battery = {"run_validation(42)": lambda: pc.run_validation(42)}
    for check in validation._CHECKS:
        battery[check.__name__] = lambda c=check: c(np.random.default_rng(42))
    width = max(map(len, battery))
    print(f"\n{'validation':{width}}  ms_per_run")
    for label, fn in battery.items():
        best = min(timeit.repeat(fn, number=1, repeat=REPEATS))
        print(f"{label:{width}}  {best * 1e3:10.2f}")
    with tempfile.TemporaryDirectory() as directory:
        rows = writes(directory)
        width = max(map(len, rows))
        print(f"\n{'to_csv':{width}}  ms_per_write  peak_mb")
        for label, fn in rows.items():
            best = min(timeit.repeat(fn, number=WRITE_CALLS, repeat=REPEATS)) / WRITE_CALLS
            tracemalloc.start()
            fn()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            print(f"{label:{width}}  {best * 1e3:12.2f}  {peak / 1e6:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
