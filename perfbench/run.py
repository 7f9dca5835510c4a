"""phasecomb benchmark: one command per workload, every metric by name.

    python3 perfbench/run.py --workload sweeps|queries|tables --seed N \\
        --seconds S --trace 0|1 [--smoke]

Run it from anywhere inside a source checkout; it uses ``src/phasecomb`` of
the checkout it lives in and writes only under ``.perfbench/`` there.

Load is closed-loop: one caller in one process, with the BLAS and OpenMP
pools pinned to one thread.  The workload's inputs come from ``--seed``
alone, and every output is checked (see workloads.py and oracle.py).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json:

* ``setup_s``: median over SETUP_REPEATS fresh interpreters of the time from
  start until ``import phasecomb`` is done and the workload's patterns and
  pathloss model are loaded;
* ``solve_s``: median warm time of one pass, the workload's seeded job list,
  timed for ``--seconds`` (at least three passes);
* ``query_p50_ms``/``query_p99_ms``: latency of one operation.  On queries
  an operation is one public call, on sweeps one ``speed_sweep`` job, on
  tables one CLI run;
* ``peak_rss_mb``: peak resident memory of the workload process.

``--trace 1`` prints the per-layer metrics: calls, self time and counts
per wrapped function, import times from ``-X importtime``, the tracing
overhead and ``failed_ratio``.  Two traced processes run the same fixed job
list, and their counts must agree exactly.

The last line of standard output is the result object; the line before it
holds the provenance (machine, versions, thread pinning, seed, workload
rationale) and a summary with the failure count and any failure reasons.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import re
import statistics
import subprocess
import sys
from time import monotonic, perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibration import REFERENCE_S  # noqa: E402
from tracer import CLI_SUBCOMMANDS, TRACED_FUNCTIONS  # noqa: E402

SETUP_REPEATS = 7
IMPORT_REPEATS = 3
DEADLINE_S = 170.0
ACCOUNTED_TOLERANCE = 0.05
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SUBMODULES = ("errors", "geometry", "pathloss", "affine", "antenna", "snr",
              "experiments", "validation", "cli")


class BenchError(Exception):
    """The benchmark could not measure (missing source, crashed child)."""


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced run can report."""
    names = []
    for module, function in TRACED_FUNCTIONS:
        names += [f"{module}.{function}.calls", f"{module}.{function}.self_s"]
    names += ["snr.y_grid_points", "antenna.worst_case_aoa.distinct_ratio",
              "geometry.ScenarioParams.constructed",
              "experiments.SweepResult.to_csv.calls",
              "experiments.SweepResult.to_csv.self_s",
              "experiments.SweepResult.to_csv.bytes"]
    for sub in CLI_SUBCOMMANDS:
        names += [f"cli.main.{sub}.calls", f"cli.main.{sub}.self_s"]
    names += ["import.numpy_s", "import.scipy_s", "import.phasecomb_s"]
    names += [f"import.phasecomb.{sub}_s" for sub in SUBMODULES]
    names += ["trace.solve_s", "trace.untraced_solve_s", "trace.overhead_ratio",
              "trace.own_s", "trace.accounted_ratio", "trace.spans", "failed_ratio"]
    return names


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def remaining(start: float) -> float:
    left = DEADLINE_S - (monotonic() - start)
    if left <= 0:
        raise BenchError(f"deadline of {DEADLINE_S:g} s exceeded")
    return left


def run_child(argv, env, start: float) -> subprocess.CompletedProcess:
    """Run a helper to completion (killed and reaped on timeout)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=remaining(start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{argv[1]} timed out") from None
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def run_json_child(argv, env, start: float) -> dict:
    done = run_child(argv, env, start)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(argv[1:4])} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure_setup(workload: str, env, start: float, repeats: int) -> tuple[float, float]:
    """Median time from a fresh interpreter's start to its "ready" line,
    in reference seconds (scaled by the probe's own calibration), and raw."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload]
    scaled, raw = [], []
    for i in range(repeats + 1):    # the first one only fills caches
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline().strip()
            elapsed = perf_counter() - t0
            out, err = proc.communicate(timeout=remaining(start))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("set-up probe timed out") from None
        if line != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{err[-2000:]}")
        if i:
            raw.append(elapsed)
            scaled.append(elapsed * REFERENCE_S / float(out))
    return statistics.median(scaled), statistics.median(raw)


def measure_imports(env, start: float, repeats: int) -> dict[str, float]:
    """Import times from ``-X importtime``: numpy, scipy, the package and
    each submodule (self time), medians over fresh interpreters."""
    argv = [sys.executable, "-X", "importtime", "-c", "import phasecomb, phasecomb.cli"]
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        done = run_child(argv, env, start)
        if done.returncode != 0:
            raise BenchError(f"import probe failed:\n{done.stderr[-2000:]}")
        found = dict.fromkeys(("import.numpy_s", "import.scipy_s", "import.phasecomb_s"), 0.0)
        found.update({f"import.phasecomb.{sub}_s": 0.0 for sub in SUBMODULES})
        for line in done.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)", line)
            if not m:
                continue
            self_s, cumulative_s, name = int(m[1]) * 1e-6, int(m[2]) * 1e-6, m[3]
            top = name.split(".")[0]
            if top in ("numpy", "scipy"):
                found[f"import.{top}_s"] += self_s
            elif name == "phasecomb":
                found["import.phasecomb_s"] = cumulative_s
            elif top == "phasecomb" and f"import.{name}_s" in found:
                found[f"import.{name}_s"] = self_s
        for key, value in found.items():
            samples.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def child_argv(args, trace: int, spans: str | None = None) -> list[str]:
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace)]
    if args.smoke:
        argv.append("--smoke")
    if spans:
        argv += ["--spans", spans]
    return argv


def end_to_end(args, env, start: float):
    setup_s, raw_setup_s = measure_setup(args.workload, env, start,
                                         1 if args.smoke else SETUP_REPEATS)
    out = run_json_child(child_argv(args, 0), env, start)
    metrics = {"setup_s": setup_s}
    for key in ("solve_s", "query_p50_ms", "query_p99_ms", "peak_rss_mb"):
        metrics[key] = out[key]
    extra = {"raw_setup_s": raw_setup_s, "reference_s": REFERENCE_S,
             "pass_times_s": [round(t, 4) for t in out["pass_times_s"]],
             "operations": out["calls"]}
    return metrics, out, extra


def per_layer(args, env, start: float, problems: list[str]):
    imports = measure_imports(env, start, 1 if args.smoke else IMPORT_REPEATS)
    runs = []
    for tag in ("a", "b"):
        spans = os.path.join(ROOT, ".perfbench", f"spans-{args.workload}-{tag}.csv")
        runs.append(run_json_child(child_argv(args, 1, spans), env, start))
    counts_a, counts_b = (run["counts"] for run in runs)
    if counts_a != counts_b:
        differing = sorted(k for k in set(counts_a) | set(counts_b)
                           if counts_a.get(k) != counts_b.get(k))
        problems.append(f"counts differ between two traced runs: {differing[:8]}")
    metrics = dict(imports)
    metrics.update(counts_a)
    for run in runs:
        for name, value in list(run["self_s"].items()) + list(run["setup_self_s"].items()):
            key = f"{name}.self_s"
            metrics[key] = metrics.get(key, 0.0) + value / len(runs)
    for key in runs[0]["trace"]:
        metrics[f"trace.{key}"] = statistics.fmean(run["trace"][key] for run in runs)
    metrics["trace.spans"] = runs[0]["trace"]["spans"]
    for run in runs:
        if abs(run["trace"]["accounted_ratio"] - 1.0) > ACCOUNTED_TOLERANCE:
            problems.append("span self times plus own time miss the traced "
                            f"solve time: ratio {run['trace']['accounted_ratio']:.4f}")
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    merged = {"attempted": attempted, "failed": failed,
              "failures": runs[0]["failures"] + runs[1]["failures"],
              "package_file": runs[0]["package_file"]}
    metrics["failed_ratio"] = failed / attempted if attempted else 0.0
    extra = {"traced_passes_per_run": "fixed job list, passes 0 and 1",
             "overhead_base": "untraced solve of the same passes in the same process"}
    return metrics, merged, extra


def provenance(args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_pinning": {var: "1" for var in THREAD_VARS},
        "load": "closed loop, one caller in one process",
        "seed": args.seed,
        "workload": args.workload,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="phasecomb benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny job lists and one set-up probe (self-tests)")
    args = parser.parse_args(argv)
    start = monotonic()
    try:
        spec = load_spec()
        whys = {w["name"]: w["why"] for w in spec["workloads"]}
        if args.workload not in whys:
            raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(whys)}")
        env = child_env()
        problems: list[str] = []
        if args.trace:
            metrics, out, extra = per_layer(args, env, start, problems)
            wanted = spec["per_layer"]
        else:
            metrics, out, extra = end_to_end(args, env, start)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    src = os.path.join(ROOT, "src", "phasecomb")
    if not os.path.realpath(out["package_file"]).startswith(os.path.realpath(src)):
        print(f"benchmark error: imported {out['package_file']}, not {src}", file=sys.stderr)
        return 1
    # A per-layer counter of a function the workload never reaches reads 0.
    missing = [] if args.trace else [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark error: no value for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": out["failed"] == 0 and not problems,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }
    summary = {"failed_ratio": out["failed"] / max(out["attempted"], 1),
               "failures": out["failures"], "problems": problems,
               "elapsed_s": monotonic() - start, **extra}
    print(json.dumps({"provenance": {**provenance(args), "why": whys[args.workload]},
                      "summary": summary}))
    print(json.dumps(result))
    return 0


def load_spec() -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "phasecomb", "__init__.py")):
        raise BenchError(f"no package source at {os.path.join(ROOT, 'src', 'phasecomb')}")
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"no {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
