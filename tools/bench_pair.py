"""Benchmark two commits of this repository on one machine, in pairs.

    python3 tools/bench_pair.py --out BENCH_<n>.json [--base REV] [--head REV]

Both sides are extracted from git with ``git archive`` into a temporary
directory, so only committed files are measured and the repository's own
checkout and ``.git`` are left untouched.  For each workload, pair ``i`` of
``PAIRS`` runs ``perfbench/run.py --trace 0`` on both sides for the
``run_seconds`` of BENCHMARK.json, with seed ``SEED_BASE + i``; even pairs
run the base first, odd pairs the head first.  Runs follow one another,
never in parallel.

The output holds every run (side, seed, order, provenance line without the
per-pass times, result object) and, per workload and end-to-end metric of
BENCHMARK.json, each side's median and quartiles and the number of pairs
the head won (ties count for neither side).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweeps", "queries", "tables")
PAIRS = 10
# Seeds apart from the ones used while writing a change, so that a claim is
# checked on inputs it was not tuned on.
SEED_BASE = 600


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, into: str) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    provenance = json.loads(lines[-2])
    # keep the count of timed passes, not their times: solve_s is their median
    provenance["summary"]["passes"] = len(provenance["summary"].pop("pass_times_s", []))
    return {"returncode": 0, "provenance": provenance, "result": json.loads(lines[-1])}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for workload in sorted({run["workload"] for run in runs}):
        pairs: dict[int, dict] = {}
        for run in runs:
            if run["workload"] == workload and run["returncode"] == 0:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
        both = [p for p in pairs.values() if len(p) == 2]
        rows = {}
        for metric in metrics:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            base = [p["base"][name]["value"] for p in both]
            head = [p["head"][name]["value"] for p in both]
            rows[name] = {
                "unit": metric["unit"], "better": metric["better"],
                "base": _spread(base), "head": _spread(head),
                "head_wins": sum(sign * (h - b) < 0.0 for b, h in zip(base, head)),
                "pairs": len(both),
            }
        failed = [run["result"]["failed"] for run in runs
                  if run["workload"] == workload and run["returncode"] == 0]
        summary[workload] = {"metrics": rows, "failed_operations": sum(failed),
                             "failed_runs": sum(run["returncode"] != 0 for run in runs
                                                if run["workload"] == workload)}
    return summary


def _spread(values: list[float]) -> dict:
    if not values:
        return {}
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--base", default="HEAD^")
    parser.add_argument("--head", default="HEAD")
    args = parser.parse_args(argv)
    revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in (("base", args.base), ("head", args.head))}
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        dirs = {side: os.path.join(tmp, side) for side in revs}
        for side, rev in revs.items():
            extract(rev, dirs[side])
        with open(os.path.join(dirs["head"], "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        seconds = spec["run_seconds"]
        runs = []
        for workload in WORKLOADS:
            for pair in range(PAIRS):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                seed = SEED_BASE + pair
                for position, side in enumerate(order):
                    run = run_once(dirs[side], workload, seed, seconds)
                    runs.append({"workload": workload, "pair": pair, "side": side,
                                 "seed": seed, "ran": "first" if position == 0 else "second",
                                 **run})
                    print(f"{workload} pair {pair} {side}: "
                          f"{run.get('result', {}).get('metrics', run.get('stderr'))}",
                          file=sys.stderr, flush=True)
    report = {
        "base": {"rev": args.base, "commit": revs["base"]},
        "head": {"rev": args.head, "commit": revs["head"]},
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "pairs": PAIRS, "seed_base": SEED_BASE,
        "order": "even pairs run the base first, odd pairs the head first",
        "summary": summarize(runs, spec["end_to_end"]),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
