"""One workload process: warm up, run timed passes, check every output.

run.py starts it with the package on PYTHONPATH; it prints one JSON object
as the last line of its standard output.

    python3 perfbench/child.py --workload W --seed N --seconds S --trace 0|1
        [--smoke] [--spans PATH]

Its CSV outputs go to a temporary directory under ``.perfbench/tmp`` of the
checkout, removed at exit.

With --trace 0 it times passes until S seconds have gone (at least
MIN_PASSES) and reports times at the calibration's reference speed.  With
--trace 1 it runs TRACE_PASSES fixed passes, each once untraced and once
traced, so that its counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

import phasecomb
import phasecomb.cli  # noqa: F401  (the tables workload drives the CLI)

from calibration import TICK_EVERY_S, scaled_times, tick
from tracer import Tracer
from workloads import WORKLOADS, Context

MIN_PASSES = 3
TRACE_PASSES = 2
MAX_REPORTED_FAILURES = 5


class Runner:
    """Runs passes of one workload and keeps the failure accounting."""

    def __init__(self, ctx: Context, seed: int, smoke: bool) -> None:
        self.ctx = ctx
        self.seed = seed
        self.smoke = smoke
        self.make_pass, self.check, self.digest = WORKLOADS[ctx.workload]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: list | None = None

    def warm_up(self) -> None:
        """Run pass 0 untimed; its outputs are what every rerun must repeat."""
        self.reference = self.run_pass(0, count=False, calibrated=True)[1]

    def run_pass(self, index: int, tracer: Tracer | None = None,
                  count: bool = True, calibrated: bool = False):
        """Run pass ``index``: (each call's time, digests of the outputs).

        Inputs are made before the first call and outputs are checked after
        the last, so neither is inside a timed window or a span.  With
        ``calibrated`` the times are in reference seconds (calibration.py).
        """
        ops = self.make_pass(self.ctx, self.seed, index, self.smoke)
        outcomes, ticks, tick_before = [], [], []
        since_tick = TICK_EVERY_S if calibrated else -math.inf
        if tracer is not None:
            tracer.install()
        try:
            for j, op in enumerate(ops):
                if since_tick >= TICK_EVERY_S:
                    ticks.append(tick())
                    since_tick = 0.0
                if tracer is not None:
                    tracer.run_id = f"p{index}.j{j}"
                buf = io.StringIO()
                result = error = None
                with contextlib.redirect_stdout(buf):
                    start = perf_counter()
                    try:
                        result = self.ctx.call(op)
                    except SystemExit as exc:  # the CLI's argparse exits
                        result = exc.code
                    except Exception as exc:  # counted as a failed operation
                        error = exc
                    elapsed = perf_counter() - start
                outcomes.append((op, result, error, buf.getvalue(), elapsed))
                tick_before.append(len(ticks) - 1)
                since_tick += elapsed
        finally:
            if tracer is not None:
                tracer.uninstall()
        times = [outcome[4] for outcome in outcomes]
        if calibrated:
            ticks.append(tick())
            times = scaled_times(times, tick_before, ticks)
        digests = []
        for j, (op, result, error, text, _) in enumerate(outcomes):
            reason, digest = self._judge(op, result, error, text)
            digests.append(digest)
            if index == 0 and self.reference is not None and digest != self.reference[j]:
                reason = reason or "output differs from the same call's repeat"
            if count:
                self.attempted += 1
                if reason is not None:
                    self.failed += 1
                    if len(self.failures) < MAX_REPORTED_FAILURES:
                        self.failures.append(f"pass {index} op {j}: {reason}")
        return times, digests

    def _judge(self, op, result, error, text):
        if error is not None:
            return f"{type(error).__name__}: {error}", None
        try:
            return self.check(self.ctx, op, result, text), self.digest(op, result, text)
        except Exception:  # a malformed output is a failed operation
            return "check raised " + traceback.format_exc(limit=1).strip(), None


def percentile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]


def run_untraced(runner: Runner, seconds: float) -> dict:
    """Timed passes until ``seconds`` have gone; times in reference seconds."""
    runner.warm_up()
    pass_times, call_ms = [], []
    start = perf_counter()
    index = 0
    while index < MIN_PASSES or perf_counter() - start < seconds:
        times, _ = runner.run_pass(index, calibrated=True)
        pass_times.append(sum(times))
        call_ms.extend(t * 1e3 for t in times)
        index += 1
    return {
        "solve_s": statistics.median(pass_times),
        "query_p50_ms": statistics.median(call_ms),
        "query_p99_ms": percentile(call_ms, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_times_s": pass_times,
        "calls": len(call_ms),
    }


def run_traced(runner: Runner, tracer: Tracer, spans_path: str | None) -> dict:
    runner.warm_up()
    untraced = traced = 0.0
    for index in range(TRACE_PASSES):
        # Alternate which side runs first, so neither gains from going second.
        for side in (0, 1) if index % 2 == 0 else (1, 0):
            if side:
                traced += sum(runner.run_pass(index, tracer)[0])
            else:
                untraced += sum(runner.run_pass(index)[0])
    self_s, covered = tracer.self_times(lambda run_id: run_id != "setup")
    setup_self_s, _ = tracer.self_times(lambda run_id: run_id == "setup")
    own_s = traced - covered
    aoa_calls = tracer.counters["antenna.worst_case_aoa.calls"]
    counts = dict(tracer.counters)
    counts["antenna.worst_case_aoa.distinct_ratio"] = (
        len(tracer.aoa_pairs) / aoa_calls if aoa_calls else 0.0)
    if spans_path:
        tracer.write_spans(spans_path)
    return {
        "counts": counts,
        "self_s": self_s,
        "setup_self_s": setup_self_s,
        "trace": {
            "solve_s": traced,
            "untraced_solve_s": untraced,
            "overhead_ratio": traced / untraced,
            "own_s": own_s,
            "accounted_ratio": (sum(self_s.values()) + own_s) / traced,
            "spans": len(tracer.spans),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    tmp_root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            ".perfbench", "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        ctx = Context(phasecomb, args.workload, tmpdir)
        runner = Runner(ctx, args.seed, args.smoke)
        if args.trace:
            tracer = Tracer(phasecomb)
            tracer.install()
            try:
                ctx.load()
            finally:
                tracer.uninstall()
            out = run_traced(runner, tracer, args.spans)
        else:
            ctx.load()
            out = run_untraced(runner, args.seconds)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    out.update(attempted=runner.attempted, failed=runner.failed,
               failures=runner.failures, package_file=phasecomb.__file__)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
