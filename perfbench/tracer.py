"""Span tracer for the phasecomb benchmark.

The tracer wraps public functions at their module attribute, so every call
that goes through ``module.function`` (the package's modules call each other
that way) records one span: name, start, end, parent span and run id.
Spans stay in memory and are written out once, at the end of a traced run.
Nothing inside ``src/phasecomb`` is touched; ``uninstall`` puts every
original attribute back.
"""

from __future__ import annotations

import functools
import inspect
import os
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) pairs wrapped in the traced run.  A missing attribute
# is skipped, so the benchmark keeps working when a later version of the
# package removes a function; its metrics then read zero.
TRACED_FUNCTIONS = (
    ("snr", "worst_case_y_scan"),
    ("snr", "sum_snr_omega"),
    ("snr", "sum_snr_pl"),
    ("snr", "sum_snr_phi"),
    ("snr", "sum_snr_combined"),
    ("snr", "f1"),
    ("snr", "f2"),
    ("snr", "loss"),
    ("snr", "loss_values"),
    ("snr", "loss_bounds"),
    ("snr", "worst_case_y"),
    ("antenna", "worst_case_aoa"),
    ("antenna", "sample_responses"),
    ("antenna", "load_pattern_csv"),
    ("affine", "taylor_omega"),
    ("affine", "taylor_pathgain"),
    ("affine", "least_squares_fit"),
    ("geometry", "omega_exact"),
    ("geometry", "aoa_exact"),
    ("geometry", "transmitter_distance"),
    ("geometry", "propagation_distances"),
    ("pathloss", "mean_path_gain"),
    ("experiments", "speed_sweep"),
    ("experiments", "a_omega_range"),
    ("experiments", "loss_curve"),
    ("validation", "run_validation"),
)

CLI_SUBCOMMANDS = ("loss-curve", "a-omega-range", "pl-losses", "design-rule",
                   "validate")


def _grid_size_of(fn):
    """Return a callable giving the y-grid size one call of ``fn`` scans."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return lambda args, kwargs: 0
    if "n_grid" not in sig.parameters:
        return lambda args, kwargs: 0

    def size(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return int(bound.arguments["n_grid"])
    return size


class Tracer:
    """Records nested spans and counters while installed."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list = []       # (name, start, end, parent, run_id)
        self.counters: Counter = Counter()
        self.aoa_pairs: set = set()
        self.run_id = "setup"
        self._stack: list[int] = []
        self._saved: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        pkg = self.package
        for mod_name, attr in TRACED_FUNCTIONS:
            module = getattr(pkg, mod_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            name = f"{mod_name}.{attr}"
            self._patch(module, attr, self._wrap(name, fn, self._hook_for(name, fn)))
        experiments = getattr(pkg, "experiments", None)
        sweep_result = getattr(experiments, "SweepResult", None)
        if sweep_result is not None and hasattr(sweep_result, "to_csv"):
            self._patch(sweep_result, "to_csv",
                        self._wrap("experiments.SweepResult.to_csv",
                                   sweep_result.to_csv, self._count_csv_bytes))
        scenario = getattr(getattr(pkg, "geometry", None), "ScenarioParams", None)
        if scenario is not None and hasattr(scenario, "__post_init__"):
            self._patch(scenario, "__post_init__",
                        self._count_constructed(scenario.__post_init__))
        cli = getattr(pkg, "cli", None)
        if cli is not None and hasattr(cli, "main"):
            self._patch(cli, "main", self._wrap_cli(cli.main))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        calls_key = f"{name}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
                counters[calls_key] += 1
            if after is not None:
                after(args, kwargs)
            return result
        return traced

    def _wrap_cli(self, main):
        wrapped = {sub: self._wrap(f"cli.main.{sub}", main) for sub in CLI_SUBCOMMANDS}
        other = self._wrap("cli.main.other", main)

        @functools.wraps(main)
        def traced_main(argv=None):
            sub = argv[0] if argv else None
            return wrapped.get(sub, other)(argv)
        return traced_main

    def _hook_for(self, name, fn):
        if name == "snr.worst_case_y_scan":
            size = _grid_size_of(fn)

            def count_grid(args, kwargs):
                self.counters["snr.y_grid_points"] += size(args, kwargs)
            return count_grid
        if name == "antenna.worst_case_aoa":
            def record_pair(args, kwargs):
                self.aoa_pairs.add((id(args[0]), id(args[1])))
            return record_pair
        return None

    def _count_csv_bytes(self, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counters["experiments.SweepResult.to_csv.bytes"] += os.path.getsize(path)

    def _count_constructed(self, post_init):
        stack = self._stack
        counters = self.counters

        @functools.wraps(post_init)
        def counted(obj):
            # Only scenarios the package builds count; the benchmark's own
            # inputs are made outside any span.
            if stack:
                counters["geometry.ScenarioParams.constructed"] += 1
            return post_init(obj)
        return counted

    # -- reduction --------------------------------------------------------

    def self_times(self, keep) -> tuple[dict[str, float], float]:
        """Per-name self time and the time covered by top-level spans, over
        the spans whose run id satisfies ``keep``.

        A span's self time is its duration minus the union of the intervals
        its direct children cover.
        """
        children = defaultdict(list)
        chosen = []
        for i, span in enumerate(self.spans):
            if not keep(span[4]):
                continue
            chosen.append(i)
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        totals: dict[str, float] = defaultdict(float)
        top = []
        for i in chosen:
            name, start, end, parent, _ = self.spans[i]
            totals[name] += (end - start) - _covered(children.get(i, ()), start, end)
            if parent < 0:
                top.append((start, end))
        return dict(totals), _covered(top, float("-inf"), float("inf"))

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,run_id\n")
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{run_id}\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
