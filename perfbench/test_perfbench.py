"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import phasecomb  # noqa: E402
import phasecomb.cli  # noqa: E402,F401

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture()
def ctx(request, tmp_path):
    context = Context(phasecomb, request.param, str(tmp_path))
    context.load()
    return context


def _fingerprint(ops) -> str:
    return repr([(op.module, op.function, op.args, op.kwargs, op.info) for op in ops])


@pytest.mark.parametrize("ctx", sorted(WORKLOADS), indirect=True)
def test_same_seed_gives_identical_inputs(ctx):
    make_pass = WORKLOADS[ctx.workload][0]
    first = _fingerprint(make_pass(ctx, 7, 0, False))
    assert first == _fingerprint(make_pass(ctx, 7, 0, False))
    assert first != _fingerprint(make_pass(ctx, 8, 0, False))
    assert first != _fingerprint(make_pass(ctx, 7, 1, False))


@pytest.mark.parametrize("ctx", sorted(WORKLOADS), indirect=True)
def test_pass_shape_does_not_depend_on_seed(ctx):
    make_pass = WORKLOADS[ctx.workload][0]

    def kind(op):
        first = op.args[0]
        label = first if isinstance(first, str) else first[0] if isinstance(first, list) else None
        return (op.function, label, op.kwargs.get("use_exact"),
                len(op.kwargs.get("d_y_values", ())))

    def shape(seed):
        return sorted(kind(op) for op in make_pass(ctx, seed, 0, False))
    assert shape(1) == shape(2)


@pytest.mark.parametrize("ctx", ["tables"], indirect=True)
def test_tables_write_only_to_their_temporary_directory(ctx):
    ops = WORKLOADS["tables"][0](ctx, 1, 0, False)
    paths = [op.info["csv"] for op in ops if op.info["csv"]]
    assert len(paths) == 5
    assert all(os.path.dirname(path) == ctx.tmpdir for path in paths)


def _perturb_db(db: float, reference_db: float, share: float) -> float:
    linear = 10.0 ** (db / 10.0) + share * 10.0 ** (reference_db / 10.0)
    return 10.0 * math.log10(linear)


@pytest.mark.parametrize("ctx", ["sweeps"], indirect=True)
def test_oracle_flags_perturbed_sweep_cell(ctx):
    make_pass, check, _ = WORKLOADS["sweeps"]
    for op in make_pass(ctx, 3, 0, True):
        result = ctx.call(op)
        assert check(ctx, op, result, "") is None
        mode, slopes, speeds, _ = op.args
        labels = list(slopes)
        for draw in op.info["cells"]:
            i = int(draw % len(speeds))
            label = labels[int(draw // len(speeds)) % len(labels)]
            key = f"{label}_exact_db"
            bad = replace(result, series={name: values.copy()
                                          for name, values in result.series.items()})
            bad.series[key][i] = _perturb_db(bad.series[key][i],
                                             bad.series["reference_db"][i], -1e-4)
            assert check(ctx, op, bad, "") is not None, (mode, key, i)


@pytest.mark.parametrize("ctx", ["queries"], indirect=True)
def test_oracle_flags_perturbed_query(ctx):
    make_pass, check, _ = WORKLOADS["queries"]
    kinds = set()
    for op in make_pass(ctx, 5, 0, True):
        result = ctx.call(op)
        assert check(ctx, op, result, "") is None
        kind = op.info["kind"]
        if kind == "loss":
            bad = result + 1e-4
        elif kind == "worst_case_y":
            bad = (result[0], result[1] + 1e-4 * op.args[1] * op.args[3])
        elif op.info["exact"]:
            _, zero_loss = ctx.oracle.exact(kind, *_oracle_args(ctx, op))
            bad = result - 1e-4 * zero_loss
        else:
            assert check(ctx, op, float("nan"), "") is not None
            continue
        kinds.add(kind)
        assert check(ctx, op, bad, "") is not None, kind
    assert kinds == {"omega", "pl", "phi", "combined", "loss", "worst_case_y"}


def _oracle_args(ctx, op):
    kind = op.info["kind"]
    slope, scen = op.args[:2]
    model = ctx.model if kind in ("pl", "combined") else None
    patterns = op.args[-2:] if kind in ("phi", "combined") else None
    return slope, scen, model, patterns


def test_closed_form_minimum_matches_dense_scan():
    import numpy as np
    rng = np.random.default_rng(0)
    w = rng.uniform(0.1, 2.0, 11)
    theta = rng.uniform(0.0, 2.0 * math.pi, 11)
    y = np.linspace(0.0, 2.0 * math.pi, 200_001)
    scan = float(np.min(np.cos(theta[:, None] - y[None, :]).T @ w))
    assert abs(scan - oracle.min_cross_term(w, theta)) < 1e-8


def test_self_time_subtracts_covered_child_time():
    t = tracer_mod.Tracer(phasecomb)
    t.spans.extend([("outer", 0.0, 10.0, -1, "p0"), ("inner", 1.0, 4.0, 0, "p0"),
                    ("inner", 3.0, 5.0, 0, "p0"), ("leaf", 1.5, 2.0, 1, "p0"),
                    ("outer", 20.0, 21.0, -1, "setup")])
    self_s, covered = t.self_times(lambda run_id: run_id == "p0")
    assert self_s == {"outer": 6.0, "inner": 4.5, "leaf": 0.5}
    assert covered == 10.0


def test_tracer_restores_every_attribute():
    before = {(m, f): getattr(getattr(phasecomb, m), f)
              for m, f in tracer_mod.TRACED_FUNCTIONS}
    post_init = phasecomb.geometry.ScenarioParams.__post_init__
    t = tracer_mod.Tracer(phasecomb)
    t.install()
    assert phasecomb.snr.f1 is not before[("snr", "f1")]
    phasecomb.snr.loss(0.7, 1.0, 0.0, 10)
    t.uninstall()
    assert t.counters["snr.loss.calls"] == 1
    assert t.counters["snr.f1.calls"] == 1
    after = {(m, f): getattr(getattr(phasecomb, m), f)
             for m, f in tracer_mod.TRACED_FUNCTIONS}
    assert after == before
    assert phasecomb.geometry.ScenarioParams.__post_init__ is post_init


def test_spec_lists_every_metric_once():
    assert [m["name"] for m in SPEC["per_layer"]] == run.per_layer_names()
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def _bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "1", "--seconds", "0.2",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "sweeps", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
