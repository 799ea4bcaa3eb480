"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import oracle
import run

cli = run.import_cli()

import negmul.cli  # noqa: E402  (importable only after run.import_cli)
from negmul.recoding import naf, width_w_naf  # noqa: E402

import spans  # noqa: E402

TINY = (
    run.BenchWorkload("tiny-naf", bits=16, form="naf", samples=3),
    run.BenchWorkload("tiny-wnaf", bits=64, form="wnaf", samples=2),
    run.VerifyWorkload("tiny-verify", max_n=5),
)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_tiny_workloads_pass_end_to_end(workload):
    loop = run.Loop(cli, workload, seed=3)
    r = loop.run(0.05)
    assert r["failed"] == 0, loop.problems
    assert r["runs"] == len(r["durations"]) * workload.runs_per_call


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_tiny_workloads_pass_traced(workload):
    result, details = run.per_layer(cli, workload, seed=5, seconds=0.1)
    assert result["failed"] == 0, details["problems"]
    metrics = result["metrics"]
    assert 0 < metrics["trace.overhead_ratio"] < 1.5
    if isinstance(workload, run.VerifyWorkload):
        assert metrics["verify.products"] == workload.runs_per_call
        # products with m = 0 return the identity without running a driver
        assert 0 < metrics["algorithms.runs"] < workload.runs_per_call
        assert metrics["backends.forward_s"] == 0
    else:
        assert metrics["algorithms.runs"] == workload.runs_per_call
        assert metrics["bench.drivers"] == workload.drivers
        assert metrics["backends.forward_s"] > 0


def test_benchmark_workloads_pass_one_call_each():
    for workload in run.WORKLOADS.values():
        _, check, _ = run.run_call(cli, workload, run.call_seed(0, 0))
        assert check.problem is None, (workload.name, check.problem)


def test_results_name_exactly_the_metrics_of_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    end_to_end, _ = run.end_to_end(cli, TINY[0], seed=1, seconds=0.05)
    per_layer, _ = run.per_layer(cli, TINY[0], seed=1, seconds=0.05)
    assert list(end_to_end["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert list(per_layer["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert all(v > 0 for v in end_to_end["metrics"].values())


def _bench_json(workload, seed):
    _, check, out = run.run_call(cli, workload, seed)
    assert check.problem is None
    return json.loads(out)


def _check(workload, report, seed):
    return workload.check(0, json.dumps(report), seed).problem


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["algorithms"][1]["ops"]["neg_dbl"].__setitem__("count", r["algorithms"][1]["ops"]["neg_dbl"]["count"] + 1),
        lambda r: r["algorithms"][0]["ops"]["add"].__setitem__("mul", 0),
        lambda r: r["per_step"]["add"].__setitem__("savings_percent", "7"),
        lambda r: r["algorithms"][-1].__setitem__("total_weighted", "1"),
        lambda r: r["sample"].__setitem__("seed", r["sample"]["seed"] + 1),
        lambda r: r["algorithms"].pop(),
    ],
)
def test_oracle_flags_corrupted_bench_json(corrupt):
    workload = TINY[0]
    report = _bench_json(workload, 11)
    assert _check(workload, report, 11) is None
    corrupt(report)
    assert _check(workload, report, 11) is not None


def test_oracle_flags_bench_json_of_another_seed_and_garbage():
    workload = TINY[1]
    report = _bench_json(workload, 12)
    assert _check(workload, report, 13) is not None
    assert workload.check(0, "{not json", 12).problem is not None
    assert workload.check(1, json.dumps(report), 12).problem is not None


def test_oracle_flags_wrong_verify_output():
    max_n = 11
    good = f"PASS, 0 mismatches ({oracle.verify_products(max_n)} products checked)\n"
    assert oracle.verify_products(11) == 6240
    assert oracle.check_verify(0, good, max_n=max_n) is None
    assert oracle.check_verify(0, good.replace("6240", "6239"), max_n=max_n) is not None
    assert oracle.check_verify(1, good, max_n=max_n) is not None
    assert oracle.check_verify(0, "FAIL, 1 mismatches (6240 products checked)\n", max_n=max_n) is not None


def test_oracle_shapes_match_negmul_recodings():
    rng = random.Random(1)
    for m in [1, 2, 3, 7, 255] + [rng.getrandbits(200) | 1 << 199 for _ in range(200)]:
        e = naf(m)
        assert oracle.naf_shape(m) == (e.length, e.weight, any(d < 0 for d in e.digits), 1)
        for w in (3, 4, 5):
            e = width_w_naf(m, w)
            assert oracle.wnaf_shape(m, w) == (e.length, e.weight, any(d < 0 for d in e.digits), e.digit_bound)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_self_times_add_up_to_call_wall_time(workload):
    tracer = spans.Tracer()
    tracer.install()
    try:
        walls, roots = [], []
        for i in range(3):
            wall, check, _ = run.run_call(cli, workload, i)
            assert check.problem is None
            walls.append(wall)
            roots.append(tracer.end_call())
    finally:
        tracer.uninstall()
    assert sum(tracer.self_s.values()) == pytest.approx(sum(roots), rel=1e-9)
    assert sum(tracer.layer_self().values()) == pytest.approx(sum(roots), rel=1e-9)
    for wall, root in zip(walls, roots):
        # the only untraced part of a call is the root wrapper's own entry and exit
        assert 0 < root <= wall < root + 0.005


def test_tracer_uninstall_restores_every_binding():
    before = (negmul.cli.main, negmul.bench.naf, negmul.verify.lru_cache,
              negmul.costs.CostLedger.charge, negmul.backends.ModularGroup.cost_of)
    tracer = spans.Tracer()
    tracer.install()
    assert negmul.cli.main is not before[0]
    tracer.uninstall()
    after = (negmul.cli.main, negmul.bench.naf, negmul.verify.lru_cache,
             negmul.costs.CostLedger.charge, negmul.backends.ModularGroup.cost_of)
    assert after == before
    assert "cost_of" not in negmul.backends.ModularGroup.__dict__


def test_tail_has_ten_calls_beyond_it():
    durations = [float(i) for i in range(100)]
    value, percentile = run.tail(durations)
    assert sum(d > value for d in durations) == 10
    assert percentile == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, pytest.approx(200 / 3))


def test_call_seeds_are_deterministic_and_distinct():
    assert run.call_seed(4, 0) == run.call_seed(4, 0)
    assert len({run.call_seed(s, i) for s in range(5) for i in range(100)}) == 500
    assert all(0 <= run.call_seed(9, i) < 2**64 for i in range(10))


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-11", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
