"""Quick tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They run a few operations of every workload, check that every metric is
printed by name with its unit, and that corrupted outputs count as failures.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

assert run.bootstrap() is None

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def _prepared(name):
    workload = wl.WORKLOADS[name]()
    items = workload.prepare(os.path.join(run.OUT, "test", name))
    return workload, items, wl.load_refs(name)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_a_few_operations_pass_their_checks_traced_and_untraced(name):
    workload, items, refs = _prepared(name)
    tracer = Tracer()
    cheapest = items[0][0]  # twins of the first input of the first cell, the smallest
    for item in cheapest[:2]:
        output, _ = run.run_op(workload, item)
        assert workload.check(item, output, refs[item.key]) is None
        traced, info = workload.run_traced(item, tracer)
        workload.count(item, traced, info, tracer)
        assert workload.check(item, traced, refs[item.key]) is None
        assert traced == output
    assert tracer.spans and all(sp.end >= sp.start for sp in tracer.spans)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    (outer, outer_self), (inner, inner_self) = tracer.self_times()
    assert outer.parent is None and inner.parent == 0
    assert outer_self == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))
    assert inner_self == inner.end - inner.start


def test_every_seed_runs_the_same_inputs_once_in_its_own_order():
    workload, items, _ = _prepared("certify")
    rounds = workload.ROUNDS

    def keys(seed):
        warm, passes = wl.schedule(items, seed, rounds)
        return [it.key for it in warm], [[it.key for it in ops] for ops in passes]

    assert keys(7) == keys(7)
    assert keys(7) != keys(8)
    warm, passes = keys(7)
    assert sorted(warm) == sorted(keys(8)[0])
    assert len(passes) == workload.PASSES
    for k, (ops, other) in enumerate(zip(passes, keys(8)[1])):
        assert sorted(ops) == sorted(other)
        assert len(ops) == rounds * len(items)
        assert all(key.endswith(f"/{k}") for key in ops)
    every = warm + [k for ops in passes for k in ops]
    assert len(set(every)) == len(every)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_twins_are_distinct_inputs_with_the_same_shape(name):
    workload, items, _ = _prepared(name)
    twins = items[-1][0]
    for item in twins:
        workload.materialize(item)
    docs = [item.doc_text for item in twins]
    assert len(set(docs)) == len(docs)
    shapes = {tuple(sorted((sum(t["mu"]), sum(t["nu"])) for t in item.spec["doc"]["terms"])) for item in twins}
    assert len(shapes) == 1


def test_work_counts_are_the_calls_the_program_makes():
    from balltrace import membership

    workload, items, refs = _prepared("certify")
    item = items[-1][0][1]  # n = 4, degree 5: the sweep runs
    run.run_op(workload, item)
    original, calls = membership.check_condition, []

    def spy(*args):
        calls.append(args)
        return original(*args)

    membership.check_condition = spy
    try:
        tracer = Tracer()
        traced, info = workload.run_traced(item, tracer)
        workload.count(item, traced, info, tracer)
        assert membership.check_condition is spy  # the counting wrapper is gone again
    finally:
        membership.check_condition = original
    counts = {}
    for _, name, value in tracer.counts:
        counts[name] = counts.get(name, 0) + value
    assert counts["membership.pairs_checked"] == len(calls) > 0
    assert counts["polynomials.moment_calls"] >= len(calls)
    assert counts["membership.violations"] == len(info["violations"])
    assert workload.check(item, traced, refs[item.key]) is None


def _flip(data: bytes, pos: int) -> bytes:
    return data[:pos] + bytes([data[pos] ^ 0x01]) + data[pos + 1:]


@pytest.mark.parametrize("name", ["certify", "radial"])
def test_a_flipped_output_byte_is_a_failure(name):
    workload, items, refs = _prepared(name)
    item = items[0][0][1]
    code, data = run.run_op(workload, item)[0]
    digit = next(i for i in range(len(data) - 1, 0, -1) if chr(data[i]).isdigit())
    corrupted = (code, _flip(data, digit))
    assert workload.check(item, corrupted, refs[item.key]) is not None
    failures = run.check_all(workload, refs, [(item, (code, data)), (item, corrupted)])
    assert len(failures) == 1


def test_a_perturbed_estimate_is_a_failure():
    workload, items, refs = _prepared("montecarlo")
    item = items[0][0][1]
    est = run.run_op(workload, item)[0]
    shifted = wl.MCEstimate(est.value + 5 * est.stderr, est.stderr, est.samples, est.seed)
    assert workload.check(item, est, refs[item.key]) is None
    assert workload.check(item, shifted, refs[item.key]) is not None


def test_certify_check_recomputes_the_reported_pair():
    workload, items, refs = _prepared("certify")
    item = items[0][0][1]
    code, data = run.run_op(workload, item)[0]
    doc = json.loads(data)
    doc["violation"]["rhs"] = doc["violation"]["lhs"]
    forged = (code, (json.dumps(doc, indent=2) + "\n").encode())
    assert "recomputed" in workload.check(item, forged, None)


def test_declared_metrics_match_the_printed_ones():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        declared = json.load(fh)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [(n, u) for n, u, _ in run.PER_LAYER]
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(wl.WORKLOADS)


@pytest.mark.parametrize("trace,table", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_every_metric_is_printed_with_its_unit(trace, table):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "certify",
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {row[0]: row[1] for row in table}
    summary = next(line for line in lines if line.startswith("# certify: ") and "=" in line)
    for name, unit, *_ in table:
        assert f"{name}=" in summary and unit in summary
    assert "env" in json.loads(lines[0])


def test_exits_nonzero_without_the_sources():
    bare = os.path.join(run.OUT, "test", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK_JSON, bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
