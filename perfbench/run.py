#!/usr/bin/env python3
"""balltrace benchmark: one process, one client, a closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Each operation starts when the previous one returns.  A run makes a few
passes over a fixed pool of base inputs; pass k runs twin k of each, a
distinct input that costs the program the same work (see workloads.py), so
no input runs twice.  An operation's latency is the fastest of its twins,
which filters out the phases, seconds apart, in which the host is slow.
The pool is sized for runs of about REFERENCE_SECONDS at the commit that
defined the benchmark; the seed only orders the operations.  Every output
is checked after the loop.

--trace 0 prints the end-to-end metrics; --trace 1 runs the first pass with
every operation both untraced and traced, prints the per-layer metrics and
writes all spans and counts to .perfbench_out/.  The last line of standard
output is the result object {"correct", "attempted", "failed", "metrics"};
the lines before it record the environment and a readable summary.
"""

import os
import sys

# Pin the BLAS thread pools before numpy is imported anywhere in this process
# or in the set-up probes it starts (which inherit the environment).
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Set-up is measured in fresh processes, SETUP_PROBES of them before the
# warm-up, after the middle pass and after the last pass, so that they
# sample the host at several times of the run; the median is reported.
SETUP_PROBES = 3
WARMUP_S = 1.0      # untimed operations before the measured loop
# The input pools (Workload.ROUNDS) are sized for runs of this many seconds;
# --seconds scales the rounds per pass, up to the pool.
REFERENCE_SECONDS = 20
# A pass stops early once it has run this many times its share of
# --seconds, so that a much slower host or program still ends in time; an
# operation then has fewer twins.
PASS_LIMIT = 3.0

# (name, unit); ok_ratio = 1 - fail_ratio, kept non-zero so relative bounds apply
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_ratio", "1"),
    ("peak_rss_mb", "MB"),
]

# (name, unit, how it is computed from the trace):
#   ("span", s)        mean self time of span s per operation, in ms
#   ("count", c)       mean of count c per operation
#   ("ratio", a, b, k) k * sum of count a over sum of count b
#   ("overhead",)      traced over untraced operation time
PER_LAYER = [
    ("cli.parse_ms", "ms", ("span", "cli.parse")),
    ("cli.emit_ms", "ms", ("span", "cli.emit")),
    ("cli.doc_bytes", "count", ("count", "cli.doc_bytes")),
    ("membership.sweep_ms", "ms", ("span", "membership.sweep")),
    ("membership.pairs_total", "count", ("count", "membership.pairs_total")),
    ("membership.pairs_checked", "count", ("count", "membership.pairs_checked")),
    ("membership.violations", "count", ("count", "membership.violations")),
    ("membership.sweep_order", "count", ("count", "membership.sweep_order")),
    ("membership.pair_yield", "1", ("ratio", "membership.pairs_useful", "membership.pairs_checked", 1)),
    ("polynomials.moment_calls", "count", ("count", "polynomials.moment_calls")),
    ("polynomials.moment_term_visits", "count", ("count", "polynomials.moment_term_visits")),
    ("polynomials.moment_us", "us", ("ratio", "polynomials.moment_s", "polynomials.moment_calls", 1e6)),
    ("polynomials.residual_ms", "ms", ("span", "polynomials.residual")),
    ("polynomials.inner_pairs", "count", ("count", "polynomials.inner_pairs")),
    ("polynomials.ring_ms", "ms", ("span", "polynomials.ring")),
    ("polynomials.eval_ms", "ms", ("span", "polynomials.eval")),
    ("polynomials.eval_points", "count", ("count", "polynomials.eval_points")),
    ("multiindex.graded_ms", "ms", ("span", "multiindex.graded")),
    ("multiindex.indices", "count", ("count", "multiindex.indices")),
    ("multiindex.norm_sq_calls", "count", ("count", "multiindex.norm_sq_calls")),
    ("exact.value_bits", "bit", ("count", "exact.value_bits")),
    ("transforms.cauchy_ms", "ms", ("span", "transforms.cauchy")),
    ("transforms.order_select_ms", "ms", ("span", "transforms.order_select")),
    ("transforms.series_eval_ms", "ms", ("span", "transforms.series_eval")),
    ("transforms.series_order", "count", ("count", "transforms.series_order")),
    ("transforms.series_terms", "count", ("count", "transforms.series_terms")),
    ("transforms.mc_integral_ms", "ms", ("span", "transforms.mc_integral")),
    ("kernels.eval_ms", "ms", ("span", "kernels.eval")),
    ("kernels.points", "count", ("count", "kernels.points")),
    ("sphere.sample_ms", "ms", ("span", "sphere.sample")),
    ("sphere.samples", "count", ("count", "sphere.samples")),
    ("sphere.chunks", "count", ("count", "sphere.chunks")),
    ("sphere.monomial_eval_ms", "ms", ("span", "sphere.monomial_eval")),
    ("sphere.mean_stderr_ms", "ms", ("span", "sphere.mean_stderr")),
    ("sphere.batch_mb", "MB", ("count", "sphere.batch_mb")),
    ("trace.overhead_ratio", "1", ("overhead",)),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=float(REFERENCE_SECONDS))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def bootstrap():
    """Import balltrace from this checkout's src/; returns an error message or None."""
    if not os.path.isfile(os.path.join(SRC, "balltrace", "__init__.py")):
        return f"no balltrace sources under {SRC}"
    sys.path.insert(0, SRC)
    import balltrace

    if not os.path.abspath(balltrace.__file__).startswith(SRC + os.sep):
        return f"imported balltrace from {balltrace.__file__}, not from {SRC}"
    return None


def environment(args) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" without .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), "r", encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_probes(args, times: list[float]) -> None:
    """Append the times from process start to ready of SETUP_PROBES fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)


def run_op(workload, item):
    """One untraced operation: (output or exception, latency in seconds)."""
    workload.stage(item)
    start = time.perf_counter()
    try:
        raw = workload.run(item)
    except Exception as exc:  # a failed operation is counted, not fatal
        return exc, time.perf_counter() - start
    latency = time.perf_counter() - start
    try:
        return workload.collect(raw), latency
    except Exception as exc:
        return exc, latency


def plan(args, workload, wl, items):
    """(warm-up operations, operations of each pass) for this run."""
    share = args.seconds / REFERENCE_SECONDS
    rounds = min(workload.ROUNDS, max(1, round(workload.ROUNDS * share)))
    return wl.schedule(items, args.seed, rounds)


def timed_pass(ops, seconds: float, per_op) -> None:
    """Run the operations in order; stop early past PASS_LIMIT * seconds."""
    start = time.perf_counter()
    for item in ops:
        per_op(item)
        if time.perf_counter() - start > PASS_LIMIT * seconds:
            return


def warm_up(workload, warm, results) -> None:
    start = time.perf_counter()
    for item in warm:
        output, _ = run_op(workload, item)
        results.append((item, output))
        if time.perf_counter() - start >= WARMUP_S:
            return


def check_all(workload, refs, results) -> list[str]:
    failures = []
    for item, output in results:
        ref = refs.get(item.key)
        if ref is None or ref["doc"] != item.digest:
            err = "input differs from the one its reference was recorded for"
        elif isinstance(output, Exception):
            err = f"{type(output).__name__}: {output}"
        else:
            try:
                err = workload.check(item, output, ref)
            except Exception as exc:  # a check that cannot parse the output is a failed check
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            failures.append(f"{workload.name} {item.key}: {err}")
    return failures


def latency_stats(latencies: list[float]) -> dict:
    """Throughput and latency quantiles (p90 by nearest rank)."""
    n = len(latencies)
    p90_rank = math.ceil(0.9 * n)
    return {
        "ops_per_s": n / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": sorted(latencies)[p90_rank - 1] * 1e3,
        "samples": n,
        "beyond_p90": n - p90_rank,
    }


def untraced_run(args, workload, wl, items, refs):
    setup_times = []
    setup_probes(args, setup_times)
    warm, passes = plan(args, workload, wl, items)
    results = []
    warm_up(workload, warm, results)
    gc.collect()
    fastest: dict[str, float] = {}  # base input -> fastest latency of its twins
    notes = {}
    for p, ops in enumerate(passes, 1):
        latencies = []

        def per_op(item):
            output, latency = run_op(workload, item)
            results.append((item, output))
            latencies.append(latency)
            fastest[item.base] = min(latency, fastest.get(item.base, math.inf))

        timed_pass(ops, args.seconds / len(passes), per_op)
        notes[f"pass{p}_op_p50_ms"] = statistics.median(latencies) * 1e3
        if p in (len(passes) // 2, len(passes)):
            setup_probes(args, setup_times)
    stats = latency_stats(list(fastest.values()))
    failures = check_all(workload, refs, results)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": stats["ops_per_s"],
        "op_p50_ms": stats["op_p50_ms"],
        "op_p90_ms": stats["op_p90_ms"],
        "ok_ratio": (len(results) - len(failures)) / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    notes.update(samples=stats["samples"], beyond_p90=stats["beyond_p90"],
                 fail_ratio=len(failures) / len(results))
    return results, failures, metrics, notes, None


def traced_run(args, workload, wl, items, refs):
    from tracer import Tracer

    tracer = Tracer()
    warm, passes = plan(args, workload, wl, items)
    results = []
    warm_up(workload, warm, results)
    gc.collect()
    paired = [0.0, 0.0]  # untraced, traced seconds over operations where both succeeded

    def traced_op(item):
        tracer.op += 1
        first = len(tracer.spans)
        workload.stage(item)
        try:
            traced, info = workload.run_traced(item, tracer)
            workload.count(item, traced, info, tracer)
        except Exception as exc:
            return exc, None
        root = tracer.spans[first]
        return traced, root.end - root.start

    def per_op(item):
        # alternate which form runs first, so that neither gains from the other
        if tracer.op % 2:
            output, latency = run_op(workload, item)
            traced, traced_s = traced_op(item)
        else:
            traced, traced_s = traced_op(item)
            output, latency = run_op(workload, item)
        results.extend([(item, output), (item, traced)])
        if traced_s is not None and not isinstance(output, Exception):
            paired[0] += latency
            paired[1] += traced_s

    timed_pass(passes[0], args.seconds, per_op)
    failures = check_all(workload, refs, results)
    metrics = layer_metrics(tracer, tracer.op + 1, paired)
    notes = {"traced_ops": tracer.op + 1, "fail_ratio": len(failures) / len(results)}
    return results, failures, metrics, notes, tracer


def layer_metrics(tracer, n_ops: int, paired) -> dict:
    span_s: dict[str, float] = {}
    for sp, self_time in tracer.self_times():
        span_s[sp.name] = span_s.get(sp.name, 0.0) + self_time
    counts: dict[str, float] = {}
    for _, name, value in tracer.counts:
        counts[name] = counts.get(name, 0.0) + value
    out = {}
    for name, _, how in PER_LAYER:
        kind = how[0]
        if kind == "span":
            value = span_s.get(how[1], 0.0) * 1e3 / n_ops
        elif kind == "count":
            value = counts.get(how[1], 0.0) / n_ops
        elif kind == "ratio":
            den = counts.get(how[2], 0.0)
            value = how[3] * counts.get(how[1], 0.0) / den if den else 0.0
        else:
            value = paired[1] / paired[0] if paired[0] else 0.0
        out[name] = value
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    error = bootstrap()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]()
    items = workload.prepare(os.path.join(OUT, "probe" if args.probe_setup else "work", args.workload))
    if args.probe_setup:
        print("ready", flush=True)
        return 0
    refs = wl.load_refs(args.workload)
    env = environment(args)
    run = traced_run if args.trace else untraced_run
    results, failures, metrics, notes, tracer = run(args, workload, wl, items, refs)
    units = dict((name, unit) for name, unit, *_ in END_TO_END + PER_LAYER)

    print(json.dumps({"env": env}))
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    summary = ", ".join(f"{name}={value:.6g} {units[name]}" for name, value in metrics.items())
    print(f"# {args.workload}: {summary}")
    print(f"# {args.workload}: " + ", ".join(f"{k}={v:.6g}" for k, v in notes.items()))
    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace_{args.workload}_seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "notes": notes, "metrics": metrics, **tracer.to_json_dict()}, fh)
        print(f"# spans and counts written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
