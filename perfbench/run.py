#!/usr/bin/env python3
"""Seeded, closed-loop benchmark of omniex.

One run serves one workload in this process, with one client that sends
each request only after the previous one finished.  The run

1. times the import of omniex from ``src/`` in fresh interpreters, after
   one untimed import, and builds the workload's corpus from the seed
   three to nine times (``setup_s`` is the median import plus the median
   set-up; half of the imports are timed after the timed loop, so that
   the median spans the run);
2. serves every corpus item once outside the timed region, which warms up,
   fixes the expected output of each item, counts the work per layer and
   feeds the correctness checks and the output digest;
3. serves corpus items in a loop for ``--seconds`` and times each request;
   a request fails if it raises, exits nonzero, or its output differs from
   the checked output of its item.

Times are stated at a reference machine speed (see ``speed.py``).
Throughput is the requests completed per second of the timed loop, and
the latency percentiles are taken over its requests.  A run that times
fewer than 100 requests is not correct: its p90 would rest on fewer than
10 requests.  The process and the helper that measures the machine's
speed are pinned to one CPU.  With ``--trace 1``
the loop time is split: the first half runs untraced, the second half
with every layer wrapped (see ``spans.py``); the spans are written to
``.perfbench_run/traces/``.

The last line of standard output is the result, one JSON object; the line
before it is a report with the machine, the sample counts, the error rate,
the output digest, the per-layer counts and the wall-clock metrics.

    python3 perfbench/run.py --workload rates-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from spans import Tracer
from speed import REFERENCE_S, Speedometer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Set-up runs at least MIN_SETUP_REPS and at most MAX_SETUP_REPS times, and
# repeats until its runs took SETUP_BUDGET_S: a short set-up is timed more
# often, so that its median is steady.
MIN_SETUP_REPS = 3
MAX_SETUP_REPS = 9
SETUP_BUDGET_S = 2.0
IMPORT_REPS = 8      # half before the timed loop, half after it
MIN_SAMPLES = 100
MAX_PROBLEMS_SHOWN = 10

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
COUNT_UNITS = {
    "field.rank.calls": "count", "field.rank.ops": "count",
    "field.solve.calls": "count",
    "sources.entropy.calls": "count", "sources.entropy.misses": "count",
    "sources.entropy.hit_ratio": "ratio",
    "rates.sweep.calls": "count", "rates.sweep.evaluations": "count",
    "rates.rco.iterations": "count", "rates.weighted.probes": "count",
    "netcode.construct.draws": "count", "netcode.construct.success_ratio": "ratio",
    "netcode.construct.exhaustive": "count",
}


class OmniexMissing(Exception):
    pass


def fresh_import_seconds() -> float:
    """Seconds a new interpreter takes to import omniex (numpy included)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import omniex.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def import_omniex() -> argparse.Namespace:
    """Import the package from this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "omniex", "__init__.py")):
        raise OmniexMissing(f"no omniex package under {SRC}")
    sys.path.insert(0, SRC)
    import omniex
    from omniex import cli, documents, field, netcode, rates, sources
    if os.path.dirname(os.path.dirname(os.path.abspath(omniex.__file__))) != SRC:
        raise OmniexMissing(f"omniex was imported from {omniex.__file__}, not {SRC}")
    return argparse.Namespace(cli=cli, documents=documents, field=field,
                              netcode=netcode, rates=rates, sources=sources)


def machine() -> dict:
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Loop:
    """Outcome of one closed-loop stretch."""

    def __init__(self, served: list[int], starts: list[float], latencies: list[float],
                 failed: int, elapsed: float, speed: Speedometer):
        self.served = served            # corpus item of each request
        self.latencies = latencies      # wall seconds
        self.failed = failed
        self.elapsed = elapsed
        # Seconds at the reference machine speed.
        self.scaled = [lat * speed.factor(t, t + lat) for t, lat in zip(starts, latencies)]

    def metrics(self, scaled: bool = True) -> dict:
        """Throughput and latency percentiles over every request.  At the
        reference speed, the loop's time is the sum of its requests' times:
        the speed probes between requests are left out."""
        ms = [1000.0 * x for x in (self.scaled if scaled else self.latencies)]
        seconds = sum(ms) / 1000.0 if scaled else self.elapsed
        return {
            "throughput_rps": len(ms) / seconds,
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
        }

    def latency_by_item(self) -> dict[int, float]:
        """Median latency of each corpus item served, at the reference speed."""
        per_item: dict[int, list[float]] = {}
        for k, lat in zip(self.served, self.scaled):
            per_item.setdefault(k, []).append(lat)
        return {k: statistics.median(v) for k, v in per_item.items()}


def tracing_overhead_pct(plain: Loop, traced: Loop) -> float:
    """Throughput lost to tracing, compared item by item: the two halves of
    a traced run need not serve the same mix of corpus items."""
    before = plain.latency_by_item()
    after = traced.latency_by_item()
    common = before.keys() & after.keys()
    plain_s = sum(before[k] for k in common)
    traced_s = sum(after[k] for k in common)
    return 100.0 * (1.0 - plain_s / traced_s)


def closed_loop(workload, seconds: float, reference: list, bad: set,
                problems: list, speed: Speedometer, tracer=None) -> Loop:
    items = len(reference)
    served: list[int] = []
    starts: list[float] = []
    latencies: list[float] = []
    failed = 0
    gc.collect()
    start = time.perf_counter()
    deadline = start + seconds
    sent = 0
    while time.perf_counter() < deadline:
        k = sent % items
        speed.maybe_sample()
        t0 = time.perf_counter()
        try:
            out = (tracer.request(sent, workload.request, k) if tracer is not None
                   else workload.request(k))
            ok = k not in bad and out == reference[k]
        except Exception as exc:  # a failed request is counted, not fatal
            ok = False
            if len(problems) < MAX_PROBLEMS_SHOWN:
                problems.append(f"item {k}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
        starts.append(t0)
        served.append(k)
        failed += not ok
        sent += 1
    elapsed = time.perf_counter() - start
    speed.sample()
    return Loop(served, starts, latencies, failed, elapsed, speed)


def timed(fn, speed: Speedometer) -> tuple[float, float]:
    """Run fn(); return its duration at the reference speed and in wall
    seconds.  fn may return its own duration in seconds.  Each run starts
    from a collected heap, so a full collection left over from earlier work
    does not land in one repetition only."""
    gc.collect()
    speed.sample(5)
    start = time.perf_counter()
    measured = fn()
    end = time.perf_counter()
    speed.sample(5)
    wall = measured if measured is not None else end - start
    return wall * speed.factor(start, end), wall


def reference_pass(workload, counter: Tracer, problems: list) -> tuple[list, set]:
    """Serve every item once; return the outputs and the items that failed."""
    outputs: list = []
    bad: set = set()
    with counter:
        for i in range(len(workload.items)):
            try:
                outputs.append(counter.request(i, workload.request, i))
            except Exception as exc:  # a failed item is reported, not fatal
                outputs.append(None)
                bad.add(i)
                problems.append(f"item {i}: {type(exc).__name__}: {exc}")
    for i, out in enumerate(outputs):
        if out is None:
            continue
        try:
            found = workload.check(i, out)
        except Exception as exc:  # a check that cannot run is a failed check
            found = [f"item {i}: check raised {type(exc).__name__}: {exc}"]
        if found:
            bad.add(i)
            problems.extend(found)
    return outputs, bad


def output_digest(outputs: list) -> str:
    h = hashlib.sha256()
    for out in outputs:
        h.update(("<failed>\n" if out is None else out).encode("utf-8"))
    return h.hexdigest()


def run_workload(ox, args, speed: Speedometer) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload](ox, args.seed)
    fresh_import_seconds()      # may compile the bytecode of a new checkout
    import_reps = [timed(fresh_import_seconds, speed) for _ in range(IMPORT_REPS // 2)]
    base = os.getcwd()
    setup_reps: list[tuple[float, float]] = []

    def fresh_setup() -> None:
        # Each set-up writes into a new directory: overwriting the documents
        # of the previous one can wait on the writeback of its pages.
        rep_dir = os.path.join(base, f"setup-{len(setup_reps)}")
        os.mkdir(rep_dir)
        os.chdir(rep_dir)
        workload.setup()

    while len(setup_reps) < MIN_SETUP_REPS or (
            len(setup_reps) < MAX_SETUP_REPS
            and sum(w for _, w in setup_reps) < SETUP_BUDGET_S):
        setup_reps.append(timed(fresh_setup, speed))
    corpus_digest = workload.corpus_digest()

    problems: list[str] = []
    counter = Tracer(ox, keep_spans=False)
    reference, bad = reference_pass(workload, counter, problems)
    counts = counter.layer_counts()

    if args.trace:
        plain = closed_loop(workload, args.seconds / 2, reference, bad, problems, speed)
        tracer = Tracer(ox, keep_spans=True)
        with tracer:
            traced = closed_loop(workload, args.seconds / 2, reference, bad, problems,
                                 speed, tracer)
        loops = [plain, traced]
    else:
        plain = closed_loop(workload, args.seconds, reference, bad, problems, speed)
        loops = [plain]

    import_reps += [timed(fresh_import_seconds, speed) for _ in range(IMPORT_REPS // 2)]
    setup_s = (statistics.median(r for r, _ in import_reps)
               + statistics.median(r for r, _ in setup_reps))
    setup_wall_s = (statistics.median(w for _, w in import_reps)
                    + statistics.median(w for _, w in setup_reps))

    attempted = sum(len(loop.latencies) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    if attempted < MIN_SAMPLES:
        problems.insert(0, f"only {attempted} requests were timed; the p90 needs "
                           f"at least {MIN_SAMPLES}")
    e2e = {"setup_s": setup_s, **plain.metrics(),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    wall = {"setup_s": setup_wall_s, **plain.metrics(scaled=False)}
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "client": "closed loop, 1 client, 1 process",
        "corpus_items": len(workload.items),
        "samples": len(plain.latencies),
        "items_served": len(set(plain.served)),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "checked_items_failed": len(bad),
        "problems": problems[:MAX_PROBLEMS_SHOWN],
        "corpus_digest": corpus_digest,
        "output_digest": output_digest(reference),
        "counts_per_corpus_pass": counts,
        "setup": {"import_reps_s": [w for _, w in import_reps],
                  "reps_s": [w for _, w in setup_reps]},
        "speed": {"kernel_median_ms": 1000.0 * speed.median_s(),
                  "reference_kernel_ms": 1000.0 * REFERENCE_S,
                  "kernel_runs": len(speed.durations)},
        "wall_clock": wall,
        "end_to_end": {name: {"value": value, "unit": END_TO_END[name]}
                       for name, value in e2e.items()},
    }

    if args.trace:
        metrics = {name: {"value": value, "unit": COUNT_UNITS[name]}
                   for name, value in counts.items()}
        for name, ms in tracer.self_ms_per_request().items():
            metrics[f"{name}.self_ms"] = {"value": ms, "unit": "ms/req"}
        kernel = sum(tracer.self_time[n] for n in ("field.rank", "field.solve",
                                                    "sources.entropy"))
        metrics["share.field_sources_pct"] = {
            "value": 100.0 * kernel / tracer.request_seconds(), "unit": "%"}
        metrics["trace.overhead_pct"] = {
            "value": tracing_overhead_pct(plain, traced), "unit": "%"}
        os.makedirs(os.path.join(RUN_DIR, "traces"), exist_ok=True)
        span_file = os.path.join(RUN_DIR, "traces", f"{workload.name}-seed{args.seed}.jsonl")
        tracer.write(span_file)
        report["trace_file"] = os.path.relpath(span_file, ROOT)
        report["traced_samples"] = len(traced.latencies)
    else:
        metrics = report["end_to_end"]

    result = {"correct": failed == 0 and not bad and attempted >= MIN_SAMPLES,
              "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, report


def pin_threads() -> None:
    """One BLAS/OpenMP thread; takes effect only before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def run_one(args) -> int:
    pin_threads()
    # One CPU for this process and, inherited, for the speed helper, so that
    # the kernel measures the CPU the requests run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        ox = import_omniex()
    except (OmniexMissing, ImportError) as exc:
        print(f"perfbench: cannot import omniex: {exc}", file=sys.stderr)
        return 2
    workdir = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        os.chdir(workdir)
        with Speedometer() as speed:
            result, report = run_workload(ox, args, speed)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print every metric."""
    status = 0
    print(f"{'workload':<14} {'metric':<34} {'value':>12}  unit   samples")
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:<14} failed with exit code {proc.returncode}: "
                  f"{proc.stderr.strip()[-500:]}")
            status = 1
            continue
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        metrics = dict(report["end_to_end"])
        metrics["error_rate"] = {"value": report["error_rate"], "unit": "ratio"}
        if args.trace:
            metrics.update(result["metrics"])
        for metric, entry in metrics.items():
            print(f"{name:<14} {metric:<34} {entry['value']:>12.4f}  "
                  f"{entry['unit']:<6} {report['samples']}")
        print(f"{name:<14} {'output_digest':<34} {report['output_digest']}")
        for problem in report["problems"]:
            print(f"{name:<14} problem: {problem}")
        if not result["correct"]:
            status = 1
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true",
                        help="run every workload, one process each, and print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
