#!/usr/bin/env python3
"""Determinism test of the benchmark itself.

For each workload, runs the benchmark twice with one seed and once with
another, each time in its own process with a short timed loop, and
asserts that

* the two runs with one seed report identical per-layer counts, corpus
  digests and output digests, and both pass their output checks (the
  runs are too short for the sample count a timed run needs, so that
  rule is not part of this test);
* the second seed builds a different corpus.

    python3 perfbench/selftest.py                      # all workloads, ~2 min
    python3 perfbench/selftest.py --workload pmf-rates
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SEED, OTHER_SEED = 3, 4


def report(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), capture_output=True,
                          text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                             f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    rep = json.loads(lines[-2])["report"]
    if rep["failed"] or rep["checked_items_failed"]:
        raise AssertionError(f"{workload} seed {seed}: checks failed: {rep['problems']}")
    return rep


def check_workload(workload: str, seed: int, other: int) -> None:
    first, again, changed = (report(workload, s) for s in (seed, seed, other))
    for key in ("counts_per_corpus_pass", "corpus_digest", "output_digest"):
        if first[key] != again[key]:
            raise AssertionError(f"{workload}: {key} differs between two runs of "
                                 f"seed {seed}: {first[key]} != {again[key]}")
    if first["corpus_digest"] == changed["corpus_digest"]:
        raise AssertionError(f"{workload}: seeds {seed} and {other} build one corpus")
    if first["output_digest"] == changed["output_digest"]:
        raise AssertionError(f"{workload}: seeds {seed} and {other} give one output")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    failures = 0
    for workload in args.workload or list(WORKLOADS):
        try:
            check_workload(workload, SEED, OTHER_SEED)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {workload}: {exc}")
        else:
            print(f"ok   {workload}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
