"""In-process tracing of omniex's layers, from outside the package.

A ``Tracer`` patches the public entry points of each layer (module
attributes and class methods) with thin wrappers that record a span per
call and a few deterministic counts, and restores the originals on
``uninstall``.  Self time is accumulated online: a span's duration minus
the durations of its direct children.  Spans are kept in memory and only
written out at the end; cache hits of the entropy oracle are timed and
counted but not stored, so a long traced run stays small.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# Span names, in the order the report lists them.
LAYER_SPANS = (
    "field.rank", "field.solve",
    "sources.entropy",
    "rates.sweep", "rates.rco", "rates.weighted", "rates.ilp", "rates.feasible",
    "netcode.construct", "netcode.verify", "netcode.receiver_ranks", "netcode.decode",
    "documents.load", "documents.dump",
    "cli",
)
REQUEST = "request"


class Tracer:
    def __init__(self, ox, keep_spans: bool):
        self.ox = ox
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []          # (id, parent, request, name, start, end)
        self.self_time: Counter = Counter()   # seconds, per span name
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.request_id = -1
        self._stack: list[list] = []          # [id, name, start, child seconds]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- span bookkeeping ------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, keep: bool = True) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self.self_time[name] += duration - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if keep and self.keep_spans:
            self.spans.append((span_id, parent[0] if parent else -1,
                               self.request_id, name, start, end))

    def request(self, request_id: int, fn, *args):
        """Run one benchmark request as the root span of its layer spans."""
        self.request_id = request_id
        frame = self._enter(REQUEST)
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def _span(self, name: str, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                frame = self._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(frame)
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return make

    def install(self) -> "Tracer":
        ox = self.ox
        counts = self.counts

        def rank_ops(args, _result):
            mat = args[0]
            counts["field.rank.ops"] += mat.rows * mat.cols * min(mat.rows, mat.cols)

        def entropy(fn):
            def wrapper(oracle, mask):
                before = oracle.oracle_queries()
                frame = self._enter("sources.entropy")
                try:
                    value = fn(oracle, mask)
                finally:
                    miss = oracle.oracle_queries() != before
                    self._exit(frame, keep=miss)
                if miss:
                    counts["sources.entropy.misses"] += 1
                return value
            return wrapper

        def sweep(_args, result):
            counts["rates.sweep.evaluations"] += result.evaluations

        def rco(_args, result):
            counts["rates.rco.iterations"] += result.iterations

        def weighted(_args, result):
            counts["rates.weighted.probes"] += result.iterations

        def draw(fn):
            def wrapper(*args, **kwargs):
                counts["netcode.construct.draws"] += 1
                return fn(*args, **kwargs)
            return wrapper

        def construct(fn):
            # The exhaustive fallback shows as more verifications than draws.
            inner = self._span("netcode.construct")(fn)

            def wrapper(*args, **kwargs):
                draws = counts["netcode.construct.draws"]
                checks = self.calls["netcode.verify"]
                try:
                    scheme = inner(*args, **kwargs)
                finally:
                    if (self.calls["netcode.verify"] - checks
                            > counts["netcode.construct.draws"] - draws):
                        counts["netcode.construct.exhaustive"] += 1
                counts["netcode.construct.successes"] += 1
                return scheme
            return wrapper

        self._patch(ox.field.FieldMatrix, "rank", self._span("field.rank", rank_ops))
        self._patch(ox.field.FieldMatrix, "solve", self._span("field.solve"))
        self._patch(ox.sources.EntropyOracle, "entropy", entropy)
        self._patch(ox.rates, "modified_edmond", self._span("rates.sweep", sweep))
        self._patch(ox.rates, "rco_sum_rate", self._span("rates.rco", rco))
        self._patch(ox.rates, "minimize_weighted", self._span("rates.weighted", weighted))
        self._patch(ox.rates, "ilp_rates", self._span("rates.ilp"))
        self._patch(ox.rates, "verify_feasible", self._span("rates.feasible"))
        self._patch(ox.netcode, "_random_scheme", draw)
        self._patch(ox.netcode, "construct_code", construct)
        self._patch(ox.netcode, "verify_omniscience", self._span("netcode.verify"))
        self._patch(ox.netcode, "receiver_ranks", self._span("netcode.receiver_ranks"))
        self._patch(ox.netcode, "decode", self._span("netcode.decode"))
        self._patch(ox.documents, "load_problem", self._span("documents.load"))
        self._patch(ox.documents, "load_scheme", self._span("documents.load"))
        self._patch(ox.documents, "dump_json", self._span("documents.dump"))
        self._patch(ox.cli, "main", self._span("cli"))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def layer_counts(self) -> dict:
        """Deterministic work counts: equal on every run of one corpus."""
        calls, counts = self.calls, self.counts
        entropy_calls = calls["sources.entropy"]
        misses = counts["sources.entropy.misses"]
        draws = counts["netcode.construct.draws"]
        return {
            "field.rank.calls": calls["field.rank"],
            "field.rank.ops": counts["field.rank.ops"],
            "field.solve.calls": calls["field.solve"],
            "sources.entropy.calls": entropy_calls,
            "sources.entropy.misses": misses,
            "sources.entropy.hit_ratio":
                (entropy_calls - misses) / entropy_calls if entropy_calls else 0.0,
            "rates.sweep.calls": calls["rates.sweep"],
            "rates.sweep.evaluations": counts["rates.sweep.evaluations"],
            "rates.rco.iterations": counts["rates.rco.iterations"],
            "rates.weighted.probes": counts["rates.weighted.probes"],
            "netcode.construct.draws": draws,
            "netcode.construct.success_ratio":
                counts["netcode.construct.successes"] / draws if draws else 0.0,
            "netcode.construct.exhaustive": counts["netcode.construct.exhaustive"],
        }

    def self_ms_per_request(self) -> dict:
        requests = max(self.calls[REQUEST], 1)
        return {name: 1000.0 * self.self_time[name] / requests
                for name in LAYER_SPANS}

    def request_seconds(self) -> float:
        return self.self_time[REQUEST] + sum(self.self_time[n] for n in LAYER_SPANS)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": name, "start_us": round(start * 1e6, 1),
                    "dur_us": round((end - start) * 1e6, 1)}) + "\n")
