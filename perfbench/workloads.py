"""Seeded corpora, requests and output checks for the four workloads.

Every workload drives omniex from outside, through its public functions
and ``omniex.cli.main``.  A workload's ``setup`` builds its corpus from the
seed alone (same seed, same documents), writes the documents into the
current directory and warms what the workload keeps warm.  ``request(i)``
serves item ``i`` of the corpus and returns its output as text, raising
``RequestFailed`` on a nonzero exit; ``check(i, output)`` returns the
problems found in one output, and is run outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
from fractions import Fraction

P61 = (1 << 61) - 1     # the largest modulus the field layer accepts is below 2^61
TOL = 1e-6


class RequestFailed(Exception):
    pass


def balanced_rows(rng: random.Random, m: int, max_rows: int) -> list[int]:
    """Row counts 1..max_rows per user, drawn independently but redrawn until
    their total is within m/2 of its mean.  The total sets most of a linear
    document's cost, so this keeps the cost of a corpus steady across seeds
    while the documents still differ in shape."""
    target = m * (max_rows + 1) / 2
    while True:
        rows = [rng.randint(1, max_rows) for _ in range(m)]
        if abs(sum(rows) - target) <= m / 2:
            return rows


def linear_matrices(rng: random.Random, rows: list[int], n_packets: int, p: int,
                    field) -> list:
    """Random user matrices with the given row counts, topped up with unit
    rows (as the test suite's generator does) until W is determined."""
    m = len(rows)
    mats = [[[rng.randrange(p) for _ in range(n_packets)] for _ in range(r)]
            for r in rows]

    def collective_rank(matrices):
        parts = [field.FieldMatrix.from_rows(user_rows, p, cols=n_packets)
                 for user_rows in matrices]
        return field.stack(parts, cols=n_packets, p=p).rank()

    r = collective_rank(mats)
    while r < n_packets:
        for c in range(n_packets):
            unit = [0] * n_packets
            unit[c] = 1
            probe = [list(user_rows) for user_rows in mats]
            probe[rng.randrange(m)].append(unit)
            pr = collective_rank(probe)
            if pr > r:
                mats, r = probe, pr
                break
    return mats


def linear_document(mats, p: int, n_packets: int, weights=None, n: int = 1,
                    seed: int = 0) -> dict:
    doc = {"source": {"kind": "linear", "p": p, "N": n_packets, "matrices": mats},
           "n": n, "seed": seed}
    if weights is not None:
        doc["weights"] = weights
    return doc


def pmf_document(rng: random.Random, alphabet: int, m: int, weights=None) -> dict:
    """Full-support joint pmf with skewed outcome weights, so the users'
    observations are correlated."""
    outcomes = list(itertools.product(range(alphabet), repeat=m))
    raw = [rng.random() ** 6 + 1e-9 for _ in outcomes]
    total = math.fsum(raw)
    entries = {",".join(map(str, o)): w / total for o, w in zip(outcomes, raw)}
    doc = {"source": {"kind": "pmf", "alphabets": [alphabet] * m, "entries": entries}}
    if weights is not None:
        doc["weights"] = weights
    return doc


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def random_weights(rng: random.Random, m: int) -> list[int]:
    return [rng.randint(1, 9) for _ in range(m)]


def parse_number(raw, exact: bool):
    return Fraction(raw) if exact else float(raw)


def close(a, b, exact: bool) -> bool:
    return a == b if exact else abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


class Workload:
    name = ""
    why = ""
    # Corpus size: large enough that the per-seed mix is stable.
    size = 0

    def __init__(self, ox, seed: int):
        self.ox = ox
        self.seed = seed
        self.items: list = []

    def rng(self) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}")

    def run_cli(self, argv: list[str]) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.ox.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            raise RequestFailed(f"omniex {argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def oracle(self, path: str):
        return self.ox.sources.EntropyOracle(self.ox.documents.load_problem(path).source)

    def check_rates_output(self, path: str, out: dict, oracle) -> list[str]:
        """Problems with the rate vector of one CLI result document."""
        ox = self.ox
        exact = oracle.exact
        values = tuple(parse_number(v, exact) for v in out["rates"])
        problems = []
        vector = ox.rates.RateVector(values=values, unit=oracle.unit)
        if not ox.rates.verify_feasible(oracle, vector):
            problems.append(f"{path}: rates are not feasible")
        total = math.fsum(values) if not exact else sum(values)
        if not close(total, parse_number(out["sum_rate"], exact), exact):
            problems.append(f"{path}: rates do not add up to sum_rate")
        if "cost" in out:
            weights = [parse_number(w, exact) for w in out["weights"]]
            cost = sum(w * r for w, r in zip(weights, values))
            if not close(cost, parse_number(out["cost"], exact), exact):
                problems.append(f"{path}: cost is not sum(weights * rates)")
        return problems

    def corpus_digest(self) -> str:
        """sha256 over the items and the documents written by ``setup``."""
        h = hashlib.sha256(repr(self.items).encode("utf-8"))
        for name in sorted(os.listdir(".")):
            with open(name, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def setup(self) -> None:
        raise NotImplementedError

    def request(self, i: int) -> str:
        raise NotImplementedError

    def check(self, i: int, output: str) -> list[str]:
        raise NotImplementedError


class RatesCold(Workload):
    name = "rates-cold"
    why = ("fresh linear documents through the rates command: every solve pays "
           "about 2^m cold oracle misses, so field and sources dominate")
    size = 36
    # (m, modulus, weighted) per slot, cycled through the corpus.
    SLOTS = ((6, 101, False), (7, 101, False), (8, 101, False),
             (6, 101, True), (7, 101, True), (8, 101, True),
             (5, P61, False), (6, P61, True), (7, P61, False),
             (5, 101, False), (6, 101, False), (7, 101, True))

    def setup(self) -> None:
        rng = self.rng()
        self.items = []
        for i in range(self.size):
            m, p, weighted = self.SLOTS[i % len(self.SLOTS)]
            mats = linear_matrices(rng, balanced_rows(rng, m, m), 2 * m, p,
                                   self.ox.field)
            weights = random_weights(rng, m) if weighted else None
            path = f"rates-{i}.json"
            write_json(path, linear_document(mats, p, 2 * m, weights))
            self.items.append(path)

    def request(self, i: int) -> str:
        return self.run_cli(["rates", self.items[i]])

    def check(self, i: int, output: str) -> list[str]:
        path = self.items[i]
        out = json.loads(output)
        oracle = self.oracle(path)
        problems = self.check_rates_output(path, out, oracle)
        min_sum = Fraction(out["min_sum_rate"])
        if oracle.m <= 8 and min_sum != self.ox.rates.rco_partition_formula(oracle):
            problems.append(f"{path}: min_sum_rate differs from the partition formula")
        if Fraction(out["sum_rate"]) < min_sum:
            problems.append(f"{path}: sum_rate below min_sum_rate")
        return problems


class PmfRates(Workload):
    name = "pmf-rates"
    why = ("pmf documents through the rates command, half weighted: the float "
           "entropy branch and tolerance bracketing, with no field work")
    size = 48
    # (alphabet size, m, weighted) per slot, cycled through the corpus.  The
    # two middle slots by cost are alike, so the median request falls inside
    # one cluster of costs and not in the gap between two.
    SLOTS = ((2, 8, False), (2, 9, True), (2, 10, False), (2, 11, True),
             (3, 8, False), (2, 10, True), (2, 10, False), (3, 7, True))

    def setup(self) -> None:
        rng = self.rng()
        self.items = []
        for i in range(self.size):
            alphabet, m, weighted = self.SLOTS[i % len(self.SLOTS)]
            weights = random_weights(rng, m) if weighted else None
            path = f"pmf-{i}.json"
            write_json(path, pmf_document(rng, alphabet, m, weights))
            self.items.append(path)

    def request(self, i: int) -> str:
        return self.run_cli(["rates", self.items[i]])

    def check(self, i: int, output: str) -> list[str]:
        path = self.items[i]
        out = json.loads(output)
        oracle = self.oracle(path)
        problems = self.check_rates_output(path, out, oracle)
        if float(out["sum_rate"]) < float(out["min_sum_rate"]) - TOL:
            problems.append(f"{path}: sum_rate below min_sum_rate")
        return problems


class CodeVerify(Workload):
    name = "code-verify"
    why = ("code then verify then a decode round trip at every receiver: "
           "netcode draws and large field eliminations, with a tiny oracle")
    size = 96
    PRIME_ABOVE = {4: 5, 5: 7, 6: 7}
    # (m, N, n) per slot, cycled through the corpus; p is the smallest prime
    # above m, and every user has 1..N/2 rows.
    SLOTS = ((4, 6, 2), (5, 8, 3), (6, 10, 2), (4, 10, 3), (5, 6, 4), (6, 8, 2),
             (4, 8, 4), (5, 10, 2), (6, 6, 3), (4, 7, 2), (5, 9, 3), (6, 7, 4))

    def setup(self) -> None:
        rng = self.rng()
        self.items = []
        for i in range(self.size):
            m, n_packets, n = self.SLOTS[i % len(self.SLOTS)]
            p = self.PRIME_ABOVE[m]
            mats = linear_matrices(rng, balanced_rows(rng, m, n_packets // 2),
                                   n_packets, p, self.ox.field)
            path = f"code-{i}.json"
            write_json(path, linear_document(mats, p, n_packets, n=n,
                                             seed=rng.randrange(1 << 16)))
            block_rng = random.Random(f"{self.name}:{self.seed}:{i}")
            block = [block_rng.randrange(p) for _ in range(n * n_packets)]
            self.items.append((path, f"scheme-{i}.json", block))

    def request(self, i: int) -> str:
        ox = self.ox
        path, scheme_path, block = self.items[i]
        code_out = self.run_cli(["code", path, "--out", scheme_path])
        verify_out = self.run_cli(["verify", path, scheme_path])
        src = ox.documents.load_problem(path).source
        scheme = ox.documents.load_scheme(scheme_path)
        broadcasts = ox.netcode.broadcast_symbols(src, scheme, block)
        decoded = []
        for j in range(src.m):
            side = ox.netcode.user_observation(src, j, block, scheme.n)
            decoded.append(list(ox.netcode.decode(src, scheme, j, side, broadcasts))
                           == block)
        return code_out + verify_out + json.dumps({"decoded": decoded}) + "\n"

    def check(self, i: int, output: str) -> list[str]:
        path, _scheme_path, _block = self.items[i]
        decoder = json.JSONDecoder()
        code_out, end = decoder.raw_decode(output)
        verify_out, end2 = decoder.raw_decode(output, end + 1)
        decoded = decoder.raw_decode(output, end2 + 1)[0]["decoded"]
        problems = self.check_rates_output(path, code_out, self.oracle(path))
        n = code_out["n"]
        if any((Fraction(r) * n).denominator != 1 for r in code_out["rates"]):
            problems.append(f"{path}: a rate is not a multiple of 1/{n}")
        if any(r["status"] != "pass" for r in code_out["receivers"]):
            problems.append(f"{path}: code reports a receiver short of full rank")
        if verify_out.get("omniscience") is not True:
            problems.append(f"{path}: verify does not confirm omniscience")
        if not all(decoded):
            problems.append(f"{path}: decode did not return W at every receiver")
        return problems


class WeightedWarm(Workload):
    name = "weighted-warm"
    why = ("weighted and ilp library calls on warm oracles: no oracle misses "
           "in the timed part, so the sweep and the solvers carry the work")
    size = 192
    # Row counts of the users of each source (m = 9, N = 18, p = 101).  The
    # seed shuffles them among the users and draws the entries.  How many
    # sweeps a request takes depends on the shape of the source, so fixed
    # shapes keep the cost of the workload steady across seeds.
    SOURCES = ((1, 2, 3, 4, 5, 6, 7, 8, 9), (2, 2, 3, 4, 4, 5, 6, 7, 9),
               (1, 3, 3, 4, 5, 5, 6, 8, 8), (1, 2, 4, 4, 5, 5, 7, 7, 9))

    def setup(self) -> None:
        ox = self.ox
        rng = self.rng()
        self.sources = []
        self.results: dict = {}
        for shape in self.SOURCES:
            m = len(shape)
            rows = rng.sample(shape, m)
            mats = linear_matrices(rng, rows, 2 * m, 101, ox.field)
            src = ox.sources.make_linear_source(mats, p=101, N=2 * m)
            oracle = ox.sources.EntropyOracle(src)
            for mask in range(1 << m):
                oracle.entropy(mask)
            self.sources.append((oracle, ox.rates.rco_sum_rate(oracle)))
        self.items = []
        for i in range(self.size):
            # Every source gets weighted calls (n = 0) and ilp calls.
            k = i % len(self.sources)
            alpha = tuple(random_weights(rng, self.sources[k][0].m))
            n = 0 if (i // len(self.sources)) % 2 == 0 else rng.randint(1, 4)
            self.items.append((k, alpha, n))

    def corpus_digest(self) -> str:
        sources = [[mat.to_rows() for mat in oracle.source.matrices]
                   for oracle, _rco in self.sources]
        return hashlib.sha256(repr((self.items, sources)).encode("utf-8")).hexdigest()

    def solve(self, i: int):
        rates = self.ox.rates
        k, alpha, n = self.items[i]
        oracle, rco = self.sources[k]
        if n == 0:
            return rates.minimize_weighted(oracle, alpha, rco=rco)
        return rates.ilp_rates(oracle, alpha, n, rco=rco)

    def text(self, i: int, res) -> str:
        k, alpha, n = self.items[i]
        if n == 0:
            return repr(("weighted", k, alpha, res.beta_star, res.rates.values,
                         res.cost, res.iterations, res.evaluations)) + "\n"
        return repr(("ilp", k, alpha, n, res.beta, res.rates.values, res.cost,
                     res.gap_bound)) + "\n"

    def request(self, i: int) -> str:
        self.results[i] = self.solve(i)
        return self.text(i, self.results[i])

    def check(self, i: int, output: str) -> list[str]:
        rates = self.ox.rates
        k, alpha, n = self.items[i]
        oracle, rco = self.sources[k]
        # The output is text; check the result object it was made from.
        problems = []
        res = self.results[i]
        weighted = res if n == 0 else rates.minimize_weighted(oracle, alpha, rco=rco)
        if self.text(i, res) != output:
            problems.append(f"request {i}: output does not match its result")
        if not rates.verify_feasible(oracle, res.rates):
            problems.append(f"request {i}: rates are not feasible")
        cost = sum(Fraction(a) * r for a, r in zip(alpha, res.rates.values))
        if cost != res.cost:
            problems.append(f"request {i}: cost is not sum(alpha * rates)")
        if n:
            if any((n * Fraction(r)).denominator != 1 for r in res.rates.values):
                problems.append(f"request {i}: a rate is not a multiple of 1/{n}")
            if not weighted.cost <= res.cost <= weighted.cost + res.gap_bound:
                problems.append(f"request {i}: ilp cost outside its gap bound")
        elif res.rates.total() != res.beta_star:
            problems.append(f"request {i}: rates do not add up to beta_star")
        return problems


WORKLOADS = {w.name: w for w in (RatesCold, WeightedWarm, CodeVerify, PmfRates)}
