"""The subset table read as one array, and the sweep and cut scan over it.

The sweep's exact keys are int64 only while a bound fixed before its first
step, m^2 * (num + 2 * den * max|H|), stays below 2^62; past that the same
scan runs on Python ints.  Budgets and rate denominators are chosen here so
that this bound, the largest key the sweep actually forms, and the cut
scan's span land just below and just above 2^62 (and 2^63), and the
results are compared with the per-subset references.  The whole-array
test for an entropy function is compared with a scalar scan, and the
oracle counters are pinned to their values before the table became an
array, as are the CLI output bytes of an int and a Fraction table document.
"""

import hashlib
import json
import math
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from omniex import (
    EntropyOracle,
    RateVector,
    make_dmms_source,
    minimize_weighted,
    modified_edmond,
    rco_sum_rate,
    verify_feasible,
)
from omniex import field as ff
from omniex import sources
from omniex.cli import main
from omniex.reference import iter_submasks, modified_edmond_setfn
from omniex.setfun import DELTA, label, members, order_by_weight, value_le
from omniex.errors import ValidationError
from omniex.sources import TableSource, validate

from conftest import random_linear_source

P61 = (1 << 61) - 1
INT64_SAFE = 1 << 62
INT32_SAFE = 1 << 30
# The production sweep visits users by ascending weight; the reference
# sweep takes the order as an argument, and the ids keep the cases' names.
ORDERINGS = ("ascending",)


def fraction_table(seed: int, m: int) -> EntropyOracle:
    """H = 2/3 * rank_1 + 5/7 * rank_2: an exact table of Fractions."""
    rng = random.Random(seed)
    a = EntropyOracle(random_linear_source(rng, m=m, n_packets=6, p=7))
    b = EntropyOracle(random_linear_source(rng, m=m, n_packets=4, p=11))
    entries = {mask: Fraction(2, 3) * a.entropy(mask) + Fraction(5, 7) * b.entropy(mask)
               for mask in range(1, 1 << m)}
    return EntropyOracle(TableSource(m=m, entries=entries))


def exact_oracles():
    rng = random.Random(83)
    yield EntropyOracle(random_linear_source(rng, m=5, n_packets=7, p=101))
    yield EntropyOracle(random_linear_source(rng, m=6, n_packets=8, p=P61))
    yield EntropyOracle(random_linear_source(rng, m=7, n_packets=6, p=101))
    yield fraction_table(89, 5)


def sweep_bound(oracle, beta, alpha=None) -> int:
    """The sweep's bound on its keys, fixed before the first step:
    m^2 * (num + 2 * den * max(max|H|, 1)) for beta = num/den."""
    beta = Fraction(beta)
    peak = max(1, max(abs(oracle.entropy(s)) for s in range(oracle.full_mask + 1)))
    return math.ceil(oracle.m ** 2 * (beta.numerator + 2 * beta.denominator * peak))


def key_span(oracle, beta, alpha) -> int:
    """den * max|H| + max|den * Z(S)| over the largest table of subset sums
    the sweep builds (every subset of all users but the last visited), with
    Z from the per-subset reference sweep."""
    den = Fraction(beta).denominator
    z, _, _, _ = modified_edmond_setfn(oracle.f_beta(beta), alpha, ordering="ascending")
    order = order_by_weight(alpha)
    prefix = sum(1 << j for j in order[:-1])
    peak = max(abs(oracle.entropy(s)) for s in range(oracle.full_mask + 1))
    zmax = max(abs(sum((z[i] for i in members(s)), Fraction(0)))
               for s in iter_submasks(prefix))
    return math.ceil(den * peak + den * zmax)


def budget(x: Fraction, den: int) -> Fraction:
    """A budget near x with denominator exactly den."""
    num = math.floor(x * den)
    while math.gcd(num, den) != 1:
        num += 1
    return Fraction(num, den)


def dens_around(limit: int, span_at, spread: int = 24) -> list[int]:
    """Denominators whose span (``span_at(den)``) lands just below and just
    above ``limit``.  The span grows about linearly in den, so the crossing
    is estimated from one span, bracketed, found by bisection, and its
    neighbours are taken on both sides."""
    probe = 10 ** 12
    guess = limit * probe // span_at(probe)
    width = 64
    lo, hi = max(1, guess - width), guess + width
    while span_at(lo) >= limit or span_at(hi) < limit:
        width *= 8
        lo, hi = max(1, guess - width), guess + width
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if span_at(mid) < limit:
            lo = mid
        else:
            hi = mid
    return [d for d in range(lo - spread, hi + spread) if d > 0]


# The ids keep the names these cases had beside a cap parameter.
@pytest.mark.parametrize("ordering", ORDERINGS, ids=[f"{o}-None" for o in ORDERINGS])
def test_exact_sweep_across_the_int64_boundary(ordering):
    rng = random.Random(97)
    for oracle in exact_oracles():
        alpha = tuple(rng.randint(1, 5) for _ in range(oracle.m))
        # Budgets far above H(X_M) make den * Z(S), not den * H, the span.
        for x in (Fraction(1, 3), oracle.total() * Fraction(5, 7), oracle.total() + 1,
                  (oracle.total() + 1) * 2 ** 20):
            # The up-front bound crosses 2^62, where the copy leaves int64,
            # at budgets where the keys themselves stay far below it; below
            # 2^30 the copy is int32.
            for limit, span in ((INT64_SAFE, key_span), (2 * INT64_SAFE, key_span),
                                (INT64_SAFE, sweep_bound), (INT32_SAFE, sweep_bound)):
                dens = dens_around(
                    limit, lambda d: span(oracle, budget(x, d), alpha))
                spans = [span(oracle, budget(x, d), alpha) for d in dens]
                assert min(spans) < limit <= max(spans)
                for den in dens[::4] + [dens[len(dens) // 2]]:
                    beta = budget(x, den)
                    res = modified_edmond(oracle, beta, alpha)
                    z, tight, partition, evaluations = modified_edmond_setfn(
                        oracle.f_beta(beta), alpha, ordering=ordering)
                    assert res.z == z, (beta, ordering)
                    assert all(type(a) is type(b) for a, b in zip(res.z, z))
                    assert res.tight_sets == tight
                    assert res.partition == partition
                    assert res.segment.rates_at(beta) == res.z
                    assert res.evaluations == evaluations


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_exact_sweep_keeps_the_type_of_the_budget(ordering):
    # An int budget gives int coordinates and an int g on an integer
    # table, and a Fraction budget gives Fractions, as the reference does.
    # Budgets beyond int64 make the first coordinate alone too large for
    # the int64 sums, though every key of the first step fits.
    rng = random.Random(149)
    for oracle in exact_oracles():
        alpha = tuple(rng.randint(1, 5) for _ in range(oracle.m))
        total = oracle.total()
        for beta in (0, total, total + 3, Fraction(total), Fraction(2 * total + 1, 3),
                     2 ** 70, Fraction(2 ** 64 + 1, 3)):
            res = modified_edmond(oracle, beta, alpha)
            z, _, partition, _ = modified_edmond_setfn(
                oracle.f_beta(beta), alpha, ordering=ordering)
            assert res.z == z
            assert [type(v) for v in res.z] == [type(v) for v in z], beta
            assert type(res.g_value) is type(partition.g_value), beta


def reference_feasible(oracle: EntropyOracle, values) -> bool:
    """R(S) >= H(X_M) - H(X_{S^c}) cut by cut, summed afresh per subset."""
    full = oracle.full_mask
    total = oracle.entropy(full)
    return all(total - oracle.entropy(full & ~s)
               <= sum((values[i] for i in members(s)), 0) for s in range(1, full))


def cut_span(oracle, values) -> int:
    """D * max|H| + max|D * R(S)| for the common denominator D of values."""
    scale = math.lcm(*(Fraction(v).denominator for v in values))
    peak = max(abs(oracle.entropy(s)) for s in range(oracle.full_mask + 1))
    most = max(abs(sum((values[i] for i in members(s)), Fraction(0)))
               for s in range(oracle.full_mask + 1))
    return math.ceil(scale * peak + scale * most)


def test_feasibility_across_the_int64_boundary():
    rng = random.Random(101)
    for oracle in exact_oracles():
        tight = rco_sum_rate(oracle).rates.values
        # A user on a tight cut: taking any amount off its rate is infeasible.
        cut = next(s for s in range(1, oracle.full_mask)
                   if sum((tight[i] for i in members(s)), 0) == oracle.cond_entropy(s))
        low = rng.choice(members(cut))
        high = rng.randrange(oracle.m)

        def shifted(den, user, step):
            values = list(tight)
            values[user] += Fraction(step, den)
            return values

        for limit in (INT64_SAFE, 2 * INT64_SAFE):
            dens = dens_around(limit, lambda d: cut_span(oracle, shifted(d, high, 1)))
            for den in dens[::3]:
                for values, expected in ((shifted(den, high, 1), True),
                                         (shifted(den, low, -1), False)):
                    got = verify_feasible(
                        oracle, RateVector(values=tuple(values), unit=oracle.unit))
                    assert got == reference_feasible(oracle, values) == expected, den


def scalar_violations(oracle):
    """The first (S, i) and (S, i, j) that ``violations`` looks for, found
    one subset at a time in its order: i, then j, then S ascending."""
    h, m, exact = oracle.entropy, oracle.m, oracle.exact
    monotone = next(((s, i) for i in range(m) for s in range(1 << m)
                     if not s >> i & 1 and not value_le(h(s), h(s | 1 << i), exact)),
                    None)
    submodular = next(
        ((s, i, j) for i in range(m) for j in range(i + 1, m) for s in range(1 << m)
         if not (s >> i & 1 or s >> j & 1)
         and not value_le(h(s | 1 << i | 1 << j) + h(s), h(s | 1 << i) + h(s | 1 << j),
                          exact)),
        None)
    return monotone, submodular


def perturbed_tables(rng: random.Random):
    """Rank tables of random linear sources, as ints, Fractions and floats,
    each with one entry moved: by 1, or by just under or over DELTA."""
    for trial in range(120):
        m = rng.randint(1, 6)
        ranks = EntropyOracle(random_linear_source(rng, m=m, n_packets=rng.randint(1, 5)))
        entries = {s: ranks.entropy(s) for s in range(1, 1 << m)}
        kind = trial % 3
        if kind == 1:
            entries = {s: Fraction(v, 3) for s, v in entries.items()}
        elif kind == 2:
            entries = {s: v / 3 for s, v in entries.items()}
        moved = rng.randrange(1, 1 << m)
        step = rng.choice((-1, 1)) * (1 if kind < 2 else rng.choice((DELTA / 2, 2 * DELTA, 1)))
        if rng.random() < 0.8:
            entries[moved] += step
        yield EntropyOracle(TableSource(m=m, entries=entries))


@pytest.mark.parametrize("filled", (False, True), ids=("lazy", "filled"))
def test_masks_outside_the_ground_set_are_refused(filled):
    rng = random.Random(41)
    oracles = (EntropyOracle(random_linear_source(rng, m=3, n_packets=4, p=5)),
               EntropyOracle(make_dmms_source((2, 2), np.full((2, 2), 0.25))),
               EntropyOracle(TableSource(m=2, entries={1: 1, 2: 1, 3: 2})))
    for oracle in oracles:
        if filled:
            oracle.array()
        full = oracle.full_mask
        for mask in (-1, -3, full + 1, full + 2, 1 << 40):
            message = re.escape(f"mask {mask:#x} uses bits outside the ground set")
            with pytest.raises(ValueError, match=message):
                oracle.entropy(mask)
            with pytest.raises(ValueError, match=message):
                oracle.cond_entropy(mask)
        assert oracle.calls == 0
        assert oracle.entropy(full) == oracle.total()


def test_validation_reports_table_masks_outside_the_ground_set():
    entries = {1: 1, 2: 1, 3: 2}
    for mask in (-1, 4, 9):
        source = TableSource(m=2, entries={**entries, mask: 1})
        assert validate(source) == [
            f"entropy table has a mask outside the ground set: {mask:#x}"]
        with pytest.raises(ValidationError):
            EntropyOracle(source)


def test_violations_match_a_scalar_scan():
    rng = random.Random(151)
    found = set()
    for oracle in perturbed_tables(rng):
        got = oracle.violations()
        assert got == scalar_violations(oracle), oracle.source.entries
        found.add(tuple(v is None for v in got))
    # Tables of every verdict were met: both properties, either, neither.
    assert found == {(True, True), (True, False), (False, True), (False, False)}
    for oracle in exact_oracles():
        assert oracle.violations() == (None, None)


def test_counters_after_sum_rate_on_pmf_and_fraction_tables():
    # calls and oracle_queries() after rco_sum_rate, as counted while the
    # sweep read the memo through per-step ``entropies`` batches.
    expected = {3: ((54, 7), (54, 7)), 5: ((121, 31), (162, 31)),
                7: ((419, 127), (699, 127))}
    for m, (want_pmf, want_table) in expected.items():
        pmf = np.random.RandomState(100 + m).dirichlet(np.full(1 << m, 0.3))
        oracle = EntropyOracle(make_dmms_source((2,) * m, pmf.reshape((2,) * m)))
        rco_sum_rate(oracle)
        assert (oracle.calls, oracle.oracle_queries()) == want_pmf
        oracle = fraction_table(200 + m, m)
        rco_sum_rate(oracle)
        assert (oracle.calls, oracle.oracle_queries()) == want_table


def test_table_on_a_warm_memo_runs_no_elimination(monkeypatch):
    # Every subset is queried lazily first; table() then has the source
    # build the table, whose values, types and counters are the memo's.
    # Once built, the table is the memo: neither table() nor a read
    # eliminates a row again.
    rng = random.Random(109)
    src = random_linear_source(rng, m=6, n_packets=7, p=101)
    warm = EntropyOracle(src)
    expected = warm.entropies(range(1 << src.m))
    calls = warm.calls
    warm.table()
    assert warm.array().dtype == np.int64
    assert warm.array().tolist() == expected == EntropyOracle(src).array().tolist()
    assert (warm.calls, warm.oracle_queries()) == (calls, warm.full_mask)

    def refuse(self, rows):
        raise AssertionError("a warm table eliminated a row")

    monkeypatch.setattr(ff.RowSpace, "extend_packed", refuse)
    warm.table()
    again = warm.entropies(range(1 << src.m))
    monkeypatch.undo()
    assert again == expected
    assert all(type(v) is int for v in again)
    assert (warm.calls, warm.oracle_queries()) == (calls + (1 << src.m), warm.full_mask)


def test_array_on_a_warm_pmf_or_table_memo_is_a_copy(monkeypatch):
    # The table built on a memo that holds every subset is a copy of its
    # values, with the dtype of the source kind; once built it is kept, so
    # neither the pmf kernel nor a table source's fill runs again.
    pmf = np.random.RandomState(149).dirichlet(np.full(32, 0.3)).reshape((2,) * 5)
    cases = [(make_dmms_source((2,) * 5, pmf), sources._PmfMarginals, "entropies", np.float64),
             (fraction_table(151, 5).source, TableSource, "_array", object)]
    for src, owner, name, dtype in cases:
        cold = EntropyOracle(src).array()
        warm = EntropyOracle(src)
        expected = warm.entropies(range(1 << src.m))
        calls = warm.calls
        table = warm.array()
        assert table.dtype == dtype and table.tolist() == expected == cold.tolist()
        assert (warm.calls, warm.oracle_queries()) == (calls, warm.full_mask)

        def refuse(*args):
            raise AssertionError("array() recomputed a warm table")

        monkeypatch.setattr(owner, name, refuse)
        assert warm.array() is table
        again = warm.entropies(range(1 << src.m))
        monkeypatch.undo()
        assert again == expected
        assert list(map(type, again)) == list(map(type, expected))


def test_threads_sharing_a_cold_oracle_match_a_serial_run():
    # Four threads fill and read one oracle at once; each result equals
    # the serial run's.  ``calls`` is not compared: its += may lose
    # increments between threads.
    rng = random.Random(131)
    pmf = np.random.RandomState(137).dirichlet(np.full(64, 0.3)).reshape((2,) * 6)
    sources = [random_linear_source(rng, m=7, n_packets=9, p=101),
               fraction_table(139, 5).source,
               make_dmms_source((2,) * 6, pmf)]

    def solve(oracle, alpha):
        rco = rco_sum_rate(oracle)
        return rco, minimize_weighted(oracle, alpha, rco=rco)

    for src in sources:
        alpha = tuple(rng.randint(1, 5) for _ in range(src.m))
        serial = solve(EntropyOracle(src), alpha)
        shared = EntropyOracle(src)
        start = threading.Barrier(4)

        def worker():
            start.wait()
            return solve(shared, alpha)

        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = [f.result() for f in [pool.submit(worker) for _ in range(4)]]
        assert runs == [serial] * 4
        assert shared.oracle_queries() == shared.full_mask


def table_document(seed: int, halves: bool) -> dict:
    """The subset ranks of a random 5-user linear source as a table
    document: JSON integers, or with ``halves`` rank_1 / 2 + rank_2 as
    rational strings, which are read as Fractions."""
    rng = random.Random(seed)
    a = EntropyOracle(random_linear_source(rng, m=5, n_packets=6, p=7))
    if halves:
        b = EntropyOracle(random_linear_source(rng, m=5, n_packets=4, p=11))
        value = lambda s: f"{a.entropy(s) + 2 * b.entropy(s)}/2"
    else:
        value = a.entropy
    return {"source": {"kind": "table", "m": 5,
                       "entropies": {label(s).strip("{}"): value(s)
                                     for s in range(1, 32)}}}


# sha256 of the standard output of each command on the int (False) and the
# Fraction (True) table document.  No golden case parses a table document,
# so these pin the int64 and the object table of a table source.
TABLE_DOCUMENT_DIGESTS = {
    (False, "rates"):
        "4bac4d7dcb889d875512f0ca0f4a5985dd8ca3c20e93b530f4e072b9b855972a",
    (False, "rates --alpha 3,1,2,5,4"):
        "5c715035fe1a0b0871668dec7f8260c92d10342e16e2514fb144ce1d257bafe7",
    (False, "ilp --n 2"):
        "8b3f9f6be2e955538e3783bbf7b0377f9b78dcf0e8871e3a49d7eb0a3b097aec",
    (True, "rates"):
        "22881ce07f6f3f7f6516863530776f994c7ab85ae0f97733f63ac2ff4ecf679e",
    (True, "rates --alpha 3,1,2,5,4"):
        "e283b0b5c80e7ff3f99780134acd36859a7bfdd7180bd44c05d1730f77ab4ce2",
    (True, "ilp --n 2"):
        "98101487fb2e029bc05934d8cfc33ad0208cfe4a7bb71c1133c7b729a7665c75",
}


def test_table_documents_keep_their_output_bytes(capsys, tmp_path):
    for (halves, command), digest in TABLE_DOCUMENT_DIGESTS.items():
        path = tmp_path / f"table-{halves}.json"
        path.write_text(json.dumps(table_document(223, halves)))
        name, *flags = command.split()
        assert main([name, str(path), *flags]) == 0, command
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (halves, command)
