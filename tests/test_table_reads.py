"""How the subset table is read: the sweep's working memory, and how often
a table source scans its entries.

The sweep builds its keys in one private copy of the table, relabeled by
visiting position, and keeps the prefix's coordinate sums in the spent
slices of that copy, so a sweep allocates the copy and a step's tie mask,
and never writes the oracle's table.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from omniex import EntropyOracle, modified_edmond
from omniex.sources import TableSource

from conftest import baseline_source
from test_flat_table import fraction_table

M = 16


def coverage_entries(m: int, scale):
    """H(S) = scale * the number of packets the users of S hold, over 40
    packets with 1..12 packets per user: an entropy function, with an
    entry for every nonempty subset."""
    rng = np.random.default_rng(m)
    sets = [int(sum(1 << int(q) for q in rng.choice(40, rng.integers(1, 13), replace=False)))
            for _ in range(m)]
    held = [0]
    for packets in sets:
        held += [h | packets for h in held]
    return {s: scale * bin(held[s]).count("1") for s in range(1, 1 << m)}


@pytest.mark.parametrize("scale", (1, 0.5), ids=("int64", "float64"))
def test_a_sweep_uses_under_14_bytes_per_subset_and_leaves_the_table(scale):
    oracle = EntropyOracle(TableSource(m=M, entries=coverage_entries(M, scale)))
    table = oracle.array()
    before = table.copy()
    assert table.dtype == before.dtype == (np.int64 if scale == 1 else np.float64)
    # Index order, then every user visited in reverse.
    for alpha in (None, tuple(range(M, 0, -1))):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            modified_edmond(oracle, oracle.total() // 2, alpha)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 14 * (1 << M), (alpha, peak / (1 << M))
    after = oracle.array()
    assert after.dtype == before.dtype
    assert np.array_equal(after, before)


def traced_peak(oracle, beta, alpha) -> float:
    """The traced peak of one sweep, in bytes per subset."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        modified_edmond(oracle, beta, alpha)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return peak / (1 << oracle.m)


def coverage(scale):
    oracle = EntropyOracle(TableSource(m=M, entries=coverage_entries(M, scale)))
    return oracle, oracle.total() // 2


def fractions_m14():
    oracle = fraction_table(5, 14)
    return oracle, Fraction(oracle.total()) / 2


def python_ints_m14():
    # A budget of denominator 10^30 puts every key past the int64 bound.
    oracle = EntropyOracle(baseline_source(14))
    return oracle, Fraction(oracle.total() * 10 ** 30 - 1, 10 ** 30)


# Per key kind: the oracle and budget, the table's dtype and the bound on
# a sweep's traced peak, in bytes per subset.  The Baseline table is
# int64, but its budget's keys are Python ints.
KEY_KINDS = {
    "int64": (lambda: coverage(1), np.int64, 10),
    "float64": (lambda: coverage(0.5), np.float64, 10),
    "fractions": (fractions_m14, object, 70),
    "python-ints": (python_ints_m14, np.int64, 62),
}


@pytest.mark.parametrize("kind", KEY_KINDS)
def test_a_sweep_keeps_its_sums_in_its_table_copy(kind):
    make, dtype, bound = KEY_KINDS[kind]
    oracle, beta = make()
    table = oracle.array()
    before = table.copy()
    assert table.dtype == before.dtype == dtype
    # Index order, then every user visited in reverse.
    for alpha in (None, tuple(range(oracle.m, 0, -1))):
        peak = traced_peak(oracle, beta, alpha)
        assert peak < bound, (alpha, peak)
    after = oracle.array()
    assert after.dtype == before.dtype
    assert np.array_equal(after, before)


class CountingEntries(dict):
    """Entries that count the scans of their values."""

    scans = 0

    def values(self):
        self.scans += 1
        return super().values()


def test_a_table_source_scans_its_entries_for_exact_once():
    # ``rates`` on a table document reads ``exact`` four times: in two
    # validations, in the oracle and in the table.
    for first, exact in ((1, True), (1.0, False)):
        source = TableSource(m=2, entries=CountingEntries({1: first, 2: 1, 3: 2}))
        assert [source.exact for _ in range(4)] == [exact] * 4
        assert source.entries.scans == 1
