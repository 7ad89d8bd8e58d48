"""The table of all subset ranks of a linear source, filled in one pass.

The fill takes users by descending row count but writes every rank at its
mask in user bits.  Here it is compared, mask by mask, with a reduced row
echelon form of the stacked rows, on sources whose row counts ascend, tie,
are zero or exceed N, and so are a cold oracle's lazy queries.  Its work is pinned as a count of row-space copies
(one per subset the pass visits) on the Baseline source, and its memory as
a traced peak close to the table itself.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from omniex import EntropyOracle, make_linear_source
from omniex import field as ff

from conftest import baseline_source

P61 = (1 << 61) - 1


@st.composite
def linear_sources(draw):
    """A linear source of 1..7 users whose row counts ascend, tie or are
    drawn freely, zero and more than N included; some rows repeat or scale
    a row the user already has.  Unit rows top up drawn users until the
    rows determine W."""
    p = draw(st.sampled_from((2, 101, P61)))
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 5))
    counts = draw(st.lists(st.integers(0, n + 2), min_size=m, max_size=m))
    shape = draw(st.sampled_from(("free", "ascending", "tied")))
    if shape == "ascending":
        counts.sort()
    elif shape == "tied":
        counts = [counts[0]] * m
    entry = st.integers(0, p - 1)
    mats = []
    for count in counts:
        rows: list[list[int]] = []
        for _ in range(count):
            if rows and draw(st.booleans()):
                scale = draw(st.sampled_from((1, 2 % p, p - 1)))
                rows.append([scale * x % p for x in draw(st.sampled_from(rows))])
            else:
                rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
        mats.append(rows)
    space = ff.RowSpace(n, p)
    for rows in mats:
        for row in rows:
            space.add_packed(space.pack_rows(ff.FieldMatrix.from_rows([row], p))[0])
    for c in range(n):
        unit = [int(k == c) for k in range(n)]
        if space.add_packed(space.pack_rows(ff.FieldMatrix.from_rows([unit], p))[0]):
            mats[draw(st.integers(0, m - 1))].append(unit)
    return make_linear_source(mats, p=p, N=n)


@settings(max_examples=300, deadline=None)
@given(linear_sources())
def test_fill_equals_the_echelon_rank_of_every_subset(src):
    oracle = EntropyOracle(src)
    table = oracle.array()
    assert table.dtype == np.int64 and table.flags.c_contiguous
    assert (oracle.calls, oracle.oracle_queries()) == (0, oracle.full_mask)
    expected = [len(src.stacked(mask)._echelon()[1])
                for mask in range(oracle.full_mask + 1)]
    assert table.tolist() == expected
    # A cold oracle's lazy queries, one row space per mask, agree too.
    cold = EntropyOracle(src)
    assert [cold.entropy(mask) for mask in range(oracle.full_mask + 1)] == expected


def test_fill_copies_at_most_1023_row_spaces_on_the_baseline_source(monkeypatch):
    # One copy per subset the pass visits.  Taking users in index order,
    # as the fill once did, made 1680 copies on this source.
    oracle = EntropyOracle(baseline_source(14))
    copies = 0
    copy = ff.RowSpace.copy

    def counted(self):
        nonlocal copies
        copies += 1
        return copy(self)

    monkeypatch.setattr(ff.RowSpace, "copy", counted)
    oracle.array()
    assert copies <= 1023


def test_fill_peak_memory_stays_near_the_table():
    oracle = EntropyOracle(baseline_source(16))
    tracemalloc.start()
    try:
        oracle.array()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * (1 << 16)
