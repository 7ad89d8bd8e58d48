import math
import random
from fractions import Fraction

import numpy as np
import pytest

from omniex import (
    DmmsSource,
    EntropyOracle,
    FieldMatrix,
    TableSource,
    UnitMismatch,
    ValidationError,
    dmms_from_linear,
    is_intersecting_submodular,
    is_submodular,
    make_dmms_source,
    make_linear_source,
    rco_sum_rate,
    validate,
)
from omniex import fixtures
from omniex.documents import load_problem
from omniex.setfun import DELTA

from conftest import example1_source, figure1_source, random_linear_source


def test_linear_entropies_are_ranks():
    oracle = EntropyOracle(example1_source())
    assert oracle.entropy(0b001) == 2
    assert oracle.entropy(0b011) == 3
    assert oracle.entropy(0) == 0
    assert oracle.total() == 3


def test_linear_entropy_values_are_integers():
    rng = random.Random(1)
    for _ in range(10):
        oracle = EntropyOracle(random_linear_source(rng, m_max=5, n_max=6))
        for s in range(1 << oracle.m):
            h = oracle.entropy(s)
            assert isinstance(h, int)
            c = oracle.cond_entropy(s)
            assert isinstance(c, int) and c >= 0


def test_cond_entropy_examples():
    ex1 = EntropyOracle(example1_source())
    assert ex1.cond_entropy(0b001) == 0  # users 2,3 jointly know everything
    fig = EntropyOracle(figure1_source())
    assert fig.cond_entropy(0b010) == 0  # users 1,3 hold all four packets
    assert fig.cond_entropy(fig.full_mask) == fig.total() == 4


def test_cond_entropy_never_exceeds_entropy():
    rng = random.Random(2)
    for _ in range(10):
        oracle = EntropyOracle(random_linear_source(rng, m_max=5, n_max=6))
        for s in range(1, 1 << oracle.m):
            assert oracle.cond_entropy(s) <= oracle.entropy(s)


def test_validate_accepts_the_fixtures():
    assert validate(example1_source()) == []
    assert validate(figure1_source()) == []


def test_validate_flags_rank_deficient_sources():
    # Two users that both miss the last packet.
    src = make_linear_source(
        [[[1, 0, 0]], [[0, 1, 0]]], p=5)
    problems = validate(src)
    assert any("collective observations do not determine W" in p
               for p in problems)
    with pytest.raises(ValidationError):
        EntropyOracle(src)


def test_validate_flags_bad_pmf():
    src = make_dmms_source((2, 2), [[0.4, 0.3], [0.1, 0.1]])
    problems = validate(src)
    assert any("sums to" in p for p in problems)
    ok = make_dmms_source((2, 2), [[0.4, 0.3], [0.1, 0.2]])
    assert validate(ok) == []


def test_validate_flags_non_finite_pmf_entries():
    for bad in (float("nan"), float("inf"), -float("inf")):
        src = make_dmms_source((2, 2), [[bad, 0.0], [0.0, 1.0]])
        assert validate(src) == ["pmf has non-finite entries"]


def test_validate_flags_incomplete_table():
    src = TableSource(m=2, entries={0b01: 1})
    assert any("missing" in p for p in validate(src))


def test_dmms_entropy_known_values():
    # Two identical uniform bits: every marginal has one bit of entropy.
    pmf = np.zeros((2, 2))
    pmf[0, 0] = pmf[1, 1] = 0.5
    oracle = EntropyOracle(make_dmms_source((2, 2), pmf))
    assert oracle.unit == "bits" and not oracle.exact
    assert abs(oracle.entropy(0b01) - 1.0) <= DELTA
    assert abs(oracle.entropy(0b10) - 1.0) <= DELTA
    assert abs(oracle.total() - 1.0) <= DELTA
    assert abs(oracle.cond_entropy(0b01) - 0.0) <= DELTA


def test_budget_function_values():
    oracle = EntropyOracle(example1_source())
    f = oracle.f_beta(Fraction(3, 2))
    assert f(0b001) == Fraction(1, 2)
    assert f(0) == 0
    f_total = oracle.f_beta(oracle.total())
    assert f_total(oracle.full_mask) == oracle.total()


def test_budget_function_submodularity_regimes():
    rng = random.Random(3)
    for _ in range(8):
        oracle = EntropyOracle(random_linear_source(rng, m_max=5, n_max=6))
        assert is_intersecting_submodular(oracle.f_beta(0))
        assert is_submodular(oracle.f_beta(oracle.total()))


def test_entropy_is_submodular_both_models():
    rng = random.Random(4)
    for _ in range(5):
        src = random_linear_source(rng, m=rng.randint(2, 4), n_packets=4, p=5)
        lin = EntropyOracle(src)
        full = lin.full_mask
        for s in range(full + 1):
            for t in range(full + 1):
                assert (lin.entropy(s) + lin.entropy(t)
                        >= lin.entropy(s | t) + lin.entropy(s & t))
    pmf = np.random.RandomState(7).dirichlet(np.ones(8)).reshape((2, 2, 2))
    dm = EntropyOracle(make_dmms_source((2, 2, 2), pmf))
    for s in range(8):
        for t in range(8):
            lhs = dm.entropy(s) + dm.entropy(t)
            rhs = dm.entropy(s | t) + dm.entropy(s & t)
            assert rhs <= lhs + DELTA


def test_entropy_is_monotone():
    rng = random.Random(5)
    oracle = EntropyOracle(random_linear_source(rng, m=5, n_packets=6, p=7))
    for s in range(1 << 5):
        for i in range(5):
            assert oracle.entropy(s) <= oracle.entropy(s | 1 << i)


def test_cross_model_consistency():
    # A uniform packet vector pushed through the observation matrices has
    # pmf entropy rank * log2(p) in every marginal.
    rng = random.Random(6)
    for p, n_packets in ((2, 4), (3, 3), (5, 2)):
        src = random_linear_source(rng, m=3, n_packets=n_packets, p=p)
        lin = EntropyOracle(src)
        dm = EntropyOracle(dmms_from_linear(src))
        for s in range(1 << 3):
            expected = lin.entropy(s) * math.log2(p)
            assert abs(dm.entropy(s) - expected) <= 1e-6


def test_memoization_counts_distinct_subsets():
    oracle = EntropyOracle(example1_source())
    for _ in range(5):
        oracle.entropy(0b011)
        oracle.entropy(0b101)
    assert oracle.oracle_queries() == 2
    assert oracle.calls == 10


def test_unit_checking():
    oracle = EntropyOracle(example1_source())
    assert oracle.unit == "F_5-symbols"
    with pytest.raises(UnitMismatch):
        oracle.f_beta(1, unit="bits")
    oracle.f_beta(1, unit="F_5-symbols")


def test_nonprime_modulus_rejected_with_hint():
    with pytest.raises(ValueError, match="prime"):
        make_linear_source([[[1, 0], [0, 1]]], p=4)


P61 = (1 << 61) - 1


def _table_sources():
    rng = random.Random(41)
    yield random_linear_source(rng, m=6, n_packets=7, p=P61)
    yield random_linear_source(rng, m=7, n_packets=5, p=101)
    # A user without rows, and two users with the same rows.
    src = random_linear_source(rng, m=4, n_packets=5, p=7)
    empty = FieldMatrix.from_rows([], 7, cols=5)
    yield make_linear_source([src.matrices[0], empty, *src.matrices,
                              src.matrices[2]], p=7, N=5)
    # One user alone determines W: every subset holding it is cut short at
    # rank N, both at the first user and in the middle of the order.
    full = FieldMatrix.identity(5, P61)
    rows = random_linear_source(rng, m=4, n_packets=5, p=P61).matrices
    yield make_linear_source([full, *rows], p=P61, N=5)
    yield make_linear_source(
        [rows[0], rows[1], full, rows[2], FieldMatrix.from_rows([], P61, cols=5)],
        p=P61, N=5)


def test_table_fills_every_subset_with_its_rank():
    for src in _table_sources():
        oracle = EntropyOracle(src)
        oracle.table()
        assert oracle.oracle_queries() == oracle.full_mask
        assert oracle.calls == 0
        for mask in range(1, oracle.full_mask + 1):
            expected = len(src.stacked(mask)._echelon()[1])
            assert oracle.entropy(mask) == expected, (src.m, mask)
        assert oracle.oracle_queries() == oracle.full_mask


def _wide_p61_sources():
    """N = 40 at p = 2^61 - 1: random users, and users of six random rows
    each plus a row repeating a combination of the previous user's rows,
    so that many subsets stay below rank N."""
    rng = random.Random(40)
    yield random_linear_source(rng, m=6, n_packets=40, p=P61)
    users = []
    for i in range(7):
        rows = [[rng.randrange(P61) for _ in range(40)] for _ in range(6)]
        if users:
            a, b = users[-1][0], users[-1][1]
            rows.append([(3 * x + P61 - 1 - y) % P61 for x, y in zip(a, b)])
        users.append(rows)
    yield make_linear_source(users, p=P61, N=40)


def test_table_matches_echelon_at_forty_packets_mod_p61():
    for src in _wide_p61_sources():
        oracle = EntropyOracle(src)
        oracle.table()
        assert oracle.oracle_queries() == oracle.full_mask
        ranks = set()
        for mask in range(1, oracle.full_mask + 1):
            expected = len(src.stacked(mask)._echelon()[1])
            assert oracle.entropy(mask) == expected, (src.m, mask)
            ranks.add(expected)
        assert len(ranks) > 5


def test_table_skips_pmf_and_table_sources():
    pmf = np.random.RandomState(3).dirichlet(np.ones(8)).reshape((2, 2, 2))
    table = TableSource(m=2, entries={0b01: 1, 0b10: 1, 0b11: 2})
    for src in (make_dmms_source((2, 2, 2), pmf), table):
        oracle = EntropyOracle(src)
        oracle.table()
        assert oracle.oracle_queries() == 0


def test_counters_after_sum_rate_are_unchanged():
    # calls and oracle_queries() after rco_sum_rate, as counted by the
    # lazy per-subset oracle before the depth-first table existed.
    for name in ("example1", "figure1"):
        oracle = EntropyOracle(load_problem(str(fixtures.path(name))).source)
        rco_sum_rate(oracle)
        assert (oracle.calls, oracle.oracle_queries()) == (39, 7)
    rng = random.Random(31)
    expected = [(121, 31), (296, 63), (699, 127), (556, 127)]
    for (m, p), want in zip(((5, 7), (6, 101), (7, P61), (7, 11)), expected):
        oracle = EntropyOracle(random_linear_source(rng, m=m, p=p))
        rco_sum_rate(oracle)
        assert (oracle.calls, oracle.oracle_queries()) == want


def test_entropies_read_like_per_mask_calls():
    # The batch read of the sweep counts and memoizes exactly as the same
    # per-mask ``entropy`` calls would, on a cold and on a filled memo.
    rng = random.Random(59)
    src = random_linear_source(rng, m=5, n_packets=6, p=101)
    pmf = np.random.RandomState(61).dirichlet(np.ones(16)).reshape((2,) * 4)
    masks = [0b00011, 0b10110, 0b00011, 0b11111, 0]
    for source in (src, make_dmms_source((2,) * 4, pmf)):
        m = source.m
        batch, single = EntropyOracle(source), EntropyOracle(source)
        subset = [mask & ((1 << m) - 1) for mask in masks]
        assert batch.entropies(subset) == [single.entropy(s) for s in subset]
        assert (batch.calls, batch.oracle_queries()) == (
            single.calls, single.oracle_queries())
        batch.table()
        full = list(range(1, 1 << m))
        assert batch.entropies(full) == [single.entropy(s) for s in full]
        assert (batch.calls, batch.oracle_queries()) == (
            single.calls, single.oracle_queries())


def pmf_entropy_reference(pmf, mask):
    # The per-mask marginal sum the batched pmf kernel must reproduce.
    drop = tuple(i for i in range(pmf.ndim) if not mask >> i & 1)
    marg = pmf.sum(axis=drop) if drop else pmf
    q = marg.reshape(-1)
    q = q[q > 0.0]
    return float(-(q * np.log2(q)).sum())


def skewed_pmf(shape, seed, zeros=0.0, order="C"):
    rng = np.random.RandomState(seed)
    raw = rng.random_sample(shape) ** 4 + 1e-6
    raw[rng.random_sample(shape) < zeros] = 0.0
    return np.asarray(raw / raw.sum(), order=order)


PMF_KERNEL_CASES = [
    ((2,) * 8, 0.0, "C"),
    ((2,) * 11, 0.0, "C"),
    ((3,) * 7, 0.0, "C"),
    ((3,) * 8, 0.0, "C"),
    ((3,) * 9, 0.0, "C"),          # 19683 entries
    ((4,) * 7, 0.0, "C"),          # 16384 entries
    ((4,) * 5, 0.0, "C"),
    ((5,) * 4, 0.0, "C"),
    ((3, 1, 2, 4, 2), 0.3, "C"),
    ((7, 2, 3, 2), 0.25, "C"),
    ((2, 3, 1, 5, 1, 2), 0.2, "F"),
    ((2,) * 9, 0.05, "F"),
    ((1, 2, 1, 3), 0.0, "C"),      # masks 0b0101 keep only size-1 axes
    ((1, 1, 1), 0.0, "C"),
    ((100, 100, 3), 0.1, "C"),     # offsets and folds split over gathers
]


@pytest.mark.parametrize("shape, zeros, order", PMF_KERNEL_CASES)
def test_batched_pmf_entropies_equal_the_per_mask_sums(shape, zeros, order):
    # Bit for bit, on every mask, so the pmf golden digests cannot move.
    pmf = skewed_pmf(shape, seed=len(shape) * 31 + sum(shape), zeros=zeros,
                     order=order)
    src = make_dmms_source(shape, pmf)
    assert src.pmf.flags.c_contiguous
    masks = list(range(1, 1 << len(shape)))
    got = EntropyOracle(src).entropies(masks)
    assert got == [pmf_entropy_reference(src.pmf, s) for s in masks]
    if order == "F":
        # A table built directly is read as its C-ordered copy.
        raw = EntropyOracle(DmmsSource(alphabets=shape, pmf=pmf))
        assert raw.entropies(masks) == got


def test_single_pmf_entropy_on_a_cold_oracle():
    pmf = skewed_pmf((3, 1, 2, 4, 2), seed=5, zeros=0.3)
    src = make_dmms_source(pmf.shape, pmf)
    for mask in range(1, 1 << src.m):
        oracle = EntropyOracle(src)
        value = oracle.entropy(mask)
        assert type(value) is float
        assert value == pmf_entropy_reference(src.pmf, mask)
        assert (oracle.calls, oracle.oracle_queries()) == (1, 1)


def test_cold_pmf_batch_memoizes_the_distinct_nonzero_masks():
    src = make_dmms_source((2, 3, 2, 2), skewed_pmf((2, 3, 2, 2), seed=7, zeros=0.2))
    oracle = EntropyOracle(src)
    masks = [0b0101, 0, 0b0101, 0b1111, 0b0010, 0, 0b1111]
    values = oracle.entropies(masks)
    assert values == [pmf_entropy_reference(src.pmf, s) if s else 0.0 for s in masks]
    assert type(values[1]) is float
    assert (oracle.calls, oracle.oracle_queries()) == (7, 3)
    # A partly warm batch computes only its new masks.
    more = [0b1111, 0b1000, 0b1000, 0]
    assert oracle.entropies(more) == [
        pmf_entropy_reference(src.pmf, s) if s else 0.0 for s in more]
    assert (oracle.calls, oracle.oracle_queries()) == (11, 4)
    assert oracle.entropies([]) == []
    assert (oracle.calls, oracle.oracle_queries()) == (11, 4)
