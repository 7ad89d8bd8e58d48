import random
from fractions import Fraction

import numpy as np
import pytest

from omniex import (
    EntropyOracle,
    InfeasibleBeta,
    RateVector,
    h_eval,
    ilp_rates,
    make_dmms_source,
    minimize_weighted,
    modified_edmond,
    rco_sum_rate,
    verify_feasible,
)

from conftest import (
    example1_source,
    fraction_matrix_rank,
    indicator_row,
    min_cost_by_vertex_enumeration,
    random_linear_source,
    slice_vertices,
    solve_unique_fractions,
)


def test_h_at_the_minimum_sum_rate():
    oracle = EntropyOracle(example1_source())
    pt = h_eval(oracle, (1, 1, 1), Fraction(3, 2))
    assert pt.value == Fraction(3, 2)
    assert pt.rates.values == (Fraction(1, 2),) * 3
    assert sum(pt.segment.b) == 1


def test_h_below_minimum_sum_rate_is_infeasible():
    oracle = EntropyOracle(example1_source())
    with pytest.raises(InfeasibleBeta):
        h_eval(oracle, (1, 1, 1), Fraction(1))


def test_h_matches_slice_vertex_enumeration():
    oracle = EntropyOracle(example1_source())
    alpha = (10, 1, 1)
    beta = Fraction(2)
    pt = h_eval(oracle, alpha, beta)
    verts = slice_vertices(oracle, beta)
    assert verts, "budget slice should have vertices"
    best = min(sum(Fraction(a) * x for a, x in zip(alpha, v)) for v in verts)
    assert pt.value == best
    assert tuple(pt.rates.values) in verts


def test_h_slice_enumeration_random_corpus():
    rng = random.Random(20)
    for _ in range(10):
        oracle = EntropyOracle(random_linear_source(rng, m_max=4, n_max=6))
        rco = rco_sum_rate(oracle)
        beta = rco.value + Fraction(rng.randint(0, 4), 2)
        if beta > oracle.total():
            beta = Fraction(oracle.total())
        alpha = tuple(rng.randint(0, 9) for _ in range(oracle.m))
        pt = h_eval(oracle, alpha, beta)
        verts = slice_vertices(oracle, beta)
        best = min(sum(Fraction(a) * x for a, x in zip(alpha, v)) for v in verts)
        assert pt.value == best


def test_uniform_weights_minimize_at_the_sum_rate_optimum():
    rng = random.Random(21)
    for _ in range(8):
        oracle = EntropyOracle(random_linear_source(rng, m_max=5, n_max=6))
        res = minimize_weighted(oracle, (1,) * oracle.m)
        rco = rco_sum_rate(oracle)
        assert res.beta_star == rco.value
        assert res.cost == rco.value


def test_expensive_user_is_silenced():
    oracle = EntropyOracle(example1_source())
    res = minimize_weighted(oracle, (100, 1, 1))
    assert res.rates.values[0] == 0
    expected, _vertex = min_cost_by_vertex_enumeration(oracle, (100, 1, 1))
    assert res.cost == expected
    assert verify_feasible(oracle, res.rates)


def test_weighted_cost_equals_vertex_enumeration_on_corpus():
    rng = random.Random(22)
    for _ in range(12):
        oracle = EntropyOracle(random_linear_source(rng, m_max=4, n_max=6))
        alpha = tuple(rng.randint(0, 10) for _ in range(oracle.m))
        res = minimize_weighted(oracle, alpha)
        expected, _vertex = min_cost_by_vertex_enumeration(oracle, alpha)
        assert res.cost == expected
        assert verify_feasible(oracle, res.rates)
        assert rco_sum_rate(oracle).value <= res.beta_star <= oracle.total()


def test_weighted_beats_random_feasible_samples_two_users():
    rng = random.Random(23)
    for _ in range(4):
        oracle = EntropyOracle(random_linear_source(rng, m=2, n_packets=4, p=7))
        alpha = (Fraction(rng.randint(0, 6), 2), Fraction(rng.randint(0, 6), 2))
        res = minimize_weighted(oracle, alpha)
        full = oracle.full_mask
        for _ in range(1000):
            r1 = Fraction(rng.randint(0, 4 * oracle.total()), 4)
            r2 = Fraction(rng.randint(0, 4 * oracle.total()), 4)
            cand = RateVector((r1, r2), unit=oracle.unit)
            if verify_feasible(oracle, cand):
                assert alpha[0] * r1 + alpha[1] * r2 >= res.cost


def test_h_is_convex_on_the_feasible_range():
    rng = random.Random(24)
    for _ in range(8):
        oracle = EntropyOracle(random_linear_source(rng, m_max=4, n_max=6))
        alpha = tuple(rng.randint(0, 5) for _ in range(oracle.m))
        lo = rco_sum_rate(oracle).value
        hi = Fraction(oracle.total())
        if lo == hi:
            continue
        b1 = lo + (hi - lo) * Fraction(rng.randint(0, 4), 8)
        b2 = lo + (hi - lo) * Fraction(rng.randint(4, 8), 8)
        h1 = h_eval(oracle, alpha, b1).value
        h2 = h_eval(oracle, alpha, b2).value
        for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            mid = lam * b1 + (1 - lam) * b2
            hm = h_eval(oracle, alpha, mid).value
            assert hm <= lam * h1 + (1 - lam) * h2


def test_breakpoint_rates_are_region_vertices():
    # At every located kink the rate vector satisfies m linearly
    # independent tight cut constraints, recoverable from the recorded
    # minimizer sets.
    rng = random.Random(25)
    checked = 0
    for _ in range(20):
        oracle = EntropyOracle(random_linear_source(rng, m_max=4, n_max=6))
        m = oracle.m
        alpha = tuple(rng.randint(1, 10) for _ in range(m))
        res = minimize_weighted(oracle, alpha)
        rates = res.rates.values
        full = oracle.full_mask
        tight = [s for s in range(1, full)
                 if sum(rates[i] for i in range(m) if s >> i & 1)
                 == oracle.cond_entropy(s)]
        if not tight:
            continue
        rows = [indicator_row(s, m) for s in tight]
        assert fraction_matrix_rank(rows) == m
        # Sweep-recorded tight sets map to tight cut constraints by
        # complementation.
        sweep = modified_edmond(oracle, res.beta_star, alpha, "ascending")
        for s in sweep.tight_sets:
            comp = full & ~s
            if comp:
                assert comp in tight
        # Solving m independent tight constraints reproduces the vector.
        chosen = []
        for s in tight:
            trial = chosen + [s]
            if fraction_matrix_rank([indicator_row(t, m) for t in trial]) == len(trial):
                chosen = trial
            if len(chosen) == m:
                break
        solved = solve_unique_fractions(
            [indicator_row(s, m) for s in chosen],
            [Fraction(oracle.cond_entropy(s)) for s in chosen])
        assert solved is not None
        assert tuple(solved) == tuple(Fraction(v) for v in rates)
        checked += 1
    assert checked >= 10


def test_ilp_tracks_weighted_optimum_within_bound():
    rng = random.Random(26)
    for _ in range(10):
        oracle = EntropyOracle(random_linear_source(rng, m_max=4, n_max=6))
        alpha = tuple(rng.randint(1, 10) for _ in range(oracle.m))
        best = minimize_weighted(oracle, alpha)
        for n in (1, 2, 3):
            res = ilp_rates(oracle, alpha, n)
            assert res.cost >= best.cost
            assert res.cost - best.cost <= Fraction(max(alpha), n)


def test_weighted_on_pmf_source():
    # Doubly-symmetric binary pair: both users see a uniform bit, equal
    # with probability 3/4.
    pmf = [[0.375, 0.125], [0.125, 0.375]]
    oracle = EntropyOracle(make_dmms_source((2, 2), pmf))
    res = minimize_weighted(oracle, (1.0, 1.0))
    rco = rco_sum_rate(oracle)
    assert abs(res.beta_star - rco.value) <= 1e-9
    # Minimum sum rate for two users is H(X1|X2) + H(X2|X1).
    expected = oracle.cond_entropy(0b01) + oracle.cond_entropy(0b10)
    assert abs(rco.value - expected) <= 1e-9
    res_w = minimize_weighted(oracle, (5.0, 1.0))
    assert res_w.cost <= res.cost * 5
    assert verify_feasible(oracle, res_w.rates)


def test_ilp_on_pmf_source_rounds_the_budget():
    pmf = [[0.375, 0.125], [0.125, 0.375]]
    oracle = EntropyOracle(make_dmms_source((2, 2), pmf))
    rco = rco_sum_rate(oracle)
    for n in (1, 2, 4):
        res = ilp_rates(oracle, (1.0, 1.0), n)
        import math
        expected = math.ceil(rco.value * n - 1e-9) / n
        assert abs(res.rates.total() - expected) <= 1e-6
        assert verify_feasible(oracle, res.rates)


def test_weighted_allows_zero_weights():
    oracle = EntropyOracle(example1_source())
    res = minimize_weighted(oracle, (0, 0, 0))
    assert res.cost == 0
    res2 = minimize_weighted(oracle, (0, 1, 1))
    expected, _ = min_cost_by_vertex_enumeration(oracle, (0, 1, 1))
    assert res2.cost == expected


def test_float_bracket_stops_at_its_tolerance():
    # A bracket no wider than the tolerance ends in its first iteration, on
    # the cheaper of its two endpoints: the lower one for the first weight
    # vector, the upper one for the second.  Both cost more than the kink
    # that the default tolerance finds between them.
    pmf = np.random.RandomState(0).dirichlet(np.full(8, 0.5)).reshape((2,) * 3)
    oracle = EntropyOracle(make_dmms_source((2,) * 3, pmf))
    rco = rco_sum_rate(oracle)
    cheaper_ends = []
    for alpha in ((1, 9, 1), (9, 1, 1)):
        ends = [h_eval(oracle, alpha, beta) for beta in (rco.value, oracle.total())]
        cheaper = min(ends, key=lambda pt: pt.value)
        cheaper_ends.append(ends.index(cheaper))
        wide = minimize_weighted(oracle, alpha, tolerance=oracle.total(), rco=rco)
        assert wide.iterations == 1
        assert (wide.beta_star, wide.cost, wide.rates, wide.segment) == (
            cheaper.beta, cheaper.value, cheaper.rates, cheaper.segment)
        assert wide.cost > minimize_weighted(oracle, alpha, rco=rco).cost + 1e-3
    assert cheaper_ends == [0, 1]
