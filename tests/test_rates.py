import math
import random
from fractions import Fraction

import numpy as np
import pytest

from omniex import (
    EntropyOracle,
    InfeasibleBeta,
    InvalidN,
    NegativeWeight,
    NonTermination,
    RateVector,
    ilp_rates,
    make_dmms_source,
    make_linear_source,
    modified_edmond,
    rco_partition_formula,
    rco_sum_rate,
    verify_feasible,
)
from omniex import rates as rates_mod
from omniex.reference import (
    dilworth_bruteforce,
    from_table,
    in_polyhedron,
    modified_edmond_setfn,
)
from omniex.setfun import members
from omniex.sources import LinearSource

from conftest import (
    example1_source,
    figure1_source,
    partitions_of,
    random_linear_source,
)

EXP_DILW = from_table(2, {0b01: 4, 0b10: 3, 0b11: 8})


def test_raw_sweep_on_intersecting_submodular_table():
    z, tight, partition, _evals = modified_edmond_setfn(EXP_DILW, (5, 1))
    assert z == (4, 3)
    assert tight == (0b01, 0b10)
    assert sum(z) == dilworth_bruteforce(EXP_DILW, 0b11)[0] == 7
    assert in_polyhedron(EXP_DILW, z)


def test_sweep_example_instance_at_its_optimum():
    oracle = EntropyOracle(example1_source())
    res = modified_edmond(oracle, Fraction(3, 2))
    assert res.z == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert res.g_value == Fraction(3, 2)
    assert res.segment.b == (1, 1, -1)
    assert sum(res.segment.b) == 1


def test_sweep_figure_instance_at_its_optimum():
    oracle = EntropyOracle(figure1_source())
    res = modified_edmond(oracle, Fraction(2))
    assert sum(res.z) == 2
    assert res.z == (Fraction(1), Fraction(0), Fraction(1))
    assert verify_feasible(oracle, RateVector(res.z, unit=oracle.unit))


def test_a_linear_source_counts_its_users_from_its_matrices():
    mats = example1_source().matrices
    src = LinearSource(N=3, p=5, matrices=mats)
    assert src.m == 3
    res = rco_sum_rate(EntropyOracle(src))
    assert res.value == Fraction(3, 2)
    assert res.rates.values == (Fraction(1, 2),) * 3
    with pytest.raises(TypeError):
        LinearSource(m=1, N=3, p=5, matrices=mats)


def test_sweep_output_stays_in_polyhedron_and_matches_dilworth():
    rng = random.Random(8)
    for _ in range(15):
        oracle = EntropyOracle(random_linear_source(rng, m_max=5, n_max=6))
        for beta in (Fraction(0), Fraction(1, 2), Fraction(oracle.total(), 2),
                     Fraction(oracle.total())):
            res = modified_edmond(oracle, beta)
            f = oracle.f_beta(beta)
            assert in_polyhedron(f, res.z)
            ref_value, _ref_blocks = dilworth_bruteforce(f, oracle.full_mask)
            assert res.g_value == ref_value
            # The segment slope of g equals the optimal partition size,
            # hence 1 exactly on the feasible range.
            assert sum(res.segment.b) == res.partition.size
            rebuilt = res.segment.rates_at(beta)
            assert rebuilt == res.z


def test_partition_value_matches_block_sum():
    rng = random.Random(9)
    for _ in range(10):
        oracle = EntropyOracle(random_linear_source(rng, m_max=5, n_max=6))
        beta = Fraction(rng.randint(0, 2 * oracle.total()), 2)
        part = modified_edmond(oracle, beta).partition
        f = oracle.f_beta(beta)
        assert part.g_value == sum(f(b) for b in part.blocks)
        covered = 0
        for blk in part.blocks:
            assert blk and not covered & blk
            covered |= blk
        assert covered == oracle.full_mask


def test_partition_fixed_points_of_example_instance():
    oracle = EntropyOracle(example1_source())
    p0 = modified_edmond(oracle, Fraction(0)).partition
    assert p0.as_sets() == ((0,), (1,), (2,))
    assert p0.g_value == -3
    popt = modified_edmond(oracle, Fraction(3, 2)).partition
    assert popt.as_sets() == ((0, 1, 2),)
    assert popt.g_value == Fraction(3, 2)


def test_partition_at_total_entropy_is_trivial():
    rng = random.Random(10)
    for _ in range(10):
        oracle = EntropyOracle(random_linear_source(rng, m_max=5, n_max=6))
        part = modified_edmond(oracle, Fraction(oracle.total())).partition
        assert part.as_sets() == (tuple(range(oracle.m)),)
        assert part.g_value == oracle.total()


def test_sum_rate_example_instance():
    oracle = EntropyOracle(example1_source())
    res = rco_sum_rate(oracle)
    assert res.value == Fraction(3, 2)
    assert res.rates.values == (Fraction(1, 2),) * 3
    assert res.partition.size == 3
    assert res.iterations <= 3


def test_sum_rate_figure_instance_matching_enumeration():
    oracle = EntropyOracle(figure1_source())
    res = rco_sum_rate(oracle)
    formula = rco_partition_formula(oracle)
    assert res.value == formula == 2
    assert res.rates.values == (1, 0, 1)
    assert verify_feasible(oracle, res.rates)


def test_sum_rate_zero_when_observations_coincide():
    src = make_linear_source([[[1, 0], [0, 1]], [[1, 0], [0, 1]]], p=5)
    oracle = EntropyOracle(src)
    res = rco_sum_rate(oracle)
    assert res.value == 0
    assert res.rates.values == (0, 0)


def test_partition_formula_fixed_cases():
    assert rco_partition_formula(EntropyOracle(example1_source())) == Fraction(3, 2)
    src = make_linear_source([[[1, 0], [0, 1]], [[1, 0], [0, 1]]], p=5)
    assert rco_partition_formula(EntropyOracle(src)) == 0


def test_partition_formula_matches_direct_enumeration():
    rng = random.Random(11)
    for _ in range(10):
        oracle = EntropyOracle(random_linear_source(rng, m_max=5, n_max=6))
        total = oracle.total()
        best = None
        for part in partitions_of(tuple(range(oracle.m))):
            if len(part) < 2:
                continue
            s = sum(oracle.entropy(sum(1 << i for i in blk)) for blk in part)
            cand = Fraction(s - total, len(part) - 1)
            best = cand if best is None else min(best, cand)
        assert rco_partition_formula(oracle) == total - best


def test_sum_rate_agrees_with_formula_on_random_corpus():
    rng = random.Random(12)
    for _ in range(30):
        oracle = EntropyOracle(random_linear_source(rng, m_max=5, n_max=6))
        assert rco_sum_rate(oracle).value == rco_partition_formula(oracle)


def test_sum_rate_walk_is_monotone_and_short():
    rng = random.Random(13)
    for _ in range(15):
        oracle = EntropyOracle(random_linear_source(rng, m_max=6, n_max=7))
        res = rco_sum_rate(oracle)
        assert res.iterations <= oracle.m
        # Replay the walk and check the iterates strictly increase.
        beta = Fraction(0)
        seen = [beta]
        part = modified_edmond(oracle, beta).partition
        while part.size > 1:
            beta = Fraction(
                sum(oracle.total() - oracle.entropy(b) for b in part.blocks),
                part.size - 1)
            assert beta > seen[-1]
            seen.append(beta)
            part = modified_edmond(oracle, beta).partition
        assert beta == res.value


def test_concavity_of_partition_value_on_a_grid():
    rng = random.Random(14)
    for _ in range(6):
        oracle = EntropyOracle(random_linear_source(rng, m_max=5, n_max=6))
        total = oracle.total()
        # Run past the total entropy so the last interval sits inside the
        # final slope-1 segment even when the optimum equals the total.
        grid = [Fraction(k * (total + 1), 49) for k in range(50)]
        values = []
        sizes = []
        for beta in grid:
            part = modified_edmond(oracle, beta).partition
            values.append(part.g_value)
            sizes.append(part.size)
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        diffs = [v2 - v1 for v1, v2 in zip(values, values[1:])]
        assert all(d1 >= d2 for d1, d2 in zip(diffs, diffs[1:]))
        # Final slope is 1: the last grid step has size-1 partitions.
        step = grid[1] - grid[0]
        assert sizes[-1] == 1
        assert values[-1] - values[-2] == step


def test_partition_is_invariant_to_sweep_ordering():
    # Maximal-minimizer merging yields the coarsest optimal partition,
    # which does not depend on the visiting order.
    rng = random.Random(19)
    for _ in range(10):
        oracle = EntropyOracle(random_linear_source(rng, m_max=5, n_max=6))
        total = oracle.total()
        for beta in (Fraction(0), Fraction(total, 2), Fraction(total),
                     rco_sum_rate(oracle).value):
            base = modified_edmond(oracle, beta).partition
            perm = list(range(oracle.m))
            rng.shuffle(perm)
            alpha = tuple(perm.index(i) + 1 for i in range(oracle.m))
            other = modified_edmond(oracle, beta, alpha).partition
            assert base.blocks == other.blocks
            assert base.g_value == other.g_value


def test_nontermination_guard_fires_on_a_stuck_walk(monkeypatch):
    oracle = EntropyOracle(example1_source())
    real = rates_mod.modified_edmond

    def stuck(oracle_arg, beta, alpha=None):
        res = real(oracle_arg, Fraction(0), alpha)
        return res  # partition at beta=0 never collapses

    monkeypatch.setattr(rates_mod, "modified_edmond", stuck)
    with pytest.raises(NonTermination):
        rates_mod.rco_sum_rate(oracle)


def test_sweep_rejects_bad_inputs():
    oracle = EntropyOracle(example1_source())
    with pytest.raises(NegativeWeight):
        modified_edmond(oracle, Fraction(2), alpha=(1, -1, 1))
    with pytest.raises(InfeasibleBeta):
        modified_edmond(oracle, Fraction(-1))


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_sweep_rejects_non_finite_float_budgets(beta):
    # Validation refuses non-finite tables and pmfs, so only the budget can
    # bring a NaN or an infinity into the sweep's keys.
    pmf = EntropyOracle(make_dmms_source((2, 2), np.array([[0.4, 0.1], [0.1, 0.4]])))
    for oracle in (pmf, EntropyOracle(example1_source())):
        with pytest.raises(InfeasibleBeta, match="must be"):
            modified_edmond(oracle, beta)
        with pytest.raises(InfeasibleBeta, match="must be"):
            rates_mod.h_eval(oracle, (1,) * oracle.m, beta)


def test_ilp_fixed_cases():
    oracle = EntropyOracle(example1_source())
    res2 = ilp_rates(oracle, (1, 1, 1), 2)
    assert res2.rates.values == (Fraction(1, 2),) * 3
    assert res2.rates.denominator == 2
    assert res2.cost == Fraction(3, 2)
    res1 = ilp_rates(oracle, (1, 1, 1), 1)
    assert res1.rates.total() == 2
    assert all(Fraction(v).denominator == 1 for v in res1.rates.values)
    fig = EntropyOracle(figure1_source())
    resf = ilp_rates(fig, (1, 1, 1), 1)
    assert resf.rates.total() == 2
    assert verify_feasible(fig, resf.rates)


def test_ilp_rejects_zero_n():
    oracle = EntropyOracle(example1_source())
    with pytest.raises(InvalidN):
        ilp_rates(oracle, (1, 1, 1), 0)


def test_ilp_denominators_divide_n():
    rng = random.Random(15)
    for _ in range(10):
        oracle = EntropyOracle(random_linear_source(rng, m_max=4, n_max=6))
        alpha = tuple(rng.randint(1, 5) for _ in range(oracle.m))
        for n in (1, 2, 3, 6):
            res = ilp_rates(oracle, alpha, n)
            for v in res.rates.values:
                assert (n * Fraction(v)).denominator == 1
            assert verify_feasible(oracle, res.rates)


def test_ilp_uniform_sum_is_rounded_minimum():
    rng = random.Random(16)
    for _ in range(12):
        oracle = EntropyOracle(random_linear_source(rng, m_max=5, n_max=6))
        rco = rco_sum_rate(oracle)
        for n in (1, 2, 3):
            res = ilp_rates(oracle, (1,) * oracle.m, n)
            scaled = rco.value * n
            expected = Fraction(-(-scaled.numerator // scaled.denominator), n)
            assert res.rates.total() == expected


def test_rate_totals_add_left_to_right():
    # sum() gives 1.0 here from Python 3.12, where it compensates float
    # rounding; printed float rates must not depend on the interpreter.
    assert RateVector((1e16, 1.0, -1e16)).total() == 0.0


def test_verify_feasible_cases():
    oracle = EntropyOracle(example1_source())
    halves = RateVector((Fraction(1, 2),) * 3, unit=oracle.unit)
    assert verify_feasible(oracle, halves)
    bad = RateVector((Fraction(1, 2), Fraction(1, 2), Fraction(0)), unit=oracle.unit)
    assert not verify_feasible(oracle, bad)
    zero = RateVector((0, 0, 0), unit=oracle.unit)
    assert not verify_feasible(oracle, zero)


def test_emitted_rates_are_feasible_across_corpus():
    rng = random.Random(17)
    for _ in range(15):
        oracle = EntropyOracle(random_linear_source(rng, m_max=5, n_max=6))
        assert verify_feasible(oracle, rco_sum_rate(oracle).rates)


def test_tight_sets_certify_the_output():
    # Every recorded minimizer set is tight for the produced vector.
    rng = random.Random(18)
    for _ in range(10):
        oracle = EntropyOracle(random_linear_source(rng, m_max=5, n_max=6))
        beta = Fraction(oracle.total())
        res = modified_edmond(oracle, beta)
        f = oracle.f_beta(beta)
        for s in res.tight_sets:
            assert sum(res.z[i] for i in members(s)) == f(s)
