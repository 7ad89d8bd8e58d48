"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS or FAIL line
(run pytest with -s or -rA to see them).  Tolerances are exact rational
comparisons throughout, since every instance here is a linear source.
"""

import random
import time
from fractions import Fraction

import pytest

from omniex import (
    EntropyOracle,
    FieldTooSmall,
    RateVector,
    broadcast_symbols,
    construct_code,
    decode,
    h_eval,
    ilp_rates,
    minimize_weighted,
    modified_edmond,
    rco_partition_formula,
    rco_sum_rate,
    user_observation,
    verify_feasible,
    verify_omniscience,
)
from omniex.reference import (
    dilworth_bruteforce,
    edmond_greedy,
    from_table,
    modified_edmond_setfn,
)

from conftest import (
    corpus,
    example1_source,
    figure1_source,
    min_cost_by_vertex_enumeration,
    random_linear_source,
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)


@pytest.mark.xfail(
    strict=True,
    reason="Pinned expectation for this instance is sum rate 3 with "
           "allocation (1,1,1); independent partition enumeration and an "
           "explicit two-transmission scheme show the true optimum is 2 "
           "with e.g. (1,0,1).  Kept as specified; see the project "
           "decision log.")
def test_criterion_01a_figure1_sum_rate_and_allocation():
    oracle = EntropyOracle(figure1_source())
    res = rco_sum_rate(oracle)
    ok = res.value == 3 and res.rates.values == (1, 1, 1)
    report("1a (figure1 rates)", ok,
           f"expected sum 3 / (1,1,1); computed sum {res.value} / "
           f"{tuple(map(str, res.rates.values))}, matching the independent "
           f"enumeration value {rco_partition_formula(oracle)}")
    assert res.value == 3
    assert res.rates.values == (1, 1, 1)


def test_criterion_01b_figure1_code_and_fixture_scheme():
    start = time.monotonic()
    src = figure1_source()
    oracle = EntropyOracle(src)
    res = ilp_rates(oracle, (1, 1, 1), 1)
    scheme = construct_code(src, res.rates, 1, seed=0)
    ok_code = verify_omniscience(src, scheme)

    from test_netcode import handbuilt_figure1_scheme
    fixture = handbuilt_figure1_scheme()
    ok_fixture = verify_omniscience(src, fixture)
    elapsed = time.monotonic() - start
    ok = ok_code and ok_fixture and elapsed < 1.0
    report("1b (figure1 code+verify)", ok,
           f"constructed scheme valid={ok_code}, hand scheme valid="
           f"{ok_fixture}, {elapsed:.3f}s")
    assert ok_code and ok_fixture
    assert elapsed < 1.0


def test_criterion_02_example1_rates_and_scheme():
    start = time.monotonic()
    src = example1_source()
    oracle = EntropyOracle(src)
    ilp = ilp_rates(oracle, (1, 1, 1), 2)
    ok_ilp = ilp.rates.values == (Fraction(1, 2),) * 3

    from test_netcode import handbuilt_example1_scheme
    ok_fixture = verify_omniscience(src, handbuilt_example1_scheme())

    unconstrained = rco_sum_rate(oracle)
    ok_lp = unconstrained.value == Fraction(3, 2)
    no_gap = ilp.rates.total() == unconstrained.value
    elapsed = time.monotonic() - start
    ok = ok_ilp and ok_fixture and ok_lp and no_gap and elapsed < 1.0
    report("2 (example1)", ok,
           f"ilp rates {tuple(map(str, ilp.rates.values))}, fixture valid="
           f"{ok_fixture}, unconstrained sum {unconstrained.value}, "
           f"{elapsed:.3f}s")
    assert ok_ilp and ok_fixture and ok_lp and no_gap
    assert elapsed < 1.0


def test_criterion_03_greedy_fixtures():
    comb_exp1 = from_table(2, {0b01: 4, 0b10: 3, 0b11: 6})
    exp_dilw = from_table(2, {0b01: 4, 0b10: 3, 0b11: 8})
    z_greedy = edmond_greedy(comb_exp1, (5, 1))
    g_value, blocks = dilworth_bruteforce(exp_dilw, 0b11)
    z_mod, _tight, _part, _evals = modified_edmond_setfn(exp_dilw, (5, 1))
    ok = z_greedy == (4, 2) and g_value == 7 and z_mod == (4, 3)
    report("3 (greedy fixtures)", ok,
           f"greedy {z_greedy}, truncation {g_value}, sweep {z_mod}")
    assert z_greedy == (4, 2)
    assert g_value == 7
    assert blocks == (0b01, 0b10)
    assert z_mod == (4, 3)


CORPUS_SEED = 20260810


def test_criterion_04_oracle_equivalence_on_200_sources():
    start = time.monotonic()
    sources = corpus(CORPUS_SEED, 200, m_max=6, n_max=8, primes=(5, 7, 11))
    rng = random.Random(CORPUS_SEED + 1)
    for src in sources:
        oracle = EntropyOracle(src)
        res = rco_sum_rate(oracle)
        assert res.value == rco_partition_formula(oracle)
        total = oracle.total()
        betas = {Fraction(0), res.value,
                 Fraction(rng.randint(0, 2 * total), 2)}
        for beta in betas:
            sweep = modified_edmond(oracle, beta)
            ref, _blocks = dilworth_bruteforce(oracle.f_beta(beta),
                                               oracle.full_mask)
            assert sweep.g_value == ref
    elapsed = time.monotonic() - start
    report("4 (oracle equivalence, 200 sources)", elapsed < 60.0,
           f"{elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_05_weighted_equals_vertex_enumeration():
    start = time.monotonic()
    sources = corpus(CORPUS_SEED + 2, 50, m_max=4, n_max=8, primes=(5, 7, 11))
    rng = random.Random(CORPUS_SEED + 3)
    for src in sources:
        oracle = EntropyOracle(src)
        alpha = tuple(rng.randint(0, 10) for _ in range(oracle.m))
        res = minimize_weighted(oracle, alpha)
        expected, _vertex = min_cost_by_vertex_enumeration(oracle, alpha)
        assert res.cost == expected
    elapsed = time.monotonic() - start
    report("5 (weighted vs vertex enumeration, 50 sources)",
           elapsed < 120.0, f"{elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_06_ilp_gap_and_divisibility():
    sources = corpus(CORPUS_SEED + 4, 50, m_max=5, n_max=7, primes=(5, 7, 11))
    for src in sources:
        oracle = EntropyOracle(src)
        rco = rco_sum_rate(oracle)
        blocks_minus_one = rco.partition.size - 1
        for n in (1, 2, 3, 6, 12):
            res = ilp_rates(oracle, (1,) * oracle.m, n, rco=rco)
            gap = res.rates.total() - rco.value
            assert 0 <= gap <= Fraction(1, n)
            if blocks_minus_one > 0 and n % blocks_minus_one == 0:
                assert gap == 0
    report("6 (fixed-denominator gap)", True,
           "0 <= gap <= 1/n with exact divisibility hits")


def test_criterion_07_structural_invariants():
    sources = corpus(CORPUS_SEED + 5, 25, m_max=5, n_max=7, primes=(5, 7, 11))
    rng = random.Random(CORPUS_SEED + 6)
    for src in sources:
        oracle = EntropyOracle(src)
        rco = rco_sum_rate(oracle)
        assert rco.iterations <= oracle.m
        total = oracle.total()
        # Segment sum law on the feasible range.
        for _ in range(3):
            beta = rco.value + (total - rco.value) * Fraction(rng.randint(0, 8), 8)
            seg = h_eval(oracle, (1,) * oracle.m, beta).segment
            assert sum(seg.b) == 1
        # Concavity of the partition value with final slope 1.  The grid
        # runs past the total entropy so its last interval is guaranteed
        # to lie inside the final slope-1 segment.
        grid = [Fraction(k * (total + 1), 49) for k in range(50)]
        values, sizes = [], []
        for beta in grid:
            part = modified_edmond(oracle, beta).partition
            values.append(part.g_value)
            sizes.append(part.size)
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        diffs = [v2 - v1 for v1, v2 in zip(values, values[1:])]
        assert all(d1 >= d2 for d1, d2 in zip(diffs, diffs[1:]))
        assert sizes[-1] == 1
        assert values[-1] - values[-2] == grid[1] - grid[0]
    report("7 (structural invariants)", True,
           "sum(b)=1, concave partition value, final slope 1, <= m steps")


def test_criterion_08_code_construction_at_p_101():
    start = time.monotonic()
    rng = random.Random(CORPUS_SEED + 7)
    built = 0
    while built < 100:
        src = random_linear_source(rng, m=rng.randint(2, 4),
                                   n_packets=rng.randint(2, 6), p=101)
        oracle = EntropyOracle(src)
        alpha = tuple(rng.randint(1, 10) for _ in range(src.m))
        base = ilp_rates(oracle, alpha, 1).rates
        slack = tuple(rng.randint(0, 1) for _ in range(src.m))
        cand = RateVector(tuple(int(v) + s for v, s in zip(base.values, slack)),
                          unit=oracle.unit)
        assert verify_feasible(oracle, cand)
        scheme = construct_code(src, cand, 1, seed=rng.randrange(2 ** 32),
                                max_tries=4)
        assert verify_omniscience(src, scheme)
        w = [rng.randrange(src.p) for _ in range(src.N)]
        casts = broadcast_symbols(src, scheme, w)
        for j in range(src.m):
            side = user_observation(src, j, w, 1)
            assert list(decode(src, scheme, j, side, casts)) == w
        built += 1
    # Small fields are rejected up front.
    tiny = example1_source(p=2)
    with pytest.raises(FieldTooSmall):
        construct_code(tiny, RateVector((1, 1, 1), unit="F_2-symbols"), 1)
    elapsed = time.monotonic() - start
    report("8 (code construction, 100 rate points)", elapsed < 120.0,
           f"{elapsed:.1f}s, all within 4 tries, decode round-trips")
    assert elapsed < 120.0


def test_criterion_09_oracle_call_ceiling():
    # The sum-rate solver must stay within (m+2) * 2^m inner-minimization
    # evaluations: at most m+1 sweeps for the walk plus one for the final
    # rates, each sweep enumerating fewer than 2^m candidate sets.
    sources = corpus(CORPUS_SEED + 8, 40, m_max=6, n_max=7, primes=(5, 7, 11))
    worst = 0.0
    for src in sources:
        oracle = EntropyOracle(src)
        res = rco_sum_rate(oracle)
        m = oracle.m
        ceiling = (m + 2) * 2 ** m
        assert res.evaluations <= ceiling
        assert res.iterations <= m
        worst = max(worst, res.evaluations / ceiling)
    report("9 (oracle-call regression)", True,
           f"worst-case usage {worst:.2f} of the (m+2)*2^m ceiling")
