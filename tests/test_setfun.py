import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omniex import (
    ConstraintViolation,
    EntropyOracle,
    NegativeWeight,
    SetFunction,
    TooLarge,
)
from omniex.reference import (
    dilworth_bruteforce,
    dual,
    edmond_greedy,
    from_table,
    in_polyhedron,
    is_intersecting_submodular,
    is_submodular,
    sfm_constrained,
)
from omniex.setfun import DELTA, members, order_by_weight

from conftest import child_env, example1_source, partitions_of, random_linear_source

COMB_EXP1 = from_table(2, {0b01: 4, 0b10: 3, 0b11: 6})
EXP_DILW = from_table(2, {0b01: 4, 0b10: 3, 0b11: 8})


def random_table_function(rng, m, lo=-4, hi=12):
    table = {s: rng.randint(lo, hi) for s in range(1, 1 << m)}
    return from_table(m, table)


def random_submodular_function(rng, m):
    # Rank functions of random linear sources are submodular.
    src = random_linear_source(rng, m=m, n_packets=rng.randint(2, 5), p=5)
    oracle = EntropyOracle(src)
    return SetFunction(m, oracle.entropy, exact=True)


def test_submodularity_fixed_examples():
    assert is_submodular(COMB_EXP1)
    assert not is_submodular(EXP_DILW)
    assert is_intersecting_submodular(EXP_DILW)


def test_modular_functions_are_submodular():
    weights = (3, -1, 4, 2)
    f = SetFunction(4, lambda s: sum(weights[i] for i in members(s)))
    assert is_submodular(f)


def test_submodular_implies_intersecting_submodular():
    rng = random.Random(3)
    for _ in range(10):
        f = random_submodular_function(rng, rng.randint(2, 4))
        assert is_submodular(f)
        assert is_intersecting_submodular(f)


def test_budget_function_of_packet_example_is_intersecting_submodular():
    oracle = EntropyOracle(example1_source())
    assert is_intersecting_submodular(oracle.f_beta(0))


def test_local_exchange_matches_pairwise_definition():
    # The local characterization must agree with the literal all-pairs
    # definition on random tables.
    rng = random.Random(17)
    for _ in range(40):
        m = rng.randint(2, 4)
        f = random_table_function(rng, m)
        full = (1 << m) - 1
        pairwise = all(
            f(s) + f(t) >= f(s | t) + f(s & t)
            for s in range(full + 1) for t in range(full + 1))
        intersecting = all(
            f(s) + f(t) >= f(s | t) + f(s & t)
            for s in range(full + 1) for t in range(full + 1) if s & t)
        assert is_submodular(f) == pairwise
        assert is_intersecting_submodular(f) == intersecting


def test_size_caps():
    big = SetFunction(17, lambda s: 0)
    with pytest.raises(TooLarge):
        is_submodular(big)
    with pytest.raises(TooLarge):
        dilworth_bruteforce(SetFunction(13, lambda s: len(members(s))),
                            (1 << 13) - 1)
    with pytest.raises(TooLarge):
        in_polyhedron(SetFunction(21, lambda s: 0), (0,) * 21)


def test_dual_fixed_values():
    d = dual(COMB_EXP1)
    assert d(0b01) == 6 - 3 == 3
    assert d(0b10) == 6 - 4 == 2
    assert d(0b11) == 6


def test_dual_of_zero_is_zero():
    z = SetFunction(3, lambda s: 0)
    d = dual(z)
    assert all(d(s) == 0 for s in range(8))


def test_dual_is_an_involution():
    rng = random.Random(23)
    cases = [random_table_function(rng, m) for m in (2, 3, 4, 5, 6)]
    cases.append(random_table_function(rng, 12))
    for f in cases:
        dd = dual(dual(f))
        for s in range(1 << f.m):
            assert dd(s) == f(s)


def test_base_polyhedron_duality_on_random_vectors():
    # Z(S) <= f(S) for all S with Z(M) = f(M) holds iff the dual-side
    # constraints Z(S) >= dual(f)(S) hold with the same total.
    rng = random.Random(29)
    for _ in range(20):
        m = rng.randint(2, 4)
        f = random_submodular_function(rng, m)
        d = dual(f)
        full = (1 << m) - 1
        total = f(full)
        for _ in range(200):
            z = [Fraction(rng.randint(-4, 8)) for _ in range(m - 1)]
            z.append(total - sum(z))
            primal = all(sum(z[i] for i in members(s)) <= f(s)
                         for s in range(1, full + 1))
            dual_side = all(sum(z[i] for i in members(s)) >= d(s)
                            for s in range(1, full + 1))
            assert primal == dual_side


def test_edmond_greedy_fixed_examples():
    assert edmond_greedy(COMB_EXP1, (5, 1)) == (4, 2)
    assert edmond_greedy(COMB_EXP1, (1, 5)) == (3, 3)


def test_edmond_greedy_recovers_modular_weights():
    weights = (2, 7, 1, 5)
    f = SetFunction(4, lambda s: sum(weights[i] for i in members(s)))
    for alpha in ((1, 1, 1, 1), (4, 3, 2, 1), (0, 2, 0, 9)):
        assert edmond_greedy(f, alpha) == weights


def test_edmond_greedy_rejects_negative_weights():
    with pytest.raises(NegativeWeight):
        edmond_greedy(COMB_EXP1, (1, -1))
    with pytest.raises(NegativeWeight):
        edmond_greedy(COMB_EXP1, (1.0, float("nan")))


def test_edmond_output_is_a_base_vertex():
    rng = random.Random(31)
    for _ in range(25):
        m = rng.randint(2, 5)
        f = random_submodular_function(rng, m)
        alpha = tuple(rng.randint(0, 6) for _ in range(m))
        z = edmond_greedy(f, alpha)
        assert sum(z) == f((1 << m) - 1)
        assert in_polyhedron(f, z)


def test_edmond_greedy_optimality_against_feasible_samples():
    # Compare against 10000 feasible points sampled under random base
    # vertices; the greedy value must dominate them all.
    rng = random.Random(37)
    for _ in range(5):
        m = rng.randint(2, 5)
        f = random_submodular_function(rng, m)
        alpha = tuple(rng.randint(0, 5) for _ in range(m))
        z = edmond_greedy(f, alpha)
        target = sum(a * zi for a, zi in zip(alpha, z))
        for _ in range(2000):
            perm = list(range(m))
            rng.shuffle(perm)
            vertex = [0] * m
            acc = 0
            prev = 0
            for j in perm:
                acc |= 1 << j
                cur = f(acc)
                vertex[j] = cur - prev
                prev = cur
            y = [v - Fraction(rng.randint(0, 8), 4) for v in vertex]
            assert in_polyhedron(f, y)
            assert sum(a * yi for a, yi in zip(alpha, y)) <= target


def test_ordering_tie_break_is_ascending_index():
    assert order_by_weight((2, 5, 5, 1)) == (3, 0, 1, 2)


# Calls each mask helper on a negative mask and reports what it raised.
NEGATIVE_MASK = r"""
import json
from omniex.setfun import label, members

out = {}
for fn in (members, label):
    try:
        out[fn.__name__] = ["returned", repr(fn(-1))]
    except Exception as exc:
        out[fn.__name__] = [type(exc).__name__, str(exc)]
print(json.dumps(out))
"""


def test_mask_helpers_refuse_a_negative_mask():
    # In a child process, so that a helper that never returns fails this
    # test with ``TimeoutExpired`` instead of hanging the suite.
    done = subprocess.run([sys.executable, "-c", NEGATIVE_MASK], env=child_env(),
                          capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "members": ["ValueError", "mask -1 is negative"],
        "label": ["ValueError", "mask -1 is negative"]}


def test_sfm_constrained_fixed_example():
    value, minimizer = sfm_constrained(EXP_DILW, (4, 0), 1, 0b11)
    assert value == 3
    assert minimizer == 0b10


def test_sfm_constrained_singleton_domain():
    f = COMB_EXP1
    value, minimizer = sfm_constrained(f, (1, 2), 0, 0b01)
    assert value == f(0b01) - 1
    assert minimizer == 0b01


def test_sfm_constrained_requires_membership():
    with pytest.raises(ConstraintViolation):
        sfm_constrained(COMB_EXP1, (0, 0), 1, 0b01)


def test_sfm_constrained_matches_exhaustive_minimum():
    rng = random.Random(41)
    for _ in range(30):
        m = 5
        oracle = EntropyOracle(random_linear_source(rng, m=m, n_packets=5, p=7))
        beta = Fraction(rng.randint(0, 10), 2)
        f = oracle.f_beta(beta)
        z = [Fraction(rng.randint(-2, 6), 2) for _ in range(m)]
        j = rng.randrange(m)
        a_mask = (1 << m) - 1
        value, minimizer = sfm_constrained(f, z, j, a_mask)
        candidates = [s | 1 << j for s in range(1 << m)]
        expected = min(f(s) - sum(z[i] for i in members(s)) for s in candidates)
        assert value == expected
        assert f(minimizer) - sum(z[i] for i in members(minimizer)) == expected


def test_sfm_constrained_union_of_minimizers_is_maximal():
    rng = random.Random(43)
    for _ in range(20):
        m = 5
        oracle = EntropyOracle(random_linear_source(rng, m=m, n_packets=4, p=5))
        f = oracle.f_beta(Fraction(rng.randint(0, 8), 2))
        z = [Fraction(rng.randint(-4, 4), 2) for _ in range(m)]
        j = rng.randrange(m)
        value, minimizer = sfm_constrained(f, z, j, (1 << m) - 1)
        union = 0
        for s in range(1 << m):
            s |= 1 << j
            if f(s) - sum(z[i] for i in members(s)) == value:
                union |= s
        assert minimizer == union


def test_dilworth_fixed_examples():
    value, blocks = dilworth_bruteforce(EXP_DILW, 0b11)
    assert value == 7
    assert blocks == (0b01, 0b10)
    value, blocks = dilworth_bruteforce(COMB_EXP1, 0b11)
    assert value == 6
    assert blocks == (0b11,)
    value, blocks = dilworth_bruteforce(COMB_EXP1, 0b01)
    assert value == 4
    assert blocks == (0b01,)


def near_tie_function(rng, m):
    """Float table of small integers plus noise in steps of 0.6 * DELTA, so
    that values one step apart tie within DELTA and two steps apart do not."""
    step = 0.6 * DELTA
    table = {s: rng.randint(0, 4) + rng.choice((0.0, step, -step, 2 * step))
             for s in range(1, 1 << m)}
    return from_table(m, table, exact=False)


def test_float_ties_are_every_candidate_within_delta_of_the_minimum():
    rng = random.Random(211)
    for _ in range(200):
        m = rng.randint(1, 5)
        f = near_tie_function(rng, m)
        full = (1 << m) - 1
        z = tuple(rng.randint(-2, 2) + rng.choice((0.0, 0.6 * DELTA)) for _ in range(m))
        j = rng.randrange(m)
        value, minimizer = sfm_constrained(f, z, j, full)
        scored = {s: f(s) - sum(z[k] for k in members(s))
                  for s in range(1, full + 1) if s >> j & 1}
        best = min(scored.values())
        assert abs(value - best) <= 1e-12
        union = 0
        for s, v in scored.items():
            if v <= best + DELTA:
                union |= s
        assert minimizer == union
        value, blocks = dilworth_bruteforce(f, full)
        scored = {tuple(sorted(p)): sum(f(sum(1 << i for i in b)) for b in p)
                  for p in partitions_of(tuple(range(m)))}
        best = min(scored.values())
        assert abs(value - best) <= 1e-12
        assert tuple(members(b) for b in blocks) == min(
            p for p, v in scored.items() if v <= best + DELTA)


def test_in_polyhedron_fixed_examples():
    assert in_polyhedron(COMB_EXP1, (4, 2))
    assert not in_polyhedron(COMB_EXP1, (4, 3))
    assert in_polyhedron(COMB_EXP1, (0, 0))


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5), st.data())
def test_in_polyhedron_against_definition(m, data):
    table = {s: data.draw(st.integers(-3, 9)) for s in range(1, 1 << m)}
    f = from_table(m, table)
    z = tuple(data.draw(st.integers(-3, 5)) for _ in range(m))
    expected = all(sum(z[i] for i in members(s)) <= f(s)
                   for s in range(1, 1 << m))
    assert in_polyhedron(f, z) == expected
