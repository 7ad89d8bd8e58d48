"""The greedy sweep and the feasibility check against brute-force references.

``modified_edmond`` scans integer keys over subset-sum tables, and
``verify_feasible`` compares each cut against one doubling table of
integer rates.  Here both are checked against the per-subset references:
the raw sweep ``modified_edmond_setfn`` over ``oracle.f_beta(beta)`` and a
cut-by-cut ``Fraction`` sum, on seeded linear sources, exact tables with
``Fraction`` entries and pmf oracles.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from omniex import (
    EntropyOracle,
    NonConvergence,
    RateVector,
    make_dmms_source,
    minimize_weighted,
    modified_edmond,
    rco_sum_rate,
    verify_feasible,
)
from omniex import rates as rates_mod
from omniex.reference import iter_submasks, modified_edmond_setfn
from omniex.setfun import DELTA, bit, members, order_by_weight
from omniex.sources import TableSource

from conftest import random_linear_source
from test_flat_table import fraction_table

P61 = (1 << 61) - 1
# The production sweep visits users by ascending weight; the reference
# sweeps take the order as an argument, and the ids keep the cases' names.
ORDERINGS = ("ascending",)
# (m, N, p) of the seeded linear sources.
SHAPES = ((3, 4, 7), (5, 6, 7), (6, 8, 101), (7, 6, 101), (8, 9, 101),
          (4, 5, P61), (6, 7, P61), (8, 8, P61))
# A one-entry prefix sum and a one- and a two-axis relabel.  Their walks probe
# no fractional budget and one user has no cut, so only the sweep checks
# at random budgets and by weight order take them, after SHAPES, whose
# draws they keep.
SMALL_SHAPES = ((1, 3, 7), (2, 3, 7))


def linear_oracles(seed: int, shapes=SHAPES):
    rng = random.Random(seed)
    for m, n_packets, p in shapes:
        yield EntropyOracle(random_linear_source(rng, m=m, n_packets=n_packets, p=p))


def fraction_table_oracle(seed: int) -> EntropyOracle:
    """Exact table H = 2/3 * rank_1 + 5/7 * rank_2 over two linear sources
    on the same users: a positive mix of submodular functions, with
    entries of two denominators."""
    rng = random.Random(seed)
    a = EntropyOracle(random_linear_source(rng, m=5, n_packets=6, p=7))
    b = EntropyOracle(random_linear_source(rng, m=5, n_packets=4, p=11))
    entries = {mask: Fraction(2, 3) * a.entropy(mask) + Fraction(5, 7) * b.entropy(mask)
               for mask in range(1, 1 << 5)}
    return EntropyOracle(TableSource(m=5, entries=entries))


def recorded_betas(oracle: EntropyOracle, alpha, monkeypatch) -> list:
    """Every budget the sum-rate walk and weighted bracketing sweep at."""
    seen = []
    sweep = rates_mod.modified_edmond

    def record(orc, beta, *args, **kwargs):
        seen.append(beta)
        return sweep(orc, beta, *args, **kwargs)

    monkeypatch.setattr(rates_mod, "modified_edmond", record)
    rco = rco_sum_rate(oracle)
    minimize_weighted(oracle, alpha, rco=rco)
    monkeypatch.setattr(rates_mod, "modified_edmond", sweep)
    return seen


def random_betas(rng: random.Random, oracle: EntropyOracle, count: int) -> list:
    """Budgets in [0, H(X_M) + 2) with large denominators."""
    top = math.ceil(oracle.total()) + 1
    out = []
    for _ in range(count):
        den = rng.randrange(10 ** 9, 10 ** 18)
        out.append(Fraction(rng.randrange(0, top * den + 1), den))
    return out


def assert_sweep_matches_reference(oracle, beta, alpha, ordering):
    res = modified_edmond(oracle, beta, alpha)
    z, tight, partition, evaluations = modified_edmond_setfn(
        oracle.f_beta(beta), alpha, ordering=ordering)
    assert res.z == z, (beta, ordering)
    assert res.tight_sets == tight
    assert res.partition == partition
    assert res.segment.rates_at(beta) == res.z
    assert res.evaluations == evaluations == (1 << oracle.m) - 1


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_sweep_matches_brute_force_at_walk_and_bracket_budgets(ordering, monkeypatch):
    rng = random.Random(7)
    for oracle in linear_oracles(11):
        alpha = tuple(rng.randint(1, 5) for _ in range(oracle.m))
        betas = recorded_betas(oracle, alpha, monkeypatch)
        assert any(isinstance(b, Fraction) and b.denominator > 1 for b in betas)
        for beta in betas:
            assert_sweep_matches_reference(oracle, beta, alpha, ordering)


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_sweep_matches_brute_force_at_random_budgets(ordering):
    rng = random.Random(13)
    for oracle in linear_oracles(17, SHAPES + SMALL_SHAPES):
        alpha = tuple(rng.randint(1, 5) for _ in range(oracle.m))
        for beta in [0, oracle.total(), *random_betas(rng, oracle, 4)]:
            assert_sweep_matches_reference(oracle, beta, alpha, ordering)


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_sweep_matches_brute_force_on_a_fraction_table(ordering, monkeypatch):
    rng = random.Random(19)
    # At m = 7 the last step's 64 keys, Fractions, are past the list steps.
    for oracle in (fraction_table_oracle(23), fraction_table(29, 7)):
        assert oracle.exact
        alpha = tuple(rng.randint(1, 5) for _ in range(oracle.m))
        betas = recorded_betas(oracle, alpha, monkeypatch)
        for beta in [*betas, *random_betas(rng, oracle, 6)]:
            assert_sweep_matches_reference(oracle, beta, alpha, ordering)


def test_sweep_visits_users_by_ascending_weight():
    # The k-th tight set holds the k-th user of the order and no user
    # visited after it.
    rng = random.Random(29)
    for oracle in linear_oracles(31, SHAPES + SMALL_SHAPES):
        weights = rng.sample(range(1, 100), oracle.m)
        order = sorted(range(oracle.m), key=weights.__getitem__)
        for beta in (0, oracle.total(), rco_sum_rate(oracle).value):
            res = modified_edmond(oracle, beta, weights)
            for k, (j, tight) in enumerate(zip(order, res.tight_sets)):
                assert tight >> j & 1
                assert not any(tight >> later & 1 for later in order[k + 1:])


def float_table_oracle(rng: random.Random, m: int) -> EntropyOracle:
    """Float table of small integers plus noise in steps of 0.6 * DELTA:
    candidates one step above the least key tie with it and two steps
    above do not, so chains of near ties meet the tie rule.  Every
    difference stays a multiple of the step, far from the DELTA boundary
    in units of rounding error."""
    step = 0.6 * DELTA
    noise = (0.0, 0.0, step, -step, 2 * step)
    entries = {mask: rng.randint(0, 4) + rng.choice(noise) for mask in range(1, 1 << m)}
    return EntropyOracle(TableSource(m=m, entries=entries))


def reference_float_sweep(oracle, beta, alpha):
    """The float sweep evaluated set by set: each candidate's coefficients
    are summed afresh over its members, and the union joins every
    candidate within DELTA of the least value."""
    order = order_by_weight(alpha)
    total = oracle.total()
    b_coef, c_coef, z = [0] * oracle.m, [0.0] * oracle.m, [0.0] * oracle.m
    tight = []
    seen = 0
    for j in order:
        values = {sub | bit(j): (1 - sum(b_coef[k] for k in members(sub))) * beta + (
                      oracle.entropy(sub | bit(j)) - total
                      - sum(c_coef[k] for k in members(sub)))
                  for sub in iter_submasks(seen)}
        best = min(values.values())
        union = 0
        for s, v in values.items():
            if v <= best + DELTA:
                union |= s
        bu, cu = 1, oracle.entropy(union) - total
        for k in members(union & ~bit(j)):
            bu -= b_coef[k]
            cu = cu - c_coef[k]
        b_coef[j], c_coef[j], z[j] = bu, cu, bu * beta + cu
        tight.append(union)
        seen |= bit(j)
    return tuple(z), tuple(tight)


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_float_sweep_widens_ties_like_the_per_set_scan(ordering):
    rng = random.Random(67)
    for m in (3, 4, 5, 6, 7, 8):
        for _ in range(25):
            oracle = float_table_oracle(rng, m)
            alpha = tuple(rng.randint(1, 3) for _ in range(m))
            for beta in (0.0, 1.5, oracle.total() + 0.25):
                res = modified_edmond(oracle, beta, alpha)
                z, tight = reference_float_sweep(oracle, beta, alpha)
                assert res.tight_sets == tight, (m, beta, oracle.source.entries)
                assert res.z == z


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_float_sweep_matches_brute_force_on_pmf_oracles(ordering, monkeypatch):
    rs = np.random.RandomState(71)
    rng = random.Random(73)
    for m in (3, 4, 5, 6, 7, 8):
        pmf = rs.dirichlet(np.full(1 << m, 0.3)).reshape((2,) * m)
        oracle = EntropyOracle(make_dmms_source((2,) * m, pmf))
        alpha = tuple(rng.randint(1, 5) for _ in range(m))
        for beta in recorded_betas(oracle, alpha, monkeypatch):
            res = modified_edmond(oracle, beta, alpha)
            z, tight, partition, evaluations = modified_edmond_setfn(
                oracle.f_beta(beta), alpha, ordering=ordering)
            assert res.tight_sets == tight
            assert res.partition.blocks == partition.blocks
            assert all(abs(a - b) <= 1e-9 for a, b in zip(res.z, z))
            assert res.evaluations == evaluations


@pytest.mark.parametrize("scale, modular", ((1, 0), (Fraction(2, 3), 0), (1, 5)),
                         ids=("1", "scale1", "array-step"))
def test_sweep_raises_nonconvergence_on_a_non_submodular_table(scale, modular):
    # At user 3, {1, 3} and {2, 3} tie as minimizers but their union
    # {1, 2, 3} does not.  A modular part on ``modular`` users before them,
    # swept at beta = its entropy, adds a positive amount to a key per
    # modular user it holds, so the same tie comes at the last step, over
    # 2^(modular + 2) keys.
    entries = {0b001: 4, 0b010: 4, 0b011: 4, 0b100: 0, 0b101: 0, 0b110: 0,
               0b111: 4}
    m = modular + 3
    table = {}
    for mask in range(1, 1 << m):
        low, high = mask & ((1 << modular) - 1), mask >> modular
        table[mask] = (bin(low).count("1") + entries.get(high, 0)) * scale
    oracle = EntropyOracle(TableSource(m=m, entries=table))
    assert oracle.exact
    with pytest.raises(NonConvergence):
        modified_edmond(oracle, modular)
    # Raised at the last step: without its 2^(m-1) reads the sweep counts
    # fewer than 2^m - 1 calls.
    assert oracle.calls >= (1 << m) - 1


def reference_feasible(oracle: EntropyOracle, values) -> bool:
    """R(S) >= H(X_M) - H(X_{S^c}) cut by cut, summed afresh per subset."""
    full = oracle.full_mask
    total = oracle.entropy(full)
    for s in range(1, full):
        need = total - oracle.entropy(full & ~s)
        have = sum((values[i] for i in members(s)), 0)
        if need > (have if oracle.exact else have + DELTA):
            return False
    return True


def assert_feasibility_matches(oracle, values, expected=None):
    got = verify_feasible(oracle, RateVector(values=tuple(values), unit=oracle.unit))
    assert got == reference_feasible(oracle, values), values
    if expected is not None:
        assert got == expected


def tight_cut(oracle, values) -> int:
    """A nonempty proper subset whose cut constraint holds with equality."""
    for s in range(1, oracle.full_mask):
        if sum((values[i] for i in members(s)), 0) == oracle.cond_entropy(s):
            return s
    return 0


def test_feasibility_on_tight_and_perturbed_vectors():
    rng = random.Random(29)
    for oracle in [*linear_oracles(31), fraction_table_oracle(37)]:
        alpha = tuple(rng.randint(1, 5) for _ in range(oracle.m))
        rco = rco_sum_rate(oracle)
        weighted = minimize_weighted(oracle, alpha, rco=rco)
        for values in (rco.rates.values, weighted.rates.values):
            tight = tight_cut(oracle, values)
            assert tight
            assert_feasibility_matches(oracle, values, expected=True)
            for n in (1, 2, 7, 10 ** 12):
                i = rng.choice(members(tight))
                cut = list(values)
                cut[i] -= Fraction(1, n)
                assert_feasibility_matches(oracle, cut, expected=False)


def test_feasibility_with_mixed_denominators_and_zero_rates():
    rng = random.Random(41)
    for oracle in linear_oracles(43):
        m = oracle.m
        tight = rco_sum_rate(oracle).rates.values
        for _ in range(6):
            # Push every rate up or down by a fraction whose denominator is
            # drawn per user, so some vectors stay feasible and some do not.
            values = [v + Fraction(rng.choice((-1, 1, 2)),
                                   rng.choice((2, 3, 5, 7, 11, 10 ** 9)))
                      for v in tight]
            assert_feasibility_matches(oracle, values)
        zero = [0] * m
        assert_feasibility_matches(oracle, zero, expected=False)
        ints = [int(v) + 1 for v in tight]
        ints[rng.randrange(m)] = 0
        assert_feasibility_matches(oracle, ints)
        assert_feasibility_matches(oracle, [oracle.total()] * m, expected=True)
        # Float rates on an exact oracle are compared without tolerance.
        assert_feasibility_matches(oracle, [float(v) for v in tight])
        assert_feasibility_matches(oracle, [float(v) - DELTA / (2 * m) for v in tight],
                                   expected=False)
        assert_feasibility_matches(oracle, [float(v) + 0.5 for v in tight],
                                   expected=True)
    # Every user sees the whole packet vector: nothing needs to be sent.
    full_info = EntropyOracle(TableSource(m=4, entries={s: 3 for s in range(1, 16)}))
    assert_feasibility_matches(full_info, [0, 0, 0, 0], expected=True)
    assert_feasibility_matches(full_info, [Fraction(0), 0, Fraction(1, 3), 0],
                               expected=True)


def test_feasibility_on_pmf_oracles():
    rs = np.random.RandomState(47)
    for m in (3, 4, 5):
        pmf = rs.dirichlet(np.full(1 << m, 0.3)).reshape((2,) * m)
        oracle = EntropyOracle(make_dmms_source((2,) * m, pmf))
        assert not oracle.exact
        values = list(rco_sum_rate(oracle).rates.values)
        assert_feasibility_matches(oracle, values, expected=True)
        for i in range(m):
            cut = list(values)
            cut[i] -= 1e-3
            assert_feasibility_matches(oracle, cut)
        cut = list(values)
        cut[0] -= 1e-3
        cut[-1] -= 1e-3
        assert_feasibility_matches(oracle, cut, expected=False)
        assert_feasibility_matches(oracle, [v + 1e-12 for v in values], expected=True)
        # A shortfall below DELTA on every cut is within the float tolerance.
        assert_feasibility_matches(oracle, [v - DELTA / (2 * m) for v in values],
                                   expected=True)
