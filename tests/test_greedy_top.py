"""The weighted bracket's top end, beta = H(X_M), built by Edmonds' greedy.

At the top f(., beta) is the entropy function itself, so ``_greedy_top``
builds the point from m prefix entropies instead of a sweep over 2^m
subsets.  Here it is checked field for field against ``h_eval`` there, on
linear sources, exact and float tables and pmf sources, and the weighted
solvers are checked to sweep the top of a table only.
"""

import random
from fractions import Fraction

import numpy as np

from omniex import (
    EntropyOracle,
    h_eval,
    ilp_rates,
    make_dmms_source,
    minimize_weighted,
    rco_sum_rate,
)
from omniex import rates
from omniex.setfun import DELTA
from omniex.sources import TableSource

from conftest import random_linear_source

P61 = (1 << 61) - 1


def fields(pt) -> tuple[str, ...]:
    return tuple(map(repr, (pt.beta, pt.value, pt.rates.values, pt.segment.b,
                            pt.segment.c)))


def weight_vectors(rng: random.Random, m: int):
    """Int weights with zeros and ties, the same as floats and as Fractions,
    and a mix of all three kinds."""
    ints = tuple(rng.choice((0, 0, 1, 2, 2, 3)) for _ in range(m))
    yield ints
    yield tuple(a + rng.choice((0.0, 0.5, 0.1)) for a in ints)
    yield tuple(Fraction(a, rng.randint(1, 3)) for a in ints)
    yield tuple(rng.choice((0, 1, 0.25, Fraction(1, 3), 2.0)) for _ in range(m))


def binary_pmf_oracle(seed: int, m: int) -> EntropyOracle:
    """A skewed binary pmf; odd seeds zero about a third of its entries, so
    that some entropies tie."""
    rs = np.random.RandomState(seed)
    pmf = rs.random_sample((2,) * m) ** 3 + 1e-3
    if seed % 2:
        pmf[rs.random_sample(pmf.shape) < 0.3] = 0.0
    return EntropyOracle(make_dmms_source((2,) * m, pmf / pmf.sum()))


def top_oracles(rng: random.Random, seed: int):
    """One linear source and the tables built from its ranks: 2/3 of them
    as Fractions, a third of them as floats, the ranks times 10^k as exact
    floats, and the ranks moved by steps of a fraction of DELTA, kept only
    when ``violations`` passes them; then a binary pmf source."""
    m = rng.randint(2, 7)
    linear = EntropyOracle(random_linear_source(
        rng, m=m, n_packets=rng.randint(2, 9), p=(2, 101, P61)[seed % 3]))
    ranks = {mask: linear.entropy(mask) for mask in range(1, 1 << m)}
    yield linear
    scale = 10.0 ** rng.randint(6, 15)
    step = rng.choice((0.1, 0.2, 0.3)) * DELTA
    for entries in ({s: Fraction(2, 3) * r for s, r in ranks.items()},
                    {s: r / 3 for s, r in ranks.items()},
                    {s: float(r) * scale for s, r in ranks.items()}):
        yield EntropyOracle(TableSource(m=m, entries=entries))
    perturbed = EntropyOracle(TableSource(m=m, entries={
        s: r + rng.choice((-1, 0, 1)) * step for s, r in ranks.items()}))
    if perturbed.violations() == (None, None):
        yield perturbed
    yield binary_pmf_oracle(seed, m)


def test_greedy_top_is_the_point_h_eval_sweeps_at_the_top():
    rng = random.Random(31)
    kinds: dict[str, int] = {}
    for seed in range(90):
        for oracle in top_oracles(rng, seed):
            kind = type(oracle.source).__name__
            kinds[kind] = kinds.get(kind, 0) + 1
            for alpha in weight_vectors(rng, oracle.m):
                calls = oracle.calls
                got = rates._greedy_top(oracle, alpha)
                # H(X_M) and one entropy per user, where a sweep reads 2^m - 1 more.
                assert oracle.calls - calls == oracle.m + 1
                want = h_eval(oracle, alpha, oracle.total())
                assert fields(got) == fields(want), (oracle.source, alpha)
    assert kinds["LinearSource"] == kinds["DmmsSource"] == 90
    # Three tables per seed, and most of the perturbed ones.
    assert kinds["TableSource"] > 3 * 90 + 60


def test_weighted_solves_sweep_the_top_of_a_table_only(monkeypatch):
    swept = []
    sweep = rates.modified_edmond

    def spy(oracle, beta, *args, **kwargs):
        swept.append(beta)
        return sweep(oracle, beta, *args, **kwargs)

    monkeypatch.setattr(rates, "modified_edmond", spy)
    rng = random.Random(37)
    probed = {"linear": 0, "pmf": 0, "table": 0}
    for seed in range(80):
        m = rng.randint(2, 6)
        linear = EntropyOracle(random_linear_source(rng, m=m, n_max=2 * m, p=101))
        table = EntropyOracle(TableSource(m=m, entries={
            s: 2 * linear.entropy(s) for s in range(1, 1 << m)}))
        for kind, oracle in (("linear", linear), ("pmf", binary_pmf_oracle(seed, m)),
                             ("table", table)):
            alpha = tuple(rng.choice((0, 1, 2, 30, 90)) for _ in range(m))
            top = oracle.total()
            rco = rco_sum_rate(oracle)
            swept.clear()
            res = minimize_weighted(oracle, alpha, rco=rco)
            if len(res.probes) == 1:
                continue   # the bracket closed at its lower end
            assert res.probes[1].beta == top
            probed[kind] += 1
            # The top counts as a probe of 2^m - 1 sets, swept or not.
            assert res.evaluations == (
                rco.evaluations + (2 + res.iterations) * oracle.full_mask)
            assert swept.count(top) == (kind == "table"), (kind, swept)
            if kind == "pmf":
                continue
            for n in (1, 2, 3):
                swept.clear()
                ilp_rates(oracle, alpha, n, rco=rco)
                assert swept.count(top) == (kind == "table"), (kind, n, swept)
    assert min(probed.values()) >= 10, probed
