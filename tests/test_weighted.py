import hashlib
import itertools
import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from omniex import (
    EntropyOracle,
    InfeasibleBeta,
    NonIntegerRates,
    RateVector,
    h_eval,
    ilp_rates,
    make_dmms_source,
    make_linear_source,
    minimize_weighted,
    modified_edmond,
    rco_sum_rate,
    verify_feasible,
)
from omniex import fixtures, rates
from omniex.cli import main
from omniex.sources import TABLE_CAP, DmmsSource

from conftest import (
    example1_source,
    fraction_matrix_rank,
    indicator_row,
    min_cost_by_vertex_enumeration,
    omniex_cli,
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
        sweep = modified_edmond(oracle, res.beta_star, alpha)
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


def pmf_entries(pmf) -> dict:
    """The ``entries`` of a pmf document holding the array ``pmf``."""
    return {",".join(map(str, idx)): float(pmf[idx])
            for idx in itertools.product(*map(range, pmf.shape))}


def skewed_pmf(seed: int, m: int):
    pmf = np.random.RandomState(seed).random_sample((2,) * m) ** 3 + 1e-3
    return pmf / pmf.sum()


def test_ilp_refuses_pmf_and_float_table_documents(tmp_path):
    # Their rates are real numbers; rounding the budget to 1/n put rates
    # such as 1.1252 under "n": 2.
    pmf = {"kind": "pmf", "alphabets": [2, 2, 2], "entries": pmf_entries(skewed_pmf(5, 3))}
    table = {"kind": "table", "m": 2, "entropies": {"1": 0.5, "2": 1.0, "1,2": 1.25}}
    path = tmp_path / "problem.json"
    for source, weights in ((pmf, [1, 2, 3]), (table, [1, 2])):
        path.write_text(json.dumps({"source": source, "weights": weights}))
        for flags in ((), ("--n", "2")):
            done = omniex_cli("ilp", str(path), *flags, cwd=tmp_path)
            assert (done.returncode, done.stdout) == (2, ""), (source["kind"], done.stderr)
            assert done.stderr.startswith("error: ilp needs exact entropies")
            assert "Traceback" not in done.stderr
        # rates still solves the document.
        assert omniex_cli("rates", str(path), cwd=tmp_path).returncode == 0


def test_ilp_refuses_a_pmf_before_its_table_and_its_walk(capsys, monkeypatch, tmp_path):
    # The refusal needs no subset entropy beyond H(X_M); above the cap the
    # table's own refusal still comes first.
    def refuse(*args, **kwargs):
        raise AssertionError("ilp built the table or walked on a pmf source")

    monkeypatch.setattr(DmmsSource, "_array", refuse)
    monkeypatch.setattr(rates, "rco_sum_rate", refuse)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"source": {
        "kind": "pmf", "alphabets": [2] * 4, "entries": pmf_entries(skewed_pmf(3, 4))}}))
    for flags in ((), ("--n", "2")):
        assert main(["ilp", str(path), *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ilp needs exact entropies")
    with pytest.raises(NonIntegerRates, match="ilp needs exact entropies"):
        ilp_rates(EntropyOracle(make_dmms_source((2, 2), skewed_pmf(3, 2))), (1, 1), 2)
    alphabets = [2, 2] + [1] * (TABLE_CAP + 1)
    path.write_text(json.dumps({"source": {"kind": "pmf", "alphabets": alphabets, "entries": {
        ",".join(["0"] * len(alphabets)): 0.5,
        ",".join(["1", "1"] + ["0"] * (len(alphabets) - 2)): 0.5}}}))
    assert main(["ilp", str(path)]) == 2
    assert f"capped at m={TABLE_CAP}" in capsys.readouterr().err


def test_large_weights_on_a_pmf_source_give_the_rates_of_small_ones(capsys, tmp_path):
    # Slopes and intercepts near 1e23 were compared within an absolute 1e-9,
    # so the bracket never certified its kink and ran out of iterations.
    path = tmp_path / "problem.json"
    source = {"kind": "pmf", "alphabets": [2, 2, 2], "entries": pmf_entries(skewed_pmf(5, 3))}
    outputs = []
    for weights in ([5e20, 1e20, 1e23], [5, 1, 1000]):
        path.write_text(json.dumps({"source": source, "weights": weights}))
        assert main(["rates", str(path)]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    large, small = outputs
    for key in ("rates", "sum_rate", "beta_star", "min_sum_rate", "partition"):
        assert large[key] == small[key], key
    assert abs(large["cost"] / small["cost"] - 1e20) <= 1e8


def test_float_brackets_converge_at_weights_near_the_float_bound():
    # Weights at half the largest the command line accepts, where
    # m * sum(weights) * (H(X_M) + 1) reaches the float range; compared
    # within an absolute DELTA, 7 of these brackets ran out of iterations.
    for seed in range(60):
        m = 2 + seed % 4
        oracle = EntropyOracle(make_dmms_source((2,) * m, skewed_pmf(seed, m)))
        raw = np.random.RandomState(1000 + seed).random_sample(m)
        scale = sys.float_info.max / (m * raw.sum() * (oracle.total() + 1)) / 2
        alpha = [float(w * scale) for w in raw]
        res = minimize_weighted(oracle, alpha)
        assert res.iterations < 10, seed
        assert verify_feasible(oracle, res.rates)
        # The same weights brought near 1 by a power of two give the same
        # bracket, and the cost scales back.
        shift = math.frexp(max(alpha))[1]
        small = minimize_weighted(oracle, [math.ldexp(w, -shift) for w in alpha])
        assert (res.beta_star, res.rates, res.iterations) == (
            small.beta_star, small.rates, small.iterations)
        assert res.cost == math.ldexp(small.cost, shift)


def test_weighted_allows_zero_weights():
    oracle = EntropyOracle(example1_source())
    res = minimize_weighted(oracle, (0, 0, 0))
    assert res.cost == 0
    res2 = minimize_weighted(oracle, (0, 1, 1))
    expected, _ = min_cost_by_vertex_enumeration(oracle, (0, 1, 1))
    assert res2.cost == expected


def test_float_bracket_stops_at_its_tolerance(monkeypatch):
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
        with monkeypatch.context() as patch:
            patch.setattr(rates, "FLOAT_BRACKET_WIDTH", oracle.total())
            wide = minimize_weighted(oracle, alpha, rco=rco)
        assert wide.iterations == 1
        assert (wide.beta_star, wide.cost, wide.rates, wide.segment) == (
            cheaper.beta, cheaper.value, cheaper.rates, cheaper.segment)
        assert wide.cost > minimize_weighted(oracle, alpha, rco=rco).cost + 1e-3
    assert cheaper_ends == [0, 1]


FLOAT_WEIGHTS = {
    "source": {"kind": "linear", "p": 7, "N": 3, "matrices": [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 2, 3]], [[0, 1, 1]], [[4, 0, 1]]]},
    "weights": [5, 0.001, 0.3, 5]}
# sha256 of ``ilp --n 2`` on FLOAT_WEIGHTS, recorded while the bracket still
# compared float-weighted lines within DELTA: ilp keeps its bytes.
ILP_FLOAT_WEIGHTS_N2 = "3273071801255f661c896d5151f10df4762378c80f84365c4006842d0ae46da0"


def test_float_weights_on_a_linear_source_reach_the_exact_kink(capsys, tmp_path):
    # Compared within DELTA, the float-weighted lines met at a float-rounded
    # point near beta = 3, and rates printed as 5291729562160334/5291729562160333.
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(FLOAT_WEIGHTS))
    assert main(["rates", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rates"] == ["1", "1", "1", "0"]
    assert (doc["sum_rate"], doc["beta_star"], doc["cost"]) == ("3", "3", 5.301)
    assert doc["diagnostics"] == {"iterations": 2, "entropy_queries": 15,
                                  "sfm_evaluations": 90}
    assert main(["ilp", str(path), "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ILP_FLOAT_WEIGHTS_N2


def test_float_weights_on_linear_sources_bracket_as_their_binary_rationals():
    rng = random.Random(41)
    iterated = 0
    for _ in range(60):
        oracle = EntropyOracle(random_linear_source(rng, m=rng.randint(2, 5), n_max=12,
                                                    p=101))
        floats = [10 ** rng.uniform(-3, 1) for _ in range(oracle.m)]
        got = minimize_weighted(oracle, floats)
        want = minimize_weighted(oracle, [Fraction(w) for w in floats])
        assert (got.beta_star, got.rates.values, got.iterations) == (
            want.beta_star, want.rates.values, want.iterations)
        assert isinstance(got.cost, float) and abs(got.cost - want.cost) <= 1e-9
        iterated += got.iterations > 0
    # The other sources stop at an end of the bracket on a slope's sign.
    assert iterated >= 20


def weighted_corpus_lines():
    """repr of the weighted and ilp results, types included, on seeded
    linear sources with integer weights, float weights on linear sources
    and weighted binary pmf sources."""
    rng = random.Random(43)
    lines = []
    for i in range(40):
        m = 3 + i % 7
        oracle = EntropyOracle(random_linear_source(rng, m=m, n_max=2 * m, p=101))
        alpha = tuple(rng.randint(0, 9) for _ in range(m))
        rco = rco_sum_rate(oracle)
        lines.append(repr(minimize_weighted(oracle, alpha, rco=rco)))
        lines.extend(repr(ilp_rates(oracle, alpha, n, rco=rco)) for n in range(1, 5))
        if i % 4 == 0:
            floats = tuple(10 ** rng.uniform(-3, 1) for _ in range(m))
            lines.append(repr(minimize_weighted(oracle, floats, rco=rco)))
            lines.append(repr(ilp_rates(oracle, floats, 2, rco=rco)))
    for seed in range(12):
        m = 2 + seed % 4
        oracle = EntropyOracle(make_dmms_source((2,) * m, skewed_pmf(seed, m)))
        for alpha in (tuple(rng.randint(0, 9) for _ in range(m)),
                      tuple(10 ** rng.uniform(-3, 1) for _ in range(m))):
            lines.append(repr(minimize_weighted(oracle, alpha)))
    return lines


# sha256 of the joined lines, recorded before weighted solves reused
# their probes.
WEIGHTED_CORPUS = "f3bab3de3c68cf56394c490cb7b91eec3ff42f24655395956ef339575aed1f6a"


def test_weighted_corpus_keeps_its_results():
    text = "\n".join(weighted_corpus_lines())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == WEIGHTED_CORPUS


def test_ilp_returns_the_walk_it_used():
    rng = random.Random(53)
    sources = [example1_source()] + [random_linear_source(rng) for _ in range(20)]
    for src in sources:
        alpha = tuple(rng.randint(0, 9) for _ in range(src.m))
        oracle = EntropyOracle(src)
        walk = rco_sum_rate(oracle)
        assert ilp_rates(oracle, alpha, 2, rco=walk).rco is walk
        # Run inside the solve, it is the walk a fresh oracle finds.
        got = ilp_rates(EntropyOracle(src), alpha, 2).rco
        fresh = rco_sum_rate(EntropyOracle(src))
        assert got is not None
        assert ((got.value, got.rates, got.partition, got.iterations, got.evaluations)
                == (fresh.value, fresh.rates, fresh.partition, fresh.iterations,
                    fresh.evaluations))


def test_the_ilp_command_walks_once(capsys, monkeypatch):
    walks = []
    walk = rates.rco_sum_rate

    def counted(oracle):
        walks.append(oracle)
        return walk(oracle)

    monkeypatch.setattr(rates, "rco_sum_rate", counted)
    assert main(["ilp", str(fixtures.path("example1")), "--n", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["rates"] == ["1/2"] * 3
    assert len(walks) == 1


def cross_at_the_top():
    """A source and weights whose bracket crosses at H(X_M) = 3, a budget
    first probed as the int 3 and then as Fraction(3)."""
    src = make_linear_source([[[0, 0, 4], [1, 4, 4]], [[4, 1, 3], [4, 4, 2]],
                              [[1, 0, 0]], [[4, 3, 3]]], p=5, N=3)
    return EntropyOracle(src), (1, 8, 6, 9)


def test_a_budget_probed_as_int_and_fraction_keeps_the_fraction_types():
    oracle, alpha = cross_at_the_top()
    res = minimize_weighted(oracle, alpha)
    assert type(res.beta_star) is Fraction
    assert repr(res) == (
        "WeightedResult(beta_star=Fraction(3, 1), rates=RateVector(values=("
        "Fraction(2, 1), Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)), "
        "denominator=1, unit='F_5-symbols'), cost=Fraction(8, 1), segment="
        "LinearSegment(b=(1, 0, 0, 0), c=(-1, 0, 1, 0)), iterations=1, "
        "evaluations=90)")
    for n in (1, 2):
        ilp = ilp_rates(oracle, alpha, n)
        assert type(ilp.beta) is Fraction
        assert repr(ilp) == (
            "IlpResult(rates=RateVector(values=(Fraction(2, 1), Fraction(0, 1), "
            f"Fraction(1, 1), Fraction(0, 1)), denominator={n}, unit='F_5-symbols'), "
            f"cost=Fraction(8, 1), beta=Fraction(3, 1), gap_bound={Fraction(9, n)!r})")


def test_one_weighted_solve_sweeps_each_budget_once(capsys, monkeypatch, tmp_path):
    swept = []
    sweep = rates.modified_edmond

    def counted(oracle, beta, *args, **kwargs):
        swept.append(beta)
        return sweep(oracle, beta, *args, **kwargs)

    monkeypatch.setattr(rates, "modified_edmond", counted)
    rng = random.Random(47)
    sources = [cross_at_the_top()]
    for _ in range(30):
        m = rng.randint(2, 6)
        oracle = EntropyOracle(random_linear_source(rng, m=m, n_max=2 * m, p=101))
        sources.append((oracle, tuple(rng.randint(0, 9) for _ in range(m))))
    probes = sweeps = 0
    for oracle, alpha in sources:
        rco = rco_sum_rate(oracle)
        swept.clear()
        res = minimize_weighted(oracle, alpha, rco=rco)
        assert len(set(swept)) == len(swept), swept
        if res.iterations:
            # Every probe counts its evaluations, recalled or swept:
            # lo, hi and one per iteration, each over 2^m - 1 sets.
            probes += 2 + res.iterations
            sweeps += len(swept)
            assert res.evaluations == (
                rco.evaluations + (2 + res.iterations) * ((1 << oracle.m) - 1))
        for n in (1, 2, 3):
            swept.clear()
            ilp_rates(oracle, alpha, n, rco=rco)
            assert len(set(swept)) == len(swept), swept
    assert sweeps < probes
    # The command line counts the recalled cross at H(X_M) = 3 as well:
    # three probes of 15 sets after a sum-rate walk of 45.
    oracle, alpha = cross_at_the_top()
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"source": {
        "kind": "linear", "p": 5, "N": 3,
        "matrices": [a.to_rows() for a in oracle.source.matrices]},
        "weights": list(alpha)}))
    swept.clear()
    assert main(["rates", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"]["sfm_evaluations"] == 90
    assert doc["beta_star"] == "3"
