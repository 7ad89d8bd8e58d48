import argparse
import contextlib
import hashlib
import io
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omniex import EntropyOracle, fixtures
from omniex.cli import build_parser, main
from omniex.setfun import DELTA, label

from conftest import nonsubmodular_table_document, omniex_cli, random_linear_source
from test_selfcheck import FLOAT_TABLE

FIG1 = str(fixtures.path("figure1"))
FIG1_SCHEME = str(fixtures.path("figure1_scheme"))
EX1 = str(fixtures.path("example1"))
EX1_SCHEME = str(fixtures.path("example1_scheme"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, err
    return code, json.loads(out)


def test_rates_example_document(capsys):
    code, doc = run_json(capsys, "rates", EX1)
    assert code == 0
    assert doc["unit"] == "F_5-symbols"
    assert doc["rates"] == ["1/2", "1/2", "1/2"]
    assert doc["sum_rate"] == "3/2"
    assert doc["min_sum_rate"] == "3/2"
    assert doc["key_capacity"] == "3/2"
    assert doc["partition"] == [[1], [2], [3]]
    assert doc["diagnostics"]["iterations"] <= 3


def test_rates_figure_document(capsys):
    code, doc = run_json(capsys, "rates", FIG1)
    assert code == 0
    assert doc["rates"] == ["1", "0", "1"]
    assert doc["sum_rate"] == "2"
    assert doc["key_capacity"] == "2"


def test_rates_weighted_flag(capsys):
    code, doc = run_json(capsys, "rates", EX1, "--alpha", "100,1,1")
    assert code == 0
    assert doc["rates"][0] == "0"
    assert doc["cost"] == "2"
    assert doc["beta_star"] == "2"


def test_ilp_example_document(capsys):
    code, doc = run_json(capsys, "ilp", EX1, "--n", "2")
    assert code == 0
    assert doc["rates"] == ["1/2", "1/2", "1/2"]
    assert doc["gap_bound"] == "1/2"
    code, doc = run_json(capsys, "ilp", EX1, "--n", "1")
    assert code == 0
    assert doc["sum_rate"] == "2"


def test_ilp_rejects_zero_n(capsys):
    code, _out, err = run(capsys, "ilp", EX1, "--n", "0")
    assert code == 2
    assert "n" in err


def test_outputs_are_byte_identical_across_runs(capsys):
    _code, out1, _ = run(capsys, "rates", EX1)
    _code, out2, _ = run(capsys, "rates", EX1)
    assert out1 == out2


def test_code_then_verify_pipeline(capsys, tmp_path):
    out_path = str(tmp_path / "scheme.json")
    code, doc = run_json(capsys, "code", EX1, "--n", "2", "--out", out_path)
    assert code == 0
    assert doc["sum_rate"] == "3/2"
    assert doc["broadcast_rows"] == [1, 1, 1]
    assert all(r["status"] == "pass" for r in doc["receivers"])
    code2, report = run_json(capsys, "verify", EX1, out_path)
    assert code2 == 0
    assert report["omniscience"] is True


@pytest.mark.parametrize("where", ["missing/scheme.json", "."])
def test_code_out_that_cannot_be_written_exits_2(capsys, tmp_path, where):
    # A missing directory and a directory: the scheme write fails as a
    # scheme read does, with the path and no traceback.
    out_path = str(tmp_path / where)
    code, out, err = run(capsys, "code", EX1, "--n", "2", "--out", out_path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {out_path}: ")


def test_code_seed_determinism(capsys, tmp_path):
    a_path = str(tmp_path / "a.json")
    b_path = str(tmp_path / "b.json")
    run(capsys, "code", EX1, "--n", "2", "--seed", "9", "--out", a_path)
    run(capsys, "code", EX1, "--n", "2", "--seed", "9", "--out", b_path)
    assert open(a_path).read() == open(b_path).read()


def test_code_refuses_a_negative_seed(capsys, tmp_path):
    # random.Random seeds by |seed|, so -4 would repeat the scheme of 4.
    out_path = tmp_path / "scheme.json"
    code, out, err = run(capsys, "code", EX1, "--seed", "-4", "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == "error: --seed: expected a nonnegative integer, got -4\n"
    assert not out_path.exists()


def test_code_figure_document(capsys, tmp_path):
    out_path = str(tmp_path / "scheme.json")
    code, doc = run_json(capsys, "code", FIG1, "--out", out_path)
    assert code == 0
    assert doc["sum_rate"] == "2"
    assert sum(doc["broadcast_rows"]) == 2
    code2, report = run_json(capsys, "verify", FIG1, out_path)
    assert code2 == 0 and report["omniscience"] is True


def small_field_document(tmp_path) -> str:
    """example1 over F_2: three users, so p <= m."""
    doc = json.load(open(EX1))
    doc["source"]["p"] = 2
    path = tmp_path / "f2.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_code_rejects_small_field(capsys, tmp_path):
    code, _out, err = run(capsys, "code", small_field_document(tmp_path), "--n", "2",
                          "--out", str(tmp_path / "s.json"))
    assert code == 4
    assert "field" in err.lower()


def test_code_without_tries_exits_2(capsys, tmp_path):
    # An invalid option, not a construction that ran out of draws.
    scheme = tmp_path / "s.json"
    for tries in ("0", "-3"):
        code, out, err = run(capsys, "code", EX1, "--max-tries", tries,
                             "--out", str(scheme))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "max_tries" in err
        assert not scheme.exists()


@pytest.mark.parametrize("case", ["small field", "wide system", "no tries"])
def test_code_refuses_before_it_builds_the_table(capsys, monkeypatch, tmp_path, case):
    # Refusals that need no rates come before the solve, so no table is built.
    def refuse(self):
        raise AssertionError("built the subset table before refusing")

    argv, exit_code, message = {
        "small field": ([small_field_document(tmp_path)], 4,
                        "field size 2 must exceed the number of users 3"),
        "wide system": ([EX1, "--n", "171"], 2,
                        "block length n=171 with N=3: a receiver's system of "
                        "n*N = 513 columns is capped at n*N=512"),
        "no tries": ([EX1, "--max-tries", "0"], 2, "max_tries must be at least 1"),
    }[case]
    monkeypatch.setattr(EntropyOracle, "array", refuse)
    scheme = tmp_path / "s.json"
    code, out, err = run(capsys, "code", *argv, "--out", str(scheme))
    assert (code, out, err) == (exit_code, "", f"error: {message}\n")
    assert "Traceback" not in err
    assert not scheme.exists()


def test_code_refuses_a_small_field_before_a_bad_block_length(capsys, tmp_path):
    # p <= m is refused first, so it wins over an n that ilp would refuse.
    code, out, err = run(capsys, "code", small_field_document(tmp_path), "--n", "0",
                         "--out", str(tmp_path / "s.json"))
    assert (code, out) == (4, "")
    assert err == "error: field size 2 must exceed the number of users 3\n"


@pytest.mark.parametrize("problem", [EX1, FIG1], ids=["example1", "figure1"])
def test_code_makes_at_most_max_tries_draws(problem, tmp_path):
    # Each run is a child process with a timeout, so a construction that
    # keeps searching after its draws fails the test instead of hanging it.
    for seed in range(10):
        done = omniex_cli("code", problem, "--seed", str(seed), "--max-tries", "1",
                          "--out", str(tmp_path / "s.json"), cwd=tmp_path)
        assert done.returncode in (0, 5), (seed, done.stderr)
        assert "Traceback" not in done.stderr
        if (problem, seed) == (EX1, 2):
            assert done.returncode == 5
            assert "no valid scheme after 1 random draws" in done.stderr
            # cmd_code proved the rates feasible: only the draws ran out.
            assert "--max-tries" in done.stderr and "infeasible" not in done.stderr


def test_verify_bundled_fixture_schemes(capsys):
    code, report = run_json(capsys, "verify", EX1, EX1_SCHEME)
    assert code == 0
    assert report["omniscience"] is True
    code, report = run_json(capsys, "verify", FIG1, FIG1_SCHEME)
    assert code == 0
    assert all(r["achieved_rank"] == r["required_rank"] == 4
               for r in report["receivers"])


def test_verify_flags_missing_transmission(capsys, tmp_path):
    scheme = json.load(open(EX1_SCHEME))
    scheme["coefficients"][0] = {"rows": 0, "cols": 4, "entries": []}
    crippled = tmp_path / "crippled.json"
    crippled.write_text(json.dumps(scheme))
    code, report = run_json(capsys, "verify", EX1, str(crippled))
    assert code == 1
    statuses = {r["receiver"]: r["status"] for r in report["receivers"]}
    assert statuses[2] == "fail"
    assert report["receivers"][1]["achieved_rank"] == 5


def test_verify_empty_scheme_with_omniscient_users(capsys, tmp_path):
    problem = {
        "source": {"kind": "linear", "p": 5, "N": 2,
                   "matrices": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]}}
    scheme = {"kind": "scheme", "p": 5, "n": 1, "unit": "F_5-symbols",
              "coefficients": [{"rows": 0, "cols": 2, "entries": []},
                               {"rows": 0, "cols": 2, "entries": []}]}
    p_path, s_path = tmp_path / "p.json", tmp_path / "s.json"
    p_path.write_text(json.dumps(problem))
    s_path.write_text(json.dumps(scheme))
    code, report = run_json(capsys, "verify", str(p_path), str(s_path))
    assert code == 0
    assert report["omniscience"] is True


def test_verify_unit_mismatch(capsys, tmp_path):
    scheme = json.load(open(EX1_SCHEME))
    scheme["unit"] = "bits"
    other = tmp_path / "other.json"
    other.write_text(json.dumps(scheme))
    code, _out, err = run(capsys, "verify", EX1, str(other))
    assert code == 3
    assert "unit" in err.lower()


PAIR_PMF = {"source": {"kind": "pmf", "alphabets": [2, 2],
                       "entries": {"0,0": 0.5, "1,1": 0.5}}}


def test_code_and_verify_refuse_a_pmf_document(capsys, tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(PAIR_PMF))
    code, out, err = run(capsys, "code", str(path), "--out", str(tmp_path / "s.json"))
    assert (code, out) == (2, "")
    assert err == "error: code construction needs a linear source document\n"
    assert not (tmp_path / "s.json").exists()
    code, out, err = run(capsys, "verify", str(path), EX1_SCHEME)
    assert (code, out) == (2, "")
    assert err == "error: verification needs a linear source document\n"


def test_verify_refuses_a_scheme_over_another_field(capsys, tmp_path):
    # Without a unit the scheme passes the unit check, so only the field
    # comparison catches it.
    scheme = json.load(open(EX1_SCHEME))
    del scheme["unit"]
    problem = json.load(open(EX1))
    problem["source"]["p"] = 7
    s_path, p_path = tmp_path / "s.json", tmp_path / "p.json"
    s_path.write_text(json.dumps(scheme))
    p_path.write_text(json.dumps(problem))
    code, out, err = run(capsys, "verify", str(p_path), str(s_path))
    assert (code, out) == (3, "")
    assert err == "error: scheme symbols are F_5, problem symbols are F_7\n"


@pytest.mark.parametrize("edit, message", [
    (lambda c: c.pop(), "scheme does not match the source shape"),
    (lambda c: c[0].update(cols=5, entries=[1, 0, 0, 1, 0]),
     "user 1: coefficient matrix is 1x5 mod 5, expected 1x4 mod 5"),
], ids=["missing-user", "wide-matrix"])
def test_verify_refuses_a_scheme_that_does_not_fit_the_problem(
        capsys, tmp_path, edit, message):
    # Invalid input (exit 2), not a receiver falling short (exit 1).
    scheme = json.load(open(EX1_SCHEME))
    edit(scheme["coefficients"])
    s_path = tmp_path / "s.json"
    s_path.write_text(json.dumps(scheme))
    code, out, err = run(capsys, "verify", EX1, str(s_path))
    assert (code, out) == (2, "")
    assert err == f"error: {s_path}: {message}\n"


@pytest.mark.parametrize("alpha, message", [
    ("1,2", "--alpha: expected 3 entries"),
    ("1, -0.5 ,2", "--alpha[1]: negative weight -1/2"),
    ("", "--alpha: expected 3 entries"),
], ids=["too-few", "negative", "empty"])
def test_bad_alpha_exits_2(capsys, alpha, message):
    for command in ("rates", "ilp"):
        code, out, err = run(capsys, command, EX1, "--alpha", alpha)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


UNCERTIFIED = ("error: the table is an entropy function only within 1e-09, "
               "so its rates cannot be certified\n")


@pytest.mark.parametrize("flags", [[], ["--alpha", "1,2,3,4"]], ids=["plain", "weighted"])
def test_float_table_rates_that_cannot_be_certified_exit_2(capsys, tmp_path, flags):
    # The walk's rates miss a cut, and the weighted bracket's sweep refuses
    # the walk's own budget: both within the table's DELTA, not a fault.
    path = tmp_path / "float4.json"
    path.write_text(json.dumps({"source": {"kind": "table", "m": 4,
                                           "entropies": FLOAT_TABLE}}))
    assert run(capsys, "rates", str(path), *flags) == (2, "", UNCERTIFIED)


def perturbed_rank_table(seed: int) -> tuple[dict, list[str]]:
    """The subset ranks of a random linear source with 2-5 users, each
    moved by at most k * DELTA for one k <= m, weighted half the time."""
    rng = random.Random(seed)
    m = rng.randint(2, 5)
    ranks = EntropyOracle(random_linear_source(rng, m=m)).array().tolist()
    k = rng.randint(1, m)
    entropies = {label(s).strip("{}"): ranks[s] + rng.uniform(-k, k) * DELTA
                 for s in range(1, 1 << m)}
    flags = (["--alpha", ",".join(str(rng.randint(1, 5)) for _ in range(m))]
             if rng.random() < 0.5 else [])
    return {"source": {"kind": "table", "m": m, "entropies": entropies}}, flags


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32))
# Seeds whose rates miss a cut (587, and 3200 weighted) or whose weighted
# bracket refuses the walk's own budget (10729).
@example(587)
@example(3200)
@example(10729)
def test_perturbed_rank_tables_never_exit_1(tmp_path_factory, seed):
    doc, flags = perturbed_rank_table(seed)
    path = tmp_path_factory.mktemp("table") / "table.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["rates", str(path), *flags])
    assert code in (0, 2)
    assert (code == 0) == (out.getvalue() != "")


def scaled_rank_table(seed: int) -> tuple[dict, list[str]]:
    """The subset ranks of a random linear source with 2-5 users, times
    10^k for one k in 6..15, as exact floats, weighted half the time."""
    rng = random.Random(seed)
    m = rng.randint(2, 5)
    ranks = EntropyOracle(random_linear_source(rng, m=m)).array().tolist()
    scale = 10 ** rng.randint(6, 15)
    entropies = {label(s).strip("{}"): float(ranks[s] * scale) for s in range(1, 1 << m)}
    flags = (["--alpha", ",".join(str(rng.randint(1, 5)) for _ in range(m))]
             if rng.random() < 0.5 else [])
    return {"source": {"kind": "table", "m": m, "entropies": entropies}}, flags


# The ranks of a 4-user linear source times 1e7: floats near 3e7 are
# 3.7e-9 apart, more than DELTA, so the sum-rate walk misses its ties and
# runs past m sweeps.
LARGE_FLOAT_TABLE = {
    "source": {"kind": "table", "m": 4, "entropies": {
        "1": 2e7, "2": 1e7, "1,2": 3e7, "3": 1e7, "1,3": 3e7, "2,3": 2e7,
        "1,2,3": 3e7, "4": 1e7, "1,4": 3e7, "2,4": 2e7, "1,2,4": 3e7,
        "3,4": 2e7, "1,3,4": 3e7, "2,3,4": 3e7, "1,2,3,4": 3e7}}}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32).map(scaled_rank_table))
@example((LARGE_FLOAT_TABLE, []))
# A weighted table whose float bracket never narrows to 1e-9.
@example(scaled_rank_table(88))
def test_scaled_rank_tables_never_exit_1(tmp_path_factory, case):
    doc, flags = case
    path = tmp_path_factory.mktemp("table") / "table.json"
    path.write_text(json.dumps(doc))
    for command in (["rates", str(path), *flags], ["ilp", str(path), *flags],
                    ["selfcheck", str(path)]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(command)
        if command[0] == "selfcheck":
            assert code in (0, 1) and json.loads(out.getvalue())["ok"] == (code == 0)
        else:
            assert code in (0, 2), command
            assert (code == 0) == (out.getvalue() != ""), command


def test_malformed_documents_exit_2(capsys, tmp_path):
    bad_pmf = {
        "source": {"kind": "pmf", "alphabets": [2, 2],
                   "entries": {"0,0": 0.5, "1,1": 0.4}}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad_pmf))
    code, _out, err = run(capsys, "rates", str(path))
    assert code == 2
    assert "sums to" in err

    path2 = tmp_path / "syntax.json"
    path2.write_text("{ not json")
    code, _out, err = run(capsys, "rates", str(path2))
    assert code == 2
    assert ":" in err  # line-anchored message

    path3 = tmp_path / "ragged.json"
    path3.write_text(json.dumps({
        "source": {"kind": "linear", "p": 5, "N": 3,
                   "matrices": [[[1, 0]], [[0, 1, 0]]]}}))
    code, _out, err = run(capsys, "rates", str(path3))
    assert code == 2
    assert "matrices[0]" in err


def test_a_key_written_twice_in_one_object_exits_2(capsys, tmp_path):
    # A plain JSON decode keeps the last value of a repeated key, and each
    # document below would then solve or verify with that value alone.
    pmf = ('{"source": {"kind": "pmf", "alphabets": [2, 2], "entries": '
           '{"0,0": 0.5, "1,1": 0.25, "0,0": 0.75}}}')
    table = ('{"source": {"kind": "table", "m": 2, "entropies": '
             '{"1": 5, "2": 1, "1,2": 2, "1": 1}}}')
    scheme = Path(FIG1_SCHEME).read_text().replace('"p": 5,', '"p": 7, "p": 5,')
    assert scheme.count('"p"') == 2
    cases = [("pmf", pmf, ["rates"], "'0,0'"),
             ("table", table, ["rates"], "'1'"),
             ("scheme", scheme, ["verify", FIG1], "'p'")]
    for name, text, argv, key in cases:
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2, name
        assert out == ""
        assert err == f"error: {path}: key {key} appears twice in one object\n"


def test_non_finite_and_oversized_probabilities_exit_2(capsys, tmp_path):
    # NaN passes both the sign and the sum check unless it is looked for,
    # and a JSON integer beyond the float range does not convert.
    nan_doc = tmp_path / "nan.json"
    nan_doc.write_text(json.dumps({
        "source": {"kind": "pmf", "alphabets": [2, 2],
                   "entries": {"0,0": float("nan"), "1,1": 1.0}}}))
    huge_doc = tmp_path / "huge.json"
    huge_doc.write_text('{"source": {"kind": "pmf", "alphabets": [2, 2], '
                        '"entries": {"0,0": 1' + "0" * 400 + ', "1,1": 1.0}}}')
    for path, what in ((nan_doc, "non-finite"), (huge_doc, "float range")):
        code, out, err = run(capsys, "rates", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and what in err
        assert "Traceback" not in err


def test_rates_on_pmf_document(capsys, tmp_path):
    doc = {
        "source": {"kind": "pmf", "alphabets": [2, 2],
                   "entries": {"0,0": 0.5, "1,1": 0.5}}}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "rates", str(path))
    assert code == 0
    assert out["unit"] == "bits"
    assert abs(float(out["sum_rate"])) <= 1e-9
    assert abs(float(out["key_capacity"]) - 1.0) <= 1e-9


def test_rates_weighted_on_pmf_document(capsys, tmp_path):
    doc = {
        "source": {"kind": "pmf", "alphabets": [2, 2],
                   "entries": {"0,0": 0.375, "0,1": 0.125,
                               "1,0": 0.125, "1,1": 0.375}}}
    path = tmp_path / "dsbs.json"
    path.write_text(json.dumps(doc))
    code, out = run_json(capsys, "rates", str(path), "--alpha", "5,1")
    assert code == 0
    assert out["unit"] == "bits"
    # Silencing the expensive user costs H(X2|X1) + ...; cost must not
    # exceed five times the uniform optimum.
    uniform = run_json(capsys, "rates", str(path))[1]
    assert float(out["cost"]) <= 5 * float(uniform["sum_rate"]) + 1e-9


def test_selfcheck_passes_on_fixtures(capsys):
    for doc_path in (EX1, FIG1):
        code, report = run_json(capsys, "selfcheck", doc_path)
        assert code == 0
        assert report["ok"] is True
        names = {c["name"] for c in report["checks"]}
        assert "entropy-submodular" in names
        assert "sum-rate-partition-formula" in names


def test_non_finite_table_entropies_exit_2(capsys, tmp_path):
    # An infinite entropy used to reach the JSON writer and a NaN the
    # feasibility check; both are input errors.
    for value in (float("nan"), float("inf"), float("-inf")):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({
            "source": {"kind": "table", "m": 2,
                       "entropies": {"1": 1, "2": value, "1,2": 2}}}))
        for command in ("rates", "ilp", "selfcheck"):
            code, out, err = run(capsys, command, str(path))
            assert (code, out) == (2, "")
            assert "entropy table has non-finite entries" in err
            assert "Traceback" not in err


# A table that holds a float is compared in floats, so an exact value
# beyond the float range in it used to end in an OverflowError.
FLOAT_RANGE_TABLES = {
    "int": '{"source": {"kind": "table", "m": 2, "entropies": '
           '{"1": 1.5, "2": 1, "1,2": 1' + "0" * 400 + '}}}',
    "fraction": '{"source": {"kind": "table", "m": 2, "entropies": '
                '{"1": 1.5, "2": 1, "1,2": "1e400"}}}',
}


@pytest.mark.parametrize("command", ["rates", "ilp", "selfcheck"])
@pytest.mark.parametrize("name", sorted(FLOAT_RANGE_TABLES))
def test_float_tables_with_values_beyond_the_float_range_exit_2(tmp_path, name, command):
    path = tmp_path / "table.json"
    path.write_text(FLOAT_RANGE_TABLES[name])
    done = omniex_cli(command, str(path), cwd=tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
    assert "entropy of subset {1,2} is beyond the float range" in done.stderr
    assert "Traceback" not in done.stderr


def test_exact_tables_beyond_the_float_range_stay_exact(capsys, tmp_path):
    path = tmp_path / "table.json"
    path.write_text('{"source": {"kind": "table", "m": 2, "entropies": '
                    '{"1": 1, "2": 1, "1,2": 1' + "0" * 400 + '}}}')
    code, out, err = run(capsys, "rates", str(path))
    assert (code, out) == (2, "")
    assert "entropy table is not submodular" in err


def test_table_with_many_missing_subsets_exits_2(capsys, tmp_path):
    # Counting the missing subsets must not list all 2^40 of them.
    path = tmp_path / "sparse.json"
    path.write_text('{"source": {"kind": "table", "m": 40, "entropies": {"1": 1}}}')
    code, out, err = run(capsys, "rates", str(path))
    assert (code, out) == (2, "")
    assert "entropy table is missing 1099511627774 subsets" in err
    assert "Traceback" not in err

def test_integer_literals_past_the_digit_limit_exit_2(capsys, tmp_path):
    # json.dumps refuses such an int, so the literal is written as text.
    path = tmp_path / "digits.json"
    path.write_text(Path(EX1).read_text().rstrip()[:-1]
                    + ', "weights": [' + "9" * 5000 + ', 1, 1]}')
    code, out, err = run(capsys, "rates", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: Exceeds the limit (4300 digits)")


# Weights that parse but whose outputs Python cannot print: the weight
# itself, or a cost of (3/2) * (10^4300 - 1), past 4300 digits.
UNPRINTABLE_WEIGHTS = {
    "1e4300": (["1e4300", 1, 1], "1.00e+4300"),
    "1e-4300": (["1e-4300", 1, 1], "1e-4300"),
    "4300-digit int": ([10 ** 4300 - 1] * 3, "1.50e+4300"),
}


@pytest.mark.parametrize("command", ["rates", "ilp"])
@pytest.mark.parametrize("name", sorted(UNPRINTABLE_WEIGHTS))
def test_values_past_the_digit_limit_exit_2(tmp_path, name, command):
    weights, about = UNPRINTABLE_WEIGHTS[name]
    doc = json.loads(Path(EX1).read_text())
    doc["weights"] = weights
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(doc))
    done = omniex_cli(command, str(path), cwd=tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(f"error: the exact value {about} has a numerator "
                                  "or denominator of more than 4300 digits")
    assert "Traceback" not in done.stderr


def test_alpha_with_a_huge_exponent_exits_2(capsys):
    code, out, err = run(capsys, "rates", EX1, "--alpha", "1e100000000,1,1")
    assert (code, out) == (2, "")
    assert "--alpha[0]: exponent of '1e100000000' is beyond 4300" in err


def test_selfcheck_fails_on_nonsubmodular_table(capsys, tmp_path):
    doc = {
        "source": {"kind": "table", "m": 2, "unit": "bits",
                   "entropies": {"1": "4", "2": "3", "1,2": "8"}}}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "selfcheck", str(path))
    assert code == 1
    assert report["ok"] is False
    failed = {c["name"] for c in report["checks"] if c["status"] == "fail"}
    assert "entropy-submodular" in failed


@pytest.mark.parametrize("entropies, message", [
    ({"1": 1, "2": 1, "1,2": 5},
     "not submodular: H(S + i) + H(S + j) < H(S + i + j) + H(S) at S = {}, i = 1, j = 2"),
    ({"1": 1.0, "2": 2.0, "3": 1.0, "1,2": 2.0, "1,3": 2.0, "2,3": 1.5, "1,2,3": 2.0},
     "not monotone: H(S + i) < H(S) at S = {2}, i = 3"),
    ({"1": "1", "2": "1", "3": "1", "1,2": "2", "1,3": "2", "2,3": "1", "1,2,3": "3"},
     "not submodular: H(S + i) + H(S + j) < H(S + i + j) + H(S) at S = {3}, i = 1, j = 2"),
], ids=["pair", "monotone-float", "submodular-above-empty"])
def test_tables_that_are_not_entropy_functions_exit_2(capsys, tmp_path, entropies,
                                                        message):
    m = max(int(u) for key in entropies for u in key.split(","))
    path = tmp_path / "table.json"
    path.write_text(json.dumps(
        {"source": {"kind": "table", "m": m, "entropies": entropies}}))
    for command in ("rates", "ilp"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == f"error: entropy table is {message}\n"
    code, out, err = run(capsys, "code", str(path), "--out", str(tmp_path / "s.json"))
    assert (code, out) == (2, "")
    # selfcheck reports on such a table instead of refusing it.
    code, report = run_json(capsys, "selfcheck", str(path))
    assert code == 1 and report["ok"] is False


@pytest.mark.parametrize("doc, flags", [
    ({"source": {"kind": "linear", "p": 5, "N": 2, "matrices": [[[1, 0]], [[0, 1]]]},
      "weights": [1e308, 1e308]}, ()),
    ({"source": {"kind": "pmf", "alphabets": [2, 2], "entries": {
        "0,0": 0.4, "0,1": 0.1, "1,0": 0.1, "1,1": 0.4}}}, ("--alpha", "1e400,1")),
], ids=["float-weights-on-linear", "exact-weight-on-pmf"])
def test_weights_whose_costs_overflow_floats_exit_2(tmp_path, doc, flags):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    for command in ("rates", "ilp"):
        done = omniex_cli(command, str(path), *flags, cwd=tmp_path)
        assert (done.returncode, done.stdout) == (2, ""), (command, done.stderr)
        assert done.stderr.startswith("error: weights too large")
        assert "Traceback" not in done.stderr


def test_large_exact_weights_on_a_linear_source_stay_exact(capsys):
    # No float arises, so no weight is too large.
    code, doc = run_json(capsys, "rates", EX1, "--alpha", "1e400,1,1")
    assert code == 0
    assert doc["rates"][0] == "0"
    assert doc["cost"] == "2"


def test_float_weights_on_a_linear_source_converge(tmp_path):
    # On an exact oracle each float weight enters the bracket's lines as the
    # binary rational it holds, so its slopes and intercepts are compared
    # exactly and the kink is certified; only the cost is a float.  With the
    # float sums compared exactly, this document ran out of iterations.
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "source": {"kind": "linear", "p": 7, "N": 3, "matrices": [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 2, 3]], [[0, 1, 1]], [[4, 0, 1]]]},
        "weights": [5, 0.001, 0.3, 5]}))
    for command, flags in (("rates", ()), ("ilp", ("--n", "2"))):
        done = omniex_cli(command, str(path), *flags, cwd=tmp_path)
        assert done.returncode == 0, (command, done.stderr)
        doc = json.loads(done.stdout)
        assert abs(doc["cost"] - 5.301) <= 1e-9, command
    assert doc["rates"] == ["1", "1", "1", "0"]


def test_selfcheck_reports_a_nonsubmodular_table_above_eight_users(capsys, tmp_path):
    # Sampled pairs missed this violation, and the sum-rate walk then
    # stopped the command with no report.
    path = tmp_path / "table10.json"
    path.write_text(json.dumps(nonsubmodular_table_document()))
    code, report = run_json(capsys, "selfcheck", str(path))
    assert code == 1 and report["ok"] is False
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status["entropy-submodular"] == "fail"
    assert status["entropy-monotone"] == "pass"
    code, out, err = run(capsys, "rates", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: entropy table is not submodular")


# sha256 of ``ilp --n 3`` on THIRDS, recorded before fractional entropies
# were refused at other n: the runs that succeeded keep their bytes.
ILP_THIRDS_N3 = "ab7b8b7aec4091ae5aa5eabb759380d8c344869c967948478345ee29b01cd93c"
THIRDS = '{"source": {"kind": "table", "m": 2, "entropies": {"1": "1/3", "2": "1/3", "1,2": "2/3"}}}'


def test_ilp_refuses_entropies_that_are_not_multiples_of_one_over_n(capsys, tmp_path):
    path = tmp_path / "thirds.json"
    path.write_text(THIRDS)
    for n in (1, 2):
        code, out, err = run(capsys, "ilp", str(path), "--n", str(n))
        assert (code, out) == (2, "")
        assert err == (f"error: ilp at n={n} needs every entropy to be a multiple "
                       f"of 1/{n}: H({{1}}) = 1/3\n")
    code, out, _err = run(capsys, "ilp", str(path), "--n", "3")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ILP_THIRDS_N3


@pytest.mark.parametrize("n", [1, 2])
def test_ilp_refusal_names_an_entropy_past_the_digit_limit(tmp_path, n):
    # 1e-4300 is exact, but its denominator has too many digits to print.
    path = tmp_path / "tiny.json"
    path.write_text('{"source": {"kind": "table", "m": 2, '
                    '"entropies": {"1": "1e-4300", "2": 1, "1,2": 1}}}')
    done = omniex_cli("ilp", str(path), "--n", str(n), cwd=tmp_path)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (f"error: ilp at n={n} needs every entropy to be a "
                           f"multiple of 1/{n}: H({{1}}) is not, and its numerator "
                           f"or denominator has more than 4300 digits\n")


def test_selfcheck_large_instance_skips_exhaustive_parts(capsys, tmp_path):
    matrices = [[[1 if c == r else 0 for c in range(10)]
                 for r in range(10) if r % 10 != u] for u in range(10)]
    doc = {"source": {"kind": "linear", "p": 11, "N": 10,
                      "matrices": matrices}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, report = run_json(capsys, "selfcheck", str(path))
    assert code == 0
    skipped = [c for c in report["checks"] if c["status"] == "skipped"]
    assert skipped and skipped[0]["detail"] == "m=10 > 8, the brute-force cross-checks are skipped"
    names = {c["name"] for c in report["checks"]}
    assert "entropy-submodular" in names


def test_table_format_renders_key_values(capsys):
    code, out, _err = run(capsys, "rates", EX1, "--format", "table")
    assert code == 0
    assert "sum_rate" in out and "3/2" in out
    assert not out.lstrip().startswith("{")


def test_rates_values_are_reduced_fractions(capsys):
    _code, doc = run_json(capsys, "rates", EX1)
    for v in doc["rates"]:
        f = Fraction(v)
        assert str(f) == v


def test_oversize_pmf_table_exits_2(capsys, tmp_path, monkeypatch):
    # numpy refuses a 10^40-entry table with ValueError; a table it could
    # describe but not allocate raises MemoryError.  Both are input errors.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "source": {"kind": "pmf", "alphabets": [100000] * 8,
                   "entries": {",".join(["0"] * 8): 1.0}}}))
    code, out, err = run(capsys, "rates", str(path))
    assert (code, out) == (2, "")
    assert "alphabets: a pmf table of 10" in err and "does not fit" in err
    assert "Traceback" not in err

    real_zeros = np.zeros

    def zeros(shape, *args, **kwargs):
        if shape == (300, 300, 300):
            raise MemoryError("Unable to allocate 206. MiB")
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)
    path.write_text(json.dumps({
        "source": {"kind": "pmf", "alphabets": [300] * 3,
                   "entries": {"0,0,0": 1.0}}}))
    code, out, err = run(capsys, "rates", str(path))
    assert (code, out) == (2, "")
    assert "a pmf table of 27000000 outcomes does not fit in memory" in err


def test_pmf_with_more_users_than_array_axes_exits_2(capsys, tmp_path):
    # A one-outcome table fits in memory; numpy refuses its 70 axes.
    path = tmp_path / "axes.json"
    path.write_text(json.dumps({
        "source": {"kind": "pmf", "alphabets": [1] * 70,
                   "entries": {",".join(["0"] * 70): 1.0}}}))
    code, out, err = run(capsys, "rates", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: {path}.source.alphabets: a pmf of 70 users has more "
                   f"users than a numpy array has axes\n")


@pytest.mark.parametrize("weight", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_weights_exit_2(capsys, tmp_path, weight):
    path = tmp_path / "weights.json"
    path.write_text('{"source": {"kind": "linear", "p": 5, "N": 2, '
                    '"matrices": [[[1, 0]], [[0, 1]]]}, "weights": [1, ' + weight + ']}')
    for command in ("rates", "ilp"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}.weights[1]: not a finite number\n"


def test_selfcheck_passes_on_pmf_documents(capsys, tmp_path):
    # m = 3 runs the brute-force cross-checks and m = 9 skips them; both read
    # every subset entropy through one batch of the pmf oracle first.
    rng = np.random.RandomState(17)
    for m in (3, 9):
        raw = rng.random_sample((2,) * m) ** 4 + 1e-3
        raw /= raw.sum()
        entries = {",".join(str(i >> (m - 1 - k) & 1) for k in range(m)): float(p)
                   for i, p in enumerate(raw.reshape(-1))}
        path = tmp_path / f"pmf{m}.json"
        path.write_text(json.dumps(
            {"source": {"kind": "pmf", "alphabets": [2] * m, "entries": entries}}))
        code, report = run_json(capsys, "selfcheck", str(path))
        assert code == 0
        assert report["ok"] is True
        names = {c["name"] for c in report["checks"]}
        assert "entropy-submodular" in names


def test_readme_names_exactly_the_command_line_options():
    # A flag removed from the parser must leave the README too, and the
    # other way round.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    (subparsers,) = (action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction))
    options = {option for command in subparsers.choices.values()
               for action in command._actions for option in action.option_strings
               if option.startswith("--") and option != "--help"}
    assert named == options
