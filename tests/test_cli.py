import json
from fractions import Fraction

import numpy as np
import pytest

from omniex import fixtures
from omniex.cli import main

from conftest import omniex_cli

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


def test_code_seed_determinism(capsys, tmp_path):
    a_path = str(tmp_path / "a.json")
    b_path = str(tmp_path / "b.json")
    run(capsys, "code", EX1, "--n", "2", "--seed", "9", "--out", a_path)
    run(capsys, "code", EX1, "--n", "2", "--seed", "9", "--out", b_path)
    assert open(a_path).read() == open(b_path).read()


def test_code_figure_document(capsys, tmp_path):
    out_path = str(tmp_path / "scheme.json")
    code, doc = run_json(capsys, "code", FIG1, "--out", out_path)
    assert code == 0
    assert doc["sum_rate"] == "2"
    assert sum(doc["broadcast_rows"]) == 2
    code2, report = run_json(capsys, "verify", FIG1, out_path)
    assert code2 == 0 and report["omniscience"] is True


def test_code_rejects_small_field(capsys, tmp_path):
    doc = json.load(open(EX1))
    doc["source"]["p"] = 2
    for user in doc["source"]["matrices"]:
        for row in user:
            row[:] = [x % 2 for x in row]
    bad = tmp_path / "f2.json"
    bad.write_text(json.dumps(doc))
    code, _out, err = run(capsys, "code", str(bad), "--n", "2",
                          "--out", str(tmp_path / "s.json"))
    assert code == 4
    assert "field" in err.lower()


def test_code_without_tries_exits_5(capsys, tmp_path):
    code, out, err = run(capsys, "code", EX1, "--max-tries", "0",
                         "--out", str(tmp_path / "s.json"))
    assert (code, out) == (5, "")
    assert err.startswith("error: ") and "max_tries" in err


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


def test_table_with_many_missing_subsets_exits_2(capsys, tmp_path):
    # Counting the missing subsets must not list all 2^40 of them.
    path = tmp_path / "sparse.json"
    path.write_text('{"source": {"kind": "table", "m": 40, "entropies": {"1": 1}}}')
    code, out, err = run(capsys, "rates", str(path))
    assert (code, out) == (2, "")
    assert "entropy table is missing 1099511627774 subsets" in err
    assert "Traceback" not in err

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
    assert skipped and "sampled" in skipped[0]["detail"]
    names = {c["name"] for c in report["checks"]}
    assert "entropy-submodular-sampled" in names


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


def test_selfcheck_passes_on_pmf_documents(capsys, tmp_path):
    # m = 3 runs the exhaustive checks and m = 9 the sampled ones; both read
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
        assert ("entropy-submodular" if m <= 8 else "entropy-submodular-sampled") in names


def test_tolerance_must_be_finite_and_nonnegative(capsys, tmp_path):
    # An infinite tolerance stopped the weighted bracket at once and
    # returned a costlier endpoint; nan and negative values meant nothing.
    doc = {"source": {"kind": "pmf", "alphabets": [2, 2],
                      "entries": {"0,0": 0.375, "0,1": 0.125,
                                  "1,0": 0.125, "1,1": 0.375}}}
    path = tmp_path / "dsbs.json"
    path.write_text(json.dumps(doc))
    for command in ("rates", "ilp", "code"):
        for bad in ("nan", "inf", "-1"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, str(path), "--alpha", "5,1", "--tolerance", bad])
            captured = capsys.readouterr()
            assert (exit_info.value.code, captured.out) == (2, "")
            assert "--tolerance" in captured.err and "finite number >= 0" in captured.err
    default = run_json(capsys, "rates", str(path), "--alpha", "5,1")
    for good in ("0", "1e-9"):
        assert run_json(capsys, "rates", str(path), "--alpha", "5,1",
                        "--tolerance", good) == default
