"""The table of all 2^m subset entropies is the one road to a solve, and it
is refused at once above ``TABLE_CAP`` users.

Each refusal runs the CLI in a child process with a timeout, so that a
command that starts enumerating subsets fails the test instead of hanging
it.  ``verify`` needs no table and still takes any number of users.
"""

import json
import random

import pytest

from omniex import (EntropyOracle, LinearSource, TooLarge, make_dmms_source,
                    make_linear_source)
from omniex.cli import main
from omniex.sources import TABLE_CAP

from conftest import omniex_cli, random_linear_source

COMMANDS = ("rates", "ilp", "code", "selfcheck")
CAP_MESSAGE = f"capped at m={TABLE_CAP}"


def one_column(m: int) -> dict:
    """m users over F_101 who each hold the one packet: one row [1] each."""
    return {"source": {"kind": "linear", "p": 101, "N": 1,
                       "matrices": [[[1]] for _ in range(m)]}}


def sparse_pmf() -> dict:
    """30 users, 28 of them with a one-letter alphabet: a 4-entry pmf."""
    alphabets = [2, 2] + [1] * 28
    return {"source": {"kind": "pmf", "alphabets": alphabets, "entries": {
        ",".join(["0"] * 30): 0.5, ",".join(["1", "1"] + ["0"] * 28): 0.5}}}


@pytest.mark.parametrize("doc", [one_column(23), one_column(24), one_column(40),
                                 one_column(63), sparse_pmf()],
                         ids=["linear-23", "linear-24", "linear-40", "linear-63",
                              "pmf-30"])
def test_commands_refuse_instances_above_the_cap(doc, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        done = omniex_cli(command, str(path), cwd=tmp_path)
        assert (done.returncode, done.stdout) == (2, ""), (command, done.stderr)
        assert "Traceback" not in done.stderr
        if command == "code" and doc["source"]["kind"] == "pmf":
            # Refused for its kind, before its size matters.
            assert "needs a linear source" in done.stderr
        else:
            assert CAP_MESSAGE in done.stderr, (command, done.stderr)


def test_verify_takes_any_number_of_users(tmp_path):
    # Users who already hold everything need no broadcast: an empty scheme
    # gives omniscience, and checking it reads no subset table.
    problem, scheme = tmp_path / "problem.json", tmp_path / "scheme.json"
    problem.write_text(json.dumps(one_column(24)))
    scheme.write_text(json.dumps({
        "kind": "scheme", "p": 101, "n": 1, "unit": "F_101-symbols",
        "coefficients": [{"rows": 0, "cols": 1, "entries": []}] * 24}))
    done = omniex_cli("verify", str(problem), str(scheme), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["omniscience"] is True


def test_array_refuses_above_the_cap_before_any_work():
    linear = make_linear_source([[[1]]] * (TABLE_CAP + 1), p=101, N=1)
    pmf = make_dmms_source((2,) + (1,) * TABLE_CAP, [0.5, 0.5])
    for src in (linear, pmf):
        oracle = EntropyOracle(src)
        with pytest.raises(TooLarge, match=CAP_MESSAGE):
            oracle.array()
        assert oracle.oracle_queries() == 0


def test_selfcheck_reads_the_table_without_per_subset_eliminations(
        capsys, tmp_path, monkeypatch):
    src = random_linear_source(random.Random(10), m=10, n_packets=12, p=101)
    path = tmp_path / "linear10.json"
    path.write_text(json.dumps({"source": {
        "kind": "linear", "p": src.p, "N": src.N,
        "matrices": [a.to_rows() for a in src.matrices]}}))

    def refuse(self, mask):
        raise AssertionError(f"selfcheck eliminated subset {mask} on its own")

    monkeypatch.setattr(LinearSource, "_entropy", refuse)
    code = main(["selfcheck", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["ok"] is True
    assert {c["name"] for c in report["checks"]} >= {
        "source-valid", "entropy-submodular", "sum-rate-rates-feasible"}
