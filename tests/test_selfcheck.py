"""``omniex selfcheck``: its bytes on a fixed set of documents, and the
conditional-entropy bounds 0 <= H(M) - H(S^c) <= H(S), which it reads as
whole arrays from the subset table."""

import hashlib
import json
import random

import numpy as np
import pytest

from omniex import fixtures
from omniex.cli import main
from omniex.sources import EntropyOracle

from conftest import (
    baseline_source,
    linear_document,
    nonsubmodular_table_document,
    omniex_cli,
    random_linear_source,
)

# Entropy tables of two users; the bounds fail exactly as the names say.
# Exact tables compare exactly and float ones within DELTA = 1e-9, and a
# table mixing ints and floats is a float table held as dtype object.
TABLES = {
    "upper-exact": {"1": "1", "2": "0", "1,2": "3"},
    "lower-exact": {"1": "2", "2": "1", "1,2": "1"},
    "upper-float": {"1": 1.0, "2": 0.0, "1,2": 3.0},
    "upper-mixed": {"1": 1, "2": 0.0, "1,2": 3},
    "lower-float": {"1": 2.0, "2": 1.0, "1,2": 1.0},
    "upper-exact-by-a-billionth": {"1": "1", "2": "0", "1,2": "1000000001/1000000000"},
    "upper-float-within-delta": {"1": 1.0, "2": 0.0, "1,2": 1.0 + 5e-10},
    "lower-float-within-delta": {"1": 1.0 + 5e-10, "2": 0.5, "1,2": 1.0},
}
BOUNDS = {
    "upper-exact": "fail",
    "lower-exact": "fail",
    "upper-float": "fail",
    "upper-mixed": "fail",
    "lower-float": "fail",
    "upper-exact-by-a-billionth": "fail",
    "upper-float-within-delta": "pass",
    "lower-float-within-delta": "pass",
}

# sha256 of the selfcheck stdout, recorded when the bounds were still read
# one subset at a time through ``EntropyOracle.cond_entropy``; those of the
# documents above 8 users (pmf9, linear10, table10) once the entropy
# function was checked exactly there too.
DIGESTS = {
    "example1":
        "42e6aef6f561e23f418a1c06be7821eea60f85b46a46ab3a08a8c8bd2671488d",
    "figure1":
        "f12a512b2dd202ce12c353c298380474ab95ba20bdd1efaaed36123442b82d79",
    "pmf3":
        "a5ebbf47df8c62cdfaa29ecb29470de4e36497bb1a375c603516a6c9d0a0a849",
    "pmf9":
        "6906762e057140eeade55f0ac3c475bf2dd3758d2261cdaeb20837d61a54d3d5",
    "linear10":
        "c162ea86107be39c553aa4f987cf8d5fd6daf30527d0b9c0fc28d054c37e3ee2",
    "table10":
        "bae90d44b6a8c4d6dad5b7be0ad36c0ee0ae60cca9d67d5372410155f9eef9b0",
    "upper-exact":
        "ec0c5e1f9cf973be1f523789edec738381aaf2c9ef9065570cc2550655542d40",
    "lower-exact":
        "ec8b0c03ae34e98fb7811c53dd02bb2b81a9222dd19662e4b9ef9960164ea2aa",
    "upper-float":
        "f3cfdc16e1140b8a11730e505607813486d65c3609359828d41f2bf4b1d72f78",
    "upper-mixed":
        "3de179184d26efc0af74359c5b3b93e5528d1a117e92b41755316513baa6fc4c",
    "lower-float":
        "cfc33f974e118e476fe84563145fdc6d06d0c43cb520880aacb0d29914345f32",
    "upper-exact-by-a-billionth":
        "04597bced6f3a2eeb298ce1db0447900954ded4d021e8348b150645022b80133",
    "upper-float-within-delta":
        "c5eb6bf9aa092a889ef57c2e417c7ad89504deb0914010ecbf1f100a2b44ab37",
    "lower-float-within-delta":
        "e51103ade67d2ab795a630379aeb49792580cf66ac99511e7d2f7b656acbda8d",
}


def pmf_document(m: int) -> dict:
    rng = np.random.RandomState(17 + m)
    raw = rng.random_sample((2,) * m) ** 4 + 1e-3
    raw /= raw.sum()
    entries = {",".join(str(i >> (m - 1 - k) & 1) for k in range(m)): float(p)
               for i, p in enumerate(raw.reshape(-1))}
    return {"source": {"kind": "pmf", "alphabets": [2] * m, "entries": entries}}


def document_path(name: str, tmp_path) -> str:
    if name in fixtures.names():
        return str(fixtures.path(name))
    if name in TABLES:
        doc = {"source": {"kind": "table", "m": 2, "entropies": TABLES[name]}}
    elif name == "linear10":
        doc = linear_document(random_linear_source(random.Random(10), m=10,
                                                   n_packets=12, p=101))
    elif name == "table10":
        doc = nonsubmodular_table_document()
    else:
        doc = pmf_document(int(name[len("pmf"):]))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def selfcheck(name: str, tmp_path, capsys) -> tuple[int, str]:
    code = main(["selfcheck", document_path(name, tmp_path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.out


@pytest.mark.parametrize("name", list(DIGESTS))
def test_selfcheck_bytes_match_the_recorded_digest(name, tmp_path, capsys):
    _code, out = selfcheck(name, tmp_path, capsys)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", list(TABLES))
def test_conditional_entropy_bounds_verdict(name, tmp_path, capsys):
    code, out = selfcheck(name, tmp_path, capsys)
    status = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert status["conditional-entropy-bounds"] == BOUNDS[name]
    assert code == (0 if "fail" not in status.values() else 1)


def test_bounds_do_not_go_through_cond_entropy(tmp_path, capsys, monkeypatch):
    def refuse(self, mask):
        raise AssertionError(f"selfcheck read H(S | S^c) of subset {mask} alone")

    monkeypatch.setattr(EntropyOracle, "cond_entropy", refuse)
    for name in ("example1", "figure1", "pmf3", "pmf9", "upper-float-within-delta"):
        code, out = selfcheck(name, tmp_path, capsys)
        assert code == 0, name
        assert json.loads(out)["ok"] is True


def test_selfcheck_checks_every_pair_of_twenty_users_quickly(tmp_path):
    # The Baseline generator's m = 20 document (p = 101, N = 40): the exact
    # monotone and submodular checks read the whole table once per user and
    # once per pair of users.  On one CPU of a Xeon the command takes
    # about 1.8 s (1.4 s when submodularity was only sampled).
    path = tmp_path / "linear20.json"
    path.write_text(json.dumps(linear_document(baseline_source(20))))
    done = omniex_cli("selfcheck", str(path), cwd=tmp_path, timeout=60)
    assert done.returncode == 0, done.stderr
    status = {c["name"]: c["status"] for c in json.loads(done.stdout)["checks"]}
    assert status["entropy-submodular"] == "pass"


# A float table that passes the entropy-function check within DELTA, on
# which the sum-rate walk's rates miss a cut by about 1.4e-9 and the sweep
# refuses the walk's own budget as below the minimum sum rate.
FLOAT_TABLE = {"1": 4.0, "2": 3.0, "1,2": 3.9999999994, "3": 3.0, "1,3": 4.0000000006,
               "2,3": 4.0, "1,2,3": 4.0000000006, "4": 2.9999999994, "1,4": 4.0,
               "2,4": 4.0, "1,2,4": 4.0, "3,4": 4.0, "1,3,4": 4.0,
               "2,3,4": 4.0000000006, "1,2,3,4": 4.0000000006}


def test_selfcheck_reports_a_refused_budget_instead_of_stopping(tmp_path, capsys):
    path = tmp_path / "float4.json"
    path.write_text(json.dumps({"source": {"kind": "table", "m": 4,
                                           "entropies": FLOAT_TABLE}}))
    code = main(["selfcheck", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["ok"] is False
    failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    assert failed == ["sum-rate-rates-feasible", "dilworth-cross-check",
                      "segment-sum-law"]
    segment = report["checks"][-1]
    assert segment["name"] == "segment-sum-law"
    assert segment["detail"].startswith("h_eval at beta = 1.000000001: ")
    assert "below the minimum sum rate" in segment["detail"]
