"""A receiver's system of n*N columns is refused above ``WIDTH_CAP``.

``code`` and ``verify`` eliminate systems whose width is the block length
times the packet count.  Above the cap they exit 2 at once, before they
build a matrix; before the cap, such documents ended in ``OverflowError``
or ``MemoryError`` tracebacks, or ran for minutes.  Each refusal runs the
CLI in a child process with a timeout and an address-space limit.
"""

import json
import re
from fractions import Fraction

import pytest

from omniex import RateVector, TooLarge
from omniex import field as ff
from omniex import fixtures
from omniex import netcode
from omniex.netcode import WIDTH_CAP, TransmissionScheme

from conftest import example1_source, figure1_source, omniex_cli

CAP_MESSAGE = f"capped at n*N={WIDTH_CAP}"


def example1(n: int) -> dict:
    doc = json.loads(fixtures.path("example1").read_text())
    return dict(doc, n=n)


@pytest.mark.parametrize("n", [2 ** 40, 20000, 2000])
def test_code_refuses_a_large_block_length(n, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(example1(n)))
    done = omniex_cli("code", str(path), "--out", str(tmp_path / "s.json"),
                      cwd=tmp_path)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert CAP_MESSAGE in done.stderr
    assert "Traceback" not in done.stderr
    # ilp needs no receiver system and answers at any n.
    done = omniex_cli("ilp", str(path), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["rates"] == ["1/2"] * 3


def test_verify_refuses_a_large_block_length(tmp_path):
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps({
        "kind": "scheme", "p": 5, "n": 2 ** 40, "unit": "F_5-symbols",
        "coefficients": [{"rows": 0, "cols": 2 ** 41, "entries": []}] * 3}))
    done = omniex_cli("verify", str(fixtures.path("example1")), str(scheme),
                      cwd=tmp_path)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert CAP_MESSAGE in done.stderr
    assert "Traceback" not in done.stderr


def empty_scheme(n: int) -> TransmissionScheme:
    src = figure1_source()
    return TransmissionScheme(n=n, p=5, coefficients=tuple(
        ff.FieldMatrix(0, n * a.rows, 5, []) for a in src.matrices))


def test_the_cap_is_on_n_times_n_packets():
    src = figure1_source()   # N = 4 divides the cap
    widest = WIDTH_CAP // src.N
    assert widest * src.N == WIDTH_CAP
    empty_scheme(widest).check_source(src)
    for call in (lambda s: s.check_source(src), lambda s: netcode.receiver_ranks(src, s),
                 lambda s: netcode.decode(src, s, 0, [], [[], [], []])):
        with pytest.raises(TooLarge, match=re.escape(CAP_MESSAGE)):
            call(empty_scheme(widest + 1))


def test_construct_code_refuses_before_it_draws(monkeypatch):
    def refuse(*args):
        raise AssertionError("drew coefficients above the cap")

    monkeypatch.setattr(ff.FieldMatrix, "random", refuse)
    half = RateVector(values=(Fraction(1, 2),) * 3, unit="F_5-symbols")
    n = 2 * (WIDTH_CAP // 6 + 1)   # the least even n with n*N > WIDTH_CAP
    with pytest.raises(TooLarge, match=re.escape(CAP_MESSAGE)):
        netcode.construct_code(example1_source(), half, n)
