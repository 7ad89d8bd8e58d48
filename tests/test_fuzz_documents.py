"""Mutated documents through ``rates``, ``ilp``, ``code``, ``verify`` and
``selfcheck``.

hypothesis mutates the bundled fixtures, a small pmf document, a small
entropy table and a scheme document: the block length, packet count,
field and seed, the weights, the rows of the matrices, the pmf alphabets
and outcome keys, the table's values and subsets, and the scheme's
dimensions and entries.  Every command must end with a documented exit
code (0-5) and no traceback.  Each example runs the five
commands through ``cli.main`` in one child process, under a timeout and
an address-space limit, so that a command that runs away or allocates
too much fails the test instead of exhausting the host.
"""

import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omniex import fixtures

from conftest import child_env, limit_address_space

# Runs the five commands on the documents read from stdin and prints the
# exit code of each, or the traceback of an exception that escaped it.
CHILD = r"""
import contextlib, io, json, os, sys, tempfile, traceback
from omniex.cli import main

problem_text, scheme_text = json.load(sys.stdin)
codes = {}
with tempfile.TemporaryDirectory() as tmp:
    problem, scheme = os.path.join(tmp, "problem.json"), os.path.join(tmp, "scheme.json")
    for path, text in ((problem, problem_text), (scheme, scheme_text)):
        with open(path, "w") as fh:
            fh.write(text)
    runs = {"rates": [problem], "ilp": [problem],
            "code": [problem, "--out", os.path.join(tmp, "out.json")],
            "verify": [problem, scheme], "selfcheck": [problem]}
    for command, args in runs.items():
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes[command] = main([command, *args])
        except SystemExit as exc:
            codes[command] = exc.code
        except Exception:
            codes[command] = traceback.format_exc()
print(json.dumps(codes))
"""
TIMEOUT = 20


def fixture(name: str) -> dict:
    return json.loads(fixtures.path(name).read_text())


SMALL_PMF = {"source": {"kind": "pmf", "alphabets": [2, 2, 2], "entries": {
    "0,0,0": 0.25, "0,1,1": 0.25, "1,0,1": 0.25, "1,1,0": 0.125, "1,1,1": 0.125}}}
# The subset ranks of example1.
SMALL_TABLE = {"source": {"kind": "table", "m": 3, "entropies": {
    "1": 2, "2": 2, "1,2": 3, "3": 2, "1,3": 3, "2,3": 3, "1,2,3": 3}}}
PROBLEMS = {"example1": fixture("example1"), "figure1": fixture("figure1"),
            "pmf": SMALL_PMF, "table": SMALL_TABLE}
SCHEMES = {"example1": fixture("example1_scheme"), "figure1": fixture("figure1_scheme")}

ODD = [None, True, "2", 2.5, -1, 0, [], {}]
BLOCK_LENGTHS = [1, 2, 3, 4, 100, 101, 171, 2000, 20000, 2 ** 40, *ODD]
WEIGHTS = [0, 1, 3, "1/2", 1e-9, 1e308, -1, float("nan"), float("inf"),
           float("-inf"), 2 ** 70, "x", True, None]
ENTRIES = [0, 1, 4, 5, -1, 2 ** 70, 1.5, "1", True, None]
KEYS = ["0,0,0", "00,0,1", "0,0", "0,0,0,0", "1, 0 ,1", "+1,1,1", "2,0,0", "-1,0,0",
        "a,b,c", "", "٣,0,0", "0" * 30 + ",1,0", "9" * 19 + ",0,0"]
TABLE_VALUES = [0, "1/2", "5/2", 1.5, -1, 1e308, 10 ** 400, "1e400", "1/0",
                float("nan"), True, False]
# None drops the subset; "2,1" and "1,1,2" repeat one.
TABLE_KEYS = [None, "2,1", "1,1,2", "", "0", "4", "0,1", "1,4", " 3 ", "x"]
PROBABILITIES = [0.0, 0.5, 1, 0, -0.25, float("nan"), float("inf"), 10 ** 400,
                 "0.5", True, None]


@st.composite
def problem_mutation(draw, doc: dict) -> None:
    """One change to a problem document, in place."""
    src = doc["source"]
    what = draw(st.sampled_from(["n", "seed", "weights", "p", "N", "rows",
                                 "alphabets", "keys"]))
    if what == "n":
        doc["n"] = draw(st.sampled_from(BLOCK_LENGTHS))
    elif what == "seed":
        doc["seed"] = draw(st.sampled_from([0, 1, 7, 2 ** 70, *ODD]))
    elif what == "weights":
        m = src.get("m") or len(src.get("matrices") or src.get("alphabets"))
        size = draw(st.sampled_from([m, m, m, max(m - 1, 0), m + 1]))
        doc["weights"] = draw(st.lists(st.sampled_from(WEIGHTS), min_size=size,
                                       max_size=size))
    elif src["kind"] == "table":
        entropies = src["entropies"]
        victim = draw(st.sampled_from(sorted(entropies)))
        if what == "keys":
            value = entropies.pop(victim)
            key = draw(st.sampled_from(TABLE_KEYS))
            if key is not None:
                entropies[key] = value
        else:
            entropies[victim] = draw(st.sampled_from(TABLE_VALUES))
    elif src["kind"] == "pmf":
        if what == "alphabets":
            src["alphabets"] = draw(st.sampled_from(
                [[2, 2], [2, 2, 2, 2], [3, 2, 2], [1, 1, 1], [0, 2, 2], [2, 2, True],
                 [1] * 70, [100000] * 8, [2 ** 62, 2], "2,2,2", []]))
        else:
            entries = src["entries"]
            victim = draw(st.sampled_from(sorted(entries)))
            prob = entries.pop(victim)
            if what == "keys":
                entries[draw(st.sampled_from(KEYS))] = prob
            else:
                entries[victim] = draw(st.sampled_from(PROBABILITIES))
    elif what == "p":
        src["p"] = draw(st.sampled_from([2, 3, 4, 7, 101, 2 ** 61 - 1, 0, -5, "5", 5.0]))
    elif what == "N":
        src["N"] = draw(st.sampled_from([1, 2, 5, 0, -1, 2 ** 40, "3", None]))
    else:
        users = src["matrices"]
        u = draw(st.integers(0, len(users) - 1))
        change = draw(st.sampled_from(["ragged", "entry", "empty", "extra"]))
        if change == "empty":
            users[u] = []
        elif not users[u]:
            return
        elif change == "ragged":
            users[u][0] = users[u][0][:-1]
        elif change == "entry":
            users[u][0][0] = draw(st.sampled_from(ENTRIES))
        else:
            users[u].append(list(users[u][0]))


@st.composite
def scheme_mutation(draw, doc: dict) -> None:
    """One change to a scheme document, in place."""
    what = draw(st.sampled_from(["n", "rows", "cols", "entries"]))
    if what == "n":
        doc["n"] = draw(st.sampled_from(BLOCK_LENGTHS))
        return
    coeff = draw(st.sampled_from(doc["coefficients"]))
    if what in ("rows", "cols"):
        coeff[what] = draw(st.sampled_from([0, 1, 2, 5, -1, 2 ** 41, "1", None]))
    else:
        coeff["entries"] = draw(st.sampled_from(
            [[], [1] * 4, [1] * 8, [2 ** 70] * 4, [1.5] * 4, ["1"] * 4, None]))


@st.composite
def documents(draw):
    name = draw(st.sampled_from(sorted(PROBLEMS)))
    problem = json.loads(json.dumps(PROBLEMS[name]))
    scheme = json.loads(json.dumps(SCHEMES.get(name, SCHEMES["example1"])))
    for _ in range(draw(st.integers(0, 3))):
        draw(problem_mutation(problem))
    for _ in range(draw(st.integers(0, 2))):
        draw(scheme_mutation(scheme))
    return json.dumps(problem), json.dumps(scheme)


def large_n(n: int) -> str:
    return json.dumps(dict(PROBLEMS["example1"], n=n))


def float_table(big) -> str:
    """A table holding a float and an exact value beyond the float range."""
    return json.dumps({"source": {"kind": "table", "m": 2, "entropies": {
        "1": 1.5, "2": 1, "1,2": big}}})


def large_scheme() -> str:
    return json.dumps({"kind": "scheme", "p": 5, "n": 2 ** 40, "unit": "F_5-symbols",
                       "coefficients": [{"rows": 0, "cols": 2 ** 41, "entries": []}] * 3})


def huge_integer_weight() -> str:
    """A 5000-digit weight, past Python's digit limit for int(); json.dumps
    refuses such an int too, so the literal is spliced into the text."""
    text = json.dumps(dict(PROBLEMS["example1"], weights=[0, 1, 1]))
    return text.replace('"weights": [0', '"weights": [' + "9" * 5000)


def rational_weight(raw: str) -> str:
    return json.dumps(dict(PROBLEMS["example1"], weights=[raw, 1, 1]))


def rational_entropy(raw: str) -> str:
    return json.dumps({"source": {"kind": "table", "m": 1, "entropies": {"1": raw}}})


def table_users(m: int) -> str:
    """A table of m users that names user m."""
    return json.dumps({"source": {"kind": "table", "m": m, "entropies": {str(m): 1}}})


# Numbers and user counts that once ended in a traceback or did not end.
OVERSIZED = {"integer-weight": huge_integer_weight(),
             "exponent-weight": rational_weight("1e100000000"),
             "exponent-entropy": rational_entropy("1e-100000000"),
             "users-20000": table_users(20000), "users-10^12": table_users(10 ** 12)}


def run_commands(docs: tuple[str, str]) -> dict:
    """The exit code of each command on the documents, run in the child."""
    done = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(docs),
                          env=child_env(), capture_output=True, text=True,
                          timeout=TIMEOUT, preexec_fn=limit_address_space)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    return json.loads(done.stdout)


@settings(max_examples=30, deadline=None)
@given(documents())
@example((large_n(2 ** 40), json.dumps(SCHEMES["example1"])))
@example((large_n(20000), json.dumps(SCHEMES["example1"])))
@example((large_n(2000), json.dumps(SCHEMES["example1"])))
@example((json.dumps(PROBLEMS["example1"]), large_scheme()))
@example((float_table(10 ** 400), json.dumps(SCHEMES["example1"])))
@example((float_table("1e400"), json.dumps(SCHEMES["example1"])))
@example((OVERSIZED["integer-weight"], json.dumps(SCHEMES["example1"])))
@example((OVERSIZED["exponent-weight"], json.dumps(SCHEMES["example1"])))
@example((OVERSIZED["exponent-entropy"], json.dumps(SCHEMES["example1"])))
@example((OVERSIZED["users-20000"], json.dumps(SCHEMES["example1"])))
@example((OVERSIZED["users-10^12"], json.dumps(SCHEMES["example1"])))
def test_mutated_documents_end_with_a_documented_exit_code(docs):
    for command, code in run_commands(docs).items():
        assert code in range(6), (command, code)


@pytest.mark.parametrize("name", OVERSIZED)
def test_oversized_numbers_and_user_counts_exit_2(name):
    codes = run_commands((OVERSIZED[name], json.dumps(SCHEMES["example1"])))
    assert codes == dict.fromkeys(codes, 2), codes
