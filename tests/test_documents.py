import itertools
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omniex import ValidationError, documents
from omniex.cli import main
from omniex.documents import parse_problem


def pmf(alphabets, entries) -> dict:
    return {"source": {"kind": "pmf", "alphabets": alphabets, "entries": entries}}


def parse_error(doc) -> str:
    with pytest.raises(ValidationError) as info:
        parse_problem(doc)
    return str(info.value)


@pytest.mark.parametrize("alphabets", [[], [2, 0], [2, True], [2, 1.0], "2,2", None])
def test_pmf_alphabets_must_be_positive_integers(alphabets):
    message = parse_error(pmf(alphabets, {}))
    assert message == "$.source.alphabets: expected positive integers"


@pytest.mark.parametrize("entries", [[["0,0", 1.0]], "0,0", None])
def test_pmf_entries_must_be_a_map(entries):
    message = parse_error(pmf([2, 2], entries))
    assert message == "$.source.entries: expected an outcome->probability map"


@pytest.mark.parametrize("key", ["0", "0,0,0", "", "0,,1,0"])
def test_pmf_outcome_needs_one_symbol_per_user(key):
    message = parse_error(pmf([2, 2], {"0,0": 0.5, key: 0.5}))
    assert message == f"$.source.entries[{key!r}]: outcome needs 2 symbols"


@pytest.mark.parametrize("key", ["0,x", "0,", "0.0,1", "1,0x1"])
def test_pmf_outcome_symbols_must_be_integers(key):
    message = parse_error(pmf([2, 2], {key: 1.0}))
    assert message == f"$.source.entries[{key!r}]: outcome symbols must be integers"


@pytest.mark.parametrize("key", ["2,0", "0,-1", "-0,3"])
def test_pmf_outcome_must_lie_in_the_alphabets(key):
    message = parse_error(pmf([2, 3], {"0,0": 0.5, key: 0.5}))
    assert message == f"$.source.entries[{key!r}]: outcome outside the alphabets"


@pytest.mark.parametrize("prob", ["0.5", None, True, [0.5]])
def test_pmf_probability_must_be_a_number(prob):
    message = parse_error(pmf([2, 2], {"0,0": 0.5, "1,1": prob}))
    assert message == "$.source.entries['1,1']: probability must be a number"


def test_pmf_probability_beyond_the_float_range_is_refused():
    for prob in (10 ** 400, -(10 ** 400)):
        message = parse_error(pmf([2, 2], {"0,0": 0.5, "1,1": prob}))
        assert message == "$.source.entries['1,1']: probability out of the float range"


def test_pmf_checks_run_in_order():
    # One entry breaking several rules reports the first of: symbol count,
    # integer symbols, range, probability type; entries go in map order.
    cases = [
        ({"x,y,z": "p"}, "outcome needs 2 symbols"),
        ({"x,9": "p"}, "outcome symbols must be integers"),
        ({"9,0": "p"}, "outcome outside the alphabets"),
        ({"0,0": "p", "x": 1.0}, "probability must be a number"),
    ]
    for entries, tail in cases:
        assert parse_error(pmf([2, 2], entries)).endswith(tail)


def test_pmf_parse_fills_the_table():
    # Symbols go through int(), so signs, spaces and underscores parse as
    # they always have; absent outcomes are zero; integer probabilities count.
    doc = pmf([2, 3, 1], {"1, 2,0": 0.25, "+0,0,-0": 0.5, "0,1,0": 0,
                          "1,0_0,0": 0.25})
    table = parse_problem(doc).source.pmf
    want = np.zeros((2, 3, 1))
    want[1, 2, 0], want[0, 0, 0], want[1, 0, 0] = 0.25, 0.5, 0.25
    assert table.dtype == np.float64
    assert np.array_equal(table, want)


def table(m, entropies) -> dict:
    return {"source": {"kind": "table", "m": m, "entropies": entropies}}


@pytest.mark.parametrize("key", ["x", "1,a", "1.0", "1;2"])
def test_table_subset_must_list_user_indices(key):
    message = parse_error(table(2, {"1": 1, key: 1}))
    assert message == f"$.source.entropies[{key!r}]: subset must list user indices"


@pytest.mark.parametrize("key", ["0", "3", "1,-1", "2,,3"])
def test_table_user_indices_must_lie_in_range(key):
    message = parse_error(table(2, {"1": 1, key: 1}))
    assert message == f"$.source.entropies[{key!r}]: user index outside 1..2"


def test_table_entropy_must_not_be_a_boolean():
    message = parse_error(table(2, {"1": 1, "2": True}))
    assert message == "$.source.entropies['2']: expected a number, got a boolean"


@pytest.mark.parametrize("raw", ["abc", "1/0", ""])
def test_table_entropy_string_must_be_a_rational(raw):
    try:
        Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        reason = str(exc)
    message = parse_error(table(2, {"1": 1, "2": raw}))
    assert message == f"$.source.entropies['2']: invalid rational {raw!r} ({reason})"


@pytest.mark.parametrize("raw", ["1e4301", "1e-4301", "2.5E+100000000", "1e1_0000_0000",
                                 "1e\u0665\u0660\u0660\u0660"])
def test_rational_exponents_beyond_4300_are_refused(raw):
    # Fraction would compute 10 ** exponent, which for 1e100000000 does not end.
    message = parse_error(table(2, {"1": 1, "2": raw}))
    assert message == f"$.source.entropies['2']: exponent of {raw!r} is beyond 4300"


def test_rational_exponents_up_to_4300_are_read():
    assert documents.parse_value("1e4300", "$") == 10 ** 4300
    assert documents.parse_value("-1.5e-4300", "$") == Fraction(-15, 10 ** 4301)
    assert documents.parse_value("1e0000000000000000002", "$") == 100


def test_table_with_more_than_62_users_is_refused():
    assert parse_error(table(63, {"1": 1})) == "$.source.m: expected at most 62 users, got 63"
    assert "entropy table is missing 4611686018427387902 subsets" in parse_error(
        table(62, {"1": 1}))


@pytest.mark.parametrize("raw", [None, [1], {"v": 1}])
def test_table_entropy_must_be_a_number_or_rational_string(raw):
    message = parse_error(table(2, {"1": 1, "2": raw}))
    assert message == "$.source.entropies['2']: expected a number or rational string"


def test_table_checks_run_in_order():
    # Subset syntax, then the user range, then the value; entries in map order.
    cases = [
        ({"x,9": True}, "['x,9']: subset must list user indices"),
        ({"9": True}, "['9']: user index outside 1..2"),
        ({"1": None, "x": 1}, "['1']: expected a number or rational string"),
    ]
    for entropies, tail in cases:
        assert parse_error(table(2, entropies)).endswith(tail)


def test_table_subset_listed_twice_is_refused():
    # "2,1" names the subset of "1,2".
    doc = table(2, {"1": 1, "2": 1, "1,2": 2, "2,1": 5})
    assert parse_error(doc) == "$.source.entropies['2,1']: subset listed twice"
    # After the user range, before the value; blank keys name the empty set.
    cases = [
        ({"1": 1, "1,1": None}, "['1,1']: subset listed twice"),
        ({"1": 1, "3": None, " 1": 1}, "['3']: user index outside 1..2"),
        ({"": 0, " ": True}, "[' ']: subset listed twice"),
    ]
    for entropies, tail in cases:
        assert parse_error(table(2, entropies)).endswith(tail)


def test_table_subset_listed_twice_exits_2(capsys, tmp_path):
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(table(2, {"1": 1, "2": 1, "1,2": 2, "2,1": 5})))
    code = main(["rates", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"{path}.source.entropies['2,1']: subset listed twice" in captured.err
    assert "Traceback" not in captured.err


def test_table_parse_reads_subsets_and_values():
    # Blank parts are skipped and a user may repeat; the values keep their kind.
    doc = table(2, {"": 0, " 1 ": "1/2", "2,": 1, "2, 1,1": 1.5})
    assert parse_problem(doc).source.entries == {0: 0, 1: Fraction(1, 2), 2: 1, 3: 1.5}


def test_pmf_long_symbols_read_exactly():
    # Symbols past 18 digits are read by int(), never folded in int64 where
    # 2^64 + 1 would wrap round to 1.
    padded = "0" * 30 + "1"
    table = parse_problem(pmf([2, 2], {f"0,{padded}": 0.5, f"{padded},0": 0.5})).source.pmf
    assert table.tolist() == [[0.0, 0.5], [0.5, 0.0]]
    for key in (f"0,{2 ** 64 + 1}", f"{2 ** 64},0", f"0,{10 ** 19}", f"0,{'9' * 19}"):
        message = parse_error(pmf([2, 2], {"0,0": 0.5, key: 0.5}))
        assert message == f"$.source.entries[{key!r}]: outcome outside the alphabets"


def test_pmf_outcome_listed_twice_is_refused():
    # "00,0" names the outcome of "0,0"; it used to overwrite it silently.
    doc = pmf([2, 2], {"0,0": 0.5, "00,0": 0.5, "1,1": 0.5})
    assert parse_error(doc) == "$.source.entries['00,0']: outcome listed twice"
    # After the range check, before the probability checks.
    cases = [
        ({"0,1": 0.5, "+0, 1": "p"}, "['+0, 1']: outcome listed twice"),
        ({"0,1": 0.5, "0,2": "p", "0,01": 0.5}, "['0,2']: outcome outside the alphabets"),
        ({"0,1": 0.5, "0,001": 10 ** 400}, "['0,001']: outcome listed twice"),
    ]
    for entries, tail in cases:
        assert parse_error(pmf([2, 2], entries)).endswith(tail)


def test_pmf_outcome_listed_twice_exits_2(capsys, tmp_path):
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(pmf([2, 2], {"0,0": 0.5, "00,0": 0.5, "1,1": 0.5})))
    code = main(["rates", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"{path}.source.entries['00,0']: outcome listed twice" in captured.err
    assert "Traceback" not in captured.err


# The per-entry parse that the bulk one in ``documents._parse_pmf`` replaced,
# kept as its reference, with the listed-twice refusal added: the table, or
# the message of the first failing check of the first failing entry.
def reference_pmf_table(alphabets, entries, where="$.source"):
    table = np.zeros(alphabets, dtype=float)
    users = len(alphabets)
    seen = set()
    for key, prob in entries.items():
        kwhere = f"{where}.entries[{key!r}]"
        parts = key.split(",")
        if len(parts) != users:
            return f"{kwhere}: outcome needs {users} symbols"
        try:
            idx = tuple(map(int, parts))
        except ValueError:
            return f"{kwhere}: outcome symbols must be integers"
        for x, a in zip(idx, alphabets):
            if not 0 <= x < a:
                return f"{kwhere}: outcome outside the alphabets"
        if idx in seen:
            return f"{kwhere}: outcome listed twice"
        seen.add(idx)
        if not isinstance(prob, (int, float)) or isinstance(prob, bool):
            return f"{kwhere}: probability must be a number"
        try:
            table[idx] = float(prob)
        except OverflowError:
            return f"{kwhere}: probability out of the float range"
    return table


def bulk_pmf_table(alphabets, entries, where="$.source"):
    try:
        source = documents._parse_pmf(
            {"alphabets": alphabets, "entries": entries}, where)
    except ValidationError as exc:
        return str(exc)
    return source.pmf


def assert_same_parse(alphabets, entries):
    want = reference_pmf_table(alphabets, entries)
    got = bulk_pmf_table(alphabets, entries)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


DIGIT_SETS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "߀߁߂߃߄߅߆߇߈߉")
JUNK_SYMBOLS = ("", "x", "1.0", "_1", "1_", "1__0", "0x1", "--1", "+-1", "1 2",
                "٣x", ",", ";", "\ud800", "9" * 19, "1" * 25, "1" * 5000)
FLOAT_EDGE = 2 ** 1024 - 2 ** 970
ODD_PROBABILITIES = (True, False, None, "0.5", [0.5], {}, 10 ** 400, -(10 ** 400),
                     FLOAT_EDGE, FLOAT_EDGE - 1, -FLOAT_EDGE, 1 - FLOAT_EDGE,
                     np.float64(0.25), 2 ** 63, -(2 ** 70))


@st.composite
def symbols(draw, value):
    digits = str(abs(value))
    form = draw(st.integers(0, 6))
    if form == 1:
        digits = "0" * draw(st.integers(1, 30)) + digits
    elif form == 2:
        font = draw(st.sampled_from(DIGIT_SETS))
        digits = "".join(font[int(c)] for c in digits)
    elif form == 3 and len(digits) > 1:
        digits = f"{digits[0]}_{digits[1:]}"
    elif form == 4:
        return draw(st.sampled_from(JUNK_SYMBOLS))
    sign = "-" if value < 0 else draw(st.sampled_from(["", "", "+", "-"]))
    pad = draw(st.sampled_from(["", "", "", " ", "\t", "　"]))
    return pad + sign + digits + pad


@st.composite
def outcome_keys(draw, alphabets):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=6))
    users = len(alphabets) + draw(st.sampled_from([0] * 8 + [-1, 1]))
    values = [draw(st.integers(-1, alphabets[u % len(alphabets)]))
              for u in range(max(users, 0))]
    return ",".join([draw(symbols(v)) for v in values])


def probabilities():
    return st.one_of(st.floats(0, 1), st.floats(0, 1), st.floats(),
                     st.integers(-3, 3), st.integers(),
                     st.sampled_from(ODD_PROBABILITIES))


@st.composite
def pmf_documents(draw):
    alphabets = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    entries = draw(st.dictionaries(outcome_keys(alphabets), probabilities(),
                                   max_size=12))
    return alphabets, entries


@settings(max_examples=400, deadline=None)
@given(pmf_documents(), st.sampled_from([1, 2, 3, documents._PMF_CHUNK]))
def test_bulk_pmf_parse_matches_the_per_entry_parse(document, chunk):
    # Small chunks split even these documents, so the checks across chunk
    # edges (a repeat of an earlier chunk's outcome) are exercised too.
    alphabets, entries = document
    with mock.patch.object(documents, "_PMF_CHUNK", chunk):
        assert_same_parse(alphabets, entries)


@given(st.lists(st.integers(1, 3), min_size=1, max_size=5), st.data())
@settings(max_examples=100, deadline=None)
def test_bulk_pmf_parse_of_valid_documents(alphabets, data):
    # Every document here parses: outcomes listed once each, in any spelling
    # int() takes, with floats and ints.
    outcomes = list(itertools.product(*map(range, alphabets)))
    picked = data.draw(st.lists(st.sampled_from(outcomes), unique=True))
    entries = {}
    for outcome in picked:
        key = ",".join(data.draw(symbols(v).filter(spelling_of(v))) for v in outcome)
        entries[key] = data.draw(st.one_of(st.floats(), st.integers(-3, 3)))
    assert not isinstance(bulk_pmf_table(alphabets, entries), str)
    assert_same_parse(alphabets, entries)


def spelling_of(value: int):
    def reads_as_value(token: str) -> bool:
        try:
            return int(token) == value
        except ValueError:
            return False
    return reads_as_value


def test_pmf_parse_of_documents_larger_than_one_chunk():
    chunk = documents._PMF_CHUNK
    outcomes = [",".join(map(str, o)) for o in itertools.product(range(3), repeat=8)]
    assert len(outcomes) > 3 * chunk
    rng = np.random.RandomState(9)
    probs = rng.random_sample(len(outcomes))
    entries = dict(zip(outcomes, (probs / probs.sum()).tolist()))
    assert_same_parse([3] * 8, entries)
    assert parse_problem(pmf([3] * 8, entries)).source.pmf.reshape(-1).tolist() == \
        list(entries.values())
    # A repeat of an outcome of the first chunk three chunks later, and a
    # bad probability one chunk before it: the earlier failure is reported.
    twice = dict(entries)
    twice["0" + outcomes[5]] = 0.0
    assert_same_parse([3] * 8, twice)
    assert parse_error(pmf([3] * 8, twice)).endswith(
        f"[{'0' + outcomes[5]!r}]: outcome listed twice")
    twice[outcomes[2 * chunk + 7]] = "p"
    assert_same_parse([3] * 8, twice)
    assert parse_error(pmf([3] * 8, twice)).endswith(
        f"[{outcomes[2 * chunk + 7]!r}]: probability must be a number")
