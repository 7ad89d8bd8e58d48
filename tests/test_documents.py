import numpy as np
import pytest

from omniex import ValidationError
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
