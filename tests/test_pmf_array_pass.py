"""Plain pmf documents, as the benchmark and the golden corpus write them,
are parsed by the array pass alone.

Plain means decimal keys and int or float probabilities, each outcome
listed once.  The per-entry read is patched to raise, so a plain chunk
that falls back to it fails the test: a deterministic guard on the parse
cost of the pmf traffic.  ``tests/test_documents.py`` gates the bytes
and messages of both paths.
"""

import itertools
import json

import numpy as np
import pytest

from omniex import documents

from test_documents import assert_same_parse


def refuse(*args):
    raise AssertionError("a plain chunk was read entry by entry")


@pytest.mark.parametrize("alphabets", [(2,) * 11, (3,) * 8], ids=["2^11", "3^8"])
@pytest.mark.parametrize("int_zeros", [False, True], ids=["floats", "int-zeros"])
def test_plain_documents_take_the_array_pass(monkeypatch, alphabets, int_zeros):
    probs = np.random.RandomState(len(alphabets)).random_sample(alphabets)
    probs[probs < 0.5] = 0.0
    probs /= probs.sum()
    flat = probs.reshape(-1).tolist()
    if int_zeros:
        flat = [0 if p == 0.0 else p for p in flat]
    keys = (",".join(map(str, o)) for o in itertools.product(*map(range, alphabets)))
    doc = json.loads(json.dumps({"alphabets": list(alphabets),
                                 "entries": dict(zip(keys, flat))}))
    monkeypatch.setattr(documents, "_read_entries", refuse)
    table = documents._parse_pmf(doc, "$.source").pmf
    assert table.tobytes() == probs.tobytes()


@pytest.mark.parametrize("entries", [
    {"0;1": 0.5, "1,1": 0.5},     # a separator other than a comma
    {"0x1": 0.5, "1,1": 0.5},
    {"1": 0.5, "0,0,1": 0.5},     # the right count of symbols, split unevenly
    {"0,0": 0.5, "1,0,0": 0.25, "1": 0.25},
], ids=["semicolon", "letter", "uneven", "uneven-later"])
def test_keys_that_only_look_plain_parse_as_the_reference(entries):
    assert_same_parse([2, 2], entries)
