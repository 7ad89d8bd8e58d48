"""The exact list ``sources.validate`` returns for each way a source built
through the library constructors can be unusable, in order, including
the checks after which it stops early."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from omniex import (
    DmmsSource,
    LinearSource,
    TableSource,
    make_dmms_source,
    make_linear_source,
    validate,
)
from omniex.field import MAX_MODULUS, is_prime

from conftest import example1_source

# The least prime the field kernel does not take.
LARGE_PRIME = next(q for q in itertools.count(MAX_MODULUS) if is_prime(q))
PRIME_MESSAGE = ("modulus {} is not a prime in [2, 2^61); extension fields are "
                 "unsupported, pick a prime p > m instead")


def _linear_over(p: int) -> LinearSource:
    """example1's matrices in a source that claims the modulus p."""
    return LinearSource(N=3, p=p, matrices=example1_source().matrices)


CASES = {
    # Linear sources.
    "linear-ok": (example1_source(), []),
    # A source with no users has no rank to check.
    "linear-no-users": (LinearSource(N=2, p=5, matrices=()), ["no users"]),
    "linear-non-prime": (_linear_over(4), [PRIME_MESSAGE.format(4)]),
    "linear-modulus-too-large": (_linear_over(LARGE_PRIME),
                                 [PRIME_MESSAGE.format(LARGE_PRIME)]),
    # The modulus check ends the list: no matrix is looked at after it.
    "linear-no-users-non-prime": (LinearSource(N=2, p=9, matrices=()),
                                  ["no users", PRIME_MESSAGE.format(9)]),
    "linear-columns": (
        make_linear_source([[[1, 0, 0]], [[0, 1]], [[1]]], p=5),
        ["user 2: matrix has 2 cols, expected N=3", "user 3: matrix has 1 cols, expected N=3"]),
    "linear-matrix-modulus": (
        LinearSource(N=2, p=5, matrices=(
            make_linear_source([[[1, 0]]], p=5).matrices[0],
            make_linear_source([[[0, 1, 1]]], p=7).matrices[0])),
        ["user 2: matrix has 3 cols, expected N=2", "user 2: matrix modulus 7 != 5"]),
    "linear-rank": (
        make_linear_source([[[1, 0, 0]], [[0, 1, 0]], [[1, 1, 0]]], p=5),
        ["collective observations do not determine W: stacked rank 2 < N = 3"]),
    # pmf sources.
    "pmf-ok": (make_dmms_source((2, 2), [[0.4, 0.3], [0.1, 0.2]]), []),
    "pmf-no-users": (DmmsSource(alphabets=(), pmf=np.array(1.0)), ["no users"]),
    "pmf-alphabet": (make_dmms_source((0, 2), np.zeros((0, 2))),
                     ["alphabet sizes must be >= 1", "pmf sums to 0.0, expected 1"]),
    # The shape check ends the list.
    "pmf-shape": (DmmsSource(alphabets=(2, 0), pmf=np.full((2, 3), 1 / 6)),
                  ["alphabet sizes must be >= 1",
                   "pmf table shape (2, 3) != alphabets (2, 0)"]),
    # The finiteness check ends the list: no sign or sum after it.
    "pmf-non-finite": (make_dmms_source((2, 2), [[math.nan, -1.0], [0.0, 0.0]]),
                       ["pmf has non-finite entries"]),
    "pmf-infinite": (make_dmms_source((2,), [math.inf, 0.5]),
                     ["pmf has non-finite entries"]),
    "pmf-negative": (make_dmms_source((2,), [-0.5, 1.5]), ["pmf has negative entries"]),
    "pmf-sum": (make_dmms_source((2, 2), [[0.4, 0.3], [0.1, 0.1]]),
                [f"pmf sums to {0.4 + 0.3 + 0.1 + 0.1!r}, expected 1"]),
    "pmf-negative-and-sum": (make_dmms_source((2,), [-0.5, 0.25]),
                             ["pmf has negative entries", "pmf sums to -0.25, expected 1"]),
    # Table sources.
    "table-ok": (TableSource(m=2, entries={1: 1, 2: 1, 3: 2}), []),
    "table-no-users": (TableSource(m=0, entries={}), ["no users"]),
    "table-no-users-empty-set": (TableSource(m=0, entries={0: 0}), ["no users"]),
    # The mask check ends the list: the least outside mask is named.
    "table-outside": (TableSource(m=2, entries={9: math.nan, 4: 1, 0: 7}),
                      ["entropy table has a mask outside the ground set: 0x4"]),
    "table-outside-negative": (TableSource(m=2, entries={1: 1, 2: 1, 3: 2, -1: 1}),
                               ["entropy table has a mask outside the ground set: -0x1"]),
    "table-no-users-outside": (TableSource(m=0, entries={1: 1}),
                               ["no users",
                                "entropy table has a mask outside the ground set: 0x1"]),
    "table-missing": (TableSource(m=2, entries={1: 1}), ["entropy table is missing 2 subsets"]),
    "table-missing-with-empty-set": (TableSource(m=3, entries={0: 0, 1: 1, 7: 1}),
                                     ["entropy table is missing 5 subsets"]),
    "table-non-finite": (TableSource(m=2, entries={1: 1.0, 2: math.inf, 3: 2.0}),
                         ["entropy table has non-finite entries"]),
    "table-empty-set": (TableSource(m=2, entries={0: 1, 1: 1, 2: 1, 3: 2}),
                        ["entropy of the empty set must be 0, got 1"]),
    "table-empty-set-fraction": (
        TableSource(m=1, entries={0: Fraction(1, 3), 1: 1}),
        ["entropy of the empty set must be 0, got 1/3"]),
    # Only the first value beyond the float range, by mask, is named.
    "table-float-range": (
        TableSource(m=2, entries={3: 10 ** 400, 1: 1.5, 2: Fraction(10 ** 400)}),
        ["entropy of subset {2} is beyond the float range, in a table compared in floats"]),
    # An exact table is compared exactly, whatever the size of its values.
    "table-exact-large": (TableSource(m=2, entries={1: 1, 2: 1, 3: 10 ** 400}), []),
    "table-all": (
        TableSource(m=2, entries={0: 0.5, 1: math.nan, 3: 10 ** 400}),
        ["entropy table is missing 1 subsets", "entropy table has non-finite entries",
         "entropy of the empty set must be 0, got 0.5",
         "entropy of subset {1,2} is beyond the float range, in a table compared in floats"]),
    # Anything else.
    "unknown": (object(), ["unknown source type object"]),
    "unknown-dict": ({"kind": "table"}, ["unknown source type dict"]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_validate_returns_the_exact_list(name):
    source, expected = CASES[name]
    assert validate(source) == expected
    # A second call returns the same list, and a new one: the caller may
    # change it without changing what the next caller is told.
    again = validate(source)
    assert again == expected
    again.append("changed")
    assert validate(source) == expected
