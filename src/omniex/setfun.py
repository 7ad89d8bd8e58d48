"""Set functions over a ground set {0, .., m-1} encoded as bitmasks.

Provides the mask helpers, the ``SetFunction`` wrapper, the value
comparisons under the tolerance DELTA, and the check of cost vectors and
the order by weight that the greedy sweep of ``rates`` uses.  The brute-force
checks over set functions, and the submask enumeration they use, live in
``omniex.reference``.

Values are either exact (int / fractions.Fraction) or floats.  Exact
values are never silently converted; float comparisons use the module
tolerance DELTA.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence, Union

from .errors import InvalidN, NegativeWeight

Value = Union[int, Fraction, float]

DELTA = 1e-9


def value_eq(a: Value, b: Value, exact: bool = True) -> bool:
    return a == b if exact else abs(a - b) <= DELTA


def value_le(a: Value, b: Value, exact: bool = True) -> bool:
    return a <= b if exact else a <= b + DELTA


def value_lt(a: Value, b: Value, exact: bool = True) -> bool:
    return a < b if exact else a < b - DELTA


def bit(i: int) -> int:
    return 1 << i


def members(mask: int) -> tuple[int, ...]:
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def label(mask: int) -> str:
    """The subset as users number it, from 1: ``{1,3}`` for mask 0b101."""
    return "{" + ",".join(str(u + 1) for u in members(mask)) + "}"


def check_mask(mask: int, m: int) -> int:
    """``mask``, refused unless it is a subset of the ground set {0, .., m-1}."""
    if mask < 0 or mask >> m:
        raise ValueError(f"mask {mask:#x} uses bits outside the ground set")
    return mask


class SetFunction:
    """Wraps a pure map subset-mask -> Value with f(empty) = 0.

    The ground set is {0, .., m-1}; subsets are bitmasks over the low m
    bits, and ``check`` refuses any other mask.
    """

    __slots__ = ("m", "full_mask", "exact", "_fn")

    def __init__(self, m: int, fn: Callable[[int], Value], exact: bool = True):
        if not 1 <= m <= 62:
            raise ValueError(f"ground set size must be in [1, 62], got {m}")
        self.m = m
        self.full_mask = (1 << m) - 1
        self.exact = exact
        self._fn = fn
        z = fn(0)
        if not value_eq(z, 0, exact):
            raise ValueError(f"set function must satisfy f(empty)=0, got {z}")

    def check(self, mask: int) -> int:
        return check_mask(mask, self.m)

    def __call__(self, mask: int) -> Value:
        return self._fn(self.check(mask))


def check_costs(alpha: Sequence[Value], m: int) -> tuple[Value, ...]:
    if len(alpha) != m:
        raise NegativeWeight(f"cost vector has {len(alpha)} entries, expected {m}")
    out = []
    for i, a in enumerate(alpha):
        if isinstance(a, float) and (a != a or a in (float("inf"), float("-inf"))):
            raise NegativeWeight(f"alpha[{i}] = {a} is not finite")
        if a < 0:
            raise NegativeWeight(f"alpha[{i}] = {a} is negative")
        out.append(a)
    return tuple(out)


def check_n(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise InvalidN(f"block length n must be a positive integer, got {n!r}")


def order_by_weight(alpha: Sequence[Value]) -> tuple[int, ...]:
    """Users by ascending weight; ties broken by ascending user index."""
    return tuple(sorted(range(len(alpha)), key=lambda i: (alpha[i], i)))
