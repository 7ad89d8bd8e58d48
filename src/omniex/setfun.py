"""Set functions over a ground set {0, .., m-1} encoded as bitmasks.

Provides the mask helpers, the ``SetFunction`` wrapper, the value
comparisons under the tolerance DELTA, and the validation and ordering of
cost vectors that the greedy sweep of ``rates`` uses.  The brute-force
checks over set functions live in ``omniex.reference``.

Values are either exact (int / fractions.Fraction) or floats.  Exact
values are never silently converted; float comparisons use the module
tolerance DELTA.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence, Union

from .errors import NegativeWeight

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
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@dataclass(frozen=True)
class GroundSet:
    """Ground set {0, .., m-1}; subsets are bitmasks over the low m bits."""

    m: int

    def __post_init__(self):
        if not 1 <= self.m <= 62:
            raise ValueError(f"ground set size must be in [1, 62], got {self.m}")

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    def subsets(self, include_empty: bool = True) -> Iterator[int]:
        start = 0 if include_empty else 1
        for s in range(start, 1 << self.m):
            yield s

    def check(self, mask: int) -> int:
        if mask < 0 or mask & ~self.full_mask:
            raise ValueError(f"mask {mask:#x} uses bits outside the ground set")
        return mask


class SetFunction:
    """Wraps a pure map subset-mask -> Value with f(empty) = 0."""

    __slots__ = ("ground", "exact", "_fn")

    def __init__(self, m: int, fn: Callable[[int], Value], exact: bool = True):
        self.ground = GroundSet(m)
        self.exact = exact
        self._fn = fn
        z = fn(0)
        if not value_eq(z, 0, exact):
            raise ValueError(f"set function must satisfy f(empty)=0, got {z}")

    @property
    def m(self) -> int:
        return self.ground.m

    @property
    def full_mask(self) -> int:
        return self.ground.full_mask

    def __call__(self, mask: int) -> Value:
        return self._fn(self.ground.check(mask))


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


def order_by_weight(alpha: Sequence[Value], descending: bool) -> tuple[int, ...]:
    """Ordering of users by weight; ties broken by ascending user index."""
    idx = range(len(alpha))
    if descending:
        return tuple(sorted(idx, key=lambda i: (-alpha[i], i)))
    return tuple(sorted(idx, key=lambda i: (alpha[i], i)))
