"""Entropy oracles for the two side-information models.

A linear source gives each user a matrix slice of a uniform packet vector
over F_p; its subset entropies are matrix ranks, measured in F_p-symbols
and computed exactly.  A general discrete memoryless source is described
by an explicit joint pmf table; entropies are floats in bits.  A raw
entropy table is also accepted, mainly for diagnostics: it lets the
selfcheck command exercise a hand-edited (possibly non-submodular) "H".

Each source class computes its own ``unit``, ``exact``, one subset's
entropy and the table of every subset.  A ``LinearSource`` packs each
user's rows once, and every rank adds them to a ``field.RowSpace``, most
rows first, up to rank N: one row space per lazy query, and for the table
one depth-first pass that extends parents' spaces.  A ``DmmsSource``
computes every nonempty subset in one batch of numpy gathers, whose values
equal the per-mask ``pmf.sum(axis=drop)`` marginals bit for bit, and one
subset through the same kernel.  A ``TableSource`` reads its entries.

``EntropyOracle`` memoizes any of them per subset mask: lazily in a dict,
then as one array indexed by mask once every subset is known (``array``):
int64 for ints such as linear ranks, float64 for floats such as pmf
entropies, and dtype object for Fractions, mixed kinds and ints of 2^62
or more.  The sweep and the feasibility check read that array with
whole-array gathers.  ``array``, the one way to the table, refuses more
than ``TABLE_CAP`` users before any work, then copies a memo that holds
every subset, for every kind, or asks the source for its table.
Evaluation is pure, every table holds the values a lazy query computes,
and the array replaces the dict only once it is complete, so readers
never see a partial table and the cache is safe to share between them.
``entropy``, ``calls`` and ``oracle_queries`` mean the same on either
memo, and values leave the array as Python numbers.  ``violations`` tests
the array for an entropy function (monotone and submodular) in one
comparison per user and one per pair of users, each over the whole array.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from . import field as ff
from .errors import TooLarge, UnitMismatch, ValidationError
from .setfun import DELTA, SetFunction, Value, bit, check_mask, label, members, value_le

UNIT_BITS = "bits"

# Integers below this in size are kept in int64 arrays; sums of two such
# values and differences of them never overflow.
INT64_SAFE = 1 << 62

# The most users whose table of all 2^m subset entropies is built.
TABLE_CAP = 22


@dataclass(frozen=True)
class LinearSource:
    """Users observe A_i @ W for a uniform packet vector W in F_p^N."""

    N: int
    p: int
    matrices: tuple[ff.FieldMatrix, ...]
    exact = True

    @property
    def m(self) -> int:
        return len(self.matrices)

    @property
    def unit(self) -> str:
        return f"F_{self.p}-symbols"

    def stacked(self, mask: int) -> ff.FieldMatrix:
        return ff.stack([self.matrices[i] for i in members(mask)],
                        cols=self.N, p=self.p)

    @cached_property
    def _packed(self) -> tuple[tuple[int, list[int]], ...]:
        """(u, user u's rows packed once for a ``RowSpace`` of N columns),
        users with more rows first, ties in index order, as ranks add them."""
        space = ff.RowSpace(self.N, self.p)
        order = sorted(range(self.m), key=lambda u: -self.matrices[u].rows)
        return tuple((u, space.pack_rows(self.matrices[u])) for u in order)

    def _rank(self, mask: int) -> int:
        """Rank of the users in ``mask``, added to one row space up to N."""
        space = ff.RowSpace(self.N, self.p)
        for u, rows in self._packed:
            if mask >> u & 1 and space.rank < self.N:
                space.extend_packed(rows)
        return space.rank

    @cached_property
    def _full_rank(self) -> int:
        """Rank of all users' rows, eliminated once per source: validation
        and the oracle's H(X_M) both read it."""
        return self._rank((1 << self.m) - 1)

    def _entropy(self, mask: int) -> int:
        return self._full_rank if mask == (1 << self.m) - 1 else self._rank(mask)

    def _array(self) -> np.ndarray:
        """The rank of every subset, as a new table.

        One depth-first pass over the subsets, with the users taken in
        order of descending row count (ties in index order): a child subset
        adds one user's rows, packed once per source, to a copy of its
        parent's row space, so at most m + 1 row spaces are alive at a
        time.  Users with many rows are thus reduced near the root, against
        small row spaces, and row spaces reach rank N sooner.  The table
        starts at N and the pass writes only the ranks below it: the pass
        reaches each subset along exactly one path, so it does not descend
        below a row space of rank N, and every superset there keeps N, its
        rank.  The values are those ``_entropy`` computes.
        """
        m, n_packets, packed = self.m, self.N, self._packed
        table = np.full(1 << m, n_packets, dtype=np.int64)
        table[0] = 0
        ranks = memoryview(table)

        def visit(space: ff.RowSpace, mask: int, start: int) -> None:
            for d in range(start, m):
                u, rows = packed[d]
                child = space.copy()
                child.extend_packed(rows)
                if child.rank < n_packets:
                    grown = mask | bit(u)
                    ranks[grown] = child.rank
                    if d + 1 < m:
                        visit(child, grown, d + 1)

        visit(ff.RowSpace(n_packets, self.p), 0, 0)
        return table


@dataclass(frozen=True)
class DmmsSource:
    """Joint pmf over a finite product alphabet; probabilities are floats."""

    alphabets: tuple[int, ...]
    pmf: np.ndarray
    unit = UNIT_BITS
    exact = False

    @property
    def m(self) -> int:
        return len(self.alphabets)

    @cached_property
    def _marginals(self) -> _PmfMarginals:
        return _PmfMarginals(self.pmf)

    def _entropy(self, mask: int) -> float:
        return self._marginals.entropies([mask])[0]

    def _array(self) -> np.ndarray:
        """Every nonempty subset in one batch, into a float64 array."""
        table = np.zeros(1 << self.m)
        table[1:] = self._marginals.entropies(range(1, 1 << self.m))
        return table


@dataclass(frozen=True)
class TableSource:
    """Explicit subset-entropy table, keyed by bitmask over m users."""

    m: int
    entries: dict[int, Value]
    unit: str = UNIT_BITS

    @property
    def exact(self) -> bool:
        return all(not isinstance(v, float) for v in self.entries.values())

    def _entropy(self, mask: int) -> Value:
        return self.entries[mask]

    def _array(self) -> np.ndarray:
        return _full_array(self.entries, self.m, self.exact)


def _full_array(values: dict[int, Value], m: int, exact: bool) -> np.ndarray:
    """The table of a map holding every nonempty subset of m users: int64
    when every value is an int below ``INT64_SAFE`` in size, float64 when
    every value is a float, and dtype object otherwise (Fractions, mixed
    kinds, larger ints), so that every value reads back as it was."""
    table = [0 if exact else 0.0, *map(values.__getitem__, range(1, 1 << m))]
    kinds = set(map(type, table))
    if kinds == {int} and max(map(abs, table)) < INT64_SAFE:
        return np.array(table, dtype=np.int64)
    if kinds == {float}:
        return np.array(table, dtype=np.float64)
    return np.array(table, dtype=object)


Source = Union[LinearSource, DmmsSource, TableSource]


def make_linear_source(matrices, p: int, N: Optional[int] = None) -> LinearSource:
    mats = []
    for rows in matrices:
        if isinstance(rows, ff.FieldMatrix):
            mats.append(rows)
        else:
            mats.append(ff.FieldMatrix.from_rows(rows, p, cols=N))
    if N is None:
        if not mats:
            raise ValidationError("linear source needs at least one user")
        N = mats[0].cols
    return LinearSource(N=N, p=p, matrices=tuple(mats))


def make_dmms_source(alphabets, pmf) -> DmmsSource:
    alphabets = tuple(int(a) for a in alphabets)
    table = np.ascontiguousarray(pmf, dtype=float)
    if table.shape != alphabets:
        table = table.reshape(alphabets)
    return DmmsSource(alphabets=alphabets, pmf=table)


def validate(source: Source) -> list[str]:
    """Return a list of violations; empty means the source is usable."""
    problems: list[str] = []
    if isinstance(source, LinearSource):
        if source.m < 1:
            problems.append("no users")
        if not ff.is_prime(source.p) or not 2 <= source.p < ff.MAX_MODULUS:
            problems.append(
                f"modulus {source.p} is not a prime in [2, 2^61); extension "
                f"fields are unsupported, pick a prime p > m instead")
            return problems
        for i, a in enumerate(source.matrices):
            if a.cols != source.N:
                problems.append(f"user {i + 1}: matrix has {a.cols} cols, expected N={source.N}")
            if a.p != source.p:
                problems.append(f"user {i + 1}: matrix modulus {a.p} != {source.p}")
        if not problems:
            r = source._full_rank
            if r != source.N:
                problems.append(
                    f"collective observations do not determine W: "
                    f"stacked rank {r} < N = {source.N}")
    elif isinstance(source, DmmsSource):
        if len(source.alphabets) < 1:
            problems.append("no users")
        if any(a < 1 for a in source.alphabets):
            problems.append("alphabet sizes must be >= 1")
        if source.pmf.shape != source.alphabets:
            problems.append(
                f"pmf table shape {source.pmf.shape} != alphabets {source.alphabets}")
            return problems
        if not np.isfinite(source.pmf).all():
            problems.append("pmf has non-finite entries")
            return problems
        if float(source.pmf.min(initial=0.0)) < -DELTA:
            problems.append("pmf has negative entries")
        total = float(source.pmf.sum())
        if abs(total - 1.0) > 1e-6:
            problems.append(f"pmf sums to {total!r}, expected 1")
    elif isinstance(source, TableSource):
        if source.m < 1:
            problems.append("no users")
        full = (1 << source.m) - 1
        outside = sorted(s for s in source.entries if not 0 <= s <= full)
        if outside:
            problems.append(f"entropy table has a mask outside the ground set: "
                            f"{outside[0]:#x}")
            return problems
        missing = full - sum(1 for s in source.entries if 0 < s <= full)
        if missing:
            problems.append(f"entropy table is missing {missing} subsets")
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in source.entries.values()):
            problems.append("entropy table has non-finite entries")
        zero = source.entries.get(0, 0)
        if zero != 0:
            problems.append(f"entropy of the empty set must be 0, got {zero}")
        if not source.exact:
            # A table holding a float is compared in floats.
            for mask in sorted(source.entries):
                try:
                    float(source.entries[mask])
                except OverflowError:
                    problems.append(
                        f"entropy of subset {label(mask)} is beyond the float "
                        f"range, in a table compared in floats")
                    break
    else:
        problems.append(f"unknown source type {type(source).__name__}")
    return problems


class EntropyOracle:
    """Uniform interface answering H(X_S) for subset masks S.

    ``unit`` labels the measurement unit and is propagated to every rate
    quantity derived from the oracle; ``exact`` tells whether values are
    exact rationals (linear sources) or tolerance-compared floats.
    ``calls`` is a plain counter whose ``+=`` may lose increments between
    threads sharing the oracle; the values and the memo are unaffected.
    ``int64_peak`` is max |H(X_S)| over an int64 table, set when ``array``
    builds it, and None before that or for a table of any other dtype.
    """

    __slots__ = ("source", "m", "unit", "exact", "_cache", "_table", "calls", "int64_peak")

    def __init__(self, source: Source):
        problems = validate(source)
        if problems:
            raise ValidationError("; ".join(problems))
        self.source = source
        self.m = source.m
        self.unit = source.unit
        self.exact = source.exact
        self._cache: dict[int, Value] = {}
        self._table: Optional[np.ndarray] = None
        self.int64_peak: Optional[int] = None
        self.calls = 0

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    def entropy(self, mask: int) -> Value:
        check_mask(mask, self.m)
        self.calls += 1
        table = self._table
        if table is not None:
            return table.item(mask)
        if mask == 0:
            return 0 if self.exact else 0.0
        cached = self._cache.get(mask)
        if cached is not None:
            return cached
        value = self._compute(mask)
        self._cache[mask] = value
        return value

    def entropies(self, masks: Sequence[int]) -> list[Value]:
        """H(X_S) for every mask in ``masks``, read as that many ``entropy``
        calls."""
        return list(map(self.entropy, masks))

    def _compute(self, mask: int) -> Value:
        return self.source._entropy(mask)

    def table(self) -> None:
        """Fill the table of a linear source through ``array``; does
        nothing for pmf and table sources."""
        if isinstance(self.source, LinearSource):
            self.array()

    def array(self) -> np.ndarray:
        """H(X_S) for every subset, one array indexed by mask S; built on
        the first call and then kept as the memo.  For every kind of source
        a memo that holds every subset is copied (a mask's value does not
        depend on how it was computed); otherwise the source fills it: a
        linear source in one depth-first pass, a pmf source in one batch, a
        table source from its entries.  Building it counts no calls and
        sets ``int64_peak``.  Raises ``TooLarge`` above ``TABLE_CAP`` users,
        before it allocates or computes anything."""
        if self._table is None:
            if self.m > TABLE_CAP:
                raise TooLarge(f"{self.m} users: the table of 2^m subset "
                               f"entropies is capped at m={TABLE_CAP}")
            if len(self._cache) == self.full_mask:
                table = _full_array(self._cache, self.m, self.exact)
            else:
                table = self.source._array()
            if table.dtype == np.int64:
                self.int64_peak = max(int(table.max()), -int(table.min()))
            # Readers see the table only once it is complete.
            self._table = table
            self._cache = {}
        return self._table

    def violations(self) -> tuple[Optional[tuple[int, int]],
                                  Optional[tuple[int, int, int]]]:
        """The first (S, i) with H(S + i) < H(S), and the first (S, i, j)
        with H(S + i) + H(S + j) < H(S + i + j) + H(S), for users i < j
        outside the mask S; None where there is none.  With H(empty) = 0,
        which validation checks, the table is an entropy function (monotone
        and submodular) exactly when both are None.  Each user and each
        pair is one whole-array comparison on ``array``, exact for exact
        tables and within DELTA, as ``value_le``, for float ones.  The
        first violation is the one with the least i, then j, then S."""
        table = self.array()
        monotone = submodular = None
        for i in range(self.m):
            t = table.reshape(-1, 2, 1 << i)   # axes: S above i, bit i, S below i
            bad = np.flatnonzero(~value_le(t[:, 0], t[:, 1], self.exact))
            if bad.size:
                high, low = divmod(int(bad[0]), 1 << i)
                monotone = (high << (i + 1) | low, i)
                break
        for i, j in itertools.combinations(range(self.m), 2):
            t = table.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)
            lhs = t[:, 0, :, 1] + t[:, 1, :, 0]
            rhs = t[:, 1, :, 1] + t[:, 0, :, 0]
            bad = np.flatnonzero(~value_le(rhs, lhs, self.exact))
            if bad.size:
                high, rest = divmod(int(bad[0]), 1 << (j - 1))
                mid, low = divmod(rest, 1 << i)
                submodular = (high << (j + 1) | mid << (i + 1) | low, i, j)
                break
        return monotone, submodular

    def total(self) -> Value:
        return self.entropy(self.full_mask)

    def cond_entropy(self, mask: int) -> Value:
        """H(X_S | X_{S^c}) computed as H(X_M) - H(X_{S^c})."""
        comp = self.full_mask & ~check_mask(mask, self.m)
        return self.total() - self.entropy(comp)

    def oracle_queries(self) -> int:
        """Distinct subsets evaluated so far (cache misses)."""
        return self.full_mask if self._table is not None else len(self._cache)

    def f_beta(self, beta: Value, unit: Optional[str] = None) -> SetFunction:
        """The shifted cut function f(S) = beta - H(X_M) + H(X_S) for
        nonempty S and f(empty) = 0.

        Intersecting submodular for every beta >= 0; fully submodular once
        beta >= H(X_M).
        """
        if unit is not None and unit != self.unit:
            raise UnitMismatch(f"value in {unit!r} mixed with oracle in {self.unit!r}")
        total = self.total()
        exact = self.exact and not isinstance(beta, float)

        def fn(mask: int) -> Value:
            if mask == 0:
                return 0 if exact else 0.0
            return beta - total + self.entropy(mask)

        return SetFunction(self.m, fn, exact=exact)


# Bounds on the working arrays of the pmf kernel: the most masks one pass
# groups, and the most entries one block of marginals holds or one gather
# reads.
PASS_MASKS = 1 << 10
GATHER_ENTRIES = 1 << 13


class _PmfMarginals:
    """Subset entropies of one joint pmf, computed many masks at a time.

    On a C-contiguous table, ``pmf.sum(axis=drop)`` is numpy's pairwise sum
    over the trailing run of dropped axes, then a left fold in C order over
    the other dropped axes.  This kernel takes the same two steps, so its
    values equal the per-mask sums bit for bit:

    * one pairwise-summed table per length of the trailing run, built once;
    * masks whose marginals have the same shape form a group, whose entries
      are gathered from that table as (dropped, mask, kept) arrays, in whole
      rows along the last axis left (which is always kept), and folded over
      the first axis by ``np.add.reduce``.

    Size-1 axes are squeezed out first, as numpy leaves them out of its
    loops, and each entropy is the same ``-(q * log2 q).sum()`` over the
    positive entries of one marginal.  A table that is not C-contiguous is
    read as its C-ordered copy.
    """

    __slots__ = ("users", "sizes", "runs", "strides", "_summed", "_digits")

    def __init__(self, pmf: np.ndarray):
        table = np.ascontiguousarray(pmf, dtype=float)
        axes = [i for i, a in enumerate(table.shape) if a > 1]
        sizes = [table.shape[i] for i in axes]
        n = len(sizes)
        self.users = np.array(axes, dtype=np.int64)
        self.sizes = np.array(sizes, dtype=np.int64)
        # runs[t]: entries in the last t axes; strides[i]: C stride of axis i.
        self.runs = [math.prod(sizes[n - t:]) for t in range(n + 1)]
        self.strides = np.array([math.prod(sizes[i + 1:]) for i in range(n)],
                                dtype=np.int64)
        self._summed = {0: table.reshape(-1)}
        self._digits: dict[tuple[int, ...], np.ndarray] = {}

    def summed(self, t: int) -> np.ndarray:
        """The flat table with its last t axes pairwise-summed out."""
        table = self._summed.get(t)
        if table is None:
            table = self._summed[0].reshape(-1, self.runs[t]).sum(axis=1)
            self._summed[t] = table
        return table

    def offsets(self, strides: np.ndarray, shape: list[int]) -> np.ndarray:
        """Flat offsets of every multi-index over ``shape`` in C order, one
        row per row of ``strides`` (a mask's strides along those axes).
        The digit table of each shape of up to ``GATHER_ENTRIES``
        multi-indices is built once; a larger shape is split at its first
        axis."""
        if math.prod(shape) > GATHER_ENTRIES:
            head = strides[:, :1] * np.arange(shape[0])
            tail = self.offsets(strides[:, 1:], shape[1:])
            return (head[:, :, None] + tail[:, None, :]).reshape(len(strides), -1)
        key = tuple(shape)
        digits = self._digits.get(key)
        if digits is None:
            digits = np.indices(key).reshape(len(key), -1) if key else \
                np.zeros((0, 1), dtype=np.int64)
            self._digits[key] = digits
        return strides @ digits

    def entropies(self, masks: Sequence[int]) -> list[float]:
        """H(X_S) in bits for distinct nonzero masks, in passes of at most
        ``PASS_MASKS`` masks."""
        out: list[float] = []
        for start in range(0, len(masks), PASS_MASKS):
            out += self._pass(masks[start:start + PASS_MASKS])
        return out

    def _pass(self, masks: Sequence[int]) -> list[float]:
        n = len(self.sizes)
        keep = (np.array(masks, dtype=np.int64)[:, None] >> self.users & 1).astype(bool)
        kept = keep.sum(axis=1)
        # lead: the axes left once the trailing run of dropped axes is summed.
        lead = (keep * np.arange(1, n + 1)).max(axis=1, initial=0)
        # Each row lists the kept axes, then the dropped ones, in order.
        order = np.argsort(~keep, axis=1, kind="stable")
        shape = np.where(np.arange(n) < lead[:, None], self.sizes[order], 0)
        keys = np.column_stack([lead, kept, shape])
        perm = np.lexsort(keys.T[::-1])
        keys = keys[perm]
        starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
        out = np.empty(len(perm))
        for rows, (lead_g, kept_g, *shape_g) in zip(np.split(perm, starts[1:]),
                                                    keys[starts].tolist()):
            out[rows] = self._group(order[rows, :lead_g], kept_g, shape_g[:lead_g])
        return out.tolist()

    def _group(self, axes: np.ndarray, kept: int, shape: list[int]) -> np.ndarray:
        """Entropies of masks with the same marginal shape; row i of ``axes``
        lists a mask's kept axes, then its dropped axes before the trailing
        run, and ``shape`` their sizes."""
        lead = len(shape)
        table = self.summed(len(self.sizes) - lead)
        if kept == 0:
            # Only size-1 axes kept: the sum of the whole table.
            return _row_entropies(table[None, :])
        # The last axis left is always kept, so whole rows along it are
        # gathered: offsets count rows of its size.
        width = shape[kept - 1]
        rows = table.reshape(-1, width)
        strides = self.strides[:lead - 1] // (self.runs[len(self.sizes) - lead] * width)
        at_kept, at_drop = strides[axes[:, :kept - 1]], strides[axes[:, kept:]]
        size = math.prod(shape[:kept])
        folds = math.prod(shape[kept:])
        # Offsets and entropies go by blocks of masks whose marginals and
        # fold offsets each fit in GATHER_ENTRIES, one mask at least.  A
        # gather covers as many masks of a block as fit in GATHER_ENTRIES,
        # or else as many folded slices of one mask, one at least; a mask
        # split over gathers carries its running sum.
        block = max(1, GATHER_ENTRIES // max(size, folds))
        step = max(1, GATHER_ENTRIES // (folds * size))
        span = max(1, GATHER_ENTRIES // size)
        out = np.empty(len(axes))
        for b in range(0, len(axes), block):
            at_row = self.offsets(at_kept[b:b + block], shape[:kept - 1])
            at_fold = self.offsets(at_drop[b:b + block], shape[kept:]).T
            marg = np.empty((len(at_row), at_row.shape[1], width))
            for a in range(0, len(at_row), step):
                acc = None
                for d in range(0, folds, span):
                    part = np.take(rows, at_fold[d:d + span, a:a + step, None]
                                   + at_row[a:a + step], axis=0)
                    if acc is not None:
                        part = np.concatenate([acc[None], part])
                    acc = np.add.reduce(part, axis=0)
                marg[a:a + step] = acc
            out[b:b + block] = _row_entropies(marg.reshape(len(at_row), -1))
        return out


def _row_entropies(marg: np.ndarray) -> np.ndarray:
    """-(q * log2 q).sum() over the positive entries q of each row.  All
    rows go through one call; a row holding a zero or a negative entry
    comes out NaN there and is redone over its positive entries alone."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log2(marg)
        terms *= marg
    out = -terms.sum(axis=1)
    for i in np.flatnonzero(np.isnan(out)):
        q = marg[i][marg[i] > 0.0]
        out[i] = -(q * np.log2(q)).sum()
    return out
