"""Exact dense linear algebra over prime fields F_p.

Matrices are immutable and store their entries row-major as Python ints
reduced modulo p.  Arithmetic is exact: p is restricted to primes below
2**61 so products fit comfortably in 128-bit intermediates and never touch
floating point.  Extension fields GF(p^k) are deliberately unsupported;
every size requirement in this package can be met by picking a larger
prime instead.

There is one elimination kernel, ``RowSpace``: forward elimination into
echelon form, one row at a time, on rows packed into one Python int with
one fixed-width lane per column, and back-substitution of an augmented
system.  The packed format is known to this module alone:
``RowSpace.pack_rows`` packs a matrix's rows, block-expanded and with a
right-hand side if asked, and ``RowSpace.pack_product`` the rows of
[c (I_n (x) a) | 0] without expanding I_n (x) a.  Packed rows are the one
row form: a linear source packs each user's rows once, a scheme each
sender's broadcast rows once, and every subset rank, receiver rank and
decode eliminates them.  The reduced row echelon form of
``FieldMatrix._echelon`` is kept only for the tests, which check ranks
and solutions against it.  The product, determinant and inverse serve
only the checks, so they live in ``omniex.reference``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch
from .setfun import check_n

MAX_MODULUS = 1 << 61

# Witness set making Miller-Rabin deterministic for all n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=32)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def validate_modulus(p: int) -> None:
    """Reject non-prime or out-of-range moduli.

    Only prime fields are supported; for code construction any prime
    larger than the number of users works, so callers wanting GF(p^k)
    should pick a bigger prime instead.
    """
    if not isinstance(p, int) or not 2 <= p < MAX_MODULUS:
        raise ValueError(f"modulus must be an integer in [2, 2^61), got {p!r}")
    if not is_prime(p):
        raise ValueError(
            f"modulus {p} is not prime; extension fields are not supported, "
            f"use a prime modulus (any prime larger than the number of users)"
        )


class RowSpace:
    """Row space over F_p, grown one row at a time by forward elimination.

    Rows are packed: one Python int per row with one ``lane`` bits wide
    field per column, column 0 in the top lane, so lane k from the bottom
    holds column ``cols - 1 - k``.  Each pivot is kept under its leading
    column as the tail of its row scaled to a leading 1, negated mod p and
    packed.  Reducing a row whose leading entry is f by that pivot is one
    big-int multiply-add, ``w += f * tail``; the row's first column without
    a pivot, if any, becomes a new pivot.

    Lane invariant: rows are packed with reduced entries, so a lane starts
    below p.  The leading lane is cleared at each step and the next one is
    strictly to its right, so a lane receives at most one addition of
    f * tail entry <= (p - 1)^2 from each pivot on its left, and never
    exceeds p - 1 + cols * (p - 1)^2.  A lane of that bit length never
    carries into its neighbour and no lane goes negative, so every lane
    holds an exact nonnegative representative of its column's entry.  At
    p = 2^61 - 1 a lane is about 128 bits wide.

    Pivot tails are never changed once stored, so ``copy`` shares them and
    costs O(cols).  ``p`` must be a prime; callers pass an already
    validated modulus.
    """

    __slots__ = ("cols", "p", "rank", "lane", "_pivots")

    def __init__(self, cols: int, p: int):
        self.cols = cols
        self.p = p
        self.rank = 0
        self.lane = (p - 1 + cols * (p - 1) ** 2).bit_length()
        self._pivots: list[Optional[int]] = [None] * cols   # by lane

    def copy(self) -> "RowSpace":
        other = object.__new__(RowSpace)
        other.cols = self.cols
        other.p = self.p
        other.rank = self.rank
        other.lane = self.lane
        other._pivots = self._pivots.copy()
        return other

    def pack_rows(self, a: "FieldMatrix", n: int = 1,
                  rhs: Optional[Sequence[int]] = None) -> list[int]:
        """The rows of I_n (x) a packed for ``add_packed``; with ``rhs``,
        each ends in its entry of ``rhs`` reduced mod p, as in [M | y]."""
        check_n(n)
        if a.p != self.p or n * a.cols + (rhs is not None) != self.cols:
            raise DimensionMismatch(
                f"I_{n} (x) {a.shape} mod {a.p} does not fit {self.cols} "
                f"columns mod {self.p}")
        rows = _pack_rows(a, self.lane, n)
        if rhs is None:
            return rows
        p, lane = self.p, self.lane
        return [w << lane | int(y % p) for w, y in zip(rows, rhs, strict=True)]

    def pack_product(self, c: "FieldMatrix", n: int, a: "FieldMatrix") -> list[int]:
        """The rows of [c (I_n (x) a) | 0] packed for ``add_packed``, from
        c's n column blocks and a's rows.

        Each row block is one combination of a's rows, packed once at a
        narrow lane of bit_length(a.rows * (p - 1)^2) bits, which a sum of
        a.rows products below p^2 never carries out of; each narrow lane is
        then reduced mod p into this space's lane.
        """
        r, cols, p, lane = a.rows, a.cols, self.p, self.lane
        if c.p != p or a.p != p or c.cols != n * r or n * cols + 1 != self.cols:
            raise DimensionMismatch(
                f"[{c.shape} (I_{n} (x) {a.shape}) | 0] mod {c.p} does not fit "
                f"{self.cols} columns mod {p}")
        narrow = (r * (p - 1) ** 2).bit_length() or 1
        mask = (1 << narrow) - 1
        shifts = range((cols - 1) * narrow, -1, -narrow)
        packed = _pack_rows(a, narrow)
        out = []
        for i in range(c.rows):
            row = c.row(i)
            w = 0
            for b in range(n):
                acc = 0
                for f, v in zip(row[b * r:(b + 1) * r], packed):
                    if f:
                        acc += f * v
                for s in shifts:
                    w = w << lane | (acc >> s & mask) % p
            out.append(w << lane)
        return out

    def add_packed(self, w: int) -> bool:
        """Add the packed row ``w`` (every lane below p, as ``pack_rows``
        makes it); True iff it was not already in the space."""
        if self.rank == self.cols:
            return False
        p, lane, pivots = self.p, self.lane, self._pivots
        while w:
            k = (w.bit_length() - 1) // lane
            shift = k * lane
            e = w >> shift
            w -= e << shift
            f = e % p
            if not f:
                continue        # the lane was a nonzero multiple of p
            tail = pivots[k]
            if tail is None:
                neg = p - pow(f, -1, p)
                mask = (1 << lane) - 1
                tail = 0
                for s in range(shift - lane, -1, -lane):
                    tail = tail << lane | (w >> s & mask) * neg % p
                pivots[k] = tail
                self.rank += 1
                return True
            w += f * tail
        return False

    def extend_packed(self, rows: Iterable[int]) -> None:
        for w in rows:
            self.add_packed(w)

    def back_substitute(self) -> Optional[tuple[int, ...]]:
        """The solution x of the system [M | y] that this space holds, with
        free variables 0 (the one read off the reduced row echelon form),
        or None when a pivot in the last column makes it inconsistent."""
        n, p, tails = self.cols - 1, self.p, self._pivots  # lane k: column n - k
        if tails[0] is not None:
            return None
        lane = self.lane
        mask = (1 << lane) - 1
        x = [0] * n
        for c in range(n - 1, -1, -1):
            tail = tails[n - c]
            if tail is None:
                continue
            # The stored tail is minus the scaled row: x_c = sum t_j x_j - t_y.
            acc = -(tail & mask)
            for j in range(c + 1, n):
                if x[j]:
                    acc += (tail >> (n - j) * lane & mask) * x[j]
            x[c] = acc % p
        return tuple(x)


class FieldMatrix:
    """Immutable dense matrix over F_p."""

    __slots__ = ("rows", "cols", "p", "_data")

    def __init__(self, rows: int, cols: int, p: int, entries: Iterable[int]):
        validate_modulus(p)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = tuple(int(e) % p for e in entries)
        if len(data) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries for {rows}x{cols}, got {len(data)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_data", data)

    @classmethod
    def _reduced(cls, rows: int, cols: int, p: int,
                 data: Sequence[int]) -> "FieldMatrix":
        """Wrap rows*cols entries that are already reduced modulo an already
        validated prime p, skipping the checks of ``__init__``; for results
        built from other matrices."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_data", tuple(data))
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("FieldMatrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], p: int,
                  cols: Optional[int] = None) -> "FieldMatrix":
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise DimensionMismatch("ragged rows")
        else:
            if cols is None:
                raise DimensionMismatch("empty matrix needs an explicit column count")
            ncols = cols
        if cols is not None and rows and cols != ncols:
            raise DimensionMismatch(f"declared cols={cols}, rows have {ncols}")
        flat = [e for r in rows for e in r]
        return cls(len(rows), ncols, p, flat)

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int) -> "FieldMatrix":
        return cls(rows, cols, p, [0] * (rows * cols))

    @classmethod
    def identity(cls, n: int, p: int) -> "FieldMatrix":
        ent = [0] * (n * n)
        for i in range(n):
            ent[i * n + i] = 1
        return cls(n, n, p, ent)

    @classmethod
    def random(cls, rows: int, cols: int, p: int, rng) -> "FieldMatrix":
        return cls(rows, cols, p, [rng.randrange(p) for _ in range(rows * cols)])

    # -- accessors -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def row(self, r: int) -> tuple[int, ...]:
        return self._data[r * self.cols:(r + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(r)) for r in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldMatrix)
                and self.shape == other.shape
                and self.p == other.p
                and self._data == other._data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.p, self._data))

    def __repr__(self) -> str:
        return f"FieldMatrix({self.rows}x{self.cols} mod {self.p})"

    # -- arithmetic ----------------------------------------------------

    def mul_vector(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector length {len(vec)} != cols {self.cols}")
        p = self.p
        return tuple(
            sum(a * (int(v) % p) for a, v in zip(self.row(i), vec)) % p
            for i in range(self.rows)
        )

    # -- elimination-based operations -----------------------------------

    def _echelon(self) -> tuple[list[list[int]], list[int]]:
        """Reduced row echelon form; returns (rows, pivot column indices).

        Kept as the tests' reference only; ranks and solutions go through
        ``RowSpace``.
        """
        p = self.p
        work = [list(self.row(r)) for r in range(self.rows)]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pivot = None
            for i in range(r, len(work)):
                if work[i][c] != 0:
                    pivot = i
                    break
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            inv = pow(work[r][c], p - 2, p)
            work[r] = [(x * inv) % p for x in work[r]]
            for i in range(len(work)):
                if i != r and work[i][c] != 0:
                    f = work[i][c]
                    work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
            pivots.append(c)
            r += 1
            if r == len(work):
                break
        return work[:r], pivots

    def rank(self) -> int:
        space = RowSpace(self.cols, self.p)
        space.extend_packed(space.pack_rows(self))
        return space.rank

    def solve(self, y: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Solve M x = y by one elimination of [M | y]: x with free
        variables set to 0, or None when the system is inconsistent."""
        if len(y) != self.rows:
            raise DimensionMismatch(f"rhs length {len(y)} != rows {self.rows}")
        space = RowSpace(self.cols + 1, self.p)
        space.extend_packed(space.pack_rows(self, rhs=y))
        return space.back_substitute()


def stack(parts: Sequence[FieldMatrix], *, cols: Optional[int] = None,
          p: Optional[int] = None) -> FieldMatrix:
    """Row-concatenate matrices sharing column count and modulus.

    An empty list is allowed when cols and p are given explicitly.
    """
    if not parts:
        if cols is None or p is None:
            raise DimensionMismatch("empty stack needs explicit cols and p")
        return FieldMatrix.zeros(0, cols, p)
    first = parts[0]
    for m in parts[1:]:
        if m.cols != first.cols or m.p != first.p:
            raise DimensionMismatch("stacked parts must share cols and modulus")
    if cols is not None and cols != first.cols:
        raise DimensionMismatch(f"declared cols={cols}, parts have {first.cols}")
    if p is not None and p != first.p:
        raise DimensionMismatch("declared modulus differs from parts")
    flat: list[int] = []
    for m in parts:
        flat.extend(m._data)
    return FieldMatrix._reduced(sum(m.rows for m in parts), first.cols, first.p, flat)


def kron_block(n: int, a: FieldMatrix) -> FieldMatrix:
    """Block-diagonal matrix with n copies of ``a``.

    Models n independent repetitions of the same linear observation
    process: the result maps the length n*cols stacked input to the
    length n*rows stacked output.
    """
    check_n(n)
    if n == 1:
        return a
    rows, cols = a.rows, a.cols
    out = [0] * (n * rows * n * cols)
    width = n * cols
    for blk in range(n):
        roff = blk * rows
        coff = blk * cols
        for r in range(rows):
            src = a.row(r)
            base = (roff + r) * width + coff
            for c in range(cols):
                out[base + c] = src[c]
    return FieldMatrix._reduced(n * rows, n * cols, a.p, out)


def _pack_rows(a: FieldMatrix, lane: int, n: int = 1) -> list[int]:
    """The rows of I_n (x) a, each one int with one ``lane`` bits wide
    field per column, column 0 in the top lane, as ``RowSpace`` lays them
    out; ``RowSpace.pack_rows`` packs through it."""
    packed = []
    for k in range(a.rows):
        w = 0
        for x in a.row(k):
            w = w << lane | x
        packed.append(w)
    block = lane * a.cols
    return [w << block * b for b in range(n - 1, -1, -1) for w in packed]
