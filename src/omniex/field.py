"""Exact dense linear algebra over prime fields F_p.

Matrices are immutable and store their entries row-major as Python ints
reduced modulo p.  Arithmetic is exact: p is restricted to primes below
2**61 so products fit comfortably in 128-bit intermediates and never touch
floating point.  Extension fields GF(p^k) are deliberately unsupported;
every size requirement in this package can be met by picking a larger
prime instead.

There is one rank kernel, ``RowSpace``: forward elimination into echelon
form, one row at a time, with no back-substitution.  ``FieldMatrix.rank``,
the subset-rank table of the entropy oracle and the row selections of
``netcode`` all go through it.  The reduced row echelon form of
``FieldMatrix._echelon`` is kept only for ``solve`` and ``inv``, which
need the back-substituted rows; ``solve_with_rank`` also counts the rank
from the pivots of that one elimination, for a caller that needs both.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch, ZeroInverse

MAX_MODULUS = 1 << 61

# Witness set making Miller-Rabin deterministic for all n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def ff_inv(a: int, p: int) -> int:
    """Multiplicative inverse of a modulo the prime p."""
    a %= p
    if a == 0:
        raise ZeroInverse(f"0 has no inverse mod {p}")
    return pow(a, p - 2, p)


class RowSpace:
    """Row space over F_p, grown one row at a time by forward elimination.

    Each pivot row is kept in echelon form under its leading column: scaled
    so that the leading entry is 1 and stored as the tail after it.  A new
    row is reduced left to right against the pivots whose columns it hits;
    its first column without a pivot, if any, becomes a new pivot.  Pivot
    rows are never changed once stored, so ``copy`` shares them and costs
    O(cols).  ``p`` must be a prime; callers pass an already validated
    modulus.
    """

    __slots__ = ("cols", "p", "rank", "_pivots")

    def __init__(self, cols: int, p: int):
        self.cols = cols
        self.p = p
        self.rank = 0
        self._pivots: list[Optional[list[int]]] = [None] * cols

    def copy(self) -> "RowSpace":
        other = RowSpace(self.cols, self.p)
        other.rank = self.rank
        other._pivots = self._pivots.copy()
        return other

    def try_add(self, row: Sequence[int]) -> bool:
        """Add ``row`` to the space; True iff it was not already in it."""
        if len(row) != self.cols:
            raise DimensionMismatch(f"row length {len(row)} != cols {self.cols}")
        if self.rank == self.cols:
            return False
        p = self.p
        pivots = self._pivots
        work = [x % p for x in row]
        base = 0    # work[k] holds column base + k; columns before it are zero
        while True:
            for k, f in enumerate(work):
                if f:
                    break
            else:
                return False
            c = base + k
            tail = pivots[c]
            if tail is None:
                inv = pow(f, p - 2, p)
                pivots[c] = [x * inv % p for x in islice(work, k + 1, None)]
                self.rank += 1
                return True
            work = [(x - f * y) % p for x, y in zip(islice(work, k + 1, None), tail)]
            base = c + 1

    def extend(self, rows: Iterable[Sequence[int]]) -> None:
        for row in rows:
            self.try_add(row)


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

    def entry(self, r: int, c: int) -> int:
        return self._data[r * self.cols + c]

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

    def mul(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.p != other.p:
            raise DimensionMismatch("modulus mismatch")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}")
        p = self.p
        out = [0] * (self.rows * other.cols)
        for i in range(self.rows):
            arow = self.row(i)
            base = i * other.cols
            for k, a in enumerate(arow):
                if a == 0:
                    continue
                brow = other.row(k)
                for j, b in enumerate(brow):
                    if b:
                        out[base + j] = (out[base + j] + a * b) % p
        return FieldMatrix._reduced(self.rows, other.cols, p, out)

    def mul_vector(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector length {len(vec)} != cols {self.cols}")
        p = self.p
        return tuple(
            sum(a * (v % p) for a, v in zip(self.row(i), vec)) % p
            for i in range(self.rows)
        )

    # -- elimination-based operations -----------------------------------

    def _echelon(self) -> tuple[list[list[int]], list[int]]:
        """Reduced row echelon form; returns (rows, pivot column indices).

        Used by ``solve_with_rank`` and ``inv``; ranks alone go through
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
        space.extend(self.row(r) for r in range(self.rows))
        return space.rank

    def solve(self, y: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Solve M x = y; returns x with free variables set to 0, or None
        when the system is inconsistent."""
        return self.solve_with_rank(y)[1]

    def solve_with_rank(self, y: Sequence[int]) -> tuple[int, Optional[tuple[int, ...]]]:
        """rank(M) and ``solve(y)`` from one elimination of [M | y]: the rank
        is the number of pivots left of the last column."""
        if len(y) != self.rows:
            raise DimensionMismatch(f"rhs length {len(y)} != rows {self.rows}")
        aug = FieldMatrix.from_rows(
            [list(self.row(r)) + [y[r] % self.p] for r in range(self.rows)],
            self.p, cols=self.cols + 1)
        ech, pivots = aug._echelon()
        if self.cols in pivots:
            return len(pivots) - 1, None
        x = [0] * self.cols
        for row, c in zip(ech, pivots):
            x[c] = row[-1]
        return len(pivots), tuple(x)

    def det(self) -> int:
        if self.rows != self.cols:
            raise DimensionMismatch("determinant needs a square matrix")
        p = self.p
        work = [list(self.row(r)) for r in range(self.rows)]
        n = self.rows
        det = 1
        for c in range(n):
            pivot = None
            for i in range(c, n):
                if work[i][c] != 0:
                    pivot = i
                    break
            if pivot is None:
                return 0
            if pivot != c:
                work[c], work[pivot] = work[pivot], work[c]
                det = (-det) % p
            det = det * work[c][c] % p
            inv = pow(work[c][c], p - 2, p)
            for i in range(c + 1, n):
                if work[i][c] != 0:
                    f = work[i][c] * inv % p
                    work[i] = [(x - f * y) % p for x, y in zip(work[i], work[c])]
        return det

    def inv(self) -> "FieldMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse needs a square matrix")
        n = self.rows
        aug_rows = []
        for r in range(n):
            row = list(self.row(r)) + [0] * n
            row[self.cols + r] = 1
            aug_rows.append(row)
        aug = FieldMatrix.from_rows(aug_rows, self.p, cols=2 * n)
        ech, pivots = aug._echelon()
        if len(pivots) < n or pivots != list(range(n)):
            raise ZeroInverse("matrix is singular")
        return FieldMatrix.from_rows([row[n:] for row in ech], self.p, cols=n)


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


def rank(matrix: FieldMatrix) -> int:
    """Rank of the matrix over F_p (exact, via modular elimination)."""
    return matrix.rank()


def solve(matrix: FieldMatrix, y: Sequence[int]) -> Optional[tuple[int, ...]]:
    return matrix.solve(y)


def kron_block(n: int, a: FieldMatrix) -> FieldMatrix:
    """Block-diagonal matrix with n copies of ``a``.

    Models n independent repetitions of the same linear observation
    process: the result maps the length n*cols stacked input to the
    length n*rows stacked output.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
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
