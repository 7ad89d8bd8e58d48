"""Explicit finite-field transmission schemes for linear sources.

Given integer per-user transmission counts n*R_i, each user broadcasts
linear combinations of its own block-expanded observations; omniscience
holds iff every receiver's side information stacked with all received
broadcasts has full column rank n*N.

Construction draws the coefficient matrices uniformly at random with a
seeded generator and verifies every receiver exactly, for at most a given
number of draws.  Running out of draws says nothing about the rates: at
feasible rates every draw succeeds with positive probability, so a larger
budget finds a scheme.  The classical multicast
conversion (super node, sender and relay nodes, expanded transfer
matrices), an independent verification view, lives in
``omniex.reference``.

A scheme packs each sender's broadcast rows [C_i (I_n (x) A_i) | 0] once,
without expanding I_n (x) A_i, and keeps them for the later ranks and
decodes on the same scheme object.  ``receiver_ranks`` shares
eliminations among receivers: the m receivers are split in halves
recursively, and each half starts from a copy of one row space holding
every sender outside it, so a sender's rows are eliminated about log2(m)
times, not m - 1 times.  ``decode`` eliminates the same rows, each with
its received symbol in the last column, and back-substitutes.

A scheme whose every C_i is I_g (x) C'_i, g = gcd(n, n R_1, .., n R_m),
repeats a base of block length n/g, as ``construct_code`` builds it, and
its receiver system is I_g (x) the base's up to row and column order: so
ranks (g times the base's), decodes and broadcasts run on the base.
``verify_omniscience`` stops at the first receiver short of n*N.

Every receiver's system is n*N columns wide, and its elimination grows
with the square of that width and more, so construction, verification
and decoding refuse a width above ``WIDTH_CAP`` with ``TooLarge`` before
they build anything.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from . import field as ff
from .errors import (
    ConstructionFailed,
    DimensionMismatch,
    FieldTooSmall,
    InconsistentObservations,
    NonIntegerRates,
    TooLarge,
    UnknownReceiver,
    ValidationError,
)
from .rates import RateVector
from .setfun import check_n
from .sources import LinearSource

# The widest receiver system, in columns n*N, that is built.
WIDTH_CAP = 512


def _check_width(n: int, n_packets: int) -> None:
    if n * n_packets > WIDTH_CAP:
        raise TooLarge(f"block length n={n} with N={n_packets}: a receiver's "
                       f"system of n*N = {n * n_packets} columns is capped at "
                       f"n*N={WIDTH_CAP}")


def _integer_tx_counts(rates: RateVector, n: int, m: int) -> tuple[int, ...]:
    check_n(n)
    if rates.m != m:
        raise DimensionMismatch(f"rate vector has {rates.m} entries, expected {m}")
    counts = []
    for i, r in enumerate(rates.values):
        scaled = Fraction(r) * n
        if scaled.denominator != 1 or scaled < 0:
            raise NonIntegerRates(f"n*R_{i + 1} = {scaled} is not a nonnegative integer")
        counts.append(int(scaled))
    return tuple(counts)


def _check_user(i: int, m: int, role: str) -> None:
    if not 0 <= i < m:
        raise UnknownReceiver(f"{role} {i + 1} outside 1..{m}")


@dataclass(frozen=True)
class TransmissionScheme:
    """Per-user coefficient matrices over the block-expanded observations.

    User i broadcasts C_i @ (I_n (x) A_i) @ W, i.e. C_i has one row per
    transmitted symbol and one column per observed symbol, so every
    broadcast is a function of that user's own observations only.

    Each sender's broadcast rows are kept once packed, keyed by the user
    and its observation matrix A_i, and the base the scheme repeats is
    found once, both for the life of the scheme object.  The memos are
    cached properties, not fields, so they take no part in equality,
    hashing or ``repr``.
    """

    n: int
    p: int
    coefficients: tuple[ff.FieldMatrix, ...]

    @property
    def m(self) -> int:
        return len(self.coefficients)

    @property
    def tx(self) -> tuple[int, ...]:
        return tuple(c.rows for c in self.coefficients)

    def check_source(self, src: LinearSource) -> None:
        if self.m != src.m or self.p != src.p:
            raise DimensionMismatch("scheme does not match the source shape")
        _check_width(self.n, src.N)
        for i, c in enumerate(self.coefficients):
            want = self.n * src.matrices[i].rows
            if c.cols != want or c.p != src.p:
                raise DimensionMismatch(
                    f"user {i + 1}: coefficient matrix is {c.rows}x{c.cols} "
                    f"mod {c.p}, expected {c.rows}x{want} mod {src.p}")

    def broadcast_rows(self, src: LinearSource, i: int) -> list[int]:
        """User i's rows of the receiver system [C_i (I_n (x) A_i) | 0],
        packed by ``RowSpace.pack_product`` on first use and then recalled."""
        a = src.matrices[i]
        key = (i, a)
        rows = self._broadcast.get(key)
        if rows is None:
            space = ff.RowSpace(self.n * src.N + 1, self.p)
            rows = self._broadcast[key] = space.pack_product(
                self.coefficients[i], self.n, a)
        return rows

    @cached_property
    def _broadcast(self) -> dict:
        return {}

    @cached_property
    def _repeats(self) -> tuple[int, "TransmissionScheme"]:
        """(g, base) with each C_i = I_g (x) base's C'_i for g = gcd(n,
        tx_1, .., tx_m), else (1, self)."""
        g = math.gcd(self.n, *self.tx)
        if g > 1:
            blocks = tuple(
                ff.FieldMatrix._reduced(c.rows // g, c.cols // g, c.p, [
                    x for r in range(c.rows // g) for x in c.row(r)[:c.cols // g]])
                for c in self.coefficients)
            if all(ff.kron_block(g, b) == c for b, c in zip(blocks, self.coefficients)):
                return g, TransmissionScheme(n=self.n // g, p=self.p, coefficients=blocks)
        return 1, self


def _ranks(src: LinearSource, scheme: TransmissionScheme
           ) -> Iterator[tuple[int, int]]:
    """Each receiver's (rank, n*N) in turn, g times its rank on the base."""
    scheme.check_source(src)
    g, base = scheme._repeats
    n, need = base.n, base.n * src.N
    sent = [base.broadcast_rows(src, i) for i in range(src.m)]

    def fill(space: ff.RowSpace, lo: int, hi: int) -> Iterator[int]:
        # ``space`` holds every sender outside lo..hi-1, and is consumed.
        # Rows whose last column is 0 add nothing to a space of rank n*N.
        if hi - lo == 1:
            own = src.matrices[lo]
            rows = space.pack_rows(own, n, [0] * n * own.rows)
            space.extend_packed(w for w in rows if space.rank < need)
            yield space.rank
            return
        mid = (lo + hi) // 2
        left = space.copy()
        left.extend_packed(w for rows in sent[mid:hi] for w in rows if left.rank < need)
        yield from fill(left, lo, mid)
        space.extend_packed(w for rows in sent[lo:mid] for w in rows if space.rank < need)
        yield from fill(space, mid, hi)

    for r in fill(ff.RowSpace(need + 1, src.p), 0, src.m):
        yield g * r, g * need


def receiver_ranks(src: LinearSource, scheme: TransmissionScheme
                   ) -> list[tuple[int, int]]:
    """Per receiver: (achieved stacked rank, required rank n*N).

    Receiver j's rank is that of [M | 0], M its own block-expanded
    observations stacked over every other sender's broadcast rows.  The
    receivers are split in halves recursively, starting from an empty row
    space: each half gets a copy of its parent's space (the copy shares
    the pivots) with the other half's senders added, and a single
    receiver adds its own expanded rows last.  A sender's rows are so
    eliminated about log2(m) times, and since a rank does not depend on
    the order of the rows, every rank is that of the stacked system.

    A scheme repeating a base g times is eliminated at the base's length,
    and each call eliminates afresh: ``code`` ranks nothing after its
    draw, whose check proved every receiver at n*N.
    """
    return list(_ranks(src, scheme))


def verify_omniscience(src: LinearSource, scheme: TransmissionScheme) -> bool:
    """True iff every receiver's side information plus received broadcasts
    determines the whole packet block; stops at the first receiver that
    falls short."""
    return all(got == need for got, need in _ranks(src, scheme))


def user_observation(src: LinearSource, i: int, w: Sequence[int], n: int
                     ) -> tuple[int, ...]:
    """X_i over an n-block: (I_n (x) A_i) @ W, as A_i times each of the n
    blocks of W."""
    _check_user(i, src.m, "user")
    check_n(n)
    a = src.matrices[i]
    cols = a.cols
    if len(w) != n * cols:
        raise DimensionMismatch(f"vector length {len(w)} != cols {n * cols}")
    out: list[int] = []
    for b in range(n):
        out.extend(a.mul_vector(w[b * cols:(b + 1) * cols]))
    return tuple(out)


def broadcast_symbols(src: LinearSource, scheme: TransmissionScheme,
                      w: Sequence[int]) -> list[tuple[int, ...]]:
    """C_i @ X_i for every user i, with X_i from ``user_observation``, as
    the base's C'_i times each repetition's part of X_i."""
    scheme.check_source(src)
    g, base = scheme._repeats
    out = []
    for i, c in enumerate(base.coefficients):
        x, k = user_observation(src, i, w, scheme.n), c.cols
        out.append(tuple(y for t in range(g) for y in c.mul_vector(x[t * k:(t + 1) * k])))
    return out


def decode(src: LinearSource, scheme: TransmissionScheme, receiver: int,
           side_info: Sequence[int], broadcasts: Sequence[Sequence[int]]
           ) -> tuple[int, ...]:
    """Recover the packet block W at one receiver.

    ``side_info`` is the receiver's own observation block and
    ``broadcasts`` the per-user broadcast symbol vectors; each symbol goes,
    reduced mod p, into the last column of its packed row; a repeated
    scheme is solved as one base system per repetition.  Raises
    InconsistentObservations when the equations do not pin W down
    uniquely or, failing that, are contradictory (tampered or truncated
    inputs).
    """
    scheme.check_source(src)
    _check_user(receiver, src.m, "receiver")
    if len(broadcasts) != src.m:
        raise DimensionMismatch(f"need {src.m} broadcast vectors, got {len(broadcasts)}")
    own = src.matrices[receiver]
    if len(side_info) != scheme.n * own.rows:
        raise DimensionMismatch(
            f"side information has {len(side_info)} symbols, "
            f"expected {scheme.n * own.rows}")
    for i, c in enumerate(scheme.coefficients):
        if i != receiver and len(broadcasts[i]) != c.rows:
            raise DimensionMismatch(
                f"user {i + 1} broadcast has {len(broadcasts[i])} symbols, "
                f"expected {c.rows}")
    g, base = scheme._repeats
    n, p, side, need = base.n, src.p, base.n * own.rows, base.n * src.N
    solution: list[int] = []
    for t in range(g):
        space = ff.RowSpace(need + 1, p)
        space.extend_packed(space.pack_rows(own, n, side_info[t * side:(t + 1) * side]))
        for i in range(src.m):
            if i != receiver:
                sent = base.broadcast_rows(src, i)
                k = len(sent)
                space.extend_packed(w | int(y % p) for w, y in
                                    zip(sent, broadcasts[i][t * k:(t + 1) * k]))
        # Every repetition has the base's rows, so all have one rank, and a
        # short rank is found first, as in the whole system.
        x = space.back_substitute()
        if space.rank - (x is None) < need:
            raise InconsistentObservations(
                "received symbols do not determine the packet block uniquely")
        if x is None:
            raise InconsistentObservations("received symbols are contradictory")
        solution.extend(x)
    return tuple(solution)


def _random_scheme(src: LinearSource, tx: Sequence[int], n: int,
                   rng: random.Random) -> TransmissionScheme:
    coeffs = [ff.FieldMatrix.random(tx[i], n * src.matrices[i].rows, src.p, rng)
              for i in range(src.m)]
    return TransmissionScheme(n=n, p=src.p, coefficients=tuple(coeffs))


def _repeat_scheme(base: TransmissionScheme, times: int) -> TransmissionScheme:
    """Repeat a scheme built for a shorter block: the coefficient matrix
    becomes block diagonal over the repetitions."""
    if times == 1:
        return base
    coeffs = tuple(ff.kron_block(times, c) for c in base.coefficients)
    return TransmissionScheme(n=base.n * times, p=base.p, coefficients=coeffs)


def check_construction(src: LinearSource, n: int, max_tries: int) -> None:
    """Refuse a construction that no rates can make possible, in this
    order: ``FieldTooSmall`` when p <= m (some simultaneous completions
    then provably do not exist), ``InvalidN`` when n is not a positive
    integer, ``TooLarge`` when n*N exceeds ``WIDTH_CAP`` and
    ``ValidationError`` when ``max_tries`` is below 1.  It reads no
    entropy, so a caller can refuse before it solves for the rates."""
    if src.p <= src.m:
        raise FieldTooSmall(
            f"field size {src.p} must exceed the number of users {src.m}")
    check_n(n)
    _check_width(n, src.N)
    if max_tries < 1:
        raise ValidationError("max_tries must be at least 1")


def construct_code(src: LinearSource, rates: RateVector, n: int,
                   seed: int = 0, max_tries: int = 64) -> TransmissionScheme:
    """Find a transmission scheme achieving omniscience at the given rates.

    First refuses what ``check_construction`` refuses, then rates that
    are not nonnegative multiples of 1/n.  Strategy: divide out
    gcd(n*R_1, .., n*R_m, n) and build at the reduced block length,
    drawing every coefficient uniformly at random and verifying all
    receivers, with at most ``max_tries`` draws.  When none verifies,
    raise ConstructionFailed: the draw budget ran out.  With p > m every
    draw at feasible rates succeeds with positive probability, so a
    larger ``max_tries`` finds a scheme; infeasible rates, which
    ``rates.verify_feasible`` detects, fail at any budget.
    """
    check_construction(src, n, max_tries)
    tx = _integer_tx_counts(rates, n, src.m)

    g = math.gcd(n, *tx)
    reduced_n = n // g
    reduced_tx = tuple(t // g for t in tx)

    rng = random.Random(seed)
    for _ in range(max_tries):
        scheme = _random_scheme(src, reduced_tx, reduced_n, rng)
        if verify_omniscience(src, scheme):
            return _repeat_scheme(scheme, g)

    raise ConstructionFailed(
        f"no valid scheme after {max_tries} random draws; the draw budget "
        f"ran out (--max-tries raises it)")

