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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import field as ff
from .errors import (
    ConstraintViolation,
    ConstructionFailed,
    DimensionMismatch,
    FieldTooSmall,
    InconsistentObservations,
    InvalidN,
    NonIntegerRates,
    UnknownReceiver,
)
from .rates import RateVector
from .sources import LinearSource


def _integer_tx_counts(rates: RateVector, n: int, m: int) -> tuple[int, ...]:
    if not isinstance(n, int) or n < 1:
        raise InvalidN(f"block length n must be a positive integer, got {n!r}")
    if rates.m != m:
        raise DimensionMismatch(f"rate vector has {rates.m} entries, expected {m}")
    counts = []
    for i, r in enumerate(rates.values):
        scaled = Fraction(r) * n
        if scaled.denominator != 1 or scaled < 0:
            raise NonIntegerRates(f"n*R_{i + 1} = {scaled} is not a nonnegative integer")
        counts.append(int(scaled))
    return tuple(counts)


@dataclass(frozen=True)
class TransmissionScheme:
    """Per-user coefficient matrices over the block-expanded observations.

    User i broadcasts C_i @ (I_n (x) A_i) @ W, i.e. C_i has one row per
    transmitted symbol and one column per observed symbol, so every
    broadcast is a function of that user's own observations only.
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
        for i, c in enumerate(self.coefficients):
            want = self.n * src.matrices[i].rows
            if c.cols != want or c.p != src.p:
                raise DimensionMismatch(
                    f"user {i + 1}: coefficient matrix is {c.rows}x{c.cols} "
                    f"mod {c.p}, expected {c.rows}x{want} mod {src.p}")

    def broadcast_matrix(self, src: LinearSource, i: int) -> ff.FieldMatrix:
        """Map from the full packet block W to user i's broadcast symbols."""
        return self.coefficients[i].mul(ff.kron_block(self.n, src.matrices[i]))

    def broadcast_matrices(self, src: LinearSource) -> tuple[ff.FieldMatrix, ...]:
        return tuple(self.broadcast_matrix(src, i) for i in range(self.m))


def receiver_ranks(src: LinearSource, scheme: TransmissionScheme
                   ) -> list[tuple[int, int]]:
    """Per receiver: (achieved stacked rank, required rank n*N).

    Each sender's broadcast rows are built and packed once, then added to
    the row space of every receiver but itself, after the receiver's own
    block-expanded observations.
    """
    scheme.check_source(src)
    need = scheme.n * src.N
    root = ff.RowSpace(need, src.p)
    sent = [list(map(root.pack, t.to_rows())) for t in scheme.broadcast_matrices(src)]
    ranks = []
    for j in range(src.m):
        space = root.copy()
        for w in map(root.pack, ff.kron_block(scheme.n, src.matrices[j]).to_rows()):
            space.add_packed(w)
        for i, rows in enumerate(sent):
            if i != j:
                for w in rows:
                    space.add_packed(w)
        ranks.append((space.rank, need))
    return ranks


def verify_omniscience(src: LinearSource, scheme: TransmissionScheme) -> bool:
    """True iff every receiver's side information plus received broadcasts
    determines the whole packet block."""
    return all(got == need for got, need in receiver_ranks(src, scheme))


def user_observation(src: LinearSource, i: int, w: Sequence[int], n: int
                     ) -> tuple[int, ...]:
    """X_i over an n-block: (I_n (x) A_i) @ W."""
    return ff.kron_block(n, src.matrices[i]).mul_vector(w)


def broadcast_symbols(src: LinearSource, scheme: TransmissionScheme,
                      w: Sequence[int]) -> list[tuple[int, ...]]:
    return [scheme.broadcast_matrix(src, i).mul_vector(w) for i in range(src.m)]


def decode(src: LinearSource, scheme: TransmissionScheme, receiver: int,
           side_info: Sequence[int], broadcasts: Sequence[Sequence[int]]
           ) -> tuple[int, ...]:
    """Recover the packet block W at one receiver.

    ``side_info`` is the receiver's own observation block and
    ``broadcasts`` the per-user broadcast symbol vectors.  Raises
    InconsistentObservations when the equations are contradictory or do
    not pin W down uniquely (tampered or truncated inputs).
    """
    scheme.check_source(src)
    if not 0 <= receiver < src.m:
        raise UnknownReceiver(f"receiver {receiver} outside 1..{src.m}")
    if len(broadcasts) != src.m:
        raise DimensionMismatch(f"need {src.m} broadcast vectors, got {len(broadcasts)}")
    parts = [ff.kron_block(scheme.n, src.matrices[receiver])]
    rhs: list[int] = list(side_info)
    if len(side_info) != parts[0].rows:
        raise DimensionMismatch(
            f"side information has {len(side_info)} symbols, expected {parts[0].rows}")
    for i in range(src.m):
        if i == receiver:
            continue
        t = scheme.broadcast_matrix(src, i)
        if len(broadcasts[i]) != t.rows:
            raise DimensionMismatch(
                f"user {i + 1} broadcast has {len(broadcasts[i])} symbols, "
                f"expected {t.rows}")
        parts.append(t)
        rhs.extend(broadcasts[i])
    system = ff.stack(parts, cols=scheme.n * src.N, p=src.p)
    rank, solution = system.solve_with_rank(rhs)
    if rank < system.cols:
        raise InconsistentObservations(
            "received symbols do not determine the packet block uniquely")
    if solution is None:
        raise InconsistentObservations("received symbols are contradictory")
    return solution


def _random_scheme(src: LinearSource, tx: Sequence[int], n: int,
                   rng: random.Random) -> TransmissionScheme:
    coeffs = [ff.FieldMatrix.random(tx[i], n * src.matrices[i].rows, src.p, rng)
              for i in range(src.m)]
    return TransmissionScheme(n=n, p=src.p, coefficients=tuple(coeffs))


def _repeat_scheme(src: LinearSource, base: TransmissionScheme, times: int
                   ) -> TransmissionScheme:
    """Repeat a scheme built for a shorter block: the coefficient matrix
    becomes block diagonal over the repetitions."""
    if times == 1:
        return base
    coeffs = []
    for i in range(src.m):
        c = base.coefficients[i]
        coeffs.append(ff.kron_block(times, c))
    return TransmissionScheme(n=base.n * times, p=base.p, coefficients=tuple(coeffs))


def construct_code(src: LinearSource, rates: RateVector, n: int,
                   seed: int = 0, max_tries: int = 64) -> TransmissionScheme:
    """Find a transmission scheme achieving omniscience at the given rates.

    Requires p > m (with p <= m some simultaneous completions provably do
    not exist).  Strategy: divide out gcd(n*R_1, .., n*R_m, n) and build at
    the reduced block length, drawing every coefficient uniformly at
    random and verifying all receivers, with at most ``max_tries`` draws.
    When none verifies, raise ConstructionFailed: the draw budget ran out.
    With p > m every draw at feasible rates succeeds with positive
    probability, so a larger ``max_tries`` finds a scheme; infeasible
    rates, which ``rates.verify_feasible`` detects, fail at any budget.
    """
    if src.p <= src.m:
        raise FieldTooSmall(
            f"field size {src.p} must exceed the number of users {src.m}")
    tx = _integer_tx_counts(rates, n, src.m)
    if max_tries < 1:
        raise ConstructionFailed("max_tries must be at least 1")

    g = math.gcd(n, *tx) if any(tx) else n
    reduced_n = n // g
    reduced_tx = tuple(t // g for t in tx)

    rng = random.Random(seed)
    for _ in range(max_tries):
        scheme = _random_scheme(src, reduced_tx, reduced_n, rng)
        if verify_omniscience(src, scheme):
            return _repeat_scheme(src, scheme, g)

    raise ConstructionFailed(
        f"no valid scheme after {max_tries} random draws; the draw budget "
        f"ran out (--max-tries raises it)")


@dataclass(frozen=True)
class GreedySelection:
    """Result of the greedy per-receiver row selection."""

    ordering: tuple[int, ...]
    selections: tuple[tuple[int, ...], ...]   # per user, selected row indices
    ranks: tuple[int, ...]                    # stacked rank after each user
    rates: tuple[int, ...]                    # |selection| per user


def greedy_row_selection(src: LinearSource, receiver: int,
                         ordering: Optional[Sequence[int]] = None
                         ) -> GreedySelection:
    """Greedily pick, user by user, the observation rows that strictly grow
    the stacked rank seen from one receiver.

    The selection has the maximum-rank property: after any prefix of
    users, the selected rows span the same space as all their rows
    stacked, so the per-user counts equal the marginal ranks along the
    ordering and always total N minus the receiver's own rank.
    """
    if not 0 <= receiver < src.m:
        raise UnknownReceiver(f"receiver {receiver} outside 1..{src.m}")
    if ordering is None:
        ordering = (receiver, *[i for i in range(src.m) if i != receiver])
    ordering = tuple(ordering)
    if sorted(ordering) != list(range(src.m)) or ordering[0] != receiver:
        raise ConstraintViolation(
            f"ordering must be a permutation of the users starting at {receiver}")
    tracker = ff.RowSpace(src.N, src.p)
    selections: list[tuple[int, ...]] = [()] * src.m
    ranks: list[int] = []
    tracker.extend(src.matrices[receiver].to_rows())
    ranks.append(tracker.rank)
    for u in ordering[1:]:
        chosen = []
        for k, row in enumerate(src.matrices[u].to_rows()):
            if tracker.try_add(row):
                chosen.append(k)
        selections[u] = tuple(chosen)
        ranks.append(tracker.rank)
    rates = tuple(len(selections[i]) for i in range(src.m))
    return GreedySelection(ordering=ordering, selections=tuple(selections),
                           ranks=tuple(ranks), rates=rates)
