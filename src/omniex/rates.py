"""Optimal rate allocation for broadcast data exchange.

The cut-set region {R : R(S) >= H(X_S | X_{S^c})} is optimized through its
dual polyhedron: for a total budget beta the shifted cut function
f(S) = beta - H(X_{S^c} | X_S) is intersecting submodular, and a modified
greedy sweep (one constrained submodular minimization per user, visiting
users by ascending weight, in index order without weights) produces a
vertex of P(f, <=) whose coordinate sum equals the Dilworth truncation
value g(M, beta).

Three layers build on that sweep:

* the minimum sum rate is the smallest beta with g(M, beta) = beta, found
  by intersecting successive linear segments of the concave piecewise
  linear g (at most m steps);
* the weighted objective h(beta) = min sum(alpha_i R_i) over the budget-
  beta slice is convex piecewise linear; each sweep also reports its local
  segment R_i = b_i * beta + c_i, so the minimum is located by slope-sign
  bracketing plus one exact line intersection.  On a float oracle the
  bracket's lines take the weights times a power of two that brings the
  largest below 1, an exact scaling, so its DELTA comparisons mean the
  same at any weight scale;
* block-length-n solutions, for exact oracles only, round beta to the
  nearest feasible multiples of 1/n and keep the cheaper one.  The rates
  of a float oracle (a pmf source or a float table) are real numbers and
  lie on no 1/n lattice, so ``ilp_rates`` refuses it before any sweep.

One ``minimize_weighted`` or ``ilp_rates`` call sweeps each budget value
at most once: the points it probed live for that call (``ilp_rates``
reads the bracket's from ``WeightedResult.probes``) and never on the
oracle, which concurrent solvers share.  A budget probed again is
recalled, or rebuilt from its segment when it comes back as another type
(the cross Fraction(H(X_M)) after the int H(X_M)).  With int weights on
an exact budget a probe's cost is priced in integers from the sweep's
segment, with one Fraction at the end.

The bracket's top end, beta = H(X_M), is not swept on a linear or pmf
oracle.  There f(., beta) is the entropy function itself, so the sweep is
Edmonds' greedy: each user's minimizers join into its whole prefix, and
the point follows from the m prefix entropies H(P_j + j), fixed by the
sweep's own bookkeeping (``_greedy_top``), with no table.  A table oracle
keeps the sweep there: its entries can reach the library unchecked, and
the sweep's ``NonConvergence`` guard is what catches a table that is no
entropy function.  A weighted solve that probes the top thus reads
2^m - 1 fewer entropies (``calls``), while its ``evaluations`` count the
top as they count a recalled probe.

Each inner minimization is one scan, in whole-array numpy operations, of
a copy of the oracle's table of every H(X_S) (``EntropyOracle.array``)
made once per sweep with bit s of an index standing for the s-th user
visited.  Step s builds its keys in place in the copy's slice
[2^s, 2^(s+1)), the prefix's subsets joined with that user, from the
coordinate sums over the prefix, held in the spent slices below it, and
then doubles those sums over its own keys.  For an exact budget
beta = num/den the keys are the integers den * (f(S, beta) - Z(S)) less
a constant, and the tied indices, mapped to users, are OR-ed into the
union of the minimizers, so no Fraction is built per subset.  The
keys and the copy are int64 or Python ints (dtype object), decided once
per sweep: int64 when m^2 * (num + 2 * den * max|H|) stays below 2^62, a
bound on every key and subset sum the sweep can form, so linear sources
stay exact and never touch a float.  Float keys take the same step, with
every candidate within DELTA of the least key a minimizer, a rule that no
scan order decides; the chosen set's coefficients are summed member by
member, so printed floats do not move.
``verify_feasible`` likewise checks every cut at once against one
doubling table of rate sums, int64 (or Python ints) once exact rates are
scaled to their common denominator D, by the bound
D * max|H| + sum |D * R_i| < 2^62.  Above ``sources.TABLE_CAP`` users the
oracle refuses to build the table, so the sweep and the check raise
``TooLarge`` before any work.

The steps of a sweep read 1, 2, ..., 2^(m-1) candidate sets, so every
sweep counts 2^m - 1 evaluations, a complexity ceiling for its callers.

All functions here are pure computations over an immutable oracle (only
its memo cache mutates, safely for concurrent readers), so independent
solver calls may run concurrently on the same oracle.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleBeta,
    NonConvergence,
    NonIntegerRates,
    NonTermination,
    TooLarge,
)
from .setfun import (
    DELTA,
    Value,
    bit,
    check_costs,
    check_n,
    label,
    members,
    order_by_weight,
    value_eq,
    value_le,
    value_lt,
)
from .sources import INT64_SAFE, DmmsSource, EntropyOracle, LinearSource

MAX_WEIGHTED_ITERATIONS = 10_000
# A float bracket no wider than this ends on its cheaper endpoint.
FLOAT_BRACKET_WIDTH = 1e-9
PARTITION_FORMULA_CAP = 12


def _fold(values: Iterable[Value], start: Value = 0) -> Value:
    """start + v_1 + ..., added left to right; not ``sum()``, which from
    Python 3.12 compensates floats, so printed rates would vary by version."""
    for v in values:
        start = start + v
    return start


@dataclass(frozen=True)
class LinearSegment:
    """Affine map R_i = b_i * beta + c_i valid on one segment.

    sum(b) equals the size of the optimal partition at beta (the local
    slope of g); on the feasible range, where the partition is trivial,
    every segment therefore satisfies sum(b) == 1.
    """

    b: tuple[int, ...]
    c: tuple[Value, ...]

    def rates_at(self, beta: Value) -> tuple[Value, ...]:
        return tuple(bi * beta + ci for bi, ci in zip(self.b, self.c))

    def slope(self, alpha: Sequence[Value]) -> Value:
        return _fold(map(operator.mul, alpha, self.b))

    def intercept(self, alpha: Sequence[Value]) -> Value:
        return _fold(map(operator.mul, alpha, self.c))


@dataclass(frozen=True)
class RateVector:
    """Per-user broadcast rates with a tracked common denominator."""

    values: tuple[Value, ...]
    denominator: int = 1
    unit: str = ""

    @property
    def m(self) -> int:
        return len(self.values)

    def total(self) -> Value:
        return _fold(self.values)


@dataclass(frozen=True)
class PartitionResult:
    """A partition of the user set (block masks, ordered by lowest member)
    together with the partition value sum(f(V, beta))."""

    blocks: tuple[int, ...]
    g_value: Value

    @property
    def size(self) -> int:
        return len(self.blocks)

    def as_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(members(b) for b in self.blocks)


@dataclass(frozen=True)
class ModifiedEdmondResult:
    z: tuple[Value, ...]
    segment: LinearSegment
    tight_sets: tuple[int, ...]
    partition: PartitionResult
    g_value: Value
    evaluations: int


@dataclass(frozen=True)
class SumRateResult:
    value: Value
    rates: RateVector
    partition: PartitionResult
    iterations: int
    evaluations: int


@dataclass(frozen=True)
class HPoint:
    beta: Value
    value: Value
    rates: RateVector
    segment: LinearSegment


@dataclass(frozen=True)
class WeightedResult:
    beta_star: Value
    rates: RateVector
    cost: Value
    segment: LinearSegment
    iterations: int
    evaluations: int
    # The points the bracket swept, which ``ilp_rates`` recalls.
    probes: tuple[HPoint, ...] = field(default=(), repr=False, compare=False)


@dataclass(frozen=True)
class IlpResult:
    rates: RateVector
    cost: Value
    beta: Value
    gap_bound: Value
    # The sum-rate walk the solve used, passed in or run.
    rco: Optional[SumRateResult] = field(default=None, repr=False, compare=False)


def _zero(exact: bool) -> Value:
    return 0 if exact else 0.0


def _ratio(num: Value, den: Value, exact: bool) -> Value:
    """num / den, a Fraction on an exact path and a float otherwise."""
    return Fraction(num) / den if exact else num / den


def _sorted_blocks(blocks: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(blocks, key=lambda mask: (mask & -mask).bit_length()))


def _merge_block(blocks: list[int], new: int) -> None:
    merged = new
    keep = []
    for blk in blocks:
        if blk & new:
            merged |= blk
        else:
            keep.append(blk)
    keep.append(merged)
    blocks[:] = keep


class _Coordinates:
    """The coordinates of a greedy vertex at budget beta, fixed one user at
    a time from the union of that user's minimizers; the sweep and
    ``_greedy_top`` both fix them here, so their numbers agree to the type
    and the bit.  ``exact`` is the sweep's, num / den is beta on an exact
    budget (num = beta, den = 1 on a float one), and ``total`` is H(X_M),
    read by the caller."""

    __slots__ = ("oracle", "beta", "exact", "num", "den", "total", "b", "c", "z")

    def __init__(self, oracle: EntropyOracle, beta: Value, total: Value):
        self.oracle = oracle
        self.beta = beta
        self.exact = exact = oracle.exact and not isinstance(beta, float)
        self.num, self.den = (beta.numerator, beta.denominator) if exact else (beta, 1)
        self.total = total
        zero = _zero(exact)
        self.b = [0] * oracle.m
        self.c: list[Value] = [zero] * oracle.m
        self.z: list[Value] = [zero] * oracle.m

    def fix(self, j: int, union: int) -> Value:
        """Record user j's segment R_j = b_j * beta + c_j, taken from
        ``union`` (which holds j): b_j = 1 - b(union - j) and c_j =
        H(union) - H(M) - c(union - j), subtracted in ``members`` order,
        and set Z_j.  Returns den * Z_j, an integer, on an exact budget,
        and Z_j on a float one."""
        b, c = self.b, self.c
        bu = 1
        cu = self.oracle.entropy(union) - self.total
        for i in members(union & ~bit(j)):
            bu -= b[i]
            cu = cu - c[i]
        if self.exact:
            zj = bu * self.num + cu * self.den
            self.z[j] = Fraction(zj, self.den) if isinstance(self.beta, Fraction) else zj
        else:
            zj = self.z[j] = bu * self.beta + cu
        b[j], c[j] = bu, cu
        return zj

    def segment(self) -> LinearSegment:
        return LinearSegment(b=tuple(self.b), c=tuple(self.c))


def modified_edmond(oracle: EntropyOracle, beta: Value,
                    alpha: Optional[Sequence[Value]] = None) -> ModifiedEdmondResult:
    """One greedy sweep over f(., beta) with symbolic segment tracking.

    Visits users by ascending weight, which minimizes the weighted cost
    over the base polyhedron; ties, and a sweep without weights, go in
    index order, and without weights every order gives g(M, beta).  Sets
    Z_j to the constrained minimum of f(S, beta) - Z(S) over j in S within
    the visited prefix.  Each Z_j is recorded as an affine function of
    beta, taken from the maximal minimizer, so the result carries the
    local linear segment of g / h alongside the numbers.

    Ties in the inner minimization are resolved toward the union of all
    minimizers, which keeps the induced partition maximally merged and
    deterministic; on float keys every candidate within DELTA of the
    least key is a minimizer.  A float budget must be finite.
    """
    if isinstance(beta, float) and not math.isfinite(beta):
        raise InfeasibleBeta(f"beta = {beta} must be finite")
    if value_lt(beta, 0, oracle.exact and not isinstance(beta, float)):
        raise InfeasibleBeta(f"beta = {beta} must be nonnegative")
    m = oracle.m
    order = range(m) if alpha is None else order_by_weight(check_costs(alpha, m))

    # The sweep reads every nonempty subset, so it reads them from the table.
    table = oracle.array()
    peak = oracle.int64_peak
    coords = _Coordinates(oracle, beta, oracle.total())
    exact, num, den = coords.exact, coords.num, coords.den
    tight: list[int] = []
    blocks: list[int] = []
    # Keys are den * (f(S, beta) - Z(S)) - shift: integers for a linear
    # source, and the float value of f(S, beta) - Z(S) - shift otherwise.
    shift = num - coords.total * den
    # Exact keys are int64 when a bound, fixed before the first step, stays
    # below INT64_SAFE.  den * Z_j is the least den * f(S | j, beta) -
    # den * Z(S) over the prefix's subsets S.  Let h = max(max|H|, 1) and
    # U = num + 2 * den * h, where num >= 0.  S empty gives den * Z_j <=
    # num - den * H(M) + den * H({j}) <= U.  For the minimizer S, den * f >=
    # -U and the prefix sum den * Z(S) adds at most m - 1 earlier
    # coordinates, each at most U, so den * Z_j >= -m * U.  Hence every
    # prefix sum is within (m - 1) * m * U, and every key den * H -
    # den * Z(S), den itself and each den * Z_j stay within m * m * U.
    narrow = (exact and peak is not None
              and m * m * (num + 2 * den * max(peak, 1)) < INT64_SAFE)
    dtype = np.int64 if narrow else object if exact else np.float64
    # work[t] = H(t) with bit s of t standing for order[s], a private copy
    # (astype copies even the index order; numpy 1.24 allows 32 axes,
    # TABLE_CAP is 22).  Step s builds its keys in place in work[k:2k] and
    # then writes over them the doubled prefix sums den * Z(t): work[:k]
    # holds those of the visited prefix (work[0] = H(empty) = 0).
    work = table.reshape((2,) * m).transpose(
        [m - 1 - u for u in reversed(order)]).astype(dtype, order="C").reshape(-1)
    users = [bit(j) for j in order]
    ztotal = 0

    for s, j in enumerate(order):
        k = 1 << s
        keys = work[k:2 * k]
        oracle.calls += k   # one ``entropy`` call per set read
        np.multiply(keys, den, out=keys)
        np.subtract(keys, work[:k], out=keys)
        best = np.minimum.reduce(keys)
        tied = keys == best if exact else keys <= best + DELTA
        ties = int(np.bitwise_or.reduce(tied.nonzero()[0])) | k
        union = 0
        while ties:   # each tied position's user, lowest position first
            low = ties & -ties
            union |= users[low.bit_length() - 1]
            ties ^= low
        zj = coords.fix(j, union)
        if exact:
            if zj != (int(best) if narrow else best) + shift:
                raise NonConvergence(
                    "union of minimizers is not a minimizer; the oracle violates "
                    "intersecting submodularity")
            ztotal = ztotal + zj
        tight.append(union)
        _merge_block(blocks, union)
        if s < m - 1:   # the last user's doubling would go unread
            np.add(work[:k], zj, out=keys)

    if exact:
        g_value = Fraction(ztotal, den) if isinstance(beta, Fraction) else ztotal
    else:
        g_value = _fold(coords.z, 0.0)
    partition = PartitionResult(blocks=_sorted_blocks(blocks), g_value=g_value)
    return ModifiedEdmondResult(
        z=tuple(coords.z), segment=coords.segment(), tight_sets=tuple(tight),
        partition=partition, g_value=g_value, evaluations=oracle.full_mask)


def rco_sum_rate(oracle: EntropyOracle) -> SumRateResult:
    """Minimum sum rate for omniscience plus an achieving rate vector.

    Walks the concave piecewise linear g(M, beta) from beta = 0: each step
    intersects the current segment's line with the 45-degree line, which
    lands on a segment strictly to the right, so at most m steps reach the
    breakpoint where the optimal partition collapses to {M}.  Returns the
    last non-trivial partition, whose size determines the exact
    denominator of the result.
    """
    exact = oracle.exact
    beta: Value = _zero(exact)
    iterations = 0
    result = modified_edmond(oracle, beta)
    last_nontrivial = result.partition
    while result.partition.size > 1:
        iterations += 1
        if iterations > oracle.m:
            raise NonTermination(
                f"sum-rate iteration exceeded {oracle.m} steps; the entropy "
                f"oracle is not behaving submodularly")
        last_nontrivial = result.partition
        # Line intersection with the 45-degree segment: the current segment
        # of g has value |P|*beta - sum over blocks of H(X_{S^c} | X_S).
        num = _fold((oracle.total() - oracle.entropy(blk)
                     for blk in result.partition.blocks), _zero(exact))
        k = result.partition.size
        beta = _ratio(num, k - 1, exact)
        result = modified_edmond(oracle, beta)
    # The same call as the walk's last sweep; it stays while the pinned
    # query counters and the golden sfm_evaluations count it.
    final = modified_edmond(oracle, beta)
    rates = RateVector(values=final.z, denominator=1, unit=oracle.unit)
    # iterations + 2 sweeps, each counting 2^m - 1 evaluations.
    return SumRateResult(value=beta, rates=rates, partition=last_nontrivial,
                         iterations=iterations,
                         evaluations=(iterations + 2) * oracle.full_mask)


def rco_partition_formula(oracle: EntropyOracle) -> Value:
    """Independent minimum-sum-rate oracle by partition enumeration:
    H(X_M) - min over partitions with at least two blocks of
    (sum of block entropies - H(X_M)) / (number of blocks - 1).
    """
    m = oracle.m
    if m > PARTITION_FORMULA_CAP:
        raise TooLarge(f"partition enumeration capped at m={PARTITION_FORMULA_CAP}")
    total = oracle.total()
    best: Value | None = None

    def recurse(i: int, blocks: list[int]):
        nonlocal best
        if i == m:
            if len(blocks) < 2:
                return
            s = _fold(map(oracle.entropy, blocks), _zero(oracle.exact))
            cand = _ratio(s - total, len(blocks) - 1, oracle.exact)
            if best is None or cand < best:
                best = cand
            return
        e = bit(i)
        for k in range(len(blocks)):
            blocks[k] |= e
            recurse(i + 1, blocks)
            blocks[k] &= ~e
        blocks.append(e)
        recurse(i + 1, blocks)
        blocks.pop()

    if m == 1:
        return _zero(oracle.exact)
    recurse(1, [bit(0)])
    assert best is not None
    return total - best


def h_eval(oracle: EntropyOracle, alpha: Sequence[Value], beta: Value) -> HPoint:
    """Minimum weighted cost at total rate exactly beta.

    Runs the ascending-weight sweep; the output lies in the budget-beta
    base polyhedron iff its coordinate sum equals beta, which fails
    exactly when beta is below the minimum sum rate.  With int weights on
    an exact budget num/den the cost is priced from the sweep's den-scaled
    coordinates b_i * num + c_i * den, summed as integers, then made one
    Fraction for a Fraction budget.  Other weights sum alpha_i * R_i left
    to right.
    """
    result = modified_edmond(oracle, beta, alpha)
    exact = oracle.exact and not isinstance(beta, float)
    if not value_eq(result.g_value, beta, exact):
        raise InfeasibleBeta(
            f"total rate {beta} is below the minimum sum rate "
            f"(achievable maximum is {result.g_value})")
    return _point(alpha, beta, result.z, result.segment, oracle.unit, exact)


def _point(alpha: Sequence[Value], beta: Value, z: tuple[Value, ...],
           segment: LinearSegment, unit: str, exact: bool) -> HPoint:
    """The point of h at beta for the sweep output z, priced by alpha."""
    if exact and all(type(a) is int for a in alpha):
        # den * R_i = b_i * num + c_i * den, so den * cost is num times
        # the segment's slope plus den times its intercept.
        num, den = beta.numerator, beta.denominator
        cost = segment.slope(alpha) * num + segment.intercept(alpha) * den
        if isinstance(beta, Fraction):
            cost = Fraction(cost, den)
    else:
        cost = _fold(map(operator.mul, alpha, z), _zero(exact))
    return HPoint(beta=beta, value=cost, rates=RateVector(values=z, unit=unit),
                  segment=segment)


def _greedy_top(oracle: EntropyOracle, alpha: Sequence[Value]) -> HPoint:
    """h at beta = H(X_M), from m prefix entropies: the point that
    ``h_eval`` returns there, for an oracle that is an entropy function.

    At that budget f(S, beta) = H(X_S), a polymatroid rank function, so the
    ascending-weight sweep is Edmonds' greedy.  Let P be the users visited
    before j, each i in P fixed at Z_i = H(P_i + i) - H(P_i) from its own
    prefix P_i, so that Z(P) = H(P).  For S a subset of P, submodularity
    gives H(P + j) - H(S + j) <= Z(P - S): add the users of P - S to S + j
    in visiting order, and each adds at most its Z_i.  So f(S + j) - Z(S)
    >= f(P + j) - Z(P): P is a minimizer, and as every candidate lies
    within P, the union of the minimizers is P + j and Z_j = H(P + j) -
    H(P).  On float entropies P's key is within rounding of the least, so
    the DELTA tie rule gives the same union.  The coordinates are fixed
    from these unions by the sweep's own ``_Coordinates``, so the numbers
    equal the sweep's.
    """
    beta = oracle.total()
    coords = _Coordinates(oracle, beta, beta)
    prefix = 0
    for j in order_by_weight(alpha):
        prefix |= bit(j)
        coords.fix(j, prefix)
    return _point(alpha, beta, tuple(coords.z), coords.segment(), oracle.unit,
                  coords.exact)


def _probe(oracle: EntropyOracle, alpha: Sequence[Value], beta: Value,
           seen: dict[Value, HPoint]) -> HPoint:
    """``h_eval`` at beta, sweeping each budget value once per solve.

    ``seen`` maps each budget that this solve swept to its point.  A budget
    equal to a swept one but of another type or sign, such as Fraction(3)
    after the int 3, takes the same sweep; only the types of its numbers
    differ, so they are rebuilt from the segment at the budget asked for.
    """
    pt = seen.get(beta)
    if pt is None:
        pt = seen[beta] = h_eval(oracle, alpha, beta)
    elif repr(pt.beta) != repr(beta):
        pt = _point(alpha, beta, pt.segment.rates_at(beta), pt.segment,
                    oracle.unit, oracle.exact and not isinstance(beta, float))
    return pt


def minimize_weighted(oracle: EntropyOracle, alpha: Sequence[Value],
                      rco: Optional[SumRateResult] = None) -> WeightedResult:
    """Minimize the convex piecewise linear h(beta) over the bracket
    [minimum sum rate, H(X_M)] by slope-sign bracketing.

    Each probe returns the local segment, so the candidate minimizer is
    the exact intersection of the bracketing segment lines; the loop stops
    once the probe's own line meets the lower line there, which certifies
    a kink with a sign change.  On an exact oracle the lines take each
    float weight as the binary rational it holds, so every comparison is
    exact.  On a float oracle they take the weights times 2^-e, where
    2^(e-1) <= max(alpha) < 2^e: scaling by a power of two is exact, so
    the crossings are those of the caller's weights, while the float tie
    rule's DELTA compares lines of one scale whatever the weights'.  The
    float bracket also stops once no wider than ``FLOAT_BRACKET_WIDTH``
    and returns the cheaper endpoint.  h and the cost keep the caller's
    weights.

    Each budget value is swept once; a probe at a budget already probed
    (the cross landing on H(X_M) or on an end of the bracket) is recalled.
    On a linear or pmf oracle the top end H(X_M) is not swept but built by
    ``_greedy_top`` from m prefix entropies, the same point, so a solve
    that probes it makes 2^m - 1 fewer ``calls``; a table oracle sweeps it,
    which checks the table there.  ``evaluations`` counts every probe,
    recalled and greedy ones included, and the result's ``probes`` holds
    the points swept or built.
    """
    alpha = check_costs(alpha, oracle.m)
    if rco is None:
        rco = rco_sum_rate(oracle)
    evaluations = rco.evaluations
    exact = oracle.exact
    if exact:
        lines = tuple(Fraction(a) if isinstance(a, float) else a for a in alpha)
    else:
        shift = -math.frexp(max(alpha))[1]
        lines = tuple(math.ldexp(a, shift) for a in alpha)

    seen: dict[Value, HPoint] = {}

    def probe(beta: Value) -> tuple[HPoint, Value, Value]:
        """h at beta, with the slope and intercept of its segment."""
        nonlocal evaluations
        pt = _probe(oracle, alpha, beta, seen)
        evaluations += oracle.full_mask
        return pt, pt.segment.slope(lines), pt.segment.intercept(lines)

    def result(pt: HPoint, iterations: int) -> WeightedResult:
        return WeightedResult(beta_star=pt.beta, rates=pt.rates, cost=pt.value,
                              segment=pt.segment, iterations=iterations,
                              evaluations=evaluations,
                              probes=tuple(seen.values()))

    lo, hi = rco.value, oracle.total()
    lo_pt, lo_slope, lo_int = probe(lo)
    if not value_lt(lo_slope, 0, exact) or value_eq(lo, hi, exact):
        return result(lo_pt, 0)
    if isinstance(oracle.source, (LinearSource, DmmsSource)):
        # An entropy function by construction: its top is the greedy vertex.
        seen[hi] = _greedy_top(oracle, alpha)
    hi_pt, hi_slope, hi_int = probe(hi)
    if value_le(hi_slope, 0, exact):
        # h is nonincreasing on the whole bracket.
        return result(hi_pt, 0)

    for iterations in range(1, MAX_WEIGHTED_ITERATIONS + 1):
        if not exact and hi - lo <= FLOAT_BRACKET_WIDTH:
            return result(lo_pt if lo_pt.value <= hi_pt.value else hi_pt, iterations)
        cross = min(max(_ratio(hi_int - lo_int, lo_slope - hi_slope, exact), lo), hi)
        pt, slope, intercept = probe(cross)
        if value_eq(slope * cross + intercept, lo_slope * cross + lo_int, exact):
            # Two supporting lines of opposite slope meet on the graph of h:
            # this kink is the global minimum.
            return result(pt, iterations)
        if value_lt(slope, 0, exact):
            lo, lo_pt, lo_slope, lo_int = cross, pt, slope, intercept
        else:
            hi, hi_pt, hi_slope, hi_int = cross, pt, slope, intercept
    raise NonConvergence("weighted minimization exceeded its iteration budget")


def ilp_rates(oracle: EntropyOracle, alpha: Sequence[Value], n: int,
              rco: Optional[SumRateResult] = None) -> IlpResult:
    """Best rate vector whose entries are multiples of 1/n, on an exact
    oracle.

    Restricting the budget to multiples of 1/n makes every sweep output a
    multiple of 1/n as well, so it suffices to compare h at the floor and
    ceiling roundings of the unconstrained optimum, clamped upward to the
    rounded-up minimum sum rate.  The cost exceeds the unconstrained
    optimum by at most max(alpha)/n.  A candidate budget that the
    weighted bracket already probed is recalled from its ``probes``, not
    swept again.  The result's ``rco`` is the sum-rate walk used, passed
    in or run.  Refused in order, before the walk: n, the weights, and a
    float oracle, after its table's cap, with ``NonIntegerRates``: its
    rates are real numbers, not multiples of 1/n.
    """
    check_n(n)
    alpha = check_costs(alpha, oracle.m)
    if not oracle.exact:
        oracle._check_cap()
        raise NonIntegerRates(
            f"ilp needs exact entropies (a linear source or an exact table): "
            f"the rates of a pmf source or of a float table are real numbers, "
            f"which the 1/{n} lattice does not hold")
    if rco is None:
        rco = rco_sum_rate(oracle)
    weighted = minimize_weighted(oracle, alpha, rco=rco)

    lower = Fraction(math.ceil(rco.value * n), n)
    star = weighted.beta_star * n
    candidates = sorted({max(Fraction(k, n), lower)
                         for k in (math.floor(star), math.ceil(star))})
    seen = {pt.beta: pt for pt in weighted.probes}
    # Ties keep the smaller budget, the first in the sorted order.
    best = min((_probe(oracle, alpha, cand, seen) for cand in candidates),
               key=lambda pt: pt.value)
    bad = [v for v in best.rates.values if (n * Fraction(v)).denominator != 1]
    if bad:
        # Each rate is an integer combination of the budget, a multiple of
        # 1/n, and of entropies, so only a fractional entropy explains it.
        for s in range(1, oracle.full_mask + 1):
            h = oracle.entropy(s)
            if (n * Fraction(h)).denominator != 1:
                need = (f"ilp at n={n} needs every entropy to be a multiple of "
                        f"1/{n}: H({label(s)})")
                try:
                    shown = f"{need} = {h}"
                except ValueError:
                    # Python prints no integer past its digit limit.
                    shown = (f"{need} is not, and its numerator or denominator "
                             f"has more than {sys.get_int_max_str_digits()} digits")
                raise NonIntegerRates(shown)
        raise NonConvergence(f"rate {bad[0]} is not a multiple of 1/{n}")
    rates = RateVector(values=best.rates.values, denominator=n, unit=oracle.unit)
    amax = max(alpha)
    return IlpResult(rates=rates, cost=best.value, beta=best.beta,
                     gap_bound=_ratio(amax, n, not isinstance(amax, float)), rco=rco)


def verify_feasible(oracle: EntropyOracle, rates: RateVector) -> bool:
    """Check R(S) >= H(X_S | X_{S^c}) for every nonempty proper subset.

    The rates are summed over all subsets in one doubling table, so each
    cut is the comparison (H(X_M) - H(X_{S^c})) * D <= D * R(S), made for
    every cut at once against the oracle's table.  Exact rates are scaled
    to their common denominator D and summed as integers: in int64 while
    D * max|H| + sum |D * R_i| stays below 2^62, and as Python ints
    otherwise.  Float rates on a pmf oracle are summed in float64, and any
    other mix as Python numbers; there D = 1 and each R(S) is summed from 0
    in ascending member order.
    """
    if rates.m != oracle.m:
        raise DimensionMismatch(
            f"rate vector has {rates.m} entries, expected {oracle.m}")
    table = oracle.array()
    exact = oracle.exact
    full = oracle.full_mask
    values = rates.values
    if exact and not any(isinstance(v, float) for v in values):
        scale = math.lcm(*(v.denominator for v in values))
        steps = [v.numerator * (scale // v.denominator) for v in values]
        peak = oracle.int64_peak
        narrow = (peak is not None
                  and scale * max(peak, 1) + sum(map(abs, steps)) < INT64_SAFE)
        dtype = np.int64 if narrow else object
    else:
        scale, steps = 1, values
        floats = table.dtype == np.float64 and all(type(v) is float for v in values)
        dtype = np.float64 if floats else object
    sums = np.zeros(full + 1, dtype=dtype)   # sums[S] = D * R(S), user i on bit i
    k = 1
    for r in steps:
        np.add(sums[:k], r, out=sums[k:2 * k])
        k *= 2
    # H(X_{S^c}) for S = 1 .. full - 1, whose complements run full - 1 .. 1.
    need = table[full - 1:0:-1].astype(dtype)
    np.multiply(need, scale, out=need)
    np.subtract(oracle.total() * scale, need, out=need)
    have = sums[1:full]
    return bool(np.all(need <= have if exact else need <= have + DELTA))
