"""Optimal rate allocation for broadcast data exchange.

The cut-set region {R : R(S) >= H(X_S | X_{S^c})} is optimized through its
dual polyhedron: for a total budget beta the shifted cut function
f(S) = beta - H(X_{S^c} | X_S) is intersecting submodular, and a modified
greedy sweep (one constrained submodular minimization per user) produces a
vertex of P(f, <=) whose coordinate sum equals the Dilworth truncation
value g(M, beta).

Three layers build on that sweep:

* the minimum sum rate is the smallest beta with g(M, beta) = beta, found
  by intersecting successive linear segments of the concave piecewise
  linear g (at most m steps);
* the weighted objective h(beta) = min sum(alpha_i R_i) over the budget-
  beta slice is convex piecewise linear; each sweep also reports its local
  segment R_i = b_i * beta + c_i, so the minimum is located by slope-sign
  bracketing plus one exact line intersection;
* block-length-n solutions round beta to the nearest feasible multiples of
  1/n and keep the cheaper one.

Each inner minimization is one scan over subset sums, run as whole-array
numpy operations on the oracle's table of every H(X_S), one array indexed
by mask (``EntropyOracle.array``).  As each user is fixed, the sums of
the coordinates found so far are extended to the visited prefix by
doubling, one vectorised addition; the OR of the prefix masks with the
new user, written into the same buffer, gives both the masks read at this
step and the next doubling.  For an exact budget beta = num/den the
candidates are compared by integer keys, den * (f(S, beta) - Z(S)) less a
constant, and the minimizers are OR-ed into their union, so no Fraction
is built per subset.  The keys are int64 or Python ints (dtype object),
decided once per sweep before its first step: int64 when
m^2 * (num + 2 * den * max|H|) stays below 2^62, a bound on every key and
subset sum the sweep can form, so linear sources stay exact and never
touch a float.  Float oracles use the same tables under the DELTA
tie rule, vectorised over the ``iter_submasks`` scan order with the
scalar scan's IEEE comparisons; the chosen set's coefficients are summed
member by member as before, so printed floats do not move.
``verify_feasible`` likewise checks every cut at once against one
doubling table of rate sums, int64 (or Python ints) once exact rates are
scaled to their common denominator D, by the bound
D * max|H| + sum |D * R_i| < 2^62.  Above ``sources.TABLE_CAP`` users the
oracle refuses to build the table, so the sweep and the check raise
``TooLarge`` before any work.

Every sweep records how many candidate sets its inner minimizations
evaluated, which callers use as a complexity regression ceiling.

All functions here are pure computations over an immutable oracle (only
its memo cache mutates, safely for concurrent readers), so independent
solver calls may run concurrently on the same oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleBeta,
    InvalidN,
    NonConvergence,
    NonTermination,
    TooLarge,
)
from .setfun import (
    DELTA,
    Value,
    bit,
    check_costs,
    members,
    order_by_weight,
    value_eq,
    value_le,
    value_lt,
)
from .sources import INT64_SAFE, EntropyOracle

MAX_WEIGHTED_ITERATIONS = 10_000
PARTITION_FORMULA_CAP = 12


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
        total = 0
        for a, bi in zip(alpha, self.b):
            total = total + a * bi
        return total

    def intercept(self, alpha: Sequence[Value]) -> Value:
        total = 0
        for a, ci in zip(alpha, self.c):
            total = total + a * ci
        return total


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
        total = 0
        for v in self.values:
            total = total + v
        return total


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
    evaluations: int


@dataclass(frozen=True)
class WeightedResult:
    beta_star: Value
    rates: RateVector
    cost: Value
    segment: LinearSegment
    iterations: int
    evaluations: int


@dataclass(frozen=True)
class IlpResult:
    rates: RateVector
    cost: Value
    beta: Value
    gap_bound: Value


def _zero(exact: bool) -> Value:
    return 0 if exact else 0.0


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


def _widened_union(subs: np.ndarray, keys: np.ndarray) -> int:
    """Union of the float minimizers, widened by DELTA ties as the keys are
    scanned in ``iter_submasks`` order (descending masks).

    The scan tracks the running minimum of the keys seen so far (a NaN
    key leaves it as it is; a NaN first key makes it NaN for good).  A key
    more than DELTA below it restarts the union, and a later key within
    DELTA of it joins, so the union is the last restart's set OR-ed with
    every joining set after it.  The comparisons are the scalar scan's,
    in the same IEEE arithmetic.
    """
    order = np.argsort(subs)[::-1]
    sub, v = subs[order], keys[order]
    if v[0] != v[0]:
        return int(sub[0])
    prev = np.empty_like(v)
    prev[0] = np.inf
    np.fmin.accumulate(v[:-1], out=prev[1:])
    restart = v < prev - DELTA
    restart[0] = True
    r = int(np.flatnonzero(restart)[-1])
    joins = v[r + 1:] <= prev[r + 1:] + DELTA
    return int(sub[r] | np.bitwise_or.reduce(sub[r + 1:][joins]))


def _int64_peak(values: np.ndarray) -> Optional[int]:
    """max |value| of an int64 array; None for any other dtype."""
    if values.dtype != np.int64:
        return None
    return max(int(values.max()), -int(values.min()))


def modified_edmond(oracle: EntropyOracle, beta: Value,
                    alpha: Optional[Sequence[Value]] = None,
                    ordering: str = "descending",
                    unit: Optional[str] = None) -> ModifiedEdmondResult:
    """One greedy sweep over f(., beta) with symbolic segment tracking.

    Visits users ordered by weight (descending for maximization over
    P(f,<=), ascending for minimization over the base polyhedron) and sets
    Z_j to the constrained minimum of f(S, beta) - Z(S) over j in S within
    the visited prefix.  Each Z_j is recorded as an affine function of
    beta, taken from the maximal minimizer, so the result carries the
    local linear segment of g / h alongside the numbers.

    Ties in the inner minimization are resolved toward the union of all
    minimizers, which keeps the induced partition maximally merged and
    deterministic.
    """
    oracle.check_unit(unit)
    if value_lt(beta, 0, oracle.exact and not isinstance(beta, float)):
        raise InfeasibleBeta(f"beta = {beta} must be nonnegative")
    m = oracle.m
    if alpha is None:
        alpha = (1,) * m
    alpha = check_costs(alpha, m)
    if ordering == "descending":
        order = order_by_weight(alpha, descending=True)
    elif ordering == "ascending":
        order = order_by_weight(alpha, descending=False)
    else:
        raise ValueError(f"ordering must be 'descending' or 'ascending', got {ordering!r}")

    # The sweep reads every nonempty subset, so it reads them from the table.
    peak = _int64_peak(oracle.array())
    exact = oracle.exact and not isinstance(beta, float)
    total = oracle.total()
    zero = _zero(exact)
    b_coef = [0] * m
    c_coef: list[Value] = [zero] * m
    z: list[Value] = [zero] * m
    tight: list[int] = []
    blocks: list[int] = []
    evaluations = 0
    # Keys are den * (f(S, beta) - Z(S)) - shift: integers for a linear
    # source, and the float value of f(S, beta) - Z(S) - shift otherwise.
    num, den = (beta.numerator, beta.denominator) if exact else (beta, 1)
    shift = num - total * den
    # Subset sums over the visited prefix, doubled as each user is fixed:
    # subs[i] is a submask of the prefix and zsum[i] = den * Z(subs[i]).
    # Exact keys are int64 when a bound, fixed before the first step, stays
    # below INT64_SAFE.  den * Z_j is the least den * f(S | j, beta) - zsum
    # over the prefix's subsets S.  Let h = max(max|H|, 1) and U = num +
    # 2 * den * h, where num >= 0.  S empty gives den * Z_j <= num -
    # den * H(M) + den * H({j}) <= U.  For the minimizer S, den * f >= -U
    # and zsum sums at most m - 1 earlier coordinates, each at most U, so
    # den * Z_j >= -m * U.  Hence |zsum| <= (m - 1) * m * U, and every key
    # den * H - zsum, den itself and each den * Z_j stay within m * m * U.
    narrow = (exact and peak is not None
              and m * m * (num + 2 * den * max(peak, 1)) < INT64_SAFE)
    subs = np.zeros(1 << m, dtype=np.int64)
    zsum = np.zeros(1 << (m - 1),
                    dtype=np.int64 if narrow else object if exact else np.float64)
    ztotal = 0
    k = 1

    for j in order:
        bj = bit(j)
        cands = subs[:k]
        # The sets read now are the next doubling of subs.
        heights = oracle.gather(np.bitwise_or(cands, bj, out=subs[k:2 * k]))
        evaluations += k
        # heights is a fresh array: the keys are built in it, in zsum's dtype.
        keys = heights.astype(zsum.dtype, copy=False)
        np.multiply(keys, den, out=keys)
        np.subtract(keys, zsum[:k], out=keys)
        if exact:
            best = np.minimum.reduce(keys)
            best = int(best) if narrow else best
            union = int(np.bitwise_or.reduce(cands[keys == best])) | bj
        else:
            union = _widened_union(cands, keys) | bj
        rest = union & ~bj
        bu = 1
        cu = oracle.entropy(union) - total
        for i in members(rest):
            bu -= b_coef[i]
            cu = cu - c_coef[i]
        if exact:
            zj = bu * num + cu * den
            if zj != best + shift:
                raise NonConvergence(
                    "union of minimizers is not a minimizer; the oracle violates "
                    "intersecting submodularity")
            z[j] = Fraction(zj, den) if isinstance(beta, Fraction) else zj
            ztotal = ztotal + zj
        else:
            zj = z[j] = bu * beta + cu
        b_coef[j], c_coef[j] = bu, cu
        tight.append(union)
        _merge_block(blocks, union)
        if len(tight) < m:   # the last user's doubling would go unread
            np.add(zsum[:k], zj, out=zsum[k:2 * k])
            k *= 2

    if exact:
        g_value = Fraction(ztotal, den) if isinstance(beta, Fraction) else ztotal
    else:
        g_value = zero
        for v in z:
            g_value = g_value + v
    partition = PartitionResult(blocks=_sorted_blocks(blocks), g_value=g_value)
    segment = LinearSegment(b=tuple(b_coef), c=tuple(c_coef))
    return ModifiedEdmondResult(
        z=tuple(z), segment=segment, tight_sets=tuple(tight),
        partition=partition, g_value=g_value, evaluations=evaluations)


def optimal_partition(oracle: EntropyOracle, beta: Value) -> PartitionResult:
    """Partition of the user set minimizing sum(f(V, beta)) over blocks.

    Built from the greedy sweep by merging each step's minimizer with the
    blocks it touches; the value equals the Dilworth truncation g(M, beta).
    """
    return modified_edmond(oracle, beta).partition


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
    evaluations = 0
    iterations = 0
    last_nontrivial: Optional[PartitionResult] = None
    result = modified_edmond(oracle, beta)
    evaluations += result.evaluations
    while result.partition.size > 1:
        iterations += 1
        if iterations > oracle.m:
            raise NonTermination(
                f"sum-rate iteration exceeded {oracle.m} steps; the entropy "
                f"oracle is not behaving submodularly")
        last_nontrivial = result.partition
        # Line intersection with the 45-degree segment: the current segment
        # of g has value |P|*beta - sum over blocks of H(X_{S^c} | X_S).
        num = _zero(exact)
        for blk in result.partition.blocks:
            num = num + (oracle.total() - oracle.entropy(blk))
        k = result.partition.size
        beta = Fraction(num) / (k - 1) if exact else num / (k - 1)
        result = modified_edmond(oracle, beta)
        evaluations += result.evaluations

    if last_nontrivial is None:
        last_nontrivial = result.partition
    final = modified_edmond(oracle, beta, ordering="ascending")
    evaluations += final.evaluations
    rates = RateVector(values=final.z, denominator=1, unit=oracle.unit)
    return SumRateResult(value=beta, rates=rates, partition=last_nontrivial,
                         iterations=iterations, evaluations=evaluations)


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
            s = _zero(oracle.exact)
            for blk in blocks:
                s = s + oracle.entropy(blk)
            diff = s - total
            if oracle.exact:
                cand = Fraction(diff) / (len(blocks) - 1)
            else:
                cand = diff / (len(blocks) - 1)
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


def h_eval(oracle: EntropyOracle, alpha: Sequence[Value], beta: Value,
           unit: Optional[str] = None) -> HPoint:
    """Minimum weighted cost at total rate exactly beta.

    Runs the ascending-weight sweep; the output lies in the budget-beta
    base polyhedron iff its coordinate sum equals beta, which fails
    exactly when beta is below the minimum sum rate.
    """
    result = modified_edmond(oracle, beta, alpha, ordering="ascending", unit=unit)
    exact = oracle.exact and not isinstance(beta, float)
    if not value_eq(result.g_value, beta, exact):
        raise InfeasibleBeta(
            f"total rate {beta} is below the minimum sum rate "
            f"(achievable maximum is {result.g_value})")
    cost = _zero(exact)
    for a, r in zip(alpha, result.z):
        cost = cost + a * r
    rates = RateVector(values=result.z, denominator=1, unit=oracle.unit)
    return HPoint(beta=beta, value=cost, rates=rates, segment=result.segment,
                  evaluations=result.evaluations)


def minimize_weighted(oracle: EntropyOracle, alpha: Sequence[Value],
                      tolerance: float = 1e-9,
                      rco: Optional[SumRateResult] = None) -> WeightedResult:
    """Minimize the convex piecewise linear h(beta) over the bracket
    [minimum sum rate, H(X_M)] by slope-sign bracketing.

    Each probe returns the local segment, so the candidate minimizer is
    the exact intersection of the bracketing segment lines; the loop stops
    once h at the intersection matches the intersection value, which
    certifies a kink with a sign change.  Exact for rational oracles; for
    float oracles the bracket is additionally stopped at ``tolerance``
    width and the better endpoint returned.
    """
    alpha = check_costs(alpha, oracle.m)
    if rco is None:
        rco = rco_sum_rate(oracle)
    evaluations = rco.evaluations
    exact = oracle.exact

    def probe(beta: Value) -> tuple[HPoint, Value, Value]:
        """h at beta, with the slope and intercept of its segment."""
        nonlocal evaluations
        pt = h_eval(oracle, alpha, beta)
        evaluations += pt.evaluations
        return pt, pt.segment.slope(alpha), pt.segment.intercept(alpha)

    def result(pt: HPoint, iterations: int) -> WeightedResult:
        return WeightedResult(beta_star=pt.beta, rates=pt.rates, cost=pt.value,
                              segment=pt.segment, iterations=iterations,
                              evaluations=evaluations)

    lo, hi = rco.value, oracle.total()
    lo_pt, lo_slope, lo_int = probe(lo)
    if not value_lt(lo_slope, 0, exact) or value_eq(lo, hi, exact):
        return result(lo_pt, 0)
    hi_pt, hi_slope, hi_int = probe(hi)
    if value_le(hi_slope, 0, exact):
        # h is nonincreasing on the whole bracket.
        return result(hi_pt, 0)

    for iterations in range(1, MAX_WEIGHTED_ITERATIONS + 1):
        if not exact and hi - lo <= tolerance:
            return result(lo_pt if lo_pt.value <= hi_pt.value else hi_pt, iterations)
        if exact:
            cross = Fraction(hi_int - lo_int) / Fraction(lo_slope - hi_slope)
        else:
            cross = (hi_int - lo_int) / (lo_slope - hi_slope)
        cross = min(max(cross, lo), hi)
        pt, slope, intercept = probe(cross)
        if value_eq(pt.value, lo_slope * cross + lo_int, exact):
            # Two supporting lines of opposite slope meet on the graph of h:
            # this kink is the global minimum.
            return result(pt, iterations)
        if value_lt(slope, 0, exact):
            lo, lo_pt, lo_slope, lo_int = cross, pt, slope, intercept
        else:
            hi, hi_pt, hi_slope, hi_int = cross, pt, slope, intercept
    raise NonConvergence("weighted minimization exceeded its iteration budget")


def _snap_scaled(value: Value, n: int, exact: bool) -> Value:
    """n * value with float noise snapped to the nearest integer."""
    scaled = value * n
    if not exact:
        nearest = round(scaled)
        if abs(scaled - nearest) <= DELTA * max(1.0, abs(nearest)):
            return nearest
    return scaled


def ilp_rates(oracle: EntropyOracle, alpha: Sequence[Value], n: int,
              rco: Optional[SumRateResult] = None,
              tolerance: float = 1e-9) -> IlpResult:
    """Best rate vector whose entries are multiples of 1/n.

    Restricting the budget to multiples of 1/n makes every sweep output a
    multiple of 1/n as well, so it suffices to compare h at the floor and
    ceiling roundings of the unconstrained optimum, clamped upward to the
    rounded-up minimum sum rate.  The cost exceeds the unconstrained
    optimum by at most max(alpha)/n.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidN(f"block length n must be a positive integer, got {n!r}")
    alpha = check_costs(alpha, oracle.m)
    if rco is None:
        rco = rco_sum_rate(oracle)
    weighted = minimize_weighted(oracle, alpha, tolerance=tolerance, rco=rco)
    exact = oracle.exact

    lower_scaled = _snap_scaled(rco.value, n, exact)
    lower = Fraction(math.ceil(lower_scaled), n) if exact else math.ceil(lower_scaled) / n
    star_scaled = _snap_scaled(weighted.beta_star, n, exact)
    if exact:
        candidates = {Fraction(math.floor(star_scaled), n),
                      Fraction(math.ceil(star_scaled), n)}
    else:
        candidates = {math.floor(star_scaled) / n, math.ceil(star_scaled) / n}
    candidates = sorted({max(c, lower) for c in candidates})

    best: Optional[HPoint] = None
    for cand in candidates:
        pt = h_eval(oracle, alpha, cand)
        if best is None or value_lt(pt.value, best.value, exact) or (
                value_eq(pt.value, best.value, exact) and cand < best.beta):
            best = pt
    assert best is not None
    if exact:
        for v in best.rates.values:
            if (n * Fraction(v)).denominator != 1:
                raise NonConvergence(f"rate {v} is not a multiple of 1/{n}")
    rates = RateVector(values=best.rates.values, denominator=n, unit=oracle.unit)
    amax = max(alpha)
    gap_bound = amax / n if isinstance(amax, float) else Fraction(amax) / n
    return IlpResult(rates=rates, cost=best.value, beta=best.beta,
                     gap_bound=gap_bound)


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
        peak = _int64_peak(table)
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
