"""Brute-force and independent reference oracles that check the solvers:
set-function enumerations, the sweep over a raw set function, the joint
pmf of a small linear source and the multicast transfer-matrix view with
its product, determinant and inverse over F_p (``matmul``, ``det``,
``inverse``).  No solver calls this module; the tests and ``selfcheck`` do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import field as ff
from .errors import (
    ConstraintViolation,
    DimensionMismatch,
    InfeasibleRates,
    TooLarge,
    ValidationError,
    ZeroInverse,
)
from .netcode import TransmissionScheme, _check_user, _integer_tx_counts
from .rates import (
    PartitionResult,
    RateVector,
    _fold,
    _merge_block,
    _sorted_blocks,
    _zero,
    verify_feasible,
)
from .setfun import (
    SetFunction,
    Value,
    bit,
    check_costs,
    members,
    order_by_weight,
    value_le,
)
from .sources import DmmsSource, EntropyOracle, LinearSource

SUBMODULARITY_CAP = 16
POLYHEDRON_CAP = 20
SFM_CAP = 22
PARTITION_CAP = 12


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def descending_weight(alpha: Sequence[Value]) -> tuple[int, ...]:
    """Users by descending weight; ties broken by ascending user index."""
    return tuple(sorted(range(len(alpha)), key=lambda i: (-alpha[i], i)))


def row_counts(src: LinearSource) -> tuple[int, ...]:
    """Observation rows per user of a linear source."""
    return tuple(a.rows for a in src.matrices)


def from_table(m: int, table: dict[int, Value], exact: bool = True) -> SetFunction:
    """Set function backed by an explicit table keyed by subset mask."""
    full = dict(table)
    full.setdefault(0, 0 if exact else 0.0)
    missing = [s for s in range(1 << m) if s not in full]
    if missing:
        raise ValueError(f"table is missing {len(missing)} subsets (e.g. {missing[0]:#x})")
    return SetFunction(m, full.__getitem__, exact=exact)


def _check_exchange(f: SetFunction, nonempty_base_only: bool) -> bool:
    # Local exchange characterization: f is (intersecting) submodular iff
    # f(S+i) + f(S+j) >= f(S+i+j) + f(S) for all S (nonempty S) and i != j
    # outside S.  Equivalent to the pairwise definition but 2^m * m^2
    # instead of 4^m checks.
    m = f.m
    exact = f.exact
    for s in range(1 << m):
        if nonempty_base_only and s == 0:
            continue
        outside = [i for i in range(m) if not s & bit(i)]
        fs = f(s)
        for a in range(len(outside)):
            i = outside[a]
            fsi = f(s | bit(i))
            for b in range(a + 1, len(outside)):
                j = outside[b]
                lhs = fsi + f(s | bit(j))
                rhs = f(s | bit(i) | bit(j)) + fs
                if not value_le(rhs, lhs, exact):
                    return False
    return True


def is_submodular(f: SetFunction) -> bool:
    """Exhaustively check f(S)+f(T) >= f(S|T)+f(S&T) for all pairs."""
    if f.m > SUBMODULARITY_CAP:
        raise TooLarge(f"submodularity check capped at m={SUBMODULARITY_CAP}")
    return _check_exchange(f, nonempty_base_only=False)


def is_intersecting_submodular(f: SetFunction) -> bool:
    """Check the submodular inequality for all pairs with S & T != empty."""
    if f.m > SUBMODULARITY_CAP:
        raise TooLarge(f"submodularity check capped at m={SUBMODULARITY_CAP}")
    return _check_exchange(f, nonempty_base_only=True)


def dual(f: SetFunction) -> SetFunction:
    """Dual set function: dual(f)(S) = f(M) - f(M \\ S)."""
    full = f.full_mask
    total = f(full)
    return SetFunction(f.m, lambda s: total - f(full & ~s), exact=f.exact)


def edmond_greedy(f: SetFunction, alpha: Sequence[Value]) -> tuple[Value, ...]:
    """Greedy vertex of P(f,<=) maximizing sum(alpha_i * Z_i).

    Valid for submodular f: visits users by descending weight and assigns
    each the marginal value of joining the prefix.  The output satisfies
    sum(Z) = f(M).
    """
    alpha = check_costs(alpha, f.m)
    order = descending_weight(alpha)
    z: list[Value] = [0] * f.m
    acc = 0
    prev: Value = 0
    for j in order:
        acc |= bit(j)
        cur = f(acc)
        z[j] = cur - prev
        prev = cur
    return tuple(z)


def sfm_constrained(f: SetFunction, z: Sequence[Value], j: int, a_mask: int,
                    ) -> tuple[Value, int]:
    """Minimize f(S) - Z(S) over {S : j in S, S subseteq A} by enumeration.

    Returns the minimum and the inclusion-wise maximal minimizer (the
    union of all minimizers, which is itself a minimizer whenever
    f(S) - Z(S) is submodular on nonempty sets).  On a float function
    every set within DELTA of the minimum counts as a minimizer.
    """
    if not a_mask & bit(j):
        raise ConstraintViolation(f"user {j} is not in the admissible set")
    if bin(a_mask).count("1") > SFM_CAP:
        raise TooLarge(f"brute-force SFM capped at |A| = {SFM_CAP}")
    values = []
    for sub in iter_submasks(a_mask & ~bit(j)):
        s = sub | bit(j)
        v = f(s)
        for k in members(s):
            v = v - z[k]
        values.append((v, s))
    best = min(v for v, _ in values)
    union = 0
    for v, s in values:
        if value_le(v, best, f.exact):
            union |= s
    return best, union


def dilworth_bruteforce(f: SetFunction, s_mask: int) -> tuple[Value, tuple[int, ...]]:
    """Exact Dilworth truncation value at S: the minimum of
    sum(f(V) for V in P) over all set partitions P of S.

    Returns the value and one minimizing partition (the lexicographically
    smallest canonical form among minimizers) as a tuple of block masks.
    On a float function every partition within DELTA of the minimum counts
    as a minimizer.
    """
    elems = members(f.check(s_mask))
    if not elems:
        return 0 if f.exact else 0.0, ()
    if len(elems) > PARTITION_CAP:
        raise TooLarge(f"partition enumeration capped at |S| = {PARTITION_CAP}")

    def partitions(i: int, blocks: list[int], acc: Value):
        """Each partition extending the blocks of elems[:i], with its value."""
        if i == len(elems):
            yield acc, blocks
            return
        e = bit(elems[i])
        for k in range(len(blocks)):
            old = blocks[k]
            blocks[k] = old | e
            yield from partitions(i + 1, blocks, acc - f(old) + f(blocks[k]))
            blocks[k] = old
        blocks.append(e)
        yield from partitions(i + 1, blocks, acc + f(e))
        blocks.pop()

    first = bit(elems[0])
    best = min(acc for acc, _ in partitions(1, [first], f(first)))
    parts = min(tuple(sorted(members(b) for b in blocks))
                for acc, blocks in partitions(1, [first], f(first))
                if value_le(acc, best, f.exact))
    return best, tuple(mask_of(b) for b in parts)


def in_polyhedron(f: SetFunction, z: Sequence[Value]) -> bool:
    """Membership test Z(S) <= f(S) for every nonempty subset S."""
    if f.m > POLYHEDRON_CAP:
        raise TooLarge(f"polyhedron membership capped at m={POLYHEDRON_CAP}")
    if len(z) != f.m:
        raise ConstraintViolation(f"vector has {len(z)} entries, expected {f.m}")
    exact = f.exact
    for s in range(1, f.full_mask + 1):
        if not value_le(_fold(z[k] for k in members(s)), f(s), exact):
            return False
    return True


def modified_edmond_setfn(f: SetFunction, alpha: Sequence[Value],
                          ordering: str = "descending",
                          ) -> tuple[tuple[Value, ...], tuple[int, ...], PartitionResult, int]:
    """Sweep for a raw intersecting-submodular set function (no beta)."""
    m = f.m
    alpha = check_costs(alpha, m)
    order = (descending_weight(alpha) if ordering == "descending"
             else order_by_weight(alpha))
    z: list[Value] = [_zero(f.exact)] * m
    tight: list[int] = []
    blocks: list[int] = []
    evaluations = 0
    seen = 0
    for j in order:
        val, minimizer = sfm_constrained(f, z, j, seen | bit(j))
        evaluations += 1 << bin(seen).count("1")
        z[j] = val
        tight.append(minimizer)
        _merge_block(blocks, minimizer)
        seen |= bit(j)
    g_value = _fold(z, _zero(f.exact))
    partition = PartitionResult(blocks=_sorted_blocks(blocks), g_value=g_value)
    return tuple(z), tuple(tight), partition, evaluations


def dmms_from_linear(src: LinearSource) -> DmmsSource:
    """Push a uniform W through the observation matrices to get the joint
    pmf of the user observations.  Feasible only for tiny p^N."""
    if src.p ** src.N > 1 << 20:
        raise ValidationError("p^N too large to tabulate the joint pmf")
    alphabets = tuple(src.p ** l for l in row_counts(src))
    table = np.zeros(alphabets, dtype=float)
    weight = 1.0 / src.p ** src.N
    w = [0] * src.N
    for _ in range(src.p ** src.N):
        idx = []
        for i in range(src.m):
            obs = src.matrices[i].mul_vector(w)
            code = 0
            for sym in obs:
                code = code * src.p + sym
            idx.append(code)
        table[tuple(idx)] += weight
        for pos in range(src.N - 1, -1, -1):
            w[pos] += 1
            if w[pos] < src.p:
                break
            w[pos] = 0
    return DmmsSource(alphabets=alphabets, pmf=table)


def _gauss_jordan(a: ff.FieldMatrix, what: str) -> tuple[int, Optional[list[list[int]]]]:
    """det(a) and, when it is nonzero, the rows of a^-1, from one
    Gauss-Jordan elimination of [a | I] that keeps clear of ``RowSpace``,
    so the transfer-matrix view checks the production kernel
    independently."""
    if a.rows != a.cols:
        raise DimensionMismatch(f"{what} needs a square matrix")
    p, n = a.p, a.rows
    work = [list(a.row(r)) + [int(c == r) for c in range(n)] for r in range(n)]
    det = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            return 0, None
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            det = (-det) % p
        det = det * work[c][c] % p
        inv = pow(work[c][c], p - 2, p)
        work[c] = [(x * inv) % p for x in work[c]]
        for i in range(n):
            if i != c and work[i][c] != 0:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[c])]
    return det, [row[n:] for row in work]


def det(a: ff.FieldMatrix) -> int:
    return _gauss_jordan(a, "determinant")[0]


def inverse(a: ff.FieldMatrix) -> ff.FieldMatrix:
    rows = _gauss_jordan(a, "inverse")[1]
    if rows is None:
        raise ZeroInverse("matrix is singular")
    return ff.FieldMatrix.from_rows(rows, a.p, cols=a.cols)


def matmul(a: ff.FieldMatrix, b: ff.FieldMatrix) -> ff.FieldMatrix:
    if a.p != b.p:
        raise DimensionMismatch("modulus mismatch")
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    rows = [b.row(k) for k in range(b.rows)]
    columns = [[row[j] for row in rows] for j in range(b.cols)]
    return ff.FieldMatrix._reduced(a.rows, b.cols, a.p, [
        sum(x * y for x, y in zip(a.row(i), col)) % a.p
        for i in range(a.rows) for col in columns])


@dataclass(frozen=True)
class MulticastNetwork:
    """Multicast model of the exchange: a super node S feeding sender
    nodes s_i, relay nodes t_i enforcing the broadcast constraint, and
    receiver nodes r_i.  Capacities are in F_p symbols per n-block."""

    m: int
    n: int
    N: int
    p: int
    lengths: tuple[int, ...]       # observation rows per user (per instance)
    tx: tuple[int, ...]            # n * R_i, integers

    @property
    def node_count(self) -> int:
        return 3 * self.m + 1

    def edges(self) -> list[tuple[str, int, Optional[int], int]]:
        """Deterministic edge list as (kind, i, j, capacity)."""
        out: list[tuple[str, int, Optional[int], int]] = []
        for i in range(self.m):
            out.append(("source", i, None, self.n * self.lengths[i]))
            out.append(("side", i, None, self.n * self.lengths[i]))
            out.append(("relay_in", i, None, self.tx[i]))
            for j in range(self.m):
                if j != i:
                    out.append(("relay_out", i, j, self.tx[i]))
        return out

    def unit_edges(self) -> list[tuple[str, int, Optional[int], int]]:
        """One entry per F_p symbol: (kind, i, j, slot-within-edge)."""
        out: list[tuple[str, int, Optional[int], int]] = []
        for kind, i, j, cap in self.edges():
            out.extend((kind, i, j, k) for k in range(cap))
        return out


def build_network(src: LinearSource, rates: RateVector, n: int) -> MulticastNetwork:
    """Multicast network for the given integer rate point.

    Edge capacities: S->s_i and s_i->r_i carry the full observation block
    n*l_i, s_i->t_i carries the n*R_i broadcast symbols, and t_i->r_j
    copies them to every other receiver.  Zero-rate users keep their relay
    node with empty edges so indexing stays uniform.
    """
    tx = _integer_tx_counts(rates, n, src.m)
    oracle = EntropyOracle(src)
    if not verify_feasible(oracle, rates):
        raise InfeasibleRates("rate vector violates a cut constraint")
    return MulticastNetwork(m=src.m, n=n, N=src.N, p=src.p,
                            lengths=row_counts(src), tx=tx)


@dataclass(frozen=True)
class Slot:
    """Identifier of one unresolved coding coefficient.

    kind "code": entry (row, col) of user ``user``'s coefficient matrix;
    shared by every receiver's matrix.  kind "dec": receiver ``user``'s
    decoder coefficient from its local incoming symbol ``row`` to output
    ``col``.  ``negated`` marks occurrences inside I - Gamma; assignments
    are always keyed by the plain (un-negated) slot.
    """

    kind: str
    user: int
    row: int
    col: int
    negated: bool = False

    def key(self) -> "Slot":
        if not self.negated:
            return self
        return Slot(self.kind, self.user, self.row, self.col)


@dataclass(frozen=True)
class ExpandedTransferMatrix:
    """Square matrix [[A, 0], [I - Gamma, B(r)]] for one receiver.

    Entries are field elements or Slot placeholders; after a full
    assignment the matrix is nonsingular exactly when the receiver can
    decode.  Coding slots are shared across receivers, so completing all
    m matrices at once is the multicast code design problem.
    """

    receiver: int
    p: int
    grid: tuple[tuple[object, ...], ...]

    @property
    def size(self) -> int:
        return len(self.grid)

    def unassigned_slots(self) -> list[Slot]:
        out: list[Slot] = []
        seen = set()
        for row in self.grid:
            for x in row:
                if isinstance(x, Slot):
                    k = x.key()
                    if k not in seen:
                        seen.add(k)
                        out.append(k)
        return out

    def substitute(self, assignment: dict[Slot, int]) -> "ExpandedTransferMatrix":
        p = self.p

        def resolve(x):
            if not isinstance(x, Slot):
                return x
            v = assignment.get(x.key())
            if v is None:
                return x
            return (-v) % p if x.negated else v % p

        grid = tuple(tuple(resolve(x) for x in row) for row in self.grid)
        return ExpandedTransferMatrix(receiver=self.receiver, p=p, grid=grid)

    def to_field_matrix(self) -> ff.FieldMatrix:
        remaining = self.unassigned_slots()
        if remaining:
            raise ConstraintViolation(
                f"{len(remaining)} coefficients are still unassigned")
        flat = [int(x) for row in self.grid for x in row]
        return ff.FieldMatrix(self.size, self.size, self.p, flat)

    def det(self) -> int:
        return det(self.to_field_matrix())


def _receiver_incoming(net: MulticastNetwork, receiver: int) -> list[tuple]:
    """Unit edges entering one receiver: own side link first, then relay
    links from the other users in ascending order."""
    incoming = [("side", receiver, None, k)
                for k in range(net.n * net.lengths[receiver])]
    for i in range(net.m):
        if i != receiver:
            incoming.extend(("relay_out", i, receiver, k) for k in range(net.tx[i]))
    return incoming


def _network_blocks(net: MulticastNetwork, src: LinearSource):
    """Shared structure: unit-edge index, source block A and Gamma with
    coding slots in place."""
    if src.m != net.m or src.p != net.p or row_counts(src) != net.lengths:
        raise DimensionMismatch("network was built from a different source")
    units = net.unit_edges()
    index = {e: k for k, e in enumerate(units)}
    ell = len(units)
    dim = net.n * net.N

    expanded = [ff.kron_block(net.n, src.matrices[i]) for i in range(net.m)]
    a_grid = [[0] * ell for _ in range(dim)]
    gamma: list[list[object]] = [[0] * ell for _ in range(ell)]
    for e, col in index.items():
        kind, i, _j, k = e
        if kind == "source":
            obs_row = expanded[i].row(k)
            for w in range(dim):
                a_grid[w][col] = obs_row[w]
        elif kind == "side":
            gamma[index[("source", i, None, k)]][col] = 1
        elif kind == "relay_in":
            for obs in range(net.n * net.lengths[i]):
                gamma[index[("source", i, None, obs)]][col] = Slot("code", i, k, obs)
        elif kind == "relay_out":
            gamma[index[("relay_in", i, None, k)]][col] = 1
    return index, ell, dim, a_grid, gamma


def expanded_transfer_matrix(net: MulticastNetwork, src: LinearSource,
                             receiver: int,
                             assignment: Optional[dict[Slot, int]] = None
                             ) -> ExpandedTransferMatrix:
    """Build [[A, 0], [I - Gamma, B(r)]] for one receiver.

    A injects the fixed observation blocks on the super-node edges; Gamma
    forwards side links and relay copies verbatim and carries the coding
    coefficients on the s_i -> t_i links; B reads the receiver's incoming
    symbols through decoder coefficients.  Unassigned coefficients appear
    as Slot placeholders.
    """
    _check_user(receiver, net.m, "receiver")
    index, ell, dim, a_grid, gamma = _network_blocks(net, src)
    p = net.p

    incoming = _receiver_incoming(net, receiver)
    b_grid: list[list[object]] = [[0] * dim for _ in range(ell)]
    for local, e in enumerate(incoming):
        row = index[e]
        for c in range(dim):
            b_grid[row][c] = Slot("dec", receiver, local, c)

    grid: list[tuple[object, ...]] = []
    for r in range(dim):
        grid.append(tuple(a_grid[r] + [0] * dim))
    for r in range(ell):
        row: list[object] = []
        for c in range(ell):
            g = gamma[r][c]
            diag = 1 if r == c else 0
            if isinstance(g, Slot):
                row.append(Slot(g.kind, g.user, g.row, g.col, negated=True))
            else:
                row.append((diag - g) % p)
        row.extend(b_grid[r])
        grid.append(tuple(row))
    etm = ExpandedTransferMatrix(receiver=receiver, p=p, grid=tuple(grid))
    if assignment:
        etm = etm.substitute(assignment)
    return etm


def scheme_assignment(net: MulticastNetwork, src: LinearSource,
                      scheme: TransmissionScheme) -> dict[Slot, int]:
    """Full slot assignment induced by a concrete scheme.

    Coding slots copy the scheme's coefficient matrices.  Decoder slots
    select, per receiver, a greedy maximal independent subset of its
    incoming symbols as outputs (a 0/1 selection), padding with zero
    columns when the receiver cannot reach full rank.
    """
    scheme.check_source(src)
    if scheme.tx != net.tx or scheme.n != net.n:
        raise DimensionMismatch("scheme rates differ from the network capacities")
    out: dict[Slot, int] = {}
    for i in range(net.m):
        c = scheme.coefficients[i]
        for r in range(c.rows):
            row = c.row(r)
            for k in range(c.cols):
                out[Slot("code", i, r, k)] = row[k]
    dim = net.n * net.N
    for j in range(net.m):
        parts = [ff.kron_block(net.n, src.matrices[j])]
        parts += [matmul(scheme.coefficients[i], ff.kron_block(net.n, src.matrices[i]))
                  for i in range(net.m) if i != j]
        tracker = ff.RowSpace(dim, net.p)
        rows = tracker.pack_rows(ff.stack(parts))
        chosen = [local for local, w in enumerate(rows) if tracker.add_packed(w)]
        for c, local in enumerate(chosen[:dim]):
            out[Slot("dec", j, local, c)] = 1
        for local in range(len(rows)):
            for c in range(dim):
                out.setdefault(Slot("dec", j, local, c), 0)
    return out


def transfer_matrix(net: MulticastNetwork, src: LinearSource, receiver: int,
                    assignment: dict[Slot, int]) -> ff.FieldMatrix:
    """Concrete transfer matrix A @ (I - Gamma)^-1 @ B(r) for a fully
    assigned code; its determinant matches the expanded matrix's up to
    sign."""
    _check_user(receiver, net.m, "receiver")
    index, ell, dim, a_grid, gamma = _network_blocks(net, src)
    p = net.p

    def resolve(x) -> int:
        if isinstance(x, Slot):
            v = assignment.get(x.key())
            if v is None:
                raise ConstraintViolation(f"slot {x} is unassigned")
            return v % p
        return x % p

    a_mat = ff.FieldMatrix(dim, ell, p, [x for row in a_grid for x in row])
    i_minus_gamma = ff.FieldMatrix(
        ell, ell, p,
        [((1 if r == c else 0) - resolve(gamma[r][c])) % p
         for r in range(ell) for c in range(ell)])
    incoming = _receiver_incoming(net, receiver)
    b = [[0] * dim for _ in range(ell)]
    for local, e in enumerate(incoming):
        row = index[e]
        for c in range(dim):
            b[row][c] = resolve(Slot("dec", receiver, local, c))
    b_mat = ff.FieldMatrix(ell, dim, p, [x for row in b for x in row])
    return matmul(matmul(a_mat, inverse(i_minus_gamma)), b_mat)
