"""Shared test helpers: seeded source corpora, independent oracles and a
CLI runner in a child process.

The oracles here (exact vertex enumeration, Fraction-valued Gaussian
elimination, partition enumeration) deliberately avoid the library's own
solver paths so they can serve as ground truth.
"""

from __future__ import annotations

import itertools
import os
import random
import resource
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import omniex
from omniex import (
    EntropyOracle,
    FieldMatrix,
    LinearSource,
    RateVector,
    make_linear_source,
    stack,
    verify_feasible,
)

SRC_DIR = str(Path(omniex.__file__).resolve().parent.parent)

# When a property test fails, hypothesis's pytest plugin imports
# hypothesis.extra._patching, and through it libcst, whose use of the
# deprecated mypy_extensions.TypedDict warns on import.  pyproject.toml
# turns that warning into an error, which stops the whole run with
# INTERNALERROR after the first failing property test.  Importing the
# module once here, with the warning ignored, keeps the filter in force
# for everything the tests themselves run.  Without libcst the plugin
# skips the import as well.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass

# The address space of a CLI child: a command that tries to allocate more
# fails in the child with MemoryError instead of exhausting the host.
CHILD_ADDRESS_SPACE = 2 << 30


def limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return env


def omniex_cli(*argv: str, cwd: Path, timeout: float = 10) -> subprocess.CompletedProcess:
    """Run the CLI in a child process, so that a command that does not end
    fails the calling test with ``TimeoutExpired`` instead of hanging it,
    and one that allocates too much fails with ``MemoryError``."""
    return subprocess.run([sys.executable, "-m", "omniex.cli", *argv], cwd=cwd,
                          env=child_env(), capture_output=True, text=True,
                          timeout=timeout, preexec_fn=limit_address_space)


def random_matrix_rows(rng: random.Random, rows: int, cols: int, p: int):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def random_linear_source(rng: random.Random, m: int | None = None,
                         n_packets: int | None = None, p: int | None = None,
                         m_max: int = 6, n_max: int = 8,
                         primes=(5, 7, 11)) -> LinearSource:
    """Random linear source with guaranteed full collective rank."""
    m = m if m is not None else rng.randint(2, m_max)
    n_packets = n_packets if n_packets is not None else rng.randint(2, n_max)
    p = p if p is not None else rng.choice(primes)
    mats = [random_matrix_rows(rng, rng.randint(1, n_packets), n_packets, p)
            for _ in range(m)]
    return make_linear_source(top_up(rng, mats, n_packets, p), p=p, N=n_packets)


def baseline_source(m: int) -> LinearSource:
    """The ROADMAP Baseline generator: p = 101, N = 2m, user i has 1..m
    rows, seeded with m; ``perfbench/baseline.py`` builds the same source."""
    rng = random.Random(m)
    rows = [rng.randint(1, m) for _ in range(m)]
    mats = [random_matrix_rows(rng, r, 2 * m, 101) for r in rows]
    return make_linear_source(top_up(rng, mats, 2 * m, 101), p=101, N=2 * m)


def linear_document(src: LinearSource) -> dict:
    return {"source": {"kind": "linear", "p": src.p, "N": src.N,
                       "matrices": [a.to_rows() for a in src.matrices]}}


def nonsubmodular_table_document() -> dict:
    """A 10-user entropy table that is monotone but not submodular: the
    subset ranks of a seeded linear source (p = 101, N = 12, 1..3 rows per
    user) with H({1,2,3}) raised by 1.  Every {1,2,3} + i already has rank
    at least H({1,2,3}) + 1, so only submodularity breaks."""
    m, star = 10, 0b111
    rng = random.Random(3)
    mats = [random_matrix_rows(rng, rng.randint(1, 3), 12, 101) for _ in range(m)]
    table = [int(h) for h in EntropyOracle(
        make_linear_source(top_up(rng, mats, 12, 101), p=101, N=12)).array()]
    assert all(table[star | 1 << i] > table[star] for i in range(3, m))
    table[star] += 1
    entropies = {",".join(str(u + 1) for u in range(m) if s >> u & 1): table[s]
                 for s in range(1, 1 << m)}
    return {"source": {"kind": "table", "m": m, "entropies": entropies}}


def top_up(rng: random.Random, mats, n_packets: int, p: int):
    """Top up random users with unit rows until W is determined collectively."""
    m = len(mats)

    def collective_rank(matrices):
        parts = [FieldMatrix.from_rows(r, p, cols=n_packets) for r in matrices]
        return stack(parts, cols=n_packets, p=p).rank()

    r = collective_rank(mats)
    while r < n_packets:
        for c in range(n_packets):
            unit = [0] * n_packets
            unit[c] = 1
            probe = [list(rows) for rows in mats]
            probe[rng.randrange(m)].append(unit)
            pr = collective_rank(probe)
            if pr > r:
                mats, r = probe, pr
                break
    return mats


def corpus(seed: int, count: int, **kwargs) -> list[LinearSource]:
    rng = random.Random(seed)
    return [random_linear_source(rng, **kwargs) for _ in range(count)]


# ---------------------------------------------------------------------------
# Exact rational linear algebra (independent of omniex.field)
# ---------------------------------------------------------------------------

def solve_unique_fractions(a_rows: list[list[Fraction]], rhs: list[Fraction]
                           ) -> list[Fraction] | None:
    """Solve a square exact system; None when singular."""
    n = len(a_rows)
    work = [list(map(Fraction, row)) + [Fraction(b)]
            for row, b in zip(a_rows, rhs)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if work[r][c] != 0), None)
        if pivot is None:
            return None
        work[c], work[pivot] = work[pivot], work[c]
        inv = 1 / work[c][c]
        work[c] = [x * inv for x in work[c]]
        for r in range(n):
            if r != c and work[r][c] != 0:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return [work[r][n] for r in range(n)]


def fraction_matrix_rank(rows: list[list[Fraction]]) -> int:
    work = [list(map(Fraction, r)) for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][c] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][c]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][c] != 0:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def indicator_row(mask: int, m: int) -> list[Fraction]:
    return [Fraction(1 if mask >> j & 1 else 0) for j in range(m)]


def region_vertices(oracle: EntropyOracle) -> list[tuple[Fraction, ...]]:
    """All vertices of {R : R(S) >= H(X_S | X_{S^c})} by enumerating
    m-subsets of tight cut constraints."""
    m = oracle.m
    full = oracle.full_mask
    subsets = list(range(1, full))
    verts: set[tuple[Fraction, ...]] = set()
    for combo in itertools.combinations(subsets, m):
        rows = [indicator_row(s, m) for s in combo]
        rhs = [Fraction(oracle.cond_entropy(s)) for s in combo]
        x = solve_unique_fractions(rows, rhs)
        if x is None:
            continue
        cand = RateVector(values=tuple(x), unit=oracle.unit)
        if all(v >= 0 for v in x) and verify_feasible(oracle, cand):
            verts.add(tuple(x))
    return sorted(verts)


def min_cost_by_vertex_enumeration(oracle: EntropyOracle, alpha
                                   ) -> tuple[Fraction, tuple[Fraction, ...]]:
    best = None
    best_v = None
    for v in region_vertices(oracle):
        cost = sum(Fraction(a) * x for a, x in zip(alpha, v))
        if best is None or cost < best:
            best, best_v = cost, v
    assert best is not None, "region has no vertices"
    return best, best_v


def slice_vertices(oracle: EntropyOracle, beta) -> list[tuple[Fraction, ...]]:
    """Vertices of the budget slice {R(M) = beta} of the rate region."""
    m = oracle.m
    full = oracle.full_mask
    subsets = list(range(1, full))
    verts: set[tuple[Fraction, ...]] = set()
    for combo in itertools.combinations(subsets, m - 1):
        rows = [indicator_row(s, m) for s in combo]
        rows.append(indicator_row(full, m))
        rhs = [Fraction(oracle.cond_entropy(s)) for s in combo]
        rhs.append(Fraction(beta))
        x = solve_unique_fractions(rows, rhs)
        if x is None:
            continue
        cand = RateVector(values=tuple(x), unit=oracle.unit)
        if all(v >= 0 for v in x) and verify_feasible(oracle, cand):
            verts.add(tuple(x))
    return sorted(verts)


def partitions_of(elems: tuple[int, ...]):
    """All set partitions, as tuples of tuples."""
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for sub in partitions_of(rest):
        for k in range(len(sub)):
            yield sub[:k] + ((first,) + sub[k],) + sub[k + 1:]
        yield ((first,),) + sub


def figure1_source() -> LinearSource:
    return make_linear_source(
        [[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
         [[1, 0, 0, 0], [0, 0, 1, 0]],
         [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]], p=5)


def example1_source(p: int = 5) -> LinearSource:
    return make_linear_source(
        [[[1, 0, 0], [0, 1, 0]],
         [[1, 0, 0], [0, 0, 1]],
         [[0, 1, 0], [0, 0, 1]]], p=p)
