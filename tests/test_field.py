import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omniex import (
    DimensionMismatch,
    FieldMatrix,
    ZeroInverse,
    is_prime,
    kron_block,
    stack,
)
from omniex.field import MAX_MODULUS, RowSpace, validate_modulus
from omniex.reference import det, inverse, matmul

from conftest import example1_source


def scalar_inverse(a, p):
    # The inverse of a mod p, as the inverse of the 1x1 matrix (a).
    return inverse(FieldMatrix(1, 1, p, [a])).row(0)[0]


def test_inverse_fixed_points():
    assert scalar_inverse(1, 5) == 1
    assert scalar_inverse(2, 5) == 3


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroInverse):
        scalar_inverse(0, 7)


def test_inverse_exhaustive_small_primes():
    for p in (2, 3, 5, 7, 11, 101):
        for a in range(1, p):
            assert a * scalar_inverse(a, p) % p == 1


def test_modulus_validation():
    validate_modulus(2)
    validate_modulus((1 << 61) - 1)  # Mersenne prime
    with pytest.raises(ValueError, match="prime"):
        validate_modulus(9)
    with pytest.raises(ValueError):
        validate_modulus(MAX_MODULUS)
    with pytest.raises(ValueError):
        validate_modulus(1)


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n ** 0.5) + 1))

    for n in range(2000):
        assert is_prime(n) == trial(n), n


def test_field_axioms_exhaustive_small_fields():
    # Associativity, commutativity, distributivity, identities and
    # inverses over every pair/triple for p <= 11.
    for p in (2, 3, 5, 7, 11):
        els = range(p)
        for a in els:
            assert (a + 0) % p == a and a * 1 % p == a
            if a:
                assert a * scalar_inverse(a, p) % p == 1
            for b in els:
                assert (a + b) % p == (b + a) % p
                assert a * b % p == b * a % p
                for c in els:
                    assert (a + b + c) % p == (a + (b + c)) % p
                    assert a * b % p * c % p == a * (b * c % p) % p
                    assert a * ((b + c) % p) % p == (a * b + a * c) % p


def test_rank_identity_and_zero():
    assert FieldMatrix.identity(4, 5).rank() == 4
    assert FieldMatrix.zeros(3, 6, 7).rank() == 0


def test_rank_of_packet_selectors():
    src = example1_source()
    full = stack(list(src.matrices), cols=3, p=5)
    assert full.rank() == 3
    assert stack([src.matrices[0], src.matrices[1]], cols=3, p=5).rank() == 3


def test_stack_shapes():
    a = FieldMatrix.zeros(2, 3, 5)
    assert stack([a, a]).shape == (4, 3)
    empty = stack([], cols=3, p=5)
    assert empty.shape == (0, 3)
    with pytest.raises(DimensionMismatch):
        stack([a, FieldMatrix.zeros(2, 4, 5)])
    with pytest.raises(DimensionMismatch):
        stack([a, FieldMatrix.zeros(2, 3, 7)])
    with pytest.raises(DimensionMismatch):
        stack([])


def test_solve_identity_and_inconsistent():
    eye = FieldMatrix.identity(3, 7)
    assert eye.solve([1, 2, 3]) == (1, 2, 3)
    assert FieldMatrix.zeros(2, 2, 5).solve([1, 0]) is None


def test_solve_roundtrip_random_invertible():
    rng = random.Random(7)
    for _ in range(20):
        while True:
            m = FieldMatrix.random(5, 5, 7, rng)
            if m.rank() == 5:
                break
        x0 = tuple(rng.randrange(7) for _ in range(5))
        y = m.mul_vector(x0)
        assert m.solve(y) == x0


def test_solve_underdetermined_sets_free_variables_to_zero():
    m = FieldMatrix.from_rows([[1, 0, 2], [0, 0, 0]], 5)
    x = m.solve([3, 0])
    assert x is not None
    assert m.mul_vector(x) == (3, 0)
    assert x[1] == 0 and x[2] == 0


def test_kron_block_shapes_and_values():
    a = FieldMatrix.from_rows([[3]], 5)
    d = kron_block(2, a)
    assert d.to_rows() == [[3, 0], [0, 3]]
    b = FieldMatrix.from_rows([[1, 2, 0], [0, 1, 4]], 5)
    assert kron_block(1, b) == b
    src = example1_source()
    wide = kron_block(2, src.matrices[0])
    assert wide.shape == (4, 6)
    assert wide.rank() == 4


def test_kron_block_rank_scales():
    rng = random.Random(11)
    for _ in range(25):
        a = FieldMatrix.random(rng.randint(1, 4), rng.randint(1, 4), 7, rng)
        for n in (1, 2, 3):
            assert kron_block(n, a).rank() == n * a.rank()


def test_rank_inequalities_random_stacks():
    # 1000 trials across sizes up to 8x8 and several moduli.
    rng = random.Random(2024)
    for _ in range(1000):
        p = rng.choice((5, 7, 101))
        cols = rng.randint(1, 8)
        a = FieldMatrix.random(rng.randint(1, 8), cols, p, rng)
        b = FieldMatrix.random(rng.randint(1, 8), cols, p, rng)
        s = stack([a, b])
        ra, rb, rs = a.rank(), b.rank(), s.rank()
        assert rs <= ra + rb
        assert rs >= max(ra, rb)


def test_solve_inverts_full_column_rank_maps():
    rng = random.Random(5)
    for _ in range(50):
        p = rng.choice((5, 11))
        cols = rng.randint(1, 5)
        rows = rng.randint(cols, 7)
        m = FieldMatrix.random(rows, cols, p, rng)
        if m.rank() < cols:
            continue
        x0 = tuple(rng.randrange(p) for _ in range(cols))
        assert m.solve(m.mul_vector(x0)) == x0


def test_det_and_inverse_consistency():
    rng = random.Random(13)
    for _ in range(60):
        p = rng.choice((2, 5, 7, MAX_MODULUS - 1))
        n = rng.randint(1, 5)
        m = FieldMatrix.random(n, n, p, rng)
        if m.rank() < n:
            assert det(m) == 0
            with pytest.raises(ZeroInverse, match="matrix is singular"):
                inverse(m)
        else:
            assert det(m) != 0
            identity = FieldMatrix.identity(n, p)
            assert matmul(m, inverse(m)) == identity
            assert matmul(inverse(m), m) == identity
    empty = FieldMatrix.zeros(0, 0, 7)
    assert det(empty) == 1
    assert inverse(empty) == empty
    with pytest.raises(DimensionMismatch):
        det(FieldMatrix.zeros(2, 3, 7))
    with pytest.raises(DimensionMismatch):
        inverse(FieldMatrix.zeros(3, 2, 7))
    with pytest.raises(ZeroInverse, match="matrix is singular"):
        inverse(FieldMatrix.from_rows([[1, 2], [2, 4]], 7))
    for p in (2, 5, MAX_MODULUS - 1):
        for n in range(1, 6):
            # A permutation matrix's determinant is the permutation's sign.
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [[int(c == perm[r]) for c in range(n)] for r in range(n)]
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            assert det(FieldMatrix.from_rows(rows, p)) == (-1) ** inversions % p
            # A triangular matrix's determinant is the product of its diagonal.
            upper = [[rng.randrange(p) if c >= r else 0 for c in range(n)] for r in range(n)]
            product = 1
            for r in range(n):
                product = product * upper[r][r] % p
            assert det(FieldMatrix.from_rows(upper, p)) == product
            lower = [list(col) for col in zip(*upper)]
            assert det(FieldMatrix.from_rows(lower, p)) == product


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_matmul_rank_bound(rows, inner, data):
    cols = data.draw(st.integers(0, 6))
    ents_a = data.draw(st.lists(st.integers(0, 4), min_size=rows * inner,
                                max_size=rows * inner))
    ents_b = data.draw(st.lists(st.integers(0, 4), min_size=inner * cols,
                                max_size=inner * cols))
    a = FieldMatrix(rows, inner, 5, ents_a)
    b = FieldMatrix(inner, cols, 5, ents_b)
    prod = matmul(a, b)
    assert prod.shape == (rows, cols)
    assert prod.rank() <= min(a.rank(), b.rank())


def test_matrices_are_immutable_and_hashable():
    a = FieldMatrix.identity(2, 5)
    with pytest.raises(AttributeError):
        a.rows = 3
    assert hash(a) == hash(FieldMatrix.identity(2, 5))
    assert a == FieldMatrix.identity(2, 5)
    assert a != FieldMatrix.identity(2, 7)


P61 = (1 << 61) - 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 5, 101, P61)), st.integers(0, 9), st.integers(0, 7),
       st.data())
def test_rank_equals_echelon_pivot_count(p, rows, cols, data):
    # Rows are combinations of a few base rows, so that dependent rows
    # occur at every modulus, including the 61-bit one.
    k = data.draw(st.integers(0, max(rows, 1)))
    entry = st.one_of(st.integers(0, 2), st.integers(0, p - 1))
    base = [data.draw(st.lists(entry, min_size=cols, max_size=cols))
            for _ in range(k)]
    ents = []
    for _ in range(rows):
        coeffs = data.draw(st.lists(entry, min_size=k, max_size=k))
        ents.extend(sum(a * b[c] for a, b in zip(coeffs, base)) % p
                    for c in range(cols))
    m = FieldMatrix(rows, cols, p, ents)
    assert m.rank() == len(m._echelon()[1])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 5, 101, P61)), st.integers(0, 8), st.integers(0, 6),
       st.data())
def test_solve_with_rank_gives_the_rank_and_a_solution(p, rows, cols, data):
    entry = st.one_of(st.integers(0, 1), st.integers(0, p - 1))
    m = FieldMatrix(rows, cols, p, data.draw(
        st.lists(entry, min_size=rows * cols, max_size=rows * cols)))
    # Half the right-hand sides lie in the column space, half are drawn.
    if data.draw(st.booleans()):
        y = m.mul_vector(data.draw(st.lists(entry, min_size=cols, max_size=cols)))
    else:
        y = data.draw(st.lists(entry, min_size=rows, max_size=rows))
    rank, x = m.rank(), m.solve(y)
    aug = FieldMatrix.from_rows([list(m.row(r)) + [y[r]] for r in range(rows)],
                                p, cols=cols + 1)
    if x is None:
        assert aug.rank() == rank + 1
    else:
        assert list(m.mul_vector(x)) == [v % p for v in y]


def try_add(space, row):
    return space.add_packed(space.pack_rows(FieldMatrix.from_rows([row], space.p))[0])


def test_row_space_try_add_and_copy():
    space = RowSpace(3, 5)
    assert try_add(space, [0, 2, 4])
    assert not try_add(space, [0, 1, 2])     # 3 * (0, 2, 4) mod 5
    assert not try_add(space, [0, 0, 0])
    fork = space.copy()
    assert try_add(fork, [1, 1, 1])
    for row in ([0, 0, 3], [2, 2, 2]):
        try_add(fork, row)
    assert (space.rank, fork.rank) == (1, 3)
    assert not try_add(fork, [4, 3, 2])      # full space
    assert try_add(space, [0, 0, 1]) and space.rank == 2
    with pytest.raises(DimensionMismatch):
        try_add(space, [1, 2])


def test_public_constructors_reduce_entries_and_check_the_modulus():
    assert FieldMatrix(1, 3, 7, [-1, 8, -15]).to_rows() == [[6, 1, 6]]
    assert FieldMatrix.from_rows([[-1, 8], [7, -7]], 7).to_rows() == [[6, 1], [0, 0]]
    for p in (4, 9, 1, MAX_MODULUS + 1):
        with pytest.raises(ValueError):
            FieldMatrix(1, 1, p, [1])
        with pytest.raises(ValueError):
            FieldMatrix.from_rows([[1]], p)


def test_derived_matrices_equal_their_validated_rebuilds():
    # stack, kron_block and matmul skip re-validating entries they take from
    # reduced matrices; the results must equal a full rebuild.
    rng = random.Random(53)
    for p in (2, 7, P61):
        a = FieldMatrix.random(3, 4, p, rng)
        b = FieldMatrix.from_rows([[rng.randrange(-p, 2 * p) for _ in range(4)]
                                   for _ in range(2)], p)
        c = FieldMatrix.random(4, 5, p, rng)
        derived_matrices = (stack([a, b]), kron_block(3, a), matmul(a, c),
                            matmul(kron_block(2, b), kron_block(2, c)))
        for derived in derived_matrices:
            rebuilt = FieldMatrix(derived.rows, derived.cols, p,
                                  [x for row in derived.to_rows() for x in row])
            assert derived == rebuilt
            assert all(0 <= x < p for row in derived.to_rows() for x in row)


def _worst_case_rows(p, cols):
    """Rows that drive every lane of a packed ``RowSpace`` to its largest
    value: pivots at columns 0..cols-2 with every tail entry 1 (so every
    stored negated tail entry is p - 1), then a row whose leading entry is
    p - 1 at every step of its reduction, so each step adds (p - 1)^2 to
    every lane on its right, and the last lane starts at p - 1."""
    pivots = [[0] * c + [1] * (cols - c) for c in range(cols - 1)]
    probe = [(-(c + 1)) % p for c in range(cols - 1)] + [p - 1] * (cols > 0)
    return pivots, probe


@pytest.mark.parametrize("p", (2, 3, P61))
@pytest.mark.parametrize("cols", (0, 1, 2, 3, 5, 8, 17, 33, 64))
def test_row_space_worst_case_lane_growth(p, cols):
    pivots, probe = _worst_case_rows(p, cols)
    rows = pivots + [probe] * (cols > 0)
    space = RowSpace(cols, p)
    for k, row in enumerate(rows):
        before = FieldMatrix.from_rows(rows[:k], p, cols=cols).rank()
        after = len(FieldMatrix.from_rows(rows[:k + 1], p, cols=cols)._echelon()[1])
        assert try_add(space, row) == (after > before)
    assert space.rank == len(FieldMatrix.from_rows(rows, p, cols=cols)._echelon()[1])
    # The leading coefficient at every reduction step is p - 1.
    if cols > 1:
        last = [x % p for x in probe]
        for c in range(cols - 1):
            assert last[c] == p - 1
            last = [(x - (p - 1) * (k >= c)) % p for k, x in enumerate(last)]


@pytest.mark.parametrize("p", (2, 3, 101, P61))
@pytest.mark.parametrize("cols", (1, 2, 7, 64))
def test_row_space_lane_width_holds_the_largest_lane(p, cols):
    # A lane starts below p and gets at most one addition of at most
    # (p - 1)^2 from each pivot on its left.
    space = RowSpace(cols, p)
    largest = p - 1 + cols * (p - 1) ** 2
    assert space.lane == largest.bit_length()
    assert space.pack_rows(FieldMatrix.from_rows([[p - 1] * cols], p)) == [sum(
        (p - 1) << (space.lane * k) for k in range(cols))]


def test_row_space_with_no_columns():
    space = RowSpace(0, 7)
    assert not try_add(space, [])
    for row in ([], []):
        try_add(space, row)
    assert space.rank == 0 and space.copy().rank == 0
    with pytest.raises(DimensionMismatch):
        try_add(space, [1])
    assert FieldMatrix.zeros(3, 0, 7).rank() == 0
    assert FieldMatrix.zeros(3, 0, 7).solve([0, 0, 0]) == ()
    assert FieldMatrix.zeros(2, 0, 7).solve([0, 1]) is None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5, 101, P61)), st.integers(0, 14),
       st.integers(20, 48), st.data())
def test_row_space_matches_echelon_on_wide_rows(p, rows, cols, data):
    # Dependent rows at every modulus: combinations of a few base rows,
    # some of them with raw entries outside 0..p-1.
    k = data.draw(st.integers(0, max(rows, 1)))
    entry = st.one_of(st.integers(0, 2), st.integers(0, p - 1),
                      st.integers(-3 * p, 3 * p))
    base = [data.draw(st.lists(entry, min_size=cols, max_size=cols))
            for _ in range(k)]
    mat = []
    for _ in range(rows):
        coeffs = data.draw(st.lists(entry, min_size=k, max_size=k))
        mat.append([sum(a * b[c] for a, b in zip(coeffs, base)) + p * data.draw(
            st.integers(-2, 2)) for c in range(cols)])
    space = RowSpace(cols, p)
    fork_at = data.draw(st.integers(0, rows))
    fork = None
    for n, row in enumerate(mat):
        if n == fork_at:
            fork = space.copy()
        expected = len(FieldMatrix.from_rows(mat[:n + 1], p, cols=cols)._echelon()[1])
        grows = expected > space.rank
        assert try_add(space, row) == grows
        assert space.rank == expected
    # A copy taken part way keeps its own rank and grows independently.
    if fork is not None:
        assert fork.rank == len(FieldMatrix.from_rows(mat[:fork_at], p, cols=cols)._echelon()[1])
        for row in mat[fork_at:]:
            try_add(fork, row)
        assert fork.rank == space.rank


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 5, 101, P61)), st.integers(0, 12), st.integers(0, 30),
       st.data())
def test_solve_with_rank_matches_the_echelon_solution(p, rows, cols, data):
    # Under- and over-determined systems; the solution with free variables
    # 0 is the one read off the reduced row echelon form.
    entry = st.one_of(st.integers(0, 1), st.integers(0, p - 1))
    m = FieldMatrix(rows, cols, p, data.draw(
        st.lists(entry, min_size=rows * cols, max_size=rows * cols)))
    if data.draw(st.booleans()):
        y = m.mul_vector(data.draw(st.lists(entry, min_size=cols, max_size=cols)))
    else:
        y = data.draw(st.lists(entry, min_size=rows, max_size=rows))
    aug = FieldMatrix.from_rows([list(m.row(r)) + [y[r]] for r in range(rows)],
                                p, cols=cols + 1)
    ech, pivots = aug._echelon()
    rank, x = m.rank(), m.solve(y)
    if cols in pivots:
        assert (rank, x) == (len(pivots) - 1, None)
    else:
        expected = [0] * cols
        for row, c in zip(ech, pivots):
            expected[c] = row[-1]
        assert (rank, x) == (len(pivots), tuple(expected))


def naive_product(a: FieldMatrix, b: FieldMatrix) -> list[list[int]]:
    return [[sum(a.row(i)[k] * b.row(k)[j] for k in range(a.cols)) % a.p
             for j in range(b.cols)] for i in range(a.rows)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((2, 5, 101, P61)), st.integers(0, 5), st.integers(0, 5),
       st.integers(0, 5), st.integers(1, 3), st.booleans(), st.data())
def test_mul_equals_the_triple_loop(p, rows, inner, cols, n, blocks, data):
    entry = st.one_of(st.integers(0, 2), st.integers(0, p - 1))
    b = FieldMatrix(inner, cols, p, data.draw(
        st.lists(entry, min_size=inner * cols, max_size=inner * cols)))
    if blocks:
        # A broadcast system's factor: n block-diagonal copies.
        b = kron_block(n, b)
    a_cols = b.rows
    a = FieldMatrix(rows, a_cols, p, data.draw(
        st.lists(entry, min_size=rows * a_cols, max_size=rows * a_cols)))
    prod = matmul(a, b)
    assert prod.shape == (rows, b.cols)
    assert prod.to_rows() == naive_product(a, b)
    assert prod == FieldMatrix.from_rows(naive_product(a, b), p, cols=b.cols)


def test_matmul_refuses_another_modulus_and_mismatched_shapes():
    a = FieldMatrix.identity(2, 5)
    with pytest.raises(DimensionMismatch, match=r"^modulus mismatch$"):
        matmul(a, FieldMatrix.identity(2, 7))
    with pytest.raises(DimensionMismatch, match=r"^cannot multiply \(2, 2\) by \(3, 1\)$"):
        matmul(a, FieldMatrix.zeros(3, 1, 5))
