import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from omniex import (
    ConstructionFailed,
    DimensionMismatch,
    EntropyOracle,
    FieldMatrix,
    FieldTooSmall,
    InconsistentObservations,
    InfeasibleRates,
    InvalidN,
    NonIntegerRates,
    RateVector,
    TransmissionScheme,
    broadcast_symbols,
    construct_code,
    decode,
    ilp_rates,
    kron_block,
    make_linear_source,
    rco_sum_rate,
    receiver_ranks,
    stack,
    user_observation,
    verify_feasible,
    verify_omniscience,
)
from omniex import fixtures, netcode
from omniex.cli import main
from omniex.documents import parse_scheme, scheme_to_json
from omniex.errors import UnknownReceiver
from omniex.field import RowSpace
from omniex.netcode import _repeat_scheme
from omniex.reference import (
    build_network,
    det,
    expanded_transfer_matrix,
    matmul,
    scheme_assignment,
    transfer_matrix,
)

from conftest import (
    example1_source,
    figure1_source,
    linear_document,
    random_linear_source,
)


def handbuilt_example1_scheme():
    return TransmissionScheme(n=2, p=5, coefficients=(
        FieldMatrix.from_rows([[1, 0, 0, 1]], 5),   # a1 + b2
        FieldMatrix.from_rows([[0, 1, 1, 0]], 5),   # c1 + a2
        FieldMatrix.from_rows([[1, 0, 0, 1]], 5),   # b1 + c2
    ))


def handbuilt_figure1_scheme():
    return TransmissionScheme(n=1, p=5, coefficients=(
        FieldMatrix.from_rows([[0, 0, 1]], 5),      # w4
        FieldMatrix.from_rows([[1, 1]], 5),         # w1 + w3
        FieldMatrix.from_rows([[0, 1, 0]], 5),      # w2
    ))


def halves():
    return RateVector((Fraction(1, 2),) * 3, unit="F_5-symbols")


def test_network_structure_for_the_example_instance():
    net = build_network(example1_source(), halves(), 2)
    assert net.node_count == 10
    caps = {(kind, i, j): cap for kind, i, j, cap in net.edges()}
    for i in range(3):
        assert caps[("source", i, None)] == 4
        assert caps[("side", i, None)] == 4
        assert caps[("relay_in", i, None)] == 1
        for j in range(3):
            if j != i:
                assert caps[("relay_out", i, j)] == 1
    assert len(net.edges()) == 3 * 3 + 3 * 2


def test_network_capacities_scale_with_block_length():
    src = example1_source()
    rates = RateVector((1, 1, 1), unit="F_5-symbols")
    n1 = build_network(src, rates, 1)
    n2 = build_network(src, rates, 2)
    for (k1, i1, j1, c1), (k2, i2, j2, c2) in zip(n1.edges(), n2.edges()):
        assert (k1, i1, j1) == (k2, i2, j2)
        if k1 in ("source", "side"):
            assert c2 == 2 * c1
        else:
            assert c2 == 2 * c1


def test_network_keeps_zero_rate_relays():
    src = make_linear_source([[[1, 0], [0, 1]], [[1, 0]]], p=5)
    rates = RateVector((1, 0), unit="F_5-symbols")
    net = build_network(src, rates, 1)
    caps = {(kind, i, j): cap for kind, i, j, cap in net.edges()}
    assert caps[("relay_in", 1, None)] == 0
    assert caps[("relay_out", 1, 0)] == 0


def test_network_rejects_bad_rates():
    src = example1_source()
    with pytest.raises(NonIntegerRates):
        build_network(src, halves(), 1)
    with pytest.raises(InfeasibleRates):
        build_network(src, RateVector((0, 0, 0), unit="F_5-symbols"), 2)


def test_handbuilt_schemes_achieve_omniscience():
    assert verify_omniscience(example1_source(), handbuilt_example1_scheme())
    assert verify_omniscience(figure1_source(), handbuilt_figure1_scheme())


def test_dropping_a_transmission_breaks_omniscience():
    src = example1_source()
    scheme = handbuilt_example1_scheme()
    crippled = TransmissionScheme(n=2, p=5, coefficients=(
        FieldMatrix.zeros(0, 4, 5),
        scheme.coefficients[1],
        scheme.coefficients[2],
    ))
    got = receiver_ranks(src, crippled)
    assert got[1][0] == 5 and got[1][1] == 6
    assert not verify_omniscience(src, crippled)


def test_full_flooding_always_achieves_omniscience():
    rng = random.Random(30)
    for _ in range(5):
        src = random_linear_source(rng, m_max=4, n_max=5)
        coeffs = tuple(FieldMatrix.identity(a.rows, src.p) for a in src.matrices)
        scheme = TransmissionScheme(n=1, p=src.p, coefficients=coeffs)
        assert verify_omniscience(src, scheme)


def test_broadcasts_are_functions_of_own_observations():
    # Every broadcast row must lie in the row space of the user's own
    # block-expanded observation matrix.
    rng = random.Random(29)
    for _ in range(5):
        src = random_linear_source(rng, m_max=4, n_max=5)
        oracle = EntropyOracle(src)
        res = ilp_rates(oracle, (1,) * src.m, 2)
        scheme = construct_code(src, res.rates, 2, seed=1)
        for i in range(src.m):
            space = RowSpace(2 * src.N + 1, src.p)
            zeros = [0] * (2 * src.matrices[i].rows)
            space.extend_packed(space.pack_rows(src.matrices[i], 2, zeros))
            own = space.rank
            space.extend_packed(scheme.broadcast_rows(src, i))
            assert space.rank == own


def test_construct_code_example_instance():
    src = example1_source()
    scheme = construct_code(src, halves(), 2, seed=0)
    assert scheme.tx == (1, 1, 1)
    assert verify_omniscience(src, scheme)


def test_construct_code_is_deterministic():
    src = example1_source()
    a = construct_code(src, halves(), 2, seed=123)
    b = construct_code(src, halves(), 2, seed=123)
    assert a == b
    c = construct_code(src, halves(), 2, seed=124)
    assert verify_omniscience(src, c)


def test_construct_code_rejects_small_fields():
    src = example1_source(p=2)
    with pytest.raises(FieldTooSmall):
        construct_code(src, RateVector((1, 1, 1), unit="F_2-symbols"), 1)


def test_construct_code_fails_on_infeasible_rates():
    src = example1_source()
    with pytest.raises(ConstructionFailed):
        construct_code(src, RateVector((0, 0, 0), unit="F_5-symbols"), 1,
                       max_tries=8)


def test_gcd_prepass_repeats_the_reduced_scheme():
    src = example1_source()
    rates = RateVector((1, 1, 1), unit="F_5-symbols")
    scheme = construct_code(src, rates, 4, seed=5)
    assert scheme.n == 4
    assert scheme.tx == (4, 4, 4)
    assert verify_omniscience(src, scheme)
    base = construct_code(src, rates, 1, seed=5)
    assert scheme.coefficients[0] == kron_block(4, base.coefficients[0])


def test_tiny_instance_takes_at_most_max_tries_draws():
    # Two users over F_3 (> m).  Seed 2 makes the first random draw fail
    # (user 1 would broadcast 0*w1 + 0*w2); with one draw allowed that is
    # the end, and the default budget finds a scheme.
    src = make_linear_source([[[1, 0], [0, 1]], [[1, 0]]], p=3)
    rates = RateVector((1, 0), unit="F_3-symbols")
    with pytest.raises(ConstructionFailed, match="no valid scheme after 1 random draws"):
        construct_code(src, rates, 1, seed=2, max_tries=1)
    assert verify_omniscience(src, construct_code(src, rates, 1, seed=2))


def test_smallest_fields_construct_within_the_default_draws():
    # p is the next prime above m, where a draw fails most often.
    rng = random.Random(37)
    for _ in range(200):
        m = rng.randint(2, 5)
        src = random_linear_source(rng, m=m, n_packets=rng.randint(2, 5),
                                   p={2: 3, 3: 5, 4: 5, 5: 7}[m])
        n = rng.randint(1, 3)
        alpha = tuple(rng.randint(1, 10) for _ in range(m))
        res = ilp_rates(EntropyOracle(src), alpha, n)
        scheme = construct_code(src, res.rates, n, seed=rng.randrange(2 ** 32))
        assert verify_omniscience(src, scheme)


def test_infeasible_rates_fail_after_the_draws():
    # User 3 sends nothing: user 1 hears one symbol for the two it lacks.
    # The time bound holds only if the draws are the whole attempt.
    rates = RateVector((Fraction(1, 2), Fraction(1, 2), 0), unit="F_5-symbols")
    start = time.monotonic()
    with pytest.raises(ConstructionFailed, match="after 64 random draws"):
        construct_code(example1_source(), rates, 2)
    assert time.monotonic() - start < 5.0


def test_decode_roundtrip_handbuilt_scheme():
    src = example1_source()
    scheme = handbuilt_example1_scheme()
    rng = random.Random(31)
    w = [rng.randrange(5) for _ in range(6)]
    casts = broadcast_symbols(src, scheme, w)
    for j in range(3):
        side = user_observation(src, j, w, 2)
        assert list(decode(src, scheme, j, side, casts)) == w


def test_decode_with_full_side_information_and_no_broadcasts():
    src = make_linear_source([[[1, 0], [0, 1]], [[1, 0]]], p=5)
    scheme = TransmissionScheme(n=1, p=5, coefficients=(
        FieldMatrix.from_rows([[0, 1]], 5), FieldMatrix.zeros(0, 1, 5)))
    w = [3, 4]
    casts = broadcast_symbols(src, scheme, w)
    side = user_observation(src, 0, w, 1)
    assert list(decode(src, scheme, 0, side, casts)) == w


def test_user_observation_refuses_a_block_length_that_is_no_positive_integer():
    src = example1_source()
    for n in (0, 2.0):
        with pytest.raises(InvalidN, match=f"^block length n must be a "
                                           f"positive integer, got {n!r}$"):
            user_observation(src, 0, [1, 2, 3] * 2, n)


def test_decode_detects_tampering():
    src = example1_source()
    scheme = handbuilt_example1_scheme()
    rng = random.Random(32)
    w = [rng.randrange(5) for _ in range(6)]
    casts = broadcast_symbols(src, scheme, w)
    tampered = [list(c) for c in casts]
    tampered[0][0] = (tampered[0][0] + 1) % 5
    for j in (1, 2):
        side = user_observation(src, j, w, 2)
        try:
            out = decode(src, scheme, j, side, tampered)
            assert list(out) != w
        except InconsistentObservations:
            pass


def test_decode_reports_underdetermined_before_contradictory():
    # User 1 observes x1 of W = (x1, x2); user 2 observes all of W.  User 1
    # broadcasts x1 and user 2 broadcasts x1 too, each once.
    src = make_linear_source([[[1, 0]], [[1, 0], [0, 1]]], p=5)
    scheme = TransmissionScheme(n=1, p=5, coefficients=(
        FieldMatrix.from_rows([[1]], 5), FieldMatrix.from_rows([[1, 0]], 5)))
    w = [3, 4]
    casts = broadcast_symbols(src, scheme, w)
    assert [list(c) for c in casts] == [[3], [3]]
    side = user_observation(src, 0, w, 1)
    underdetermined = "do not determine the packet block uniquely"
    with pytest.raises(InconsistentObservations, match=underdetermined):
        decode(src, scheme, 0, side, casts)
    # A tampered broadcast makes user 1's system contradictory as well, and
    # the rank is still reported first.
    with pytest.raises(InconsistentObservations, match=underdetermined):
        decode(src, scheme, 0, side, [[3], [1]])
    full = user_observation(src, 1, w, 1)
    assert list(decode(src, scheme, 1, full, casts)) == w
    with pytest.raises(InconsistentObservations, match="contradictory"):
        decode(src, scheme, 1, full, [[1], [3]])


def test_expanded_matrix_is_square_with_the_right_size():
    src = example1_source()
    net = build_network(src, halves(), 2)
    etm = expanded_transfer_matrix(net, src, 0)
    unit_count = sum(cap for _k, _i, _j, cap in net.edges())
    assert etm.size == unit_count + 2 * 3
    assert etm.unassigned_slots()


def test_expanded_matrix_nonsingular_for_working_schemes():
    src = example1_source()
    net = build_network(src, halves(), 2)
    scheme = handbuilt_example1_scheme()
    assignment = scheme_assignment(net, src, scheme)
    for j in range(3):
        etm = expanded_transfer_matrix(net, src, j, assignment)
        assert not etm.unassigned_slots()
        assert etm.det() != 0


def test_expanded_matrix_singular_when_nothing_is_relayed():
    src = example1_source()
    net = build_network(src, halves(), 2)
    for j in range(3):
        etm = expanded_transfer_matrix(net, src, j)
        zeroed = etm.substitute({s: 0 for s in etm.unassigned_slots()})
        assert zeroed.det() == 0


def test_expanded_matrix_determinant_matches_transfer_matrix():
    src = example1_source()
    net = build_network(src, halves(), 2)
    for seed in (0, 1):
        scheme = construct_code(src, halves(), 2, seed=seed)
        assignment = scheme_assignment(net, src, scheme)
        for j in range(3):
            e_det = expanded_transfer_matrix(net, src, j, assignment).det()
            m_det = det(transfer_matrix(net, src, j, assignment))
            p = src.p
            assert e_det % p in (m_det % p, (-m_det) % p)
            assert (e_det != 0) == (m_det != 0)
            assert (m_det != 0) == verify_omniscience(src, scheme)


def test_rank_criterion_matches_literal_decodability():
    # Independent route: a receiver can achieve omniscience iff its
    # observation-plus-broadcast map is injective on packet blocks,
    # checked by enumerating every W over a tiny field.
    rng = random.Random(55)
    for _ in range(12):
        src = random_linear_source(rng, m=rng.randint(2, 3), n_packets=2, p=3)
        tx = tuple(rng.randint(0, 2) for _ in range(src.m))
        coeffs = tuple(
            FieldMatrix.random(tx[i], src.matrices[i].rows, src.p, rng)
            for i in range(src.m))
        scheme = TransmissionScheme(n=1, p=src.p, coefficients=coeffs)
        ranks = receiver_ranks(src, scheme)
        vectors = [[a, b] for a in range(3) for b in range(3)]
        for j in range(src.m):
            images = set()
            for w in vectors:
                obs = user_observation(src, j, w, 1)
                casts = tuple(c for i, c in enumerate(broadcast_symbols(src, scheme, w))
                              if i != j)
                images.add((obs, casts))
            decodable = len(images) == len(vectors)
            assert decodable == (ranks[j][0] == ranks[j][1])


def test_cut_condition_equivalence_both_directions():
    rng = random.Random(35)
    feasible_seen = infeasible_seen = 0
    for _ in range(25):
        src = random_linear_source(rng, m=rng.randint(2, 3),
                                   n_packets=rng.randint(2, 4), p=101)
        oracle = EntropyOracle(src)
        cand = RateVector(tuple(rng.randint(0, src.N) for _ in range(src.m)),
                          unit=oracle.unit)
        ok = verify_feasible(oracle, cand)
        try:
            scheme = construct_code(src, cand, 1, seed=7, max_tries=32)
            built = True
            assert verify_omniscience(src, scheme)
        except ConstructionFailed:
            built = False
        assert built == ok
        feasible_seen += ok
        infeasible_seen += not ok
    assert feasible_seen and infeasible_seen


def test_optimal_rates_are_always_codable():
    # Any optimal rate point, taken at its own denominator, admits a code.
    rng = random.Random(36)
    for _ in range(100):
        src = random_linear_source(rng, m=rng.randint(2, 4),
                                   n_packets=rng.randint(2, 6),
                                   p=rng.choice((5, 7, 11)))
        oracle = EntropyOracle(src)
        denom = 1
        for v in rco_sum_rate(oracle).rates.values:
            denom = math.lcm(denom, Fraction(v).denominator)
        res = ilp_rates(oracle, (1,) * src.m, denom)
        scheme = construct_code(src, res.rates, denom, seed=11, max_tries=64)
        assert verify_omniscience(src, scheme)
        w = [rng.randrange(src.p) for _ in range(denom * src.N)]
        casts = broadcast_symbols(src, scheme, w)
        for j in range(src.m):
            side = user_observation(src, j, w, denom)
            assert list(decode(src, scheme, j, side, casts)) == w


def test_receiver_ranks_equal_the_stacked_system_ranks():
    # Random coefficient matrices, of random heights including zero, at
    # block lengths 1 to 3: each receiver's rank is the rank of its own
    # expanded rows stacked over every other user's broadcast matrix.
    rng = random.Random(127)
    for trial in range(40):
        src = random_linear_source(rng, m_max=5, n_max=5, primes=(2, 5, 7, 101))
        n = rng.randint(1, 3)
        coeffs = tuple(
            FieldMatrix.random(rng.randint(0, n * a.rows), n * a.rows, src.p, rng)
            for a in src.matrices)
        scheme = TransmissionScheme(n=n, p=src.p, coefficients=coeffs)
        sent = [expanded_product(scheme, src, i) for i in range(src.m)]
        expected = []
        for j in range(src.m):
            parts = [kron_block(n, src.matrices[j])]
            parts += [t for i, t in enumerate(sent) if i != j]
            expected.append((stack(parts, cols=n * src.N, p=src.p).rank(), n * src.N))
        assert receiver_ranks(src, scheme) == expected, trial


def expanded_product(scheme, src, i):
    # The definition of a broadcast matrix, through the expanded matrix.
    return matmul(scheme.coefficients[i], kron_block(scheme.n, src.matrices[i]))


def packed_product(scheme, src, i):
    # The expanded product packed as rows of the receiver system [. | 0].
    space = RowSpace(scheme.n * src.N + 1, src.p)
    product = expanded_product(scheme, src, i)
    return space.pack_rows(product, rhs=[0] * product.rows)


def unpack(w, cols, p):
    # The entries of a row packed for RowSpace(cols, p), column 0 first.
    lane = RowSpace(cols, p).lane
    return [w >> lane * k & (1 << lane) - 1 for k in range(cols - 1, -1, -1)]


def stacked_ranks(src, scheme):
    # Each receiver's rank from its own stacked system, built without
    # the scheme's broadcast matrices.
    need = scheme.n * src.N
    sent = [expanded_product(scheme, src, i) for i in range(src.m)]
    ranks = []
    for j in range(src.m):
        parts = [kron_block(scheme.n, src.matrices[j])]
        parts += [t for i, t in enumerate(sent) if i != j]
        ranks.append((stack(parts, cols=need, p=src.p).rank(), need))
    return ranks


def echelon_decode(src, scheme, j, side_info, broadcasts):
    # The reference decoder: the reduced row echelon form of receiver j's
    # whole augmented system [I_n (x) A_j; C_i (I_n (x) A_i) | y], built
    # without the scheme's broadcast matrices.
    need = scheme.n * src.N
    parts = [kron_block(scheme.n, src.matrices[j])]
    parts += [expanded_product(scheme, src, i) for i in range(src.m) if i != j]
    system = stack(parts, cols=need, p=src.p)
    rhs = [*side_info, *(y for i in range(src.m) if i != j for y in broadcasts[i])]
    augmented = FieldMatrix.from_rows(
        [[*system.row(r), rhs[r]] for r in range(system.rows)], src.p, cols=need + 1)
    rows, pivots = augmented._echelon()
    if len([c for c in pivots if c < need]) < need:
        raise InconsistentObservations(
            "received symbols do not determine the packet block uniquely")
    if need in pivots:
        raise InconsistentObservations("received symbols are contradictory")
    return tuple(row[need] for row in rows)


def decode_outcome(decoder, *args):
    try:
        return decoder(*args)
    except InconsistentObservations as exc:
        return str(exc)


@pytest.mark.parametrize("p", [2, 5, 101, 2 ** 61 - 1])
def test_decode_matches_the_echelon_of_the_stacked_augmented_system(p):
    # Users and senders with no rows, symbols off by multiples of p (negative
    # ones too), one tampered symbol per receiver, and receivers that the
    # broadcasts leave short of full rank.
    rng = random.Random(400 + p % 1000)
    seen = set()
    for n in range(1, 5):
        for _ in range(8):
            n_packets = rng.randint(1, 4)
            mats = [FieldMatrix.random(rng.randint(0, 2 * n_packets), n_packets, p, rng)
                    for _ in range(rng.randint(1, 4))]
            src = make_linear_source(mats, p=p, N=n_packets)
            coeffs = tuple(
                FieldMatrix.random(rng.choice((0, n * a.rows, rng.randint(0, n * a.rows))),
                                   n * a.rows, p, rng)
                for a in mats)
            scheme = TransmissionScheme(n=n, p=p, coefficients=coeffs)
            w = [rng.randrange(p) for _ in range(n * n_packets)]
            casts = [[y + p * rng.randint(-2, 2) for y in c]
                     for c in broadcast_symbols(src, scheme, w)]
            for j in range(src.m):
                side = [y + p * rng.randint(-2, 2)
                        for y in user_observation(src, j, w, n)]
                cases = [casts]
                senders = [i for i in range(src.m) if i != j and casts[i]]
                if senders:
                    tampered = [list(c) for c in casts]
                    i = rng.choice(senders)
                    tampered[i][rng.randrange(len(tampered[i]))] += rng.randrange(1, p)
                    cases.append(tampered)
                for received in cases:
                    args = (src, scheme, j, side, received)
                    got = decode_outcome(decode, *args)
                    assert got == decode_outcome(echelon_decode, *args), (n, j)
                    if received is casts and isinstance(got, tuple):
                        assert list(got) == w
                    seen.add(got if isinstance(got, str) else "solved")
    assert seen == {"solved", "received symbols are contradictory",
                    "received symbols do not determine the packet block uniquely"}


@pytest.mark.parametrize("p", [2, 5, 101, 2 ** 61 - 1])
def test_broadcast_matrix_equals_the_expanded_product(p):
    rng = random.Random(p)
    for n in range(1, 5):
        for _ in range(6):
            n_packets = rng.randint(1, 5)
            # Users may hold more rows than packets, or none at all.
            mats = [FieldMatrix.random(rng.randint(0, 2 * n_packets), n_packets, p, rng)
                    for _ in range(rng.randint(1, 4))]
            src = make_linear_source(mats, p=p, N=n_packets)
            coeffs = tuple(
                FieldMatrix.random(rng.choice((0, rng.randint(1, n * a.rows + 2))),
                                   n * a.rows, p, rng)
                for a in mats)
            scheme = TransmissionScheme(n=n, p=p, coefficients=coeffs)
            for i in range(src.m):
                got = scheme.broadcast_rows(src, i)
                assert got == packed_product(scheme, src, i), (n, i)
                assert len(got) == coeffs[i].rows


def test_block_product_lanes_hold_their_largest_sums():
    # Five rows over two packets at p = 2^61 - 1, every entry p - 1: each
    # narrow lane of the packed product sums five products of (p - 1)^2,
    # its bound.
    p = 2 ** 61 - 1
    a = FieldMatrix.from_rows([[p - 1, p - 1]] * 5, p)
    src = make_linear_source([a], p=p)
    coeffs = (FieldMatrix.from_rows([[p - 1] * 15, [1] * 15], p),)
    scheme = TransmissionScheme(n=3, p=p, coefficients=coeffs)
    got = scheme.broadcast_rows(src, 0)
    assert got == packed_product(scheme, src, 0)
    assert unpack(got[0], 7, p) == [5 % p] * 6 + [0]
    assert unpack(got[1], 7, p) == [-5 % p] * 6 + [0]


def test_each_source_gets_its_own_broadcast_matrices():
    rng = random.Random(61)
    first = random_linear_source(rng, m=3, n_packets=4, p=7)
    second = make_linear_source(
        [FieldMatrix.random(a.rows, 4, 7, rng) for a in first.matrices], p=7, N=4)
    assert first.matrices != second.matrices
    coeffs = tuple(FieldMatrix.random(2, 2 * a.rows, 7, rng) for a in first.matrices)
    scheme = TransmissionScheme(n=2, p=7, coefficients=coeffs)
    for src in (first, second, first):
        for i in range(3):
            assert scheme.broadcast_rows(src, i) == packed_product(scheme, src, i)
    assert receiver_ranks(second, scheme) == stacked_ranks(second, scheme)
    assert receiver_ranks(first, scheme) == stacked_ranks(first, scheme)


def test_a_warm_scheme_compares_hashes_and_prints_as_a_fresh_one():
    src = example1_source()
    warm = handbuilt_example1_scheme()
    w = [1, 2, 3, 4, 0, 1]
    casts = broadcast_symbols(src, warm, w)
    decode(src, warm, 0, user_observation(src, 0, w, 2), casts)
    assert warm._broadcast
    fresh = handbuilt_example1_scheme()
    assert "_broadcast" not in fresh.__dict__
    assert warm == fresh
    assert hash(warm) == hash(fresh)
    assert repr(warm) == repr(fresh)
    assert "_broadcast" not in repr(warm)


def test_a_repeated_scheme_starts_with_an_empty_memo():
    src = example1_source()
    base = handbuilt_example1_scheme()
    assert verify_omniscience(src, base)
    assert len(base._broadcast) == 3
    for times in (2, 3):
        repeated = _repeat_scheme(base, times)
        assert repeated._broadcast == {}
        assert repeated.n == 2 * times
        assert receiver_ranks(src, repeated) == stacked_ranks(src, repeated)


def test_broadcast_symbols_refuse_a_scheme_for_other_users():
    src = example1_source()
    w = [1, 2, 3, 4, 0, 1]
    two_users = make_linear_source(src.matrices[:2], p=src.p, N=src.N)
    with pytest.raises(DimensionMismatch):
        broadcast_symbols(two_users, handbuilt_example1_scheme(), w)
    two_senders = TransmissionScheme(
        n=2, p=5, coefficients=handbuilt_example1_scheme().coefficients[:2])
    with pytest.raises(DimensionMismatch):
        broadcast_symbols(src, two_senders, w)


def test_decode_takes_numpy_integers_as_it_takes_ints():
    src = example1_source()
    scheme = handbuilt_example1_scheme()
    w = [1, 2, 3, 4, 0, 1]
    casts = broadcast_symbols(src, scheme, w)
    wide = [np.array(c, dtype=np.int64) + 5 * 10 ** 17 for c in casts]
    for j in range(src.m):
        side = user_observation(src, j, w, 2)
        want = decode(src, scheme, j, side, casts)
        assert want == tuple(w)
        got = decode(src, scheme, j, np.array(side, dtype=np.int64) - 5, wide)
        assert got == want
        assert all(type(x) is int for x in got)


def test_symbols_of_a_numpy_block_equal_those_of_python_ints():
    # At p = 2^61 - 1 an entry times a numpy int64 symbol overflows int64,
    # so each symbol is reduced as a Python int.
    p = 2 ** 61 - 1
    assert FieldMatrix(1, 1, p, [2 ** 60]).mul_vector([np.int64(2 ** 60)]) == (2 ** 120 % p,)
    rng = random.Random(63)
    n = 2
    src = random_linear_source(rng, m=3, n_packets=4, p=p)
    scheme = TransmissionScheme(n=n, p=p, coefficients=tuple(
        FieldMatrix.random(2, n * a.rows, p, rng) for a in src.matrices))
    w = [rng.randrange(p) for _ in range(n * src.N)]
    block = np.array(w, dtype=np.int64)
    for i, a in enumerate(src.matrices):
        assert a.mul_vector(block[:src.N]) == a.mul_vector(w[:src.N])
        assert user_observation(src, i, block, n) == user_observation(src, i, w, n)
    assert broadcast_symbols(src, scheme, block) == broadcast_symbols(src, scheme, w)


def test_user_observation_equals_the_expanded_product():
    rng = random.Random(62)
    for n in range(1, 5):
        src = random_linear_source(rng, m_max=4, n_max=5, primes=(2, 5, 101, 2 ** 61 - 1))
        w = [rng.randrange(-3 * src.p, 3 * src.p) for _ in range(n * src.N)]
        for i in range(src.m):
            want = kron_block(n, src.matrices[i]).mul_vector(w)
            assert user_observation(src, i, w, n) == want


@pytest.mark.parametrize("m", range(1, 9))
def test_leave_one_out_ranks_equal_the_stacked_ranks(m):
    # Odd and even splits, users that send nothing, and random heights.
    rng = random.Random(200 + m)
    for _ in range(6):
        src = random_linear_source(rng, m=m, n_packets=rng.randint(1, 5),
                                   primes=(2, 5, 7, 101))
        n = rng.randint(1, 3)
        coeffs = tuple(
            FieldMatrix.random(rng.choice((0, rng.randint(0, n * a.rows))),
                               n * a.rows, src.p, rng)
            for a in src.matrices)
        scheme = TransmissionScheme(n=n, p=src.p, coefficients=coeffs)
        assert receiver_ranks(src, scheme) == stacked_ranks(src, scheme)


@pytest.mark.parametrize("m", range(2, 9))
def test_leave_one_out_ranks_keep_each_receiver_to_its_own_rows(m):
    # Every user but one observes all of W and sends nothing; the one user
    # observes a part and hears only a part of the rest.  If another
    # receiver's rows reached its space, it would read full rank.
    rng = random.Random(300 + m)
    p, n_packets = 5, 4
    for short in range(m):
        mats = [FieldMatrix.identity(n_packets, p) for _ in range(m)]
        mats[short] = FieldMatrix.from_rows([[1, 0, 0, 0]], p)
        src = make_linear_source(mats, p=p, N=n_packets)
        n = rng.randint(1, 3)
        coeffs = [FieldMatrix.zeros(0, n * a.rows, p) for a in mats]
        helper = (short + 1) % m
        coeffs[helper] = FieldMatrix.random(n, n * n_packets, p, rng)
        scheme = TransmissionScheme(n=n, p=p, coefficients=tuple(coeffs))
        got = receiver_ranks(src, scheme)
        assert got == stacked_ranks(src, scheme)
        assert [j for j, (r, need) in enumerate(got) if r < need] == [short]
        assert got[short][0] <= 2 * n


def test_unknown_users_are_refused_by_observation_and_decode():
    src = example1_source()
    scheme = handbuilt_example1_scheme()
    w = [1, 2, 3, 4, 0, 1]
    casts = broadcast_symbols(src, scheme, w)
    side = user_observation(src, 0, w, 2)
    for i, shown in ((-1, 0), (3, 4)):
        with pytest.raises(UnknownReceiver, match=f"^user {shown} outside 1..3$"):
            user_observation(src, i, w, 2)
        with pytest.raises(UnknownReceiver, match=f"^receiver {shown} outside 1..3$"):
            decode(src, scheme, i, side, casts)
    net = build_network(src, halves(), 2)
    with pytest.raises(UnknownReceiver, match="^receiver 4 outside 1..3$"):
        expanded_transfer_matrix(net, src, 3)


def random_base(rng, src, n):
    # Coefficient matrices of random heights, zero included.
    return TransmissionScheme(n=n, p=src.p, coefficients=tuple(
        FieldMatrix.random(rng.randint(0, n * a.rows), n * a.rows, src.p, rng)
        for a in src.matrices))


def round_trip(scheme):
    # A scheme as read from its document, with no memo warm.
    return parse_scheme(scheme_to_json(scheme, "u"))[0]


def test_repeated_schemes_match_the_stacked_system():
    rng = random.Random(500)
    checked = 0
    for trial in range(60):
        src = random_linear_source(rng, m_max=5, n_max=5, primes=(5, 7, 101))
        base = random_base(rng, src, rng.choice((1, 2)))
        g = rng.choice((2, 3))
        repeated = _repeat_scheme(base, g)
        loaded = round_trip(repeated)
        assert loaded == repeated and "_repeats" not in loaded.__dict__
        want = stacked_ranks(src, repeated)
        assert receiver_ranks(src, repeated) == want, trial
        assert receiver_ranks(src, loaded) == want, trial
        if math.gcd(base.n, *base.tx) == 1:
            # Only g = gcd(n, tx_1, .., tx_m) is looked for, as construct_code
            # builds it.
            assert loaded._repeats[0] == g
        w = [rng.randrange(src.p) for _ in range(repeated.n * src.N)]
        casts = broadcast_symbols(src, loaded, w)
        assert casts == [expanded_product(repeated, src, i).mul_vector(w)
                         for i in range(src.m)]
        for j, (got, need) in enumerate(want):
            if got == need:
                side = user_observation(src, j, w, repeated.n)
                assert decode(src, repeated, j, side, casts) == tuple(w)
                assert decode(src, loaded, j, side, casts) == tuple(w)
                checked += 1
    assert checked > 20


def test_a_scheme_that_is_nearly_repeated_is_eliminated_whole():
    rng = random.Random(501)
    for trial in range(20):
        src = random_linear_source(rng, m=rng.randint(2, 4), n_packets=rng.randint(2, 4),
                                   primes=(5, 7, 101))
        base = TransmissionScheme(n=1, p=src.p, coefficients=tuple(
            FieldMatrix.random(rng.randint(1, a.rows), a.rows, src.p, rng)
            for a in src.matrices))
        rows = [c.to_rows() for c in _repeat_scheme(base, 2).coefficients]
        u = rng.randrange(src.m)
        rows[u][0][-1] = rng.randrange(1, src.p)      # off the block diagonal
        near = TransmissionScheme(n=2, p=src.p, coefficients=tuple(
            FieldMatrix.from_rows(r, src.p) for r in rows))
        assert near._repeats == (1, near)
        assert receiver_ranks(src, near) == stacked_ranks(src, near), trial
        w = [rng.randrange(src.p) for _ in range(2 * src.N)]
        assert broadcast_symbols(src, near, w) == [
            expanded_product(near, src, i).mul_vector(w) for i in range(src.m)]


def test_decode_of_a_repeated_scheme_reports_as_the_whole_system():
    # One repetition's symbol changed, at receivers of full rank and at
    # receivers left short, against the echelon form of the whole system.
    rng = random.Random(502)
    seen = set()
    for trial in range(40):
        src = random_linear_source(rng, m=rng.randint(2, 4), n_packets=rng.randint(1, 4),
                                   primes=(5, 7))
        scheme = round_trip(_repeat_scheme(random_base(rng, src, 1), rng.choice((2, 3))))
        w = [rng.randrange(src.p) for _ in range(scheme.n * src.N)]
        casts = broadcast_symbols(src, scheme, w)
        for j in range(src.m):
            side = user_observation(src, j, w, scheme.n)
            senders = [i for i in range(src.m) if i != j and casts[i]]
            cases = [casts]
            if senders:
                tampered = [list(c) for c in casts]
                i = rng.choice(senders)
                tampered[i][rng.randrange(len(tampered[i]))] += rng.randrange(1, src.p)
                cases.append(tampered)
            for received in cases:
                args = (src, scheme, j, side, received)
                got = decode_outcome(decode, *args)
                assert got == decode_outcome(echelon_decode, *args), (trial, j)
                seen.add(got if isinstance(got, str) else "solved")
    assert seen == {"solved", "received symbols are contradictory",
                    "received symbols do not determine the packet block uniquely"}


def count_calls(monkeypatch, owner, name):
    # Every call of owner.name, with its arguments, in order.
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_verify_stops_at_the_first_receiver_short_of_full_rank(monkeypatch):
    src = example1_source()
    scheme = handbuilt_example1_scheme()
    crippled = TransmissionScheme(n=2, p=5, coefficients=(
        FieldMatrix.zeros(0, 4, 5), *scheme.coefficients[1:]))
    # Each receiver packs its own rows once, and nothing else does.
    receivers = count_calls(monkeypatch, RowSpace, "pack_rows")
    assert not verify_omniscience(src, crippled)
    assert len(receivers) == 2
    receivers.clear()
    assert receiver_ranks(src, crippled)[1] == (5, 6)
    assert len(receivers) == src.m


@pytest.mark.parametrize("n, g", [(2, 1), (4, 2), (6, 3)])
def test_code_reports_the_ranks_its_draw_was_verified_with(n, g, monkeypatch, tmp_path,
                                                           capsys):
    # At n = 4 and 6 the draw at n = 2 is repeated twice and three times.
    added = count_calls(monkeypatch, RowSpace, "add_packed")
    built = []
    construct = netcode.construct_code

    def spied(*args, **kwargs):
        scheme = construct(*args, **kwargs)
        built.append((scheme, len(added)))
        return scheme

    monkeypatch.setattr(netcode, "construct_code", spied)
    out = tmp_path / "scheme.json"
    argv = ["code", str(fixtures.path("example1")), "--n", str(n), "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    (scheme, drawn), = built
    assert scheme._repeats[0] == g and scheme.n == n
    assert drawn == len(added) > 0
    assert [(r["achieved_rank"], r["required_rank"]) for r in report["receivers"]] == (
        stacked_ranks(example1_source(), scheme))


def test_code_reports_what_verify_finds_on_the_scheme_it_writes(monkeypatch, tmp_path,
                                                                capsys):
    # Documents shaped like the benchmark's code-verify traffic: p is the
    # smallest prime above m, so some draws fail before one verifies.
    rng = random.Random(640)
    checks = []
    verify = netcode.verify_omniscience

    def spied(src, scheme):
        checks.append(verify(src, scheme))
        return checks[-1]

    monkeypatch.setattr(netcode, "verify_omniscience", spied)
    for trial in range(40):
        m = rng.randint(4, 6)
        p = {4: 5, 5: 7, 6: 7}[m]
        src = random_linear_source(rng, m=m, n_packets=rng.randint(4, 8), p=p)
        doc = dict(linear_document(src), n=rng.randint(1, 4), seed=rng.randrange(1 << 16))
        problem, out = tmp_path / f"code-{trial}.json", tmp_path / f"scheme-{trial}.json"
        problem.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["code", str(problem), "--out", str(out)]) == 0, trial
        code = json.loads(capsys.readouterr().out)
        assert main(["verify", str(problem), str(out)]) == 0, trial
        assert json.loads(capsys.readouterr().out)["receivers"] == code["receivers"], trial
        scheme = parse_scheme(json.loads(out.read_text(encoding="utf-8")))[0]
        assert [(r["achieved_rank"], r["required_rank"]) for r in code["receivers"]] == (
            stacked_ranks(src, scheme)), trial
    assert not all(checks)


def test_code_at_zero_rates_writes_a_scheme_with_no_broadcast(tmp_path, capsys):
    # Every user holds W, so every rate is 0 and gcd(n, 0, .., 0) = n.
    p, N = 5, 2
    src = make_linear_source([FieldMatrix.from_rows([[1, 0], [0, 1]], p)] * 3, p=p, N=N)
    problem, out = tmp_path / "problem.json", tmp_path / "scheme.json"
    problem.write_text(json.dumps(linear_document(src)), encoding="utf-8")
    assert main(["code", str(problem), "--n", "3", "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 3 and report["broadcast_rows"] == [0, 0, 0]
    scheme = parse_scheme(json.loads(out.read_text(encoding="utf-8")))[0]
    assert scheme.n == 3 and scheme.tx == (0, 0, 0)
    assert scheme._repeats[0] == 3
    assert main(["verify", str(problem), str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["omniscience"] is True


def test_repeated_schemes_are_eliminated_at_their_base_length(monkeypatch):
    # construct_code's scheme and one read from a file both find the base.
    src = example1_source()
    built = construct_code(src, RateVector((1, 1, 1), unit="F_5-symbols"), 4, seed=5)
    loaded = round_trip(built)
    spaces = count_calls(monkeypatch, RowSpace, "__init__")
    w = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]
    for scheme in (built, loaded):
        assert receiver_ranks(src, scheme) == [(12, 12)] * 3
        assert verify_omniscience(src, scheme)
        casts = broadcast_symbols(src, scheme, w)
        for j in range(src.m):
            side = user_observation(src, j, w, 4)
            assert decode(src, scheme, j, side, casts) == tuple(x % 5 for x in w)
    assert spaces and {cols for _space, cols, _p in spaces} == {src.N + 1}
    assert built._repeats[0] == loaded._repeats[0] == 4


def test_rank_and_base_memos_are_invisible():
    # Both cached properties warm: the broadcast rows and, for the scheme
    # repeated twice by construct_code, the base that detection finds.
    src = example1_source()
    repeated = construct_code(src, RateVector((1, 1, 1), unit="F_5-symbols"), 2, seed=5)
    whole = handbuilt_example1_scheme()
    w = [1, 2, 3, 4, 0, 1]
    for warm, g in ((repeated, 2), (whole, 1)):
        fresh = round_trip(warm)
        assert receiver_ranks(src, warm) == receiver_ranks(src, round_trip(warm))
        casts = broadcast_symbols(src, warm, w)
        decode(src, warm, 0, user_observation(src, 0, w, 2), casts)
        warm.broadcast_rows(src, 0)
        assert warm._broadcast and warm._repeats[0] == g
        assert "_broadcast" not in fresh.__dict__ and "_repeats" not in fresh.__dict__
        assert warm == fresh
        assert hash(warm) == hash(fresh)
        assert repr(warm) == repr(fresh)
        assert "_broadcast" not in repr(warm) and "_repeats" not in repr(warm)
