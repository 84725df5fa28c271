"""Integer layer: extended gcd, Smith normal form, cokernel presentations."""

import random
from math import gcd

import pytest
from hypothesis import given, strategies as st

from divclass.errors import DegenerateInput
from divclass.exactmath import (
    BezoutPair,
    FiniteAbelianGroup,
    bezout_vector,
    cokernel_with_generator_images,
    divisors,
    euler_phi,
    PRIME_TEST_BOUND,
    factorize,
    group_from_diagonal,
    is_prime,
    integer_determinant,
    multiplicative_order,
    smith_normal_form,
    xgcd,
)
from divclass.oracle import quotient_invariants_bruteforce


nonzero_int = st.integers(min_value=-10**6, max_value=10**6).filter(lambda k: k != 0)


@given(nonzero_int, st.integers(min_value=-10**6, max_value=10**6))
def test_xgcd_identity(m, n):
    g, a, b = xgcd(m, n)
    assert a * m + b * n == g
    assert g > 0
    assert m % g == 0 and n % g == 0


def test_xgcd_examples():
    assert xgcd(12, 18) == (6, -1, 1)
    g, a, b = xgcd(-4, 6)
    assert g == 2 and a * -4 + b * 6 == 2
    with pytest.raises(DegenerateInput):
        xgcd(0, 0)


class TestBezoutPair:
    def test_canonical_range(self):
        for m in range(1, 40):
            for n in range(2, 40):
                if xgcd(m, n)[0] != 1:
                    continue
                pair = BezoutPair.make(m, n)
                assert 1 <= pair.a <= n - 1
                assert pair.a * m + pair.b * n == 1

    def test_n_equal_one(self):
        pair = BezoutPair.make(7, 1)
        assert (pair.a, pair.b) == (0, 1)

    def test_noncoprime_rejected(self):
        with pytest.raises(DegenerateInput):
            BezoutPair.make(6, 9)

    def test_constructor_validates(self):
        with pytest.raises(DegenerateInput):
            BezoutPair(1, 1, 2, 3)  # 1*2 + 1*3 = 5, identity fails
        with pytest.raises(DegenerateInput):
            BezoutPair(-1, 1, 2, 3)  # identity holds but a outside [1, n-1]

    def test_known_value(self):
        # m = 2, n = 3: 2*2 - 1*3 = 1
        assert BezoutPair.make(2, 3) == BezoutPair(2, -1, 2, 3)


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=6))
def test_bezout_vector_identity(c):
    s = bezout_vector(c)
    assert len(s) == len(c)
    g = 0
    for ci in c:
        g = gcd(g, ci)
    assert sum(si * ci for si, ci in zip(s, c)) == g


def test_bezout_vector_prefers_early_coordinates():
    assert bezout_vector((1, 1)) == (1, 0)
    assert bezout_vector((1, 7, 9)) == (1, 0, 0)


def test_bezout_vector_rejects_bad_input():
    with pytest.raises(DegenerateInput):
        bezout_vector(())
    with pytest.raises(DegenerateInput):
        bezout_vector((3, 0))


def _det_laplace(M):
    k = len(M)
    if k == 0:
        return 1
    if k == 1:
        return M[0][0]
    total = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1) ** j * M[0][j] * _det_laplace(minor)
    return total


@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    )
)
def test_integer_determinant_matches_laplace(M):
    assert integer_determinant(M) == _det_laplace(M)


def test_integer_determinant_edges():
    assert integer_determinant([]) == 1
    assert integer_determinant([[5]]) == 5
    assert integer_determinant([[1, 2], [3, 4]]) == -2
    assert integer_determinant([[2, 4], [1, 2]]) == 0


small_matrix = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-20, max_value=20), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@given(small_matrix)
def test_smith_normal_form_properties(M):
    U, S, V = smith_normal_form(M)
    rows, cols = len(M), len(M[0])
    # U*M*V = S
    UM = [[sum(U[i][k] * M[k][j] for k in range(rows)) for j in range(cols)] for i in range(rows)]
    UMV = [[sum(UM[i][k] * V[k][j] for k in range(cols)) for j in range(cols)] for i in range(rows)]
    assert UMV == S
    assert abs(integer_determinant(U)) == 1
    assert abs(integer_determinant(V)) == 1
    diag = [S[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert S[i][j] == 0
    assert all(d >= 0 for d in diag)
    for x, y in zip(diag, diag[1:]):
        if x:
            assert y % x == 0
        else:
            assert y == 0


def test_smith_normal_form_examples():
    _, S, _ = smith_normal_form([[2, 4], [6, 8]])
    assert [S[0][0], S[1][1]] == [2, 4]
    _, S, _ = smith_normal_form([[2, 0], [0, 3]])
    assert [S[0][0], S[1][1]] == [1, 6]
    _, S, _ = smith_normal_form([[0, 0], [0, 0]])
    assert S == [[0, 0], [0, 0]]


def test_group_from_diagonal():
    assert group_from_diagonal([1, 1, 3, 6]).invariant_factors == (3, 6)
    assert group_from_diagonal([1]).is_trivial
    with pytest.raises(DegenerateInput):
        group_from_diagonal([2, 0])


def test_finite_abelian_group_str_and_order():
    g = FiniteAbelianGroup((2, 2, 4))
    assert str(g) == "(Z/2)^2 x Z/4"
    assert g.order == 16
    assert str(FiniteAbelianGroup(())) == "trivial"
    with pytest.raises(DegenerateInput):
        FiniteAbelianGroup((3, 4))  # 3 does not divide 4
    with pytest.raises(DegenerateInput):
        FiniteAbelianGroup((1, 2))


class TestCokernel:
    """Cokernel of 1 |-> (p_1, ..., p_r) into a product of cyclic groups."""

    def test_diagonal_embedding_coprime(self):
        # image of 1 is (a, a, a) with gcd(a, n) = 1: quotient is (Z/n)^2
        for n in (2, 3, 5, 8):
            a = BezoutPair.make(3 if n != 3 else 2, n).a
            got = cokernel_with_generator_images([a, a, a], [n, n, n])[0]
            assert got.invariant_factors == (n, n)

    def test_single_cyclic(self):
        assert cokernel_with_generator_images([1], [5])[0].is_trivial
        assert cokernel_with_generator_images([0], [5])[0].invariant_factors == (5,)
        assert cokernel_with_generator_images([2], [6])[0].invariant_factors == (2,)

    def test_empty(self):
        assert cokernel_with_generator_images([], [])[0].is_trivial

    def test_against_bruteforce(self):
        cases = [
            ([1, 1], [4, 6]),
            ([2, 3], [4, 9]),
            ([3, 3, 3], [9, 9, 9]),
            ([5, 1, 2], [10, 4, 8]),
            ([0, 0], [2, 2]),
        ]
        for nums, mods in cases:
            got = cokernel_with_generator_images(nums, mods)[0]
            want = quotient_invariants_bruteforce(tuple(mods), [tuple(nums)])
            assert got.invariant_factors == want, (nums, mods)

    def test_length_mismatch(self):
        with pytest.raises(DegenerateInput):
            cokernel_with_generator_images([1], [2, 3])


def test_generator_images_have_stated_orders():
    group, images, orders = cokernel_with_generator_images([2, 2], [4, 4])
    assert group.invariant_factors == (2, 4)
    assert len(images) == len(orders) == 2
    fs = group.invariant_factors
    for img, order in zip(images, orders):
        # order of a coordinate vector in (+) Z/d_i
        lcm = 1
        for coord, d in zip(img, fs):
            o = d // gcd(coord, d)
            lcm = lcm * o // gcd(lcm, o)
        assert lcm == order


def test_generator_images_span_the_quotient():
    group, images, orders = cokernel_with_generator_images([3, 3], [9, 9])
    # (Z/9)^2 modulo the diagonal copy of Z/3
    assert group.invariant_factors == (3, 9)
    # the images of e_1, e_2 must generate the whole cokernel: brute force
    # the subgroup they span inside (+) Z/d_i
    fs = group.invariant_factors
    seen = {tuple(0 for _ in fs)}
    frontier = [tuple(0 for _ in fs)]
    while frontier:
        x = frontier.pop()
        for img in images:
            y = tuple((xi + gi) % d for xi, gi, d in zip(x, img, fs))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    assert len(seen) == group.order

    # every presentation the pipeline builds: 1 |-> (a, ..., a) in (Z/n)^r
    # with gcd(a, n) = 1.  The first r - 1 images must form a basis of
    # (Z/n)^(r-1), which a determinant that is a unit mod n shows without
    # the Smith form; the relation sum_t a*e_t = 0 must hold in the images.
    for n in range(2, 41):
        for a in (a for a in range(1, n) if gcd(a, n) == 1):
            for r in range(1, 7):
                group, images, orders = cokernel_with_generator_images([a] * r, [n] * r)
                assert group.invariant_factors == (n,) * (r - 1), (n, a, r)
                assert orders[: r - 1] == [n] * (r - 1), (n, a, r)
                for i, d in enumerate(group.invariant_factors):
                    assert sum(a * img[i] for img in images) % d == 0, (n, a, r)
                det = integer_determinant([list(img) for img in images[: r - 1]])
                assert gcd(det, n) == 1, (n, a, r)


def test_smith_transforms_stay_small():
    # criterion 8's 500 matrices, drawn as tests/test_acceptance.py draws them:
    # no entry of U or V may pass 4*(rows + cols)*bits(max|M|) bits
    rng = random.Random(20260814)
    for _ in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = [[rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)]
        U, _, V = smith_normal_form(M)
        bound = 4 * (rows + cols) * max(abs(x) for row in M for x in row).bit_length()
        for entry in (x for T in (U, V) for row in T for x in row):
            assert abs(entry).bit_length() <= bound, M


def test_factorize_and_divisors():
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_is_prime_agrees_with_trial_division():
    def by_trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

    assert [n for n in range(-5, 10**4) if is_prime(n) != by_trial(n)] == []


def test_is_prime_is_exact_up_to_its_bound():
    # 318665857834031151167461 is a strong pseudoprime to every base up to
    # 37, so only the base 41 exposes it; the bound itself is one to all 13
    # bases and is refused with everything above it
    assert not is_prime(318665857834031151167461)
    assert is_prime(10**18 + 3) and is_prime(PRIME_TEST_BOUND - 168)
    assert not is_prime(PRIME_TEST_BOUND - 1)
    for n in (PRIME_TEST_BOUND, 10**29 + 319):
        with pytest.raises(DegenerateInput):
            is_prime(n)


def test_euler_phi():
    known = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4, 97: 96, 100: 40}
    for n, phi in known.items():
        assert euler_phi(n) == phi


def test_multiplicative_order():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(1, 5) == 1
    for a, n in [(2, 9), (5, 12), (7, 10)]:
        k = multiplicative_order(a, n)
        assert pow(a, k, n) == 1
        assert all(pow(a, j, n) != 1 for j in range(1, k))
    with pytest.raises(DegenerateInput):
        multiplicative_order(2, 4)
