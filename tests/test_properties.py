"""Property-based checks of the core exact-arithmetic invariants."""

from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from istrata import exact
from istrata.lattices import IntegralLattice, direct_sum, inertia, is_negative_definite
from istrata.normalform import apply_change, compose_changes, random_deformation
from istrata.normalform import ChangeOfVariables, _substitute, monomial_weight
from istrata.roots import _simple_roots, decompose_root_system, enumerate_roots
from istrata.tori import RationalTorus, TorusPoint

ints = st.integers(min_value=-20, max_value=20)


def square_matrix(n):
    return st.lists(
        st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n
    )


@settings(max_examples=40, deadline=None)
@given(square_matrix(4))
def test_snf_transform_identity_and_divisibility(m):
    u, d, v = exact.smith_normal_form(m)
    assert exact.mat_mul(exact.mat_mul(u, m), v) == d
    assert abs(exact.det_bareiss(u)) == 1
    assert abs(exact.det_bareiss(v)) == 1
    diag = [d[i][i] for i in range(4)]
    for i in range(4):
        for j in range(4):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0


@settings(max_examples=40, deadline=None)
@given(square_matrix(3), square_matrix(3))
def test_det_multiplicative(a, b):
    assert exact.det_bareiss(exact.mat_mul(a, b)) == exact.det_bareiss(
        a
    ) * exact.det_bareiss(b)


@settings(max_examples=40, deadline=None)
@given(square_matrix(4))
def test_hnf_preserves_row_span(m):
    h, u = exact.hermite_normal_form(m)
    assert exact.mat_mul(u, m) == h
    for row in h:
        if not exact.is_zero_vector(row):
            assert exact.in_row_span(m, row)
    for row in m:
        nonzero = [r for r in h if not exact.is_zero_vector(r)]
        if nonzero:
            assert exact.in_row_span(nonzero, row)
        else:
            assert exact.is_zero_vector(row)


@settings(max_examples=40, deadline=None)
@given(square_matrix(4))
def test_kernel_annihilates(m):
    for v in exact.integer_kernel(m):
        assert exact.is_zero_vector(exact.mat_vec(m, v))


fracs = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=12
)
points = st.lists(fracs, min_size=2, max_size=2).map(
    lambda cs: TorusPoint(tuple(cs))
)


@settings(max_examples=60, deadline=None)
@given(points, points, points)
def test_torus_group_laws(a, b, c):
    zero = RationalTorus(2).zero()
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a
    assert (a + (-a)).is_zero()


@settings(max_examples=30, deadline=None)
@given(points)
def test_torus_order_annihilates(p):
    n = p.order()
    total = RationalTorus(2).zero()
    for _ in range(n):
        total = total + p
    assert total.is_zero()


small_fracs = st.fractions(
    min_value=Fraction(-2), max_value=Fraction(2), max_denominator=6
)
changes = st.tuples(
    st.lists(small_fracs, min_size=2, max_size=2),
    st.lists(small_fracs, min_size=4, max_size=4),
    small_fracs,
).map(lambda t: ChangeOfVariables(alpha=tuple(t[0]), beta=tuple(t[1]), gamma=t[2]))


@settings(max_examples=25, deadline=None)
@given(changes, changes, st.integers(min_value=0, max_value=10**6))
def test_change_composition_law(c1, c2, seed):
    p = random_deformation(seed)
    lhs = apply_change(apply_change(p, c1), c2)
    rhs = apply_change(p, compose_changes(c1, c2))
    assert lhs.coeffs == rhs.coeffs


@settings(max_examples=25, deadline=None)
@given(changes)
def test_change_fixes_leading_part(c):
    p = random_deformation(11)
    assert apply_change(p, c).t_part(0) == p.t_part(0)


WEIGHT6_MONOMIALS = [
    e for e in product(range(4), range(3), range(7), range(7)) if monomial_weight(e) == 6
]


@settings(max_examples=25, deadline=None)
@given(changes, st.integers(min_value=0, max_value=10**6))
def test_pruned_substitution_matches_full_coefficient(c, seed):
    p = random_deformation(seed)
    full = apply_change(p, c)
    for m in WEIGHT6_MONOMIALS:
        assert _substitute(p, c, m).get(m, 0) == full.coefficient(m)


@settings(max_examples=60, deadline=None)
@given(square_matrix(3))
def test_rational_inverse_is_two_sided_or_raises(m):
    if exact.det_bareiss(m) == 0:
        with pytest.raises(ValueError):
            exact.rational_inverse(m)
    else:
        inv = exact.rational_inverse(m)
        assert exact.mat_mul(inv, m) == exact.identity_matrix(3)
        assert exact.mat_mul(m, inv) == exact.identity_matrix(3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(ints, min_size=3, max_size=3), min_size=3, max_size=5),
    st.lists(fracs, min_size=3, max_size=3),
)
def test_solve_unique_recovers_x(a, x):
    # full column rank, certified by an independent Smith normal form
    assume(len(exact.invariant_factors(a)) == 3)
    assert exact.solve_unique(a, exact.mat_vec(a, x)) == x


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=6, max_size=6),
        min_size=1,
        max_size=4,
    )
)
def test_pivot_columns_are_greedy_independent_columns(a):
    def rank(cols):
        return len(exact.invariant_factors([[row[j] for j in cols] for row in a]))

    greedy = []
    for j in range(len(a[0])):
        if rank(greedy + [j]) == len(greedy) + 1:
            greedy.append(j)
    assert exact.pivot_columns(a) == greedy


def _gram_schmidt(gram):
    """(B, mu) with B[i] = |b_i*|² and mu the Gram–Schmidt coefficients."""
    g = [[Fraction(x) for x in row] for row in gram]
    n = len(g)
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = []
    for i in range(n):
        for j in range(i):
            s = g[i][j] - sum(mu[j][k] * mu[i][k] * B[k] for k in range(j))
            mu[i][j] = s / B[j]
        B.append(g[i][i] - sum(mu[i][k] ** 2 * B[k] for k in range(i)))
    return B, mu


def positive_definite_gram(max_rank, entries):
    """A·Aᵀ + I for a random small integer square matrix A."""
    def build(a):
        n = len(a)
        g = exact.mat_mul(a, exact.transpose(a))
        return [[g[i][j] + (i == j) for j in range(n)] for i in range(n)]

    return st.integers(min_value=1, max_value=max_rank).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    ).map(build)


@settings(max_examples=80, deadline=None)
@given(positive_definite_gram(6, st.integers(min_value=-9, max_value=9)))
def test_lll_is_reduced_and_unimodular(g0):
    g, u = exact.lll_reduce_gram(g0)
    assert g == exact.mat_mul(exact.mat_mul(u, g0), exact.transpose(u))
    assert abs(exact.det_bareiss(u)) == 1
    B, mu = _gram_schmidt(g)
    for i in range(len(g)):
        for j in range(i):
            assert abs(mu[i][j]) <= Fraction(1, 2)
        if i:
            assert B[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * B[i - 1]


@pytest.mark.parametrize("gram", [[[0, 1], [1, 0]], [[1, 2], [2, 1]]])
def test_lll_rejects_indefinite_gram(gram):
    with pytest.raises(ValueError):
        exact.lll_reduce_gram(gram)


@settings(max_examples=80, deadline=None)
@given(
    positive_definite_gram(4, st.integers(min_value=-2, max_value=2)),
    st.integers(min_value=1, max_value=6),
)
def test_short_vectors_match_box_enumeration(gram, bound):
    # gram ⪰ I, so every x with xᵀ·gram·x ≤ bound has |xᵢ|² ≤ bound
    r = isqrt(bound)
    expected = []
    for x in product(range(-r, r + 1), repeat=len(gram)):
        last = next((c for c in reversed(x) if c), 0)
        if last > 0 and exact.dot_gram(x, gram, x) <= bound:
            expected.append(x)
    assert sorted(exact.short_vectors(gram, bound)) == sorted(expected)


def _neg_cartan(label):
    """−Cartan of an irreducible ADE type, Bourbaki numbering."""
    fam, n = label[0], int(label[1:])
    edges = [(i, i + 1) for i in range(n - 1)]
    if fam == "D":
        edges = edges[:-1] + [(n - 3, n - 1)]
    elif fam == "E":
        edges = [(0, 2), (2, 3), (1, 3)] + [(i, i + 1) for i in range(3, n - 1)]
    g = [[-2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = 1
    return g


ade_labels = st.sampled_from(
    ["A1", "A2", "A3", "A5", "D4", "D5", "D6", "E6", "E7", "E8"]
)
elementary_ops = st.lists(
    st.tuples(st.integers(0, 99), st.integers(1, 99), st.integers(-2, 2)),
    max_size=16,
)


@settings(max_examples=25, deadline=None)
@given(st.lists(ade_labels, min_size=1, max_size=3), elementary_ops, st.randoms())
def test_height_ordered_simple_roots_match_pairwise_rule(labels, ops, rng):
    lat = direct_sum(*(IntegralLattice(_neg_cartan(x)) for x in labels))
    n = lat.rank
    # a random unimodular basis change: row i += c·row j
    u = exact.identity_matrix(n)
    for i, k, c in ops:
        i, j = i % n, (i + k) % n
        if i != j:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    g = exact.mat_mul(exact.mat_mul(u, lat.gram_lists()), exact.transpose(u))
    L = IntegralLattice(g)
    # one root per ± pair in a random order and with random signs
    roots = [r if rng.random() < 0.5 else tuple(-x for x in r) for r in enumerate_roots(L)]
    rng.shuffle(roots)
    # reference: the positive roots that are not a sum of two positive roots,
    # in the order of `roots`
    positives = [max(r, tuple(-x for x in r)) for r in roots]
    pos_set = set(positives)
    expected = [
        r for r in positives
        if not any(tuple(a - b for a, b in zip(r, s)) in pos_set for s in positives)
    ]
    assert list(_simple_roots(L, roots)) == expected
    dec = decompose_root_system(L, roots)
    assert sorted(dec.all_simple_roots()) == sorted(expected)
    assert sorted(dec.label.split("+")) == sorted(labels)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n), elementary_ops)
))
def test_unimodular_inverse_is_integral_right_inverse(args):
    n, m, ops = args
    # a random unimodular n×n matrix: row i += c·row j, then keep m rows
    full = exact.identity_matrix(n)
    for i, k, c in ops:
        i, j = i % n, (i + k) % n
        if i != j:
            full[i] = [x + c * y for x, y in zip(full[i], full[j])]
    u = full[:m]
    r = exact.unimodular_inverse(u)
    assert all(type(x) is int for row in r for x in row)
    assert exact.mat_mul(u, r) == exact.identity_matrix(m)
    if m == n:
        assert exact.mat_mul(r, u) == exact.identity_matrix(n)


def _symmetric(upper, n):
    g = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = next(it)
    return g


def _negated_gram(a):
    """−A·Aᵀ: negative semidefinite, definite iff A has full row rank."""
    return [[-x for x in row] for row in exact.mat_mul(a, exact.transpose(a))]


small_symmetric = st.one_of(
    st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.integers(-3, 2), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2
        ).map(lambda upper: _symmetric(upper, n))
    ),
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-2, 2), min_size=n, max_size=n),
            min_size=n, max_size=n,
        ).map(_negated_gram)
    ),
)


@settings(max_examples=200, deadline=None)
@given(small_symmetric)
def test_sylvester_check_matches_inertia(g):
    n = len(g)
    assert is_negative_definite(IntegralLattice(g)) == (inertia(g) == (0, n, 0))
