"""Property-based checks of the core exact-arithmetic invariants."""

import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, isqrt, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from istrata import exact, strata
from istrata import io as serial
from istrata.cli import main
from istrata.lattices import (
    IntegralLattice,
    direct_sum,
    inertia,
    is_negative_definite,
    orthogonal_complement,
)
from istrata.normalform import apply_change, compose_changes, random_deformation
from istrata.normalform import ChangeOfVariables, WeightedPolynomial, _expand, _numerators
from istrata.normalform import _GAMMA_STEPS, _STEPS, _polynomial
from istrata.normalform import leading_form_invariants, monomial_weight, reduce_to_standard_form
from istrata.roots import _simple_roots, decompose_root_system, enumerate_roots
from istrata.strata import STRATUM_LABELS, build_stratum_model, compute_lambda
from istrata.torelli import gen_fixture
from istrata.tori import TorusPoint, kernel_points

ints = st.integers(min_value=-20, max_value=20)


def square_matrix(n):
    return st.lists(
        st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n
    )


def int_matrix(max_rows, max_cols):
    """An m×n integer matrix with 1 ≤ m ≤ max_rows, 1 ≤ n ≤ max_cols."""
    return st.tuples(
        st.integers(min_value=1, max_value=max_rows),
        st.integers(min_value=1, max_value=max_cols),
    ).flatmap(
        lambda mn: st.lists(
            st.lists(ints, min_size=mn[1], max_size=mn[1]),
            min_size=mn[0], max_size=mn[0],
        )
    )


@settings(max_examples=80, deadline=None)
@given(int_matrix(5, 5))
def test_snf_transform_identity_and_divisibility(a):
    m, n = len(a), len(a[0])
    u, facs, v, w = exact.smith_normal_form(a)
    d = [[facs[i] if i == j and i < len(facs) else 0 for j in range(n)] for i in range(m)]
    assert exact.mat_mul(exact.mat_mul(u, a), v) == d
    assert abs(exact.det_bareiss(u)) == 1
    assert exact.mat_mul(v, w) == exact.identity_matrix(n)
    assert all(f > 0 for f in facs)
    for x, y in zip(facs, facs[1:]):
        assert y % x == 0
    # the rank also counts the greedy independent columns
    assert len(facs) == len(exact.pivot_columns(a))


@settings(max_examples=40, deadline=None)
@given(square_matrix(3), square_matrix(3))
def test_det_multiplicative(a, b):
    assert exact.det_bareiss(exact.mat_mul(a, b)) == exact.det_bareiss(
        a
    ) * exact.det_bareiss(b)


@settings(max_examples=40, deadline=None)
@given(square_matrix(4))
def test_kernel_annihilates(m):
    for v in exact.integer_kernel(m):
        assert not any(exact.mat_vec(m, v))


@st.composite
def rows_and_gram(draw):
    """(B, G): up to five rows B, some of them zero, and a symmetric n×n G."""
    n = draw(st.integers(min_value=0, max_value=5))
    upper = iter(draw(st.lists(ints, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = next(upper)
    row = st.lists(ints, min_size=n, max_size=n)
    return draw(st.lists(st.one_of(st.just([0] * n), row), max_size=5)), g


@settings(max_examples=60, deadline=None)
@given(rows_and_gram())
@example(([], [[2, 1], [1, 0]]))
@example(([[0, 0], [1, -1]], [[2, 1], [1, 0]]))
def test_gram_of_is_the_pairwise_gram(case):
    rows, g = case
    expected = [[exact.dot_gram(a, g, b) for b in rows] for a in rows]
    tuple_rows = [tuple(r) for r in rows]
    assert exact.gram_of(rows, g) == expected
    assert exact.gram_of(tuple_rows, tuple(map(tuple, g))) == expected
    assert exact.mat_mul(tuple_rows, g) == exact.mat_mul(rows, g)


fracs = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=12
)
points = st.lists(fracs, min_size=2, max_size=2).map(
    lambda cs: TorusPoint(tuple(cs))
)


@settings(max_examples=60, deadline=None)
@given(points, points, points)
def test_torus_group_laws(a, b, c):
    zero = TorusPoint((0, 0))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a
    assert a + (-a) == zero


@settings(max_examples=30, deadline=None)
@given(points)
def test_torus_order_annihilates(p):
    n = p.order()
    total = TorusPoint((0, 0))
    for _ in range(n):
        total = total + p
    assert total == TorusPoint((0, 0))


@settings(max_examples=40, deadline=None)
@given(square_matrix(2))
def test_isogeny_kernel_has_order_degree(m):
    # a quotient by a finite subgroup is written as its projection M, so the
    # kernel kernel_points returns must be all |det M| points that M kills
    degree = abs(exact.det_bareiss(m))
    assume(degree != 0)
    grp, gens = kernel_points(m)
    assert grp.order == degree
    assert [g.order() for g in gens] == list(grp.invariant_factors)
    span = {
        sum((g.scale(c) for g, c in zip(gens, cs)), TorusPoint((0, 0)))
        for cs in product(*(range(d) for d in grp.invariant_factors))
    }
    assert len(span) == grp.order
    assert all(TorusPoint(tuple(exact.mat_vec(m, p.coords))) == TorusPoint((0, 0)) for p in span)


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


def naive_substitution(p, c):
    """p with x, y, z, t replaced by their images, expanded one factor at a
    time in `Fraction` arithmetic: an oracle that shares no code with
    `normalform._mul` or `_expand`."""
    a1, a2 = c.alpha
    b1, b2, b3, b4 = c.beta
    images = (
        {(1, 0, 0, 0): 1, (0, 0, 1, 1): a1, (0, 0, 0, 2): a2},
        {(0, 1, 0, 0): 1, (1, 0, 0, 1): b1, (0, 0, 2, 1): b2, (0, 0, 1, 2): b3, (0, 0, 0, 3): b4},
        {(0, 0, 1, 0): 1, (0, 0, 0, 1): c.gamma},
        {(0, 0, 0, 1): 1},
    )
    out = {}
    for exp, coef in p.coeffs:
        term = {(0, 0, 0, 0): Fraction(coef)}
        for img, n in zip(images, exp):
            for _ in range(n):
                prod = {}
                for e1, c1 in term.items():
                    for e2, c2 in img.items():
                        e = tuple(u + v for u, v in zip(e1, e2))
                        prod[e] = prod.get(e, Fraction(0)) + c1 * c2
                term = prod
        for e, v in term.items():
            out[e] = out.get(e, Fraction(0)) + v
    return {e: v for e, v in out.items() if v != 0}


# pairwise-coprime denominators for the t-divisible coefficients: the four
# smallest primes above 10³⁹, then the first twelve primes
BIG_PRIMES = (10**39 + 3, 10**39 + 37, 10**39 + 81, 10**39 + 87)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def coprime_deformation(branch):
    """A Weierstrass t⁰ part on `branch` ("g2" or "g3") and ±(2k+1)/qₖ on the
    k-th t-divisible weight-6 monomial, the qₖ pairwise coprime."""
    d = {(0, 2, 0, 0): Fraction(-1), (3, 0, 0, 0): Fraction(1), (0, 0, 6, 0): Fraction(5, 7)}
    if branch == "g2":
        d[(1, 0, 4, 0)] = Fraction(-2, 3)
    t_divisible = [m for m in WEIGHT6_MONOMIALS if m[3] > 0]
    assert len(t_divisible) == len(BIG_PRIMES + SMALL_PRIMES) == 16
    for k, (m, q) in enumerate(zip(t_divisible, BIG_PRIMES + SMALL_PRIMES)):
        d[m] = Fraction((-1) ** k * (2 * k + 1), q)
    return WeightedPolynomial.from_dict(d)


def deformation_on_branch(seed, branch):
    if branch == "g2":
        return random_deformation(seed)
    d = random_deformation(seed, cuspidal=True).as_dict()
    d[(0, 0, 6, 0)] = Fraction(seed % 40 + 1, 41)
    return WeightedPolynomial.from_dict(d)


wide_fracs = st.one_of(
    small_fracs,
    st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=10**40),
)
wide_changes = st.tuples(
    st.lists(wide_fracs, min_size=2, max_size=2),
    st.lists(wide_fracs, min_size=4, max_size=4),
    wide_fracs,
).map(lambda t: ChangeOfVariables(alpha=tuple(t[0]), beta=tuple(t[1]), gamma=t[2]))


@settings(max_examples=40, deadline=None)
@given(
    wide_changes,
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(("g2", "g3", "coprime-g2", "coprime-g3", "empty")),
)
@example(
    c=ChangeOfVariables(
        alpha=(Fraction(1, 3), Fraction(2)), beta=(Fraction(-1, 2),) * 4, gamma=Fraction(5, 7)
    ),
    seed=0,
    kind="empty",
)
def test_substitution_matches_naive_expansion(c, seed, kind):
    if kind == "empty":
        p = WeightedPolynomial(coeffs=())
    elif kind.startswith("coprime"):
        p = coprime_deformation(kind[-2:])
    else:
        p = deformation_on_branch(seed, kind)
    expected = naive_substitution(p, c)
    assert apply_change(p, c).as_dict() == expected
    # the integer carry: numerators over the lcm of the coefficients' denominators
    num, den = _numerators(p)
    terms, out_den = _expand(num, den, c)
    assert gcd(out_den, *[n for _, n in terms]) == 1
    assert out_den == lcm(*[v.denominator for v in expected.values()])
    assert terms == sorted(
        (e, v.numerator * (out_den // v.denominator)) for e, v in expected.items()
    )


def _elementary(k, u):
    """The change whose k-th parameter in (α₁, α₂, β₁, …, β₄, γ) is u."""
    p = [Fraction(0)] * 7
    p[k] = u
    return ChangeOfVariables(alpha=tuple(p[:2]), beta=tuple(p[2:6]), gamma=p[6])


# the seven elementary steps in order, as (target, parameter index, source, m)
SEVEN_STEPS = (
    ((1, 1, 0, 1), 2, (0, 2, 0, 0), 2),  # β₁: txy
    ((0, 1, 2, 1), 3, (0, 2, 0, 0), 2),  # β₂: tyz²
    ((0, 1, 1, 2), 4, (0, 2, 0, 0), 2),  # β₃: t²yz
    ((0, 1, 0, 3), 5, (0, 2, 0, 0), 2),  # β₄: t³y
    ((2, 0, 1, 1), 0, (3, 0, 0, 0), 3),  # α₁: tx²z
    ((2, 0, 0, 2), 1, (3, 0, 0, 0), 3),  # α₂: t²x²
)
SEVEN_GAMMA_STEPS = {
    "g2": ((1, 0, 3, 1), 6, (1, 0, 4, 0), 4),  # γ: txz³
    "g3": ((0, 0, 5, 1), 6, (0, 0, 6, 0), 6),  # γ: tz⁵
}


def seven_step_reduction(poly):
    """(branch, reduced polynomial, composed change) of the ungrouped
    reduction: one elementary substitution per parameter, each read off its
    target's coefficient after the previous step."""
    source = dict(zip(((0, 2, 0, 0), (3, 0, 0, 0), (1, 0, 4, 0), (0, 0, 6, 0)),
                      leading_form_invariants(poly)))
    branch = "g2" if source[(1, 0, 4, 0)] else "g3"
    total = ChangeOfVariables.identity()
    terms, den = _numerators(poly)
    for target, k, src, m in SEVEN_STEPS + (SEVEN_GAMMA_STEPS[branch],):
        n, c = dict(terms).get(target, 0), source[src]
        change = _elementary(k, Fraction(-n * c.denominator, den * m * c.numerator))
        terms, den = _expand(terms, den, change)
        total = compose_changes(total, change)
    return branch, _polynomial(terms, den), total


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(("g2", "g3", "coprime")))
@example(seed=0, kind="coprime")
def test_grouped_reduction_matches_seven_steps(seed, kind):
    # grouping the steps by source monomial changes neither a parameter nor
    # the composed change nor the reduced polynomial
    branch = ("g2", "g3")[seed % 2] if kind == "coprime" else kind
    p = coprime_deformation(branch) if kind == "coprime" else deformation_on_branch(seed, kind)
    r = reduce_to_standard_form(p)
    oracle_branch, oracle_poly, oracle_change = seven_step_reduction(p)
    assert (r.branch, r.polynomial.coeffs, r.change) == (
        oracle_branch, oracle_poly.coeffs, oracle_change
    )


@settings(max_examples=40, deadline=None)
@given(wide_fracs, st.integers(min_value=0, max_value=10**6), st.sampled_from(("g2", "g3")))
@example(u=Fraction(-3, 7), seed=0, branch="g3")
def test_step_slopes_match_naive_expansion(u, seed, branch):
    # reduce_to_standard_form sets each parameter from the slope in its
    # table: u adds m·c·u to the target, c the source's coefficient
    p = deformation_on_branch(seed, branch)
    groups = _STEPS + (_GAMMA_STEPS[branch],)
    steps = [(target, k, src, m) for src, m, targets in groups for target, k in targets]
    assert len({k for _, k, _, _ in steps}) == 7
    for target, k, src, m in steps:
        expected = p.coefficient(target) + m * p.coefficient(src) * u
        assert naive_substitution(p, _elementary(k, u)).get(target, 0) == expected


@settings(max_examples=40, deadline=None)
@given(wide_fracs, st.integers(min_value=0, max_value=10**6), st.sampled_from(("g2", "g3")))
@example(u=Fraction(5, 3), seed=1, branch="g2")
def test_steps_of_a_group_leave_each_others_targets(u, seed, branch):
    # the fact the grouping rests on: an elementary change of one group
    # leaves every other target of that group where it was, so the group's
    # parameters can all be read off before its one substitution
    p = deformation_on_branch(seed, branch)
    for _, _, targets in _STEPS + (_GAMMA_STEPS[branch],):
        for target, k in targets:
            moved = naive_substitution(p, _elementary(k, u))
            for other, _ in targets:
                if other != target:
                    assert moved.get(other, 0) == p.coefficient(other)


@pytest.mark.parametrize("branch", ["g2", "g3"])
def test_reduction_with_coprime_denominators(branch):
    assert all(gcd(p, q) == 1 for p, q in combinations(BIG_PRIMES + SMALL_PRIMES, 2))
    p = coprime_deformation(branch)
    assert sorted(c.denominator for m, c in p.coeffs if m[3]) == sorted(BIG_PRIMES + SMALL_PRIMES)
    # reduce_to_standard_form re-applies its composed change as a final check;
    # the naive expansion checks that change independently
    r = reduce_to_standard_form(p)
    assert r.branch == branch
    assert naive_substitution(p, r.change) == r.polynomial.as_dict()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(ints, min_size=3, max_size=3), min_size=3, max_size=5),
    st.lists(fracs, min_size=3, max_size=3),
)
def test_solve_unique_recovers_x(a, x):
    # full column rank, certified by an independent Smith normal form
    assume(len(exact.invariant_factors(a)) == 3)
    assert exact.solve_unique(a, exact.mat_vec(a, x)) == x


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_solve_unique_any_rank(data):
    # a of any rank (small entries make deficient ranks common); b is either
    # a·x, always consistent, or arbitrary
    ncols = data.draw(st.integers(min_value=1, max_value=3))
    small = st.integers(min_value=-2, max_value=2)
    row = st.lists(small, min_size=ncols, max_size=ncols)
    a = data.draw(st.lists(row, min_size=1, max_size=4))
    if data.draw(st.booleans()):
        b = exact.mat_vec(a, data.draw(st.lists(fracs, min_size=ncols, max_size=ncols)))
    else:
        b = data.draw(st.lists(fracs, min_size=len(a), max_size=len(a)))
    rank = len(exact.invariant_factors(a))
    if rank < ncols:
        with pytest.raises(ValueError):
            exact.solve_unique(a, b)
        return
    den = lcm(*(Fraction(y).denominator for y in b))
    augmented = [r + [int(y * den)] for r, y in zip(a, b)]
    x = exact.solve_unique(a, b)
    assert (x is None) == (len(exact.invariant_factors(augmented)) > rank)
    if x is not None:
        assert exact.mat_vec(a, x) == b


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


ade_labels = st.sampled_from(
    ["A1", "A2", "A3", "A5", "D4", "D5", "D6", "E6", "E7", "E8"]
)
elementary_ops = st.lists(
    st.tuples(st.integers(0, 99), st.integers(1, 99), st.integers(-2, 2)),
    max_size=16,
)


def _elementary_unimodular(n, ops):
    """A unimodular n×n matrix built by row i += c·row j for each op."""
    u = exact.identity_matrix(n)
    for i, k, c in ops:
        i, j = i % n, (i + k) % n
        if i != j:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


def _box_short_vectors(gram, bound):
    """Brute force for gram ⪰ I: every x with xᵀ·gram·x ≤ bound has |xᵢ|² ≤ bound.

    One vector per ± pair, the one whose last nonzero coordinate is positive.
    """
    r = isqrt(int(bound))
    expected = []
    for x in product(range(-r, r + 1), repeat=len(gram)):
        last = next((c for c in reversed(x) if c), 0)
        if last > 0 and exact.dot_gram(x, gram, x) <= bound:
            expected.append(x)
    return expected


short_vector_bounds = st.one_of(
    st.integers(min_value=1, max_value=6),
    st.fractions(min_value=1, max_value=6, max_denominator=6),
)


@settings(max_examples=80, deadline=None)
@given(
    positive_definite_gram(4, st.integers(min_value=-2, max_value=2)),
    short_vector_bounds,
)
@example(gram=[[2, 1], [1, 2]], bound=Fraction(7, 2))
def test_short_vectors_match_box_enumeration(gram, bound):
    assert sorted(exact.short_vectors(gram, bound)) == sorted(_box_short_vectors(gram, bound))


def _pair_representative(v):
    return max(tuple(v), tuple(-x for x in v))


@settings(max_examples=60, deadline=None)
@given(
    positive_definite_gram(4, st.integers(min_value=-2, max_value=2)),
    short_vector_bounds,
    elementary_ops,
)
def test_short_vectors_on_skewed_gram_match_box_enumeration(gram, bound, ops):
    # u·gram·uᵀ for a random unimodular u has large leading minors; its short
    # vectors x map to the short vectors x·u of gram
    u = _elementary_unimodular(len(gram), ops)
    skew = exact.mat_mul(exact.mat_mul(u, gram), exact.transpose(u))
    got = [_pair_representative(exact.vec_mat(list(x), u))
           for x in exact.short_vectors(skew, bound)]
    expected = [_pair_representative(x) for x in _box_short_vectors(gram, bound)]
    assert sorted(got) == sorted(expected)


@settings(max_examples=80, deadline=None)
@given(positive_definite_gram(5, st.integers(min_value=-4, max_value=4)))
def test_symmetric_bareiss_is_integral_gram_schmidt(g):
    # a[i][i] = d[i+1] = B[0]···B[i] and a[i][j] = d[i+1]·μ_ji (j > i)
    a = exact.symmetric_bareiss(g)
    B, mu = _gram_schmidt(g)
    d = 1
    for i in range(len(g)):
        d *= B[i]
        assert type(a[i][i]) is int and a[i][i] == d
        for j in range(i + 1, len(g)):
            assert type(a[i][j]) is int and a[i][j] == d * mu[j][i]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=-200, max_value=200),
)
def test_level_range_is_exact(r, w, den, c):
    # |den·x + c| ≥ |x| − |c|, so every solution has |x| ≤ |c| + r
    lo, hi = exact._level_range(r, w, den, c)
    span = abs(c) + r
    expected = [x for x in range(-span, span + 1) if w * (den * x + c) ** 2 <= r]
    assert list(range(lo, hi + 1)) == expected


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


@settings(max_examples=25, deadline=None)
@given(st.lists(ade_labels, min_size=1, max_size=3), elementary_ops, st.randoms())
def test_height_ordered_simple_roots_match_pairwise_rule(labels, ops, rng):
    lat = direct_sum(*(IntegralLattice(_neg_cartan(x)) for x in labels))
    # a random unimodular basis change
    u = _elementary_unimodular(lat.rank, ops)
    g = exact.gram_of(u, lat.gram)
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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_orthogonal_complement_has_integer_right_inverse(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    small = st.integers(min_value=-3, max_value=3)
    g = _symmetric(data.draw(st.lists(small, min_size=n * (n + 1) // 2,
                                      max_size=n * (n + 1) // 2)), n)
    assume(exact.det_bareiss(g) != 0)
    vectors = data.draw(st.lists(st.lists(small, min_size=n, max_size=n),
                                 min_size=1, max_size=n))
    L = IntegralLattice(g)
    b, r = orthogonal_complement(L, vectors)
    assert exact.mat_mul([list(x) for x in b], r) == exact.identity_matrix(len(b))
    for x in b:
        assert all(L.pairing(x, s) == 0 for s in vectors)
    pairing_rows = [exact.vec_mat(s, g) for s in vectors]
    assert len(b) == n - len(exact.pivot_columns(pairing_rows))


def _brute_force_root_count(g):
    """#{x : xᵀ·g·x = −2} for negative definite g, by a box search.

    Cauchy–Schwarz bounds each coordinate: xᵢ² ≤ 2·((−g)⁻¹)ᵢᵢ, where
    ((−g)⁻¹)ᵢᵢ is entry i of the solution of (−g)·y = eᵢ.
    """
    neg = [[-x for x in row] for row in g]
    unit = exact.identity_matrix(len(g))
    radii = [isqrt(int(2 * exact.solve_unique(neg, e)[i])) for i, e in enumerate(unit)]
    return sum(
        exact.dot_gram(x, g, x) == -2
        for x in product(*(range(-r, r + 1) for r in radii))
    )


@settings(max_examples=80, deadline=None)
@given(small_symmetric)
def test_roots_cli_on_hostile_grams(g):
    n = len(g)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lattice.json")
        with open(path, "w") as f:
            json.dump({"rank": n, "gram": g}, f)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["roots", "--input", path])
    if inertia(g) != (0, n, 0):
        assert (code, out.getvalue()) == (3, "")
        assert err.getvalue() == "precondition not met: lattice is not negative definite\n"
        return
    assert code == 0, err.getvalue()
    if n <= 3:
        assert json.loads(out.getvalue())["root_count"] == _brute_force_root_count(g)


# ---------------------------------------------------------------------------
# the fixture path on integer numerators against a Fraction oracle


def naive_psi_row(model, i, p, raw):
    """One row of ψᵢ on the ambient in Fractions, for the Fraction draws
    p = (p₁, …) on Zᵢ's εⱼ and raw on Ỹ: (subᵀ)⁻¹ one unit-vector solve per
    row, raw corrected on the pivot columns so that r(Dⱼ) = 0 (j ≠ i),
    r(Dᵢ) = Σpⱼ and r(L) = 0, then ψᵢ = −r on Ỹ and εⱼ ↦ pⱼ on Zᵢ."""
    yt = model.y_tilde
    classes = [list(yt.double_curves[j + 1]) for j in range(model.k)] + [list(yt.l_class)]
    cols = exact.pivot_columns(classes)
    sub = [[row[t] for t in cols] for row in classes]
    subt_inv = [exact.solve_unique(sub, e) for e in exact.identity_matrix(len(sub))]
    rhs = [(sum(p) if j == i else 0) - sum(x * y for x, y in zip(raw, c))
           for j, c in enumerate(classes)]
    delta = [sum(x * y for x, y in zip(rhs, col)) for col in zip(*subt_inv)]
    row = list(raw)
    for idx, j in enumerate(cols):
        row[j] += delta[idx]
    z_row = model.embed_z(i, [0] + list(p))
    return [-x for x in row] + list(z_row[len(raw):])


def _nonzero_mod_1(rows, ambs):
    return any(sum(x * y for x, y in zip(row, amb)).denominator != 1
               for row in rows for amb in ambs)


@lru_cache(maxsize=None)
def naive_live_summands(label):
    """Per curve i, the ambient lifts of the simple roots of each summand on
    which ψᵢ is not identically zero mod ℤ² as a function of the draws.  ψᵢ
    is linear in the integer draw numerators over 97, so it is identically
    zero on a root exactly when the Fraction rows of every unit draw 1/97
    give that root an integer value."""
    model = build_stratum_model(label)
    lifts = compute_lambda(label).lifts
    n = model.y_tilde.lattice.rank
    summands = [[exact.vec_mat(list(s), lifts) for s in simples]
                for _, simples in strata.psi_summands(label)]
    out = []
    for i, z in enumerate(model.dp_components):
        w = n + z.lattice.rank - 1
        units = [[Fraction(int(t == u), 97) for t in range(w)] for u in range(w)]
        unit_rows = [naive_psi_row(model, i, x[n:], x[:n]) for x in units]
        out.append([ambs for ambs in summands if _nonzero_mod_1(unit_rows, ambs)])
    return out


def naive_psi_rows(model, seed):
    """ψᵢ on the ambient as 2×rank(ambient) Fraction rows per curve, computed
    in Fractions throughout from the seed's random stream.  As in
    `generate_restriction_data`, a draw is taken again from the same stream
    until every ψᵢ is nonzero mod ℤ² on each summand it does not kill
    identically (`naive_live_summands`), judged here on these rows."""
    rng = random.Random(seed)

    def rnd():
        return Fraction(rng.randrange(97), 97)

    n = model.y_tilde.lattice.rank
    live = naive_live_summands(model.stratum)
    for _ in range(100):
        z_points = [
            [(rnd(), rnd()) for _ in range(z.lattice.rank - 1)] for z in model.dp_components
        ]
        out = []
        for i in range(model.k):
            raw = [[rnd() for _ in range(n)] for _ in range(2)]
            out.append([naive_psi_row(model, i, [p[r] for p in z_points[i]], raw[r])
                        for r in range(2)])
        if all(_nonzero_mod_1(rows, ambs) for rows, groups in zip(out, live) for ambs in groups):
            return out
    raise AssertionError(f"no generic draw for seed {seed} in 100 draws")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(STRATUM_LABELS), st.data())
def test_draw_maps_match_fraction_oracle(label, data):
    # ψᵢ on the Λ basis for integer draw rows x = (Ỹ row, p₁, p₂, …) over 97
    # that no seed makes: Gᵢx/d exactly equals the Fraction route on the lifts
    model = build_stratum_model(label)
    lifts = compute_lambda(label).lifts
    n = model.y_tilde.lattice.rank
    for i, (g, d) in enumerate(strata._draw_maps(label)):
        w = n + model.dp_components[i].lattice.rank - 1
        assert len(g) == 24 and all(len(r) == w and all(type(t) is int for t in r) for r in g)
        x = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=w, max_size=w))
        row = naive_psi_row(model, i, [Fraction(t, 97) for t in x[n:]],
                            [Fraction(t, 97) for t in x[:n]])
        want = [sum(a * b for a, b in zip(row, lift)) for lift in lifts]
        assert [Fraction(t, d) for t in exact.mat_vec(g, x)] == want


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(STRATUM_LABELS), st.integers(0, 10**6 - 1))
@example(label="ell111", seed=0)
@example(label="rat21", seed=32302)  # the first draw is not generic: redrawn
def test_fixture_psi_matches_fraction_oracle(label, seed):
    ds, _ = gen_fixture(label, seed)
    psi = naive_psi_rows(build_stratum_model(label), seed)
    lifts = compute_lambda(label).lifts
    for s in ds.summands:
        for i, rows in enumerate(psi):
            want = []
            for root in s.simple_roots:
                amb = exact.vec_mat(list(root), lifts)
                want.append(tuple(
                    sum(x * y for x, y in zip(row, amb)) % 1 for row in rows
                ))
            assert [Fraction(*c) for c in s.psi[i]] == [c for v in want for c in v]
            assert s.zero_flags[i] == all(c == 0 for v in want for c in v)
            assert all(
                type(n) is int and type(d) is int and 0 <= n < d and gcd(n, d) == 1
                for n, d in s.psi[i]
            )


# ---------------------------------------------------------------------------
# hostile datasets: `classify --input` and `reconstruct --input` must map every
# mutation of a gen-fixture dataset to exit 0, 2 or 3, never a traceback, and
# a changed label to exit 2


@lru_cache(maxsize=None)
def _fixture_text(label, seed):
    return json.dumps(serial.dataset_to_json(gen_fixture(label, seed)[0]))


def _json_paths(node, path=()):
    """The path of every node below the root of a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


_JSON_VALUES = [None, True, 0, -1, 1.5, "1/2", "x", [], {}, [[0, 1], 1]]
_LABELS = ["E8", "E7", "E6", "D10", "D4", "A1", "A8", "D24", "E8+E8+E8", "E7+E7+D10",
           "E9", "D3", "A0", "e8", "", "E8+E8"]
_exact_coords = st.lists(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-30, 30), st.integers(1, 12)),
    min_size=2, max_size=2,
)


def _mutate(data, obj):
    """Apply one drawn mutation to the dataset `obj` in place; True when it
    changed a summand label or the root label."""
    paths = list(_json_paths(obj))
    kind = data.draw(st.sampled_from(
        ["drop", "rename", "retype", "truncate", "flip", "point", "relabel"]
    ))
    if kind in ("drop", "rename"):
        path = data.draw(st.sampled_from(
            [p for p in paths if isinstance(_at(obj, p[:-1]), dict)]
        ))
        parent, key = _at(obj, path[:-1]), path[-1]
        value = parent.pop(key)
        if kind == "rename":
            parent[key + "_"] = value
    elif kind == "retype":
        path = data.draw(st.sampled_from(paths))
        old = _at(obj, path)
        _at(obj, path[:-1])[path[-1]] = data.draw(st.sampled_from(
            [v for v in _JSON_VALUES if type(v) is not type(old)]
        ))
    elif kind == "truncate":
        path = data.draw(st.sampled_from(
            [p for p in paths if isinstance(_at(obj, p), list) and _at(obj, p)]
        ))
        node = _at(obj, path)
        del node[data.draw(st.integers(0, len(node) - 1)):]
    elif kind == "flip":
        path = data.draw(st.sampled_from(
            [p for p in paths if "zero_flags" in p and isinstance(p[-1], int)]
        ))
        _at(obj, path[:-1])[path[-1]] = not _at(obj, path)
    elif kind == "relabel":
        path = data.draw(st.sampled_from(
            [p for p in paths if p[-1] in ("label", "root_label")]
        ))
        old = _at(obj, path)
        _at(obj, path[:-1])[path[-1]] = data.draw(
            st.one_of(st.sampled_from(_LABELS), st.text(max_size=6))
        )
        return _at(obj, path) != old
    else:
        path = data.draw(st.sampled_from(
            [p for p in paths if len(p) == 5 and p[2] == "psi_points"]
        ))
        _at(obj, path[:-1])[path[-1]] = data.draw(
            st.one_of(_exact_coords, st.sampled_from(_JSON_VALUES))
        )


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([("ell111", 3), ("rat21", 3), ("enriques", 0)]), st.data())
def test_dataset_commands_on_hostile_datasets(fixture, data):
    obj = json.loads(_fixture_text(*fixture))
    relabelled = _mutate(data, obj)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dataset.json")
        with open(path, "w") as f:
            json.dump(obj, f)
        for command in ("classify", "reconstruct"):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, "--input", path])
            assert code in (0, 2, 3), err.getvalue()
            assert (code == 0) == bool(out.getvalue())
            if relabelled:
                assert code == 2, err.getvalue()


# ---------------------------------------------------------------------------
# hostile polynomials: `normal-form --input` must map every mutation of a
# polynomial_to_json document to exit 0, 2 or 3, never 1 or a traceback


@lru_cache(maxsize=None)
def _polynomial_text(seed):
    return json.dumps(serial.polynomial_to_json(random_deformation(seed)))


_bad_keys = st.one_of(
    st.sampled_from(["", "0,2,0", "0,2,0,0,0", "0,-2,0,0", "0, 2,0,0", "a,b,c,d"]),
    # a weight-6 monomial written with a leading zero or a non-ASCII digit
    st.sampled_from(["00,2,0,0", "3,0,0,00", "0,0,06,0", "0,٢,0,0"]),
    st.text(alphabet="0123456789,-+. ", max_size=12),
)


def _canonical_weight6(key):
    parts = key.split(",")
    return (
        len(parts) == 4
        and all(p.isascii() and p.isdigit() and str(int(p)) == p for p in parts)
        and monomial_weight(tuple(map(int, parts))) == 6
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.data())
def test_normal_form_on_hostile_polynomials(seed, data):
    obj = json.loads(_polynomial_text(seed))
    kind = data.draw(st.sampled_from(["drop", "key", "weight", "value", "zero"]))
    # a dropped or zeroed monomial leaves a valid document; the rest is bad input
    allowed = (0, 3) if kind in ("drop", "zero") else (2,)
    if kind == "drop":
        del obj[data.draw(st.sampled_from(sorted(obj)))]
    elif kind == "key":
        key = data.draw(_bad_keys)
        assume(not _canonical_weight6(key))
        obj[key] = data.draw(st.sampled_from(["1", "-1/2", "5"]))
    elif kind == "weight":
        exp = data.draw(st.lists(st.integers(0, 7), min_size=4, max_size=4))
        assume(monomial_weight(exp) != 6)
        obj[",".join(map(str, exp))] = "1"
    else:
        value = "0" if kind == "zero" else data.draw(
            st.sampled_from(["0.5", True, False, 1.5, None, "1/0", "x", [1]])
        )
        obj[data.draw(st.sampled_from(sorted(obj)))] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "poly.json")
        with open(path, "w") as f:
            json.dump(obj, f)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["normal-form", "--input", path])
    assert code in allowed, err.getvalue()
    assert (code == 0) == bool(out.getvalue())
