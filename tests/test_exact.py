import random
from fractions import Fraction

import pytest

from istrata import exact
from istrata.lattices import IntegralLattice, index_of_sublattice
from istrata.roots import build_En_lattice


def random_int_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def is_unimodular(u):
    return abs(exact.det_bareiss(u)) == 1


class TestSmithNormalForm:
    def test_diag_reorder(self):
        u, facs, v, w = exact.smith_normal_form([[2, 0], [0, 1]])
        assert facs == [1, 2]

    def test_hand_example(self):
        # row/column reduction by hand gives invariant factors (2, 4):
        # gcd of entries is 2; det = 16 - 24 = -8; 8/2 = 4
        assert exact.invariant_factors([[2, 4], [6, 8]]) == [2, 4]

    def test_identity(self):
        assert exact.invariant_factors(exact.identity_matrix(5)) == [1] * 5

    def test_transform_identity(self):
        rng = random.Random(0)
        for _ in range(25):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            a = random_int_matrix(rng, m, n)
            u, facs, v, w = exact.smith_normal_form(a)
            d = [[facs[i] if i == j and i < len(facs) else 0 for j in range(n)]
                 for i in range(m)]
            assert exact.mat_mul(exact.mat_mul(u, a), v) == d
            assert is_unimodular(u) and is_unimodular(v)
            assert exact.mat_mul(w, v) == exact.identity_matrix(n)
            for x, y in zip(facs, facs[1:]):
                assert y % x == 0

    def test_determinism(self):
        a = [[4, 6, 2], [6, 0, 8], [2, 8, 6]]
        assert exact.smith_normal_form(a) == exact.smith_normal_form(a)


class TestDetInverse:
    def test_bareiss_matches_cofactor_2x2(self):
        rng = random.Random(2)
        for _ in range(50):
            a, b, c, d = (rng.randint(-20, 20) for _ in range(4))
            assert exact.det_bareiss([[a, b], [c, d]]) == a * d - b * c

    def test_det_multiplicative(self):
        rng = random.Random(3)
        for _ in range(10):
            a = random_int_matrix(rng, 4, 4)
            b = random_int_matrix(rng, 4, 4)
            assert exact.det_bareiss(exact.mat_mul(a, b)) == exact.det_bareiss(
                a
            ) * exact.det_bareiss(b)

    def test_singular_raises(self):
        with pytest.raises(ValueError, match="not unique"):
            exact.solve_unique([[1, 2], [2, 4]], [1, 2])

    def test_non_square_inverse_raises(self):
        # a 2×3 matrix has full rank but no inverse: a·x = b has many solutions
        with pytest.raises(ValueError, match="not unique"):
            exact.solve_unique([[1, 0, 0], [0, 1, 0]], [1, 1])

    def test_solve_unique(self):
        x = exact.solve_unique([[2, 0], [0, 3], [1, 1]], [4, 9, 5])
        assert x == [Fraction(2), Fraction(3)]
        assert exact.solve_unique([[2, 0], [0, 3], [1, 1]], [4, 9, 6]) is None


class TestKernels:
    def test_kernel_saturated(self):
        rng = random.Random(4)
        for _ in range(20):
            a = random_int_matrix(rng, 2, 4)
            k = exact.integer_kernel(a)
            for v in k:
                assert not any(exact.mat_vec(a, v))
            if k:
                assert all(f == 1 for f in exact.invariant_factors(k))

    def test_kernel_rank(self):
        k = exact.integer_kernel([[1, 2, 3]])
        assert len(k) == 2

    def test_sublattice_index(self):
        rows = exact.identity_matrix(3)
        sub = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
        assert index_of_sublattice(IntegralLattice(rows), sub) == 8


class TestLLLAndShortVectors:
    def test_lll_transform(self):
        g0 = [[4, 3], [3, 4]]
        g, u = exact.lll_reduce_gram(g0)
        assert g == exact.mat_mul(exact.mat_mul(u, g0), exact.transpose(u))
        assert is_unimodular(u)

    def test_short_vectors_identity_gram(self):
        # x² + y² ≤ 4: pairs ±(1,0),(0,1),(1,1),(1,-1),(2,0),(0,2)
        vs = exact.short_vectors(exact.identity_matrix(2), 4)
        assert len(vs) == 6
        for v in vs:
            assert 0 < exact.dot_gram(v, exact.identity_matrix(2), v) <= 4

    def test_one_per_sign_pair(self):
        vs = set(exact.short_vectors(exact.identity_matrix(3), 3))
        for v in vs:
            assert tuple(-x for x in v) not in vs

    def test_vectors_of_norm_skewed_basis(self):
        # A2 Gram: 6 roots = 3 sign pairs
        a2 = [[2, -1], [-1, 2]]
        assert len(exact.vectors_of_norm(a2, 2)) == 3
        # skew the basis; count must be invariant
        u = [[1, 7], [0, 1]]
        skew = exact.mat_mul(exact.mat_mul(u, a2), exact.transpose(u))
        assert len(exact.vectors_of_norm(skew, 2)) == 3

    def test_not_positive_definite_rejected(self):
        with pytest.raises(ValueError):
            exact.short_vectors([[0, 1], [1, 0]], 2)

    def test_positive_diagonal_with_negative_minor_rejected(self):
        # both diagonal entries are positive, the second leading minor is −3
        with pytest.raises(ValueError):
            exact.short_vectors([[1, 2], [2, 1]], 2)

    def test_rank_zero_has_no_short_vectors(self):
        assert exact.short_vectors([], 2) == []

    def test_e8_roots_survive_a_large_unimodular_skew(self):
        L, _, _, _, alphas = build_En_lattice(8)
        e8 = [[-L.pairing(a, b) for b in alphas] for a in alphas]
        rng = random.Random(8)
        u = exact.identity_matrix(8)
        while max(abs(x) for row in u for x in row) < 1000:
            i, j = rng.sample(range(8), 2)
            c = rng.choice((-2, -1, 1, 2))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        assert is_unimodular(u)
        skew = exact.mat_mul(exact.mat_mul(u, e8), exact.transpose(u))
        g, v = exact.lll_reduce_gram(skew)
        assert g == exact.mat_mul(exact.mat_mul(v, skew), exact.transpose(v))
        assert len(exact.vectors_of_norm(g, 2)) == 120
