import random
from decimal import Decimal
from fractions import Fraction

import pytest

from istrata import exact
from istrata.lattices import (
    FiniteAbelianGroup,
    IntegralLattice,
    direct_sum,
    hyperbolic_plane,
    index_of_sublattice,
    inertia,
    lattice_predicates,
    orthogonal_complement,
    quotient_by_isotropic,
)
from istrata.roots import build_En_lattice


def e8_gram():
    L, h, eps, kappa, alphas = build_En_lattice(8)
    return [[L.pairing(a, b) for b in alphas] for a in alphas]


class TestTypes:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            IntegralLattice([[0, 1], [2, 0]])

    @pytest.mark.parametrize(
        "bad",
        [-2.5, -2.0, Fraction(-5, 2), Fraction(-2), "-2", True, None, Decimal("-2")],
        ids=["float", "integral-float", "fraction", "integral-fraction", "str", "bool",
             "none", "decimal"],
    )
    def test_rejects_non_int_entries(self, bad):
        # int(x) used to truncate -2.5, Fraction(-5, 2) and "-2" to -2
        with pytest.raises(ValueError, match="is not an int"):
            IntegralLattice([[bad]])
        with pytest.raises(ValueError, match="is not an int"):
            IntegralLattice([[-2, 1], [1, bad]])

    def test_int_entries_kept(self):
        assert IntegralLattice([[-2, 1], (1, -2)]).gram == ((-2, 1), (1, -2))

    def test_group_divisibility(self):
        with pytest.raises(ValueError):
            FiniteAbelianGroup((2, 3))
        g = FiniteAbelianGroup((1, 2, 4))
        assert g.invariant_factors == (2, 4)
        assert g.order == 8
        assert g.invariant_factors[-1] == 4

    def test_snf_wrapper(self):
        left, facs, right, _ = exact.smith_normal_form([[2, 4], [6, 8]])
        assert facs == [2, 4]
        prod = exact.mat_mul(exact.mat_mul(left, [[2, 4], [6, 8]]), right)
        assert prod == [[2, 0], [0, 4]]


class TestInertia:
    def test_U4_E8_cubed(self):
        U = hyperbolic_plane()
        E8 = IntegralLattice(e8_gram())
        big = direct_sum(U, U, U, U, E8, E8, E8)
        assert inertia(big.gram) == (4, 28, 0)

    def test_hyperbolic_plane(self):
        assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)

    def test_zero(self):
        assert inertia([[0] * 3 for _ in range(3)]) == (0, 0, 3)

    def test_components_sum_to_rank_and_basis_invariance(self):
        rng = random.Random(11)
        E8 = IntegralLattice(e8_gram())
        g0 = direct_sum(hyperbolic_plane(), E8).gram
        base = inertia(g0)
        assert sum(base) == 10
        for _ in range(5):
            # random unimodular conjugation
            u = exact.identity_matrix(10)
            for _ in range(20):
                i, j = rng.sample(range(10), 2)
                c = rng.randint(-2, 2)
                for t in range(10):
                    u[i][t] += c * u[j][t]
            g = exact.mat_mul(exact.mat_mul(u, g0), exact.transpose(u))
            assert inertia(g) == base

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            inertia([[0, 1], [2, 0]])


class TestComplement:
    def test_kappa_perp_is_En(self):
        for n, disc in [(6, 3), (7, 2), (8, 1)]:
            L, h, eps, kappa, alphas = build_En_lattice(n)
            basis, _ = orthogonal_complement(L, [kappa])
            assert len(basis) == n
            g = [[L.pairing(a, b) for b in basis] for a in basis]
            sub = IntegralLattice(g)
            is_even, _, d, _ = lattice_predicates(sub)
            assert is_even and d == disc

    def test_isotropic_self_complement(self):
        U = hyperbolic_plane()
        basis, _ = orthogonal_complement(U, [(1, 0)])
        assert basis == [(1, 0)]

    def test_complement_of_nothing_is_everything(self):
        U = hyperbolic_plane()
        assert orthogonal_complement(U, []) == ([(1, 0), (0, 1)], [[1, 0], [0, 1]])
        q = quotient_by_isotropic(U, [])
        assert q.lattice.gram == U.gram and q.projection == q.lifts == ((1, 0), (0, 1))


class TestQuotient:
    def test_U_by_e(self):
        U = hyperbolic_plane()
        with pytest.raises(ValueError):
            # e is not in the radical of the full form on U
            quotient_by_isotropic(U, [(1, 0)])

    def test_rank_zero_quotient(self):
        # restrict U to e⊥ = span(e): form is identically 0 there
        degenerate = IntegralLattice([[0]])
        q = quotient_by_isotropic(degenerate, [(1,)])
        assert q.lattice.rank == 0 or q.lattice.gram == ()

    def test_non_primitive_rejected(self):
        degenerate = IntegralLattice([[0]])
        with pytest.raises(ValueError):
            quotient_by_isotropic(degenerate, [(2,)])

    def test_projection_kills_S_and_splits(self):
        # rank-3 degenerate lattice: radical = e1, quotient = U
        g = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
        L = IntegralLattice(g)
        q = quotient_by_isotropic(L, [(1, 0, 0)])
        assert q.lattice.rank == 2
        assert abs(exact.det_bareiss(q.lattice.gram)) == 1
        assert exact.mat_vec(q.projection, (1, 0, 0)) == [0, 0]
        for lift, unit in zip(q.lifts, [[1, 0], [0, 1]]):
            assert exact.mat_vec(q.projection, lift) == unit


class TestPredicatesAndIndex:
    def test_E6_discriminant(self):
        L, h, eps, kappa, alphas = build_En_lattice(6)
        basis, _ = orthogonal_complement(L, [kappa])
        g = [[L.pairing(a, b) for b in basis] for a in basis]
        _, _, disc, group = lattice_predicates(IntegralLattice(g))
        assert disc == 3
        assert group.invariant_factors == (3,)

    def test_E8_even_unimodular(self):
        is_even, is_unimod, disc, group = lattice_predicates(IntegralLattice(e8_gram()))
        assert is_even and is_unimod and disc == 1
        assert group.order == 1

    def test_E7_discriminant_group(self):
        L, h, eps, kappa, alphas = build_En_lattice(7)
        basis, _ = orthogonal_complement(L, [kappa])
        g = [[L.pairing(a, b) for b in basis] for a in basis]
        _, _, _, group = lattice_predicates(IntegralLattice(g))
        assert group.invariant_factors == (2,)

    def test_index_trivial_and_scaled(self):
        L = IntegralLattice([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
        assert index_of_sublattice(L, exact.identity_matrix(3)) == 1
        assert index_of_sublattice(L, [[2, 0, 0], [0, 2, 0], [0, 0, 2]]) == 8

    def test_index_rank_deficient(self):
        L = IntegralLattice([[2, 0], [0, 2]])
        with pytest.raises(ValueError):
            index_of_sublattice(L, [[1, 0]])
