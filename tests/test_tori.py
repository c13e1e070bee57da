import random
from decimal import Decimal
from fractions import Fraction

import pytest

from istrata.exact import det_bareiss, identity_matrix, mat_mul, mat_vec
from istrata.monodromy import build_frame
from istrata.strata import compute_JW1
from istrata.tori import RationalTorus, TorusPoint, kernel_points, n_torsion

# the Enriques sum-map kernel generator in frame coordinates (x₁, y₁, x₂, y₂)
ETA = (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1, 2))


class TestPoints:
    def test_reduction_mod_one(self):
        p = TorusPoint((Fraction(5, 4), Fraction(-1, 3)))
        assert p.coords == (Fraction(1, 4), Fraction(2, 3))

    def test_reduced_fractions_kept_others_reduced(self):
        # a reduced Fraction in [0, 1) is stored as given; ints, Fractions
        # outside [0, 1) and a list of coordinates are reduced as before
        half = Fraction(1, 2)
        assert TorusPoint((half, Fraction(0))).coords[0] is half
        assert TorusPoint([3, Fraction(-7, 2)]).coords == (Fraction(0), Fraction(1, 2))
        assert TorusPoint((Fraction(1), -1)) == TorusPoint((0, 0))

    @pytest.mark.parametrize(
        "bad",
        [0.1, 0.0, float("nan"), True, False, "1/2", None, Decimal("0.1"), 1j, [1]],
        ids=["float", "zero-float", "nan", "true", "false", "str", "none", "decimal",
             "complex", "list"],
    )
    def test_rejects_non_rational_coordinates(self, bad):
        # floating point never enters a point, and neither does a bool
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            TorusPoint((Fraction(1, 3), bad))
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            TorusPoint((bad, 0))

    def test_group_ops(self):
        p = TorusPoint((Fraction(1, 2), Fraction(2, 3)))
        q = TorusPoint((Fraction(1, 2), Fraction(1, 3)))
        assert (p + q).coords == (Fraction(0), Fraction(0))
        assert (p - q).coords == (Fraction(0), Fraction(1, 3))
        assert -p + p == TorusPoint((0, 0))
        assert p.scale(6) == TorusPoint((0, 0))
        assert p.order() == 6


class TestTorsion:
    def test_counts(self):
        assert len(n_torsion(RationalTorus(2), 3)) == 9
        assert len(n_torsion(RationalTorus(2), 1)) == 1
        assert len(n_torsion(RationalTorus(4), 2)) == 16

    def test_all_killed(self):
        for p in n_torsion(RationalTorus(2), 3):
            assert p.scale(3) == TorusPoint((0, 0))


def _degree(m):
    """|det M|, the degree of a self-rank isogeny (0: not an isogeny)."""
    return abs(det_bareiss(m))


class TestMorphisms:
    def test_degree_multiplicative(self):
        rng = random.Random(9)
        for _ in range(20):
            a = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            b = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            assert _degree(mat_mul(a, b)) == _degree(a) * _degree(b)


class TestKernel:
    def test_diag21(self):
        grp, gens = kernel_points(((2, 0), (0, 1)))
        assert grp.order == 2
        assert gens[0].coords == (Fraction(1, 2), Fraction(0))

    def test_identity_trivial(self):
        grp, gens = kernel_points(identity_matrix(3))
        assert grp.order == 1 and gens == []

    def test_order_equals_index(self):
        rng = random.Random(10)
        for _ in range(20):
            m = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
            if _degree(m) == 0:
                continue
            grp, _ = kernel_points(m)
            assert grp.order == _degree(m)

    def test_non_injective_rejected(self):
        with pytest.raises(ValueError):
            kernel_points(((1, 1), (1, 1)))


def _sum_map(m, n):
    """(x, y) ↦ m(x) + n(y): the sum map JDᵢ ⊕ JDⱼ → JW₁ of two markings."""
    return [r + t for r, t in zip(m, n)]


def _projection(label):
    """The sum map JD₁ ⊕ JD₂ → JW₁ of a two-curve stratum's markings."""
    return _sum_map(*compute_JW1(build_frame(label)))


class TestQuotient:
    # a quotient by a finite subgroup is written as its projection matrix; on
    # the Enriques stratum that is (JD₁ ⊕ JD₂) → (JD₁ ⊕ JD₂)/⟨η⟩
    def test_degree_two(self):
        proj = _projection("enriques")
        assert _degree(proj) == 2
        assert TorusPoint(tuple(mat_vec(proj, ETA))) == TorusPoint((0,) * 4)

    def test_trivial_group(self):
        assert _degree(_projection("rat11")) == 1

    def test_kernel_of_projection_is_input(self):
        grp, gens = kernel_points(_projection("enriques"))
        assert grp.order == 2
        assert [g.coords for g in gens] == [ETA]


def _ell111_jw1():
    return compute_JW1(build_frame("ell111"))


class TestJw1Diagram:
    def test_builds_with_all_assertions(self):
        # three markings JDᵢ → JW₁, each 4×2
        markings = _ell111_jw1()
        assert len(markings) == 3
        assert all(len(f) == 4 and all(len(r) == 2 for r in f) for f in markings)

    def test_pair_isomorphism(self):
        m1, m2, _ = _ell111_jw1()
        assert _degree(_sum_map(m1, m2)) == 1

    def test_sigma_pair_kernel_order_two(self):
        m1, m2, ms = _ell111_jw1()
        for m in (m1, m2):
            grp, gens = kernel_points(_sum_map(m, ms))
            assert grp.order == 2
            (gen,) = gens
            assert gen.scale(2) == TorusPoint((0,) * 4)

    def test_swap_symmetry(self):
        # the Γ₁ ↔ Γ₂ relabeling produces the same index pattern
        m1, m2, ms = _ell111_jw1()
        k12 = kernel_points(_sum_map(m1, m2))[0].order
        k1s = kernel_points(_sum_map(m1, ms))[0].order
        k2s = kernel_points(_sum_map(m2, ms))[0].order
        assert sorted([k12, k1s, k2s]) == [1, 2, 2]
