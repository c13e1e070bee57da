import hashlib
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from istrata import normalform
from istrata.exact import VerificationError
from istrata.lattices import IntegralLattice
from istrata.normalform import (
    ChangeOfVariables,
    WeightedPolynomial,
    apply_change,
    compose_changes,
    cstar_weights,
    leading_form_invariants,
    monomial_weight,
    random_deformation,
    reduce_to_standard_form,
    slice_coordinates,
)
from istrata.roots import (
    build_En_lattice,
    decompose_root_system,
    enumerate_roots,
    highest_root_coefficients,
)

Y2 = (0, 2, 0, 0)
X3 = (3, 0, 0, 0)
XZ4 = (1, 0, 4, 0)
Z6 = (0, 0, 6, 0)


def weierstrass(g2, g3, extra=None):
    d = {Y2: Fraction(-1), X3: Fraction(1), XZ4: Fraction(g2), Z6: Fraction(g3)}
    if extra:
        d.update(extra)
    return WeightedPolynomial.from_dict(d)


def random_change(rng):
    return ChangeOfVariables(
        alpha=tuple(Fraction(rng.randrange(-6, 7), 3) for _ in range(2)),
        beta=tuple(Fraction(rng.randrange(-6, 7), 2) for _ in range(4)),
        gamma=Fraction(rng.randrange(-6, 7), 5),
    )


class TestPolynomials:
    def test_weight_check(self):
        with pytest.raises(ValueError):
            WeightedPolynomial.from_dict({(1, 1, 0, 0): 1})  # weight 5

    @pytest.mark.parametrize(
        "exp",
        [
            (4, 0, -3, 1),  # weight 6, but z⁻³ is not a monomial
            (3.0, 0, 0, 0),
            (True, 0, 4, 0),
            (0, 2, 0, 0, 0),
        ],
        ids=["negative", "float", "bool", "length"],
    )
    def test_malformed_exponent_rejected(self, exp):
        with pytest.raises(ValueError, match="nonnegative ints"):
            WeightedPolynomial.from_dict({Y2: -1, exp: Fraction(1, 2)})

    @pytest.mark.parametrize(
        "bad",
        [0.1, 0.0, 1.0, True, False, "1/2", None, Decimal("0.1"), 1j],
        ids=["float", "zero-float", "integral-float", "true", "false", "str", "none",
             "decimal", "complex"],
    )
    def test_rejects_non_rational_coefficients(self, bad):
        # from_dict({X3: 0.1}) used to keep 3602879701896397/36028797018963968
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            WeightedPolynomial.from_dict({Y2: -1, X3: bad})

    def test_int_and_fraction_coefficients_kept(self):
        p = WeightedPolynomial.from_dict({Y2: -1, X3: Fraction(1, 2), Z6: 0})
        assert p.coeffs == ((Y2, Fraction(-1)), (X3, Fraction(1, 2)))

    def test_monomial_weights(self):
        assert monomial_weight(Y2) == 6
        assert monomial_weight((1, 0, 2, 2)) == 6

    def test_t_part(self):
        p = weierstrass(2, 3, extra={(0, 0, 5, 1): Fraction(7)})
        assert p.t_part(1) == {(0, 0, 5, 1): Fraction(7)}
        assert len(p.t_part(0)) == 4


class TestChanges:
    @pytest.mark.parametrize(
        "params",
        [
            {"gamma": 0.5},
            {"gamma": True},
            {"gamma": None},
            {"alpha": (True, 0)},
            {"alpha": (0, 1.0)},
            {"alpha": (1j, 0)},
            {"beta": (0, 0, "1/2", 0)},
            {"beta": (0, 0, 0, Decimal("0.1"))},
        ],
        ids=["float-gamma", "bool-gamma", "none-gamma", "bool-alpha", "float-alpha",
             "complex-alpha", "str-beta", "decimal-beta"],
    )
    def test_change_rejects_inexact_parameters(self, params):
        # gamma=0.5 used to be kept, and composed with itself gave γ = 1.0
        args = {"alpha": (0, 0), "beta": (0,) * 4, "gamma": 0, **params}
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            ChangeOfVariables(**args)

    def test_change_parameters_kept_as_fractions(self):
        c = ChangeOfVariables(alpha=(0, 1), beta=(Fraction(1, 2), 0, 0, -3), gamma=2)
        assert all(type(p) is Fraction for p in (*c.alpha, *c.beta, c.gamma))
        assert c.beta == (Fraction(1, 2), 0, 0, -3)
        assert compose_changes(c, c).gamma == 4

    def test_identity_fixes(self):
        p = random_deformation(0)
        assert apply_change(p, ChangeOfVariables.identity()).coeffs == p.coeffs

    def test_substitution_example(self):
        # x³ under x ↦ x + t² picks up 3x²t², 3xt⁴, t⁶
        p = WeightedPolynomial.from_dict({X3: 1})
        ch = ChangeOfVariables(
            alpha=(Fraction(0), Fraction(1)),
            beta=(Fraction(0),) * 4,
            gamma=Fraction(0),
        )
        q = apply_change(p, ch)
        assert q.coefficient((2, 0, 0, 2)) == 3
        assert q.coefficient((1, 0, 0, 4)) == 3
        assert q.coefficient((0, 0, 0, 6)) == 1

    def test_t0_part_fixed(self):
        rng = random.Random(3)
        for _ in range(10):
            p = random_deformation(rng.randrange(10**6))
            q = apply_change(p, random_change(rng))
            assert q.t_part(0) == p.t_part(0)

    def test_composition_matches_sequential(self):
        rng = random.Random(4)
        for _ in range(10):
            c1, c2 = random_change(rng), random_change(rng)
            p = random_deformation(rng.randrange(10**6))
            lhs = apply_change(apply_change(p, c1), c2)
            rhs = apply_change(p, compose_changes(c1, c2))
            assert lhs.coeffs == rhs.coeffs

    def test_composition_not_commutative(self):
        c1 = ChangeOfVariables(
            alpha=(Fraction(1), Fraction(0)), beta=(Fraction(0),) * 4, gamma=Fraction(0)
        )
        c2 = ChangeOfVariables(
            alpha=(Fraction(0),) * 2, beta=(Fraction(0),) * 4, gamma=Fraction(1)
        )
        assert compose_changes(c1, c2) != compose_changes(c2, c1)


class TestLeadingForm:
    def test_invariants(self):
        assert leading_form_invariants(weierstrass(5, 7)) == (-1, 1, 5, 7)

    def test_extra_t0_monomial_rejected(self):
        p = weierstrass(1, 1, extra={(1, 1, 1, 0): 1})  # xyz
        with pytest.raises(ValueError):
            leading_form_invariants(p)

    def test_missing_cubic_rejected(self):
        p = WeightedPolynomial.from_dict({Y2: -1, Z6: 1})
        with pytest.raises(ValueError):
            leading_form_invariants(p)


class TestReduction:
    KILLED_G2 = [
        (1, 1, 0, 1), (0, 1, 2, 1), (0, 1, 1, 2), (0, 1, 0, 3),
        (2, 0, 1, 1), (2, 0, 0, 2), (1, 0, 3, 1),
    ]

    @pytest.mark.parametrize("seed", range(8))
    def test_kills_targets(self, seed):
        p = random_deformation(seed)
        r = reduce_to_standard_form(p)
        assert r.branch == "g2"
        for exp in self.KILLED_G2:
            assert r.polynomial.coefficient(exp) == 0
        assert r.polynomial.t_part(0) == p.t_part(0)
        assert apply_change(p, r.change).coeffs == r.polynomial.coeffs

    def test_idempotent(self):
        r = reduce_to_standard_form(random_deformation(17))
        r2 = reduce_to_standard_form(r.polynomial)
        assert r2.change == ChangeOfVariables.identity()
        assert r2.polynomial.coeffs == r.polynomial.coeffs

    def test_g3_branch(self):
        d = random_deformation(5).as_dict()
        d.pop(XZ4)
        d[Z6] = Fraction(3)
        r = reduce_to_standard_form(WeightedPolynomial.from_dict(d))
        assert r.branch == "g3"
        assert r.polynomial.coefficient((0, 0, 5, 1)) == 0

    def test_cusp_rejected(self):
        with pytest.raises(ValueError, match="cuspidal"):
            reduce_to_standard_form(random_deformation(5, cuspidal=True))

    def test_wrong_composed_change_is_caught(self, monkeypatch):
        # the final check re-applies the composed change to the input
        monkeypatch.setattr(
            normalform, "compose_changes", lambda first, second: ChangeOfVariables.identity()
        )
        with pytest.raises(VerificationError):
            reduce_to_standard_form(random_deformation(3))

    def test_surviving_target_is_caught(self, monkeypatch):
        # the γ row's multiplier doubled halves γ, so txz³ keeps half its
        # coefficient; the composed change still matches the (unreduced) result
        src, m, targets = normalform._GAMMA_STEPS["g2"]
        monkeypatch.setitem(normalform._GAMMA_STEPS, "g2", (src, 2 * m, targets))
        with pytest.raises(VerificationError, match=r"x\*z\^3\*t survived"):
            reduce_to_standard_form(random_deformation(3))

    @pytest.mark.parametrize("branch", ["g2", "g3"])
    def test_one_substitution_per_group(self, monkeypatch, branch):
        # three grouped substitutions plus the final re-application of the
        # composed change, and two compositions: the β group's change is the
        # running total
        if branch == "g2":
            p = random_deformation(3)
        else:
            d = random_deformation(3, cuspidal=True).as_dict()
            d[Z6] = Fraction(4, 41)
            p = WeightedPolynomial.from_dict(d)
        calls = {"_expand": 0, "compose_changes": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(normalform, name)):
                calls[_name] += 1
                return _f(*args)

            monkeypatch.setattr(normalform, name, counted)
        assert reduce_to_standard_form(p).branch == branch
        assert calls == {"_expand": 4, "compose_changes": 2}

    def test_moved_t0_part_is_caught(self, monkeypatch):
        # x³ gains 1 in every built polynomial, the reduced one and the
        # re-applied composed change alike, so only the t⁰ check sees it
        build = normalform._polynomial

        def perturbed(terms, den):
            return build([(e, n + den if e == X3 else n) for e, n in terms], den)

        monkeypatch.setattr(normalform, "_polynomial", perturbed)
        with pytest.raises(VerificationError, match="moved the t⁰ part"):
            reduce_to_standard_form(random_deformation(3))

    def test_pinned_reductions(self):
        # sha256 over repr((branch, coeffs, change)) of 200 g₂-branch and 60
        # g₃-branch reductions: any change to a parameter, to the order of
        # the steps or to the reduced polynomial moves it
        def on_g3(seed):
            d = random_deformation(seed, cuspidal=True).as_dict()
            d[Z6] = Fraction(seed % 40 + 1, 41)
            return WeightedPolynomial.from_dict(d)

        polys = [random_deformation(s) for s in range(200)] + [on_g3(s) for s in range(60)]
        h = hashlib.sha256()
        branches = []
        for p in polys:
            r = reduce_to_standard_form(p)
            h.update(repr((r.branch, r.polynomial.coeffs, r.change)).encode())
            branches.append(r.branch)
        assert branches == ["g2"] * 200 + ["g3"] * 60
        assert h.hexdigest() == (
            "29ede17ef536afcbe697ad13a9dc88ac98503ad04a6b6da934f525757aee2181"
        )

    def test_change_invariance_of_slice(self):
        # a scrambled polynomial reduces to the same slice point
        rng = random.Random(6)
        p = random_deformation(23)
        r = reduce_to_standard_form(p)
        for _ in range(5):
            q = apply_change(p, random_change(rng))
            assert slice_coordinates(reduce_to_standard_form(q)) == slice_coordinates(r)


class TestSlice:
    def test_weights(self):
        slots = cstar_weights("g2")
        assert [w for _, _, w in slots] == [1, 2, 2, 3, 3, 4, 4, 5, 6]
        assert [n for n, _, _ in slots] == [
            "a", "b1", "b2", "c1", "c2", "d1", "d2", "e", "f",
        ]
        for _, exp, w in slots:
            assert exp[3] == w

    def test_branches_differ_in_first_slot(self):
        assert cstar_weights("g2")[0][1] == (0, 0, 5, 1)
        assert cstar_weights("g3")[0][1] == (1, 0, 3, 1)

    @pytest.mark.parametrize("branch", ["g2", "g3"])
    def test_weights_are_affine_E8_marks(self, branch):
        # the slice's ℂ*-weights are the marks of the affine Ẽ₈ diagram: the
        # affine node's 1 and the coefficients of E8's highest root in its
        # simple roots, taken from the E8 root lattice of the blowup basis
        L, _, _, _, alphas = build_En_lattice(8)
        e8 = IntegralLattice([[L.pairing(a, b) for b in alphas] for a in alphas])
        highest = highest_root_coefficients(decompose_root_system(e8, enumerate_roots(e8)), 0)
        marks = sorted((1, *highest))
        assert [w for _, _, w in cstar_weights(branch)] == marks
        assert sum(marks) == 30  # the Coxeter number h(E8)

    def test_slice_has_nine_coordinates(self):
        r = reduce_to_standard_form(random_deformation(8))
        assert len(slice_coordinates(r)) == 9
