"""Normal forms of weighted-homogeneous deformations of a Weierstrass cubic.

Polynomials live in ℚ[x, y, z, t] with weights (2, 3, 1, 1), homogeneous of
total weight 6.  The t⁰ part is required to be a Weierstrass form
c_y·y² + c_x·x³ + g₂·xz⁴ + g₃·z⁶; the coordinate changes

    x ↦ x + α₁tz + α₂t²,   y ↦ y + β₁tx + β₂tz² + β₃t²z + β₄t³,   z ↦ z + γt

fix the t⁰ part and are used to kill seven deformation monomials, leaving a
nine-dimensional slice whose coordinates carry ℂ*-weights (1,2,2,3,3,4,4,5,6).
The reduction applies them in three grouped substitutions: the four β
parameters, the two α parameters, then γ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .exact import VerificationError, as_rational

TOTAL_WEIGHT = 6

# exponent tuples are (ex, ey, ez, et); the weights of x, y, z, t
_W = (2, 3, 1, 1)


def monomial_weight(exp):
    return sum(e * w for e, w in zip(exp, _W))


def _mono_str(exp):
    parts = []
    for name, e in zip("xyzt", exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class WeightedPolynomial:
    coeffs: tuple  # sorted tuple of (exponent tuple, Fraction), zeros dropped

    def __post_init__(self):
        for exp, c in self.coeffs:
            # `type(e) is not int` also rejects bool
            if type(exp) is not tuple or len(exp) != 4 or any(
                type(e) is not int or e < 0 for e in exp
            ):
                raise ValueError(f"exponent {exp!r} is not four nonnegative ints")
            if monomial_weight(exp) != TOTAL_WEIGHT:
                raise ValueError(
                    f"monomial {_mono_str(exp)} has weight {monomial_weight(exp)}"
                )
            if c == 0:
                raise ValueError("zero coefficients must be dropped")

    @classmethod
    def from_dict(cls, d):
        """From {exponent: coefficient}; a coefficient must be an int or a Fraction."""
        items = []
        for exp, c in d.items():
            if type(c) is not Fraction:
                c = as_rational(c)
            if c:
                items.append((tuple(exp), c))
        return cls(coeffs=tuple(sorted(items)))

    def as_dict(self):
        return dict(self.coeffs)

    def coefficient(self, exp):
        return self.as_dict().get(tuple(exp), Fraction(0))

    def t_part(self, k):
        """The sub-sum of monomials with t-exponent exactly k."""
        return {exp: c for exp, c in self.coeffs if exp[3] == k}


# ---------------------------------------------------------------------------
# generic (non-homogeneous) polynomial arithmetic used for substitution


def _mul(a, b):
    """Product of two exponent dictionaries with `int` coefficients."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


@dataclass(frozen=True)
class ChangeOfVariables:
    alpha: tuple  # (α₁, α₂)
    beta: tuple  # (β₁, β₂, β₃, β₄)
    gamma: Fraction

    def __post_init__(self):
        if len(self.alpha) != 2 or len(self.beta) != 4:
            raise ValueError("need two α and four β parameters")
        # every parameter exact: an int or a Fraction, kept as a Fraction; the
        # chained test is the fast path of the reduction's own changes
        (a1, a2), (b1, b2, b3, b4), g = self.alpha, self.beta, self.gamma
        if not (type(a1) is type(a2) is type(b1) is type(b2) is type(b3) is type(b4)
                is type(g) is Fraction):
            object.__setattr__(self, "alpha", tuple(map(as_rational, self.alpha)))
            object.__setattr__(self, "beta", tuple(map(as_rational, self.beta)))
            object.__setattr__(self, "gamma", as_rational(g))

    @classmethod
    def identity(cls):
        return cls(alpha=(Fraction(0),) * 2, beta=(Fraction(0),) * 4, gamma=Fraction(0))

    def images(self):
        """(d, [x, y, z, t]): each image as an `int` exponent dictionary, scaled
        by dʷ for a variable of weight w; d is the lcm of the parameters'
        denominators."""
        a1, a2 = self.alpha
        b1, b2, b3, b4 = self.beta
        g = self.gamma
        d = lcm(*[p.denominator for p in (a1, a2, b1, b2, b3, b4, g)])
        x = {(1, 0, 0, 0): 1, (0, 0, 1, 1): a1, (0, 0, 0, 2): a2}
        y = {
            (0, 1, 0, 0): 1,
            (1, 0, 0, 1): b1,
            (0, 0, 2, 1): b2,
            (0, 0, 1, 2): b3,
            (0, 0, 0, 3): b4,
        }
        z = {(0, 0, 1, 0): 1, (0, 0, 0, 1): g}
        t = {(0, 0, 0, 1): 1}
        return d, [
            {e: c.numerator * (d**w // c.denominator) for e, c in img.items() if c}
            for img, w in zip((x, y, z, t), _W)
        ]


def _numerators(poly):
    """(terms, den): `poly` as (exponent, `int`) terms over den, the lcm of its
    denominators."""
    # `*` gets a list, not a generator: CPython builds a generator's argument
    # tuple by resizing, and the resized tuples pile up on its free lists
    # (3 MB of peak RSS in 1,000 reductions)
    den = lcm(*[c.denominator for _, c in poly.coeffs])
    return [(exp, c.numerator * (den // c.denominator)) for exp, c in poly.coeffs], den


def _polynomial(terms, den):
    """The `WeightedPolynomial` of sorted nonzero `terms` over den."""
    return WeightedPolynomial(coeffs=tuple((exp, Fraction(n, den)) for exp, n in terms))


def _expand(terms, den, change):
    """Substitute `change` into Σ n·xᵉ / den, given as sorted (exponent, `int`)
    terms over den.

    Every image term has the weight of the variable it replaces, so with the
    images of `ChangeOfVariables.images` each substituted monomial carries d⁶
    and the sum runs on `int`s over den·d⁶.  Returns (sorted nonzero terms,
    den·d⁶/g), g the gcd of den·d⁶ and every numerator, so the returned
    denominator is the lcm of the coefficients' denominators.

    The powers of each image are built once, up to the largest exponent of
    that variable in `terms`; each monomial is then expanded in one pass over
    the four powers it needs.
    """
    d, images = change.images()
    # the zero row gives the empty polynomial tops of 0
    tops = map(max, zip((0, 0, 0, 0), *[exp for exp, _ in terms]))
    tables = []
    for img, top in zip(images, tops):
        table = [{(0, 0, 0, 0): 1}]
        for _ in range(top):
            table.append(_mul(table[-1], img))
        tables.append(table)
    xs, ys, zs, ts = tables
    acc = {}
    for (i, j, k, m), n in terms:
        for (a0, a1, a2, a3), ca in xs[i].items():
            na = n * ca
            for (b0, b1, b2, b3), cb in ys[j].items():
                e0, e1, e2, e3 = a0 + b0, a1 + b1, a2 + b2, a3 + b3
                nb = na * cb
                for (c0, c1, c2, c3), cc in zs[k].items():
                    f0, f1, f2, f3 = e0 + c0, e1 + c1, e2 + c2, e3 + c3
                    nc = nb * cc
                    for (g0, g1, g2, g3), ct in ts[m].items():
                        e = (f0 + g0, f1 + g1, f2 + g2, f3 + g3)
                        acc[e] = acc.get(e, 0) + nc * ct
    big = den * d**TOTAL_WEIGHT
    out = sorted([(e, n) for e, n in acc.items() if n])
    g = gcd(big, *[n for _, n in out])
    return [(e, n // g) for e, n in out], big // g


def apply_change(poly, change):
    """Exact substitution; homogeneity is preserved since every replacement
    term has the weight of the variable it replaces."""
    return _polynomial(*_expand(*_numerators(poly), change))


def compose_changes(first, second):
    """The single change equivalent to applying `first` then `second`.

    Verified against the closed-form substitution law; the γ of the second
    change feeds into the α and β parameters of the first.
    """
    a11, a12 = first.alpha
    a21, a22 = second.alpha
    b11, b12, b13, b14 = first.beta
    b21, b22, b23, b24 = second.beta
    g1, g2 = first.gamma, second.gamma
    alpha = (a11 + a21, a12 + a22 + a11 * g2)
    beta = (
        b11 + b21,
        b12 + b22,
        b13 + b23 + b11 * a21 + 2 * b12 * g2,
        b14 + b24 + b11 * a22 + b12 * g2 * g2 + b13 * g2,
    )
    return ChangeOfVariables(alpha=alpha, beta=beta, gamma=g1 + g2)


# ---------------------------------------------------------------------------
# normal-form reduction

# the Weierstrass monomials allowed in the t⁰ part
_Y2 = (0, 2, 0, 0)
_X3 = (3, 0, 0, 0)
_XZ4 = (1, 0, 4, 0)
_Z6 = (0, 0, 6, 0)

_GAMMA_TARGET_G2 = (1, 0, 3, 1)  # txz³, available when g₂ ≠ 0
_GAMMA_TARGET_G3 = (0, 0, 5, 1)  # tz⁵, available when g₃ ≠ 0

# the seven targets grouped by the t⁰ monomial whose change kills them, in
# order, as (source, multiplier m, ((target, index of its parameter in
# (α₁, α₂, β₁, …, β₄, γ)), …)).  Setting a group's parameters to uᵢ adds
# m·c·uᵢ to the i-th target's coefficient, c the source's coefficient in the
# t⁰ part, and nothing else of weight 6 reaches a target of the group:
# y ↦ y + Σuᵢ·Mᵢ turns c_y·y² into c_y·(y² + 2y·ΣuᵢMᵢ + (ΣuᵢMᵢ)²), and no
# other monomial has a y-linear image term; x ↦ x + Σuᵢ·Mᵢ gives
# 3c_x·x²·ΣuᵢMᵢ from x³ and keeps the x² part of every other monomial; and
# z ↦ z + u·t gives 4g₂·u·xz³t from xz⁴ and 6g₃·u·z⁵t from z⁶.  The targets
# are β₁..β₄: txy, tyz², t²yz, t³y; α₁, α₂: tx²z, t²x²; γ: txz³ or tz⁵,
# by branch.
_STEPS = (
    (_Y2, 2, (((1, 1, 0, 1), 2), ((0, 1, 2, 1), 3), ((0, 1, 1, 2), 4), ((0, 1, 0, 3), 5))),
    (_X3, 3, (((2, 0, 1, 1), 0), ((2, 0, 0, 2), 1))),
)
_GAMMA_STEPS = {"g2": (_XZ4, 4, ((_GAMMA_TARGET_G2, 6),)), "g3": (_Z6, 6, ((_GAMMA_TARGET_G3, 6),))}


@dataclass(frozen=True)
class StandardFormResult:
    polynomial: WeightedPolynomial
    change: ChangeOfVariables
    branch: str  # which monomial the γ parameter killed


def leading_form_invariants(poly):
    """(c_y, c_x, g₂, g₃) of the t⁰ part; raises unless that part is exactly
    a Weierstrass form with c_y, c_x ≠ 0."""
    t0 = poly.t_part(0)
    for exp in t0:
        if exp not in (_Y2, _X3, _XZ4, _Z6):
            raise ValueError(f"t⁰ part contains {_mono_str(exp)}")
    cy = t0.get(_Y2, Fraction(0))
    cx = t0.get(_X3, Fraction(0))
    if cy == 0 or cx == 0:
        raise ValueError("t⁰ part must contain y² and x³")
    return cy, cx, t0.get(_XZ4, Fraction(0)), t0.get(_Z6, Fraction(0))


def reduce_to_standard_form(poly):
    """Kill the seven normalizable deformation monomials.

    Order matters: the β group fixes the y-linear monomials first (only
    −2·c_y·y·δ can move them), then the α group clears tx²z and t²x² using
    the x³ term, and finally γ clears txz³ (when g₂ ≠ 0) or tz⁵ (when g₂ = 0,
    g₃ ≠ 0); this order never reintroduces an earlier target.  No group moves
    the t⁰ part or another target of its own group, so each parameter is
    u = −c₀/(m·c), c₀ its target's coefficient before the group and m·c its
    slope from `_STEPS`, and each group is one substitution.  The three
    substitutions carry integer numerators over one denominator; the final
    checks certify every group.
    """
    source = dict(zip((_Y2, _X3, _XZ4, _Z6), leading_form_invariants(poly)))
    if source[_XZ4] != 0:
        branch = "g2"
    elif source[_Z6] != 0:
        branch = "g3"
    else:
        raise ValueError("g₂ = g₃ = 0: the fibre is cuspidal, no normal form")
    steps = _STEPS + (_GAMMA_STEPS[branch],)
    total = None
    terms, den = _numerators(poly)
    for src, m, targets in steps:
        # u = −c₀/(m·c), c₀ = coeffs[target]/den and c the source's coefficient
        c, coeffs, p = source[src], dict(terms), [Fraction(0)] * 7
        for target, k in targets:
            p[k] = Fraction(-coeffs.get(target, 0) * c.denominator, den * m * c.numerator)
        change = ChangeOfVariables(alpha=tuple(p[:2]), beta=tuple(p[2:6]), gamma=p[6])
        terms, den = _expand(terms, den, change)
        total = change if total is None else compose_changes(total, change)
    current = _polynomial(terms, den)

    coeffs = current.as_dict()
    survivors = [t for _, _, targets in steps for t, _ in targets if t in coeffs]
    if survivors:
        raise VerificationError(f"{_mono_str(survivors[0])} survived the reduction")
    if current.t_part(0) != poly.t_part(0):
        raise VerificationError("the reduction moved the t⁰ part")
    if apply_change(poly, total).coeffs != current.coeffs:
        raise VerificationError("the composed change does not give the reduced form")
    return StandardFormResult(polynomial=current, change=total, branch=branch)


# ---------------------------------------------------------------------------
# the residual slice and its torus weights


def cstar_weights(branch):
    """The nine residual coefficients with their ℂ*-weights (= t-exponents).

    Returns ((name, exponent tuple, weight), ...) in weight order
    (1, 2, 2, 3, 3, 4, 4, 5, 6).
    """
    first = _GAMMA_TARGET_G3 if branch == "g2" else _GAMMA_TARGET_G2
    slots = (
        ("a", first, 1),
        ("b1", (0, 0, 4, 2), 2),
        ("b2", (1, 0, 2, 2), 2),
        ("c1", (0, 0, 3, 3), 3),
        ("c2", (1, 0, 1, 3), 3),
        ("d1", (0, 0, 2, 4), 4),
        ("d2", (1, 0, 0, 4), 4),
        ("e", (0, 0, 1, 5), 5),
        ("f", (0, 0, 0, 6), 6),
    )
    for name, exp, w in slots:
        if exp[3] != w or monomial_weight(exp) != TOTAL_WEIGHT:
            raise VerificationError(f"slice coordinate {name} has the wrong weight")
    return slots


def slice_coordinates(result):
    """Name → coefficient map of the reduced polynomial on the residual slice."""
    coeffs = result.polynomial.as_dict()
    return {name: coeffs.get(exp, Fraction(0)) for name, exp, _ in cstar_weights(result.branch)}


DEFORMATION_DENOM = 41  # random_deformation draws coefficients in (1/41)ℤ ∩ (−1, 1)


def random_deformation(seed, cuspidal=False):
    """Seeded weight-6 polynomial with Weierstrass t⁰ part and random
    coefficients on every t-divisible monomial."""
    rng = random.Random(seed)
    q = DEFORMATION_DENOM

    def rnd(nonzero=False):
        return Fraction(rng.randrange(1 if nonzero else -q, q), q)

    d = {_Y2: Fraction(-1), _X3: Fraction(1)}
    if not cuspidal:
        d[_XZ4] = rnd(nonzero=True)
        d[_Z6] = rnd()
    for ex in range(4):
        for ey in range(3):
            for ez in range(7):
                for et in range(1, 7):
                    exp = (ex, ey, ez, et)
                    if monomial_weight(exp) == TOTAL_WEIGHT:
                        c = rnd()
                        if c != 0:
                            d[exp] = c
    return WeightedPolynomial.from_dict(d)
