"""Rational tori: exact models of Jacobians and their isogenies.

A torus of rank g is ℝ^g/ℤ^g; its rational points are tuples of Fractions
reduced into [0, 1).  Morphisms are integer matrices in the column
convention (x ↦ M·x).  A pullback isogeny along a degree-d cover is stored
as its matrix; the Jacobian functor's contravariance is bookkeeping only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import exact
from .lattices import FiniteAbelianGroup


@dataclass(frozen=True)
class TorusPoint:
    coords: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coords", tuple(Fraction(c) % 1 for c in self.coords)
        )

    @property
    def rank(self):
        return len(self.coords)

    def __add__(self, other):
        return TorusPoint(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return TorusPoint(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return TorusPoint(tuple(-a for a in self.coords))

    def scale(self, n):
        return TorusPoint(tuple(n * a for a in self.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def order(self):
        """Order in the torus group (coordinates are rational, so finite)."""
        return lcm(*(c.denominator for c in self.coords))


@dataclass(frozen=True)
class RationalTorus:
    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")

    def zero(self):
        return TorusPoint((Fraction(0),) * self.rank)

    def point(self, coords):
        if len(coords) != self.rank:
            raise ValueError("coordinate length mismatch")
        return TorusPoint(tuple(Fraction(c) for c in coords))


@dataclass(frozen=True)
class TorusMorphism:
    source: RationalTorus
    target: RationalTorus
    matrix: tuple  # target.rank × source.rank, column convention

    def __post_init__(self):
        m = tuple(tuple(Fraction(x) for x in row) for row in self.matrix)
        if len(m) != self.target.rank or any(
            len(row) != self.source.rank for row in m
        ):
            raise ValueError("matrix shape mismatch")
        # M·ℤ^g ⊆ ℤ^{g'} forces integer entries (apply to unit vectors)
        for row in m:
            for x in row:
                if x.denominator != 1:
                    raise ValueError("morphism matrix must carry ℤ^g into ℤ^g'")
        object.__setattr__(self, "matrix", tuple(tuple(int(x) for x in row) for row in m))

    def apply(self, p):
        return TorusPoint(tuple(exact.mat_vec(self.matrix, p.coords)))

    def __call__(self, p):
        return self.apply(p)

    def compose(self, inner):
        """self ∘ inner."""
        if inner.target != self.source:
            raise ValueError("morphisms not composable")
        m = exact.mat_mul([list(r) for r in self.matrix], [list(r) for r in inner.matrix])
        return TorusMorphism(inner.source, self.target, tuple(tuple(r) for r in m))

    def degree(self):
        """|det M| for a self-rank isogeny (0 means not an isogeny)."""
        if self.source.rank != self.target.rank:
            raise ValueError("degree defined only for equal ranks")
        return abs(exact.det_bareiss([list(r) for r in self.matrix]))


def identity_morphism(T):
    return TorusMorphism(T, T, exact.identity_matrix(T.rank))


def stack_morphisms(fs):
    """(f₁, …, f_r): common source, direct-sum target."""
    src = fs[0].source
    if any(f.source != src for f in fs):
        raise ValueError("stacked morphisms need a common source")
    tgt = RationalTorus(sum(f.target.rank for f in fs))
    rows = []
    for f in fs:
        rows.extend(list(r) for r in f.matrix)
    return TorusMorphism(src, tgt, tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# torsion, kernels, quotients


def n_torsion(T, n):
    """All n^g points killed by n, in lexicographic order."""
    if n < 1:
        raise ValueError("n must be ≥ 1")
    fracs = [Fraction(i, n) for i in range(n)]
    return [TorusPoint(c) for c in itertools.product(fracs, repeat=T.rank)]


def kernel_points(f):
    """Finite kernel {x : M x ∈ ℤ^{g'}}/ℤ^g of a ℚ-injective morphism.

    Returns (FiniteAbelianGroup, generators) with one generator per
    nontrivial invariant factor.
    """
    g = f.source.rank
    _, facs, v, _ = exact.smith_normal_form([list(r) for r in f.matrix])
    if len(facs) < g:
        raise ValueError("morphism not injective over ℚ (kernel infinite)")
    gens = [
        TorusPoint(tuple(Fraction(v[t][i], di) for t in range(g)))
        for i, di in enumerate(facs) if di > 1
    ]
    return FiniteAbelianGroup(tuple(facs)), gens


def _check_subgroup(T, points):
    pts = {p.coords for p in points}
    pts.add(T.zero().coords)
    for a in points:
        for b in points:
            if (a + b).coords not in pts:
                raise ValueError("finite set is not closed under addition")
    return [TorusPoint(c) for c in sorted(pts)]


def quotient_torus(T, points):
    """Quotient by a finite subgroup; returns (torus, projection).

    The quotient is ℝ^g/L for L = ℤ^g + lifts; rewriting in a basis of L
    identifies it with a standard torus, and the projection matrix is the
    basis-change (integral because ℤ^g ⊆ L), of degree |F|.  The rows span
    denom·L; with P·rows·V = D, its basis dᵢ·W[i] gives the projection
    denom·D⁻¹·Vᵀ: row i is (denom / dᵢ) times column i of V.
    """
    closure = _check_subgroup(T, points)
    g = T.rank
    denom = lcm(*(c.denominator for p in closure for c in p.coords))
    rows = [[denom if i == j else 0 for j in range(g)] for i in range(g)]
    for p in closure:
        rows.append([int(c * denom) for c in p.coords])
    _, facs, v, _ = exact.smith_normal_form(rows)
    matrix = [[denom // d * x for x in col] for d, col in zip(facs, zip(*v))]
    proj = TorusMorphism(T, RationalTorus(g), matrix)
    if proj.degree() != len(closure):
        raise exact.VerificationError("quotient degree differs from the subgroup order")
    return proj.target, proj


def quotient_by_subtorus(f):
    """Cokernel of an injective morphism f: S → T (quotient by the image
    subtorus).  Returns the projection T → T/im(f).

    Coordinates adapted via SNF: with U·M·V diagonal, the last
    (rank T − rank S) rows of U give quotient coordinates.  Requires the
    image subtorus to be a direct factor of the point group (all SNF
    invariant factors 1), which holds for every diagram built here.
    """
    gs, gt = f.source.rank, f.target.rank
    u, facs, _, _ = exact.smith_normal_form([list(r) for r in f.matrix])
    if len(facs) < gs:
        raise ValueError("morphism not injective over ℚ")
    if any(di != 1 for di in facs):
        raise ValueError("image is not a primitively embedded subtorus")
    q_rows = [list(u[i]) for i in range(gs, gt)]
    return TorusMorphism(f.target, RationalTorus(gt - gs), tuple(tuple(r) for r in q_rows))


# ---------------------------------------------------------------------------
# the JW₁ cover diagram of the (1,1,1) elliptic-ruled stratum


@dataclass(frozen=True)
class Jw1CoverDiagram:
    jw1: RationalTorus
    marking1: TorusMorphism  # JΓ₁ → JW₁
    marking2: TorusMorphism  # JΓ₂ → JW₁
    marking_sigma: TorusMorphism  # Jσ → JW₁


def build_jw1_cover_diagram():
    """JW₁ of the (1,1,1) elliptic-ruled surface as the cokernel of the
    diagonal embedding JB → JΓ₁ ⊕ JΓ₂ ⊕ Jσ.

    The two covers Γᵢ → B are degree 2 with pullback kernels η₁ = (1/2, 0)
    and η₂ = (0, 1/2); the section curve σ maps isomorphically to B.  The
    construction checks: each marking is injective, JΓ₁⊕JΓ₂ → JW₁ is an
    isomorphism, and JΓᵢ⊕Jσ → JW₁ has kernel of order 2.
    """
    B = RationalTorus(2)
    g1, g2, s = RationalTorus(2), RationalTorus(2), RationalTorus(2)
    c1 = TorusMorphism(B, g1, ((2, 0), (0, 1)))
    c2 = TorusMorphism(B, g2, ((1, 0), (0, 2)))
    grp1, gens1 = kernel_points(c1)
    grp2, gens2 = kernel_points(c2)
    if grp1.order != 2 or gens1[0].coords != (Fraction(1, 2), Fraction(0)):
        raise exact.VerificationError("ker(JB → JΓ₁) is not ⟨(1/2, 0)⟩")
    if grp2.order != 2 or gens2[0].coords != (Fraction(0), Fraction(1, 2)):
        raise exact.VerificationError("ker(JB → JΓ₂) is not ⟨(0, 1/2)⟩")
    cs = identity_morphism(B)  # Jσ ≅ JB
    embed = stack_morphisms([c1, c2, TorusMorphism(B, s, cs.matrix)])
    proj = quotient_by_subtorus(embed)
    jw1 = proj.target
    total = RationalTorus(6)

    def inclusion(offset, src):
        m = [[0] * 2 for _ in range(6)]
        m[offset][0] = 1
        m[offset + 1][1] = 1
        return TorusMorphism(src, total, tuple(tuple(r) for r in m))

    raw1 = proj.compose(inclusion(0, g1))
    raw2 = proj.compose(inclusion(2, g2))
    raws = proj.compose(inclusion(4, s))
    # normalize quotient coordinates so that JΓ₁⊕JΓ₂ → JW₁ is the identity
    pair = [list(a) + list(b) for a, b in zip(raw1.matrix, raw2.matrix)]
    norm = exact.unimodular_inverse(pair)
    renorm = TorusMorphism(jw1, jw1, tuple(tuple(r) for r in norm))
    m1 = renorm.compose(raw1)
    m2 = renorm.compose(raw2)
    ms = renorm.compose(raws)
    for m in (m1, m2, ms):
        grp, _ = kernel_points(m)
        if grp.order != 1:
            raise exact.VerificationError("marking not injective")
    iso = [list(a) + list(b) for a, b in zip(m1.matrix, m2.matrix)]
    if abs(exact.det_bareiss(iso)) != 1:
        raise exact.VerificationError("JΓ₁ ⊕ JΓ₂ → JW₁ is not an isomorphism")
    for mi in (m1, m2):
        grp, gens = kernel_points(stack_via_sum(mi, ms))
        if grp.order != 2:
            raise exact.VerificationError("JΓᵢ ⊕ Jσ → JW₁ kernel is not of order 2")
    return Jw1CoverDiagram(jw1=jw1, marking1=m1, marking2=m2, marking_sigma=ms)


def stack_via_sum(f, g):
    """(x, y) ↦ f(x) + g(y): the sum map on a direct-sum source."""
    if f.target != g.target:
        raise ValueError("sum map needs a common target")
    src = RationalTorus(f.source.rank + g.source.rank)
    m = [list(a) + list(b) for a, b in zip(f.matrix, g.matrix)]
    return TorusMorphism(src, f.target, tuple(tuple(r) for r in m))
