"""The six boundary-stratum models and their Hodge-theoretic invariants.

Each model is pure lattice-and-class data for a normal crossing surface
X₀ = Ỹ ⨿_{Dᵢ} (⨿ Zᵢ): the H² lattice of the minimal resolution Ỹ with its
double-curve classes Dᵢ and limit canonical class L, glued to del Pezzo
components Zᵢ along anticanonical curves.  From this the module computes
the rank-24 graded piece Λ = {ξ₁..ξ_k, [L]}⊥ / Σℤξᵢ, the markings of JW₁
read off the monodromy frame, the Carlson extension map ψ on seeded
generic restriction data, and the distinguished class β₁₁ of the (2,2)
stratum.  Each stratum is declared once, as one row of `_MODELS`.  Models,
Λ and ψ's draw maps are built once per label: per curve, ψᵢ is one integer
24×w matrix Gᵢ of the draws over d, certified once to kill ξ and [L] for
every draw.  A seed only draws the integer rows x, and ψ is plain data: per
curve an integer 2×24 matrix Mᵢ with rows Gᵢ·x on Λ coordinates and a
denominator dᵢ, with ψᵢ(λ) = Mᵢλ/dᵢ mod ℤ².
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from . import STRATUM_LABELS, exact  # STRATUM_LABELS: re-exported for callers
from .lattices import (
    IntegralLattice,
    blowup_lattice,
    direct_sum,
    hyperbolic_plane,
    index_of_sublattice,
    is_negative_definite,
    lattice_predicates,
    orthogonal_complement,
    quotient_by_isotropic,
)
from .monodromy import jw1_markings
from .roots import (
    build_En_lattice,
    decompose_root_system,
    enumerate_roots,
    fundamental_weight,
    weight_self_pairing,
)
from .tori import TorusPoint


# ---------------------------------------------------------------------------
# component surfaces


@dataclass(frozen=True)
class ComponentSurface:
    name: str
    lattice: IntegralLattice
    canonical_class: tuple
    double_curves: dict  # curve index -> class on this component
    l_class: tuple | None = None  # only on Ỹ

    def __post_init__(self):
        for i, d in self.double_curves.items():
            kd = self.lattice.pairing(self.canonical_class, d)
            if kd + self.lattice.norm(d) != 0:
                raise ValueError(
                    f"{self.name}: adjunction fails on double curve {i}"
                )


def del_pezzo_surface(name, degree, curve_index):
    """dP_d component: ⟨h, ε₁..ε_{9−d}⟩ = diag(1, −1⁹⁻ᵈ), anticanonical
    double curve D′ = −K = 3h − Σεᵢ."""
    n = 9 - degree
    K = tuple([-3] + [1] * n)
    D = tuple(-x for x in K)
    return ComponentSurface(
        name=name,
        lattice=blowup_lattice(n),
        canonical_class=K,
        double_curves={curve_index: D},
    )


@dataclass(frozen=True)
class GluedBoundaryModel:
    stratum: str
    y_tilde: ComponentSurface
    dp_components: tuple
    ambient: IntegralLattice

    @cached_property
    def xi(self):
        """ξᵢ = Dᵢ on Ỹ minus D′ᵢ on Zᵢ, in ambient coordinates."""
        out = []
        for i, z in enumerate(self.dp_components):
            dy = self.embed_y(self.y_tilde.double_curves[i + 1])
            dz = self.embed_z(i, z.double_curves[i + 1])
            out.append(tuple(a - b for a, b in zip(dy, dz)))
        return tuple(out)

    @cached_property
    def l_total(self):
        """[L] in ambient coordinates."""
        return self.embed_y(self.y_tilde.l_class)

    @property
    def k(self):
        return len(self.xi)

    def embed_y(self, v):
        """Ỹ class into ambient coordinates."""
        out = list(v) + [0] * (self.ambient.rank - self.y_tilde.lattice.rank)
        return tuple(out)

    def embed_z(self, i, v):
        """Class on the i-th del Pezzo component (0-based) into the ambient."""
        off = self.y_tilde.lattice.rank
        for j in range(i):
            off += self.dp_components[j].lattice.rank
        out = [0] * self.ambient.rank
        for t, x in enumerate(v):
            out[off + t] = x
        return tuple(out)

    def dp_root_basis(self, i):
        """The κ⊥ root basis α₁..αₙ of the i-th del Pezzo component
        (0-based) in ambient coordinates: α₁..αₙ₋₁ the ε-differences, αₙ
        the cubic class (`roots.build_En_lattice`)."""
        n = self.dp_components[i].lattice.rank - 1
        return [self.embed_z(i, a) for a in build_En_lattice(n)[4]]


def _ruled_lattice(n_exc):
    """⟨σ, f, e₁..eₙ⟩ with σ² = 1, σ·f = 1, f² = 0 and eᵢ² = −1."""
    return direct_sum(IntegralLattice([[1, 1], [1, 0]]), *[IntegralLattice([[-1]])] * n_exc)


def _enriques_lattice():
    """U ⊕ E8 ⊕ ⟨−1⟩, basis (f₁, f₂, E8 block, e)."""
    L, _, _, _, alphas = build_En_lattice(8)
    e8 = IntegralLattice(exact.gram_of(alphas, L.gram))
    return direct_sum(hyperbolic_plane(), e8, IntegralLattice([[-1]]))


# label: (Ỹ name, Ỹ lattice constructor, (D₁, …, D_k), [L], del Pezzo
# degrees of Z₁..Z_k); lattices are built in `build_stratum_model`, so an
# import builds none
_MODELS = {
    # h, ε₁..ε₁₀
    "rat11": ("Y~(1,1)", lambda: blowup_lattice(10),
              ((6,) + (-2,) * 9 + (-1,), (6,) + (-2,) * 8 + (-1, -2)),
              (9,) + (-3,) * 8 + (-2, -2), (1, 1)),
    # h, ε₁..ε₉, φ₁, φ₂
    "rat21": ("Y~(2,1)", lambda: blowup_lattice(11),
              ((6,) + (-2,) * 9 + (-1, -1), (3,) + (-1,) * 8 + (0, -1, -1)),
              (6,) + (-2,) * 8 + (-1, -1, -1), (2, 1)),
    # h, ε₁..ε₁₁, C
    "rat22": ("Y~(2,2)", lambda: blowup_lattice(12),
              ((4,) + (-1,) * 10 + (-2, -2), (3,) + (-1,) * 11 + (0,)),
              (4,) + (-1,) * 10 + (-2, -1), (2, 2)),
    # f₁, f₂, E8 block, e
    "enriques": ("Y~(Enriques)", _enriques_lattice,
                 ((1, 0) + (0,) * 8 + (-1,), (0, 1) + (0,) * 8 + (-1,)),
                 (1, 1) + (0,) * 8 + (-1,), (1, 1)),
    # σ, f, e₁, e₂, e₃
    "ell211": ("Y~(2,1,1)", lambda: _ruled_lattice(3),
               ((2, -1, 0, -1, -1), (1, 0, -1, -1, 0), (1, 0, -1, 0, -1)),
               (2, 0, -1, -1, -1), (2, 1, 1)),
    # σ, f, e₁, e₂
    "ell111": ("Y~(1,1,1)", lambda: _ruled_lattice(2),
               ((2, -1, -1, 0), (2, -1, 0, -1), (1, 0, -1, -1)),
               (3, -1, -1, -1), (1, 1, 1)),
}


@lru_cache(maxsize=None)
def build_stratum_model(label):
    """Explicit glued model for a stratum label from its row of `_MODELS`:
    K = [L] − ΣDᵢ on Ỹ, and Zᵢ = dP_{dᵢ} glued along Dᵢ; all invariants
    verified; cached."""
    if label not in _MODELS:
        raise ValueError(f"unknown stratum label {label!r}")
    name, lattice, curves, l_class, degrees = _MODELS[label]
    K = tuple(x - sum(col) for x, col in zip(l_class, zip(*curves)))
    yt = ComponentSurface(name, lattice(), K, dict(enumerate(curves, start=1)), l_class=l_class)
    zs = tuple(del_pezzo_surface(f"Z{i}=dP{d}", d, i) for i, d in enumerate(degrees, start=1))
    model = GluedBoundaryModel(
        stratum=label,
        y_tilde=yt,
        dp_components=zs,
        ambient=direct_sum(yt.lattice, *(z.lattice for z in zs)),
    )
    _validate_model(model)
    return model


def _validate_model(m):
    amb = m.ambient
    k = m.k
    # ξ₁..ξ_k isotropic and orthogonal to each other and to [L], and [L]² = 1
    corner = [[int(i == j == k) for j in range(k + 1)] for i in range(k + 1)]
    if exact.gram_of([*m.xi, m.l_total], amb.gram) != corner:
        raise exact.VerificationError("the Gram of ξ₁..ξ_k, [L] is not diag(0, …, 0, 1)")
    yt = m.y_tilde
    for i, d in yt.double_curves.items():
        if yt.lattice.pairing(yt.l_class, d) != 0:
            raise exact.VerificationError("[L]·Dᵢ ≠ 0 on Ỹ")
        mi = -yt.lattice.norm(d)
        z = m.dp_components[i - 1]
        if z.lattice.norm(z.double_curves[i]) != mi:
            raise exact.VerificationError("D′ᵢ² on Zᵢ ≠ mᵢ")
    if amb.rank - (2 * k + 1) != 24:
        raise exact.VerificationError("rank bookkeeping fails")
    # the ξ span is primitive
    facs = exact.invariant_factors(m.xi)
    if len(facs) != k or any(f != 1 for f in facs):
        raise exact.VerificationError("ξ span not primitive")


# ---------------------------------------------------------------------------
# Λ = {ξ, [L]}⊥ / Σℤξᵢ


@dataclass(frozen=True)
class LambdaLattice:
    lattice: IntegralLattice  # rank 24
    t_basis: tuple  # rows: basis of T = {ξ,[L]}⊥ in ambient coordinates
    t_inverse: tuple  # integer right inverse of t_basis: T coords = v·t_inverse
    lifts: tuple  # rows: coset lifts of the Λ basis, in ambient coordinates
    projection: tuple  # 24×rank(T): Λ coords of a T vector
    root_data: object  # RootDecomposition
    root_index: int  # [Λ : Λ_R]

    def ambient_to_lambda(self, v):
        """Λ coordinates of an ambient vector lying in {ξ,[L]}⊥ ∩ ℤ-span(T)."""
        t = exact.vec_mat(v, self.t_inverse)
        if exact.vec_mat(t, self.t_basis) != list(v):
            raise ValueError("vector does not lie in the complement lattice")
        return tuple(exact.mat_vec(self.projection, t))


@lru_cache(maxsize=None)
def compute_lambda(label):
    """Λ of a stratum with root decomposition and [Λ : Λ_R]; cached."""
    m = build_stratum_model(label)
    amb = m.ambient
    t_basis, t_inverse = orthogonal_complement(amb, [*m.xi, m.l_total])
    T = IntegralLattice(exact.gram_of(t_basis, amb.gram))
    # T is saturated, so its coordinates are read off an integer right inverse
    xi_t = exact.mat_mul(m.xi, t_inverse)
    if exact.mat_mul(xi_t, t_basis) != list(map(list, m.xi)):
        raise exact.VerificationError("ξ is not an integral vector of T")
    q = quotient_by_isotropic(T, xi_t)
    lam = q.lattice
    if lam.rank != 24:
        raise exact.VerificationError(f"Λ has rank {lam.rank}, not 24")
    roots = enumerate_roots(lam)
    dec = decompose_root_system(lam, roots)
    # Λ_R is spanned by the roots; for rank-24 root systems the simple
    # roots are a basis
    root_index = index_of_sublattice(lam, dec.all_simple_roots())
    return LambdaLattice(
        lattice=lam,
        t_basis=tuple(t_basis),
        t_inverse=tuple(map(tuple, t_inverse)),
        lifts=tuple(map(tuple, exact.mat_mul(q.lifts, t_basis))),
        projection=q.projection,
        root_data=dec,
        root_index=root_index,
    )


def lambda_predicates(label):
    lam = compute_lambda(label).lattice
    is_even, is_unimod, disc, _ = lattice_predicates(lam)
    return {
        "rank": lam.rank,
        "even": is_even,
        "unimodular": is_unimod,
        "negative_definite": is_negative_definite(lam),
    }


# ---------------------------------------------------------------------------
# JW₁ and its marked subtori


def compute_JW1(frame):
    """The markings JDᵢ = J(Im Nᵢ) → JW₁ = J(W₁) read off the monodromy
    frame: the 4×2 integer e-blocks Fᵢ of `monodromy.jw1_markings`, in the
    column convention.  The kernel orders of their pair sum maps are
    `monodromy.pair_indices`."""
    return jw1_markings(frame)


# ---------------------------------------------------------------------------
# restriction data and the extension map ψ


@dataclass(frozen=True)
class RestrictionData:
    """Line-bundle restriction recipe to each double curve.

    For each curve i: the del Pezzo side sends εⱼ ↦ pⱼ (and h ↦ 0), so a
    class v restricts to (v·D′ᵢ, Σⱼ vⱼ pⱼ); the Ỹ side is a 2×rank(Ỹ)
    rational matrix constrained so that ψ kills every ξⱼ and [L].  Both are
    drawn as numerators over 97 and kept once, as two integer draw rows
    x = (Ỹ row, p₁, p₂, …) per curve; ψᵢ is linear in them (`_draw_maps`).
    """

    y_width: int  # rank(Ỹ): the z numerators start at this index of a draw row
    draws: tuple  # per curve: two int draw rows (Ỹ row, p₁, p₂, …)

    @property
    def z_points(self):
        """Per curve, pⱼ = (row₀[n + j], row₁[n + j]) / 97 as `TorusPoint`s, n = `y_width`."""
        n = self.y_width
        return tuple(
            tuple(TorusPoint((Fraction(a, 97), Fraction(b, 97))) for a, b in zip(r0[n:], r1[n:]))
            for r0, r1 in self.draws
        )


@lru_cache(maxsize=None)
def _draw_maps(label):
    """ψ as one integer linear map of the draws per curve i: (Gᵢ, d), Gᵢ a
    24×w integer matrix and d = 97·D, with row r of ψᵢ on Λ equal to
    Gᵢ·x_r/d mod ℤ² for the draw rows x_r = (Ỹ row, p₁, p₂, …).

    The Ỹ row is corrected on the pivot columns J of the constraint classes
    C = (D₁..D_k, L) so that r(Dⱼ) = 0 (j ≠ i), r(Dᵢ) = Σpⱼ (the K_{Zᵢ}
    restriction) and r(L) = 0, through S = D·(subᵀ)⁻¹ for the invertible
    block sub of C on J: one Smith form U·sub·V = diag(f) gives
    D·sub⁻¹ = V·diag(D/f)·U, with D the last invariant factor.  ψᵢ is minus
    the Ỹ side plus εⱼ ↦ pⱼ on Zᵢ, so for an ambient v the coefficient of
    ψᵢ(v) on Ỹ draw u is −D·vᵤ + Σⱼ (CᵀS)ᵤⱼ·v_{Jⱼ}, and on pₘ it is
    D·v_{pₘ} − Σⱼ Sᵢⱼ·v_{Jⱼ}; on the rows of `lifts` these are Gᵢ.  The same
    coefficients of every ξⱼ and of [L] are certified ≡ 0 mod d, so ψ kills
    them for every draw; cached, so this runs once per label."""
    model = build_stratum_model(label)
    yt = model.y_tilde
    n = yt.lattice.rank
    classes = [yt.double_curves[i + 1] for i in range(model.k)] + [yt.l_class]
    cols = exact.pivot_columns(classes)
    if len(cols) < len(classes):
        raise ValueError("constraint classes are rank deficient")
    u, facs, v, _ = exact.smith_normal_form([[row[t] for t in cols] for row in classes])
    den = facs[-1]
    scaled_u = [[x * (den // f) for x in row] for row, f in zip(u, facs)]
    S = exact.transpose(exact.mat_mul(v, scaled_u))
    CtS = exact.mat_mul(exact.transpose(classes), S)
    d = 97 * den
    lifts = compute_lambda(label).lifts
    maps, off = [], n
    for i, z in enumerate(model.dp_components):
        ps = range(off + 1, off + z.lattice.rank)
        off += z.lattice.rank

        def coeffs(a):
            a_j = [a[t] for t in cols]
            s_i = sum(x * y for x, y in zip(S[i], a_j))
            y_part = [c - den * x for c, x in zip(exact.mat_vec(CtS, a_j), a)]
            return y_part + [den * a[t] - s_i for t in ps]

        if any(c % d for x in model.xi for c in coeffs(x)):
            raise exact.VerificationError("ψ does not kill ξ")
        if any(c % d for c in coeffs(model.l_total)):
            raise exact.VerificationError("ψ does not kill [L]")
        maps.append((tuple(tuple(coeffs(a)) for a in lifts), d))
    return tuple(maps)


@lru_cache(maxsize=None)
def psi_summands(label):
    """The summands ψ is read on, as (label, simple roots in Λ coordinates):
    the root components of Λ, or on ell111 the κ⊥ bases of the three dP1
    components, in the exceptional-basis order that keys the stored ψ
    values directly to the period map; cached."""
    lam = compute_lambda(label)
    if label == "ell111":
        model = build_stratum_model(label)
        return tuple(
            ("E8", tuple(lam.ambient_to_lambda(r) for r in model.dp_root_basis(i)))
            for i in range(model.k)
        )
    return tuple((lbl, tuple(map(tuple, simples))) for lbl, simples in lam.root_data.components)


@lru_cache(maxsize=None)
def _generic_pattern(label):
    """Per curve i, the summands on which ψᵢ is not identically zero mod ℤ²
    as a function of the draws; each as the draw-coefficient vectors s·Gᵢ
    of its simple roots s that ψᵢ does not kill identically.  ψᵢ(s) is the
    integer linear form (s·Gᵢ)·x in the draws over d, so it is identically
    zero exactly when each coefficient is ≡ 0 mod d.  A simple root has few
    nonzero Λ coordinates, so s·Gᵢ sums only the rows of Gᵢ they select."""
    pattern = []
    for g, d in _draw_maps(label):
        forms = (
            (tuple(map(sum, zip(*([c * x for x in g[q]] for q, c in enumerate(s) if c))))
             for s in simples)
            for _, simples in psi_summands(label)
        )
        live = (tuple(f for f in group if any(x % d for x in f)) for group in forms)
        pattern.append(tuple(group for group in live if group))
    return tuple(pattern)


# a draw is not generic with probability about 97⁻², so this many in a row is a bug
_MAX_DRAWS = 100


def generate_restriction_data(model, seed):
    """Seeded generic restriction data with the ψ constraints built in.  The
    draws are numerators over 97, so each ψᵢ is integer rows over 97·D.

    Generic means: ψᵢ is nonzero mod ℤ² on every summand where it is not
    identically zero as a function of the draws, so the ψ block structure is
    the stratum's.  A draw that is not generic is drawn again from the same
    random stream, which keeps every generic first draw."""
    rng = random.Random(seed)
    n = model.y_tilde.lattice.rank
    maps = _draw_maps(model.stratum)
    pattern = _generic_pattern(model.stratum)
    for _ in range(_MAX_DRAWS):
        # the z numerators x₁, y₁, x₂, y₂, … of all curves first, then two Ỹ rows per curve
        z_nums = [[rng.randrange(97) for _ in range(2 * z.lattice.rank - 2)]
                  for z in model.dp_components]
        draws = [tuple(tuple([rng.randrange(97) for _ in range(n)] + xy[r::2]) for r in range(2))
                 for xy in z_nums]
        # ψᵢ nonzero mod ℤ² on some live root of each of its live summands
        if all(
            any(sum(a * b for a, b in zip(f, x)) % d for f in group for x in rows)
            for rows, groups, (_, d) in zip(draws, pattern, maps)
            for group in groups
        ):
            break
    else:
        raise exact.VerificationError(f"no generic restriction data in {_MAX_DRAWS} draws")
    return RestrictionData(y_width=n, draws=tuple(draws))


def extension_map(model, restriction):
    """ψ on Λ coordinates: one (Mᵢ, dᵢ) per curve, Mᵢ a 2×24 integer matrix
    with ψᵢ(λ) = Mᵢλ/dᵢ mod ℤ², row r of Mᵢ being Gᵢ·x_r for the draw rows
    x_r of `restriction`.  That ψ kills ξⱼ and [L] for every draw is
    certified once per label by `_draw_maps`."""
    return tuple(
        (tuple(tuple(exact.mat_vec(g, x)) for x in rows), d)
        for (g, d), rows in zip(_draw_maps(model.stratum), restriction.draws)
    )


# ---------------------------------------------------------------------------
# the (2,2) stratum specials


def rat22_class_solve():
    """The (a, b) solving the degree/self-intersection constraints
    3a + b = 10, (class)² = 2, and the resulting pre-blowdown class
    a·h − Σ₁¹⁰εᵢ + b·ε₁₁ (integer solution is unique)."""
    sols = []
    for a in range(-20, 21):
        b = 10 - 3 * a
        if a * a - 10 - b * b == 2:
            sols.append((a, b))
    if sols != [(4, -2)]:
        raise exact.VerificationError(f"rat22 class constraints solved by {sols}")
    a, b = sols[0]
    cls = (a,) + (-1,) * 10 + (b, 0)  # h, ε₁..ε₁₁, C
    return a, b, cls


def construct_beta11(lam=None):
    """The distinguished class β₁₁ ∈ Λ of the (2,2) stratum.

    β₁₁ is the unique vector pairing δ_{j,9} with the D₁₀ simple roots and
    δ_{j,7} with one E₇ (zero on the other); integrality selects which E₇
    and which D₁₀ leaf weight (the leaf swap is the outer automorphism).
    Returns (β₁₁, coset order of β₁₁ in Λ/Λ_R).
    """
    if lam is None:
        lam = compute_lambda("rat22")
    dec = lam.root_data
    labels = [c[0] for c in dec.components]
    if labels != ["E7", "E7", "D10"]:
        raise ValueError("β₁₁ requires root decomposition E7+E7+D10")
    L = lam.lattice
    # the pairing rows of the simple roots: E₇ at 0..6 and 7..13, D₁₀ at 14..23
    rows = exact.mat_mul(dec.all_simple_roots(), L.gram)
    for e7_idx in (0, 1):
        for leaf in (9, 10):
            rhs = [0] * len(rows)
            rhs[7 * e7_idx + 6] = rhs[13 + leaf] = 1
            x = exact.solve_unique(rows, rhs)
            if x is None:
                continue
            if all(f.denominator == 1 for f in x):
                beta = tuple(int(f) for f in x)
                if L.norm(beta) != -4:
                    raise exact.VerificationError("β₁₁² ≠ −4")
                order = _coset_order(lam, beta)
                return beta, order
    raise ValueError("no integral β₁₁ for any labeling choice")


def _coset_order(lam, v):
    """Order of v + Λ_R in Λ/Λ_R (lcm of denominators over the root basis)."""
    x = exact.solve_unique(exact.transpose(lam.root_data.all_simple_roots()), v)
    if x is None:
        raise exact.VerificationError("vector is not in the span of the simple roots")
    return lcm(*(f.denominator for f in x))


def beta11_weight_crosscheck(lam=None):
    """ϖ₇(E₇)² + ϖ₉(D₁₀)² = −3/2 − 5/2 = −4 from inverse Cartan data."""
    if lam is None:
        lam = compute_lambda("rat22")
    dec = lam.root_data
    w7 = fundamental_weight(dec, 0, 7)
    w9 = fundamental_weight(dec, 2, 9)
    return weight_self_pairing(dec, w7) + weight_self_pairing(dec, w9)


# ---------------------------------------------------------------------------
# explicit E8 completions (the mixed summands of rat21 and ell211)


def completed_E8_roots(model):
    """Simple roots of the three E₈ summands in ambient coordinates.

    For rat21: Z₂'s κ⊥ E₈; the pure-Ỹ E₈ on ε₁..ε₈; and the E₈ completing
    Z₁'s E₇ by β = ε + ε′ with ε = −(3h−Σ₁⁸εᵢ)+ε₉+φ₁ on Ỹ and ε′ the first
    exceptional class of Z₁.  For ell211: Z₂'s and Z₃'s κ⊥ E₈s and the E₈
    completing Z₁'s E₇ by β = ε + ε′ with ε = −σ + f.  Every returned root
    lies in {ξ,[L]}⊥ and has square −2.
    """
    label = model.stratum
    if label not in ("rat21", "ell211"):
        raise ValueError("completed_E8_roots defined for rat21 and ell211 only")

    def e7_completion(eps_y):
        # Z₁ is a dP2: its κ⊥ is an E₇; β = ε + ε′ attaches a node
        e7 = model.dp_root_basis(0)
        eps_z = model.embed_z(0, (0, 1, 0, 0, 0, 0, 0, 0))
        beta = tuple(a + b for a, b in zip(model.embed_y(eps_y), eps_z))
        return [beta] + e7

    if label == "rat21":
        yr = model.y_tilde.lattice.rank  # 12; basis h, ε₁..ε₉, φ₁, φ₂
        pure = []
        for i in range(1, 8):
            v = [0] * yr
            v[i + 1], v[i] = 1, -1
            pure.append(model.embed_y(v))
        v = [0] * yr
        v[0] = 1
        v[1] = v[2] = v[3] = -1
        pure.append(model.embed_y(v))
        eps_y = tuple([-3] + [1] * 8 + [1, 1, 0])  # −3h + Σ₁⁸εᵢ + ε₉ + φ₁
        groups = [model.dp_root_basis(1), pure, e7_completion(eps_y)]
    else:
        eps_y = (-1, 1, 0, 0, 0)  # −σ + f
        groups = [model.dp_root_basis(1), model.dp_root_basis(2), e7_completion(eps_y)]
    amb = model.ambient
    span = [*model.xi, model.l_total]
    for grp in groups:
        for r in grp:
            if amb.norm(r) != -2:
                raise exact.VerificationError("summand basis vector is not a root")
            if any(amb.pairing(r, s) != 0 for s in span):
                raise exact.VerificationError("summand root not orthogonal to ξ and [L]")
    return groups
