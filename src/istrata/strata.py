"""The six boundary-stratum models and their Hodge-theoretic invariants.

Each model is pure lattice-and-class data for a normal crossing surface
X₀ = Ỹ ⨿_{Dᵢ} (⨿ Zᵢ): the H² lattice of the minimal resolution Ỹ with its
double-curve classes Dᵢ and limit canonical class L, glued to del Pezzo
components Zᵢ along anticanonical curves.  From this the module computes
the rank-24 graded piece Λ = {ξ₁..ξ_k, [L]}⊥ / Σℤξᵢ, the markings of JW₁
read off the monodromy frame, the Carlson extension map ψ on seeded
generic restriction data, and the distinguished class β₁₁ of the (2,2)
stratum.  Models and Λ are built once per label.  ψ is plain data: per
curve an integer 2×24 matrix Mᵢ on Λ coordinates and a denominator dᵢ,
with ψᵢ(λ) = Mᵢλ/dᵢ mod ℤ².
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from . import exact
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

STRATUM_LABELS = ("rat11", "rat21", "rat22", "enriques", "ell211", "ell111")


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
        if self.l_class is not None:
            total = list(self.canonical_class)
            for d in self.double_curves.values():
                total = exact.vec_add(total, list(d))
            if tuple(total) != tuple(self.l_class):
                raise ValueError(f"{self.name}: [L] ≠ K + ΣDᵢ")


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


def _e8_root_gram():
    L, h, eps, kappa, alphas = build_En_lattice(8)
    return [[L.pairing(a, b) for b in alphas] for a in alphas]


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


def _rat_basis_class(rank, h=0, eps=()):
    """Class a·h + Σ bⱼ vⱼ for diag(1,−1^{rank−1}) bases.

    `eps` is a list of (position, coeff): εⱼ sits at position j, and the
    basis vectors after the ε block at their own positions.
    """
    v = [0] * rank
    v[0] = h
    for j, c in eps:
        v[j] = c
    return tuple(v)


def _build_rat21():
    rank = 12  # h, ε₁..ε₉, φ₁, φ₂
    L = blowup_lattice(11)
    phis = [(10, -1), (11, -1)]  # −φ₁ − φ₂
    d1 = _rat_basis_class(rank, h=6, eps=[(j, -2) for j in range(1, 10)] + phis)
    d2 = _rat_basis_class(rank, h=3, eps=[(j, -1) for j in range(1, 9)] + phis)
    l = _rat_basis_class(rank, h=6,
                         eps=[(j, -2) for j in range(1, 9)] + [(9, -1)] + phis)
    K = tuple(a - b - c for a, b, c in zip(l, d1, d2))
    yt = ComponentSurface("Y~(2,1)", L, K, {1: d1, 2: d2}, l_class=l)
    zs = (del_pezzo_surface("Z1=dP2", 2, 1), del_pezzo_surface("Z2=dP1", 1, 2))
    return yt, zs


def _build_rat22():
    rank = 13  # h, ε₁..ε₁₁, C
    L = blowup_lattice(12)
    C = 12
    d2 = _rat_basis_class(rank, h=3, eps=[(j, -1) for j in range(1, 12)])
    d1 = _rat_basis_class(rank, h=4,
                          eps=[(j, -1) for j in range(1, 11)] + [(11, -2), (C, -2)])
    l = _rat_basis_class(rank, h=4,
                         eps=[(j, -1) for j in range(1, 11)] + [(11, -2), (C, -1)])
    K = tuple(a - b - c for a, b, c in zip(l, d1, d2))
    yt = ComponentSurface("Y~(2,2)", L, K, {1: d1, 2: d2}, l_class=l)
    zs = (del_pezzo_surface("Z1=dP2", 2, 1), del_pezzo_surface("Z2=dP2", 2, 2))
    return yt, zs


def _build_rat11():
    rank = 11  # h, ε₁..ε₁₀
    L = blowup_lattice(10)
    d1 = _rat_basis_class(rank, h=6,
                          eps=[(j, -2) for j in range(1, 10)] + [(10, -1)])
    d2 = _rat_basis_class(rank, h=6,
                          eps=[(j, -2) for j in range(1, 9)] + [(10, -2), (9, -1)])
    l = _rat_basis_class(rank, h=9,
                         eps=[(j, -3) for j in range(1, 9)] + [(9, -2), (10, -2)])
    K = tuple(a - b - c for a, b, c in zip(l, d1, d2))
    yt = ComponentSurface("Y~(1,1)", L, K, {1: d1, 2: d2}, l_class=l)
    zs = (del_pezzo_surface("Z1=dP1", 1, 1), del_pezzo_surface("Z2=dP1", 1, 2))
    return yt, zs


def _build_enriques():
    # U ⊕ E8 ⊕ ⟨−1⟩, basis (f₁, f₂, E8-block, e)
    L = direct_sum(hyperbolic_plane(), IntegralLattice(_e8_root_gram()),
                   IntegralLattice([[-1]]))
    E = 10
    K = tuple(1 if i == E else 0 for i in range(11))
    d1 = tuple((1 if i == 0 else 0) - (1 if i == E else 0) for i in range(11))
    d2 = tuple((1 if i == 1 else 0) - (1 if i == E else 0) for i in range(11))
    l = tuple((1 if i in (0, 1) else 0) - (1 if i == E else 0) for i in range(11))
    yt = ComponentSurface("Y~(Enriques)", L, K, {1: d1, 2: d2}, l_class=l)
    zs = (del_pezzo_surface("Z1=dP1", 1, 1), del_pezzo_surface("Z2=dP1", 1, 2))
    return yt, zs


def _ruled_gram(n_exc):
    # ⟨σ, f, e₁..e_n⟩ with σ²=1, σ·f=1, f²=0, eᵢ²=−1
    n = 2 + n_exc
    g = [[0] * n for _ in range(n)]
    g[0][0] = 1
    g[0][1] = g[1][0] = 1
    for i in range(2, n):
        g[i][i] = -1
    return IntegralLattice(g)


def _build_ell111():
    L = _ruled_gram(2)  # σ, f, e₁, e₂
    d1 = (2, -1, -1, 0)
    d2 = (2, -1, 0, -1)
    d3 = (1, 0, -1, -1)
    l = (3, -1, -1, -1)
    K = (-2, 1, 1, 1)
    yt = ComponentSurface("Y~(1,1,1)", L, K, {1: d1, 2: d2, 3: d3}, l_class=l)
    zs = tuple(del_pezzo_surface(f"Z{i}=dP1", 1, i) for i in (1, 2, 3))
    return yt, zs


def _build_ell211():
    L = _ruled_gram(3)  # σ, f, e₁, e₂, e₃
    d1 = (2, -1, 0, -1, -1)
    d2 = (1, 0, -1, -1, 0)
    d3 = (1, 0, -1, 0, -1)
    l = (2, 0, -1, -1, -1)
    K = (-2, 1, 1, 1, 1)
    yt = ComponentSurface("Y~(2,1,1)", L, K, {1: d1, 2: d2, 3: d3}, l_class=l)
    zs = (
        del_pezzo_surface("Z1=dP2", 2, 1),
        del_pezzo_surface("Z2=dP1", 1, 2),
        del_pezzo_surface("Z3=dP1", 1, 3),
    )
    return yt, zs


_BUILDERS = {
    "rat21": _build_rat21,
    "rat22": _build_rat22,
    "rat11": _build_rat11,
    "enriques": _build_enriques,
    "ell111": _build_ell111,
    "ell211": _build_ell211,
}


@lru_cache(maxsize=None)
def build_stratum_model(label):
    """Explicit glued model for a stratum label; all invariants verified;
    cached."""
    if label not in _BUILDERS:
        raise ValueError(f"unknown stratum label {label!r}")
    yt, zs = _BUILDERS[label]()
    model = GluedBoundaryModel(
        stratum=label,
        y_tilde=yt,
        dp_components=tuple(zs),
        ambient=direct_sum(yt.lattice, *(z.lattice for z in zs)),
    )
    _validate_model(model)
    return model


def _validate_model(m):
    amb = m.ambient
    k = m.k
    for i, x in enumerate(m.xi):
        if amb.norm(x) != 0:
            raise exact.VerificationError("ξᵢ not isotropic")
        if amb.pairing(x, m.l_total) != 0:
            raise exact.VerificationError("ξᵢ·[L] ≠ 0")
        for y in m.xi[i + 1:]:
            if amb.pairing(x, y) != 0:
                raise exact.VerificationError("ξᵢ·ξⱼ ≠ 0")
    if amb.norm(m.l_total) != 1:
        raise exact.VerificationError("[L]² ≠ 1")
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
    facs = exact.invariant_factors([list(x) for x in m.xi])
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
    span = [list(x) for x in m.xi] + [list(m.l_total)]
    t_rows, t_inverse = orthogonal_complement(amb, span)
    t_basis = [list(r) for r in t_rows]
    t_gram = [[amb.pairing(a, b) for b in t_basis] for a in t_basis]
    T = IntegralLattice(t_gram)
    # T is saturated, so its coordinates are read off an integer right inverse
    xi_t = [exact.vec_mat(x, t_inverse) for x in m.xi]
    for x, c in zip(m.xi, xi_t):
        if exact.vec_mat(c, t_basis) != list(x):
            raise exact.VerificationError("ξ is not an integral vector of T")
    q = quotient_by_isotropic(T, xi_t)
    lam = q.lattice
    if lam.rank != 24:
        raise exact.VerificationError(f"Λ has rank {lam.rank}, not 24")
    roots = enumerate_roots(lam)
    dec = decompose_root_system(lam, roots)
    simples = [list(r) for r in dec.all_simple_roots()]
    # Λ_R is spanned by the roots; for rank-24 root systems the simple
    # roots are a basis
    root_index = index_of_sublattice(lam, simples)
    return LambdaLattice(
        lattice=lam,
        t_basis=tuple(map(tuple, t_basis)),
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
    rational matrix constrained so that ψ kills every ξⱼ and [L].  ψᵢ is
    the Zᵢ side minus the Ỹ side, stored as (Nᵢ, dᵢ): a 2×rank(ambient)
    integer matrix over one denominator, ψᵢ = Nᵢ/dᵢ.
    """

    z_points: tuple  # per curve: tuple of TorusPoint (one per εⱼ of Zᵢ)
    psi_matrices: tuple  # per curve: (2×rank(ambient) int rows Nᵢ, dᵢ)


@lru_cache(maxsize=None)
def _constraint_columns(label):
    """(C, J, S, D): the Ỹ constraint classes C = (D₁..D_k, L) of a stratum,
    their pivot columns J, and the inverse transpose of their invertible
    (k+1)×(k+1) block sub on J as the integer S = D·(subᵀ)⁻¹.  One Smith
    form U·sub·V = diag(f) gives D·sub⁻¹ = V·diag(D/f)·U, with D the last
    invariant factor."""
    model = build_stratum_model(label)
    yt = model.y_tilde
    classes = tuple(tuple(yt.double_curves[i + 1]) for i in range(model.k)) + (tuple(yt.l_class),)
    cols = exact.pivot_columns(classes)
    if len(cols) < len(classes):
        raise ValueError("constraint classes are rank deficient")
    u, facs, v, _ = exact.smith_normal_form([[row[t] for t in cols] for row in classes])
    scaled_u = [[x * (facs[-1] // f) for x in row] for row, f in zip(u, facs)]
    return classes, cols, exact.transpose(exact.mat_mul(v, scaled_u)), facs[-1]


def _psi_row(model, i, p, raw):
    """One integer row of ψᵢ over 97·D, linear in the draws: the numerators
    p = (0, p₁, …) on Zᵢ's basis and raw on Ỹ's.  The Ỹ row is raw with
    its constraint columns J corrected so that r(Dⱼ) = 0 (j ≠ i),
    r(Dᵢ) = Σpⱼ (the K_{Zᵢ} restriction) and r(L) = 0:
    Δ_J·subᵀ = target − raw·classesᵀ.  ψᵢ is minus the Ỹ side on Ỹ,
    εⱼ ↦ pⱼ on Zᵢ, zero elsewhere."""
    classes, cols, subt_inv, den = _constraint_columns(model.stratum)
    rhs = [(sum(p) if j == i else 0) - x for j, x in enumerate(exact.mat_vec(classes, raw))]
    row = [x * den for x in raw]
    for j, dx in zip(cols, exact.vec_mat(rhs, subt_inv)):  # Δ_J = rhs·(subᵀ)⁻¹
        row[j] += dx
    z_row = model.embed_z(i, [x * den for x in p])
    return tuple(-x for x in row) + z_row[len(raw):]


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
    as a function of the draws; each as the simple roots, in sparse ambient
    coordinates ((t, aₜ), …), that ψᵢ does not kill identically.  ψᵢ(a) is
    an integer linear form in the draws over dᵢ, so it is identically zero
    exactly when each draw's coefficient is ≡ 0 mod dᵢ."""
    model = build_stratum_model(label)
    lifts = compute_lambda(label).lifts
    n = model.y_tilde.lattice.rank
    d = 97 * _constraint_columns(label)[3]
    summands = [[_lift(s, lifts) for s in simples] for _, simples in psi_summands(label)]
    pattern = []
    for i, z in enumerate(model.dp_components):
        w = n + z.lattice.rank - 1  # draws per row: raw on Ỹ, then p₁, …
        units = [[int(t == u) for t in range(w)] for u in range(w)]
        forms = [_psi_row(model, i, [0] + e[n:], e[:n]) for e in units]
        live = (
            tuple(a for a in roots if any(sum(f[t] * x for t, x in a) % d for f in forms))
            for roots in summands
        )
        pattern.append(tuple(group for group in live if group))
    return tuple(pattern)


def _lift(s, lifts):
    """s·lifts in sparse form ((t, aₜ), …), summed from the rows of lifts
    that the sparse s uses."""
    rows = [[c * x for x in lifts[k]] for k, c in enumerate(s) if c]
    return tuple((t, x) for t, x in enumerate(map(sum, zip(*rows))) if x)


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
    d = 97 * _constraint_columns(model.stratum)[3]
    pattern = _generic_pattern(model.stratum)
    for _ in range(_MAX_DRAWS):
        z_nums = [
            [(rng.randrange(97), rng.randrange(97)) for _ in range(z.lattice.rank - 1)]
            for z in model.dp_components
        ]
        psi_matrices = []
        for i in range(model.k):
            raw = [[rng.randrange(97) for _ in range(n)] for _ in range(2)]
            rows = tuple(
                _psi_row(model, i, [0] + [xy[r] for xy in z_nums[i]], raw[r])
                for r in range(2)
            )
            psi_matrices.append((rows, d))
        # ψᵢ nonzero mod ℤ² on some live root of each of its live summands
        if all(
            any(sum(row[t] * x for t, x in a) % d for a in group for row in rows)
            for (rows, _), groups in zip(psi_matrices, pattern)
            for group in groups
        ):
            break
    else:
        raise exact.VerificationError(f"no generic restriction data in {_MAX_DRAWS} draws")
    z_points = tuple(
        tuple(TorusPoint((Fraction(a, 97), Fraction(b, 97))) for a, b in pts) for pts in z_nums
    )
    return RestrictionData(z_points=z_points, psi_matrices=tuple(psi_matrices))


def extension_map(model, lam, restriction):
    """ψ on Λ coordinates: one (Mᵢ, dᵢ) per curve, Mᵢ a 2×24 integer matrix
    with ψᵢ(λ) = Mᵢλ/dᵢ mod ℤ².  Verifies ψ(ξⱼ) = ψ([L]) = 0 identically."""
    psi = restriction.psi_matrices

    def kills(v):
        return all(t % d == 0 for n, d in psi for t in exact.mat_vec(n, v))

    if not all(kills(x) for x in model.xi):
        raise exact.VerificationError("ψ does not kill ξ")
    if not kills(model.l_total):
        raise exact.VerificationError("ψ does not kill [L]")
    # row r of Mᵢ = Nᵢ·liftsᵀ is lifts·(row r of Nᵢ)
    return tuple((tuple(tuple(exact.mat_vec(lam.lifts, row)) for row in n), d) for n, d in psi)


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
    cls = _rat_basis_class(13, h=a, eps=[(j, -1) for j in range(1, 11)] + [(11, b)])
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
    g = L.gram_lists()
    d10_idx = 2
    for e7_idx in (0, 1):
        for leaf in (9, 10):
            rows, rhs = [], []
            for ci, (_, simples) in enumerate(dec.components):
                for j, s in enumerate(simples, start=1):
                    rows.append(exact.vec_mat(list(s), g))
                    if ci == e7_idx and j == 7:
                        rhs.append(1)
                    elif ci == d10_idx and j == leaf:
                        rhs.append(1)
                    else:
                        rhs.append(0)
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
    simples = [list(s) for s in lam.root_data.all_simple_roots()]
    x = exact.solve_unique(exact.transpose(simples), list(v))
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
    span = [list(x) for x in model.xi] + [list(model.l_total)]
    for grp in groups:
        for r in grp:
            if amb.norm(r) != -2:
                raise exact.VerificationError("summand basis vector is not a root")
            if any(amb.pairing(r, s) != 0 for s in span):
                raise exact.VerificationError("summand root not orthogonal to ξ and [L]")
    return groups
