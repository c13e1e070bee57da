"""Picard–Lefschetz operators on an explicit U⁴ frame.

The vanishing cycles α̃ᵢ, β̃ᵢ of a one-parameter degeneration span an
isotropic rank-4 sublattice W₁ of a rank-8 model U⁴ (the remaining rank-24
cohomology is orthogonal and killed by every Nᵢ, so it is omitted here).
Basis order is (e₁, e₂, e₃, e₄, f₁, f₂, f₃, f₄) with eᵢ·fᵢ = 1; all cycles
live in the e-span, so W₁ is the first four coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from . import exact
from .lattices import IntegralLattice


def _u4_gram():
    g = [[0] * 8 for _ in range(8)]
    for i in range(4):
        g[i][4 + i] = g[4 + i][i] = 1
    return g


def _comb(*terms):
    v = [0] * 8
    for c, i in terms:
        v[i] += c
    return tuple(v)


# W₁ = (ℚ-span of the cycles) ∩ ℤ⁸ is e₁..e₄ in every frame (_check_frame)
W1_BASIS = tuple(_comb((1, i)) for i in range(4))


@dataclass(frozen=True)
class MonodromyFrame:
    label: str
    ambient: IntegralLattice
    alphas: tuple  # α̃₁..α̃_k
    betas: tuple  # β̃₁..β̃_k
    duals: tuple  # rational duals (α̃₁*, β̃₁*, α̃₂*, β̃₂*)

    @property
    def k(self):
        return len(self.alphas)

    def cycles(self):
        out = []
        for a, b in zip(self.alphas, self.betas):
            out.extend([a, b])
        return out

    def dual(self, name):
        idx = {"alpha1": 0, "beta1": 1, "alpha2": 2, "beta2": 3}[name]
        return self.duals[idx]


_FRAME_CYCLES = {
    # (alphas, betas) in e-coordinates; wᵢ = eᵢ
    "rational": (
        (_comb((1, 0)), _comb((1, 2))),
        (_comb((1, 1)), _comb((1, 3))),
    ),
    "enriques": (
        (_comb((1, 0)), _comb((1, 2))),
        (_comb((1, 1)), _comb((1, 1), (2, 3))),
    ),
    "ell111": (
        (_comb((1, 0)), _comb((1, 1)), _comb((2, 0), (1, 1))),
        (_comb((1, 2)), _comb((1, 3)), _comb((1, 2), (2, 3))),
    ),
    "ell211": (
        (_comb((1, 0)), _comb((2, 0), (-1, 1)), _comb((1, 1))),
        (_comb((1, 2), (-1, 3)), _comb((1, 2)), _comb((1, 3))),
    ),
}

_STRATUM_FRAME = {
    "rat11": "rational",
    "rat21": "rational",
    "rat22": "rational",
    "enriques": "enriques",
    "ell111": "ell111",
    "ell211": "ell211",
}


def build_frame(label):
    """Monodromy frame for a stratum label (or one of the four frame kinds
    'rational', 'enriques', 'ell111', 'ell211' directly)."""
    kind = _STRATUM_FRAME.get(label, label)
    if kind not in _FRAME_CYCLES:
        raise ValueError(f"unknown frame label {label!r}")
    alphas, betas = _FRAME_CYCLES[kind]
    ambient = IntegralLattice(_u4_gram())
    frame = MonodromyFrame(
        label=kind,
        ambient=ambient,
        alphas=tuple(alphas),
        betas=tuple(betas),
        duals=_duals(ambient, alphas, betas),
    )
    _check_frame(frame)
    return frame


def _duals(ambient, alphas, betas):
    """Rational duals of (α̃₁, β̃₁, α̃₂, β̃₂) supported on the f-span.

    The four cycles are ℚ-independent in every frame; a dual x = Σ cⱼ fⱼ
    satisfies ⟨x, eⱼ⟩ = cⱼ, so the coefficient rows are (Cᵀ)⁻¹ for C the
    cycle matrix in e-coordinates.
    """
    four = [alphas[0], betas[0], alphas[1], betas[1]]
    cinv = exact.rational_inverse([list(v[:4]) for v in four])
    zero = (Fraction(0),) * 4
    return tuple(zero + col for col in zip(*cinv))


def _check_frame(frame):
    """Certify W₁ = ⟨e₁..e₄⟩, isotropic, as the saturated span of the cycles.

    Every cycle has zero f-coordinates, so it lies in the coordinate (hence
    primitive) sublattice W1_BASIS spans; the e-block of (α̃₁, β̃₁, α̃₂, β̃₂)
    is invertible, so those four span it over ℚ.
    """
    g = frame.ambient.gram_lists()
    if any(exact.dot_gram(list(a), g, list(b)) for a in W1_BASIS for b in W1_BASIS):
        raise exact.VerificationError("W1 is not isotropic")
    if any(any(c[4:]) for c in frame.cycles()):
        raise exact.VerificationError("a cycle has a nonzero f-part: it is not in W1")
    four = [frame.alphas[0], frame.betas[0], frame.alphas[1], frame.betas[1]]
    if exact.det_bareiss([list(v[:4]) for v in four]) == 0:
        raise exact.VerificationError("α̃₁, β̃₁, α̃₂, β̃₂ do not span W1 over ℚ")
    if frame.label == "ell111":
        a1, a2, a3 = frame.alphas
        b1, b2, b3 = frame.betas
        if list(a3) != exact.vec_add(exact.vec_scale(2, list(a1)), list(a2)):
            raise exact.VerificationError("α₃ ≠ 2α₁ + α₂ on the ell111 frame")
        if list(b3) != exact.vec_add(list(b1), exact.vec_scale(2, list(b2))):
            raise exact.VerificationError("β₃ ≠ β₁ + 2β₂ on the ell111 frame")


# ---------------------------------------------------------------------------
# operators


@dataclass(frozen=True)
class MonodromyOperator:
    matrix: tuple  # 8×8 integer matrix, column convention

    def apply(self, x):
        return tuple(exact.mat_vec(self.matrix, x))

    def __call__(self, x):
        return self.apply(x)


def picard_lefschetz(frame, i):
    """Nᵢ(ξ) = ⟨ξ, β̃ᵢ⟩α̃ᵢ − ⟨ξ, α̃ᵢ⟩β̃ᵢ as an integer matrix."""
    if not 1 <= i <= frame.k:
        raise ValueError("pair index out of range")
    a = list(frame.alphas[i - 1])
    b = list(frame.betas[i - 1])
    g = frame.ambient.gram_lists()
    ga = exact.mat_vec(g, a)
    gb = exact.mat_vec(g, b)
    n = 8
    m = [[a[s] * gb[t] - b[s] * ga[t] for t in range(n)] for s in range(n)]
    return MonodromyOperator(matrix=tuple(tuple(r) for r in m))


def operator_sum(ops, coeffs=None):
    """Σ λᵢ Nᵢ with integer coefficients (default all 1)."""
    if coeffs is None:
        coeffs = [1] * len(ops)
    n = len(ops[0].matrix)
    m = [[0] * n for _ in range(n)]
    for c, op in zip(coeffs, ops):
        for s in range(n):
            for t in range(n):
                m[s][t] += c * op.matrix[s][t]
    return MonodromyOperator(matrix=tuple(tuple(r) for r in m))


def weight_data(N):
    """(saturated image basis, kernel basis, rank, image_was_saturated).

    Requires N² = 0; verifies Im ⊆ Ker.
    """
    m = [list(r) for r in N.matrix]
    if any(any(x for x in row) for row in exact.mat_mul(m, m)):
        raise ValueError("operator does not square to zero")
    cols = exact.transpose(m)
    nonzero = [c for c in cols if not exact.is_zero_vector(c)]
    _, facs, _, w = exact.smith_normal_form(nonzero)
    im = w[:len(facs)]
    was_saturated = all(f == 1 for f in facs)
    ker = exact.integer_kernel(m)
    for v in im:
        if not exact.is_zero_vector(exact.mat_vec(m, v)):
            raise exact.VerificationError("Im not inside Ker")
    return im, ker, len(im), was_saturated


def primitivity_certificate(frame):
    """SNF certificate that {ΣλᵢNᵢ} is a primitive subgroup of End.

    Stacks the flattened Nᵢ matrices as the columns of a 64×k integer matrix;
    the span is primitive iff all k invariant factors equal 1.
    """
    ops = [picard_lefschetz(frame, i) for i in range(1, frame.k + 1)]
    cols = [[x for row in op.matrix for x in row] for op in ops]
    a = exact.transpose(cols)
    facs = exact.invariant_factors(a)
    is_primitive = len(facs) == frame.k and all(f == 1 for f in facs)
    return is_primitive, facs


def pair_index_pattern(frame):
    """Sorted list of indices [W₁ : Im Nᵢ + Im Nⱼ] over unordered pairs.

    W₁ is primitive of rank 4 (``_check_frame``), so a rank-4 span inside it
    has index equal to the product of its invariant factors in ℤ⁸.
    """
    if frame.k < 2:
        raise ValueError("pattern needs k ≥ 2")
    out = []
    for i in range(frame.k):
        for j in range(i + 1, frame.k):
            span = [
                list(frame.alphas[i]), list(frame.betas[i]),
                list(frame.alphas[j]), list(frame.betas[j]),
            ]
            facs = exact.invariant_factors(span)
            if len(facs) != 4:
                raise ValueError("Im Nᵢ + Im Nⱼ is not of rank 4")
            out.append(prod(facs))
    return sorted(out)
