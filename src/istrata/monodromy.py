"""Picard–Lefschetz operators on an explicit U⁴ frame.

The vanishing cycles α̃ᵢ, β̃ᵢ of a one-parameter degeneration span an
isotropic rank-4 sublattice W₁ of a rank-8 model U⁴ (the remaining rank-24
cohomology is orthogonal and killed by every Nᵢ, so it is omitted here).
Basis order is (e₁, e₂, e₃, e₄, f₁, f₂, f₃, f₄) with eᵢ·fᵢ = 1; all cycles
live in the e-span, so W₁ is the first four coordinates.  The markings
JDᵢ = J(Im Nᵢ) → JW₁ = J(W₁) and their pair indices are read off the cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from . import exact


def _comb(*terms):
    v = [0] * 8
    for c, i in terms:
        v[i] += c
    return tuple(v)


# Gram of U⁴: eᵢ·fᵢ = 1, every other basis pairing 0
U4_GRAM = tuple(tuple(int(abs(s - t) == 4) for t in range(8)) for s in range(8))

# W₁ = (ℚ-span of the cycles) ∩ ℤ⁸ is e₁..e₄ in every frame (_check_frame)
W1_BASIS = tuple(_comb((1, i)) for i in range(4))


@dataclass(frozen=True)
class MonodromyFrame:
    label: str
    alphas: tuple  # α̃₁..α̃_k
    betas: tuple  # β̃₁..β̃_k

    @property
    def k(self):
        return len(self.alphas)

    def cycles(self):
        out = []
        for a, b in zip(self.alphas, self.betas):
            out.extend([a, b])
        return out


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


@lru_cache(maxsize=None)
def build_frame(label):
    """Monodromy frame for a stratum label (or one of the four frame kinds
    'rational', 'enriques', 'ell111', 'ell211' directly); certified once and
    cached."""
    kind = _STRATUM_FRAME.get(label, label)
    if kind not in _FRAME_CYCLES:
        raise ValueError(f"unknown frame label {label!r}")
    alphas, betas = _FRAME_CYCLES[kind]
    frame = MonodromyFrame(label=kind, alphas=tuple(alphas), betas=tuple(betas))
    _check_frame(frame)
    return frame


def _check_frame(frame):
    """Certify W₁ = ⟨e₁..e₄⟩, isotropic, as the saturated span of the cycles.

    Every cycle has zero f-coordinates, so it lies in the coordinate (hence
    primitive) sublattice W1_BASIS spans; the e-block of (α̃₁, β̃₁, α̃₂, β̃₂)
    is invertible, so those four span it over ℚ.
    """
    if any(map(any, exact.gram_of(W1_BASIS, U4_GRAM))):
        raise exact.VerificationError("W1 is not isotropic")
    if any(any(c[4:]) for c in frame.cycles()):
        raise exact.VerificationError("a cycle has a nonzero f-part: it is not in W1")
    four = [frame.alphas[0], frame.betas[0], frame.alphas[1], frame.betas[1]]
    if exact.det_bareiss([v[:4] for v in four]) == 0:
        raise exact.VerificationError("α̃₁, β̃₁, α̃₂, β̃₂ do not span W1 over ℚ")
    if frame.label == "ell111":
        a1, a2, a3 = frame.alphas
        b1, b2, b3 = frame.betas
        if list(a3) != [2 * x + y for x, y in zip(a1, a2)]:
            raise exact.VerificationError("α₃ ≠ 2α₁ + α₂ on the ell111 frame")
        if list(b3) != [x + 2 * y for x, y in zip(b1, b2)]:
            raise exact.VerificationError("β₃ ≠ β₁ + 2β₂ on the ell111 frame")


# ---------------------------------------------------------------------------
# operators


def picard_lefschetz(frame, i):
    """Nᵢ(ξ) = ⟨ξ, β̃ᵢ⟩α̃ᵢ − ⟨ξ, α̃ᵢ⟩β̃ᵢ as an 8×8 integer matrix (column
    convention, a tuple of rows)."""
    if not 1 <= i <= frame.k:
        raise ValueError("pair index out of range")
    a = frame.alphas[i - 1]
    b = frame.betas[i - 1]
    ga = exact.mat_vec(U4_GRAM, a)
    gb = exact.mat_vec(U4_GRAM, b)
    return tuple(tuple(a[s] * gb[t] - b[s] * ga[t] for t in range(8)) for s in range(8))


def operator_sum(ops):
    """ΣNᵢ of integer operator matrices."""
    return tuple(tuple(map(sum, zip(*rows))) for rows in zip(*ops))


def weight_data(N):
    """Rank of Im N.  Requires N² = 0, which already gives Im N ⊆ Ker N."""
    if any(any(row) for row in exact.mat_mul(N, N)):
        raise ValueError("operator does not square to zero")
    return len(exact.invariant_factors(N))


def primitivity_certificate(frame):
    """SNF certificate that {ΣλᵢNᵢ} is a primitive subgroup of End.

    Stacks the flattened Nᵢ matrices as the columns of a 64×k integer matrix;
    the span is primitive iff all k invariant factors equal 1.
    """
    ops = [picard_lefschetz(frame, i) for i in range(1, frame.k + 1)]
    cols = [[x for row in op for x in row] for op in ops]
    a = exact.transpose(cols)
    facs = exact.invariant_factors(a)
    is_primitive = len(facs) == frame.k and all(f == 1 for f in facs)
    return is_primitive, facs


def jw1_markings(frame):
    """The marking JDᵢ = J(Im Nᵢ) → JW₁ = J(W₁) of each curve: Fᵢ, the e-block
    of (α̃ᵢ | β̃ᵢ), as a 4×2 integer matrix (column convention)."""
    return tuple(tuple(zip(a[:4], b[:4])) for a, b in zip(frame.alphas, frame.betas))


def pair_indices(frame):
    """((i, j), [W₁ : Im Nᵢ + Im Nⱼ]) for each pair i < j, in ``combinations``
    order; the index is also the kernel order of JDᵢ ⊕ JDⱼ → JW₁.

    Every cycle lies in W₁ = ⟨e₁..e₄⟩ (``_check_frame``), so the index is
    |det(Fᵢ | Fⱼ)|.  A nonzero determinant also certifies each marking Fᵢ
    injective.
    """
    fs = jw1_markings(frame)
    out = []
    for i, j in combinations(range(frame.k), 2):
        det = exact.det_bareiss([r + t for r, t in zip(fs[i], fs[j])])
        if det == 0:
            raise ValueError("Im Nᵢ + Im Nⱼ is not of rank 4")
        out.append(((i, j), abs(det)))
    return tuple(out)


def pair_index_pattern(frame):
    """Sorted list of the indices [W₁ : Im Nᵢ + Im Nⱼ] of ``pair_indices``."""
    if frame.k < 2:
        raise ValueError("pattern needs k ≥ 2")
    return sorted(idx for _, idx in pair_indices(frame))
