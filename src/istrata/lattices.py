"""Integral quadratic lattices: predicates, complements, quotients, signatures.

A lattice is stored as a rank and a symmetric integer Gram matrix; vectors
are integer coordinate tuples in the implicit basis.  This is the calculus
that every other module consumes: Λ, Λ_R, the E_n lattices, U, the H² lattices
of the boundary models all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from . import exact
from .exact import invariant_factors


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """⊕ ℤ/dᵢ with d₁ | d₂ | …; the trivial group is the empty list."""

    invariant_factors: tuple

    def __post_init__(self):
        facs = tuple(int(d) for d in self.invariant_factors if d != 1)
        object.__setattr__(self, "invariant_factors", facs)
        for a, b in zip(facs, facs[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        if any(d < 2 for d in facs):
            raise ValueError("invariant factors must be ≥ 2")

    @property
    def order(self):
        return prod(self.invariant_factors)


@dataclass(frozen=True)
class IntegralLattice:
    """Rank + symmetric integer Gram matrix; vectors are coordinate tuples."""

    gram: tuple

    def __post_init__(self):
        g = tuple(
            tuple(row) if all(type(x) is int for x in row) else tuple(map(exact.as_int, row))
            for row in self.gram
        )
        object.__setattr__(self, "gram", g)
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("Gram matrix must be symmetric")

    @property
    def rank(self):
        return len(self.gram)

    def pairing(self, u, v):
        return exact.dot_gram(u, self.gram, v)

    def norm(self, v):
        return self.pairing(v, v)


def direct_sum(*lattices):
    """Orthogonal direct sum."""
    n = sum(L.rank for L in lattices)
    g = [[0] * n for _ in range(n)]
    off = 0
    for L in lattices:
        for i in range(L.rank):
            for j in range(L.rank):
                g[off + i][off + j] = L.gram[i][j]
        off += L.rank
    return IntegralLattice(g)


def hyperbolic_plane():
    """The even unimodular lattice U."""
    return IntegralLattice([[0, 1], [1, 0]])


def blowup_lattice(n):
    """I₁,ₙ = diag(1, −1ⁿ): H² of ℙ² blown up at n points, basis ⟨h, ε₁..εₙ⟩."""
    g = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        g[i][i] = -1
    g[0][0] = 1
    return IntegralLattice(g)


# ---------------------------------------------------------------------------
# operations


def inertia(gram):
    """Signature (n₊, n₋, n₀) of a symmetric rational matrix.

    Exact symmetric congruence reduction (simultaneous row/column
    elimination); no eigenvalues, no floats.
    """
    a = [[Fraction(x) for x in row] for row in gram]
    n = len(a)
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    n_plus = n_minus = n_zero = 0
    a = [row[:] for row in a]
    k = 0
    while k < n:
        # ensure a nonzero diagonal pivot at (k, k)
        piv = next((i for i in range(k, n) if a[i][i] != 0), None)
        if piv is None:
            # all diagonal zero: look for off-diagonal entry
            od = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j] != 0:
                        od = (i, j)
                        break
                if od:
                    break
            if od is None:
                n_zero += n - k
                break
            i, j = od
            # fold row/col j into i: diagonal becomes 2a_ij ≠ 0
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            piv = i
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
        p = a[k][k]
        if p > 0:
            n_plus += 1
        else:
            n_minus += 1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / p
                for t in range(n):
                    a[i][t] -= f * a[k][t]
        for i in range(k + 1, n):
            if a[k][i] != 0:
                f = a[k][i] / p
                for t in range(n):
                    a[t][i] -= f * a[t][k]
        k += 1
    return (n_plus, n_minus, n_zero)


def is_negative_definite(L):
    """Sylvester's criterion on −G by `exact.symmetric_bareiss`, independent of LLL."""
    try:
        exact.symmetric_bareiss([[-x for x in row] for row in L.gram])
    except ValueError:
        return False
    return True


def orthogonal_complement(L, vectors):
    """(B, R): rows B a basis of the saturated sublattice {x ∈ L : x·s = 0
    for all s}, and R an integer right inverse of B.

    With P·a·V = D the Smith form of the pairing rows and r its rank, B is
    the last columns of V (as rows) and R the last rows of W = V⁻¹ (as
    columns).  B·R = I is certified: an integer right inverse proves B
    primitive, i.e. the complement saturated.
    """
    # a zero row keeps the column count of an empty list of vectors
    a = exact.mat_mul(vectors, L.gram) or [[0] * L.rank]
    _, facs, v, w = exact.smith_normal_form(a)
    r = len(facs)
    basis = exact.transpose(v)[r:]
    right = exact.transpose(w[r:])
    if exact.mat_mul(basis, right) != exact.identity_matrix(len(basis)):
        raise exact.VerificationError("complement basis has no integer right inverse")
    return [tuple(b) for b in basis], right


@dataclass(frozen=True)
class QuotientResult:
    lattice: IntegralLattice
    projection: tuple  # (rank-r) × n matrix; quotient coords = projection · v
    lifts: tuple  # rows: coset representatives of the quotient basis


def quotient_by_isotropic(L, s_rows):
    """Quotient of L by the primitive isotropic sublattice spanned by s_rows.

    Preconditions: every s is isotropic and lies in the radical of the form
    on L (s·x = 0 for all x), so the induced Gram on L/S is well defined.
    Returns the quotient lattice, the projection matrix (quotient coords of
    an ambient vector are projection·v), and coset lifts of its basis.
    """
    if any(map(any, exact.mat_mul(s_rows, L.gram))):
        raise ValueError("span is not in the radical of the form")
    _, facs, v, vinv = exact.smith_normal_form(s_rows or [[0] * L.rank])
    if any(f != 1 for f in facs):
        raise ValueError("isotropic sublattice is not primitive")
    r = len(facs)
    # rows of vinv: adapted basis of ℤⁿ; the first r span S, the rest lift L/S
    complement = vinv[r:]
    # projection: ambient coords -> quotient coords (drop the S part);
    # x = y·vinv ⇒ y = x·v, so the columns of v past r give the quotient coords
    proj = exact.transpose(v)[r:]
    return QuotientResult(
        lattice=IntegralLattice(exact.gram_of(complement, L.gram)),
        projection=tuple(tuple(row) for row in proj),
        lifts=tuple(tuple(row) for row in complement),
    )


def lattice_predicates(L):
    """(is_even, is_unimodular, discriminant, discriminant_group).

    Evenness is checked on the diagonal of the stored Gram; by
    x·x ≡ Σᵢ xᵢ²·Gᵢᵢ (mod 2) this is basis independent.  One SNF of the
    Gram gives both the discriminant group and |det gram|, the product of
    its invariant factors.
    """
    is_even = all(L.gram[i][i] % 2 == 0 for i in range(L.rank))
    facs = invariant_factors(L.gram)
    if len(facs) < L.rank:
        raise ValueError("degenerate lattice has no discriminant group")
    disc = prod(facs)
    return is_even, disc == 1, disc, FiniteAbelianGroup(tuple(facs))


def index_of_sublattice(L, s_rows):
    """Index [L : S] for a full-rank sublattice S given by coordinate rows.

    Equals the product of the SNF invariant factors of the inclusion matrix.
    """
    facs = invariant_factors(s_rows)
    if len(facs) < L.rank:
        raise ValueError("sublattice is rank deficient")
    return prod(facs)
