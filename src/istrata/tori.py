"""Rational tori: exact models of Jacobians and their morphisms.

A torus of rank g is ℝ^g/ℤ^g; `RationalTorus` carries only g.  A rational
point is a `TorusPoint` of Fractions in [0, 1): given as such they are kept,
other ints and Fractions are reduced mod 1, and a float, a bool or a
non-number raises ValueError.  A morphism is a plain integer g′×g matrix M in
the column convention (x ↦ M·x).  `kernel_points` returns the finite kernel
of a ℚ-injective one.

The hot paths build no points.  A boundary dataset holds each ψ coordinate
as a reduced integer pair (n, d) from `torelli.gen_fixture` through the JSON
text to the classifier; the (1,1,1) reconstruction (period map, E[3]
translates, orbit comparison) runs on integer numerators over one common
denominator.  `TorusPoint`s are built only for the periods it inverts, the
configurations it hands back and the ell111 z-points they are compared with.
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
        if type(self.coords) is not tuple or not all(
            type(c) is Fraction and 0 <= c.numerator < c.denominator for c in self.coords
        ):
            object.__setattr__(self, "coords", tuple(map(_reduced, self.coords)))

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

    def order(self):
        """Order in the torus group (coordinates are rational, so finite)."""
        return lcm(*(c.denominator for c in self.coords))


def _reduced(c):
    """c mod 1 in [0, 1) for an int or a Fraction."""
    return exact.as_rational(c) % 1


@dataclass(frozen=True)
class RationalTorus:
    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be non-negative")


# ---------------------------------------------------------------------------
# torsion and kernels


def n_torsion(T, n):
    """All n^g points killed by n, in lexicographic order."""
    if n < 1:
        raise ValueError("n must be ≥ 1")
    fracs = [Fraction(i, n) for i in range(n)]
    return [TorusPoint(c) for c in itertools.product(fracs, repeat=T.rank)]


def kernel_points(m):
    """Finite kernel {x : M x ∈ ℤ^{g'}}/ℤ^g of the morphism given by a
    ℚ-injective integer g′×g matrix M.

    Returns (FiniteAbelianGroup, generators) with one generator per
    nontrivial invariant factor.
    """
    g = len(m[0])
    _, facs, v, _ = exact.smith_normal_form(m)
    if len(facs) < g:
        raise ValueError("morphism not injective over ℚ (kernel infinite)")
    gens = [
        TorusPoint(tuple(Fraction(v[t][i], di) for t in range(g)))
        for i, di in enumerate(facs) if di > 1
    ]
    return FiniteAbelianGroup(tuple(facs)), gens
