"""Exact-arithmetic boundary invariants of degenerating I-surfaces.

Subpackages:

- ``exact``: integer/rational linear algebra (SNF, LLL, short vectors)
- ``lattices``: integral quadratic lattices, complements, quotients
- ``roots``: ADE root systems and Niemeier identification
- ``tori``: rational tori (Jacobians), morphisms, kernels, quotients
- ``monodromy``: Picard–Lefschetz operators and frame invariants
- ``strata``: the six boundary-stratum models, Λ, JW₁, ψ, β₁₁
- ``torelli``: period maps, reconstruction, exceptional classes, classifier
- ``normalform``: weighted-degree-6 normal form in ℙ(1,1,2,3)
- ``io``: exact JSON serialization of lattices, points, datasets, polynomials
- ``cli``: the ``istrata`` command-line interface
"""

__version__ = "1.0.0"
