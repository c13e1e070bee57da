"""Exact-arithmetic boundary invariants of degenerating I-surfaces.

Subpackages:

- ``exact``: integer/rational linear algebra (SNF, LLL, short vectors)
- ``lattices``: integral quadratic lattices, complements, quotients
- ``roots``: ADE root systems and Niemeier identification
- ``tori``: rational tori (Jacobians), their points, torsion and kernels
- ``monodromy``: Picard–Lefschetz operators and frame invariants
- ``strata``: the six boundary-stratum models, Λ, JW₁, ψ, β₁₁
- ``torelli``: period maps, reconstruction, exceptional classes, classifier
- ``normalform``: weighted-degree-6 normal form in ℙ(1,1,2,3)
- ``io``: exact JSON serialization of lattices, points, datasets, polynomials
- ``cli``: the ``istrata`` command-line interface

Importing ``io`` or ``cli`` loads only ``exact`` and ``io``; each subcommand
and each lattice, point, dataset or polynomial loader imports the modules it
runs when it is called.
"""

__version__ = "1.0.0"

# the six boundary strata; here so that the CLI can offer them as choices
# without importing `strata`, which re-exports this tuple
STRATUM_LABELS = ("rat11", "rat21", "rat22", "enriques", "ell211", "ell111")
