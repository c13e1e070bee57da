"""JSON serialization for lattices, torus points, datasets, and polynomials.

All rational numbers travel as "p/q" strings (or "p" when integral) so that
files round-trip exactly; floating point is never produced or accepted.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .lattices import IntegralLattice
from .normalform import WeightedPolynomial
from .torelli import BoundaryDataset, SummandData
from .tori import TorusPoint

FORMAT_VERSION = 1


class InputError(ValueError):
    """A JSON document that does not follow the exact-JSON schema."""


def fraction_to_str(f):
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def fraction_from_str(s):
    """A JSON integer, or a "p" or "p/q" string with q ≠ 0, as a Fraction."""
    if type(s) is int:
        return Fraction(s)
    if isinstance(s, str) and re.fullmatch(r"-?\d+(/0*[1-9]\d*)?", s):
        return Fraction(s)
    raise InputError(f"not an exact rational: {s!r}")


def lattice_to_json(lattice):
    return {"rank": lattice.rank, "gram": [list(row) for row in lattice.gram]}


def lattice_from_json(obj):
    gram = obj["gram"]
    if not isinstance(gram, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in gram
    ):
        raise InputError("Gram matrix must be a list of rows of JSON integers")
    if len(gram) != obj["rank"]:
        raise InputError("rank does not match the Gram matrix")
    try:
        return IntegralLattice(gram)
    except ValueError as exc:  # not square or not symmetric
        raise InputError(str(exc)) from exc


def point_to_json(p):
    return [fraction_to_str(c) for c in p.coords]


def point_from_json(obj):
    return TorusPoint(tuple(fraction_from_str(c) for c in obj))


def polynomial_to_json(poly):
    return {
        ",".join(str(e) for e in exp): fraction_to_str(c) for exp, c in poly.coeffs
    }


def polynomial_from_json(obj):
    d = {}
    for key, val in obj.items():
        if not re.fullmatch(r"\d+(,\d+){3}", key):
            raise InputError(f"bad exponent key {key!r}")
        d[tuple(int(e) for e in key.split(","))] = fraction_from_str(val)
    return WeightedPolynomial.from_dict(d)


def dataset_to_json(ds):
    return {
        "version": ds.version,
        "k": ds.k,
        "pair_pattern": list(ds.pair_pattern),
        "root_label": ds.root_label,
        "jw1_pair_indices": [[list(pair), order] for pair, order in ds.jw1_pair_indices],
        "summands": [
            {
                "label": s.label,
                "simple_roots": [list(r) for r in s.simple_roots],
                "zero_flags": list(s.zero_flags),
                "psi_points": [[point_to_json(p) for p in pts] for pts in s.psi_points],
            }
            for s in ds.summands
        ],
    }


def dataset_from_json(obj):
    if obj.get("version") != FORMAT_VERSION:
        raise InputError("unsupported dataset version")
    summands = tuple(
        SummandData(
            label=s["label"],
            simple_roots=tuple(tuple(r) for r in s["simple_roots"]),
            zero_flags=tuple(bool(z) for z in s["zero_flags"]),
            psi_points=tuple(
                tuple(point_from_json(p) for p in pts) for pts in s["psi_points"]
            ),
        )
        for s in obj["summands"]
    )
    return BoundaryDataset(
        k=obj["k"],
        pair_pattern=tuple(obj["pair_pattern"]),
        root_label=obj["root_label"],
        summands=summands,
        jw1_pair_indices=tuple(
            (tuple(pair), order) for pair, order in obj["jw1_pair_indices"]
        ),
    )


def dumps(obj):
    """Deterministic JSON text."""
    return json.dumps(obj, sort_keys=True, indent=2)


def load_path(path):
    """The JSON object stored at path; any other top-level value is rejected."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise InputError("top-level JSON value must be an object")
    return obj
