"""JSON serialization for lattices, torus points, datasets, and polynomials.

All rational numbers travel as "p/q" strings (or "p" when integral) so that
files round-trip exactly; floating point is never produced or accepted.
At import this module loads only `exact`; the lattice, point, dataset and
polynomial loaders import `lattices`, `tori`, `torelli` and `normalform` when
called.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import combinations

from .exact import as_rational

FORMAT_VERSION = 1


class InputError(ValueError):
    """A JSON document that does not follow the exact-JSON schema."""


def _parse_int(text):
    """int(text); a number past the int-string digit limit is bad input."""
    try:
        return int(text)
    except ValueError as exc:  # more than sys.get_int_max_str_digits() digits
        raise InputError(f"number too long: {exc}") from exc


def fraction_to_str(f):
    """"p" or "p/q" of an int or a Fraction; a float, a bool or a non-number
    raises ValueError.  A result computed from a file can outgrow the numbers
    in it (reconstructed points sum ψ values, so denominators multiply); past
    the int-string digit limit that is bad input, not a failed precondition."""
    if type(f) is not Fraction:
        f = as_rational(f)
    try:
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    except ValueError as exc:  # more than sys.get_int_max_str_digits() digits
        raise InputError(
            f"number too long: a result has more than {sys.get_int_max_str_digits()} digits"
        ) from exc


_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _int_pair(s):
    """(p, q) of a JSON integer p (q = 1), or of a "p" or "p/q" string with q ≠ 0."""
    if type(s) is int:
        return s, 1
    if isinstance(s, str) and _RATIONAL.fullmatch(s):
        num, _, den = s.partition("/")
        return _parse_int(num), _parse_int(den or "1")
    raise InputError(f"not an exact rational: {s!r}")


def fraction_from_str(s):
    """A JSON integer, or a "p" or "p/q" string with q ≠ 0, as a Fraction."""
    return Fraction(*_int_pair(s))


def _is_ints(obj, n=None):
    """A list of JSON integers (bools excluded), of length n when given."""
    return (
        isinstance(obj, list)
        and all(type(x) is int for x in obj)
        and (n is None or len(obj) == n)
    )


_LATTICE_KEYS = {"rank", "gram"}


def lattice_from_json(obj):
    from .lattices import IntegralLattice

    if obj.keys() != _LATTICE_KEYS:
        raise InputError(f"a lattice must have exactly the keys {sorted(_LATTICE_KEYS)}")
    gram = obj["gram"]
    if not isinstance(gram, list) or not all(_is_ints(row) for row in gram):
        raise InputError("Gram matrix must be a list of rows of JSON integers")
    if type(obj["rank"]) is not int:
        raise InputError("rank must be a JSON integer")
    if len(gram) != obj["rank"]:
        raise InputError("rank does not match the Gram matrix")
    try:
        return IntegralLattice(gram)
    except ValueError as exc:  # not square or not symmetric
        raise InputError(str(exc)) from exc


def point_to_json(p):
    return [fraction_to_str(c) for c in p.coords]


def point_from_json(obj):
    from .tori import TorusPoint

    return TorusPoint(tuple(fraction_from_str(c) for c in obj))


def polynomial_to_json(poly):
    return {
        ",".join(str(e) for e in exp): fraction_to_str(c) for exp, c in poly.coeffs
    }


def polynomial_from_json(obj):
    from .normalform import WeightedPolynomial

    d = {}
    for key, val in obj.items():
        if not re.fullmatch(r"(0|[1-9][0-9]*)(,(0|[1-9][0-9]*)){3}", key):
            raise InputError(f"bad exponent key {key!r}")
        d[tuple(_parse_int(e) for e in key.split(","))] = fraction_from_str(val)
    try:
        return WeightedPolynomial.from_dict(d)
    except ValueError as exc:  # a monomial of weight other than 6
        raise InputError(str(exc)) from exc


def dataset_to_json(ds):
    return {
        "version": FORMAT_VERSION,
        "k": ds.k,
        "pair_pattern": list(ds.pair_pattern),
        "root_label": ds.root_label,
        "jw1_pair_indices": [[list(pair), order] for pair, order in ds.jw1_pair_indices],
        "summands": [
            {
                "label": s.label,
                "simple_roots": [list(r) for r in s.simple_roots],
                "zero_flags": list(s.zero_flags),
                "psi_points": [_points_to_json(curve) for curve in s.psi],
            }
            for s in ds.summands
        ],
    }


def _points_to_json(pairs):
    """The [x, y] rows of a flat tuple of reduced pairs (n, d) x₁, y₁, x₂, y₂, …"""
    coords = [str(n) if d == 1 else f"{n}/{d}" for n, d in pairs]
    return [coords[k:k + 2] for k in range(0, len(coords), 2)]


_DATASET_KEYS = {"version", "k", "pair_pattern", "root_label", "jw1_pair_indices", "summands"}
_SUMMAND_KEYS = {"label", "simple_roots", "zero_flags", "psi_points"}
_LAMBDA_RANK = 24  # simple roots are stored in Λ coordinates
_POINT_RANK = 2  # ψ values lie in the Jacobian of an elliptic double curve


def _check(ok, message):
    if not ok:
        raise InputError(f"dataset: {message}")


# An ADE name (An with n ≥ 1, Dn with n ≥ 4, E6–E8); n, with no leading
# zero, is the number of simple roots
_ADE = re.compile(r"A[1-9][0-9]*|D([4-9]|[1-9][0-9]+)|E[678]")


def _summand_from_json(s, summand, mod1_pair):
    """The `summand` (SummandData) of one stored summand, each ψ coordinate
    held as its `mod1_pair`; the caller imports both once per dataset."""
    _check(isinstance(s, dict) and s.keys() == _SUMMAND_KEYS,
           f"a summand must have exactly the keys {sorted(_SUMMAND_KEYS)}")
    roots = s["simple_roots"]
    _check(isinstance(roots, list) and all(_is_ints(r, _LAMBDA_RANK) for r in roots),
           f"simple roots must be lists of {_LAMBDA_RANK} JSON integers")
    label = s["label"]
    _check(isinstance(label, str) and _ADE.fullmatch(label) and label[1:] == str(len(roots)),
           "a summand label must name an ADE type (An, n ≥ 1; Dn, n ≥ 4; E6–E8) "
           "of rank its number of simple roots")
    points = s["psi_points"]
    _check(
        isinstance(points, list)
        and all(
            isinstance(curve, list)
            and len(curve) == len(roots)
            and all(isinstance(p, list) and len(p) == _POINT_RANK for p in curve)
            for curve in points
        ),
        f"psi_points must hold one {_POINT_RANK}-coordinate point per simple root per curve",
    )
    out = summand(
        label=label,
        simple_roots=tuple(tuple(r) for r in roots),
        psi=tuple(
            # "0", the most common coordinate, skips the parse
            tuple((0, 1) if c == "0" else mod1_pair(*_int_pair(c)) for p in curve for c in p)
            for curve in points
        ),
    )
    flags = s["zero_flags"]
    _check(isinstance(flags, list) and all(type(z) is bool for z in flags)
           and flags == list(out.zero_flags),
           "zero_flags must be JSON booleans, each saying whether every ψ point on its curve "
           "is zero")
    return out


def dataset_from_json(obj):
    """The BoundaryDataset of a document in exactly the layout
    `dataset_to_json` writes; anything else raises InputError.  The stored
    `zero_flags`, `pair_pattern` and `root_label` must equal the values the
    dataset derives from its ψ values, pair indices and summand labels."""
    from .torelli import BoundaryDataset, SummandData, mod1_pair

    version = obj.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise InputError("unsupported dataset version")
    _check(obj.keys() == _DATASET_KEYS,
           f"a dataset must have exactly the keys {sorted(_DATASET_KEYS)}")
    k = obj["k"]
    _check(type(k) is int and k >= 0, "k must be a nonnegative JSON integer")
    pairs = obj["jw1_pair_indices"]
    _check(
        isinstance(pairs, list)
        # the pair count first: the expected list below has k(k−1)/2 entries
        and len(pairs) == k * (k - 1) // 2
        and all(
            isinstance(e, list) and len(e) == 2 and _is_ints(e[0], 2)
            and type(e[1]) is int and e[1] >= 1
            for e in pairs
        )
        and [e[0] for e in pairs] == [[i, j] for i, j in combinations(range(k), 2)],
        "jw1_pair_indices must list [[i, j], order ≥ 1] for each pair i < j < k in order",
    )
    _check(isinstance(obj["summands"], list), "summands must be a list")
    summands = tuple(_summand_from_json(s, SummandData, mod1_pair) for s in obj["summands"])
    try:
        ds = BoundaryDataset(
            k=k,
            summands=summands,
            jw1_pair_indices=tuple((tuple(pair), order) for pair, order in pairs),
        )
    except ValueError as exc:  # ranks not totalling 24, or per-curve lengths ≠ k
        raise InputError(f"dataset: {exc}") from exc
    _check(_is_ints(obj["pair_pattern"]) and obj["pair_pattern"] == list(ds.pair_pattern),
           "pair_pattern must be the sorted orders of jw1_pair_indices")
    _check(obj["root_label"] == ds.root_label,
           'root_label must be the summand labels joined by "+"')
    return ds


def dumps(obj, indent=None):
    """Deterministic JSON text with sorted keys.  By default it is compact, one
    line with no spaces, which CPython's C encoder writes; that is the text
    datasets travel as in-process.  The CLI's reports pass indent=2, which
    the pure-Python encoder writes."""
    if indent is None:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return json.dumps(obj, sort_keys=True, indent=indent)


def _unique_keys(pairs):
    if len({key for key, _ in pairs}) != len(pairs):
        raise InputError("a JSON object repeats a key")
    return dict(pairs)


def load_path(path):
    """The JSON object stored at path; any other top-level value, an object
    that repeats a key, or an integer past the digit limit is rejected."""
    with open(path) as fh:
        obj = json.load(fh, object_pairs_hook=_unique_keys, parse_int=_parse_int)
    if not isinstance(obj, dict):
        raise InputError("top-level JSON value must be an object")
    return obj
