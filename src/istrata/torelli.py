"""Period maps, reconstruction, exceptional classes, and the stratum classifier.

The period map of an anticanonical pair (blowup of ℙ² at n points on a cubic
curve E) sends the κ⊥ basis α₁..α_n to differences of the points; it is
invertible up to translation by 3-torsion.  The classifier reads the
Hodge-theoretic fingerprint of a degeneration (Λ root label, monodromy
pair-index pattern, ψ block structure) and names the boundary stratum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .exact import VerificationError
from .monodromy import build_frame, pair_indices
from .roots import build_En_lattice, weyl_reflect
from .strata import (
    STRATUM_LABELS,
    build_stratum_model,
    extension_map,
    generate_restriction_data,
    psi_summands,
)
from .tori import RationalTorus, TorusPoint, n_torsion


# ---------------------------------------------------------------------------
# period map and reconstruction for anticanonical pairs


@dataclass(frozen=True)
class AnticanonicalConfig:
    torus: RationalTorus  # g = 2
    points: tuple  # p₁..p_n, TorusPoint

    def __post_init__(self):
        if len(self.points) < 3:
            raise ValueError("need n ≥ 3 points")

    @property
    def n(self):
        return len(self.points)


@dataclass(frozen=True)
class PeriodAssignment:
    n: int
    values: tuple  # v₁..v_n on α₁..α_n; κ ↦ 0 implicitly

    def __post_init__(self):
        if self.n < 3 or len(self.values) != self.n:
            raise ValueError("period count mismatch")


def period_map(config):
    """vᵢ = p_{i+1} − pᵢ (i < n) and v_n = −p_{n−2} − p_{n−1} − p_n.

    The origin convention h ↦ 0 (three collinear points sum to zero) makes
    the κ value vanish automatically.
    """
    den = _den(config.points)
    vals = _periods(_numerators(config.points, den), den)
    return PeriodAssignment(n=config.n, values=_points(vals, den))


@dataclass(frozen=True)
class ReconstructionResult:
    rows: tuple  # the 9 E[3] translates as flat numerator rows over den
    den: int
    canonical: AnticanonicalConfig  # the lexicographically least row

    @property
    def orbit(self):
        """The 9 configurations related by E[3] translation, built when read."""
        T = RationalTorus(2)
        return tuple(AnticanonicalConfig(T, _points(r, self.den)) for r in self.rows)


# The points of a configuration are carried as one flat row of integer
# numerators (x₁, y₁, x₂, y₂, …) over a common denominator den.  With every
# row reduced into [0, den), the order of rows is the order of the Fraction
# coordinates, so the lex-least row is the lex-least configuration.

# the E[3] points as numerator pairs over 3, in n_torsion's order
_E3 = tuple(
    tuple(c.numerator * 3 // c.denominator for c in t.coords)
    for t in n_torsion(RationalTorus(2), 3)
)


def _den(points):
    return lcm(*(c.denominator for p in points for c in p.coords))


def _numerators(points, den):
    """The coordinates of points, each denominator dividing den, as a flat row over den."""
    return [c.numerator * (den // c.denominator) for p in points for c in p.coords]


def _points(row, den):
    return tuple(
        TorusPoint((Fraction(x, den), Fraction(y, den))) for x, y in zip(row[::2], row[1::2])
    )


def _periods(row, den):
    """The period map on a flat row over den, as a flat row over den in [0, den)."""
    out = [(row[k + 2] - row[k]) % den for k in range(len(row) - 2)]
    out += [-(row[-6] + row[-4] + row[-2]) % den, -(row[-5] + row[-3] + row[-1]) % den]
    return out


def _translates(row, den):
    """The nine E[3] translates of a flat row over den (3 | den), reduced."""
    s = den // 3
    n = len(row) // 2
    return [tuple((x + t) % den for x, t in zip(row, (a * s, b * s) * n)) for a, b in _E3]


def reconstruct_points(periods):
    """Invert the period map up to translation by a 3-torsion point.

    With cᵢ = Σ_{j<i} vⱼ (so pᵢ = p₁ + cᵢ), the last period forces
    3p₁ = w = −(v_n + c_{n−2} + c_{n−1} + c_n); the nine solutions differ by
    E[3] and each reproduces the input periods exactly.  Over den = 3·lcm of
    the period denominators every numerator is a multiple of 3, so p₁ = w/3
    for w in [0, 1) is the integer w // 3; the translates follow in
    n_torsion's order.
    """
    den = 3 * _den(periods.values)
    v = _numerators(periods.values, den)
    c = [0, 0]
    for k in range(len(v) - 2):
        c.append(c[k] + v[k])
    w = (-(v[-2] + c[-6] + c[-4] + c[-2]) % den, -(v[-1] + c[-5] + c[-3] + c[-1]) % den)
    base = (w[0] // 3, w[1] // 3)
    rows = _translates([x + base[k % 2] for k, x in enumerate(c)], den)
    if any(_periods(r, den) != v for r in rows):
        raise VerificationError("configuration does not have the given periods")
    canonical = AnticanonicalConfig(RationalTorus(2), _points(min(rows), den))
    # recheck the returned Fractions through period_map: the one check of these
    # points (the integer check covers all nine rows), and period_map's only caller
    if period_map(canonical).values != periods.values:
        raise VerificationError("configuration does not have the given periods")
    return ReconstructionResult(rows=tuple(rows), den=den, canonical=canonical)


def canonical_translate(config):
    """Lex-least E[3] translate — the comparison form for round-trip tests."""
    den = lcm(3, _den(config.points))
    least = min(_translates(_numerators(config.points, den), den))
    return AnticanonicalConfig(config.torus, _points(least, den))


# ---------------------------------------------------------------------------
# exceptional classes


def enumerate_exceptional(n):
    """All classes a·h + Σbᵢεᵢ with α² = α·K = −1, for n ≤ 8.

    The constraints are a² − Σbᵢ² = −1 and 3a + Σbᵢ = 1; Cauchy–Schwarz
    bounds a by (9−n)a² − 6a + 1 − n ≤ 0, which is a finite interval only
    for n ≤ 8 (at n = 9 the class set is infinite).
    """
    if n < 3:
        raise ValueError("n must be ≥ 3")
    if n >= 9:
        raise ValueError("exceptional-class set is infinite for n ≥ 9")
    out = []
    for a in range(-3 * n, 3 * n + 1):
        if (9 - n) * a * a - 6 * a + 1 - n > 0:
            continue
        q = a * a + 1  # Σb², must be ≥ 0
        s = 1 - 3 * a  # Σb
        for b in _signed_vectors(n, s, q):
            out.append(tuple([a] + b))
    return sorted(out)


def _signed_vectors(slots, target_sum, target_sq):
    """Integer vectors of given length with prescribed sum and sum of squares."""
    results = []
    vec = []

    def rec(i, s, q):
        if i == slots:
            if s == 0 and q == 0:
                results.append(list(vec))
            return
        rem = slots - i
        # feasibility: |s| ≤ rem·max|b| and s² ≤ rem·q (Cauchy–Schwarz)
        if q < 0 or s * s > rem * q:
            return
        bound = isqrt(q)
        for b in range(-bound, bound + 1):
            vec.append(b)
            rec(i + 1, s - b, q - b * b)
            vec.pop()

    rec(0, target_sum, target_sq)
    return results


def exceptional_via_weyl_orbit(n):
    """Independent oracle: the Weyl orbit of ε_n under the κ⊥ reflections."""
    L, h, eps, kappa, alphas = build_En_lattice(n)
    seen = {tuple(eps[-1])}
    frontier = [tuple(eps[-1])]
    while frontier:
        nxt = []
        for x in frontier:
            for a in alphas:
                y = weyl_reflect(L, a, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


# ---------------------------------------------------------------------------
# boundary datasets and the classifier


def mod1_pair(n, d):
    """(p, q) with p/q = n/d mod 1 in [0, 1) and in lowest terms, for ints n
    and d > 0; zero is (0, 1).  The form of a ψ coordinate in SummandData."""
    n %= d
    g = gcd(n, d)
    return n // g, d // g


@dataclass(frozen=True)
class SummandData:
    label: str
    simple_roots: tuple  # in Λ coordinates
    zero_flags: tuple = field(init=False)  # per double curve: ψᵢ ≡ 0 on the summand
    # per curve: the ψ coordinates x₁, y₁, x₂, y₂, … on the simple roots as one
    # flat tuple of int pairs (n, d), each n/d reduced into [0, 1) and in lowest
    # terms, zero being (0, 1)
    psi: tuple

    def __post_init__(self):
        flags = tuple(not any(n for n, _ in curve) for curve in self.psi)
        object.__setattr__(self, "zero_flags", flags)

    def psi_points(self, i):
        """ψᵢ on the simple roots as TorusPoints, built when read."""
        c = self.psi[i]
        return tuple(TorusPoint((Fraction(*x), Fraction(*y))) for x, y in zip(c[::2], c[1::2]))

    @property
    def single_curve(self):
        """The only curve on which ψ is nonzero on the summand, or None."""
        live = [i for i, z in enumerate(self.zero_flags) if not z]
        return live[0] if len(live) == 1 else None


@dataclass(frozen=True)
class BoundaryDataset:
    k: int
    pair_pattern: tuple = field(init=False)  # the sorted pair indices
    root_label: str = field(init=False)  # the summand labels joined by "+"
    summands: tuple  # SummandData
    jw1_pair_indices: tuple  # ((i, j), kernel order) per unordered curve pair

    def __post_init__(self):
        rank = sum(len(s.simple_roots) for s in self.summands)
        if rank != 24:
            raise ValueError("summand ranks must total 24")
        if any(len(s.psi) != self.k for s in self.summands):
            raise ValueError("per-curve data length mismatch")
        pattern = tuple(sorted(idx for _, idx in self.jw1_pair_indices))
        object.__setattr__(self, "pair_pattern", pattern)
        object.__setattr__(self, "root_label", "+".join(s.label for s in self.summands))

    def single_factor_count(self):
        return sum(s.single_curve is not None for s in self.summands)


def gen_fixture(label, seed):
    """Reproducible BoundaryDataset for a stratum, plus its generating
    descriptor: stratum, seed and, on ell111 only, the `z_configs` (on any
    stratum, `generate_restriction_data(model, seed).z_points`)."""
    model = build_stratum_model(label)
    restriction = generate_restriction_data(model, seed)
    psi = extension_map(model, restriction)
    summands = tuple(
        SummandData(
            label=lbl,
            simple_roots=simples,
            # ψᵢ(s) = Mᵢs/dᵢ mod ℤ² on each simple root s, each coordinate reduced
            psi=tuple(
                tuple(mod1_pair(sum(map(mul, s, row)), d) for s in simples for row in m)
                for m, d in psi
            ),
        )
        for lbl, simples in psi_summands(label)
    )
    ds = BoundaryDataset(
        k=model.k, summands=summands, jw1_pair_indices=pair_indices(build_frame(label))
    )
    descriptor = {"stratum": label, "seed": seed}
    if label == "ell111":
        T = RationalTorus(2)
        descriptor["z_configs"] = tuple(AnticanonicalConfig(T, p) for p in restriction.z_points)
    return ds, descriptor


_OUTSIDE = "outside classified strata"

# (label, rule) on the root label E8+E8+E8: by the pair pattern when k = 3,
# and by the number of single-factor summands when k = 2 off enriques
_K3_PATTERNS = {
    (1, 2, 2): ("ell111", "k=3 with one isomorphic marking pair"),
    (1, 1, 2): ("ell211", "k=3 with two isomorphic marking pairs"),
}
_K2_SINGLE_FACTORS = {
    2: ("rat11", "two root summands confined to single JD factors"),
    1: ("rat21", "one root summand confined to a single JD factor"),
}


def classify_stratum(ds):
    """Name the boundary stratum from its fingerprint; returns
    (label, certificate).  Unrecognized patterns give the explicit
    "outside classified strata" outcome instead of an error."""
    cert = {
        "root_label": ds.root_label,
        "k": ds.k,
        "pair_pattern": list(ds.pair_pattern),
    }
    if ds.root_label == "E7+E7+D10":
        label, rule = "rat22", "root label E7+E7+D10 is unique to the (2,2) stratum"
    elif ds.root_label != "E8+E8+E8":
        label, rule = _OUTSIDE, "root label outside the classified list"
    elif ds.k == 3:
        label, rule = _K3_PATTERNS.get(ds.pair_pattern, (_OUTSIDE, "k=3 pattern unrecognized"))
    elif ds.k == 2 and ds.pair_pattern == (2,):
        label, rule = "enriques", "k=2 with non-isomorphic W1 sum"
    elif ds.k == 2:
        sf = cert["single_factor_summands"] = ds.single_factor_count()
        label, rule = _K2_SINGLE_FACTORS.get(sf, (_OUTSIDE, "k=2 ψ block structure unrecognized"))
    else:
        label, rule = _OUTSIDE, "k outside classified range"
    cert["rule"] = rule
    return label, cert


# ---------------------------------------------------------------------------
# (1,1,1) reconstruction


@dataclass(frozen=True)
class Ell111Descriptor:
    distinguished_pair: tuple  # the two curve indices (0-based) with index-1 sum
    section_curve: int  # the remaining curve, identified with the base B
    configs: tuple  # canonical point configs for the two distinguished curves


def reconstruct_111(ds):
    """Recover the two dP1 point configurations (up to 3-torsion and the
    curve swap) from an ell111 dataset.

    The pair {D₁, D₂} is distinguished as the unique marking pair whose sum
    map is an isomorphism; each distinguished curve carries exactly one ψ
    summand, whose 8 stored periods feed the period-map inversion.
    """
    label, _ = classify_stratum(ds)
    if label != "ell111":
        raise ValueError("dataset does not classify as ell111")
    iso_pairs = [pair for pair, idx in ds.jw1_pair_indices if idx == 1]
    if len(iso_pairs) != 1:
        raise ValueError("expected a unique isomorphic marking pair")
    distinguished = iso_pairs[0]
    section = next(i for i in range(ds.k) if i not in distinguished)
    curve_summand = {}
    for s in ds.summands:
        i = s.single_curve
        if i in distinguished:
            curve_summand.setdefault(i, s)
    if sorted(curve_summand) != sorted(distinguished):
        raise ValueError("distinguished curves lack single-factor summands")
    configs = []
    for i in distinguished:
        periods = PeriodAssignment(n=8, values=curve_summand[i].psi_points(i))
        configs.append(reconstruct_points(periods).canonical)
    return Ell111Descriptor(
        distinguished_pair=distinguished,
        section_curve=section,
        configs=tuple(configs),
    )


def descriptors_equivalent(reconstructed, generating_configs):
    """Round-trip oracle: the reconstructed configs match the generating
    ones up to E[3] translation per component and the swap of the two
    distinguished curves."""
    recs = [canonical_translate(c).points for c in reconstructed.configs]
    gens = [canonical_translate(c).points for c in generating_configs]
    return recs == gens or recs == gens[::-1]

