"""The integer (1,1,1) reconstruction against the `Fraction` one it replaced.

The oracles below are the earlier `TorusPoint` implementations of the period
map, `reconstruct_points`, `canonical_translate` and `descriptors_equivalent`:
every point is added as a `TorusPoint`, and p₁ = w/3 is taken on `Fraction`
coordinates.  The integer versions must give
the same orbit in the same order, the same canonical configuration and the
same verdicts.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from istrata import torelli
from istrata.exact import VerificationError
from istrata.torelli import (
    AnticanonicalConfig,
    PeriodAssignment,
    canonical_translate,
    descriptors_equivalent,
    period_map,
    reconstruct_points,
)
from istrata.tori import RationalTorus, TorusPoint, n_torsion

T = RationalTorus(2)


def flatten(config):
    return tuple(c for p in config.points for c in p.coords)


def oracle_period_map(config):
    p = config.points
    n = len(p)
    vals = [p[i + 1] - p[i] for i in range(n - 1)]
    vals.append(-(p[n - 3] + p[n - 2] + p[n - 1]))
    return PeriodAssignment(n=n, values=tuple(vals))


def oracle_reconstruct_points(periods):
    """(orbit, canonical) by TorusPoint arithmetic, p₁ = w/3 on Fractions."""
    n = periods.n
    v = periods.values
    c = [TorusPoint((0, 0))]
    for i in range(n - 1):
        c.append(c[-1] + v[i])
    w = -(v[n - 1] + c[n - 3] + c[n - 2] + c[n - 1])
    base = TorusPoint(tuple(x / 3 for x in w.coords))
    orbit = []
    for t in n_torsion(T, 3):
        p1 = base + t
        config = AnticanonicalConfig(T, tuple(p1 + ci for ci in c))
        if oracle_period_map(config).values != v:
            raise VerificationError("configuration does not have the given periods")
        orbit.append(config)
    return tuple(orbit), min(orbit, key=flatten)


def oracle_canonical_translate(config):
    orbit = [
        AnticanonicalConfig(config.torus, tuple(p + t for p in config.points))
        for t in n_torsion(config.torus, 3)
    ]
    return min(orbit, key=flatten)


def oracle_descriptors_equivalent(reconstructed, generating_configs):
    recs = [oracle_canonical_translate(c) for c in reconstructed.configs]
    gens = [oracle_canonical_translate(c) for c in generating_configs]
    for perm in ([0, 1], [1, 0]):
        if all(flatten(recs[i]) == flatten(gens[p]) for i, p in enumerate(perm)):
            return True
    return False


# coordinates over mixed denominators: small, shared, 3-divisible and large
DENOMINATORS = [1, 2, 3, 4, 9, 27, 97, 291, 2**31 - 1, 10**12 + 39]
coords = st.builds(
    Fraction,
    st.integers(min_value=-(10**15), max_value=10**15),
    st.one_of(st.sampled_from(DENOMINATORS), st.integers(min_value=1, max_value=10**6)),
)
points = st.builds(lambda x, y: TorusPoint((x, y)), coords, coords)
configs = st.lists(points, min_size=3, max_size=11).map(
    lambda pts: AnticanonicalConfig(T, tuple(pts))
)
e3 = st.sampled_from(n_torsion(T, 3))


def translate(config, t):
    return AnticanonicalConfig(T, tuple(p + t for p in config.points))


@settings(max_examples=80, deadline=None)
@given(configs)
def test_period_map_matches_oracle(cfg):
    assert period_map(cfg) == oracle_period_map(cfg)


@settings(max_examples=80, deadline=None)
@given(configs)
def test_reconstruction_matches_oracle(cfg):
    # any n periods are the periods of nine configurations, so the points of
    # cfg serve as periods too
    for per in (oracle_period_map(cfg), PeriodAssignment(n=cfg.n, values=cfg.points)):
        orbit, canonical = oracle_reconstruct_points(per)
        rec = reconstruct_points(per)
        assert [flatten(c) for c in rec.orbit] == [flatten(c) for c in orbit]
        assert flatten(rec.canonical) == flatten(canonical)
        assert rec.canonical.torus == canonical.torus
    assert canonical_translate(cfg) == oracle_canonical_translate(cfg)


@settings(max_examples=60, deadline=None)
@given(configs, configs, e3, e3, st.data())
def test_equivalence_verdicts_match_oracle(a, b, s, t, data):
    gens = [a, b]
    point = TorusPoint((Fraction(1, 5), Fraction(2, 7)))  # order 35, not 3-torsion
    third = TorusPoint((Fraction(1, 3), 0))
    j = data.draw(st.integers(min_value=0, max_value=a.n - 1))

    def moved(config, by):
        pts = list(config.points)
        pts[j] = pts[j] + by
        return AnticanonicalConfig(T, tuple(pts))

    cases = {
        "both translated": ([translate(a, s), translate(b, t)], True),
        "one translated": ([translate(a, s), b], True),
        "swapped": ([translate(b, t), translate(a, s)], True),
        "one point off by a non-3-torsion point": ([moved(a, point), b], False),
        "one point off by a 3-torsion point": ([moved(a, third), b], False),
        "a point too many": ([AnticanonicalConfig(T, a.points + (a.points[0],)), b], False),
        "the other curve twice": ([b, b], None),
    }
    if b.n > 3:
        cases["a point too few"] = ([a, AnticanonicalConfig(T, b.points[:-1])], False)
    for name, (recs, expected) in cases.items():
        # descriptors_equivalent reads only the descriptor's .configs
        rec = SimpleNamespace(configs=recs)
        got = descriptors_equivalent(rec, gens)
        assert got == oracle_descriptors_equivalent(rec, gens), name
        if expected is not None:
            assert got is expected, name


def test_fixture_reconstructions_match_oracle():
    # the ell111 periods the benchmark and the CLI reconstruct
    for seed in [0, 1, 7, *random.Random(41).sample(range(10**6), 5)]:
        ds, desc = torelli.gen_fixture("ell111", seed)
        rec = torelli.reconstruct_111(ds)
        gens = [desc["z_configs"][i] for i in rec.distinguished_pair]
        for i, cfg in zip(rec.distinguished_pair, rec.configs):
            summand = next(
                s for s in ds.summands
                if [k for k, z in enumerate(s.zero_flags) if not z] == [i]
            )
            per = PeriodAssignment(n=8, values=summand.psi_points(i))
            assert flatten(cfg) == flatten(oracle_reconstruct_points(per)[1])
        assert descriptors_equivalent(rec, gens)
        assert oracle_descriptors_equivalent(rec, gens)
        other = torelli.gen_fixture("ell111", seed + 1)[1]["z_configs"][0]
        assert not descriptors_equivalent(rec, [gens[0], other])
        assert not oracle_descriptors_equivalent(rec, [gens[0], other])


def test_large_denominators_round_trip():
    # eight points over 200-digit denominators: the rows stay exact
    rng = random.Random(5)
    q = 10**200 + 357
    cfg = AnticanonicalConfig(
        T, tuple(TorusPoint((Fraction(rng.randrange(q), q), Fraction(rng.randrange(3 * q), 3 * q)))
                 for _ in range(8))
    )
    rec = reconstruct_points(period_map(cfg))
    assert flatten(cfg) in [flatten(c) for c in rec.orbit]
    assert flatten(rec.canonical) == flatten(oracle_canonical_translate(cfg))
