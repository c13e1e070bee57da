import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from istrata import exact, io, lattices, strata, tori, torelli
from istrata.io import dataset_from_json, dataset_to_json, dumps
from istrata.io import point_to_json
from istrata.roots import build_En_lattice
from istrata.strata import STRATUM_LABELS
from istrata.tori import RationalTorus, TorusPoint
from istrata.torelli import (
    AnticanonicalConfig,
    BoundaryDataset,
    PeriodAssignment,
    canonical_translate,
    classify_stratum,
    descriptors_equivalent,
    enumerate_exceptional,
    exceptional_via_weyl_orbit,
    gen_fixture,
    period_map,
    reconstruct_111,
    reconstruct_points,
)

T = RationalTorus(2)

# seeds as the fixture-roundtrip benchmark workload draws them (randrange(10**6))
BENCH_SEEDS = random.Random(41).sample(range(10**6), 4)


def json_round_trip(ds):
    """The dataset as the benchmark reads it back: exact JSON text, parsed."""
    return dataset_from_json(json.loads(dumps(dataset_to_json(ds))))


def flatten(config):
    return tuple(c for p in config.points for c in p.coords)


def random_config(rng, n, q=97):
    pts = tuple(
        TorusPoint((Fraction(rng.randrange(q), q), Fraction(rng.randrange(q), q)))
        for _ in range(n)
    )
    return AnticanonicalConfig(T, pts)


class TestPeriodMap:
    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            AnticanonicalConfig(T, (TorusPoint((0, 0)),) * 2)

    def test_period_values(self):
        rng = random.Random(1)
        cfg = random_config(rng, 5)
        per = period_map(cfg)
        p = cfg.points
        assert per.values[0] == p[1] - p[0]
        assert per.values[3] == p[4] - p[3]
        assert per.values[4] == -(p[2] + p[3] + p[4])

    def test_translation_invariance(self):
        # the period map only sees differences and the 3p₁ combination mod E[3]
        rng = random.Random(2)
        cfg = random_config(rng, 6)
        t = TorusPoint((Fraction(1, 3), Fraction(2, 3)))
        shifted = AnticanonicalConfig(T, tuple(p + t for p in cfg.points))
        assert period_map(shifted).values == period_map(cfg).values

    @pytest.mark.parametrize("n", [3, 5, 8, 11])
    def test_round_trip(self, n):
        rng = random.Random(n)
        for _ in range(5):
            cfg = random_config(rng, n)
            rec = reconstruct_points(period_map(cfg))
            assert len(rec.orbit) == 9
            flats = [flatten(c) for c in rec.orbit]
            assert flatten(cfg) in flats
            assert flatten(rec.canonical) == min(flats)
            assert flatten(canonical_translate(cfg)) == min(flats)

    def test_orbit_members_all_reproduce_periods(self):
        rng = random.Random(9)
        cfg = random_config(rng, 8)
        per = period_map(cfg)
        for c in reconstruct_points(per).orbit:
            assert period_map(c).values == per.values

    def test_period_count_mismatch(self):
        with pytest.raises(ValueError, match="period count mismatch"):
            PeriodAssignment(n=5, values=(TorusPoint((0, 0)),) * 4)


class TestExceptional:
    EXPECTED = {3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}

    @pytest.mark.parametrize("n", sorted(EXPECTED))
    def test_counts_and_oracle_agreement(self, n):
        direct = enumerate_exceptional(n)
        orbit = exceptional_via_weyl_orbit(n)
        assert len(direct) == self.EXPECTED[n]
        assert set(direct) == set(orbit)

    def test_membership(self):
        # exceptional: α² = −1 and α·κ = 1 in the blowup basis ⟨h, ε₁..ε_n⟩
        def is_exceptional(n, alpha):
            L, _, _, kappa, _ = build_En_lattice(n)
            return L.norm(alpha) == -1 and L.pairing(alpha, kappa) == 1

        for n in (4, 6, 8):
            for alpha in enumerate_exceptional(n):
                assert is_exceptional(n, alpha)
        assert not is_exceptional(5, (1, 0, 0, 0, 0, 0))  # h has square +1
        assert not is_exceptional(5, (0, 2, 0, 0, 0, 0))

    def test_infinite_range_rejected(self):
        with pytest.raises(ValueError):
            enumerate_exceptional(9)
        with pytest.raises(ValueError):
            enumerate_exceptional(2)

    def test_effectiveness(self):
        # effective against a nef class y: α·y ≥ 0
        L, *_ = build_En_lattice(5)
        y = (3, -1, -1, -1, -1, -1)  # anticanonical class of dP4
        assert all(L.pairing(a, y) >= 0 for a in enumerate_exceptional(5))
        # ε₁·ε₁ = −1, so ε₁ fails against the class y = ε₁
        assert L.pairing((0, 1, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)) < 0


class TestClassifier:
    @pytest.mark.parametrize("label", torelli.STRATUM_LABELS)
    def test_identifies_own_fixture(self, label):
        for seed in (11, *BENCH_SEEDS):
            ds, desc = gen_fixture(label, seed)
            got, cert = classify_stratum(json_round_trip(ds))
            assert got == label
            assert desc["stratum"] == label
            assert "rule" in cert

    @pytest.mark.parametrize("seed", [32302, 40090, 42005, 42238, 50472, 54475, 428131])
    def test_rat21_seeds_with_a_vanishing_first_draw(self, seed):
        # the first draw of these seeds makes ψ₂ vanish mod ℤ² on the one
        # root of the completed E₈ it does not kill identically, which reads
        # as rat11; the generic redraw keeps the stratum's ψ block structure
        ds, _ = gen_fixture("rat21", seed)
        assert classify_stratum(json_round_trip(ds))[0] == "rat21"

    def test_warm_fixture_runs_no_smith_form(self, monkeypatch):
        # the model and Λ are cached, and the Ỹ constraint columns, ψ and
        # the pair indices need none once warm
        gen_fixture("ell111", 0)
        calls = []
        snf = exact.smith_normal_form
        monkeypatch.setattr(exact, "smith_normal_form", lambda a: calls.append(a) or snf(a))
        gen_fixture("ell111", 1)
        assert len(calls) == 0

    @pytest.mark.parametrize("label", [lb for lb in STRATUM_LABELS if lb != "ell111"])
    def test_round_trip_builds_no_torus_point(self, monkeypatch, label):
        # ψ travels as integer pairs from gen_fixture through the JSON text to
        # the classifier; only the (1,1,1) reconstruction reads points
        gen_fixture(label, 5)  # Λ and the ψ maps warm before the patch

        def refuse(point):
            raise AssertionError(f"a TorusPoint was built: {point.coords}")

        monkeypatch.setattr(TorusPoint, "__post_init__", refuse)
        ds, _ = gen_fixture(label, 5)
        assert classify_stratum(json_round_trip(ds))[0] == label

    @pytest.mark.parametrize("label", [lb for lb in STRATUM_LABELS if lb != "ell111"])
    def test_round_trip_builds_no_fraction(self, monkeypatch, label):
        # off ell111 the descriptor holds no configurations and the z-points
        # stay integer draws, so no Fraction is made on the whole round trip
        gen_fixture(label, 0)  # Λ, the ψ maps and the pair indices warm first

        class Refuse:
            def __new__(cls, *args):
                raise AssertionError(f"a Fraction was built: {args}")

        for module in (strata, torelli, tori, io, exact, lattices):
            monkeypatch.setattr(module, "Fraction", Refuse)
        for seed in (5, *BENCH_SEEDS):
            ds, desc = gen_fixture(label, seed)
            assert desc == {"stratum": label, "seed": seed}
            assert classify_stratum(json_round_trip(ds))[0] == label

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            gen_fixture("rat99", 0)

    def test_outside_on_unrecognized_pattern(self):
        ds, _ = gen_fixture("ell111", 1)
        mangled = BoundaryDataset(
            k=3,
            summands=ds.summands,
            jw1_pair_indices=tuple((pair, 2) for pair, _ in ds.jw1_pair_indices),
        )
        got, cert = classify_stratum(mangled)
        assert got == "outside classified strata"

    def test_outside_on_foreign_root_label(self):
        ds, _ = gen_fixture("rat11", 1)
        mangled = BoundaryDataset(
            k=ds.k,
            summands=(dataclasses.replace(ds.summands[0], label="D8"), *ds.summands[1:]),
            jw1_pair_indices=ds.jw1_pair_indices,
        )
        assert mangled.root_label == "D8+E8+E8"
        got, _ = classify_stratum(mangled)
        assert got == "outside classified strata"

    def test_rank_validation(self):
        ds, _ = gen_fixture("rat21", 1)
        with pytest.raises(ValueError):
            BoundaryDataset(
                k=ds.k,
                summands=ds.summands[:2],
                jw1_pair_indices=ds.jw1_pair_indices,
            )

    def test_fixture_determinism(self):
        a, _ = gen_fixture("enriques", 5)
        b, _ = gen_fixture("enriques", 5)
        assert a == b


def _relabel_a8(obj):
    # a root system of rank 24 other than the two the strata have
    for s in obj["summands"]:
        s["label"] = "A8"
    obj["root_label"] = "A8+A8+A8"


def _pair_orders_two(obj):
    for e in obj["jw1_pair_indices"]:
        e[1] = 2
    obj["pair_pattern"] = [2, 2, 2]


def _psi_zero(obj):
    for s in obj["summands"]:
        s["psi_points"] = [[["0", "0"]] * len(curve) for curve in s["psi_points"]]
        s["zero_flags"] = [True] * len(s["zero_flags"])


def _one_curve(obj):
    obj["k"] = 1
    obj["jw1_pair_indices"] = []
    obj["pair_pattern"] = []
    for s in obj["summands"]:
        s["psi_points"] = s["psi_points"][:1]
        s["zero_flags"] = s["zero_flags"][:1]


E8_3 = "E8+E8+E8"
OUTSIDE = "outside classified strata"

# every rule of classify_stratum, on a dataset that agrees with itself: the
# seed-3 fixture of a stratum, edited by a crafting function when given
CLASSIFIER_OUTCOMES = [
    ("rat22", None, "rat22", {
        "root_label": "E7+E7+D10", "k": 2, "pair_pattern": [1],
        "rule": "root label E7+E7+D10 is unique to the (2,2) stratum"}),
    ("rat11", _relabel_a8, OUTSIDE, {
        "root_label": "A8+A8+A8", "k": 2, "pair_pattern": [1],
        "rule": "root label outside the classified list"}),
    ("ell111", None, "ell111", {
        "root_label": E8_3, "k": 3, "pair_pattern": [1, 2, 2],
        "rule": "k=3 with one isomorphic marking pair"}),
    ("ell211", None, "ell211", {
        "root_label": E8_3, "k": 3, "pair_pattern": [1, 1, 2],
        "rule": "k=3 with two isomorphic marking pairs"}),
    ("ell111", _pair_orders_two, OUTSIDE, {
        "root_label": E8_3, "k": 3, "pair_pattern": [2, 2, 2],
        "rule": "k=3 pattern unrecognized"}),
    ("enriques", None, "enriques", {
        "root_label": E8_3, "k": 2, "pair_pattern": [2],
        "rule": "k=2 with non-isomorphic W1 sum"}),
    ("rat11", None, "rat11", {
        "root_label": E8_3, "k": 2, "pair_pattern": [1], "single_factor_summands": 2,
        "rule": "two root summands confined to single JD factors"}),
    ("rat21", None, "rat21", {
        "root_label": E8_3, "k": 2, "pair_pattern": [1], "single_factor_summands": 1,
        "rule": "one root summand confined to a single JD factor"}),
    ("rat11", _psi_zero, OUTSIDE, {
        "root_label": E8_3, "k": 2, "pair_pattern": [1], "single_factor_summands": 0,
        "rule": "k=2 ψ block structure unrecognized"}),
    ("rat11", _one_curve, OUTSIDE, {
        "root_label": E8_3, "k": 1, "pair_pattern": [],
        "rule": "k outside classified range"}),
]


@pytest.mark.parametrize(
    "stratum, craft, label, cert",
    CLASSIFIER_OUTCOMES,
    ids=[f"{c[0]}-{c[1].__name__.strip('_') if c[1] else 'fixture'}" for c in CLASSIFIER_OUTCOMES],
)
def test_pinned_classifier_outcomes(stratum, craft, label, cert):
    obj = dataset_to_json(gen_fixture(stratum, 3)[0])
    if craft:
        craft(obj)
    ds = dataset_from_json(json.loads(dumps(obj)))
    assert classify_stratum(ds) == (label, cert)


class TestReconstruct111:
    def test_round_trip(self):
        for seed in (0, 1, 2, *BENCH_SEEDS):
            ds, desc = gen_fixture("ell111", seed)
            rec = reconstruct_111(json_round_trip(ds))
            assert rec.distinguished_pair == (0, 1)
            assert rec.section_curve == 2
            gens = [desc["z_configs"][i] for i in rec.distinguished_pair]
            assert descriptors_equivalent(rec, gens)

    def test_swap_equivalence(self):
        ds, desc = gen_fixture("ell111", 4)
        rec = reconstruct_111(ds)
        gens = [desc["z_configs"][i] for i in rec.distinguished_pair]
        assert descriptors_equivalent(rec, list(reversed(gens)))

    def test_translated_generators_still_equivalent(self):
        ds, desc = gen_fixture("ell111", 6)
        rec = reconstruct_111(ds)
        t = TorusPoint((Fraction(1, 3), Fraction(1, 3)))
        gens = [
            AnticanonicalConfig(T, tuple(p + t for p in desc["z_configs"][i].points))
            for i in rec.distinguished_pair
        ]
        assert descriptors_equivalent(rec, gens)

    def test_wrong_configs_rejected(self):
        ds, desc = gen_fixture("ell111", 7)
        rec = reconstruct_111(ds)
        rng = random.Random(99)
        fake = [random_config(rng, 8), random_config(rng, 8)]
        assert not descriptors_equivalent(rec, fake)

    def test_wrong_stratum_rejected(self):
        ds, _ = gen_fixture("rat11", 3)
        with pytest.raises(ValueError):
            reconstruct_111(ds)


# sha256 of the fixture outputs, recorded before the fixture path went to
# integer numerators: the dataset texts of all six strata at seeds 0–39,
# and the (1,1,1) reconstructions (distinguished pair, section curve, the two
# canonical configurations) at seeds 0–9, as indent=2 text (the CLI's layout)
PINNED_FIXTURES = "b4cbdf041e5c61e4c7ce576cbbe9b7ca236ec4395c36921d7a0a166208906d0e"
PINNED_RECONSTRUCTIONS = "0614136fe377e112f4abfcf0b6e3cf84466eac37b72420aaa08c97692f1ed52f"


def test_pinned_fixture_texts():
    digest = hashlib.sha256()
    for label in STRATUM_LABELS:
        for seed in range(40):
            obj = dataset_to_json(gen_fixture(label, seed)[0])
            digest.update(dumps(obj, indent=2).encode())
    assert digest.hexdigest() == PINNED_FIXTURES


def test_compact_fixture_texts_round_trip():
    # the in-process text of the same fixtures: one line, no spaces after
    # separators, and the same JSON value
    for label in STRATUM_LABELS:
        for seed in range(40):
            obj = dataset_to_json(gen_fixture(label, seed)[0])
            text = dumps(obj)
            assert json.loads(text) == obj
            assert ", " not in text and ": " not in text and "\n" not in text


def test_pinned_reconstructions():
    digest = hashlib.sha256()
    for seed in range(10):
        rec = reconstruct_111(gen_fixture("ell111", seed)[0])
        configs = [[point_to_json(p) for p in c.points] for c in rec.configs]
        obj = [list(rec.distinguished_pair), rec.section_curve, configs]
        digest.update(dumps(obj, indent=2).encode())
    assert digest.hexdigest() == PINNED_RECONSTRUCTIONS
