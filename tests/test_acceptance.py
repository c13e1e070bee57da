"""End-to-end acceptance checks.

Each test pins down one headline result with its exact expected value and,
where stated, a wall-clock budget.  Every quantity is computed in exact
arithmetic; no tolerance is involved anywhere.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from istrata import exact, torelli
from istrata.monodromy import (
    U4_GRAM,
    build_frame,
    operator_sum,
    pair_index_pattern,
    picard_lefschetz,
    primitivity_certificate,
    weight_data,
)
from istrata.normalform import (
    cstar_weights,
    random_deformation,
    reduce_to_standard_form,
    slice_coordinates,
)
from istrata.strata import (
    STRATUM_LABELS,
    beta11_weight_crosscheck,
    build_stratum_model,
    compute_JW1,
    compute_lambda,
    construct_beta11,
    extension_map,
    generate_restriction_data,
    lambda_predicates,
    rat22_class_solve,
)
from istrata.tori import RationalTorus, TorusPoint

FRAME_KINDS = ["rational", "enriques", "ell111", "ell211"]


def test_criterion_1_lambda_predicates():
    """Λ is an even negative-definite unimodular lattice of rank 24 on every
    stratum, each stratum certified in under 5 seconds."""
    for label in STRATUM_LABELS:
        start = time.monotonic()
        preds = lambda_predicates(label)
        elapsed = time.monotonic() - start
        assert preds == {
            "rank": 24,
            "even": True,
            "unimodular": True,
            "negative_definite": True,
        }, label
        assert elapsed < 5.0, f"{label} took {elapsed:.2f}s"


def test_criterion_2_root_systems():
    """Root system labels, root counts, and root-span indices of Λ for all
    six strata, within a 60 second budget."""
    expected = {
        "rat11": ("E8+E8+E8", 720, 1),
        "rat21": ("E8+E8+E8", 720, 1),
        "rat22": ("E7+E7+D10", 432, 4),
        "enriques": ("E8+E8+E8", 720, 1),
        "ell211": ("E8+E8+E8", 720, 1),
        "ell111": ("E8+E8+E8", 720, 1),
    }
    start = time.monotonic()
    for label, (root_label, count, index) in expected.items():
        lam = compute_lambda(label)
        assert lam.root_data.label == root_label, label
        assert lam.root_data.total_root_count == count, label
        assert lam.root_index == index, label
    assert time.monotonic() - start < 60.0


def test_criterion_3_rat22_class():
    """The unique class a·h − Σεᵢ + b·ε₁₁ on the (2,2) model with the
    prescribed degree and self-intersection has (a, b) = (4, −2)."""
    a, b, cls = rat22_class_solve()
    assert (a, b) == (4, -2)
    assert cls == tuple([4] + [-1] * 10 + [-2] + [0])


def test_criterion_4_beta11_construction():
    """β₁₁ is an integral class of square −4 pairing to δ_{j7} against one E7
    and to a single leaf weight of the D10, cross-checked against the
    fundamental-weight self-pairings."""
    lam = compute_lambda("rat22")
    beta, _ = construct_beta11(lam)
    assert lam.lattice.norm(beta) == -4
    hits = []
    for label, simples in lam.root_data.components:
        for j, s in enumerate(simples, start=1):
            p = lam.lattice.pairing(beta, list(s))
            assert p in (0, 1)
            if p == 1:
                hits.append((label, j))
    assert sorted(h[0] for h in hits) == ["D10", "E7"]
    assert beta11_weight_crosscheck(lam) == Fraction(-4)


def test_criterion_4_beta11_coset_order():
    """β₁₁ is a nontrivial glue class: β₁₁ + Λ_R has order 2 in Λ/Λ_R.

    Λ is the Niemeier lattice D10E7², so Λ/Λ_R ≅ (ℤ/2)² has order
    [Λ : Λ_R] = 4 and sits inside disc(E7 ⊕ E7 ⊕ D10) = (ℤ/2)⁴, whose
    exponent is 2.  Every nonzero coset therefore has order exactly 2; an
    order of 4 cannot hold, since D10 (n even) has discriminant (ℤ/2)², not
    ℤ/4.  The certificates below are independent of the coset-order routine:
    the invariant factors of the simple-root Gram, the root-span index, and
    integer membership of β₁₁ and 2·β₁₁ in the root lattice.
    """
    lam = compute_lambda("rat22")
    beta, order = construct_beta11(lam)
    assert [c[0] for c in lam.root_data.components] == ["E7", "E7", "D10"]

    simples = [list(s) for s in lam.root_data.all_simple_roots()]
    gram = [[lam.lattice.pairing(a, b) for b in simples] for a in simples]
    factors = exact.invariant_factors(gram)
    assert len(factors) == 24
    assert all(abs(f) in (1, 2) for f in factors)
    assert abs(math.prod(factors)) == 16
    assert lam.root_index == 4

    # v ∈ Λ_R iff appending it to the simple roots leaves the invariant
    # factors alone
    factors_r = exact.invariant_factors(simples)
    assert exact.invariant_factors(simples + [list(beta)]) != factors_r
    assert exact.invariant_factors(simples + [[2 * x for x in beta]]) == factors_r
    assert order == 2, f"computed coset order {order}"


def test_criterion_5_monodromy_identities():
    """NᵢNⱼ = 0, skew-symmetry, cycle annihilation, and primitivity of the
    operator span on every frame."""
    rng = random.Random(5)
    for kind in FRAME_KINDS:
        frame = build_frame(kind)
        ops = [picard_lefschetz(frame, i) for i in range(1, frame.k + 1)]
        for Ni in ops:
            for Nj in ops:
                prod = exact.mat_mul(Ni, Nj)
                assert all(all(x == 0 for x in row) for row in prod)
        for N in ops:
            for c in frame.cycles():
                assert not any(exact.mat_vec(N, c))
            for _ in range(5):
                x = [rng.randint(-4, 4) for _ in range(8)]
                y = [rng.randint(-4, 4) for _ in range(8)]
                nx, ny = exact.mat_vec(N, x), exact.mat_vec(N, y)
                assert exact.dot_gram(nx, U4_GRAM, y) + exact.dot_gram(x, U4_GRAM, ny) == 0
        rank = weight_data(operator_sum(ops))
        assert rank == 4
        primitive, facs = primitivity_certificate(frame)
        assert primitive and facs == [1] * frame.k


def test_criterion_6_pair_index_patterns():
    """The sublattice-index pattern of the cycle pairs separates the frames:
    [1], [2], [1,2,2], [1,1,2]."""
    assert pair_index_pattern(build_frame("rational")) == [1]
    assert pair_index_pattern(build_frame("enriques")) == [2]
    assert pair_index_pattern(build_frame("ell111")) == [1, 2, 2]
    assert pair_index_pattern(build_frame("ell211")) == [1, 1, 2]
    for label in ("rat11", "rat21", "rat22"):
        assert pair_index_pattern(build_frame(label)) == [1]


@pytest.mark.parametrize("seed", range(20))
def test_criterion_7_extension_map_structure(seed):
    """ψ kills ξ and [L], is additive, and confines the expected number of
    root summands to a single Jacobian factor, across 20 generic seeds."""
    for label, single in [("rat11", 2), ("rat21", 1)]:
        assert torelli.gen_fixture(label, seed)[0].single_factor_count() == single
    model = build_stratum_model("enriques")
    markings = compute_JW1(build_frame("enriques"))
    psi = extension_map(model, generate_restriction_data(model, seed))

    def assembled(v):
        # ψ(v) = Σᵢ Fᵢ·ψᵢ(v) in JW₁, with ψᵢ(v) = Mᵢv/dᵢ mod ℤ²
        total = TorusPoint((0,) * 4)
        for f, (m, d) in zip(markings, psi):
            p = [Fraction(t, d) for t in exact.mat_vec(m, v)]
            total = total + TorusPoint(tuple(exact.mat_vec(f, p)))
        return total

    rng = random.Random(seed)
    a = [rng.randint(-2, 2) for _ in range(24)]
    b = [rng.randint(-2, 2) for _ in range(24)]
    s = [x + y for x, y in zip(a, b)]
    assert assembled(s) == assembled(a) + assembled(b)


def test_criterion_8_torelli_round_trips():
    """100 seeded point configurations with n ∈ {8, 11} round-trip through
    the period map exactly, in under 1 second total."""
    T = RationalTorus(2)
    rng = random.Random(8)
    start = time.monotonic()
    for trial in range(100):
        n = 8 if trial % 2 == 0 else 11
        cfg = torelli.AnticanonicalConfig(
            T,
            tuple(
                TorusPoint((Fraction(rng.randrange(97), 97), Fraction(rng.randrange(97), 97)))
                for _ in range(n)
            ),
        )
        per = torelli.period_map(cfg)
        rec = torelli.reconstruct_points(per)
        assert len(rec.orbit) == 9
        assert any(c.points == cfg.points for c in rec.orbit)
    assert time.monotonic() - start < 1.0


def test_criterion_9_classifier_confusion_matrix():
    """The classifier returns the generating label on every fixture: the
    6×6 confusion matrix over 10 seeds per stratum is 10·Id."""
    for label in STRATUM_LABELS:
        row = {}
        for seed in range(10):
            got, _ = torelli.classify_stratum(torelli.gen_fixture(label, seed)[0])
            row[got] = row.get(got, 0) + 1
        assert row == {label: 10}, label


def test_criterion_10_reconstruct_111():
    """The (1,1,1) reconstruction recovers both generating point
    configurations up to 3-torsion translation and the curve swap."""
    for seed in range(5):
        ds, desc = torelli.gen_fixture("ell111", seed)
        rec = torelli.reconstruct_111(ds)
        assert rec.distinguished_pair == (0, 1)
        gens = [desc["z_configs"][i] for i in rec.distinguished_pair]
        assert torelli.descriptors_equivalent(rec, gens)


def test_criterion_11_normal_forms():
    """50 seeded deformations reduce to the standard form (all seven
    normalizable coefficients zero, t⁰ part untouched), and the residual
    slice carries ℂ*-weights (1,2,2,3,3,4,4,5,6)."""
    killed = [
        (1, 1, 0, 1), (0, 1, 2, 1), (0, 1, 1, 2), (0, 1, 0, 3),
        (2, 0, 1, 1), (2, 0, 0, 2), (1, 0, 3, 1),
    ]
    for seed in range(50):
        poly = random_deformation(seed)
        result = reduce_to_standard_form(poly)
        for exp in killed:
            assert result.polynomial.coefficient(exp) == 0
        assert result.polynomial.t_part(0) == poly.t_part(0)
        assert len(slice_coordinates(result)) == 9
    assert [w for _, _, w in cstar_weights("g2")] == [1, 2, 2, 3, 3, 4, 4, 5, 6]


def test_criterion_12_exceptional_counts():
    """Exceptional-class counts 6, 10, 16, 27, 56, 240 for n = 3..8, with
    the direct search and the Weyl-orbit oracle in agreement, under 10s;
    the enumeration refuses n ≥ 9 where the set is infinite."""
    expected = {3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
    start = time.monotonic()
    for n, count in expected.items():
        direct = torelli.enumerate_exceptional(n)
        assert len(direct) == count
        assert set(direct) == set(torelli.exceptional_via_weyl_orbit(n))
    assert time.monotonic() - start < 10.0
    with pytest.raises(ValueError):
        torelli.enumerate_exceptional(9)
