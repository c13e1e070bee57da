import dataclasses
import random

import pytest

from istrata import exact
from istrata.monodromy import (
    U4_GRAM,
    W1_BASIS,
    _check_frame,
    build_frame,
    operator_sum,
    pair_index_pattern,
    pair_indices,
    picard_lefschetz,
    primitivity_certificate,
    weight_data,
)

FRAME_KINDS = ["rational", "enriques", "ell111", "ell211"]


# α̃₂* = f₂ on the ell111 frame: ⟨f₂, ·⟩ reads the e₂-coordinate, and the
# cycles α̃₁, β̃₁, α̃₂, β̃₂ there are e₁, e₃, e₂, e₄ (test_duals_pair_correctly)
ALPHA2_DUAL = (0, 0, 0, 0, 0, 1, 0, 0)


def frame_ops(frame):
    return [picard_lefschetz(frame, i) for i in range(1, frame.k + 1)]


def pair(x, y):
    return exact.dot_gram(x, U4_GRAM, y)


def apply(N, x):
    return tuple(exact.mat_vec(N, x))


class TestFrames:
    def test_all_frames_build(self):
        for kind in FRAME_KINDS:
            f = build_frame(kind)
            assert all(not any(c[4:]) for c in f.cycles())

    def test_broken_ell111_relation_is_verification_error(self):
        # a check that must still run under python -O
        f = build_frame("ell111")
        a1, a2, _ = f.alphas
        with pytest.raises(exact.VerificationError, match="α₃"):
            _check_frame(dataclasses.replace(f, alphas=(a1, a2, a1)))

    def test_cycle_with_f_part_is_verification_error(self):
        f = build_frame("rational")
        a1, a2 = f.alphas
        off = a2[:5] + (1,) + a2[6:]  # α̃₂ + f₂
        with pytest.raises(exact.VerificationError, match="f-part"):
            _check_frame(dataclasses.replace(f, alphas=(a1, off)))

    def test_singular_e_block_is_verification_error(self):
        # β̃₂ = α̃₁ + β̃₁ still lies in W1 but no longer spans it with the others
        f = build_frame("rational")
        b1, _ = f.betas
        b2 = tuple(x + y for x, y in zip(f.alphas[0], b1))
        with pytest.raises(exact.VerificationError, match="span W1"):
            _check_frame(dataclasses.replace(f, betas=(b1, b2)))

    def test_stratum_aliases(self):
        assert build_frame("rat11").label == "rational"
        assert build_frame("rat22").label == "rational"
        assert build_frame("enriques").label == "enriques"

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            build_frame("nope")

    def test_w1_isotropic(self):
        for a in W1_BASIS:
            for b in W1_BASIS:
                assert pair(a, b) == 0

    def test_duals_pair_correctly(self):
        f = build_frame("ell111")
        four = [f.alphas[0], f.betas[0], f.alphas[1], f.betas[1]]
        assert [pair(ALPHA2_DUAL, c) for c in four] == [0, 0, 1, 0]


class TestOperators:
    def test_formula_on_random_vectors(self):
        rng = random.Random(13)
        for kind in FRAME_KINDS:
            f = build_frame(kind)
            for i in range(1, f.k + 1):
                N = picard_lefschetz(f, i)
                a, b = f.alphas[i - 1], f.betas[i - 1]
                for _ in range(10):
                    x = [rng.randint(-5, 5) for _ in range(8)]
                    expected = tuple(
                        pair(x, b) * ai - pair(x, a) * bi for ai, bi in zip(a, b)
                    )
                    assert apply(N, x) == expected

    def test_squares_and_products_vanish(self):
        for kind in FRAME_KINDS:
            f = build_frame(kind)
            ops = frame_ops(f)
            for Ni in ops:
                for Nj in ops:
                    prod = exact.mat_mul(Ni, Nj)
                    assert all(all(x == 0 for x in row) for row in prod)

    def test_kills_cycles(self):
        for kind in FRAME_KINDS:
            f = build_frame(kind)
            for N in frame_ops(f):
                for c in f.cycles():
                    assert not any(apply(N, c))

    def test_skew_symmetry(self):
        rng = random.Random(14)
        for kind in FRAME_KINDS:
            f = build_frame(kind)
            for N in frame_ops(f):
                for _ in range(10):
                    x = [rng.randint(-5, 5) for _ in range(8)]
                    y = [rng.randint(-5, 5) for _ in range(8)]
                    assert pair(apply(N, x), y) + pair(x, apply(N, y)) == 0

    def test_image_is_primitive_rank2_in_w1(self):
        for kind in FRAME_KINDS:
            f = build_frame(kind)
            # W1_BASIS is e₁..e₄, so W₁ membership is a zero f-part
            assert W1_BASIS == tuple(tuple(int(t == i) for t in range(8)) for i in range(4))
            for i in range(1, f.k + 1):
                span = [list(f.alphas[i - 1]), list(f.betas[i - 1])]
                assert exact.invariant_factors(span) == [1, 1]
                for v in span:
                    assert not any(v[4:])

    def test_dual_evaluations(self):
        f = build_frame("ell111")
        N2 = picard_lefschetz(f, 2)
        N3 = picard_lefschetz(f, 3)
        assert apply(N2, ALPHA2_DUAL) == tuple(-b for b in f.betas[1])
        b1, b2 = f.betas[0], f.betas[1]
        assert apply(N3, ALPHA2_DUAL) == tuple(-u - 2 * v for u, v in zip(b1, b2))

    def test_symbolic_lambda_combination(self):
        # Σλᵢ Nᵢ(α̃₂*) = (−λ₂−2λ₃)β̃₂ − λ₃β̃₁ for arbitrary integer λ
        f = build_frame("ell111")
        ops = frame_ops(f)
        rng = random.Random(15)
        b1, b2 = f.betas[0], f.betas[1]
        for _ in range(20):
            lam = [rng.randint(-9, 9) for _ in range(3)]
            scaled = [[[c * x for x in row] for row in N] for c, N in zip(lam, ops)]
            got = apply(operator_sum(scaled), ALPHA2_DUAL)
            want = tuple(
                (-lam[1] - 2 * lam[2]) * v + (-lam[2]) * u for u, v in zip(b1, b2)
            )
            assert got == want


class TestWeightData:
    # weight_data returns only the rank; the kernels come from the Smith form
    def test_full_sum_rank4(self):
        for kind in FRAME_KINDS:
            f = build_frame(kind)
            N = operator_sum(frame_ops(f))
            assert weight_data(N) == 4
            assert len(exact.integer_kernel(N)) == 4

    def test_single_operator_rank2(self):
        f = build_frame("rational")
        assert weight_data(picard_lefschetz(f, 1)) == 2

    def test_zero_operator(self):
        zero = ((0,) * 8,) * 8
        assert weight_data(zero) == 0
        assert len(exact.integer_kernel(zero)) == 8

    def test_kernel_is_intersection(self):
        for kind in FRAME_KINDS:
            f = build_frame(kind)
            ops = frame_ops(f)
            for v in exact.integer_kernel(operator_sum(ops)):
                for Ni in ops:
                    assert not any(apply(Ni, v))

    def test_nonnilpotent_rejected(self):
        with pytest.raises(ValueError):
            weight_data(exact.identity_matrix(8))


class TestPrimitivity:
    def test_all_frames_primitive(self):
        for kind in FRAME_KINDS:
            f = build_frame(kind)
            ok, facs = primitivity_certificate(f)
            assert ok and facs == [1] * f.k

    def test_doubled_operator_not_primitive(self):
        # replacing N₂ by 2N₂ introduces an invariant factor 2
        f = build_frame("rational")
        ops = frame_ops(f)
        cols = [[x for row in op for x in row] for op in ops]
        cols[1] = [2 * x for x in cols[1]]
        facs = exact.invariant_factors(exact.transpose(cols))
        assert 2 in facs


class TestPattern:
    def test_patterns(self):
        assert pair_index_pattern(build_frame("rational")) == [1]
        assert pair_index_pattern(build_frame("enriques")) == [2]
        assert pair_index_pattern(build_frame("ell111")) == [1, 2, 2]
        assert pair_index_pattern(build_frame("ell211")) == [1, 1, 2]

    def test_pair_indices_in_combinations_order(self):
        assert pair_indices(build_frame("enriques")) == (((0, 1), 2),)
        assert pair_indices(build_frame("ell111")) == (
            ((0, 1), 1), ((0, 2), 2), ((1, 2), 2),
        )
        assert pair_indices(build_frame("ell211")) == (
            ((0, 1), 1), ((0, 2), 1), ((1, 2), 2),
        )

    def test_dependent_pair_rejected(self):
        # (α̃₁, β̃₁) repeated as the second pair spans only rank 2
        f = build_frame("rational")
        g = dataclasses.replace(f, alphas=(f.alphas[0],) * 2, betas=(f.betas[0],) * 2)
        with pytest.raises(ValueError, match="rank 4"):
            pair_indices(g)

    def test_label_permutation_invariance(self):
        # permuting the (α̃ᵢ, β̃ᵢ) pairs leaves the multiset unchanged
        import itertools

        f = build_frame("ell211")
        base = pair_index_pattern(f)
        for perm in itertools.permutations(range(3)):
            g = dataclasses.replace(
                f,
                alphas=tuple(f.alphas[i] for i in perm),
                betas=tuple(f.betas[i] for i in perm),
            )
            assert pair_index_pattern(g) == base
