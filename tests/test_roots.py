import random
from fractions import Fraction

import pytest

from istrata import exact
from istrata.lattices import IntegralLattice, direct_sum, lattice_predicates, orthogonal_complement
from istrata.roots import (
    _label_from_roots,
    ade_root_count,
    build_En_lattice,
    connection_index,
    decompose_root_system,
    enumerate_roots,
    fundamental_weight,
    highest_root_coefficients,
    niemeier_identify,
    weight_self_pairing,
    weyl_reflect,
)


def en_root_sublattice(n):
    L, h, eps, kappa, alphas = build_En_lattice(n)
    g = [[L.pairing(a, b) for b in alphas] for a in alphas]
    return IntegralLattice(g)


E8 = en_root_sublattice(8)
E7 = en_root_sublattice(7)
E6 = en_root_sublattice(6)


class TestEnumerate:
    def test_counts(self):
        assert len(enumerate_roots(E8)) * 2 == 240
        assert len(enumerate_roots(E7)) * 2 == 126
        assert len(enumerate_roots(E6)) * 2 == 72

    def test_rank_one_no_roots(self):
        assert enumerate_roots(IntegralLattice([[-4]])) == []

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            enumerate_roots(IntegralLattice([[0, 1], [1, 0]]))

    @pytest.mark.parametrize(
        "gram", [[[0]], [[-2, 3], [3, -2]], [[-2, 0], [0, 0]]],
        ids=["zero", "indefinite", "semidefinite"],
    )
    def test_not_negative_definite_message(self, gram):
        with pytest.raises(ValueError, match="^lattice is not negative definite$"):
            enumerate_roots(IntegralLattice(gram))

    def test_all_norm_minus_two_once(self):
        rs = enumerate_roots(E6)
        assert len(set(rs)) == len(rs)
        for r in rs:
            assert E6.norm(r) == -2
            assert tuple(-x for x in r) not in set(rs)

    def test_basis_change_invariance(self):
        rng = random.Random(7)
        g0 = E7.gram
        u = exact.identity_matrix(7)
        for _ in range(30):
            i, j = rng.sample(range(7), 2)
            c = rng.randint(-2, 2)
            for t in range(7):
                u[i][t] += c * u[j][t]
        g = exact.mat_mul(exact.mat_mul(u, g0), exact.transpose(u))
        assert len(enumerate_roots(IntegralLattice(g))) * 2 == 126


class TestDecompose:
    def test_E8_cubed(self):
        L = direct_sum(E8, E8, E8)
        dec = decompose_root_system(L, enumerate_roots(L))
        assert dec.label == "E8+E8+E8"
        assert dec.total_root_count == 720

    def test_single_A1(self):
        L = IntegralLattice([[-2]])
        dec = decompose_root_system(L, enumerate_roots(L))
        assert dec.label == "A1"
        assert dec.total_root_count == 2

    def test_mixed_sum_sorted_label(self):
        A2 = IntegralLattice([[-2, 1], [1, -2]])
        D4 = IntegralLattice(
            [[-2, 1, 0, 0], [1, -2, 1, 1], [0, 1, -2, 0], [0, 1, 0, -2]]
        )
        L = direct_sum(A2, D4, E6)
        dec = decompose_root_system(L, enumerate_roots(L))
        assert dec.label == "E6+D4+A2"
        assert dec.total_root_count == 72 + 24 + 6

    def test_simple_roots_give_cartan(self):
        dec = decompose_root_system(E7, enumerate_roots(E7))
        (label, simples), = dec.components
        assert label == "E7"
        # negated Cartan: diagonal -2, off-diagonal 0/1, connected per E7 graph
        g = [[E7.pairing(a, b) for b in simples] for a in simples]
        assert all(g[i][i] == -2 for i in range(7))
        # Bourbaki adjacency of E7: 1-3, 3-4, 2-4, 4-5, 5-6, 6-7
        edges = {
            (i + 1, j + 1) for i in range(7) for j in range(i + 1, 7) if g[i][j]
        }
        assert edges == {(1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7)}

    def test_Dn_bourbaki_adjacency(self):
        D5 = IntegralLattice(
            [
                [-2, 1, 0, 0, 0],
                [1, -2, 1, 0, 0],
                [0, 1, -2, 1, 1],
                [0, 0, 1, -2, 0],
                [0, 0, 1, 0, -2],
            ]
        )
        dec = decompose_root_system(D5, enumerate_roots(D5))
        (label, simples), = dec.components
        assert label == "D5"
        g = [[D5.pairing(a, b) for b in simples] for a in simples]
        edges = {
            (i + 1, j + 1) for i in range(5) for j in range(i + 1, 5) if g[i][j]
        }
        assert edges == {(1, 2), (2, 3), (3, 4), (3, 5)}

    def test_An_path_order(self):
        A4 = IntegralLattice(
            [[-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [0, 0, 1, -2]]
        )
        dec = decompose_root_system(A4, enumerate_roots(A4))
        (label, simples), = dec.components
        assert label == "A4"
        for a, b in zip(simples, simples[1:]):
            assert A4.pairing(a, b) == 1

    def test_root_count_certificate_rejects_unclosed_set(self):
        # A2 without α + β: the two simple roots still form an A2 diagram,
        # whose 6 roots differ from the 4 passed in
        A2 = IntegralLattice([[-2, 1], [1, -2]])
        with pytest.raises(exact.VerificationError, match="root counts"):
            decompose_root_system(A2, [(0, 1), (1, 0)])

    def test_closed_form_counts(self):
        for L, label in [(E6, "E6"), (E7, "E7"), (E8, "E8")]:
            assert len(enumerate_roots(L)) * 2 == ade_root_count(label)
        assert ade_root_count("A5") == 30
        assert ade_root_count("D10") == 180

    def test_weyl_reflection_permutes_roots(self):
        for L in (E6,):
            rs = enumerate_roots(L)
            full = set(rs) | {tuple(-x for x in r) for r in rs}
            dec = decompose_root_system(L, rs)
            for s in dec.all_simple_roots():
                assert {weyl_reflect(L, s, r) for r in full} == full


class TestNiemeier:
    def test_E8_cubed_label(self):
        L = direct_sum(E8, E8, E8)
        assert niemeier_identify(L) == "E8+E8+E8"

    def test_predicate_failure(self):
        with pytest.raises(ValueError):
            niemeier_identify(E8)  # rank 8

    def test_low_rank_roots_contradiction(self):
        # fabricated: a root set spanning rank < 24 inside a fake rank-24 shell
        g = [[-2 if i == j else 0 for j in range(24)] for i in range(24)]
        L = IntegralLattice(g)
        root = tuple([1] + [0] * 23)
        with pytest.raises(ValueError, match="rank < 24"):
            _label_from_roots(L, [root])


class TestWeights:
    def test_self_pairings(self):
        dec7 = decompose_root_system(E7, enumerate_roots(E7))
        w7 = fundamental_weight(dec7, 0, 7)
        assert weight_self_pairing(dec7, w7) == Fraction(-3, 2)

        A1 = IntegralLattice([[-2]])
        dec1 = decompose_root_system(A1, enumerate_roots(A1))
        w1 = fundamental_weight(dec1, 0, 1)
        assert weight_self_pairing(dec1, w1) == Fraction(-1, 2)
        # ϖ₁ = −α/2: the sign convention ϖ_j·α_i = +δ_{ij} in negative
        # definite signature puts the weight on the −α side
        assert w1 == (Fraction(-1, 2),)
        assert dec1.lattice.pairing(w1, (1,)) == 1

    def test_D10_weight9(self):
        # D10 Gram in Bourbaki order
        n = 10
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = -2
        for i in range(n - 3):
            g[i][i + 1] = g[i + 1][i] = 1
        g[n - 4][n - 2] = g[n - 2][n - 4] = 0
        g[n - 3][n - 2] = g[n - 2][n - 3] = 1
        g[n - 3][n - 1] = g[n - 1][n - 3] = 1
        D10 = IntegralLattice(g)
        dec = decompose_root_system(D10, enumerate_roots(D10))
        assert dec.label == "D10"
        w9 = fundamental_weight(dec, 0, 9)
        assert weight_self_pairing(dec, w9) == Fraction(-5, 2)

    def test_delta_pairings(self):
        dec = decompose_root_system(E6, enumerate_roots(E6))
        w = fundamental_weight(dec, 0, 3)
        _, simples = dec.components[0]
        g = E6.gram
        for i, s in enumerate(simples, start=1):
            got = exact.dot_gram(list(w), g, list(s))
            assert got == (1 if i == 3 else 0)


class TestEnLattice:
    def test_discriminants(self):
        for n, disc in [(6, 3), (7, 2), (8, 1)]:
            L, h, eps, kappa, alphas = build_En_lattice(n)
            basis, _ = orthogonal_complement(L, [kappa])
            g = [[L.pairing(a, b) for b in basis] for a in basis]
            is_even, _, d, _ = lattice_predicates(IntegralLattice(g))
            assert is_even and d == disc

    def test_alpha_norms_and_span(self):
        for n in range(3, 12):
            L, h, eps, kappa, alphas = build_En_lattice(n)
            for a in alphas:
                assert L.norm(a) == -2
                assert L.pairing(a, kappa) == 0
            assert len(exact.pivot_columns([list(a) for a in alphas])) == n

    def test_bounds(self):
        with pytest.raises(ValueError):
            build_En_lattice(2)
        with pytest.raises(ValueError):
            build_En_lattice(12)


class TestHighestRoot:
    def test_E8(self):
        dec = decompose_root_system(E8, enumerate_roots(E8))
        coeffs = highest_root_coefficients(dec, 0)
        assert sorted(coeffs) == [2, 2, 3, 3, 4, 4, 5, 6]

    def test_A1(self):
        A1 = IntegralLattice([[-2]])
        dec = decompose_root_system(A1, enumerate_roots(A1))
        assert highest_root_coefficients(dec, 0) == (1,)

    def test_D10_coefficient_sum(self):
        n = 10
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = -2
        for i in range(n - 3):
            g[i][i + 1] = g[i + 1][i] = 1
        g[n - 3][n - 2] = g[n - 2][n - 3] = 1
        g[n - 3][n - 1] = g[n - 1][n - 3] = 1
        D10 = IntegralLattice(g)
        dec = decompose_root_system(D10, enumerate_roots(D10))
        assert sum(highest_root_coefficients(dec, 0)) == 17

    def test_connection_indices(self):
        assert connection_index("E8") == 1
        assert connection_index("E7") == 2
        assert connection_index("D10") == 4
        assert connection_index("A1") == 2
