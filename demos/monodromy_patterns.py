"""Picard–Lefschetz operators and the pair-index pattern.

Each stratum carries vanishing cycles (α̃ᵢ, β̃ᵢ) spanning an isotropic
rank-4 sublattice W₁ of a U⁴ frame.  The operators Nᵢ(ξ) = ⟨ξ,β̃ᵢ⟩α̃ᵢ −
⟨ξ,α̃ᵢ⟩β̃ᵢ satisfy NᵢNⱼ = 0; the multiset of indices [W₁ : span of a
cycle pair] distinguishes the four frame kinds.

Run:  python3 demos/monodromy_patterns.py
"""

from istrata import exact
from istrata.monodromy import (
    build_frame,
    operator_sum,
    pair_index_pattern,
    picard_lefschetz,
    primitivity_certificate,
    weight_data,
)


def main():
    for kind in ["rational", "enriques", "ell111", "ell211"]:
        frame = build_frame(kind)
        ops = [picard_lefschetz(frame, i) for i in range(1, frame.k + 1)]
        print(f"=== {kind} (k = {frame.k}) ===")
        for i, (a, b) in enumerate(zip(frame.alphas, frame.betas), start=1):
            print(f"  α̃{i} = {a}")
            print(f"  β̃{i} = {b}")
        # products vanish pairwise
        for Ni in ops:
            for Nj in ops:
                prod = exact.mat_mul(Ni, Nj)
                assert all(all(x == 0 for x in row) for row in prod)
        print("  NᵢNⱼ = 0 for all i, j  ✓")
        rank = weight_data(operator_sum(ops))
        primitive, facs = primitivity_certificate(frame)
        print(f"  rank Im(ΣNᵢ) = {rank}, operator span primitive: {primitive}")
        print(f"  pair-index pattern: {pair_index_pattern(frame)}")
        print()
    print("patterns [1], [2], [1,2,2], [1,1,2] separate the frame kinds.")


if __name__ == "__main__":
    main()
