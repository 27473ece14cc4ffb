"""Tour 3: the multiplication matrices mu_n, rank verdicts, and the
character-block decomposition.

Run with:  python demos/03_multiplication_maps.py
"""

import numpy as np

from thetamu import (
    gamma_blocks,
    monotonicity_check,
    mu_matrix,
    random_period_matrix,
    surjectivity_verdict,
    validate_polarized,
)

# --- an elliptic curve with a degree-3 polarization ---------------------------
# h0(L) = 3 > 2 = the threshold, so the multiplication map
# H0(L) (x) H0(L) -> H0(L^2) should be onto; its matrix is 6 x 9.
pav = validate_polarized(random_period_matrix(1, 101), (3,), simple_asserted=True)
# mu_1 is exact: each product of two level-1 sections expands in the level-2
# basis with level-2 theta constants as coefficients, (n+1)^g = 2 per column.
mu = mu_matrix(pav, 1)
nonzeros = sorted(set(np.count_nonzero(mu.matrix, axis=0).tolist()))
print(f"mu_1 matrix: {mu.matrix.shape[0]} x {mu.matrix.shape[1]}, "
      f"nonzeros per column: {nonzeros}")

verdict = surjectivity_verdict(pav, 1)
print(f"verdict: {verdict.verdict.value}, rank {verdict.rank}/{verdict.required_rank}, "
      f"gap ratio {verdict.gap_ratio:.1e}")
print("singular values:", np.array2string(np.asarray(verdict.singular_values), precision=3))

# surjectivity propagates upward in the level, instance-checked by rank:
print("mu_1 onto implies mu_2 onto here:", monotonicity_check(pav, 1))

# --- the principal surface fails for dimension reasons ------------------------
principal = validate_polarized(random_period_matrix(2, 103), (1, 1), simple_asserted=True)
shortcut = surjectivity_verdict(principal, 1)
print(f"\nprincipal surface: {shortcut.verdict.value} "
      f"(source dim {principal.h0(1) ** 2} < target dim {principal.h0(2)})")

# --- character blocks -----------------------------------------------------------
# K(L)_1 acts on every level by permuting characteristics, and multiplication
# intertwines the actions, so mu_1 becomes block diagonal in the eigenbasis:
# one block per character of K(L)_1, each with (n+1)^g rows.  The blocks are
# a group DFT of the 6 x 3 columns of mu_1 at level-1 index 0, so together
# their spectra are the spectrum of the dense 6 x 9 matrix.
blocks = gamma_blocks(pav, 1)
dense = np.linalg.svd(mu.matrix, compute_uv=False)
agreement = np.abs(blocks.singular_values - dense).max() / dense[0]
print(f"\n{len(blocks.ranks)} blocks, block spectra vs dense spectrum {agreement:.1e}")
for i, (block, rank) in enumerate(zip(blocks.matrices, blocks.ranks)):
    print(f"  character #{i}: shape {block.shape}, rank {rank}")
print(f"rank sum {blocks.rank_sum} = full rank {blocks.total_rank}")

# --- a (3,3)-polarized surface: the section-count criterion in action ----------
surface = validate_polarized(random_period_matrix(2, 104), (3, 3), simple_asserted=True)
v = surjectivity_verdict(surface, 1)
print(f"\n(3,3) surface: {v.verdict.value}, rank {v.rank}/{v.required_rank} "
      f"(9 sections > threshold 8)")
