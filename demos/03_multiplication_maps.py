"""Tour 3: the multiplication matrices mu_n, rank verdicts, and the
character-block decomposition.

Run with:  python demos/03_multiplication_maps.py
"""

import numpy as np

from thetamu import (
    gamma_blocks,
    random_period_matrix,
    surjectivity_verdict,
    validate_polarized,
)
from thetamu.reference import mu_matrix
from thetamu.theta import lex_vectors

# --- an elliptic curve with a degree-3 polarization ---------------------------
# h0(L) = 3 > 2 = the threshold, so the multiplication map
# H0(L) (x) H0(L) -> H0(L^2) should be onto; its matrix is 6 x 9.
pav = validate_polarized(random_period_matrix(1, 101), (3,), simple_asserted=True)
# mu_1 is exact: each product of two level-1 sections expands in the level-2
# basis with level-2 theta constants as coefficients, (n+1)^g = 2 per column.
# The dense matrix is the reference layer's; the verdict never forms it.
mu = mu_matrix(pav, 1)
nonzeros = sorted(set(np.count_nonzero(mu, axis=0).tolist()))
print(f"mu_1 matrix: {mu.shape[0]} x {mu.shape[1]}, "
      f"nonzeros per column: {nonzeros}")

verdict = surjectivity_verdict(pav, 1)
print(f"verdict: {verdict.verdict.value}, rank {verdict.rank}/{verdict.required_rank}, "
      f"gap ratio {verdict.gap_ratio:.1e}")
print("singular values:", np.array2string(np.asarray(verdict.singular_values), precision=3))

# surjectivity propagates upward in the level; here both verdicts say so:
up = surjectivity_verdict(pav, 2)
print(f"mu_1: {verdict.verdict.value}, mu_2: {up.verdict.value} "
      f"(rank {up.rank}/{up.required_rank})")

# --- the principal surface fails for dimension reasons ------------------------
principal = validate_polarized(random_period_matrix(2, 103), (1, 1), simple_asserted=True)
shortcut = surjectivity_verdict(principal, 1)
print(f"\nprincipal surface: {shortcut.verdict.value} "
      f"(source dim {principal.h0(1) ** 2} < target dim {principal.h0(2)})")

# --- character blocks -----------------------------------------------------------
# K(L)_1 acts on every level by permuting characteristics, and multiplication
# intertwines the actions, so mu_1 becomes block diagonal in the eigenbasis:
# one block per character gamma of K(L)_1, each with (n+1)^g rows.  Translations
# by K(L)_2 and [-1] make the blocks of one orbit (gamma mod gcd(n+1, d) up to
# sign) unitarily equivalent, so one block per orbit is built, straight from
# the nonzeros of the 6 x 3 columns of mu_1 at level-1 index 0.  Each repeated
# over its orbit, their spectra are the spectrum of the dense 6 x 9 matrix.
blocks = gamma_blocks(pav, 1)
dense = np.linalg.svd(mu, compute_uv=False)
agreement = np.abs(blocks.singular_values - dense).max() / dense[0]
print(f"\n{len(blocks.ranks)} blocks in {len(blocks.matrices)} orbit(s), "
      f"block spectra vs dense spectrum {agreement:.1e}")
characters = lex_vectors(pav.divisors)
for i, (block, rep) in enumerate(zip(blocks.matrices, blocks.representatives)):
    size = int((blocks.orbit == i).sum())
    print(f"  orbit of character {characters[rep].tolist()}: {size} characters, "
          f"block shape {block.shape}, rank {blocks.ranks[rep]}")
print(f"rank sum {blocks.rank_sum} = full rank {blocks.total_rank}")
# with d = 4, gcd(n+1, 4) = 2 splits the characters 0..3 into two orbits,
# {0, 2} and {1, 3}: two blocks are built for four
quartic = validate_polarized(random_period_matrix(1, 102), (4,), simple_asserted=True)
print("type (4), orbit of each character:", gamma_blocks(quartic, 1).orbit.tolist())

# --- a (3,3)-polarized surface: the section-count criterion in action ----------
surface = validate_polarized(random_period_matrix(2, 104), (3, 3), simple_asserted=True)
v = surjectivity_verdict(surface, 1)
print(f"\n(3,3) surface: {v.verdict.value}, rank {v.rank}/{v.required_rank} "
      f"(9 sections > threshold 8)")
