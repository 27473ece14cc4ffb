"""Tour 1: build polarized abelian varieties and do the section counting.

Run with:  python demos/01_validate_and_count.py
"""

import numpy as np

from thetamu import (
    ValidationError,
    bound_prediction,
    random_period_matrix,
    torelli_bound,
    validate_polarized,
)

# --- validation -------------------------------------------------------------
# A variety is a period matrix (symmetric, Im > 0) plus elementary divisors;
# validation copies Omega into pav.matrix and keeps the type as pav.divisors.
pav = validate_polarized(np.array([[1j]]), (1,), simple_asserted=True)
print(f"canonical elliptic curve: g = {pav.g}, type {pav.divisors}")

# Violations are collected, not reported one at a time:
try:
    validate_polarized(np.array([[1.0, 0.0], [0.0, 1.0]]), (3, 2))
except ValidationError as err:
    print("rejected invalid input:")
    for violation in err.violations:
        print("  -", violation)

# Seeded random period matrices always validate (Im >= g * I by design).
surface = validate_polarized(random_period_matrix(2, 104), (3, 3), simple_asserted=True)
print(f"\nrandom (3,3)-polarized surface, lambda_min = {surface.lambda_min:.3f}")

# --- section counts and the surjectivity threshold ---------------------------
# h^0(A, L^m) = m^g d_1...d_g; the threshold for mu_n is ((n+1)/n)^g g!.
for m in (1, 2, 3):
    print(f"h0(L^{m}) = {surface.h0(m)}")

for g, n in ((2, 1), (3, 2), (4, 3)):
    bound = torelli_bound(g, n)
    print(f"g={g}, n={n}: bound = {bound.value} (need h0 >= {bound.least_sufficient})")

print("prediction for the (3,3) surface at n=1:", bound_prediction(surface, 1).value)
# 9 > 8, so the section-count criterion applies.

# --- the embedded-surface corollary ------------------------------------------
# For a smooth surface of geometric genus p_g embedded in its 3-dimensional
# Albanese, h^0 = p_g + 1 - 3, so p_g > 22 puts it over the g = 3 threshold.
for p_g in (20, 22, 23, 30):
    h = p_g + 1 - 3
    verdict = "over threshold" if h > 20 else "below threshold"
    print(f"p_g = {p_g}: h0 = {h} -> {verdict}")
