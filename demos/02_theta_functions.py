"""Tour 2: canonical theta bases, the factor of automorphy, the group action,
and the invariant section of M^n.

Run with:  python demos/02_theta_functions.py
"""

import math

import numpy as np

from thetamu import (
    ThetaBasis,
    ThetaTilde,
    random_period_matrix,
    theta_constants,
    validate_polarized,
)
from thetamu.reference import automorphy_factor, quasi_periodicity_residual, translate_action
from thetamu.torsion import TorsionPoint, k_group
from thetamu.theta import constants_radius

# --- evaluation and a closed-form cross-check --------------------------------
# A level-m section is labelled by its integer vector k, 0 <= k_i < m d_i,
# with characteristic c = k/(m d); sections are in lexicographic order of k.
pav = validate_polarized(np.array([[1j]]), (1,), simple_asserted=True)
basis = ThetaBasis(pav, 1)
value = basis.eval([0], np.zeros(1))
closed = math.pi ** 0.25 / math.gamma(0.75)
print(f"theta(0; i) = {value.real:.15f}")
print(f"pi^(1/4)/Gamma(3/4) = {closed:.15f}   (diff {abs(value - closed):.1e})")

# --- truncation --------------------------------------------------------------
# Every lattice sum is cut at the smallest cube radius whose dropped terms are
# provably below eps times the growth envelope.  Constants (z = 0) need less:
# the Gaussian centre is then the characteristic alone, so theta_constants
# sums a smaller cube than the basis, whose radius covers any reduced point.
# The two agree to rounding.
pav122 = validate_polarized(random_period_matrix(3, 301), (1, 2, 2))
print(f"\n(1,2,2), lambda_min = {pav122.lambda_min:.2f}:")
for m in (1, 2, 3, 6):
    bm = ThetaBasis(pav122, m)
    r, rc = bm.radius, constants_radius(pav122, m)
    gap = np.abs(theta_constants(pav122, m) - bm.eval_matrix(np.zeros((1, 3)))[:, 0]).max()
    print(f"level {m}: basis radius {r} ({(2 * r + 1) ** 3} points), constants radius {rc} "
          f"({(2 * rc + 1) ** 3} points), largest difference at z = 0: {gap:.1e}")

# --- quasi-periodicity --------------------------------------------------------
# Sections of L^m transform under the period lattice by the level-m cocycle.
pav3 = validate_polarized(np.array([[0.25 + 1.0j]]), (3,))
k = [1]  # c = 1/6 at level 2 on type (3)
z = np.array([0.31 + 0.22j])
lam = pav3.lattice_vector([1], [-2])
print(f"\nlattice residual: {quasi_periodicity_residual(pav3, 2, k, lam, z):.2e}")
off = pav3.matrix @ np.array([0.5])  # not a period
print(f"off-lattice residual: {quasi_periodicity_residual(pav3, 2, k, off, z):.2f}")
print(f"factor for a real period is trivial: {automorphy_factor(pav3, 2, np.array([3.0 + 0j]), z):.1f}")

# --- the normalized theta-group action ----------------------------------------
# Points Omega a in K(L^m)_1 permute the labels, k -> k + m d a mod m d, once
# the cocycle factor is stripped; here m = 2 on the square elliptic curve
# swaps the two.
pav1 = validate_polarized(np.array([[1j]]), (1,))
x = TorsionPoint([0.5], [0], (1,))
source = (0,)
target, factor = translate_action(pav1, 2, x, source)
print(f"\ntranslate by Omega/2 at level 2: k = {source} -> {target}, "
      f"c = k/2: {[k / 2 for k in source]} -> {[k / 2 for k in target]}")
b2 = ThetaBasis(pav1, 2)
lhs = b2.eval(source, z + x.to_complex(pav1))
rhs = factor(z) * b2.eval(target, z)
print(f"numeric check of the permuted identity: {abs(lhs - rhs):.2e}")

# --- the invariant section ------------------------------------------------------
# theta~ spans the unique line of H^0(M^n) fixed by the normalized K(M^n)_1
# action; it is the theta series of the quotient period matrix Omega/n and
# equals the sum of all level-n basis elements.
n = 3
tilde = ThetaTilde(pav1, n)
zr = np.array([0.4 + 0.0j])
print(f"\ntheta~(z) = {tilde.eval(zr):.12f}")
print(f"sum of level-{n} basis = {ThetaBasis(pav1, n).eval_matrix(zr[None, :]).sum():.12f}")
worst = 0.0
for point in k_group(pav1, n).k1:
    a = np.array([float(q) for q in point.a])
    strip = np.exp(-1j * math.pi * n * (a @ pav1.matrix @ a) - 2j * math.pi * n * (zr @ a))
    worst = max(worst, abs(tilde.eval(zr + pav1.matrix @ a) - strip * tilde.eval(zr)))
print(f"worst invariance defect over K(M^{n})_1: {worst:.2e}")
