"""Tour 4: the Wirtinger coefficient matrix, the divisor-map diagram, the
spanning instances, and end-to-end Torelli reports.

Run with:  python demos/04_wirtinger_and_torelli.py
"""

import numpy as np

from thetamu import (
    catalog,
    crt_split,
    emit_report,
    k_group,
    random_period_matrix,
    run_scenario,
    sample_points,
    spanning_check,
    validate_polarized,
    wirtinger_matrix,
)

# --- the coefficient matrix of theta(u+nv) theta~(u-v) -------------------------
pav = validate_polarized(random_period_matrix(1, 106), (1,), simple_asserted=True)
n = 2
# The matrix is exact: c_{alpha beta} = 1 iff alpha + n beta = 0 mod Z^g.
# Sampling at seeded pairs (u, v) only checks the relation; the 5 points are
# where the divisor-map diagram below is checked, on the same theta evaluations.
points = sample_points(pav, 5, 2)
wirt = wirtinger_matrix(pav, n, seed=16, points=points)
print(f"full coefficient matrix: {wirt.full.shape}, entries {np.unique(wirt.full).tolist()}, "
      f"{int(wirt.full.sum(axis=1)[0])} ones per row")
print(f"sampled check of the relation: residual {wirt.fit_residual:.1e}")

# Columns repeat along the n-torsion split of beta, so a square matrix over
# representatives in K(M^{n+1})_1 determines everything; it is the identity.
# (For g = 1 the repetition reads: column j equals column j mod n+1.)
repeats = np.array_equal(wirt.full, np.tile(wirt.full[:, :n + 1], n))
print(f"columns repeat along the {n}-torsion shifts of beta: {repeats}")
svals = np.linalg.svd(wirt.reduced, compute_uv=False)
print(f"reduced {wirt.reduced.shape} matrix is the identity: "
      f"{np.array_equal(wirt.reduced, np.eye(n + 1))}, "
      f"sigma_min/sigma_max = {svals[-1] / svals[0]:.3f}")

beta = k_group(pav, n * (n + 1)).k1[1]
gamma, beta_prime = crt_split(pav, n, beta)
print(f"CRT split of beta = {beta.a}: n-part {gamma.a}, (n+1)-part {beta_prime.a}")

# --- the diagram: divisor map vs coefficient form -------------------------------
# Coordinates of the divisor of u -> theta(u+nb) theta~(u-b) agree projectively
# with the Wirtinger image of the evaluation vector at b.  The build above fit
# the coordinates of every point in one solve.
residuals = wirt.diagram_residuals
print("diagram projective residuals at 5 random points: "
      + ", ".join(f"{r:.1e}" for r in residuals))

# --- spanning instances -----------------------------------------------------------
# A finite subgroup larger than h0 * g! must span the dual projective space of
# the sections (simple variety); the evaluation-vector rank verifies it here.
r1 = spanning_check(pav, 2, 10)
print(f"\n(1/10)Lambda on the elliptic curve: rank {r1.rank}/{r1.required_rank} "
      f"from {r1.npoints} points")
surface = validate_polarized(random_period_matrix(2, 109), (1, 1), simple_asserted=True)
r2 = spanning_check(surface, 1, 7)
print(f"(1/7)Lambda on the principal surface: rank {r2.rank}/{r2.required_rank} "
      f"from {r2.npoints} points")

# --- end-to-end reports -------------------------------------------------------------
# The catalog carries the named instances; "surface-33" is the full pipeline
# with the Torelli implication at n = g-1.
by_name = {cfg.name: cfg for cfg in catalog()}
for name in ("surface-33", "surface-principal-dimcount"):
    report = run_scenario(by_name[name])
    itt = report.payload["itt"]["verdict"]
    surj = report.payload["surjectivity"]["verdict"]
    print(f"\n{name}: mu verdict {surj}, ITT {itt}, exit code {report.exit_code}")

print("\nfull JSON report for surface-33:")
print(emit_report(run_scenario(by_name["surface-33"]), "json"))
