"""Acceptance suite: the numbered checks this package must pass, each at a
fixed tolerance and runtime budget.

Every test prints a single ``[criterion NN] name: PASS/FAIL`` line (run
pytest with ``-s`` to see them live).  Instances are g <= 2, except the
g = 3 headline cases at the paper's threshold (criteria 15 and 16); the general
statements behind them are exercised as property suites in the other test
modules.
"""

import math
import time

import numpy as np
import pytest

from thetamu import (
    ITTVerdict,
    ScenarioConfig,
    ThetaBasis,
    ThetaTilde,
    Verdict,
    bound_prediction,
    BoundPrediction,
    catalog,
    emit_report,
    gamma_blocks,
    k_group,
    random_period_matrix,
    run_scenario,
    spanning_check,
    surjectivity_verdict,
    torelli_bound,
    validate_polarized,
    wirtinger_matrix,
)
from fractions import Fraction

from thetamu.reference import mu_matrix, quasi_periodicity_residual
from thetamu.theta import lex_vectors


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _catalog(name):
    return next(cfg for cfg in catalog() if cfg.name == name)


def test_c01_theta_oracle():
    start = time.perf_counter()
    pav = validate_polarized(np.array([[1j]]), (1,))
    value = ThetaBasis(pav, 1).eval([0], np.zeros(1))
    reference = math.pi ** 0.25 / math.gamma(0.75)
    diff = abs(value - reference)
    elapsed = time.perf_counter() - start
    _report(1, "theta-oracle", diff < 1e-10 and elapsed < 1.0,
            f"|diff| = {diff:.2e}, {elapsed:.3f}s")


def test_c02_quasi_periodicity_suite():
    start = time.perf_counter()
    instances = {
        1: validate_polarized(np.array([[0.25 + 1.0j]]), (3,)),
        2: validate_polarized(
            np.array([[0.30 + 0.90j, 0.10 + 0.15j], [0.10 + 0.15j, -0.20 + 1.10j]]),
            (1, 2),
        ),
    }
    worst = 0.0
    checked = 0
    for g, pav in instances.items():
        d = np.array(pav.divisors)
        rng = np.random.default_rng(2025 + g)
        for m in (1, 2, 3):
            basis = ThetaBasis(pav, m)
            labels = lex_vectors(m * np.array(pav.divisors))
            drawn = 0
            while drawn < 20:
                a = rng.integers(-2, 3, g).astype(float)
                bhat = rng.integers(-3, 4, g).astype(float)
                zs = rng.random((5, g)) @ pav.matrix.T + rng.random((5, g)) * d
                # keep the cocycle modulus inside the double-precision budget
                if max(math.pi * m * (a @ pav.matrix.imag @ a + 2 * (z.imag @ a)) for z in zs) > 7.0:
                    continue
                drawn += 1
                lam = pav.matrix @ a + d * bhat
                k = labels[int(rng.integers(0, basis.dim))]
                for z in zs:
                    worst = max(worst, quasi_periodicity_residual(pav, m, k, lam, z))
                    checked += 1
    elapsed = time.perf_counter() - start
    _report(2, "quasi-periodicity", worst < 1e-9 and elapsed < 30.0,
            f"{checked} residuals, worst = {worst:.2e}, {elapsed:.1f}s")


def test_c03_elliptic_surjectivity():
    start = time.perf_counter()
    pav = validate_polarized(random_period_matrix(1, 101), (3,), simple_asserted=True)
    verdict = surjectivity_verdict(pav, 1)
    prediction = bound_prediction(pav, 1)
    bound = torelli_bound(1, 1).value
    elapsed = time.perf_counter() - start
    ok = (
        verdict.verdict is Verdict.SURJECTIVE
        and verdict.rank == 6 == verdict.required_rank
        and prediction is BoundPrediction.THEOREM_PREDICTS_SURJECTIVE
        and pav.h0(1) > bound
        and elapsed < 5.0
    )
    _report(3, "elliptic-d3-surjective", ok,
            f"rank {verdict.rank}/6, prediction agrees (3 > {bound}), {elapsed:.2f}s")


def test_c04_dimensional_obstruction():
    start = time.perf_counter()
    pav = validate_polarized(random_period_matrix(2, 103), (1, 1), simple_asserted=True)
    verdict = surjectivity_verdict(pav, 1)
    elapsed = time.perf_counter() - start
    ok = (
        verdict.verdict is Verdict.NOT_SURJECTIVE
        and verdict.dimensional_shortcut
        and pav.h0(1) * pav.h0(1) == 1 < 4 == pav.h0(2)
        and elapsed < 1.0
    )
    _report(4, "dimensional-obstruction", ok, f"1 < 4 shortcut, {elapsed:.3f}s")


def test_c05_theorem_instance_three_seeds():
    results = []
    for omega_seed in (104, 204, 304):
        start = time.perf_counter()
        pav = validate_polarized(random_period_matrix(2, omega_seed), (3, 3), simple_asserted=True)
        verdict = surjectivity_verdict(pav, 1)
        elapsed = time.perf_counter() - start
        results.append((verdict, elapsed))
    ok = all(
        v.verdict is Verdict.SURJECTIVE and v.rank == 36 == v.required_rank and t < 120.0
        for v, t in results
    )
    detail = ", ".join(f"rank {v.rank} in {t:.2f}s" for v, t in results)
    _report(5, "surface-33-three-seeds", ok, detail + "; 9 > 8 as required")


WIRTINGER_CASES = [(1, 1, 21), (1, 2, 16), (2, 1, 17)]


@pytest.fixture(scope="module")
def wirtinger_results():
    out = {}
    for g, n, seed in WIRTINGER_CASES:
        pav = validate_polarized(random_period_matrix(g, 100 + 10 * g + n), (1,) * g,
                                 simple_asserted=True)
        # the 10 points of the diagram check (criterion 7)
        rng = np.random.default_rng(700 + 10 * g + n)
        points = [rng.random(g) @ pav.matrix.T + rng.random(g) for _ in range(10)]
        start = time.perf_counter()
        wirt = wirtinger_matrix(pav, n, seed, points)
        elapsed = time.perf_counter() - start
        out[(g, n)] = (pav, wirt, elapsed)
    return out


def test_c06_wirtinger_suite(wirtinger_results):
    total = 0.0
    ok = True
    details = []
    for (g, n), (pav, wirt, elapsed) in wirtinger_results.items():
        total += elapsed
        svals = np.linalg.svd(wirt.reduced, compute_uv=False)
        ratio = svals[-1] / svals[0]
        # columns repeat exactly along the n-torsion shifts of beta
        N = n * (n + 1)
        k = np.indices((N,) * g).reshape(g, -1)
        shifted = np.ravel_multi_index(tuple((k - (n + 1) * (k % n)) % N), (N,) * g)
        relation = np.array_equal(wirt.full, wirt.full[:, shifted])
        case_ok = wirt.fit_residual < 1e-8 and relation and ratio > 1e-6
        ok = ok and case_ok
        details.append(
            f"(g={g},n={n}): fit {wirt.fit_residual:.1e}, "
            f"columns {'repeat' if relation else 'differ'}, sigma ratio {ratio:.2f}"
        )
    ok = ok and total < 120.0
    _report(6, "wirtinger-suite", ok, "; ".join(details) + f"; total {total:.2f}s")


def test_c07_diagram_check(wirtinger_results):
    worst = max(float(wirt.diagram_residuals.max())
                for _, wirt, _ in wirtinger_results.values())
    _report(7, "diagram-commutes", worst < 1e-8, f"worst projective residual {worst:.2e}")


def test_c08_theta_tilde_properties():
    worst_inv = 0.0
    worst_exp = 0.0
    for g in (1, 2):
        rng = np.random.default_rng(70 + g)
        s = rng.uniform(-0.3, 0.3, (g, g))
        omega = (s + s.T) / 2 + 1j * (0.5 * np.eye(g) + 0.05 * np.ones((g, g)))
        pav = validate_polarized(omega, (1,) * g)
        for n in (2, 3):
            tilde = ThetaTilde(pav, n)
            basis = ThetaBasis(pav, n)
            group = k_group(pav, n)
            for z in rng.random((4, g)).astype(complex):
                base = tilde.eval(z)
                for x in group.k1:
                    a = np.array([float(q) for q in x.a])
                    strip = np.exp(
                        -1j * math.pi * n * (a @ pav.matrix @ a)
                        - 2j * math.pi * n * (z @ a)
                    )
                    residual = abs(tilde.eval(z + pav.matrix @ a) - strip * base) / (1 + abs(base))
                    worst_inv = max(worst_inv, residual)
                total = basis.eval_matrix(z[None, :]).sum()
                worst_exp = max(worst_exp, abs(base - total) / (1 + abs(base)))
    ok = worst_inv < 1e-10 and worst_exp < 1e-10
    _report(8, "theta-tilde", ok,
            f"invariance {worst_inv:.2e}, expansion {worst_exp:.2e}")


def test_c09_block_decomposition():
    cases = [
        ((3,), 101),   # criterion 3 instance
        ((3, 3), 104), # criterion 5 instance
    ]
    ok = True
    details = []
    for divisors, omega_seed in cases:
        g = len(divisors)
        pav = validate_polarized(random_period_matrix(g, omega_seed), divisors, True)
        blocks = gamma_blocks(pav, 1)
        rank = surjectivity_verdict(pav, 1).rank
        row_ok = blocks.matrices.shape[1] == 2**g
        # the block spectra together are the spectrum of the dense mu_1
        dense = np.linalg.svd(mu_matrix(pav, 1), compute_uv=False)
        spectrum_gap = np.abs(blocks.singular_values - dense).max() / dense[0]
        case_ok = (
            spectrum_gap <= 1e-13
            and row_ok
            and blocks.ranks.sum() == rank
        )
        ok = ok and case_ok
        details.append(
            f"{divisors}: spectrum vs dense {spectrum_gap:.1e}, "
            f"{len(blocks.ranks)} blocks x {2**g} rows, "
            f"rank sum {blocks.ranks.sum()} = {rank}"
        )
    _report(9, "block-decomposition", ok, "; ".join(details))


def test_c10_bound_calculator():
    ok = torelli_bound(2, 1).value == 8
    b32 = torelli_bound(3, 2)
    ok = ok and b32.value == Fraction(81, 4) and b32.least_sufficient == 21
    for g in range(2, 7):
        expected = Fraction(g, g - 1) ** g * math.factorial(g)
        ok = ok and torelli_bound(g, g - 1).value == expected
    _report(10, "bound-calculator", ok, "(2,1) -> 8; (3,2) -> 81/4, h = 21; g <= 6 exact")


def test_c11_monotonicity():
    ok = True
    details = []
    for divisors, omega_seed in (((3,), 101), ((4,), 102)):
        pav = validate_polarized(random_period_matrix(1, omega_seed), divisors, True)
        v1 = surjectivity_verdict(pav, 1)
        v2 = surjectivity_verdict(pav, 2)
        case_ok = v1.verdict is Verdict.SURJECTIVE and v2.verdict is Verdict.SURJECTIVE
        ok = ok and case_ok
        details.append(f"{divisors}: mu1 rank {v1.rank}, mu2 rank {v2.rank}")
    _report(11, "monotonicity", ok, "; ".join(details))


def test_c12_spanning_instances():
    pav1 = validate_polarized(random_period_matrix(1, 108), (1,), simple_asserted=True)
    r1 = spanning_check(pav1, 2, 10)
    pav2 = validate_polarized(random_period_matrix(2, 109), (1, 1), simple_asserted=True)
    r2 = spanning_check(pav2, 1, 7)
    ok = (r1.rank, r1.required_rank) == (3, 3) and (r2.rank, r2.required_rank) == (4, 4)
    _report(12, "spanning-instances", ok,
            f"g=1: rank {r1.rank}/3 over {r1.npoints} pts; g=2: rank {r2.rank}/4 over {r2.npoints} pts")


def test_c13_itt_verdicts():
    holds = run_scenario(_catalog("surface-33"))
    unknown = run_scenario(_catalog("surface-principal-dimcount"))
    grammar = {v.value for v in ITTVerdict}
    ok = (
        holds.payload["itt"]["verdict"] == "Holds"
        and unknown.payload["itt"]["verdict"] == "Unknown"
        and grammar == {"Holds", "Unknown"}
    )
    _report(13, "itt-verdicts", ok,
            f"surface-33 -> {holds.payload['itt']['verdict']}, "
            f"dimcount -> {unknown.payload['itt']['verdict']}, grammar {sorted(grammar)}")


def test_c14_determinism():
    cfg = _catalog("elliptic-d3")
    first = emit_report(run_scenario(cfg), "json").encode()
    second = emit_report(run_scenario(cfg), "json").encode()
    _report(14, "byte-identical-reports", first == second,
            f"{len(first)} bytes, identical = {first == second}")


def _threshold_itt_g3(number, divisors, omega):
    # g = 3, n = g-1 = 2: h0(L) = 21 or 27 meets the bound 81/4, so mu_2 is
    # onto and Infinitesimal Torelli holds
    rank = 27 * math.prod(divisors)
    name = "-".join(map(str, divisors))
    cfg = ScenarioConfig(
        name=f"threshold-g3-{name}", g=3, type=divisors, omega=omega,
        n="g-1", seed=31, simple_asserted=True,
    )
    start = time.perf_counter()
    report = run_scenario(cfg)
    elapsed = time.perf_counter() - start
    p = report.payload
    ok = (
        report.exit_code == 0
        and p["bound_prediction"] == "TheoremPredictsSurjective"
        and p["surjectivity"]["verdict"] == "Surjective"
        and p["surjectivity"]["rank"] == rank
        and p["itt"]["verdict"] == "Holds"
        and p["blocks"]["rank_sum"] == rank
        and p["blocks"]["off_block_mass"] < 1e-8
    )
    _report(number, f"threshold-itt-g3-{name}", ok,
            f"{divisors} n=2: {p['surjectivity']['verdict']}, rank "
            f"{p['surjectivity']['rank']}/{rank}, block rank sum {p['blocks']['rank_sum']}, "
            f"ITT {p['itt']['verdict']}, exit {report.exit_code}, {elapsed:.1f} s")


#: the period matrix that ``{"random": {"seed": 301}}`` drew at g = 3 before
#: the seeded draws moved to the stdlib generator.  The stdlib draw of seed 301
#: is Surjective for (1,1,21) too, but a third of the seeds near it are
#: Inconclusive (ROADMAP item 1), so the case keeps the matrix it was run at
_OMEGA_G3_301 = [
    [[0.08207766608055633, 4.413244999999277], [0.14250160956362307, 1.5120895386772548],
     [-0.14338752710413488, 1.2391393235107184]],
    [[0.14250160956362307, 1.5120895386772548], [0.16180041990603045, 4.791950947948377],
     [0.35692732540753747, 1.4327994484412718]],
    [[-0.14338752710413488, 1.2391393235107184], [0.35692732540753747, 1.4327994484412718],
     [-0.06558183922613281, 4.254964780190508]],
]


def test_c15_threshold_itt_g3():
    # mu_2 of type (1,1,21) is 567 x 3528
    _threshold_itt_g3(15, (1, 1, 21), _OMEGA_G3_301)


def test_c16_threshold_itt_g3_139():
    # mu_2 of type (1,3,9) is 729 x 5832
    _threshold_itt_g3(16, (1, 3, 9), {"random": {"seed": 301}})
