import dataclasses
import itertools
import json
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest

from thetamu import (
    IllConditioned,
    NotInSpan,
    SizeLimit,
    ThetaBasis,
    ThetaTilde,
    TruncationOverflow,
    Verdict,
    catalog,
    characters,
    gamma_blocks,
    projective_residual,
    random_period_matrix,
    run_scenario,
    sample_points,
    section_weights,
    spanning_check,
    surjectivity_verdict,
    theta_constants,
    validate_polarized,
    weil_pairing_phase,
    wirtinger_matrix,
    zero_point,
)
from thetamu import crt_split, k_group, mult, reference, torelli_bound
from thetamu.reference import expand_in_basis, mu_matrix, phi_map_coords
from thetamu.scenarios import ScenarioConfig, omega_source, report_json, writable_bound
from thetamu.theta import box_radius, constants_radius, lex_vectors

from test_theta import characteristics


@pytest.fixture(scope="module")
def elliptic_d3():
    return validate_polarized(random_period_matrix(1, 101), (3,), simple_asserted=True)


@pytest.fixture(scope="module")
def principal_g1():
    return validate_polarized(random_period_matrix(1, 106), (1,), simple_asserted=True)


@pytest.fixture(scope="module")
def principal_g2():
    return validate_polarized(random_period_matrix(2, 109), (1, 1), simple_asserted=True)


def test_sample_points_deterministic(elliptic_d3):
    s1 = sample_points(elliptic_d3, 12, 5)
    assert s1.shape == (12, 1)
    assert np.array_equal(s1, sample_points(elliptic_d3, 12, 5))
    assert not np.array_equal(s1, sample_points(elliptic_d3, 12, 6))
    # Omega a + Delta b from one stdlib stream: all 12 a first, then all 12 b
    draw = random.Random(5).random
    a = [[draw()] for _ in range(12)]
    assert np.array_equal(s1, elliptic_d3.lattice_vector(a, [[draw()] for _ in range(12)]))


def test_expand_recovers_basis_vectors(elliptic_d3):
    basis = ThetaBasis(elliptic_d3, 2)
    samples = sample_points(elliptic_d3, 2 * basis.dim, 3)
    unit = expand_in_basis(elliptic_d3, 2, basis.eval_matrix(samples)[4], samples)
    expected = np.zeros(basis.dim)
    expected[4] = 1.0
    assert np.allclose(unit.coefficients, expected, atol=1e-10)
    assert unit.residual < 1e-10
    pair = expand_in_basis(elliptic_d3, 2, basis.eval_matrix(samples)[:2].sum(axis=0), samples)
    expected = np.zeros(basis.dim)
    expected[:2] = 1.0
    assert np.allclose(pair.coefficients, expected, atol=1e-10)


def test_expand_theta_tilde_is_all_ones(principal_g1):
    n = 3
    tilde = ThetaTilde(principal_g1, n)
    samples = sample_points(principal_g1, 2 * principal_g1.h0(n) + 2, 4)
    result = expand_in_basis(principal_g1, n, tilde.eval_many(samples), samples)
    assert np.allclose(result.coefficients, 1.0, atol=1e-10)


def test_expand_rejects_undersampling(elliptic_d3):
    samples = sample_points(elliptic_d3, 3, 1)
    with pytest.raises(ValueError):
        expand_in_basis(elliptic_d3, 2, samples[:, 0], samples)


def test_expand_flags_out_of_span(elliptic_d3):
    basis = ThetaBasis(elliptic_d3, 2)
    samples = sample_points(elliptic_d3, 2 * basis.dim, 9)
    with pytest.raises(NotInSpan):
        expand_in_basis(elliptic_d3, 2, np.conj(basis.eval_matrix(samples)[0]), samples)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0)], ids=["nan", "inf", "nan-real"])
def test_expand_rejects_non_finite_values(elliptic_d3, bad):
    # a NaN residual fails the gate instead of passing it
    basis = ThetaBasis(elliptic_d3, 2)
    samples = sample_points(elliptic_d3, 2 * basis.dim, 3)
    values = basis.eval_matrix(samples)[:2].T.copy()
    values[5, 1] = bad
    with pytest.raises(NotInSpan), np.errstate(invalid="ignore"):
        expand_in_basis(elliptic_d3, 2, values, samples)


def test_expand_huge_finite_values(elliptic_d3):
    # columns too large to square keep their residual: scaling a column by a
    # power of two changes no digit of the residual or the coefficients
    basis = ThetaBasis(elliptic_d3, 2)
    samples = sample_points(elliptic_d3, 2 * basis.dim, 3)
    values = basis.eval_matrix(samples)[:2].T
    plain = expand_in_basis(elliptic_d3, 2, values, samples)
    with np.errstate(all="raise"):
        huge = expand_in_basis(elliptic_d3, 2, values * 2.0**900, samples)
    assert huge.residual == plain.residual < 1e-10
    assert np.array_equal(huge.coefficients, plain.coefficients * 2.0**900)
    x = np.array([1.0 + 1j, 2.0, 3.0]) * 2.0**1000
    with np.errstate(all="raise"):
        assert projective_residual(x, x * 2.0**-1000 * 2.0**-500) < 1e-15
        assert projective_residual(x, x[::-1]) == projective_residual(x * 2.0**-1000, x[::-1])


def test_gates_fail_closed_on_nan(elliptic_d3, principal_g1, monkeypatch):
    basis = ThetaBasis(elliptic_d3, 2)
    samples = sample_points(elliptic_d3, 2 * basis.dim, 3)
    svd = np.linalg.svd

    def nan_spectrum(a, **kwargs):
        u, s, vh = svd(a, **kwargs)
        return u, np.full_like(s, np.nan), vh

    monkeypatch.setattr(mult.np.linalg, "svd", nan_spectrum)
    with pytest.raises(IllConditioned):
        expand_in_basis(elliptic_d3, 2, basis.eval_matrix(samples)[0], samples)
    monkeypatch.undo()
    monkeypatch.setattr(mult, "_wirtinger_checks", lambda *args: (float("nan"), np.zeros(0)))
    with pytest.raises(mult.FitResidualTooLarge):
        wirtinger_matrix(principal_g1, 1, 0)


def test_expand_ill_conditioned_cap(elliptic_d3):
    # one point drawn 2 * dim times: the design has rank 1, so its condition
    # exceeds DEFAULT_COND_CAP
    basis = ThetaBasis(elliptic_d3, 2)
    samples = np.repeat(sample_points(elliptic_d3, 1, 3), 2 * basis.dim, axis=0)
    with pytest.raises(IllConditioned):
        expand_in_basis(elliptic_d3, 2, basis.eval_matrix(samples)[0], samples)


def test_mu_matrix_shapes(elliptic_d3, principal_g2):
    mu = mu_matrix(elliptic_d3, 1)
    assert mu.shape == (6, 9)
    mu_p = mu_matrix(principal_g2, 1)
    assert mu_p.shape == (4, 1)


def test_mu_matrix_surface_shape():
    pav = validate_polarized(random_period_matrix(2, 104), (3, 3), simple_asserted=True)
    mu = mu_matrix(pav, 1)
    assert mu.shape == (36, 81)


def _rank(matrix) -> int:
    """The package's numerical rank of a matrix: the rank rule on its SVD."""
    return int(mult._ranks(np.linalg.svd(matrix, compute_uv=False)))


def test_rank_rule_basics():
    assert _rank(np.eye(3)) == 3
    assert _rank(np.zeros((4, 2))) == 0
    assert _rank(np.diag([1.0, 1e-15])) == 1
    # a batch of descending spectra, each against its own sigma_max; a value
    # at the threshold itself is not counted
    spectra = np.array([[2.0, 1.0, 1e-9], [1.0, 1e-8, 0.0], [0.0, 0.0, 0.0], [4e-9, 3e-9, 2e-17]])
    assert mult._ranks(spectra).tolist() == [2, 1, 0, 2]


@pytest.mark.parametrize("spectrum,verdict,rank,clean", [
    # a deficit with a singular value at 1e-8 sigma_max sits on the threshold
    ([1.0] * 5 + [1e-8], Verdict.INCONCLUSIVE, 5, False),
    ([1.0] * 5 + [1e-15], Verdict.NOT_SURJECTIVE, 5, True),
    ([1.0] * 6, Verdict.SURJECTIVE, 6, True),
    ([0.0] * 6, Verdict.NOT_SURJECTIVE, 0, True),
], ids=["decade", "clean-deficit", "full", "all-zero"])
def test_verdict_reads_the_decade_flag(elliptic_d3, monkeypatch, spectrum, verdict, rank, clean):
    # mu_1 of type (3) needs rank 6; the blocks carry the chosen spectrum
    chosen = SimpleNamespace(singular_values=np.array(spectrum))
    monkeypatch.setattr(mult, "gamma_blocks", lambda pav, n: chosen)
    result = surjectivity_verdict(elliptic_d3, 1)
    assert (result.verdict, result.rank, result.clean_gap) == (verdict, rank, clean)


def test_surjectivity_elliptic_d3(elliptic_d3):
    verdict = surjectivity_verdict(elliptic_d3, 1)
    assert verdict.verdict is Verdict.SURJECTIVE
    assert verdict.rank == 6 == verdict.required_rank
    assert verdict.gap_ratio > 1e3


def test_surjectivity_dimensional_obstruction(principal_g2):
    verdict = surjectivity_verdict(principal_g2, 1)
    assert verdict.verdict is Verdict.NOT_SURJECTIVE
    assert verdict.dimensional_shortcut
    # the numeric rank agrees with the obstruction: rank <= 1 < 4
    mu = mu_matrix(principal_g2, 1)
    assert _rank(mu) < principal_g2.h0(2)


def test_verdict_invariant_under_reseeding():
    # mu_n draws no samples, so the scenario seed does not reach the verdict
    cfg = next(cfg for cfg in catalog() if cfg.name == "elliptic-d3")
    v1 = run_scenario(cfg).payload["surjectivity"]
    v2 = run_scenario(dataclasses.replace(cfg, seed=977)).payload["surjectivity"]
    assert v1["verdict"] == v2["verdict"] == "Surjective"
    assert v1 == v2


def _assert_union_is_dense_spectrum(blocks, mu):
    """The block spectra together are the spectrum of the dense mu_n."""
    dense = np.linalg.svd(mu, compute_uv=False)
    assert blocks.singular_values.shape == dense.shape
    assert np.abs(blocks.singular_values - dense).max() <= 1e-13 * dense[0]


def test_gamma_blocks_principal_single_block(principal_g1):
    mu = mu_matrix(principal_g1, 2)
    blocks = gamma_blocks(principal_g1, 2)
    assert blocks.matrices.shape == (1, *mu.shape)
    assert np.allclose(blocks.matrices[0], mu)
    _assert_union_is_dense_spectrum(blocks, mu)


def test_gamma_blocks_elliptic_d3(elliptic_d3):
    blocks = gamma_blocks(elliptic_d3, 1)
    # gcd(2, 3) = 1, so the three characters form one orbit, built once
    assert blocks.matrices.shape == (1, 2, 3)
    assert blocks.representatives.tolist() == [0]
    assert blocks.orbit.tolist() == [0, 0, 0]
    assert blocks.ranks.tolist() == [2, 2, 2]
    mu, full, _, reference = _reference_blocks(elliptic_d3, 1)
    assert np.abs(blocks.matrices[0] - reference[0]).max() <= 1e-13 * np.abs(full).max()
    _assert_union_is_dense_spectrum(blocks, mu)
    assert blocks.ranks.sum() == mult._ranks(blocks.singular_values) == 6


def test_gamma_blocks_rank_additivity_catalog():
    cases = [((3,), 1, 101), ((4,), 1, 102), ((1, 2), 1, 33), ((3, 3), 1, 104)]
    for divisors, n, seed in cases:
        g = len(divisors)
        pav = validate_polarized(random_period_matrix(g, seed), divisors, True)
        blocks = gamma_blocks(pav, n)
        _assert_union_is_dense_spectrum(blocks, mu_matrix(pav, n))
        assert blocks.ranks.sum() == mult._ranks(blocks.singular_values)


def test_wirtinger_g1_n1_lemniscatic():
    pav = validate_polarized(np.array([[1j]]), (1,), simple_asserted=True)
    wirt = wirtinger_matrix(pav, 1, 21)
    assert wirt.full.shape == (2, 2)
    assert wirt.fit_residual < 1e-10
    svals = np.linalg.svd(wirt.reduced, compute_uv=False)
    assert svals[-1] > 1e-6 * svals[0]


def _shifted_columns(g, n):
    """For every Wirtinger column k, the column k - (n+1) (k mod n) mod n(n+1)
    it must equal: the n-torsion shift of beta onto its reduced column."""
    N = n * (n + 1)
    k = np.indices((N,) * g).reshape(g, -1)
    return np.ravel_multi_index(tuple((k - (n + 1) * (k % n)) % N), (N,) * g)


def test_wirtinger_relation_and_reduction(principal_g1):
    wirt = wirtinger_matrix(principal_g1, 2, 16)
    assert wirt.full.shape == (3, 6)
    assert wirt.reduced.shape == (3, 3)
    assert np.array_equal(wirt.full, wirt.full[:, _shifted_columns(1, 2)])
    # reduced columns are exactly the beta' = n t / (n(n+1)) columns
    assert np.array_equal(wirt.reduced, wirt.full[:, [0, 2, 4]])


@pytest.mark.parametrize("g,n", [(1, 1), (1, 2), (2, 1)], ids=["g1-n1", "g1-n2", "g2-n1"])
def test_wirtinger_cross_check_independent_expansion(g, n):
    # second route: expand u -> theta(u+nv) theta~(u-v) in the level-(n+1)
    # basis at fixed sampled v, then solve for the coefficient matrix in the
    # level-n(n+1) v-basis
    omega = np.array([[1j]]) if (g, n) == (1, 1) else random_period_matrix(g, 100 + 10 * g + n)
    pav = validate_polarized(omega, (1,) * g, simple_asserted=True)
    wirt = wirtinger_matrix(pav, n, 21)
    basis1 = ThetaBasis(pav, 1)
    basis_a = ThetaBasis(pav, n + 1)
    basis_b = ThetaBasis(pav, n * (n + 1))
    tilde = ThetaTilde(pav, n)
    rng = np.random.default_rng(55)
    nv = 3 * basis_b.dim
    vs = rng.random((nv, g)) @ pav.matrix.T + rng.random((nv, g))
    coeff_rows = []
    for v in vs:
        samples = sample_points(pav, 2 * basis_a.dim + 2, 77)
        values = basis1.eval_matrix(samples + n * v)[0] * tilde.eval_many(samples - v)
        exp = expand_in_basis(pav, n + 1, values, samples)
        coeff_rows.append(exp.coefficients)
    d_matrix = np.array(coeff_rows)  # (nv, KA): d_alpha(v) = sum_b c_{ab} theta_b(v)
    tb = basis_b.eval_matrix(vs).T   # (nv, KB)
    c_indep = np.linalg.lstsq(tb, d_matrix, rcond=None)[0].T
    assert projective_residual(c_indep.ravel(), wirt.full.ravel()) < 1e-8
    # not only projectively: the package normalization makes the scale exact
    assert np.abs(c_indep - wirt.full).max() < 1e-8


@pytest.mark.parametrize(
    "g,n", [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)], ids=lambda v: str(v)
)
def test_wirtinger_matrix_is_exact_incidence(g, n):
    pav = validate_polarized(random_period_matrix(g, 100 + 10 * g + n), (1,) * g, True)
    wirt = wirtinger_matrix(pav, n, 21)
    C = wirt.full
    assert C.shape == ((n + 1) ** g, (n * (n + 1)) ** g)
    assert set(np.unique(C)) <= {0.0, 1.0}
    assert np.array_equal(C.sum(axis=1), np.full(C.shape[0], float(n**g)))
    assert np.array_equal(wirt.reduced, np.eye(C.shape[0]))
    # columns repeat along the n-torsion shifts of beta, exactly
    assert np.array_equal(C, C[:, _shifted_columns(g, n)])
    assert wirt.fit_residual < 1e-12


#: the catalog's Wirtinger scenarios and principal g = 2 at n = 2 and n = 3
_GRID_CONFIGS = [
    *(cfg for cfg in catalog() if cfg.checks.get("wirtinger")),
    *(ScenarioConfig(name=f"wirtinger-g2-n{n}", g=2, type=(1, 1), omega={"random": {"seed": 201}},
                     n=n, seed=21, simple_asserted=True, checks={"wirtinger": True})
      for n in (2, 3)),
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("cfg", _GRID_CONFIGS, ids=lambda cfg: cfg.name)
def test_divisor_grid_matches_pair_points(cfg, seed, monkeypatch):
    # the Wirtinger stage reads theta(u+nw) theta~(u-w) off the shifted
    # characteristics [a; b] of u = Omega a + b; evaluated at every pair
    # point u + nw and u - w, the same values agree to 1e-13 of the product
    # of the two envelopes
    pav = validate_polarized(omega_source(cfg)(), cfg.type)
    n = cfg.n
    grids = []
    evaluate = mult._DivisorGrid.eval

    def recorded(self, a, b, ws):
        grids.append((a, b, ws, evaluate(self, a, b, ws)))
        return grids[-1][-1]

    monkeypatch.setattr(mult._DivisorGrid, "eval", recorded)
    N = n * (n + 1)
    # the grid does not depend on the matrix checked
    C = np.zeros((pav.h0(n + 1), pav.h0(N)))
    mult._wirtinger_checks(pav, n, C, seed, sample_points(pav, 3, seed + 17))
    [(a, b, ws, grid)] = grids
    nu = mult.OVERSAMPLE * pav.h0(n + 1)
    # the halves of the stage's one draw, U its first nu points
    z = sample_points(pav, nu + pav.h0(N), seed)
    assert np.array_equal(pav.lattice_vector(a, b), z[:nu])
    assert grid.shape == (nu, pav.h0(N) + 3)
    u, w = reference._pairs(z[:nu], ws)
    pairs = reference._divisor_values(ThetaBasis(pav, 1), ThetaTilde(pav, n), u, w)
    envelope = 1.0 / (section_weights(pav, 1, u + n * w) * section_weights(pav, n, u - w))
    assert (np.abs(grid.ravel() - pairs) / envelope).max() <= 1e-13


def test_wirtinger_grid_refuses_a_pair_past_the_double_range(monkeypatch):
    # at Omega = 0.95 i and n = 15 every point n w of the level-1 sum is
    # within the double range, and some pair point u + n w is past it: the
    # translation factor's modulus joins the envelope, so the stage is
    # refused before any box phase is built
    from thetamu import TruncationOverflow, theta

    pav = validate_polarized(np.array([[0.95j]]), (1,))
    n, seed = 15, 0
    nu = mult.OVERSAMPLE * pav.h0(n + 1)
    z = sample_points(pav, nu + pav.h0(n * (n + 1)), seed)
    u, w = reference._pairs(z[:nu], z[nu:])
    assert theta._log_envelope(pav.im_inv, 1, n * w).max() <= theta._LOG_MAX
    assert theta._log_envelope(pav.im_inv, 1, u + n * w).max() > theta._LOG_MAX
    monkeypatch.setattr(theta, "_box_phase", _never_called)
    with pytest.raises(TruncationOverflow, match="exceeds double-precision range"):
        wirtinger_matrix(pav, n, seed)


def test_wrong_wirtinger_incidence_is_rejected(principal_g1):
    n, seed = 2, 16
    rng = np.random.default_rng(61)
    points = [rng.random(1) @ principal_g1.matrix.T + rng.random(1) for _ in range(3)]
    wirt = wirtinger_matrix(principal_g1, n, seed, points)
    k = np.arange(n + 1)[:, None]
    j = np.arange(n * (n + 1))[None, :]
    same_sign = ((k - j) % (n + 1) == 0).astype(float)  # alpha = n beta in place of -n beta
    flipped = wirt.full.copy()
    flipped[1, 0] = 1.0 - flipped[1, 0]
    residual, diagram = mult._wirtinger_checks(principal_g1, n, wirt.full, seed, points)
    assert residual == wirt.fit_residual < 1e-8
    assert np.array_equal(diagram, wirt.diagram_residuals)
    assert (diagram < 1e-8).all()
    for wrong in (same_sign, flipped):
        residual, diagram = mult._wirtinger_checks(principal_g1, n, wrong, seed, points)
        assert residual > 1e-8
        # every point of the batch flags the wrong matrix
        assert diagram.shape == (3,) and (diagram > 1e-8).all()


@pytest.mark.parametrize("g,n,omega_seed,seed", [
    (1, 1, 105, 15), (1, 2, 106, 16), (2, 1, 107, 17), (2, 2, 201, 21),
], ids=["g1-n1", "g1-n2", "g2-n1", "g2-n2"])
def test_every_single_flip_of_the_wirtinger_matrix_is_rejected(g, n, omega_seed, seed):
    # the relation on the grid U x V determines C: every matrix that differs
    # from it in one entry, and the alpha = n beta incidence (a different
    # matrix for n >= 2), leaves a misfit far above DEFAULT_RESIDUAL_TOL
    pav = validate_polarized(random_period_matrix(g, omega_seed), (1,) * g, True)
    C = wirtinger_matrix(pav, n, seed).full
    k = lex_vectors((n + 1,) * g)[:, None]
    j = lex_vectors((n * (n + 1),) * g)[None]
    wrongs = [((k - j) % (n + 1) == 0).all(axis=-1).astype(float)] if n > 1 else []
    for index in np.ndindex(C.shape):
        wrongs.append(C.copy())
        wrongs[-1][index] = 1.0 - C[index]
    assert min(mult._wirtinger_checks(pav, n, wrong, seed, ())[0] for wrong in wrongs) >= 1e-3


def test_phi_map_coords_properties(principal_g1):
    n = 2
    rng = np.random.default_rng(31)
    zero = phi_map_coords(principal_g1, n, 41, zero_point(principal_g1).to_complex(principal_g1))
    assert zero.coefficients.shape == (n + 1, 1)
    tilde = ThetaTilde(principal_g1, n)
    basis1 = ThetaBasis(principal_g1, 1)
    samples = sample_points(principal_g1, 2 * principal_g1.h0(n + 1), 41)
    values = basis1.eval_matrix(samples)[0] * tilde.eval_many(samples)
    direct = expand_in_basis(principal_g1, n + 1, values, samples)
    assert np.allclose(zero.coefficients[:, 0], direct.coefficients, atol=1e-9)
    bs = rng.random((20, 1)) @ principal_g1.matrix.T + rng.random((20, 1))
    coords = phi_map_coords(principal_g1, n, 41, bs).coefficients
    assert coords.shape == (n + 1, 20)
    assert np.linalg.norm(coords, axis=0).min() > 1e-6
    # coordinates depend on b only mod Lambda (projectively)
    b = np.array([0.31 + 0.17j])
    lam = principal_g1.lattice_vector([1], [2])
    c1, c2 = phi_map_coords(principal_g1, n, 41, [b, b + lam]).coefficients.T
    assert projective_residual(c1, c2) < 1e-8


def test_diagram_check_cases(principal_g1):
    n = 2
    rng = np.random.default_rng(61)
    points = [*(rng.random(1) @ principal_g1.matrix.T + rng.random(1) for _ in range(5)),
              np.zeros(1)]
    residuals = wirtinger_matrix(principal_g1, n, 16, points).diagram_residuals
    assert residuals.shape == (6,)
    assert residuals.max() < 1e-8


@pytest.mark.parametrize("g,n", [(1, 2), (2, 1)], ids=["g1-n2", "g2-n1"])
def test_batched_diagram_check_matches_single_points(g, n):
    # one fit for the batch gives each point the residual of its own fit
    pav = validate_polarized(random_period_matrix(g, 150 + g), (1,) * g, True)
    rng = np.random.default_rng(62)
    points = rng.random((4, g)) @ pav.matrix.T + rng.random((4, g))
    batched = wirtinger_matrix(pav, n, 16, points).diagram_residuals
    single = [wirtinger_matrix(pav, n, 16, [b]).diagram_residuals[0] for b in points]
    assert np.abs(batched - single).max() <= 1e-13
    coords = phi_map_coords(pav, n, 16, points).coefficients
    for p, b in enumerate(points):
        alone = phi_map_coords(pav, n, 16, b).coefficients[:, 0]
        assert np.abs(coords[:, p] - alone).max() <= 1e-13 * np.abs(alone).max()


def test_diagram_projectivity():
    x = np.array([1.0 + 1j, 2.0, 3.0])
    y = np.array([0.5 + 0.1j, 1.1, 2.9])
    assert projective_residual(x, 7 * y) == pytest.approx(projective_residual(x, y), rel=1e-12)
    assert projective_residual(x, (2 - 3j) * x) < 1e-15


def test_spanning_trivial_group(principal_g1):
    # modulus 1: G is the origin alone
    report = spanning_check(principal_g1, 2, 1)
    assert report.npoints == 1
    assert report.rank == 1
    assert report.required_rank == 3


def test_spanning_elliptic_tenth_torsion(principal_g1):
    report = spanning_check(principal_g1, 2, 10)
    assert report.npoints == 100
    assert report.rank == report.required_rank == 3


def test_spanning_surface_seventh_torsion(principal_g2):
    report = spanning_check(principal_g2, 1, 7)
    assert report.npoints == 2401
    assert report.rank == report.required_rank == 4


def test_spanning_modulus_below_one_is_refused(principal_g1):
    for N in (0, -3):
        with pytest.raises(ValueError, match=f"^modulus N must be an integer >= 1, got {N}$"):
            spanning_check(principal_g1, 1, N)


def _weighted_rows(pav, n, N):
    """The spanning rows built point by point: the level-(n+1) basis at every
    point Omega s/N + t/N, (s, t) lexicographic, times its envelope weight."""
    frac = np.array(list(itertools.product(range(N), repeat=2 * pav.g))) / N
    pts = pav.lattice_vector(frac[:, :pav.g], frac[:, pav.g:])
    return ThetaBasis(pav, n + 1).eval_matrix(pts).T * section_weights(pav, n + 1, pts)[:, None]


@pytest.mark.parametrize("g,n,N,seed", [
    (1, 2, 10, 106), (2, 1, 7, 109), (3, 1, 3, 202), (2, 1, 3, 109), (2, 2, 4, 109),
], ids=lambda v: str(v))
def test_spanning_matrix_matches_weighted_rows(g, n, N, seed, monkeypatch):
    # the shifted characteristics at real points give the weighted rows up to
    # a unit phase per row: same moduli entry by entry, so the same row
    # order, and the same singular values and rank
    pav = validate_polarized(random_period_matrix(g, seed), (1,) * g, True)
    seen = []
    svd = np.linalg.svd

    def recording(matrix, **kwargs):
        seen.append(matrix)
        return svd(matrix, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    report = spanning_check(pav, n, N)
    monkeypatch.undo()
    [matrix] = seen
    rows = _weighted_rows(pav, n, N)
    assert matrix.shape == rows.shape == (N ** (2 * g), (n + 1) ** g)
    assert np.abs(np.abs(matrix) - np.abs(rows)).max() <= 1e-12 * np.abs(rows).max()
    fast, slow = svd(matrix, compute_uv=False), svd(rows, compute_uv=False)
    assert np.abs(fast - slow).max() <= 1e-12 * slow[0]
    assert report.rank == mult._ranks(slow)


def _never_called(*args, **kwargs):
    raise AssertionError("a size guard let the work start")


def test_size_caps(principal_g1, monkeypatch):
    # 1600 x 90000 cells exceed DEFAULT_CELL_CAP: refused before any evaluation
    pav = validate_polarized(random_period_matrix(2, 5), (1, 100))
    monkeypatch.setattr("thetamu.reference.theta_constants", _never_called)
    with pytest.raises(SizeLimit, match="^mu_n cells: 144000000 exceeds cap 10000000$"):
        mu_matrix(pav, 3)
    # the (h0(n+1), |G|) values, 10**6 + 1 sections at 100 points, exceed
    # DEFAULT_CELL_CAP: refused before the characteristics or the sum are built
    monkeypatch.setattr(mult, "_LatticeSum", _never_called)
    monkeypatch.setattr(mult, "lex_vectors", _never_called)
    with pytest.raises(SizeLimit, match="^spanning value cells: 100000100 exceeds cap 10000000$"):
        spanning_check(principal_g1, 10**6, 10)
    # a numpy modulus is taken as a Python int: np.int64(2048) ** 6 wraps to 0
    principal_g3 = validate_polarized(random_period_matrix(3, 7), (1, 1, 1))
    with pytest.raises(SizeLimit,
                       match=r"^spanning points \|G\|: 73786976294838206464 exceeds cap 1000000$"):
        spanning_check(principal_g3, 1, np.int64(2048))


def test_gamma_blocks_gate_their_own_cells(elliptic_d3, monkeypatch):
    # a direct call is refused before any theta constant, as the verdict is
    monkeypatch.setattr(mult, "DEFAULT_CELL_CAP", 1)
    monkeypatch.setattr(mult, "theta_constants", _never_called)
    for call in (gamma_blocks, surjectivity_verdict):
        with pytest.raises(SizeLimit, match="^mu_n block cells: 18 exceeds cap 1$"):
            call(elliptic_d3, 1)


def _at_i(*divisors):
    return validate_polarized(1j * np.eye(len(divisors)), divisors)


#: one row per size check: (id, call, the cap it reads, the count the call
#: asks for, the work the check guards, error class, what the message names).
#: Every call runs on type (1) or (3) at Omega = i: the level-1 basis of
#: type (1) sums a radius-3 box; at n = 1 its Wirtinger check takes 228
#: lattice terms
_SIZE_CALLS = [
    ("box", lambda: ThetaBasis(_at_i(1), 1), "theta.DEFAULT_CAPACITY", 7,
     ["theta.lex_vectors"], TruncationOverflow, "radius-3 box lattice points"),
    ("terms", lambda: ThetaBasis(_at_i(1), 1).eval_matrix(np.zeros((2, 1))),
     "theta.DEFAULT_TERM_CAP", 14, ["theta._LatticeSum._reduce"], SizeLimit,
     "lattice sum terms"),
    ("blocks", lambda: gamma_blocks(_at_i(3), 1), "mult.DEFAULT_CELL_CAP", 18,
     ["mult.theta_constants"], SizeLimit, "mu_n block cells"),
    ("wirtinger-terms", lambda: wirtinger_matrix(_at_i(1), 1, 0), "theta.DEFAULT_TERM_CAP", 228,
     ["theta._LatticeSum.eval"], SizeLimit, "Wirtinger check lattice terms"),
    ("wirtinger-cells", lambda: wirtinger_matrix(_at_i(1), 1, 0), "mult.DEFAULT_CELL_CAP", 16,
     ["mult.lex_vectors", "mult._wirtinger_checks"], SizeLimit, "Wirtinger value cells"),
    ("spanning-modulus", lambda: spanning_check(_at_i(1), 1, 3), "mult.DEFAULT_POINT_CAP", 3,
     ["mult._LatticeSum", "mult.lex_vectors"], SizeLimit, "spanning modulus N"),
    ("spanning-points", lambda: spanning_check(_at_i(1), 1, 2), "mult.DEFAULT_POINT_CAP", 4,
     ["mult._LatticeSum", "mult.lex_vectors"], SizeLimit, "spanning points |G|"),
    ("spanning-cells", lambda: spanning_check(_at_i(1), 1, 3), "mult.DEFAULT_CELL_CAP", 18,
     ["mult._LatticeSum", "mult.lex_vectors"], SizeLimit, "spanning value cells"),
    ("mu", lambda: mu_matrix(_at_i(3), 1), "mult.DEFAULT_CELL_CAP", 54,
     ["reference.theta_constants"], SizeLimit, "mu_n cells"),
    ("k-group", lambda: k_group(_at_i(3), 1), "torsion.DEFAULT_GROUP_CAP", 3,
     ["torsion.TorsionPoint"], SizeLimit, "points |K(L^m)|"),
    ("characters", lambda: characters(_at_i(3), 1), "torsion.DEFAULT_GROUP_CAP", 9,
     ["torsion.TorsionPoint", "torsion.k_group"], SizeLimit, "pairings of K(L^m)"),
    ("random", lambda: random_period_matrix(2, 0), "mult.DEFAULT_CELL_CAP", 4,
     ["scenarios.seeded_uniform"], ValueError, "random period matrix cells"),
]


@pytest.mark.parametrize("call,cap,count,guarded,error,what",
                         [row[1:] for row in _SIZE_CALLS], ids=[row[0] for row in _SIZE_CALLS])
def test_every_size_check_refuses_one_past_its_cap(call, cap, count, guarded, error, what,
                                                   monkeypatch):
    # with the cap one below the count, the one size rule refuses before the
    # guarded work, with one message template
    for target in guarded:
        monkeypatch.setattr(f"thetamu.{target}", _never_called)
    monkeypatch.setattr(f"thetamu.{cap}", count - 1)
    with pytest.raises(error, match=f"^{re.escape(what)}: {count} exceeds cap {count - 1}$"):
        call()


#: counts past the 4300-digit limit of str(): (id, call, error class, what
#: the message names); each once raised Python's conversion ValueError
#: in place of its refusal
_DIGIT_CALLS = [
    ("mu", lambda: mu_matrix(_at_i(10**3000), 1), SizeLimit, "mu_n cells"),
    ("characters", lambda: characters(_at_i(10**3000), 1), SizeLimit, "pairings of K(L^m)"),
    ("k-group", lambda: k_group(_at_i(10**3000), 10**2000), SizeLimit, "points |K(L^m)|"),
    ("spanning-n", lambda: spanning_check(_at_i(1), 10**5000, 2), SizeLimit,
     "spanning value cells"),
    ("spanning-modulus", lambda: spanning_check(_at_i(1), 1, 10**5000), SizeLimit,
     "spanning modulus N"),
    # Im Omega = 1e-300 I at g = 40: a radius past 10^151 on every axis
    ("box-g40", lambda: ThetaBasis(validate_polarized(1e-300j * np.eye(40), (1,) * 40), 1),
     TruncationOverflow, "box lattice points"),
    ("random", lambda: random_period_matrix(10**3000, 0), ValueError,
     "random period matrix cells"),
]


@pytest.mark.parametrize("call,error,what", [row[1:] for row in _DIGIT_CALLS],
                         ids=[row[0] for row in _DIGIT_CALLS])
def test_a_count_past_the_digit_limit_is_written(call, error, what):
    with pytest.raises(error) as info:
        call()
    assert re.search(f"{re.escape(what)}: more than 10\\^4300 exceeds cap \\d+$", str(info.value))


@pytest.mark.parametrize("type_,n,checks,error", [
    ((10**4299,), 1, {}, "mu_verdict: mu_n block cells: more than 10^4300 exceeds cap 10000000"),
    ((1,), 10**1000, {"wirtinger": True},
     "wirtinger: Wirtinger value cells: more than 10^4300 exceeds cap 10000000"),
], ids=["type-4300-digits", "n-1001-digits"])
def test_a_scenario_count_past_the_digit_limit_is_reported(type_, n, checks, error):
    # the config and its section counts are within the limit; the count the
    # stage refuses is not
    report = run_scenario(ScenarioConfig(name="digits", g=1, type=type_, n=n, checks=checks,
                                         omega={"random": {"seed": 1}}))
    assert (report.exit_code, report.payload["errors"]) == (3, [error])
    assert json.loads(report_json(report))["errors"] == [error]


#: (id, argument name, call of the variety and one value of that argument):
#: each value of the wrong kind or below the floor is refused by the one
#: integer rule, with a message that starts with the argument's name
_COUNT_CALLS = [
    ("h0", "level", lambda pav, v: pav.h0(v)),
    ("basis", "level", lambda pav, v: ThetaBasis(pav, v)),
    ("tilde", "n", lambda pav, v: ThetaTilde(pav, v)),
    ("constants", "level", lambda pav, v: theta_constants(pav, v)),
    ("radius", "level", lambda pav, v: constants_radius(pav, v)),
    ("box-radius", "level", lambda pav, v: box_radius(1.0, v, 1, 0.5)),
    ("weights", "level", lambda pav, v: section_weights(pav, v, np.array([0.5j]))),
    ("verdict", "n", lambda pav, v: surjectivity_verdict(pav, v)),
    ("blocks", "n", lambda pav, v: gamma_blocks(pav, v)),
    ("wirtinger", "n", lambda pav, v: wirtinger_matrix(pav, v, 0)),
    ("spanning", "modulus N", lambda pav, v: spanning_check(pav, 1, v)),
    ("spanning-n", "n", lambda pav, v: spanning_check(pav, v, 3)),
    ("samples", "count", lambda pav, v: sample_points(pav, v, 0)),
    ("torelli-g", "g", lambda pav, v: torelli_bound(v, 1)),
    ("torelli-n", "n", lambda pav, v: torelli_bound(3, v)),
    ("writable-g", "g", lambda pav, v: writable_bound(v, 1)),
    ("writable-n", "n", lambda pav, v: writable_bound(3, v)),
    ("writable-degree", "degree", lambda pav, v: writable_bound(3, 2, v)),
    ("k-group", "level", lambda pav, v: k_group(pav, v)),
    ("crt", "n", lambda pav, v: crt_split(pav, v, zero_point(pav))),
    ("mu", "n", lambda pav, v: mu_matrix(pav, v)),
    ("weil", "level", lambda pav, v: weil_pairing_phase(pav, v, zero_point(pav), zero_point(pav))),
    ("translate", "level",
     lambda pav, v: reference.translate_action(pav, v, zero_point(pav), [0])),
    ("phi", "n", lambda pav, v: phi_map_coords(pav, v, 0, [0.5j])),
]
#: the floor of every argument above that is not 1
_FLOOR = {"count": 0}


def _refused(call, name, value):
    pav, floor = validate_polarized(np.array([[1j]]), (1,)), _FLOOR.get(name, 1)
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= {floor}, got"):
        call(pav, value)


@pytest.mark.parametrize("call,name,value", [
    pytest.param(lambda pav, v: ThetaBasis(pav, v), "level", -1, id="basis-negative"),
    pytest.param(lambda pav, v: expand_in_basis(pav, v, np.zeros(4), np.zeros((4, 1))),
                 "level", 0, id="expand-0"),
    *(pytest.param(call, name, _FLOOR.get(name, 1) - 1,
                   id=f"{key}-{'0' if _FLOOR.get(name, 1) else 'negative'}")
      for key, name, call in _COUNT_CALLS),
])
def test_level_below_one_is_a_value_error(call, name, value):
    # every count has its floor: a level, n, g, degree or modulus of 1, a
    # sample count of 0
    _refused(call, name, value)


@pytest.mark.parametrize("call,name,value", [
    pytest.param(call, name, value, id=f"{key}-{kind}")
    for key, name, call in _COUNT_CALLS
    for kind, value in (("float", 2.0), ("fraction", 1.5), ("bool", True))
])
def test_level_or_modulus_not_an_integer_is_a_value_error(call, name, value):
    # a float is refused, not truncated, and a bool is not an integer here;
    # the message names the argument the caller passed (phi_map_coords once
    # named n + 1 = 2.0, weil_pairing_phase and translate_action raised
    # AttributeError at 1.5)
    _refused(call, name, value)


def test_weighted_sampling_keeps_design_bounded(elliptic_d3):
    basis = ThetaBasis(elliptic_d3, 2)
    samples = sample_points(elliptic_d3, 2 * basis.dim, 3)
    design = basis.eval_matrix(samples) * section_weights(elliptic_d3, 2, samples)
    assert np.abs(design).max() < 50.0


# --- the exact mu_n, the fit helper and the character transform against references

_FIT_CASES = [
    ((3,), 1, 101), ((4,), 2, 102), ((3, 3), 1, 104), ((60,), 1, 101), ((1, 2, 2), 2, 301),
]


@pytest.mark.parametrize(
    "divisors,n,seed", [*_FIT_CASES, ((1, 2), 2, 33)], ids=lambda v: str(v)
)
def test_mu_fit_matches_lstsq(divisors, n, seed):
    # the reference is the sampled fit: products of the level-1 and level-n
    # bases at seeded points, solved in the level-(n+1) basis by lstsq
    pav = validate_polarized(random_period_matrix(len(divisors), seed), divisors, True)
    mu = mu_matrix(pav, n)
    samples = sample_points(pav, 2 * pav.h0(n + 1), seed)
    w = section_weights(pav, n + 1, samples)
    design = (ThetaBasis(pav, n + 1).eval_matrix(samples) * w).T
    b1 = ThetaBasis(pav, 1).eval_matrix(samples)
    bn = ThetaBasis(pav, n).eval_matrix(samples)
    rhs = (b1[:, None, :] * bn[None, :, :]).reshape(-1, len(samples)).T * w[:, None]
    coef, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    assert rank == design.shape[1]
    assert np.abs(mu - coef).max() <= 1e-12 * np.abs(coef).max()
    assert _rank(mu) == _rank(coef)
    # the exact matrix reproduces the sampled products themselves
    misfit = np.linalg.norm(design @ mu - rhs, axis=0) / np.linalg.norm(rhs, axis=0)
    assert misfit.max() <= 1e-10


@pytest.mark.parametrize(
    "divisors,n", [((3,), 1), ((4,), 2), ((1, 2), 2), ((3, 3), 1), ((1, 2, 2), 2)],
    ids=lambda v: str(v),
)
def test_mu_matrix_is_exact_incidence(divisors, n):
    # column (a, b) holds theta_tau^(n(n+1))(0) at row b + tau for each of the
    # (n+1)^g solutions tau = (a - b + j)/(n+1) of (n+1) tau = a - b mod Z^g,
    # and nothing else; rows and tau are found here from the exact
    # characteristics, reduced mod Z^g
    g = len(divisors)
    pav = validate_polarized(random_period_matrix(g, 40 + n), divisors, True)
    mu = mu_matrix(pav, n)
    rows = {c: i for i, c in enumerate(characteristics(pav, n + 1))}
    taus = {c: i for i, c in enumerate(characteristics(pav, n * (n + 1)))}
    consts = theta_constants(pav, n * (n + 1))
    expected = np.zeros_like(mu)
    pairs = itertools.product(characteristics(pav, 1), characteristics(pav, n))
    for col, (a, b) in enumerate(pairs):
        for j in itertools.product(range(n + 1), repeat=g):
            tau = tuple((ai - bi + ji) / (n + 1) % 1 for ai, bi, ji in zip(a, b, j))
            row = tuple((bi + ti) % 1 for bi, ti in zip(b, tau))
            expected[rows[row], col] = consts[taus[tau]]
    assert np.array_equal(mu, expected)
    assert np.array_equal((mu != 0).sum(axis=0), np.full(mu.shape[1], (n + 1) ** g))
    assert mu_matrix(pav, n).tobytes() == mu.tobytes()


def test_expand_in_basis_matches_lstsq():
    # several columns of values in the span at once: the coefficients are
    # lstsq's on the envelope-weighted design, column by column, and the
    # residual is the largest column misfit
    pav = validate_polarized(random_period_matrix(2, 33), (1, 2), True)
    basis = ThetaBasis(pav, 2)
    zs = sample_points(pav, 2 * basis.dim, 8)
    rng = np.random.default_rng(5)
    true = rng.standard_normal((basis.dim, 3)) + 1j * rng.standard_normal((basis.dim, 3))
    values = basis.eval_matrix(zs).T @ true
    result = expand_in_basis(pav, 2, values, zs)
    w = section_weights(pav, 2, zs)
    design = (basis.eval_matrix(zs) * w).T
    coef, _, rank, _ = np.linalg.lstsq(design, values * w[:, None], rcond=None)
    assert rank == basis.dim
    assert result.coefficients.shape == (basis.dim, 3)
    assert np.abs(result.coefficients - coef).max() <= 1e-12 * np.abs(coef).max()
    assert np.abs(result.coefficients - true).max() <= 1e-10 * np.abs(true).max()
    rhs = values * w[:, None]
    misfit = np.linalg.norm(design @ result.coefficients - rhs, axis=0)
    assert result.residual == pytest.approx((misfit / np.linalg.norm(rhs, axis=0)).max())
    assert result.residual < 1e-12
    # one column alone gives that column's coefficients, as a vector
    single = expand_in_basis(pav, 2, values[:, 1], zs)
    assert single.coefficients.shape == (basis.dim,)
    gap = np.abs(single.coefficients - result.coefficients[:, 1]).max()
    assert gap <= 1e-13 * np.abs(coef).max()
    # one column outside the span fails the whole batch
    values[:, 2] = np.conj(values[:, 2])
    with pytest.raises(NotInSpan):
        expand_in_basis(pav, 2, values, zs)


def _table_eigenbasis(pav, m, table):
    """The eigenbasis built entry by entry from the exact character table."""
    d = pav.divisors
    g = pav.g
    group = table.group
    deg = len(group.k1)
    reps = list(itertools.product(*[range(m)] * g))
    dims = tuple(m * di for di in d)
    jvecs = [tuple(int(x.a[i] * d[i]) for i in range(g)) for x in group.k1]
    U = np.zeros((deg * len(reps),) * 2, dtype=complex)
    for yi in range(deg):
        for ri, rep in enumerate(reps):
            for ji, j in enumerate(jvecs):
                kk = tuple((rep[i] + m * j[i]) % dims[i] for i in range(g))
                row = int(np.ravel_multi_index(kk, dims))
                U[row, yi * len(reps) + ri] = np.exp(-2j * np.pi * float(table.phases[yi][ji]))
    return U / np.sqrt(deg)


def _reference_blocks(pav, n):
    """The dense mu_n, its transform Un1^H mu_n (U1 kron Un) with eigenbases
    built entry by entry from the exact character table, the character of
    every column of the transform, and the block of every character i of
    K(L)_1, in the order of lex_vectors(d)."""
    mu = mu_matrix(pav, n)
    table = characters(pav, 1)
    k2 = table.group.k2
    # character i is lex_vectors(d)[i], the order of k2
    chars = lex_vectors(pav.divisors)
    assert [tuple(int(b) for b in y.b) for y in k2] == [tuple(k) for k in chars]
    U1, Un, Un1 = (_table_eigenbasis(pav, m, table) for m in (1, n, n + 1))
    # the Kronecker product, applied one factor at a time
    full = (Un1.conj().T @ mu).reshape(len(Un1), len(U1), len(Un))
    full = (np.swapaxes(np.tensordot(full, U1, axes=(1, 0)), 1, 2) @ Un).reshape(len(Un1), -1)
    col_gamma = np.repeat([table.character_of(ya + yb) for ya in k2 for yb in k2], n**pav.g)
    rows = (n + 1) ** pav.g
    reference = [full[i * rows:(i + 1) * rows][:, col_gamma == i] for i in range(len(k2))]
    return mu, full, col_gamma, reference


@pytest.mark.parametrize(
    "divisors,n,seed", [((3,), 1, 101), ((4,), 2, 102), ((2, 4), 1, 5), ((1, 2, 2), 2, 301)],
    ids=lambda v: str(v),
)
def test_block_transform_matches_kron(divisors, n, seed):
    # the reference transforms the dense mu_n with eigenbases built entry by
    # entry from the exact character table
    pav = validate_polarized(random_period_matrix(len(divisors), seed), divisors, True)
    blocks = gamma_blocks(pav, n)
    mu, full, col_gamma, reference = _reference_blocks(pav, n)
    assert len(blocks.ranks) == len(reference)
    assert blocks.orbit[blocks.representatives].tolist() == list(range(len(blocks.matrices)))
    scale = np.abs(full).max()
    # every representative block is the reference block at its character
    for block, gi in zip(blocks.matrices, blocks.representatives):
        assert np.abs(block - reference[gi]).max() <= 1e-13 * scale
        # the block ranks and the verdict's rank come from one threshold rule
        assert blocks.ranks[gi] == _rank(block)
    off = full.copy()
    rows = (n + 1) ** pav.g
    for gi, expected in enumerate(reference):
        assert blocks.ranks[gi] == _rank(expected)
        off[gi * rows:(gi + 1) * rows, col_gamma == gi] = 0.0
    # the reference is block diagonal, so the blocks miss nothing
    assert np.linalg.norm(off) <= 1e-13 * np.linalg.norm(full)
    _assert_union_is_dense_spectrum(blocks, mu)


#: (divisors, n, omega seed, orbits): the characters gamma of K(L)_1 fall into
#: orbits of gamma mod gcd(n+1, d_i) up to sign
_ORBIT_CASES = [
    ((3,), 1, 101, 1), ((4,), 1, 102, 2), ((60,), 1, 101, 2), ((1, 2), 1, 33, 2),
    ((2, 4), 1, 5, 4), ((3, 3), 1, 104, 1), ((12,), 2, 7, 2), ((2, 6), 2, 8, 2),
    ((1, 3, 9), 2, 301, 5), ((1, 1, 21), 2, 301, 2), ((1, 2, 2), 2, 301, 1),
]


@pytest.mark.parametrize("divisors,n,seed,orbits", _ORBIT_CASES, ids=lambda v: str(v))
def test_orbit_blocks_have_the_spectrum_of_their_representative(divisors, n, seed, orbits):
    pav = validate_polarized(random_period_matrix(len(divisors), seed), divisors, True)
    blocks = gamma_blocks(pav, n)
    assert len(blocks.matrices) == len(blocks.representatives) == orbits
    spectra = np.linalg.svd(blocks.matrices, compute_uv=False)
    mu, _, _, reference = _reference_blocks(pav, n)
    # every character's reference block has its representative's spectrum
    for gi, expected in enumerate(reference):
        s = np.linalg.svd(expected, compute_uv=False)
        assert np.abs(s - spectra[blocks.orbit[gi]]).max() <= 1e-13 * spectra.max()
        assert blocks.ranks[gi] == _rank(expected)
    # so the representative spectra, each repeated by its orbit size, are the
    # spectrum of mu_n
    _assert_union_is_dense_spectrum(blocks, mu)


def test_verdict_forms_no_dense_slice(elliptic_d3, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the verdict formed dense columns of mu_n")

    monkeypatch.setattr("thetamu.reference.mu_matrix", refuse)
    surface = validate_polarized(random_period_matrix(2, 104), (3, 3), True)
    for pav, rank in ((elliptic_d3, 6), (surface, 36)):
        verdict = surjectivity_verdict(pav, 1)
        assert verdict.verdict is Verdict.SURJECTIVE and verdict.rank == rank


def test_wirtinger_matrix_is_seed_and_period_independent():
    # the matrix is exact, so neither the seed of its sampled check nor the
    # period matrix moves a bit of it
    first = wirtinger_matrix(validate_polarized(random_period_matrix(2, 105), (1, 1), True), 1, 15)
    for omega, seed in ((random_period_matrix(2, 105), 16), (random_period_matrix(2, 117), 977),
                        (np.diag([1j, 2j]), 0)):
        wirt = wirtinger_matrix(validate_polarized(omega, (1, 1), True), 1, seed)
        assert wirt.fit_residual < 1e-12
        assert wirt.full.tobytes() == first.full.tobytes()
        assert wirt.reduced.tobytes() == first.reduced.tobytes()
