import dataclasses
import itertools

import numpy as np
import pytest

from thetamu import (
    IllConditioned,
    NotInSpan,
    SectionIndex,
    ThetaBasis,
    ThetaTilde,
    Verdict,
    catalog,
    characters,
    diagram_check,
    expand_in_basis,
    gamma_blocks,
    monotonicity_check,
    mu_matrix,
    numerical_rank,
    phi_map_coords,
    projective_residual,
    random_period_matrix,
    run_scenario,
    sample_points,
    section_indices,
    section_weights,
    spanning_check,
    surjectivity_verdict,
    theta_constants,
    validate_polarized,
    wirtinger_matrix,
    zero_point,
)
from thetamu import mult


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
    s2 = sample_points(elliptic_d3, 12, 5)
    assert np.array_equal(s1.z, s2.z)
    assert not np.array_equal(s1.z, sample_points(elliptic_d3, 12, 6).z)


def test_expand_recovers_basis_vectors(elliptic_d3):
    basis = ThetaBasis(elliptic_d3, 2)
    samples = sample_points(elliptic_d3, 2 * basis.dim, 3)
    unit = expand_in_basis(elliptic_d3, 2, lambda zs: basis.eval_matrix(zs)[4], samples)
    expected = np.zeros(basis.dim)
    expected[4] = 1.0
    assert np.allclose(unit.coefficients, expected, atol=1e-10)
    assert unit.residual < 1e-10
    pair = expand_in_basis(
        elliptic_d3,
        2,
        lambda zs: basis.eval_matrix(zs)[0] + basis.eval_matrix(zs)[1],
        samples,
    )
    expected = np.zeros(basis.dim)
    expected[:2] = 1.0
    assert np.allclose(pair.coefficients, expected, atol=1e-10)


def test_expand_theta_tilde_is_all_ones(principal_g1):
    n = 3
    tilde = ThetaTilde(principal_g1, n)
    samples = sample_points(principal_g1, 2 * principal_g1.h0(n) + 2, 4)
    result = expand_in_basis(principal_g1, n, lambda zs: tilde.eval_many(zs), samples)
    assert np.allclose(result.coefficients, 1.0, atol=1e-10)


def test_expand_rejects_undersampling(elliptic_d3):
    samples = sample_points(elliptic_d3, 3, 1)
    with pytest.raises(ValueError):
        expand_in_basis(elliptic_d3, 2, lambda zs: zs[:, 0], samples)


def test_expand_flags_out_of_span(elliptic_d3):
    basis = ThetaBasis(elliptic_d3, 2)
    samples = sample_points(elliptic_d3, 2 * basis.dim, 9)
    with pytest.raises(NotInSpan):
        expand_in_basis(
            elliptic_d3, 2, lambda zs: np.conj(basis.eval_matrix(zs)[0]), samples
        )


def test_expand_ill_conditioned_cap(elliptic_d3):
    # one point drawn 2 * dim times: the design has rank 1, so its condition
    # exceeds DEFAULT_COND_CAP
    basis = ThetaBasis(elliptic_d3, 2)
    drawn = sample_points(elliptic_d3, 1, 3)
    count = 2 * basis.dim
    samples = mult.SampleSet(
        drawn.seed, count, *(np.repeat(x, count, axis=0) for x in (drawn.a, drawn.b, drawn.z))
    )
    with pytest.raises(IllConditioned):
        expand_in_basis(elliptic_d3, 2, lambda zs: basis.eval_matrix(zs)[0], samples)


def test_mu_matrix_shapes(elliptic_d3, principal_g2):
    mu = mu_matrix(elliptic_d3, 1)
    assert mu.matrix.shape == (6, 9)
    mu_p = mu_matrix(principal_g2, 1)
    assert mu_p.matrix.shape == (4, 1)


def test_mu_matrix_surface_shape():
    pav = validate_polarized(random_period_matrix(2, 104), (3, 3), simple_asserted=True)
    mu = mu_matrix(pav, 1)
    assert mu.matrix.shape == (36, 81)


def test_numerical_rank_basics():
    rank, s, clean = numerical_rank(np.eye(3))
    assert (rank, clean) == (3, True)
    rank, _, clean = numerical_rank(np.zeros((4, 2)))
    assert (rank, clean) == (0, True)
    rank, _, clean = numerical_rank(np.diag([1.0, 1e-15]))
    assert (rank, clean) == (1, True)
    # a singular value sitting right at the threshold is flagged
    _, _, clean = numerical_rank(np.diag([1.0, 1e-8]))
    assert not clean


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
    assert numerical_rank(mu.matrix).rank < principal_g2.h0(2)


def test_verdict_invariant_under_reseeding():
    # mu_n draws no samples, so the scenario seed does not reach the verdict
    cfg = next(cfg for cfg in catalog() if cfg.name == "elliptic-d3")
    v1 = run_scenario(cfg).payload["surjectivity"]
    v2 = run_scenario(dataclasses.replace(cfg, seed=977)).payload["surjectivity"]
    assert v1["verdict"] == v2["verdict"] == "Surjective"
    assert v1 == v2


def _assert_union_is_dense_spectrum(blocks, mu):
    """The block spectra together are the spectrum of the dense mu_n."""
    dense = np.linalg.svd(mu.matrix, compute_uv=False)
    assert blocks.singular_values.shape == dense.shape
    assert np.abs(blocks.singular_values - dense).max() <= 1e-13 * dense[0]


def test_gamma_blocks_principal_single_block(principal_g1):
    mu = mu_matrix(principal_g1, 2)
    blocks = gamma_blocks(principal_g1, 2)
    assert len(blocks.blocks) == 1
    assert np.allclose(blocks.blocks[0].matrix, mu.matrix)
    _assert_union_is_dense_spectrum(blocks, mu)


def test_gamma_blocks_elliptic_d3(elliptic_d3):
    blocks = gamma_blocks(elliptic_d3, 1)
    assert len(blocks.blocks) == 3
    for block in blocks.blocks:
        assert block.matrix.shape == (2, 3)
    _assert_union_is_dense_spectrum(blocks, mu_matrix(elliptic_d3, 1))
    assert blocks.rank_sum == blocks.total_rank == 6


def test_gamma_blocks_rank_additivity_catalog():
    cases = [((3,), 1, 101), ((4,), 1, 102), ((1, 2), 1, 33), ((3, 3), 1, 104)]
    for divisors, n, seed in cases:
        g = len(divisors)
        pav = validate_polarized(random_period_matrix(g, seed), divisors, True)
        blocks = gamma_blocks(pav, n)
        _assert_union_is_dense_spectrum(blocks, mu_matrix(pav, n))
        assert blocks.rank_sum == blocks.total_rank


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
        exp = expand_in_basis(
            pav, n + 1,
            lambda zs, v=v: basis1.eval_matrix(zs + n * v)[0] * tilde.eval_many(zs - v),
            samples,
        )
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


def test_wrong_wirtinger_incidence_is_rejected(principal_g1):
    n, seed = 2, 16
    wirt = wirtinger_matrix(principal_g1, n, seed)
    k = np.arange(n + 1)[:, None]
    j = np.arange(n * (n + 1))[None, :]
    same_sign = ((k - j) % (n + 1) == 0).astype(float)  # alpha = n beta in place of -n beta
    flipped = wirt.full.copy()
    flipped[1, 0] = 1.0 - flipped[1, 0]
    rng = np.random.default_rng(61)
    points = [rng.random(1) @ principal_g1.matrix.T + rng.random(1) for _ in range(3)]
    assert mult._wirtinger_residual(principal_g1, n, wirt.full, seed) == wirt.fit_residual
    for wrong in (same_sign, flipped):
        assert mult._wirtinger_residual(principal_g1, n, wrong, seed) > 1e-8
        bad = dataclasses.replace(wirt, full=wrong)
        for b in points:
            assert diagram_check(principal_g1, n, b, seed, wirt=bad) > 1e-8


def test_phi_map_coords_properties(principal_g1):
    n = 2
    rng = np.random.default_rng(31)
    zero = phi_map_coords(principal_g1, n, zero_point(principal_g1), 41)
    tilde = ThetaTilde(principal_g1, n)
    basis1 = ThetaBasis(principal_g1, 1)
    samples = sample_points(principal_g1, 2 * principal_g1.h0(n + 1), 41)
    direct = expand_in_basis(
        principal_g1, n + 1,
        lambda zs: basis1.eval_matrix(zs)[0] * tilde.eval_many(zs),
        samples,
    )
    assert np.allclose(zero.coefficients, direct.coefficients, atol=1e-9)
    for trial in range(20):
        b = rng.random(1) @ principal_g1.matrix.T + rng.random(1)
        coords = phi_map_coords(principal_g1, n, b, 41)
        assert np.linalg.norm(coords.coefficients) > 1e-6
    # coordinates depend on b only mod Lambda (projectively)
    b = np.array([0.31 + 0.17j])
    lam = principal_g1.lattice_vector([1], [2])
    c1 = phi_map_coords(principal_g1, n, b, 41).coefficients
    c2 = phi_map_coords(principal_g1, n, b + lam, 41).coefficients
    assert projective_residual(c1, c2) < 1e-8


def test_diagram_check_cases(principal_g1):
    n = 2
    wirt = wirtinger_matrix(principal_g1, n, 16)
    rng = np.random.default_rng(61)
    for _ in range(5):
        b = rng.random(1) @ principal_g1.matrix.T + rng.random(1)
        assert diagram_check(principal_g1, n, b, 16, wirt=wirt) < 1e-8
    assert diagram_check(principal_g1, n, np.zeros(1), 16, wirt=wirt) < 1e-8


def test_diagram_projectivity():
    x = np.array([1.0 + 1j, 2.0, 3.0])
    y = np.array([0.5 + 0.1j, 1.1, 2.9])
    assert projective_residual(x, 7 * y) == pytest.approx(projective_residual(x, y), rel=1e-12)
    assert projective_residual(x, (2 - 3j) * x) < 1e-15


def test_spanning_trivial_group(principal_g1):
    report = spanning_check(principal_g1, 2, [zero_point(principal_g1)])
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


def test_monotonicity_elliptic():
    for divisors, omega_seed in (((3,), 101), ((4,), 102)):
        pav = validate_polarized(random_period_matrix(1, omega_seed), divisors, True)
        v1 = surjectivity_verdict(pav, 1)
        assert v1.verdict is Verdict.SURJECTIVE
        assert monotonicity_check(pav, 1)


def test_monotonicity_vacuous(principal_g2):
    assert monotonicity_check(principal_g2, 1)


def test_size_caps(elliptic_d3, principal_g1, principal_g2):
    from thetamu import SizeLimit

    with pytest.raises(SizeLimit):
        mu_matrix(elliptic_d3, 1, cell_cap=10)
    with pytest.raises(SizeLimit):
        wirtinger_matrix(principal_g1, 2, 16, unknown_cap=4)
    with pytest.raises(SizeLimit):
        spanning_check(principal_g2, 1, 7, point_cap=100)


def test_weighted_sampling_keeps_design_bounded(elliptic_d3):
    basis = ThetaBasis(elliptic_d3, 2)
    samples = sample_points(elliptic_d3, 2 * basis.dim, 3)
    design = basis.eval_matrix(samples.z) * section_weights(elliptic_d3, 2, samples.z)
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
    w = section_weights(pav, n + 1, samples.z)
    design = (ThetaBasis(pav, n + 1).eval_matrix(samples.z) * w).T
    b1 = ThetaBasis(pav, 1).eval_matrix(samples.z)
    bn = ThetaBasis(pav, n).eval_matrix(samples.z)
    rhs = (b1[:, None, :] * bn[None, :, :]).reshape(-1, samples.count).T * w[:, None]
    coef, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    assert rank == design.shape[1]
    assert np.abs(mu.matrix - coef).max() <= 1e-12 * np.abs(coef).max()
    assert numerical_rank(mu.matrix).rank == numerical_rank(coef).rank
    # the exact matrix reproduces the sampled products themselves
    misfit = np.linalg.norm(design @ mu.matrix - rhs, axis=0) / np.linalg.norm(rhs, axis=0)
    assert misfit.max() <= 1e-10


@pytest.mark.parametrize(
    "divisors,n", [((3,), 1), ((4,), 2), ((1, 2), 2), ((3, 3), 1), ((1, 2, 2), 2)],
    ids=lambda v: str(v),
)
def test_mu_matrix_is_exact_incidence(divisors, n):
    # column (a, b) holds theta_tau^(n(n+1))(0) at row b + tau for each of the
    # (n+1)^g solutions tau = (a - b + j)/(n+1) of (n+1) tau = a - b mod Z^g,
    # and nothing else; rows and tau are found here from the characteristics
    g = len(divisors)
    pav = validate_polarized(random_period_matrix(g, 40 + n), divisors, True)
    mu = mu_matrix(pav, n)
    rows = ThetaBasis(pav, n + 1)
    taus = ThetaBasis(pav, n * (n + 1))
    consts = theta_constants(pav, n * (n + 1))
    expected = np.zeros_like(mu.matrix)
    pairs = itertools.product(section_indices(pav, 1), section_indices(pav, n))
    for col, (a, b) in enumerate(pairs):
        for j in itertools.product(range(n + 1), repeat=g):
            tau = [(ai - bi + ji) / (n + 1) for ai, bi, ji in zip(a.c, b.c, j)]
            row = SectionIndex(n + 1, [bi + ti for bi, ti in zip(b.c, tau)])
            expected[rows.position(row), col] = consts[taus.position(SectionIndex(n * (n + 1), tau))]
    assert np.array_equal(mu.matrix, expected)
    assert np.array_equal((mu.matrix != 0).sum(axis=0), np.full(mu.matrix.shape[1], (n + 1) ** g))
    assert mu_matrix(pav, n).matrix.tobytes() == mu.matrix.tobytes()


def test_fit_drops_small_singular_values_like_lstsq():
    rng = np.random.default_rng(5)
    base = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    # rank 3 design with 5 columns: lstsq keeps 3 singular values
    design = np.hstack([base, base[:, :2] * 2.0])
    rhs = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
    fit = mult._fit(design, rhs, cond_cap=np.inf)
    coef, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    assert rank == 3
    assert np.abs(fit.coefficients - coef).max() <= 1e-12 * np.abs(coef).max()
    misfit = np.linalg.norm(design @ coef - rhs, axis=0) / np.linalg.norm(rhs, axis=0)
    assert np.allclose(fit.residuals, misfit, rtol=1e-10)


def _table_eigenbasis(pav, m, table):
    """The eigenbasis built entry by entry from the exact character table."""
    d = pav.delta.divisors
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


@pytest.mark.parametrize(
    "divisors,n,seed", [((3,), 1, 101), ((4,), 2, 102), ((2, 4), 1, 5), ((1, 2, 2), 2, 301)],
    ids=lambda v: str(v),
)
def test_block_transform_matches_kron(divisors, n, seed):
    # the reference transforms the dense mu_n with eigenbases built entry by
    # entry from the exact character table
    pav = validate_polarized(random_period_matrix(len(divisors), seed), divisors, True)
    mu = mu_matrix(pav, n)
    blocks = gamma_blocks(pav, n)
    table = characters(pav, 1)
    U1, Un, Un1 = (_table_eigenbasis(pav, m, table) for m in (1, n, n + 1))
    full = Un1.conj().T @ mu.matrix @ np.kron(U1, Un)
    k2 = table.group.k2
    assert [block.gamma for block in blocks.blocks] == list(k2)
    reps_n, reps_n1 = n**pav.g, (n + 1) ** pav.g
    col_gamma = np.repeat(
        [table.character_of(ya + yb) for ya in k2 for yb in k2], reps_n
    )
    scale = np.abs(full).max()
    off = full.copy()
    for gi, block in enumerate(blocks.blocks):
        rows = slice(gi * reps_n1, (gi + 1) * reps_n1)
        expected = full[rows][:, col_gamma == gi]
        assert np.abs(block.matrix - expected).max() <= 1e-13 * scale
        assert block.rank == numerical_rank(expected).rank
        off[rows, col_gamma == gi] = 0.0
    # the reference is block diagonal, so the blocks miss nothing
    assert np.linalg.norm(off) <= 1e-13 * np.linalg.norm(full)
    _assert_union_is_dense_spectrum(blocks, mu)


def test_wirtinger_matrix_is_seed_and_period_independent():
    # the matrix is exact, so neither the seed of its sampled check nor the
    # period matrix moves a bit of it
    first = wirtinger_matrix(validate_polarized(random_period_matrix(2, 105), (1, 1), True), 1, 15)
    for omega, seed in ((random_period_matrix(2, 105), 16), (random_period_matrix(2, 117), 977),
                        (np.diag([1j, 2j]), 0)):
        wirt = wirtinger_matrix(validate_polarized(omega, (1, 1), True), 1, seed)
        assert wirt.seed == seed and wirt.fit_residual < 1e-12
        assert wirt.full.tobytes() == first.full.tobytes()
        assert wirt.reduced.tobytes() == first.reduced.tobytes()
