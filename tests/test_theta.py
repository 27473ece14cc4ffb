import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from thetamu import theta
from thetamu.reference import (
    automorphy_factor,
    lattice_coordinates,
    quasi_periodicity_residual,
    translate_action,
)
from thetamu.varieties import DEFAULT_EPS
from thetamu import (
    NotInK1,
    NotLatticeVector,
    SizeLimit,
    ThetaBasis,
    ThetaTilde,
    TorsionPoint,
    TruncationOverflow,
    k_group,
    random_period_matrix,
    section_weights,
    theta_constants,
    validate_polarized,
    zero_point,
)

# small-imaginary-part instances keep automorphy factors within the
# double-precision envelope budget, so residual checks are meaningful
OMEGA_G1 = np.array([[0.25 + 1.0j]])
OMEGA_G2 = np.array(
    [[0.30 + 0.90j, 0.10 + 0.15j], [0.10 + 0.15j, -0.20 + 1.10j]]
)


@pytest.fixture
def elliptic():
    return validate_polarized(np.array([[1j]]), (1,))


@pytest.fixture
def pav_g1():
    return validate_polarized(OMEGA_G1, (3,))


@pytest.fixture
def pav_g2():
    return validate_polarized(OMEGA_G2, (1, 2))


def characteristics(pav, m):
    """The exact characteristic c = k/(m d), as Fractions, of every level-m
    label k, in the lex_vectors order of the sections."""
    dims = [m * d for d in pav.divisors]
    return [tuple(Fraction(k, dim) for k, dim in zip(ks, dims))
            for ks in theta.lex_vectors(dims).tolist()]


def brute_theta(tau, m, c, z, radius):
    """Independent oracle: plain Python double loop over the lattice box."""
    g = tau.shape[0]
    total = 0.0j
    if g == 1:
        points = [(k,) for k in range(-radius, radius + 1)]
    else:
        points = [
            (j, k)
            for j in range(-radius, radius + 1)
            for k in range(-radius, radius + 1)
        ]
    for point in points:
        ell = np.array(point, dtype=float) + c
        total += np.exp(
            1j * math.pi * m * (ell @ tau @ ell) + 2j * math.pi * m * (ell @ z)
        )
    return total


def test_theta_oracle_value(elliptic):
    # closed form at the lemniscatic point: pi^(1/4) / Gamma(3/4)
    value = ThetaBasis(elliptic, 1).eval([0], np.zeros(1))
    reference = math.pi ** 0.25 / math.gamma(0.75)
    assert abs(value - reference) < 1e-12
    assert abs(brute_theta(elliptic.matrix, 1, np.zeros(1), np.zeros(1), 12) - reference) < 1e-12


@pytest.mark.parametrize("dims", [(1,), (7,), (2, 3), (3, 1, 4), (2, 5, 2, 3)],
                         ids=lambda v: str(v))
def test_ravel_inverts_lex_vectors(dims):
    # place values, last axis fastest, for a tuple or an array of dims, one
    # vector or a stack of them
    vectors = theta.lex_vectors(dims)
    count = np.arange(len(vectors))
    assert np.array_equal(theta._ravel(vectors, dims), count)
    stacked = np.stack([vectors, vectors[::-1]])
    assert np.array_equal(theta._ravel(stacked, np.array(dims)), [count, count[::-1]])
    assert theta._ravel(vectors[-1], dims) == len(vectors) - 1


def test_eval_reads_the_row_of_its_label(pav_g2):
    # eval(k, z) is row _ravel(k) of eval_matrix, up to the rounding of a
    # one-row product, for every label k, and a label out of range, of the
    # wrong length or not of integers is refused
    z = np.array([0.2 + 0.3j, -0.1 + 0.4j])
    for m in (1, 2, 3):
        basis = ThetaBasis(pav_g2, m)
        dims = (m, 2 * m)
        labels = theta.lex_vectors(dims)
        assert basis.dim == len(labels) == pav_g2.h0(m)
        values = basis.eval_matrix(z)[:, 0]
        tol = 1e-14 * abs(values).max()
        for k in labels:
            assert abs(basis.eval(k, z) - values[theta._ravel(k, dims)]) <= tol
        for bad in ([m, 0], [0, 2 * m], [-1, 0], [0], [0, 0, 0], [0.5, 0], [1.0, 0],
                    [True, False]):
            with pytest.raises(ValueError, match="is not a level"):
                basis.eval(bad, z)


def test_matches_brute_force_at_generic_points(pav_g1):
    basis = ThetaBasis(pav_g1, 2)
    rng = np.random.default_rng(0)
    zs = rng.random((4, 1)) @ pav_g1.matrix.T + rng.random((4, 1)) * 3.0
    vals = basis.eval_matrix(zs)
    for i, c in enumerate(characteristics(pav_g1, 2)):
        for p in range(4):
            expected = brute_theta(pav_g1.matrix, 2, np.array(c, dtype=float), zs[p], 12)
            assert abs(vals[i, p] - expected) < 1e-10 * (1 + abs(expected))


def test_evenness_of_zero_characteristic(pav_g1):
    basis = ThetaBasis(pav_g1, 1)
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.random(1) @ pav_g1.matrix.T + rng.random(1) * 3.0
        left = basis.eval([0], -z)
        right = basis.eval([0], z)
        assert abs(left - right) < 1e-12 * (1 + abs(right))


def _doubled(monkeypatch, build):
    """build() with every lattice sum over twice the radius of the rule."""
    rule = theta.box_radius
    with monkeypatch.context() as patch:
        patch.setattr(theta, "box_radius", lambda *args: 2 * rule(*args))
        return build()


def test_doubling_certificate(pav_g2, monkeypatch):
    rng = np.random.default_rng(2)
    for m in (1, 2, 3):
        basis = ThetaBasis(pav_g2, m)
        doubled = _doubled(monkeypatch, lambda: ThetaBasis(pav_g2, m))
        assert doubled.radius == 2 * basis.radius
        z = rng.random(2) @ pav_g2.matrix.T + rng.random(2)
        for k in theta.lex_vectors((m, 2 * m))[:3]:
            assert abs(basis.eval(k, z) - doubled.eval(k, z)) < DEFAULT_EPS
    # at g = 3 the values reach 1e17, so the radius is certified against the
    # growth envelope that the accuracy claim is stated in
    pav = validate_polarized(random_period_matrix(3, 301), (1, 2, 2))
    basis = ThetaBasis(pav, 3)
    doubled = _doubled(monkeypatch, lambda: ThetaBasis(pav, 3))
    for _ in range(3):
        z = rng.random(3) @ pav.matrix.T + rng.random(3)
        weight = section_weights(pav, 3, z)[0]
        for k in theta.lex_vectors((3, 6, 6))[:3]:
            assert abs(basis.eval(k, z) - doubled.eval(k, z)) * weight < DEFAULT_EPS


def per_term_theta(tau, m, c, z, radius):
    """Independent reference: one exponential per lattice point of a box
    centred on the dominant term, at the point z as given (no reduction,
    no factorisation)."""
    a = np.linalg.solve(tau.imag, z.imag)
    box = np.array(list(itertools.product(range(-radius, radius + 1), repeat=len(c))))
    ell = c - np.round(a + c) + box
    quad = np.einsum("bi,ij,bj->b", ell, tau, ell)
    return np.exp(1j * math.pi * m * quad + 2j * math.pi * m * (ell @ z)).sum()


def cell_points(pav, count, rng):
    """Points Omega a + Delta b with a, b uniform in [-1/2, 1/2)^g."""
    g = pav.g
    a = rng.random((count, g)) - 0.5
    b = rng.random((count, g)) - 0.5
    return pav.lattice_vector(a, b)


@pytest.mark.parametrize(
    "g,divisors,levels",
    [(1, (3,), (1, 2, 3, 4)), (2, (1, 2), (1, 2, 3)), (3, (1, 1, 1), (1, 2)), (3, (1, 2, 2), (3,))],
    ids=["g1", "g2", "g3-principal", "g3-122"],
)
def test_lattice_sum_matches_per_term_reference(g, divisors, levels):
    pav = validate_polarized(random_period_matrix(g, 60 + g), divisors)
    rng = np.random.default_rng(g)
    zs = cell_points(pav, 4, rng)
    for m in levels:
        basis = ThetaBasis(pav, m)
        vals = basis.eval_matrix(zs)
        w = section_weights(pav, m, zs)
        for i, c in enumerate(characteristics(pav, m)):
            for p, z in enumerate(zs):
                ref = per_term_theta(pav.matrix, m, np.array(c, dtype=float), z, basis.radius)
                assert abs(vals[i, p] - ref) * w[p] <= 1e-13


@pytest.mark.parametrize("m", [1, 3])
def test_lattice_sum_real_halves_match_per_term_reference(m):
    # theta[c; h](z) is theta_c(z + h): the real half enters the box phase,
    # the row phase and, for a point off the fundamental cell, the cross term
    # of its reduction; characteristics past [0, 1) and points several cells
    # out take every one of them
    pav = validate_polarized(random_period_matrix(2, 62), (1, 1))
    rng = np.random.default_rng(m)
    chars = 4 * rng.random((5, 2)) - 2
    halves = 3 * rng.random((5, 2)) - 1
    zs = pav.lattice_vector(4 * rng.random((6, 2)) - 2, 4 * rng.random((6, 2)) - 2)
    lattice = theta._LatticeSum(pav.matrix, m, offset=1.0)
    vals = lattice.eval(chars, zs, halves)
    w = section_weights(pav, m, zs)
    for i, (c, h) in enumerate(zip(chars, halves)):
        for p, z in enumerate(zs):
            ref = per_term_theta(pav.matrix, m, c, z + h, lattice.radius)
            assert abs(vals[i, p] - ref) * w[p] <= 1e-13


def test_lattice_sum_log_factor_joins_the_envelope():
    # at Omega = i the point 15i has log envelope 225 pi = 706.9, past the
    # guard; a factor of modulus e^-10 brings the product back under it, and
    # one of modulus e^20 refuses the point 14.8i (688.1), which passes on
    # its own
    pav = validate_polarized(np.array([[1j]]), (1,))
    lattice = theta._LatticeSum(pav.matrix, 1, offset=1.0)
    chars, z = np.array([[0.0], [0.5]]), np.array([[0.3 + 15j]])
    with pytest.raises(TruncationOverflow):
        lattice.eval(chars, z)
    log_factor = np.array([[-10 + 0.4j], [-10 - 2.0j]])
    with np.errstate(over="raise", invalid="raise"):
        vals = lattice.eval(chars, z, log_factor=log_factor)
    for i, c in enumerate(chars):
        ref = np.exp(log_factor[i, 0]) * per_term_theta(pav.matrix, 1, c, z[0], lattice.radius)
        assert abs(vals[i, 0] - ref) <= 1e-13 * math.exp(225 * math.pi - 10)
    z = np.array([[0.3 + 14.8j]])
    assert np.isfinite(lattice.eval(chars, z)).all()
    with pytest.raises(TruncationOverflow):
        lattice.eval(chars, z, log_factor=np.full((2, 1), 20.0 + 0j))


def test_lattice_sum_cusp_probe():
    # Im Omega = 80: the factored sum must keep every term that matters in
    # range, at every corner of the fundamental cell, up to level 10
    pav = validate_polarized(np.array([[0.1 + 80j]]), (1,))
    a = np.linspace(-0.5, 0.5, 9)
    zs = (np.add.outer(a * pav.matrix[0, 0], np.array([0.0, 0.37, -0.5]))).reshape(-1, 1)
    for m in range(1, 11):
        basis = ThetaBasis(pav, m)
        vals = basis.eval_matrix(zs)
        assert np.isfinite(vals).all()
        envelope = 1.0 / section_weights(pav, m, zs)
        for i, c in enumerate(characteristics(pav, m)):
            for p, z in enumerate(zs):
                ref = per_term_theta(pav.matrix, m, np.array(c, dtype=float), z, basis.radius)
                assert abs(vals[i, p] - ref) <= DEFAULT_EPS * envelope[p]


@pytest.mark.parametrize("omega,m", [(0.1 + 80j, 10), (0.3 + 1.5j, 1), (0.3 + 1.5j, 3)],
                         ids=["80i-level10", "1.5i-level1", "1.5i-level3"])
def test_lattice_sum_at_the_edge_of_the_double_range(omega, m):
    # the values are recombined relative to each point's envelope: up to a
    # log envelope of 697.6, just under the 700 of the overflow guard,
    # nothing overflows and every value keeps its eps * envelope accuracy
    pav = validate_polarized(np.array([[omega]]), (1,))
    basis = ThetaBasis(pav, m)
    tmax = math.sqrt(699 * omega.imag / (math.pi * m))
    zs = np.add.outer(np.linspace(-0.5, 0.5, 5), 1j * tmax * np.array([0.9, 0.97, 0.999]))
    zs = zs.reshape(-1, 1)
    with np.errstate(over="raise", invalid="raise"):
        vals = basis.eval_matrix(zs)
    envelope = 1.0 / section_weights(pav, m, zs)
    assert math.log(envelope.max()) == pytest.approx(699 * 0.999**2)
    for i, c in enumerate(characteristics(pav, m)):
        for p, z in enumerate(zs):
            ref = per_term_theta(pav.matrix, m, np.array(c, dtype=float), z, basis.radius)
            assert abs(vals[i, p] - ref) <= DEFAULT_EPS * envelope[p]
    with pytest.raises(TruncationOverflow):
        basis.eval_matrix(np.array([[1.001j * tmax]]))


def test_lattice_sum_chunks_match_single_points():
    pav = validate_polarized(random_period_matrix(3, 202), (1, 1, 1))
    basis = ThetaBasis(pav, 2)
    box = (2 * basis.radius + 1) ** 3
    step = theta._CHUNK_ELEMENTS // box
    zs = cell_points(pav, 2 * step + 7, np.random.default_rng(11))
    vals = basis.eval_matrix(zs)
    w = section_weights(pav, 2, zs)
    for p in (0, step - 1, step, step + 1, 2 * step, 2 * step + 6):
        single = basis.eval_matrix(zs[p])[:, 0]
        assert np.abs(vals[:, p] - single).max() * w[p] <= 1e-14


@pytest.mark.parametrize(
    "omega,divisors,m",
    [(random_period_matrix(2, 33), (1, 2), 3), ([[0.1 + 80j]], (3,), 6)],
    ids=["g2", "cusp"],
)
def test_lattice_sum_chunk_rule_matches_one_chunk(omega, divisors, m, monkeypatch):
    # chunks of two characteristics and two points, several in every bin,
    # give the values of the default chunks, for the basis and for the
    # constants, up to rounding: the SIMD remainder loops of the smaller
    # products round some exponents differently (3.7e-15 of the envelope here)
    pav = validate_polarized(np.array(omega), divisors)
    basis = ThetaBasis(pav, m)
    zs = cell_points(pav, 24, np.random.default_rng(3))
    vals, consts = basis.eval_matrix(zs), theta_constants(pav, m)
    envelope = 1.0 / section_weights(pav, m, zs)
    lattice = basis._sum
    if divisors == (3,):
        assert lattice.nbins > 1
    for x in (basis._chars - np.round(basis._chars), zs.imag @ lattice.Yinv.T):
        assert min(rows.size for rows, _ in theta._bins(x, lattice.nbins)) > 2
    box = (2 * max(lattice.radius, theta.constants_radius(pav, m)) + 1) ** pav.g
    monkeypatch.setattr(theta, "_CHUNK_ELEMENTS", 2 * box)
    assert (np.abs(basis.eval_matrix(zs) - vals) <= 1e-14 * envelope).all()
    assert np.abs(theta_constants(pav, m) - consts).max() <= 1e-15


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_box_phase_matches_one_exponential_per_entry(g):
    # the per-axis tables and their broadcast products give exp(i lin . b)
    # over the cube of the lattice's radius, a larger cube and R = 0
    pav = validate_polarized(random_period_matrix(g, 70 + g), (1,) * g)
    lattice = ThetaBasis(pav, 3)._sum
    lin = 2 * math.pi * (np.random.default_rng(g).random((50, g)) - 0.5)
    for R in (lattice.radius, lattice.radius + 2, 0):
        box = theta.lex_vectors((2 * R + 1,) * g) - R
        phase = theta._box_phase(lin, R)
        assert phase.shape == (len(box), len(lin))
        assert np.abs(phase.T - np.exp(1j * lin @ box.T)).max() <= 1e-14


def test_lattice_sum_memory_does_not_grow_with_the_points():
    # 20000 -> 80000 points raises the traced peak, less the output, only by
    # the per-point arrays of the reduction (7.7 MB); an unchunked (B, P)
    # temporary, B = 125, would add 150 MB or more
    pav = validate_polarized(random_period_matrix(3, 202), (1, 1, 1))
    basis = ThetaBasis(pav, 2)
    assert (2 * basis.radius + 1) ** 3 == 125
    peaks = []
    for count in (20_000, 80_000):
        zs = cell_points(pav, count, np.random.default_rng(count))
        tracemalloc.start()
        try:
            vals = basis.eval_matrix(zs)
            peaks.append(tracemalloc.get_traced_memory()[1] - vals.nbytes)
        finally:
            tracemalloc.stop()
    # two chunk budgets of complex values: 16 MB
    assert peaks[1] - peaks[0] < 2 * 16 * theta._CHUNK_ELEMENTS


@pytest.mark.parametrize(
    "divisors,levels", [((3,), (1, 2, 6)), ((1, 2), (2, 6)), ((1, 2, 2), (2, 6))],
    ids=["g1", "g2", "g3"],
)
def test_theta_constants_match_basis_and_doubled_radius(divisors, levels, monkeypatch):
    g = len(divisors)
    pav = validate_polarized(random_period_matrix(g, 80 + g), divisors)
    zero = np.zeros((1, g))
    for m in levels:
        consts = theta_constants(pav, m)
        basis = ThetaBasis(pav, m)
        ref = basis.eval_matrix(zero)[:, 0]
        assert np.abs(consts - ref).max() <= 1e-14 * np.abs(ref).max()
        # the radius theta_constants sums, certified by doubling it
        doubled = _doubled(monkeypatch, lambda: theta._LatticeSum(pav.matrix, m, offset=0.5))
        assert doubled.radius == 2 * theta.constants_radius(pav, m)
        chars = np.array(characteristics(pav, m), dtype=float)
        assert np.abs(consts - doubled.eval(chars, zero)[:, 0]).max() <= DEFAULT_EPS


def mp_theta(tau, m, c, z=None, digits=30):
    """High-precision oracle: theta_c^(m)(z) as a plain mpmath lattice sum at
    ``digits`` digits over a box centred on the dominant term, whose
    Gaussian tail is below 1e-34 of the envelope; z = 0 by default."""
    g = len(c)
    z = np.zeros(g, dtype=complex) if z is None else np.asarray(z, dtype=complex)
    lam = float(np.linalg.eigvalsh(tau.imag).min())
    radius = math.ceil(1 + math.sqrt(80 / (math.pi * m * lam)))
    centre = np.round(-np.linalg.solve(tau.imag, z.imag) - np.array([float(x) for x in c]))
    with mpmath.workdps(digits):
        t = [[mpmath.mpc(complex(tau[i, j])) for j in range(g)] for i in range(g)]
        zm = [mpmath.mpc(complex(x)) for x in z]
        cm = [mpmath.mpf(Fraction(x).numerator) / Fraction(x).denominator for x in c]
        total = mpmath.mpc(0)
        for k in itertools.product(range(-radius, radius + 1), repeat=g):
            ell = [int(ci) + ki + xi for ci, ki, xi in zip(centre, k, cm)]
            quad = mpmath.fsum(ell[i] * t[i][j] * ell[j] for i in range(g) for j in range(g))
            lin = mpmath.fsum(ell[i] * zm[i] for i in range(g))
            total += mpmath.exp(1j * mpmath.pi * m * (quad + 2 * lin))
        return complex(total)


@pytest.mark.parametrize(
    "divisors,m", [((3,), 2), ((1, 2), 6), ((1, 1, 1), 6)], ids=["g1-m2", "g2-m6", "g3-m6"]
)
def test_theta_constants_match_mpmath(divisors, m):
    # the accuracy claim eps * envelope, with envelope 1 at z = 0
    g = len(divisors)
    pav = validate_polarized(random_period_matrix(g, 90 + g), divisors)
    consts = theta_constants(pav, m)
    chars = characteristics(pav, m)
    for i in sorted({0, 1, len(chars) // 2, len(chars) - 1}):
        assert abs(consts[i] - mp_theta(pav.matrix, m, chars[i])) <= DEFAULT_EPS


def test_tiny_theta_constants_keep_relative_accuracy():
    # (1,2,2) level 6 at omega seed 301: the smallest constants are ~5e-21,
    # far below eps, yet accurate relative to their own size
    pav = validate_polarized(random_period_matrix(3, 301), (1, 2, 2))
    consts = theta_constants(pav, 6)
    chars = characteristics(pav, 6)
    for i in np.argsort(np.abs(consts))[:4]:
        ref = mp_theta(pav.matrix, 6, chars[i])
        assert abs(consts[i] - ref) <= 1e-12 * abs(ref)
    # g = 1 at level 12 with Im Omega = 3.5: the tail bound alone allows
    # radius 0, which would drop one of the two nearest coset points of
    # c = 1/2 and the second-nearest point of every other characteristic
    pav = validate_polarized(np.array([[0.3 + 3.5j]]), (1,))
    consts = theta_constants(pav, 12)
    for i, c in enumerate(characteristics(pav, 12)):
        ref = mp_theta(pav.matrix, 12, c)
        assert abs(consts[i] - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("divisors,m", [((3,), 4), ((1, 2), 6), ((1, 2, 2), 6)])
def test_theta_constants_are_even(divisors, m):
    # theta_c(0) = theta_{-c}(0): the values at k and -k mod m d are equal
    g = len(divisors)
    pav = validate_polarized(random_period_matrix(g, 100 + g), divisors)
    consts = theta_constants(pav, m)
    dims = m * np.array(divisors)
    ks = np.indices(tuple(dims)).reshape(g, -1).T
    negated = np.ravel_multi_index(tuple((-ks % dims).T), tuple(dims))
    assert np.array_equal(consts, consts[negated])


@pytest.mark.parametrize(
    "divisors,levels", [((3,), (1, 2, 3)), ((1, 2), (1, 2)), ((1, 1, 1), (1, 2)), ((1, 2, 2), (1,))],
    ids=["g1", "g2", "g3-principal", "g3-122"],
)
def test_theta_basis_matches_mpmath_at_cell_points(divisors, levels):
    # the accuracy claim eps * exp(pi m y^T Y^-1 y) away from z = 0, with
    # the radius the basis picks for reduced points
    g = len(divisors)
    pav = validate_polarized(random_period_matrix(g, 110 + g), divisors)
    zs = cell_points(pav, 3, np.random.default_rng(20 + g))
    for m in levels:
        basis = ThetaBasis(pav, m)
        vals = basis.eval_matrix(zs)
        w = section_weights(pav, m, zs)
        chars = characteristics(pav, m)
        for i in sorted({0, basis.dim // 2, basis.dim - 1}):
            for p, z in enumerate(zs):
                ref = mp_theta(pav.matrix, m, chars[i], z)
                assert abs(vals[i, p] - ref) * w[p] <= DEFAULT_EPS


@pytest.mark.parametrize(
    "omega,divisors",
    [([[0.1 + 80j]], (3,)), ([[0.2 + 27j, 0.1 + 2j], [0.1 + 2j, -0.3 + 25j]], (1, 2))],
    ids=["g1-80i", "g2-27i"],
)
def test_theta_basis_matches_mpmath_near_the_cusp(omega, divisors):
    # Im Omega this large makes the lattice sum bin characteristics and
    # points; the corners a = -1/2 and a = 0.49 of the cell lie in different
    # point bins, so the oracle sees values from more than one bin
    pav = validate_polarized(np.array(omega), divisors)
    g = pav.g
    corners = np.array([[-0.5] * g, [0.49] * g]) @ pav.matrix.T
    zs = np.vstack([cell_points(pav, 4, np.random.default_rng(40 + g)), corners])
    for m in (2, 3):
        basis = ThetaBasis(pav, m)
        assert basis._sum.nbins > 1
        vals = basis.eval_matrix(zs)
        w = section_weights(pav, m, zs)
        for i, c in enumerate(characteristics(pav, m)):
            for p, z in enumerate(zs):
                ref = mp_theta(pav.matrix, m, c, z)
                assert abs(vals[i, p] - ref) * w[p] <= DEFAULT_EPS


@pytest.mark.parametrize("g,n", [(1, 2), (1, 3), (2, 2)])
def test_theta_tilde_matches_mpmath_at_cell_points(g, n):
    pav = validate_polarized(random_period_matrix(g, 120 + g), (1,) * g)
    tilde = ThetaTilde(pav, n)
    zs = cell_points(pav, 4, np.random.default_rng(30 + g))
    vals = tilde.eval_many(zs)
    # theta~ is the level-1 series of Omega/n, with the level-n envelope
    w = section_weights(pav, n, zs)
    for p, z in enumerate(zs):
        ref = mp_theta(pav.matrix / n, 1, (0,) * g, z)
        assert abs(vals[p] - ref) * w[p] <= DEFAULT_EPS


def test_quasi_periodicity_suite(pav_g1, pav_g2):
    for pav in (pav_g1, pav_g2):
        g = pav.g
        d = np.array(pav.divisors)
        rng = np.random.default_rng(10 + g)
        for m in (1, 2, 3):
            basis = ThetaBasis(pav, m)
            labels = theta.lex_vectors(m * np.array(pav.divisors))
            drawn = 0
            while drawn < 8:
                a = rng.integers(-2, 3, g).astype(float)
                bhat = rng.integers(-3, 4, g).astype(float)
                z = rng.random(g) @ pav.matrix.T + rng.random(g) * d
                budget = math.pi * m * (a @ pav.matrix.imag @ a + 2 * (z.imag @ a))
                if budget > 7.0:
                    continue
                drawn += 1
                lam = pav.matrix @ a + d * bhat
                k = labels[int(rng.integers(0, basis.dim))]
                assert quasi_periodicity_residual(pav, m, k, lam, z) < 1e-9


def test_quasi_periodicity_zero_and_real_lattice(pav_g1):
    z = np.array([0.3 + 0.2j])
    assert quasi_periodicity_residual(pav_g1, 2, [2], np.zeros(1), z) < 1e-14
    lam = np.array([6.0 + 0j])  # 2 * Delta
    assert quasi_periodicity_residual(pav_g1, 2, [2], lam, z) < 1e-12


def test_quasi_periodicity_fails_off_lattice(elliptic):
    lam = elliptic.matrix @ np.array([0.5])
    rng = np.random.default_rng(3)
    zs = [rng.random(1) @ elliptic.matrix.T + rng.random(1) for _ in range(5)]
    residuals = [quasi_periodicity_residual(elliptic, 1, [0], lam, z) for z in zs]
    assert max(residuals) > 1e-3


def test_automorphy_factor_trivial_cases(pav_g1):
    z = np.array([0.1 + 0.2j])
    assert automorphy_factor(pav_g1, 2, np.array([3.0 + 0j]), z) == pytest.approx(1.0)
    assert automorphy_factor(pav_g1, 2, np.zeros(1), z) == pytest.approx(1.0)
    with pytest.raises(NotLatticeVector):
        automorphy_factor(pav_g1, 1, pav_g1.matrix @ np.array([0.5]), z)


def test_automorphy_cocycle_identity(pav_g2):
    rng = np.random.default_rng(5)
    d = np.array(pav_g2.divisors)
    m = 2
    for _ in range(12):
        a1 = rng.integers(-1, 2, 2).astype(float)
        a2 = rng.integers(-1, 2, 2).astype(float)
        lam1 = pav_g2.matrix @ a1 + d * rng.integers(-2, 3, 2)
        lam2 = pav_g2.matrix @ a2 + d * rng.integers(-2, 3, 2)
        z = rng.random(2) @ pav_g2.matrix.T + rng.random(2) * d
        left = automorphy_factor(pav_g2, m, lam1 + lam2, z)
        right = automorphy_factor(pav_g2, m, lam1, z + lam2) * automorphy_factor(
            pav_g2, m, lam2, z
        )
        assert abs(left - right) < 1e-10 * (1 + abs(left))


def test_lattice_coordinates_roundtrip(pav_g2):
    a = np.array([2, -1])
    bhat = np.array([1, 3])
    lam = pav_g2.lattice_vector(a, bhat)
    ra, rb = lattice_coordinates(pav_g2, lam)
    assert np.array_equal(ra, a)
    assert np.array_equal(rb, bhat)


def test_translate_action_identity(pav_g1):
    zero = TorsionPoint([0], [0], (3,))
    new_k, factor = translate_action(pav_g1, 2, zero, [1])
    assert new_k == (1,)
    assert factor(np.array([0.4 + 0.1j])) == pytest.approx(1.0)


def test_translate_action_swaps_characteristics(elliptic):
    # m = 2, a = 1/2 exchanges theta_0 and theta_{1/2}
    basis = ThetaBasis(elliptic, 2)
    x = TorsionPoint([Fraction(1, 2)], [0], (1,))
    new0, factor = translate_action(elliptic, 2, x, [0])
    assert new0 == (1,)
    new1, _ = translate_action(elliptic, 2, x, [1])
    assert new1 == (0,)
    lam = x.to_complex(elliptic)
    rng = np.random.default_rng(6)
    for _ in range(10):
        z = rng.random(1) @ elliptic.matrix.T * 0.5 + rng.random(1)
        lhs = basis.eval([0], z + lam)
        rhs = factor(z) * basis.eval(new0, z)
        assert abs(lhs - rhs) / (1 + abs(lhs) + abs(rhs)) < 1e-9


def test_translate_action_group_law(elliptic):
    # phi_x . phi_y = phi_{x+y} on all of K(L^2)_1 as operators on sections:
    # no projective defect, even when the sum wraps around the lattice
    basis = ThetaBasis(elliptic, 2)
    group = k_group(elliptic, 2)
    k = [0]
    rng = np.random.default_rng(7)
    zs = [rng.random(1) @ elliptic.matrix.T * 0.5 + rng.random(1) for _ in range(3)]
    for x in group.k1:
        for y in group.k1:
            k_xy, factor_xy = translate_action(elliptic, 2, x + y, k)
            k_y, factor_y = translate_action(elliptic, 2, y, k)
            k_x, factor_x = translate_action(elliptic, 2, x, k_y)
            assert k_xy == k_x
            xlam = x.to_complex(elliptic)
            ylam = y.to_complex(elliptic)
            slam = (x + y).to_complex(elliptic)
            for z in zs:
                target = basis.eval(k_xy, z)
                pair = basis.eval(k, z + xlam + ylam) / (factor_x(z) * factor_y(z + xlam))
                single = basis.eval(k, z + slam) / factor_xy(z)
                assert abs(pair - target) < 1e-10 * (1 + abs(target))
                assert abs(single - target) < 1e-10 * (1 + abs(target))


def test_translate_action_rejects_k2(pav_g1):
    x = TorsionPoint([0], [Fraction(1, 2)], (3,))
    with pytest.raises(NotInK1):
        translate_action(pav_g1, 2, x, [0])


@pytest.mark.parametrize("k", [[7], [-1], [0, 0], [], [0.5], [1.0], [True]],
                         ids=["7", "-1", "two-entries", "none", "half", "float-one", "bool"])
def test_translate_action_rejects_a_label_out_of_range(k):
    # the labels of level 2 on type (1) are [0] and [1], as in ThetaBasis.eval;
    # a float label is not rounded and a bool is not read as 1
    pav = validate_polarized(OMEGA_G1, (1,))
    with pytest.raises(ValueError, match=r"is not a level-2 label, 0 <= k < \(2,\)"):
        translate_action(pav, 2, zero_point(pav), k)


def test_translate_action_permutes_labels_at_g2():
    # type (1,2) at m = 2: every x in K(L^2)_1 maps every label k to k' with
    # theta_k(z + x) = factor(z) theta_k'(z), and the shifts are the labels
    pav = validate_polarized(OMEGA_G2, (1, 2))
    basis = ThetaBasis(pav, 2)
    labels = theta.lex_vectors((2, 4))
    z = np.array([0.21 + 0.13j, -0.17 + 0.29j])
    for x in k_group(pav, 2).k1:
        xlam = x.to_complex(pav)
        shifted = []
        for k in labels:
            new_k, factor = translate_action(pav, 2, x, k)
            shifted.append(new_k)
            lhs = basis.eval(k, z + xlam)
            rhs = factor(z) * basis.eval(new_k, z)
            assert abs(lhs - rhs) <= 1e-10 * abs(lhs)
        assert sorted(shifted) == [tuple(k) for k in labels.tolist()]


def test_torsion_point_of_another_polarization_is_refused():
    # on type (1,2), a point labelled (2,2) is refused with one ValueError,
    # though its coordinates alone pass the membership test of (2,2)
    pav = validate_polarized(OMEGA_G2, (1, 2))
    x = TorsionPoint([Fraction(1, 4), 0], [0, 0], (2, 2))
    with pytest.raises(ValueError, match=r"different polarizations, \(2, 2\) and \(1, 2\)"):
        translate_action(pav, 2, x, [0, 0])
    with pytest.raises(NotInK1):
        translate_action(pav, 2, TorsionPoint([Fraction(1, 4), 0], [0, 0], (1, 2)), [0, 0])


def test_theta_tilde_level_one_is_theta(elliptic):
    tilde = ThetaTilde(elliptic, 1)
    basis = ThetaBasis(elliptic, 1)
    rng = np.random.default_rng(8)
    for _ in range(5):
        z = rng.random(1) @ elliptic.matrix.T + rng.random(1)
        assert tilde.eval(z) == pytest.approx(basis.eval([0], z), rel=1e-12)


@pytest.mark.parametrize("g,n", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_theta_tilde_invariance_and_expansion(g, n):
    rng = np.random.default_rng(70 + g)
    s = rng.uniform(-0.3, 0.3, (g, g))
    omega = (s + s.T) / 2 + 1j * (0.5 * np.eye(g) + 0.05 * np.ones((g, g)))
    pav = validate_polarized(omega, (1,) * g)
    tilde = ThetaTilde(pav, n)
    basis = ThetaBasis(pav, n)
    group = k_group(pav, n)
    zs = rng.random((4, g)).astype(complex)
    for z in zs:
        base = tilde.eval(z)
        # invariance under the normalized K(M^n)_1 action
        for x in group.k1:
            a = np.array([float(q) for q in x.a])
            lam = pav.matrix @ a
            stripping = np.exp(
                -1j * math.pi * n * (a @ pav.matrix @ a) - 2j * math.pi * n * (z @ a)
            )
            residual = abs(tilde.eval(z + lam) - stripping * base) / (1 + abs(base))
            assert residual < 1e-10
        # expansion identity: theta~ = sum over all level-n characteristics
        total = basis.eval_matrix(z[None, :]).sum()
        assert abs(base - total) < 1e-10 * (1 + abs(base))


def test_theta_tilde_radius_uses_its_zero_characteristic():
    # theta~ and the principal level-1 basis sum Z^g with characteristic 0,
    # so at a reduced point the Gaussian centre is within 1/2 of a lattice
    # point: offset 1/2, as for theta constants.  A basis takes 1/2 plus the
    # largest distance of its characteristics from Z^g: 5/6 at level 3 and 1
    # at level 2
    pav = validate_polarized(random_period_matrix(2, 107), (1, 1))
    tilde = ThetaTilde(pav, 1)
    assert tilde.radius == theta.box_radius(pav.lambda_min, 1, 2, 0.5) == 2
    assert ThetaBasis(pav, 1).radius == 2
    for m, offset in ((2, 1.0), (3, 5 / 6)):
        assert ThetaBasis(pav, m).radius == theta.box_radius(pav.lambda_min, m, 2, offset)


@pytest.mark.parametrize("divisors,m", [((1, 1), 1), ((1, 1), 3), ((1, 3), 1)],
                         ids=lambda v: str(v))
def test_basis_offset_holds_at_the_cell_corners(divisors, m, monkeypatch):
    # the Gaussian centre is farthest from the box centre at a corner of the
    # cell, Y^{-1} Im z0 = +-1/2, with the characteristic farthest from Z^g;
    # there the radius of the offset rule still agrees with twice it
    pav = validate_polarized(random_period_matrix(2, 107), divisors)
    corners = np.array([[0.5, 0.5], [-0.5, 0.5], [0.5, -0.49], [-0.49, -0.49]])
    zs = corners @ pav.matrix.T + 0.3
    basis = ThetaBasis(pav, m)
    doubled = _doubled(monkeypatch, lambda: ThetaBasis(pav, m))
    weight = section_weights(pav, m, zs)
    assert (np.abs(basis.eval_matrix(zs) - doubled.eval_matrix(zs)) * weight <= DEFAULT_EPS).all()


def test_theta_tilde_satisfies_level_n_cocycle():
    pav = validate_polarized(OMEGA_G1 * 1.0, (1,))
    n = 3
    tilde = ThetaTilde(pav, n)
    rng = np.random.default_rng(9)
    for _ in range(5):
        a = rng.integers(-1, 2, 1).astype(float)
        bhat = rng.integers(-2, 3, 1).astype(float)
        lam = pav.matrix @ a + bhat
        z = rng.random(1) * 0.8 + 0.1
        e = np.exp(
            -1j * math.pi * n * (a @ pav.matrix @ a) - 2j * math.pi * n * (z @ a)
        )
        lhs = tilde.eval(z + lam)
        rhs = e * tilde.eval(z)
        assert abs(lhs - rhs) / (1 + abs(rhs)) < 1e-9


def test_invariant_theta_tilde_requires_principal(pav_g1):
    with pytest.raises(ValueError):
        ThetaTilde(pav_g1, 2).eval(np.zeros(1))


def test_linear_independence_gram_rank():
    for divisors in ((1,), (2,), (1, 1), (1, 2)):
        g = len(divisors)
        pav = validate_polarized(
            OMEGA_G1 if g == 1 else OMEGA_G2, divisors
        )
        rng = np.random.default_rng(40 + g)
        for m in range(1, 5):
            basis = ThetaBasis(pav, m)
            count = 2 * basis.dim
            zs = pav.lattice_vector(rng.random((count, g)), rng.random((count, g)))
            mat = basis.eval_matrix(zs).T * section_weights(pav, m, zs)[:, None]
            s = np.linalg.svd(mat, compute_uv=False)
            assert int((s > 1e-8 * s[0]).sum()) == basis.dim


def test_truncation_capacity_guard():
    # Im Omega = 1e-6 I needs radius 3803 at level 1, (2 R + 1)^2 points
    # over theta.DEFAULT_CAPACITY, so the box is refused before it is built
    pav = validate_polarized(1e-6j * np.eye(2), (1, 2))
    assert theta.box_radius(pav.lambda_min, 1, 2, 1.0) == 3803
    assert 7607**2 > theta.DEFAULT_CAPACITY
    with pytest.raises(TruncationOverflow):
        ThetaBasis(pav, 1)
    # at 1e-300 the radius passes 1e150, where R + 1 and R round to the
    # same float: the radius search still ends, and the box is refused
    assert theta.box_radius(1e-300, 1, 1, 1.0) > 10**150
    with pytest.raises(TruncationOverflow):
        ThetaBasis(validate_polarized(np.array([[1e-300j]]), (1,)), 1)
    # a subnormal lambda_min puts even the first radius past the float range
    with pytest.raises(TruncationOverflow):
        ThetaBasis(validate_polarized(np.diag([1e-310j, 1j]), (1, 1)), 1)


def test_lattice_sum_term_cap(pav_g2, monkeypatch):
    # K (2R+1)^g P terms at the cap are summed; past it, with more points,
    # the sum is refused before the points are reduced
    basis = ThetaBasis(pav_g2, 2)
    side = 2 * basis.radius + 1
    monkeypatch.setattr(theta, "DEFAULT_TERM_CAP", basis.dim * side**2 * 3)
    assert basis.eval_matrix(np.zeros((3, 2))).shape == (basis.dim, 3)

    def refuse(*args):
        raise AssertionError("the points were reduced")

    monkeypatch.setattr(theta._LatticeSum, "_reduce", refuse)
    message = f"^lattice sum terms: {basis.dim * side**2 * 4} exceeds cap {theta.DEFAULT_TERM_CAP}$"
    with pytest.raises(SizeLimit, match=message):
        basis.eval_matrix(np.zeros((4, 2)))


def test_envelope_overflow_guard(elliptic):
    basis = ThetaBasis(elliptic, 1)
    with pytest.raises(TruncationOverflow):
        basis.eval([0], np.array([300j]))
