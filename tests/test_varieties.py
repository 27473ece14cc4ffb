from fractions import Fraction
from math import factorial, inf, nan

import numpy as np
import pytest

from thetamu import (
    BadDivisorChain,
    BoundPrediction,
    NotPositiveDefinite,
    NotSymmetric,
    ValidationError,
    bound_prediction,
    random_period_matrix,
    torelli_bound,
    validate_polarized,
)

I2 = np.array([[1j]])


def test_validate_canonical_elliptic():
    pav = validate_polarized(I2, (1,), simple_asserted=True)
    assert pav.g == 1
    assert pav.divisors == (1,)
    assert pav.simple_asserted
    assert pav.lambda_min == pytest.approx(1.0)


def test_lattice_vector_rows_match_single_vectors():
    pav = validate_polarized(random_period_matrix(2, 7), (1, 3))
    rng = np.random.default_rng(0)
    a = rng.random((5, 2))
    bhat = rng.integers(-3, 4, (5, 2))
    rows = pav.lattice_vector(a, bhat)
    assert rows.shape == (5, 2)
    # equal up to the rounding of the matrix product, which BLAS may order
    # differently for one vector and for a stack
    for p in range(5):
        single = pav.lattice_vector(a[p], bhat[p])
        assert np.abs(rows[p] - single).max() <= 1e-15 * np.abs(single).max()
    assert np.allclose(pav.lattice_vector([1, 0], [0, 1]), pav.matrix[:, 0] + [0, 3])


def test_validate_rejects_real_omega():
    with pytest.raises(NotPositiveDefinite):
        validate_polarized(np.array([[1.0]]), (1,))


def test_validate_rejects_bad_divisor_chain():
    om = random_period_matrix(2, 3)
    with pytest.raises(BadDivisorChain) as info:
        validate_polarized(om, (3, 2))
    assert "3" in str(info.value)


def test_validate_reports_every_violation():
    with pytest.raises(ValidationError) as info:
        validate_polarized(np.array([[1.0, 0.0], [0.0, 1.0]]), (3, 2))
    kinds = {type(v) for v in info.value.violations}
    assert BadDivisorChain in kinds
    assert NotPositiveDefinite in kinds


def test_symmetry_tolerance_is_relative():
    om = np.array([[1j, 0.5], [0.5 + 1e-16, 1j]])
    validate_polarized(om, (1, 1))  # deviation far below 1e-12 * max|omega|
    bad = np.array([[1j, 0.5], [0.5 + 1e-6, 1j]])
    with pytest.raises(NotSymmetric) as info:
        validate_polarized(bad, (1, 1))
    assert info.value.entry in ((0, 1), (1, 0))


def test_validate_is_idempotent():
    om = random_period_matrix(2, 11)
    first = validate_polarized(om, (1, 3), True)
    second = validate_polarized(first.matrix, first.divisors, first.simple_asserted)
    assert np.array_equal(first.matrix, second.matrix)
    assert first.divisors == second.divisors
    assert first.simple_asserted == second.simple_asserted
    assert np.array_equal(first.im_inv, second.im_inv)
    assert first.lambda_min == second.lambda_min


def test_validate_copies_omega_into_a_read_only_matrix():
    om = random_period_matrix(2, 12)
    pav = validate_polarized(om, (1, 2))
    kept = pav.matrix.copy()
    om[0, 0] = 5j
    assert np.array_equal(pav.matrix, kept)
    with pytest.raises(ValueError, match="read-only"):
        pav.matrix[0, 0] = 5j
    with pytest.raises(ValueError, match="read-only"):
        pav.im_inv[0, 0] = 1.0


def test_im_inv_and_lambda_min_match_a_fresh_computation():
    pav = validate_polarized(random_period_matrix(3, 13), (1, 2, 4))
    y = pav.matrix.imag
    assert np.array_equal(pav.im_inv, np.linalg.inv(y))
    assert pav.lambda_min == float(np.linalg.eigvalsh(y).min())
    assert type(pav.lambda_min) is float


def test_validate_rejects_a_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch: omega is 2x2, type has g = 1"):
        validate_polarized(random_period_matrix(2, 3), (1,))


@pytest.mark.parametrize("divisors", [(2.0,), (True,), (1.5,), ("2",)],
                         ids=["float", "bool", "fraction", "string"])
def test_validate_rejects_non_integer_divisors(divisors):
    # the rule of a scenario's type: an integral value, not a bool
    with pytest.raises(ValueError, match="divisors must be integers"):
        validate_polarized(I2, divisors)


def test_validate_takes_numpy_integer_divisors():
    pav = validate_polarized(random_period_matrix(2, 3), np.array([2, 4]))
    assert pav.divisors == (2, 4)
    assert all(type(d) is int for d in pav.divisors)


@pytest.mark.parametrize(
    "divisors,m,expected",
    [((1, 3), 1, 3), ((1, 3), 2, 12), ((3,), 3, 9)],
)
def test_h0_examples(divisors, m, expected):
    g = len(divisors)
    pav = validate_polarized(random_period_matrix(g, 5), divisors)
    assert pav.h0(m) == expected


def test_h0_homogeneity_as_rationals():
    pav = validate_polarized(random_period_matrix(2, 7), (2, 4))
    for m in range(1, 5):
        for mp in range(1, 5):
            assert pav.h0(m) * Fraction(mp, m) ** pav.g == pav.h0(mp)


def test_torelli_bound_examples():
    assert torelli_bound(2, 1).value == 8
    assert torelli_bound(2, 1).least_sufficient == 9
    b32 = torelli_bound(3, 2)
    assert b32.value == Fraction(81, 4)
    assert b32.least_sufficient == 21
    assert torelli_bound(1, 1).value == 2


def test_torelli_bound_decreasing_in_n_and_matches_g_minus_1():
    for g in range(1, 5):
        values = [torelli_bound(g, n).value for n in range(1, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))
    for g in range(2, 7):
        assert torelli_bound(g, g - 1).value == Fraction(g, g - 1) ** g * factorial(g)


def test_bound_prediction_cases():
    surj = validate_polarized(random_period_matrix(2, 21), (3, 3), simple_asserted=True)
    assert bound_prediction(surj, 1) is BoundPrediction.THEOREM_PREDICTS_SURJECTIVE
    small = validate_polarized(random_period_matrix(2, 22), (1, 3), simple_asserted=True)
    assert bound_prediction(small, 1) is BoundPrediction.NO_PREDICTION
    notsimple = validate_polarized(random_period_matrix(2, 23), (3, 3), simple_asserted=False)
    assert bound_prediction(notsimple, 1) is BoundPrediction.NO_PREDICTION


def test_polarization_type_degree():
    pav = validate_polarized(random_period_matrix(2, 7), (2, 4))
    assert pav.degree == 8
    assert not pav.is_principal
    assert validate_polarized(random_period_matrix(2, 7), (1, 1)).is_principal


def test_period_matrix_requires_square():
    with pytest.raises(ValueError, match=r"must be square, got shape \(2, 3\)"):
        validate_polarized(np.zeros((2, 3)), (1, 1))


@pytest.mark.parametrize("entry", [complex(nan, 1), complex(inf, 1), complex(0, inf)],
                         ids=["nan-real", "inf-real", "inf-imag"])
def test_period_matrix_rejects_non_finite_entries(entry):
    # Im Omega of the first two is positive definite and the third has
    # lambda_min inf, so the positivity check alone lets all three through
    with pytest.raises(ValueError, match="finite"):
        validate_polarized([[entry]], (1,))

