"""Polarized abelian varieties: the validated pair (Omega, d), section
counts and the Torelli bound.

Conventions (fixed throughout the package):

* ``A = V / Lambda`` with ``V = C^g`` and ``Lambda = Omega Z^g + Delta Z^g``,
  where ``Omega`` is a symmetric g x g matrix with positive definite
  imaginary part and ``Delta = diag(d_1, ..., d_g)`` holds the elementary
  divisors of the polarization, its type.
* The alternating form is ``E(Omega a + Delta b, Omega a' + Delta b')
  = a^T Delta b' - b^T Delta a'``, i.e. the matrix ``[[0, Delta],
  [-Delta, 0]]`` in this lattice basis.
* ``h^0(A, L^m) = m^g d_1 ... d_g``.

:func:`validate_polarized` turns (Omega, d) into the one validated value,
a :class:`PolarizedAbelianVariety`.
"""

from __future__ import annotations

import math
import numbers
import operator
import random
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (BadDivisorChain, NotPositiveDefinite, NotSymmetric, SizeLimit,
                     ValidationError)

#: relative tolerance for the symmetry check of a period matrix
SYMMETRY_RTOL = 1e-12
#: target accuracy of every theta evaluation, relative to its growth envelope;
#: a constant, so no variety or scenario can loosen the truncation behind a verdict
DEFAULT_EPS = 1e-12


def _is_int(value) -> bool:
    """An integer, of any integral type but bool."""
    # the exact-type test first: a type list may hold a million entries
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def _as_int(value, name: str, least: int) -> int:
    """The one integer rule: ``value`` as a Python int, so no numpy power
    wraps; ValueError for a float or bool, not truncated or read as 0 or 1,
    and for a value below ``least``."""
    if not _is_int(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return operator.index(value)


def _past_digit_limit(value: int) -> bool:
    """Whether the int ``value`` has more decimal digits than str() writes:
    sys.get_int_max_str_digits(), where 0 means no limit."""
    digits = sys.get_int_max_str_digits()
    # 8^digits < 10^digits, so a number of at most 3 digits bits is written
    # without building 10^digits
    return bool(digits) and value.bit_length() > 3 * digits and abs(value) >= 10**digits


def _bound_text(x) -> str:
    """x as :func:`_within` writes it: a float ``.3e``, an int in decimal, one
    past the digit limit D of str() as ``more than 10^D`` (10^D as ``10^D``)."""
    digits = sys.get_int_max_str_digits()
    return (format(x, ".3e") if isinstance(x, float) else str(x) if not _past_digit_limit(x)
            else f"more than 10^{digits}" if x > 10**digits else f"10^{digits}")


def _within(count, cap, what: str, error: type = SizeLimit) -> None:
    """The one bound rule, for every size cap and every tolerance: raise
    ``error`` before the work unless ``count <= cap``, as ``"{what}: {count}
    exceeds cap {cap}"``, so a NaN is never within its bound."""
    if not count <= cap:
        raise error(f"{what}: {_bound_text(count)} exceeds cap {_bound_text(cap)}")


def seeded_uniform(seed: int, shape) -> np.ndarray:
    """An array of the given shape, filled in C order with the first values
    of ``random.Random(seed).random()``: doubles k / 2^53 uniform in [0, 1).

    ``Random.random()`` is the one method whose sequence Python keeps the
    same across versions for a given seed, so every machine draws the same
    bits.  The stdlib generator is used, not ``numpy.random``, whose import
    would load ``hashlib`` and OpenSSL into the process.  ``seed`` must be an
    integer >= 0: ``Random`` reads a negative seed as its absolute value and
    a float or bool as an equal int, so ValueError is raised for those
    instead of silently sharing another seed's stream.
    """
    seed = _as_int(seed, "seed", 0)
    draw = random.Random(seed).random
    count = math.prod(shape)
    return np.fromiter((draw() for _ in range(count)), dtype=float, count=count).reshape(shape)


@dataclass(frozen=True, eq=False)
class PolarizedAbelianVariety:
    """A validated pair (A, L): the period matrix Omega and the type d.

    ``matrix`` is a read-only copy of Omega, ``divisors`` the tuple
    (d_1, ..., d_g), and ``im_inv`` and ``lambda_min`` the inverse and the
    smallest eigenvalue of Im Omega, computed once at validation.  Every
    theta evaluator and lattice sum takes a variety and a level and reads
    these fields, so neither is recomputed per sum.  Instances are immutable
    and safe to share across concurrent tasks.  Construct through
    :func:`validate_polarized`.
    """

    matrix: np.ndarray
    divisors: tuple[int, ...]
    simple_asserted: bool
    im_inv: np.ndarray
    lambda_min: float

    @property
    def g(self) -> int:
        return len(self.divisors)

    @property
    def degree(self) -> int:
        """d_1 ... d_g."""
        return math.prod(self.divisors)

    @property
    def is_principal(self) -> bool:
        return all(d == 1 for d in self.divisors)

    def h0(self, m: int = 1) -> int:
        """Dimension of H^0(A, L^m) = m^g d_1...d_g, for an integer m >= 1."""
        return _as_int(m, "level", 1) ** self.g * self.degree

    def lattice_vector(self, a, bhat) -> np.ndarray:
        """The point Omega a + Delta bhat, row by row for arrays whose last axis is g."""
        a = np.asarray(a, dtype=float)
        return a @ self.matrix.T + np.asarray(bhat, dtype=float) * self.divisors


def validate_polarized(omega, divisors: Sequence[int],
                       simple_asserted: bool = False) -> PolarizedAbelianVariety:
    """Validate (omega, divisors) and assemble a :class:`PolarizedAbelianVariety`.

    ``omega`` is anything ``np.array(..., dtype=complex)`` accepts, and is
    copied; ``divisors`` is a sequence of integers, bool excluded.  Raises
    ValueError for a matrix that is not square or has a non-finite entry, a
    divisor that is not an integer, or a dimension mismatch; otherwise a
    :class:`ValidationError` listing *every* violated invariant, where
    single violations surface as their specific subclass
    (:class:`NotSymmetric`, :class:`NotPositiveDefinite`,
    :class:`BadDivisorChain`). Validation is idempotent: revalidating the
    fields of a valid variety reproduces it. The variety carries no
    accuracy: every theta sum on it is truncated to :data:`DEFAULT_EPS`.
    """
    matrix = np.array(omega, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"period matrix must be square, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError("period matrix entries must be finite")
    divisors = tuple(divisors)
    if not all(map(_is_int, divisors)):
        raise ValueError(f"divisors must be integers, got {divisors}")
    divisors = tuple(map(int, divisors))
    g = matrix.shape[0]
    if g != len(divisors):
        raise ValueError(f"dimension mismatch: omega is {g}x{g}, type has g = {len(divisors)}")

    violations: list[ValidationError] = []
    for i, d in enumerate(divisors):
        if d < 1:
            violations.append(BadDivisorChain(i, f"d_{i + 1} = {d} < 1"))
    for i, (a, b) in enumerate(zip(divisors, divisors[1:])):
        if a >= 1 and b >= 1 and b % a != 0:
            violations.append(
                BadDivisorChain(i, f"d_{i + 1} = {a} does not divide d_{i + 2} = {b}"))
    scale = float(np.abs(matrix).max()) or 1.0
    dev = np.abs(matrix - matrix.T)
    # strict: for a subnormal scale the bound underflows to 0
    if dev.max() > SYMMETRY_RTOL * scale:
        i, j = np.unravel_index(int(dev.argmax()), dev.shape)
        violations.append(NotSymmetric(int(i), int(j), float(dev[i, j])))
    lambda_min = float(np.linalg.eigvalsh(matrix.imag).min())
    if not lambda_min > 0:
        violations.append(NotPositiveDefinite(lambda_min))
    if len(violations) == 1:
        raise violations[0]
    if violations:
        raise ValidationError(violations)

    im_inv = np.linalg.inv(matrix.imag)
    matrix.setflags(write=False)
    im_inv.setflags(write=False)
    return PolarizedAbelianVariety(matrix, divisors, bool(simple_asserted), im_inv, lambda_min)


class TorelliBound(NamedTuple):
    """Exact section-count threshold ((n+1)/n)^g g! and the least integer above it."""

    value: Fraction
    least_sufficient: int


def torelli_bound(g: int, n: int) -> TorelliBound:
    """The surjectivity threshold for mu_n on a simple g-dimensional variety.

    Returns the exact rational ((n+1)/n)^g * g! together with the least
    integer h satisfying h > bound.
    """
    g, n = _as_int(g, "g", 1), _as_int(n, "n", 1)
    value = Fraction(n + 1, n) ** g * math.factorial(g)
    least = value.numerator // value.denominator + 1
    return TorelliBound(value, least)


class BoundPrediction(Enum):
    """Whether the section-count criterion applies to a concrete (A, L, n)."""

    THEOREM_PREDICTS_SURJECTIVE = "TheoremPredictsSurjective"
    NO_PREDICTION = "NoPrediction"


def bound_prediction(pav: PolarizedAbelianVariety, n: int) -> BoundPrediction:
    """Predict surjectivity of mu_n when A is asserted simple and
    h^0(A, L) exceeds the :func:`torelli_bound` threshold."""
    if pav.simple_asserted and pav.h0(1) > torelli_bound(pav.g, n).value:
        return BoundPrediction.THEOREM_PREDICTS_SURJECTIVE
    return BoundPrediction.NO_PREDICTION
