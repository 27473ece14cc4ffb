"""Polarized abelian varieties: data model, validation, section counts, bounds.

Conventions (fixed throughout the package):

* ``A = V / Lambda`` with ``V = C^g`` and ``Lambda = Omega Z^g + Delta Z^g``,
  where ``Omega`` is a symmetric g x g matrix with positive definite
  imaginary part and ``Delta = diag(d_1, ..., d_g)`` holds the elementary
  divisors of the polarization.
* The alternating form is ``E(Omega a + Delta b, Omega a' + Delta b')
  = a^T Delta b' - b^T Delta a'``, i.e. the matrix ``[[0, Delta],
  [-Delta, 0]]`` in this lattice basis.
* ``h^0(A, L^m) = m^g d_1 ... d_g``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BadDivisorChain, NotPositiveDefinite, NotSymmetric, ValidationError

#: relative tolerance for the symmetry check of a period matrix
SYMMETRY_RTOL = 1e-12
#: default target absolute accuracy of theta evaluations
DEFAULT_EPS = 1e-12


@dataclass(frozen=True)
class PolarizationType:
    """Elementary divisors (d_1, ..., d_g) of a line bundle type.

    The container itself accepts any integer tuple; :func:`validate_polarized`
    (or :meth:`check`) enforces d_i >= 1 and d_i | d_{i+1}.
    """

    divisors: tuple[int, ...]

    def __init__(self, divisors: Sequence[int]):
        if any(d != int(d) for d in divisors):
            raise ValueError(f"divisors must be integers, got {tuple(divisors)}")
        object.__setattr__(self, "divisors", tuple(int(d) for d in divisors))

    @property
    def g(self) -> int:
        return len(self.divisors)

    @property
    def degree(self) -> int:
        deg = 1
        for d in self.divisors:
            deg *= d
        return deg

    @property
    def is_principal(self) -> bool:
        return all(d == 1 for d in self.divisors)

    def as_diagonal(self) -> np.ndarray:
        return np.asarray(self.divisors, dtype=float)

    def check(self) -> list[ValidationError]:
        """Return every violated divisor invariant (empty list when valid)."""
        bad: list[ValidationError] = []
        for i, d in enumerate(self.divisors):
            if d < 1:
                bad.append(BadDivisorChain(i, f"d_{i + 1} = {d} < 1"))
        for i in range(len(self.divisors) - 1):
            a, b = self.divisors[i], self.divisors[i + 1]
            if a >= 1 and b >= 1 and b % a != 0:
                bad.append(BadDivisorChain(i, f"d_{i + 1} = {a} does not divide d_{i + 2} = {b}"))
        return bad


@dataclass(frozen=True, eq=False)
class PeriodMatrix:
    """A g x g complex matrix of finite entries, intended to satisfy the
    Riemann relations."""

    omega: np.ndarray

    def __init__(self, omega):
        arr = np.array(omega, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"period matrix must be square, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("period matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "omega", arr)

    @property
    def g(self) -> int:
        return self.omega.shape[0]

    def lambda_min(self) -> float:
        """Smallest eigenvalue of Im(omega)."""
        return float(np.linalg.eigvalsh(self.omega.imag).min())

    def check(self) -> list[ValidationError]:
        """Return every violated invariant: symmetry, positive definiteness."""
        bad: list[ValidationError] = []
        scale = float(np.abs(self.omega).max()) or 1.0
        dev = np.abs(self.omega - self.omega.T)
        # strict: for a subnormal scale the bound underflows to 0
        if dev.max() > SYMMETRY_RTOL * scale:
            i, j = np.unravel_index(int(dev.argmax()), dev.shape)
            bad.append(NotSymmetric(int(i), int(j), float(dev[i, j])))
        lam = self.lambda_min()
        if not lam > 0:
            bad.append(NotPositiveDefinite(lam))
        return bad


@dataclass(frozen=True, eq=False)
class PolarizedAbelianVariety:
    """A validated pair (A, L): torus data plus polarization type.

    Instances are immutable after validation and safe to share across
    concurrent tasks. Construct through :func:`validate_polarized`.
    """

    g: int
    delta: PolarizationType
    omega: PeriodMatrix
    simple_asserted: bool
    eps: float

    @property
    def matrix(self) -> np.ndarray:
        """The period matrix Omega as an ndarray."""
        return self.omega.omega

    @property
    def im(self) -> np.ndarray:
        """Y = Im(Omega)."""
        return self.omega.omega.imag

    @property
    def im_inv(self) -> np.ndarray:
        return np.linalg.inv(self.omega.omega.imag)

    @property
    def lambda_min(self) -> float:
        return self.omega.lambda_min()

    def h0(self, m: int = 1) -> int:
        """Dimension of H^0(A, L^m) = m^g d_1...d_g."""
        if m < 1:
            raise ValueError(f"level must be >= 1, got {m}")
        return int(m) ** self.g * self.delta.degree

    def lattice_vector(self, a, bhat) -> np.ndarray:
        """The point Omega a + Delta bhat, row by row for arrays whose last axis is g."""
        a = np.asarray(a, dtype=float)
        return a @ self.matrix.T + np.asarray(bhat, dtype=float) * self.delta.as_diagonal()


def validate_polarized(
    omega,
    delta,
    simple_asserted: bool = False,
    eps: float = DEFAULT_EPS,
) -> PolarizedAbelianVariety:
    """Validate (omega, delta) and assemble a :class:`PolarizedAbelianVariety`.

    Raises a :class:`ValidationError` listing *every* violated invariant;
    single violations surface as their specific subclass
    (:class:`NotSymmetric`, :class:`NotPositiveDefinite`,
    :class:`BadDivisorChain`). Validation is idempotent: revalidating the
    fields of a valid variety reproduces it.
    """
    if not isinstance(omega, PeriodMatrix):
        omega = PeriodMatrix(omega)
    if not isinstance(delta, PolarizationType):
        delta = PolarizationType(delta)
    if omega.g != delta.g:
        raise ValueError(f"dimension mismatch: omega is {omega.g}x{omega.g}, type has g = {delta.g}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    violations = delta.check() + omega.check()
    if len(violations) == 1:
        raise violations[0]
    if violations:
        raise ValidationError(violations)
    return PolarizedAbelianVariety(
        g=omega.g,
        delta=delta,
        omega=omega,
        simple_asserted=bool(simple_asserted),
        eps=float(eps),
    )


def h0(pav: PolarizedAbelianVariety, m: int) -> int:
    """Number of independent sections of L^m (Riemann-Roch count)."""
    return pav.h0(m)


class TorelliBound(NamedTuple):
    """Exact section-count threshold ((n+1)/n)^g g! and the least integer above it."""

    value: Fraction
    least_sufficient: int


def torelli_bound(g: int, n: int) -> TorelliBound:
    """The surjectivity threshold for mu_n on a simple g-dimensional variety.

    Returns the exact rational ((n+1)/n)^g * g! together with the least
    integer h satisfying h > bound.
    """
    if g < 1 or n < 1:
        raise ValueError(f"require g >= 1 and n >= 1, got g={g}, n={n}")
    value = Fraction(n + 1, n) ** g * factorial(g)
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


def embedded_surface_h0(p_g: int) -> int:
    """Section count h^0(O_A(S)) = p_g + 1 - 3 for a smooth surface S of
    geometric genus p_g embedded in its (3-dimensional) Albanese torus.

    The Torelli criterion for such a surface reads h^0 > 20, i.e. p_g > 22.
    """
    return p_g - 2
