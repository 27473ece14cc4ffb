"""Reference computations, the oracles that the test suite checks the
verdict path against: the theta-group action and the factor of automorphy,
the dense mu_n, and stand-alone least-squares fits in a level-m basis.

No stage, CLI command or report reaches this module, and ``import thetamu``
does not load it; import it as ``from thetamu import reference``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import mult
from .errors import ThetamuError
from .theta import ThetaBasis, ThetaTilde, _check_label, _ravel, lex_vectors, theta_constants
from .torsion import TorsionPoint
from .varieties import PolarizedAbelianVariety, _as_int, _within


class NotLatticeVector(ThetamuError):
    """Vector is not (numerically) a period lattice element."""


class NotInK1(ThetamuError):
    """Translation point is not in the isotropic half K(L^m)_1."""


def lattice_coordinates(pav: PolarizedAbelianVariety, lam):
    """Integer coordinates (a, bhat) with lam = Omega a + Delta bhat.

    Raises :class:`NotLatticeVector` unless each half of lam is a period
    within 1e-9 (1 + max |integer coordinate|), by the bound rule of
    ``varieties._within``: a NaN or infinite vector is no period.
    """
    tol = 1e-9
    lam = np.asarray(lam, dtype=complex)
    a = pav.im_inv @ lam.imag
    aint = np.round(a)
    _within(np.abs(a - aint).max(), tol * (1.0 + np.abs(aint).max()),
            "imaginary part off the lattice", NotLatticeVector)
    rest = lam.real - pav.matrix.real @ aint
    bhat = rest / pav.divisors
    bint = np.round(bhat)
    _within(np.abs(bhat - bint).max(), tol * (1.0 + np.abs(bint).max()),
            "real part off Delta Z^g", NotLatticeVector)
    return aint.astype(int), bint.astype(int)


def _cocycle(pav: PolarizedAbelianVariety, m: int, a: np.ndarray, z):
    """exp(-pi i m a^T Omega a - 2 pi i m a^T z) for a real g-vector a."""
    z = np.asarray(z, dtype=complex)
    return np.exp(-1j * math.pi * m * (a @ pav.matrix @ a) - 2j * math.pi * m * (z @ a))


def automorphy_factor(pav: PolarizedAbelianVariety, m: int, lam, z):
    """The level-m cocycle e_m(lambda, z) = exp(-pi i m a^T Omega a - 2 pi i m a^T z)
    for a period lambda = Omega a + b, b in Delta Z^g."""
    aint, _ = lattice_coordinates(pav, lam)
    return _cocycle(pav, m, aint.astype(float), z)


def quasi_periodicity_residual(pav: PolarizedAbelianVariety, m: int, k, lam, z) -> float:
    """|theta_c(z + lam) - e(lam, z) theta_c(z)| / (1 + |theta_c(z)|) for the
    level-m section labelled k, c = k/(m d).

    Vanishes (to evaluation accuracy) when lam is a period; for non-periods
    the same formula is applied with the real solution a of Im lam = Y a,
    and the residual is O(1) generically.
    """
    basis = ThetaBasis(pav, m)
    lam = np.asarray(lam, dtype=complex)
    z = np.asarray(z, dtype=complex)
    e = _cocycle(pav, m, pav.im_inv @ lam.imag, z)
    t_shift = basis.eval(k, z + lam)
    t_base = basis.eval(k, z)
    return float(abs(t_shift - e * t_base) / (1.0 + abs(t_base)))


def translate_action(pav: PolarizedAbelianVariety, m: int, x: TorsionPoint,
                     k) -> tuple[tuple[int, ...], Callable]:
    """Normalized theta-group action of x = Omega a in K(L^m)_1 on the basis.

    Returns (shifted label k', stripping factor), k'_i = k_i + m d_i a_i
    mod m d_i with d the divisors of ``pav``: the translate satisfies
    theta_k(z + x) = factor(z) * theta_k'(z) exactly, so after stripping the
    factor the action is the pure permutation c -> c + a.  Raises ValueError
    for a point of another polarization or a k that is no level-m label, as
    :meth:`ThetaBasis.eval` does, and :class:`NotInK1` for a point outside
    K(L^m)_1.  The level m must be an integer >= 1, bool excluded.
    """
    m = _as_int(m, "level", 1)
    x._compatible(pav.divisors)
    dims = tuple(m * di for di in pav.divisors)
    k = _check_label(k, m, dims)
    for i, (ai, bi, dim) in enumerate(zip(x.a, x.b, dims)):
        if bi != 0:
            raise NotInK1(f"x has a nonzero real component b_{i} = {bi}")
        if (dim * ai).denominator != 1:
            raise NotInK1(f"x is not in K(L^{m})_1: a_{i} = {ai}")
    shifted = tuple(int((ki + dim * ai) % dim) for ki, ai, dim in zip(k, x.a, dims))
    a = np.array([float(v) for v in x.a])
    return shifted, lambda z: _cocycle(pav, m, a, z)


def mu_matrix(pav: PolarizedAbelianVariety, n: int) -> np.ndarray:
    """The dense mu_n in the canonical bases: h0(n+1) rows, h0(1) * h0(n)
    columns, assembled from the level-n(n+1) theta constants.

    Column (k, k') holds the level-(n+1) coefficients of the product
    theta_k^{(1)} theta_{k'}^{(n)}; rows are lexicographic in the level-(n+1)
    labels, columns in the pairs (k, k') of labels (see ``theta.lex_vectors``).
    Substituting s = (l + n k)/(n+1), t = (l - k)/(n+1) in the product of the
    level-1 and level-n lattice sums (Mumford 1966, Koizumi 1976) gives

        theta_a^{(1)} theta_b^{(n)} = sum_{tau : (n+1) tau = a - b mod Z^g}
                                      theta_tau^{(n(n+1))}(0) theta_{b+tau}^{(n+1)}.

    For a = k1/d, b = kn/(n d) and j in [0, n+1)^g, tau is
    (n k1 - kn + n d j)/(n(n+1) d) and b + tau is (k1 + kn + d j)/((n+1) d),
    so every column has exactly (n+1)^g entries, placed by
    :func:`mult._mu_entries`.  Raises :class:`SizeLimit` before any
    evaluation when the matrix exceeds ``mult.DEFAULT_CELL_CAP`` cells.
    """
    n = _as_int(n, "n", 1)
    rows = pav.h0(n + 1)
    cols = pav.h0(1) * pav.h0(n)
    _within(rows * cols, mult.DEFAULT_CELL_CAP, "mu_n cells")
    row, tau = mult._mu_entries(pav, n, lex_vectors(pav.divisors))
    row = _ravel(row, (n + 1) * np.array(pav.divisors))
    col = np.arange(cols).reshape(row.shape[:2] + (1,))
    matrix = np.zeros((rows, cols), dtype=complex)
    matrix[row, col] = theta_constants(pav, n * (n + 1))[tau]
    return matrix


def expand_in_basis(
    pav: PolarizedAbelianVariety, m: int, values: np.ndarray, zs: np.ndarray
) -> mult.Expansion:
    """Least-squares coefficients in the level-m basis of the function whose
    ``values`` at the samples ``zs`` of shape (P, g) are given.

    ``values`` has shape (P,) or (P, k); the coefficients have shape
    (h0(m),) or (h0(m), k), one column per column of values.  The basis is
    evaluated at the samples and the fit is :func:`mult._weighted_fit`, with
    its gates.
    """
    return mult._weighted_fit(pav, m, ThetaBasis(pav, m).eval_matrix(zs), zs, values)


def _pairs(us: np.ndarray, bs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows (u, b) of every pair of a row u of us and a row b of bs, u
    along the rows: pair i * len(bs) + j is (us[i], bs[j])."""
    u, b = np.broadcast_arrays(us[:, None], bs[None])
    return u.reshape(-1, us.shape[1]), b.reshape(-1, us.shape[1])


def _divisor_values(one: ThetaBasis, tilde: ThetaTilde, us, bs) -> np.ndarray:
    """theta(u + n b) theta~(u - b) for every pair of rows u of us, b of bs,
    from the level-1 basis ``one`` and theta~ of level n = ``tilde.n``, each
    evaluated at the pair points themselves: the oracle of
    ``mult._DivisorGrid``, which reads the same values off shifted
    characteristics."""
    return one.eval_matrix(us + tilde.n * bs)[0] * tilde.eval_many(us - bs)


def phi_map_coords(pav: PolarizedAbelianVariety, n: int, seed: int, points) -> mult.Expansion:
    """Coordinates in |(n+1) theta| of the divisor of u -> theta(u+nb) theta~(u-b)
    for every point b of ``points``, in the forms :func:`wirtinger_matrix`
    takes: coefficients of shape (h0(n+1), P), one column per point, fit at
    one draw of samples u from ``seed``.

    The underlying point of projective space depends only on b mod Lambda.
    Raises ValueError unless n is an integer >= 1, bool excluded.
    """
    if not pav.is_principal:
        raise ValueError("the divisor map requires a principal polarization")
    n = _as_int(n, "n", 1)
    bs = np.asarray(points, dtype=complex).reshape(-1, pav.g)
    us = mult.sample_points(pav, mult.OVERSAMPLE * pav.h0(n + 1), seed)
    values = _divisor_values(ThetaBasis(pav, 1), ThetaTilde(pav, n), *_pairs(us, bs))
    return expand_in_basis(pav, n + 1, values.reshape(len(us), len(bs)), us)
