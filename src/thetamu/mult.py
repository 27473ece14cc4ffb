"""Multiplication maps mu_n as explicit matrices, rank verdicts, character
blocks, the Wirtinger coefficient matrix, and the spanning instance checks.

mu_n is exact: every product theta_a^{(1)} theta_b^{(n)} expands in the
level-(n+1) basis with the level-n(n+1) theta constants as coefficients
(Mumford 1966, Koizumi 1976), so the matrix is assembled by index arithmetic
from one evaluation at z = 0.  The Wirtinger matrix is exact too: under the
package normalization it is the 0/1 incidence matrix of
alpha + n beta = 0 mod Z^g.

Sampling remains only for the divisor-map coordinates and the Wirtinger
check.  The coordinates are fit by least squares at seeded random points,
each sample row equilibrated by the inverse growth envelope of its level
(the natural hermitian scale of the bundle), from one thin SVD of the
weighted design that gives both the condition number checked against the
cap and the solution; a residual gate guards the fit.  The diagram check
fits the coordinates of all its points in that one solve, one column per
point.  The Wirtinger matrix is checked by the weighted misfit of the theta
relation at seeded points.

The verdict never forms mu_n itself.  mu_n commutes with the K(L)_1
translations, so its character blocks are the group DFT of its h0(n+1) x
h0(n) slice at level-1 index 0; one batched SVD of the blocks gives every
block rank, and the union of the block spectra is the spectrum of mu_n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import FitResidualTooLarge, IllConditioned, NotInSpan, SizeLimit
from .theta import (
    ThetaBasis,
    ThetaTilde,
    constants_radius,
    lex_vectors,
    section_weights,
    theta_constants,
)
from .torsion import TorsionPoint
from .varieties import PolarizedAbelianVariety

#: least-squares residual above which an expansion is rejected
DEFAULT_RESIDUAL_TOL = 1e-8
#: condition-number cap for sample matrices
DEFAULT_COND_CAP = 1e10
#: relative singular-value threshold for numerical rank
DEFAULT_RANK_TOL = 1e-8
#: sigma_rank must exceed the discard level by this factor for "Surjective"
GAP_RATIO_MIN = 1e3
#: sample count per basis dimension
OVERSAMPLE = 2
#: cap on mu-matrix cells
DEFAULT_CELL_CAP = 10**7
#: cap on Wirtinger unknowns
DEFAULT_UNKNOWN_CAP = 20_000
#: cap on spanning evaluation points
DEFAULT_POINT_CAP = 10**6


def sample_points(pav: PolarizedAbelianVariety, count: int, seed: int) -> np.ndarray:
    """The (count, g) seeded points z_p = Omega a_p + Delta b_p with a_p, b_p
    uniform in [0,1)^g, drawn from default_rng(seed), a first, then b."""
    rng = np.random.default_rng(seed)
    a = rng.random((count, pav.g))
    b = rng.random((count, pav.g))
    return a @ pav.matrix.T + b * pav.delta.as_diagonal()[None, :]


class Expansion(NamedTuple):
    coefficients: np.ndarray
    residual: float


def expand_in_basis(
    pav: PolarizedAbelianVariety, m: int, values: np.ndarray, zs: np.ndarray
) -> Expansion:
    """Least-squares coefficients in the level-m basis of the function whose
    ``values`` at the samples ``zs`` of shape (P, g) are given.

    ``values`` has shape (P,) or (P, k); the coefficients have shape
    (h0(m),) or (h0(m), k), one column per column of values.  Every sample
    row is scaled by the inverse growth envelope of level m, and one thin
    SVD ``design = U diag(s) Vh`` of the weighted design gives both the
    condition ``s_0 / s_min`` and the solution ``Vh^H ((U^H rhs) / s)``.
    Raises :class:`IllConditioned` when the condition exceeds
    DEFAULT_COND_CAP and :class:`NotInSpan` when the largest relative
    column residual exceeds DEFAULT_RESIDUAL_TOL (every admissible section
    lies in the span, so that is a numerical fault).
    """
    basis = ThetaBasis(pav, m)
    if len(zs) < 2 * basis.dim:
        raise ValueError(f"need at least {2 * basis.dim} samples for level {m}, got {len(zs)}")
    w = section_weights(pav, m, zs)
    design = (basis.eval_matrix(zs) * w[None, :]).T
    u, s, vh = np.linalg.svd(design, full_matrices=False)
    cond = float("inf") if s[-1] == 0 else float(s[0] / s[-1])
    if cond > DEFAULT_COND_CAP:
        raise IllConditioned(f"sample matrix condition {cond:.3e} exceeded {DEFAULT_COND_CAP:.1e}")
    values = np.asarray(values, dtype=complex)
    rhs = values.reshape(len(zs), -1) * w[:, None]
    coef = vh.conj().T @ ((u.conj().T @ rhs) / s[:, None])
    misfit = np.linalg.norm(design @ coef - rhs, axis=0)
    norms = np.linalg.norm(rhs, axis=0)
    residual = float(np.divide(misfit, norms, out=np.zeros_like(misfit), where=norms > 0).max())
    if residual > DEFAULT_RESIDUAL_TOL:
        raise NotInSpan(f"expansion residual {residual:.3e} exceeds {DEFAULT_RESIDUAL_TOL:.1e}")
    return Expansion(coef.reshape(basis.dim, *values.shape[1:]), residual)


@dataclass(frozen=True, eq=False)
class MuMatrix:
    """mu_n in the canonical bases: h0(n+1) rows, h0(1) * h0(n) columns.

    Column (c, c') holds the level-(n+1) coefficients of the product
    theta_c^{(1)} theta_{c'}^{(n)}; rows are lexicographic in the level-(n+1)
    characteristics, columns in (c, c') (see ``theta.section_indices``).
    """

    n: int
    matrix: np.ndarray


def mu_matrix(pav: PolarizedAbelianVariety, n: int) -> MuMatrix:
    """Assemble mu_n from the level-n(n+1) theta constants.

    Substituting s = (l + n k)/(n+1), t = (l - k)/(n+1) in the product of the
    level-1 and level-n lattice sums (Mumford 1966, Koizumi 1976) gives

        theta_a^{(1)} theta_b^{(n)} = sum_{tau : (n+1) tau = a - b mod Z^g}
                                      theta_tau^{(n(n+1))}(0) theta_{b+tau}^{(n+1)}.

    For a = k1/d, b = kn/(n d) and j in [0, n+1)^g, tau is
    (n k1 - kn + n d j)/(n(n+1) d) and b + tau is (k1 + kn + d j)/((n+1) d),
    so every column has exactly (n+1)^g entries.  Raises :class:`SizeLimit`
    before any evaluation when the matrix exceeds DEFAULT_CELL_CAP cells.
    """
    if n < 1:
        raise ValueError(f"require n >= 1, got {n}")
    rows = pav.h0(n + 1)
    cols = pav.h0(1) * pav.h0(n)
    if rows * cols > DEFAULT_CELL_CAP:
        raise SizeLimit(f"mu_{n} needs {rows}x{cols} cells, cap is {DEFAULT_CELL_CAP}")
    return MuMatrix(n=n, matrix=_mu_columns(pav, n, lex_vectors(pav.delta.divisors)))


def _mu_columns(pav: PolarizedAbelianVariety, n: int, k1: np.ndarray) -> np.ndarray:
    """The columns (k1, kn) of mu_n, lexicographic, for the level-1 indices
    ``k1`` (rows of integer vectors) and every level-n index kn."""
    d = np.array(pav.delta.divisors)
    # axes (k1, kn, j, coordinate)
    k1 = k1[:, None, None, :]
    kn = lex_vectors(n * d)[None, :, None, :]
    dj = d * lex_vectors((n + 1,) * pav.g)[None, None, :, :]
    row = _ravel((k1 + kn + dj) % ((n + 1) * d), (n + 1) * d)
    tau = _ravel((n * k1 - kn + n * dj) % (n * (n + 1) * d), n * (n + 1) * d)
    col = np.arange(row.shape[0] * row.shape[1]).reshape(row.shape[:2] + (1,))
    matrix = np.zeros((pav.h0(n + 1), col.size), dtype=complex)
    matrix[row, col] = theta_constants(pav, n * (n + 1))[tau]
    return matrix


class RankResult(NamedTuple):
    rank: int
    singular_values: np.ndarray
    clean_gap: bool


def numerical_rank(matrix: np.ndarray) -> RankResult:
    """Rank = #{sigma_i > DEFAULT_RANK_TOL * sigma_max}; the gap flag is set
    when no singular value falls within a decade of the threshold."""
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        return RankResult(0, np.zeros(0), True)
    return _spectrum_rank(np.linalg.svd(matrix, compute_uv=False))


def _spectrum_rank(s: np.ndarray) -> RankResult:
    """The rank rule of :func:`numerical_rank` on given singular values."""
    if s[0] == 0:
        return RankResult(0, s, True)
    thr = DEFAULT_RANK_TOL * float(s[0])
    rank = int((s > thr).sum())
    near = (s >= thr / 10.0) & (s <= thr * 10.0)
    return RankResult(rank, s, not bool(near.any()))


class Verdict(Enum):
    SURJECTIVE = "Surjective"
    NOT_SURJECTIVE = "NotSurjective"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True, eq=False)
class SurjectivityVerdict:
    """Rank decision for mu_n with its spectrum and gap diagnostics.

    ``blocks`` are the character blocks whose spectra, taken together, are
    ``singular_values``, for callers that report them; ``truncation`` holds
    the level n(n+1) of the theta constants behind mu_n, their box radius and
    the (2 radius + 1)^g lattice points summed per characteristic.  Both are
    None for the dimensional shortcut.
    """

    verdict: Verdict
    n: int
    rank: int | None
    required_rank: int
    singular_values: tuple[float, ...]
    gap_ratio: float | None
    clean_gap: bool
    dimensional_shortcut: bool
    blocks: GammaBlocks | None = None
    truncation: dict | None = None


def surjectivity_verdict(
    pav: PolarizedAbelianVariety,
    n: int,
    *,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> SurjectivityVerdict:
    """Decide surjectivity of mu_n numerically.

    The source dimension h0(1) h0(n) < h0(n+1) forces NotSurjective without
    any evaluation; otherwise the verdict comes from the numerical rank of
    mu_n, read off the union of its character-block spectra, with
    Inconclusive whenever the spectrum has no clear gap.  ``cell_cap`` bounds
    the h0(n+1) h0(n) cells of the blocks.
    """
    required = pav.h0(n + 1)
    if pav.h0(1) * pav.h0(n) < required:
        return SurjectivityVerdict(
            verdict=Verdict.NOT_SURJECTIVE,
            n=n,
            rank=None,
            required_rank=required,
            singular_values=(),
            gap_ratio=None,
            clean_gap=True,
            dimensional_shortcut=True,
        )
    cells = required * pav.h0(n)
    if cells > cell_cap:
        raise SizeLimit(f"mu_{n} blocks need {cells} cells, cap is {cell_cap}")
    blocks = gamma_blocks(pav, n)
    rank, s, clean = _spectrum_rank(blocks.singular_values)
    floor = DEFAULT_RANK_TOL * float(s[0])
    sigma_next = float(s[rank]) if rank < len(s) else floor
    denom = max(sigma_next, 0.0)
    gap_ratio = float("inf") if denom == 0 else float(s[rank - 1]) / denom if rank else 0.0
    if rank == required and gap_ratio > GAP_RATIO_MIN:
        verdict = Verdict.SURJECTIVE
    elif rank < required and clean:
        verdict = Verdict.NOT_SURJECTIVE
    else:
        verdict = Verdict.INCONCLUSIVE
    level = n * (n + 1)
    radius = constants_radius(pav, level)
    return SurjectivityVerdict(
        verdict=verdict,
        n=n,
        rank=rank,
        required_rank=required,
        singular_values=tuple(float(x) for x in s),
        gap_ratio=gap_ratio,
        clean_gap=clean,
        dimensional_shortcut=False,
        blocks=blocks,
        truncation={"level": level, "radius": radius, "points": (2 * radius + 1) ** pav.g},
    )


def _ravel(vectors: np.ndarray, dims) -> np.ndarray:
    """Lexicographic position in prod range(dims_i) of every integer vector
    along the last axis of ``vectors``."""
    return np.ravel_multi_index(tuple(np.moveaxis(vectors, -1, 0)), tuple(dims))


@dataclass(frozen=True, eq=False)
class GammaBlocks:
    """Block decomposition of mu_n over the characters gamma of K(L)_1.

    The characters are in the order of ``lex_vectors(d)``: block i belongs
    to gamma = k_i, the i-th integer vector of prod range(d_j).
    ``matrices`` stacks the blocks, shape (|K|, (n+1)^g, |K| n^g); ``ranks``
    holds their numerical ranks by the rule of :func:`numerical_rank`.
    ``singular_values`` is the union of the block spectra, descending; the
    eigenbasis transform is unitary, so it is the spectrum of mu_n.
    """

    n: int
    matrices: np.ndarray
    ranks: np.ndarray
    singular_values: np.ndarray

    @property
    def rank_sum(self) -> int:
        return int(self.ranks.sum())

    @property
    def total_rank(self) -> int:
        return _spectrum_rank(self.singular_values).rank


def gamma_blocks(pav: PolarizedAbelianVariety, n: int) -> GammaBlocks:
    """The character blocks of mu_n, from its columns at level-1 index 0.

    Write a level-m index as k = r + m e with r in [0, m)^g and e in
    K = prod Z/d_i.  K(L)_1 acts by e -> e + x on every level, and the
    multiplication intertwines the actions (the level cocycles multiply
    exactly), so mu[(r', e'), (e1; rn, en)] = F[(r', e' - e1), (rn, en - e1)]
    for the slice F of columns with k1 = 0.  In the eigenbasis of the action
    (column (y, r) holds chi_y(e)^-1 / sqrt|K| at k = r + m e) mu_n is block
    diagonal: block gamma holds the columns with y1 + yn = gamma, in the
    order (y1, rn), and its entry at (r', (y1, rn)) is sqrt|K| times the
    group DFT of F, inverse over e' at gamma and forward over en at
    gamma - y1.
    """
    g = pav.g
    d = pav.delta.divisors
    deg = pav.delta.degree
    rows, cols = (n + 1) ** g, n**g
    F = _mu_columns(pav, n, np.zeros((1, g), dtype=int))
    # split k_i = e_i m + r_i on every axis, then order the axes (e', r', en, rn)
    F = F.reshape(*(x for di in d for x in (di, n + 1)), *(x for di in d for x in (di, n)))
    F = F.transpose(*range(0, 2 * g, 2), *range(1, 2 * g, 2),
                    *range(2 * g, 4 * g, 2), *range(2 * g + 1, 4 * g, 2))
    H = np.fft.fftn(np.fft.ifftn(F, axes=tuple(range(g))), axes=tuple(range(2 * g, 3 * g)))
    H = H.reshape(deg, rows, deg, cols).transpose(0, 2, 1, 3) * math.sqrt(deg)
    chars = lex_vectors(d)
    # H[gamma, gamma - y1] for every pair (gamma, y1)
    partner = _ravel((chars[:, None, :] - chars[None, :, :]) % np.array(d), d)
    stacked = H[np.arange(deg)[:, None], partner].transpose(0, 2, 1, 3).reshape(deg, rows, -1)
    spectra = np.linalg.svd(stacked, compute_uv=False)
    ranks = (spectra > DEFAULT_RANK_TOL * spectra[:, :1]).sum(axis=1)
    return GammaBlocks(n, stacked, ranks, np.sort(spectra, axis=None)[::-1])


@dataclass(frozen=True, eq=False)
class WirtingerMatrix:
    """Coefficients c_{alpha beta} of theta(u+nv) theta~(u-v) in the tensor
    basis theta_alpha^{(n+1)}(u) theta_beta^{(n(n+1))}(v), plus the reduced
    square matrix over beta representatives inside K(M^{n+1})_1.

    Both theta and theta~ carry the package normalization, so the matrix is
    canonical here; against other normalizations it is defined projectively.
    Rows (alpha) and columns (beta) are lexicographic in the characteristics
    (see ``theta.section_indices``).  ``fit_residual`` is the misfit of the
    relation at the samples of ``seed``.
    """

    n: int
    full: np.ndarray
    reduced: np.ndarray
    fit_residual: float
    seed: int


def _wirtinger_residual(pav: PolarizedAbelianVariety, n: int, C: np.ndarray, seed: int) -> float:
    """Weighted relative misfit ||w (lhs - rhs)|| / ||w lhs|| of
    lhs = theta(u+nv) theta~(u-v) against
    rhs = sum_{alpha beta} C[alpha, beta] theta_alpha(u) theta_beta(v)
    at 2 * C.size pairs (u, v) drawn from ``seed``."""
    count = OVERSAMPLE * C.size
    z = sample_points(pav, 2 * count, seed)
    us, vs = z[:count], z[count:]
    N = n * (n + 1)
    w = section_weights(pav, n + 1, us) * section_weights(pav, N, vs)
    theta = ThetaBasis(pav, 1).eval_matrix(us + n * vs)[0]
    lhs = theta * ThetaTilde(pav, n).eval_many(us - vs)
    ta = ThetaBasis(pav, n + 1).eval_matrix(us)
    tb = ThetaBasis(pav, N).eval_matrix(vs)
    rhs = (ta * (C @ tb)).sum(axis=0)
    return float(np.linalg.norm(w * (lhs - rhs)) / np.linalg.norm(w * lhs))


def wirtinger_matrix(
    pav: PolarizedAbelianVariety,
    n: int,
    seed: int,
    *,
    unknown_cap: int = DEFAULT_UNKNOWN_CAP,
) -> WirtingerMatrix:
    """The coefficient matrix of the bilinear theta relation at level
    (n+1, n(n+1)), checked at 2 * #coefficients sampled pairs (u, v).

    Substituting s = (l+k)/(n+1), t = (n l - k)/(n(n+1)) in the product of
    the two lattice sums (Mumford 1966, Koizumi 1976) gives c_{alpha beta} = 1
    when alpha + n beta = 0 mod Z^g and 0 otherwise; for alpha = k/(n+1) and
    beta = j/(n(n+1)) that is k + j = 0 mod n+1 componentwise.
    """
    if not pav.delta.is_principal:
        raise ValueError("the Wirtinger matrix requires a principal polarization")
    g = pav.g
    N = n * (n + 1)
    unknowns = (n + 1) ** g * N**g
    if unknowns > unknown_cap:
        raise SizeLimit(f"{unknowns} Wirtinger unknowns exceed cap {unknown_cap}")
    k = lex_vectors((n + 1,) * g)
    j = lex_vectors((N,) * g)
    C = ((k[:, None, :] + j[None, :, :]) % (n + 1) == 0).all(axis=-1).astype(float)
    fit_residual = _wirtinger_residual(pav, n, C, seed)
    if fit_residual > DEFAULT_RESIDUAL_TOL:
        raise FitResidualTooLarge(
            f"Wirtinger residual {fit_residual:.3e} exceeds {DEFAULT_RESIDUAL_TOL:.1e}"
        )
    # columns repeat along the n-torsion shifts of beta; keep beta' = n t / (n(n+1))
    reduced_cols = _ravel(n * k, (N,) * g)
    return WirtingerMatrix(
        n=n,
        full=C,
        reduced=C[:, reduced_cols],
        fit_residual=fit_residual,
        seed=seed,
    )


def _as_points(pav: PolarizedAbelianVariety, points) -> np.ndarray:
    """The (P, g) complex array of one point or a sequence of points, each a
    TorsionPoint or a complex g-vector."""
    if isinstance(points, TorsionPoint):
        points = [points]
    if not isinstance(points, np.ndarray):
        points = [p.to_complex(pav) if isinstance(p, TorsionPoint) else p for p in points]
    return np.asarray(points, dtype=complex).reshape(-1, pav.g)


def phi_map_coords(
    pav: PolarizedAbelianVariety,
    n: int,
    points,
    seed: int,
) -> Expansion:
    """Coordinates in |(n+1) theta| of the divisor of u -> theta(u+nb) theta~(u-b)
    for every point b of ``points``: coefficients of shape (h0(n+1), P), one
    column per point, fit at one draw of samples u from ``seed``.

    The underlying point of projective space depends only on b mod Lambda.
    """
    if not pav.delta.is_principal:
        raise ValueError("the divisor map requires a principal polarization")
    bs = _as_points(pav, points)
    us = sample_points(pav, OVERSAMPLE * pav.h0(n + 1), seed)
    # every pair (u, b) at once, u along the rows
    shifted = (us[:, None, :] + n * bs[None, :, :]).reshape(-1, pav.g)
    diff = (us[:, None, :] - bs[None, :, :]).reshape(-1, pav.g)
    values = ThetaBasis(pav, 1).eval_matrix(shifted)[0] * ThetaTilde(pav, n).eval_many(diff)
    return expand_in_basis(pav, n + 1, values.reshape(len(us), len(bs)), us)


def projective_residual(x: np.ndarray, y: np.ndarray) -> float:
    """||x - lambda y|| / ||x|| minimized over the scalar lambda."""
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0 and ny == 0:
        return 0.0
    if nx == 0 or ny == 0:
        return 1.0
    lam = np.vdot(y, x) / (ny * ny)
    return float(np.linalg.norm(x - lam * y) / nx)


def diagram_check(pav: PolarizedAbelianVariety, wirt: WirtingerMatrix, points) -> np.ndarray:
    """Projective distance, for every point b of ``points``, between the
    divisor coordinates of b and the Wirtinger image
    (sum_beta c_{alpha beta} theta_beta(b))_alpha; one residual per point.

    A small value is the pointwise commutativity of the triangle relating
    the (n+1)-theta embedding, the coefficient form, and the divisor map.
    All points share one fit of the coordinates, at the samples of
    ``wirt.seed``.
    """
    n = wirt.n
    bs = _as_points(pav, points)
    phi = phi_map_coords(pav, n, bs, wirt.seed).coefficients
    image = wirt.full @ ThetaBasis(pav, n * (n + 1)).eval_matrix(bs)
    return np.array([projective_residual(x, y) for x, y in zip(phi.T, image.T)])


class SpanningReport(NamedTuple):
    rank: int
    required_rank: int
    npoints: int
    singular_values: np.ndarray


def spanning_check(
    pav: PolarizedAbelianVariety,
    n: int,
    G,
    *,
    point_cap: int = DEFAULT_POINT_CAP,
) -> SpanningReport:
    """Rank of the evaluation vectors (theta_alpha^{(n+1)}(b))_alpha over b in G.

    ``G`` is an integer N (the subgroup (1/N) Lambda / Lambda) or an iterable
    of points (TorsionPoint or complex vectors).  Full rank (n+1)^g means the
    image of G spans the dual projective space of H^0(M^{n+1}).
    """
    if not pav.delta.is_principal:
        raise ValueError("the spanning check requires a principal polarization")
    g = pav.g
    if isinstance(G, (int, np.integer)):
        npts = int(G) ** (2 * g)
        if npts > point_cap:
            raise SizeLimit(f"|G| = {npts} exceeds cap {point_cap}")
        frac = np.array(list(itertools.product(range(int(G)), repeat=2 * g))) / float(G)
        pts = frac[:, :g] @ pav.matrix.T + frac[:, g:] * pav.delta.as_diagonal()[None, :]
    else:
        pts = _as_points(pav, G)
        if pts.shape[0] > point_cap:
            raise SizeLimit(f"|G| = {pts.shape[0]} exceeds cap {point_cap}")
    basis = ThetaBasis(pav, n + 1)
    w = section_weights(pav, n + 1, pts)
    matrix = basis.eval_matrix(pts).T * w[:, None]
    rank, svals, _ = numerical_rank(matrix)
    return SpanningReport(rank, (n + 1) ** g, pts.shape[0], svals)


def monotonicity_check(pav: PolarizedAbelianVariety, n: int) -> bool:
    """Check that surjectivity of mu_n propagates to mu_{n+1} on this instance
    (vacuously true when mu_n is not verified surjective)."""
    if surjectivity_verdict(pav, n).verdict is not Verdict.SURJECTIVE:
        return True
    return surjectivity_verdict(pav, n + 1).verdict is Verdict.SURJECTIVE
