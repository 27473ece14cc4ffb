"""Rank verdicts for the multiplication maps mu_n from their character
blocks, the Wirtinger coefficient matrix, and the spanning instance checks.

mu_n is exact: every product theta_a^{(1)} theta_b^{(n)} expands in the
level-(n+1) basis with the level-n(n+1) theta constants as coefficients
(Mumford 1966, Koizumi 1976), so its entries are placed by index arithmetic
(:func:`_mu_entries`) from one evaluation at z = 0.  The Wirtinger matrix is
exact too: under the package normalization it is the 0/1 incidence matrix
of alpha + n beta = 0 mod Z^g.

Sampling remains only for the Wirtinger check.  The divisor-map coordinates
of its diagram are fit by least squares at seeded random points, each
sample row equilibrated by the inverse growth envelope of its level
(the natural hermitian scale of the bundle), from one thin SVD of the
weighted design that gives both the condition number checked against the
cap and the solution; a residual gate guards the fit.  The Wirtinger matrix
is checked by the weighted misfit of the theta relation on a product grid
U x V of seeded samples and by the divisor-map diagram at the points it is
built with, their coordinates fit at U in one solve; both checks evaluate
each of their four theta series once.  The translation formula moves the
Omega part of every sample u = Omega a + b into a characteristic, so theta
and theta~ on the grid are each one lattice sum of the |U| characteristics
[a; b], with the real half b, at the |V| + P points, not one sum at
|U| (|V| + P) pair points (:class:`_DivisorGrid`).  The spanning check
reads its matrix off one lattice sum of shifted characteristics at real
torsion points in the same way.

The verdict forms neither mu_n nor its h0(n+1) x h0(n) slice at level-1
index 0.  mu_n commutes with the K(L)_1 translations, so its character
blocks are a group DFT of that slice, and the translations by K(L)_2 and
[-1] make the blocks of one orbit of characters unitarily equivalent.  So
one block per orbit is built, straight from the h0(n) (n+1)^g nonzeros of
the slice; one batched SVD of them gives every block rank, and the union of
the block spectra, each repeated over its orbit, is the spectrum of mu_n.

The dense mu_n (``reference.mu_matrix``) and the stand-alone fits that the
test suite checks this module against are in the reference layer, which no
module of the verdict path imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import theta
from .errors import FitResidualTooLarge, IllConditioned, NotInSpan
from .theta import (
    ThetaBasis,
    _LatticeSum,
    _ravel,
    constants_radius,
    lex_vectors,
    section_weights,
    theta_constants,
)
from .varieties import PolarizedAbelianVariety, _as_int, _within, seeded_uniform

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
#: cap on the cells of every value matrix: mu_n and its blocks, spanning, Wirtinger
DEFAULT_CELL_CAP = 10**7
#: cap on spanning evaluation points
DEFAULT_POINT_CAP = 10**6


def _draw(pav: PolarizedAbelianVariety, count: int, seed: int) -> np.ndarray:
    """The halves (a_p, b_p) of :func:`sample_points`, shape (2, count, g)."""
    return seeded_uniform(seed, (2, _as_int(count, "count", 0), pav.g))


def sample_points(pav: PolarizedAbelianVariety, count: int, seed: int) -> np.ndarray:
    """The (count, g) seeded points z_p = Omega a_p + Delta b_p with a_p, b_p
    uniform in [0,1)^g: the first 2 count g values of ``seeded_uniform(seed)``,
    every a_p first (row by row), then every b_p.  Raises ValueError unless
    count and seed are integers >= 0."""
    return pav.lattice_vector(*_draw(pav, count, seed))


def _column_scale(x: np.ndarray) -> np.ndarray:
    """The power of two at or above the largest modulus of every column of x
    (1 for a zero or non-finite column).  Dividing by it is exact, so a
    relative norm keeps every digit, and no sum of squares overflows."""
    return np.ldexp(1.0, np.frexp(np.abs(x).max(axis=0))[1])


class Expansion(NamedTuple):
    coefficients: np.ndarray
    residual: float


def _weighted_fit(
    pav: PolarizedAbelianVariety, m: int, sections: np.ndarray, zs: np.ndarray, values
) -> Expansion:
    """Least-squares coefficients of ``values`` in the level-m sections whose
    values at the samples ``zs`` are the rows of ``sections`` (h0(m), P).

    Every sample row is scaled by the inverse growth envelope of level m, and
    one thin SVD ``design = U diag(s) Vh`` of the weighted design gives both
    the condition ``s_0 / s_min`` and the solution ``Vh^H ((U^H rhs) / s)``.
    Raises ValueError for fewer than 2 h0(m) samples,
    :class:`IllConditioned` when the condition exceeds DEFAULT_COND_CAP and
    :class:`NotInSpan` when the largest relative column residual exceeds
    DEFAULT_RESIDUAL_TOL (every admissible section lies in the span, so that
    is a numerical fault).  Both gates fail closed: a NaN condition or
    residual raises too.  The residuals are taken on columns scaled by
    :func:`_column_scale`, so finite values too large to square still get
    one.
    """
    dim = sections.shape[0]
    if len(zs) < 2 * dim:
        raise ValueError(f"need at least {2 * dim} samples for level {m}, got {len(zs)}")
    w = section_weights(pav, m, zs)
    design = (sections * w[None, :]).T
    u, s, vh = np.linalg.svd(design, full_matrices=False)
    cond = float("inf") if s[-1] == 0 else float(s[0] / s[-1])
    if not cond <= DEFAULT_COND_CAP:
        raise IllConditioned(f"sample matrix condition {cond:.3e} exceeded {DEFAULT_COND_CAP:.1e}")
    values = np.asarray(values, dtype=complex)
    rhs = values.reshape(len(zs), -1) * w[:, None]
    coef = vh.conj().T @ ((u.conj().T @ rhs) / s[:, None])
    scale = _column_scale(rhs)
    misfit = np.linalg.norm((design @ coef - rhs) / scale, axis=0)
    norms = np.linalg.norm(rhs / scale, axis=0)
    # initial=0 for no columns; a NaN still propagates through the max
    residual = float(np.divide(misfit, norms, out=np.zeros_like(misfit),
                               where=norms != 0).max(initial=0.0))
    if not residual <= DEFAULT_RESIDUAL_TOL:
        raise NotInSpan(f"expansion residual {residual:.3e} exceeds {DEFAULT_RESIDUAL_TOL:.1e}")
    return Expansion(coef.reshape(dim, *values.shape[1:]), residual)


def _mu_entries(pav: PolarizedAbelianVariety, n: int, k1: np.ndarray):
    """Where the nonzeros of the columns (k1, kn) of mu_n sit, for the level-1
    indices ``k1`` (rows of integer vectors) and every level-n index kn, in
    lexicographic order.

    Returns (row, tau) with axes (k1, kn, j): row holds the level-(n+1)
    index k' of every entry, an integer vector along a last axis, and tau the
    position of its value in theta_constants(n(n+1)).
    """
    d = np.array(pav.divisors)
    # axes (k1, kn, j, coordinate)
    k1 = k1[:, None, None, :]
    kn = lex_vectors(n * d)[None, :, None, :]
    dj = d * lex_vectors((n + 1,) * pav.g)[None, None, :, :]
    row = (k1 + kn + dj) % ((n + 1) * d)
    tau = _ravel((n * k1 - kn + n * dj) % (n * (n + 1) * d), n * (n + 1) * d)
    return row, tau


def _ranks(s: np.ndarray) -> np.ndarray:
    """The one rank rule: #{sigma_i > DEFAULT_RANK_TOL * sigma_max} along the last axis."""
    return (s > DEFAULT_RANK_TOL * s[..., :1]).sum(axis=-1)


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
    rank: int | None
    required_rank: int
    singular_values: tuple[float, ...]
    gap_ratio: float | None
    clean_gap: bool
    dimensional_shortcut: bool
    blocks: GammaBlocks | None = None
    truncation: dict | None = None


def surjectivity_verdict(pav: PolarizedAbelianVariety, n: int) -> SurjectivityVerdict:
    """Decide surjectivity of mu_n numerically.

    The source dimension h0(1) h0(n) < h0(n+1) forces NotSurjective without
    any evaluation; otherwise the verdict comes from the numerical rank of
    mu_n, read off the union of its character-block spectra, with
    Inconclusive whenever the spectrum has no clear gap.  Past the shortcut,
    :func:`gamma_blocks` raises :class:`SizeLimit` before any evaluation when
    the blocks exceed DEFAULT_CELL_CAP.
    """
    n = _as_int(n, "n", 1)
    required = pav.h0(n + 1)
    if pav.h0(1) * pav.h0(n) < required:
        return SurjectivityVerdict(
            verdict=Verdict.NOT_SURJECTIVE,
            rank=None,
            required_rank=required,
            singular_values=(),
            gap_ratio=None,
            clean_gap=True,
            dimensional_shortcut=True,
        )
    blocks = gamma_blocks(pav, n)
    s = blocks.singular_values
    rank = int(_ranks(s))
    floor = DEFAULT_RANK_TOL * float(s[0])
    # clean: no singular value within a decade of the threshold, or all zero
    clean = bool(s[0] == 0 or not ((s >= floor / 10.0) & (s <= floor * 10.0)).any())
    # the next singular value, or the rank threshold where it is 0 or missing,
    # so the ratio stays finite: rank >= 1 makes the threshold positive
    sigma_next = float(s[rank]) if rank < len(s) and s[rank] > 0 else floor
    gap_ratio = float(s[rank - 1]) / sigma_next if rank else 0.0
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
        rank=rank,
        required_rank=required,
        singular_values=tuple(float(x) for x in s),
        gap_ratio=gap_ratio,
        clean_gap=clean,
        dimensional_shortcut=False,
        blocks=blocks,
        truncation={"level": level, "radius": radius, "points": (2 * radius + 1) ** pav.g},
    )


@dataclass(frozen=True, eq=False)
class GammaBlocks:
    """Block decomposition of mu_n over the characters gamma of K(L)_1.

    The characters are in the order of ``lex_vectors(d)``: character i is
    gamma = k_i, the i-th integer vector of prod range(d_j).  The blocks of
    one orbit under gamma -> gamma + (n+1) y and gamma -> -gamma share one
    spectrum (see :func:`gamma_blocks`), so ``matrices`` stacks one block per
    orbit, shape (orbits, (n+1)^g, |K| n^g): block i belongs to the
    character ``representatives[i]``, the first of its orbit, and
    ``orbit[j]`` is the block of character j's orbit.  ``ranks`` holds the
    numerical rank of every character's block by the rule of
    :func:`_ranks`.  ``singular_values`` is the union of the spectra of all
    |K| blocks, descending; the eigenbasis transform is unitary, so it is
    the spectrum of mu_n.
    """

    matrices: np.ndarray
    representatives: np.ndarray
    orbit: np.ndarray
    ranks: np.ndarray
    singular_values: np.ndarray


def gamma_blocks(pav: PolarizedAbelianVariety, n: int) -> GammaBlocks:
    """The character blocks of mu_n, one per orbit, from the nonzeros of its
    columns at level-1 index 0.

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

    The blocks of one orbit under gamma -> gamma + (n+1) b (b in K) and
    gamma -> -gamma have one spectrum:

    * translation by an integer vector b, a point of K(L)_2, multiplies the
      level-m section k by exp(2 pi i sum_i k_i b_i / d_i): a phase of r
      times the character chi_{m b} of e.  It commutes with the
      multiplication, shifts the source characters y1 and yn by b and n b
      and the target character by (n+1) b, so it maps block gamma unitarily
      onto block gamma + (n+1) b;
    * [-1] maps theta_c to theta_{-c} on every level, commutes with the
      multiplication and maps the characters gamma to -gamma.

    (n+1) K holds the gamma with every gamma_i divisible by gcd(n+1, d_i),
    so the orbit of gamma is gamma mod gcd(n+1, d_i) up to sign, and that
    residue or the residue of -gamma, whichever comes first, is the first
    character of the orbit and represents it.  Only the representatives are
    built.  F has h0(n) (n+1)^g nonzeros, theta_constants[tau] at row
    k' = r' + (n+1) e' and column kn = rn + n en, so for every
    representative the inverse DFT over e' is a sum over the nonzeros into
    G[r', kn] (one bincount for all of them) and the forward DFT over en is
    an FFT of G.  One batched SVD of the representatives gives every
    block rank and spectrum, repeated over each orbit.  Raises
    :class:`SizeLimit` before any evaluation when h0(n+1) h0(n), the cells
    of all |K| blocks (one per orbit is built), exceed DEFAULT_CELL_CAP.
    """
    n = _as_int(n, "n", 1)
    _within(pav.h0(n + 1) * pav.h0(n), DEFAULT_CELL_CAP, "mu_n block cells")
    g = pav.g
    d = np.array(pav.divisors)
    deg = pav.degree
    rows, cols = (n + 1) ** g, n**g
    chars = lex_vectors(d)
    # the first character of every orbit: gamma or -gamma mod gcd(n+1, d_i)
    q = np.gcd(n + 1, d)
    first = _ravel(np.stack([chars % q, -chars % q]), d).min(axis=0)
    is_rep = first == np.arange(deg)
    reps = np.flatnonzero(is_rep)
    rep_chars = chars[reps]
    orbit = (np.cumsum(is_rep) - 1)[first]
    row, tau = _mu_entries(pav, n, np.zeros((1, g), dtype=int))
    ep, rp = np.divmod(row[0], n + 1)
    # the cell (r', kn) of every nonzero, kn lexicographic
    cell = _ravel(rp, (n + 1,) * g) * (deg * cols) + np.arange(deg * cols)[:, None]
    const = theta_constants(pav, n * (n + 1))[tau[0]] / math.sqrt(deg)
    # exp(2 pi i gamma . e' / d), in turns of 1/d_g: every d_i divides d_g
    turns = (ep * (d[-1] // d)) @ rep_chars.T % d[-1]
    weights = np.exp((2j * math.pi / d[-1]) * np.arange(d[-1]))[turns] * const[..., None]
    size = rows * deg * cols
    index = (cell[..., None] + size * np.arange(len(reps))).ravel()
    G = np.empty(len(reps) * size, dtype=complex)
    G.real = np.bincount(index, weights.real.ravel(), len(G))
    G.imag = np.bincount(index, weights.imag.ravel(), len(G))
    # axes (rep, r', e_1, r_1, ..., e_g, r_g) with kn_i = e_i n + r_i: FFT over
    # the e axes, then order the axes (rep, en, r', rn)
    G = G.reshape(len(reps), rows, *(x for di in d for x in (di, n)))
    G = np.fft.fftn(G, axes=tuple(range(2, 2 * g + 2, 2)))
    G = G.transpose(0, *range(2, 2 * g + 2, 2), 1, *range(3, 2 * g + 2, 2))
    # column (y1, rn) of block gamma takes the frequency gamma - y1
    partner = _ravel((rep_chars[:, None, :] - chars[None, :, :]) % d, d)
    blocks = G.reshape(len(reps), deg, rows, cols)[np.arange(len(reps))[:, None], partner]
    blocks = blocks.transpose(0, 2, 1, 3).reshape(len(reps), rows, -1)
    spectra = np.linalg.svd(blocks, compute_uv=False)
    union = np.repeat(spectra, np.bincount(orbit), axis=0)
    return GammaBlocks(blocks, reps, orbit, _ranks(spectra)[orbit],
                       np.sort(union, axis=None)[::-1])


@dataclass(frozen=True, eq=False)
class WirtingerMatrix:
    """Coefficients c_{alpha beta} of theta(u+nv) theta~(u-v) in the tensor
    basis theta_alpha^{(n+1)}(u) theta_beta^{(n(n+1))}(v), plus the reduced
    square matrix over beta representatives inside K(M^{n+1})_1.

    Both theta and theta~ carry the package normalization, so the matrix is
    canonical here; against other normalizations it is defined projectively.
    Rows (alpha) and columns (beta) are lexicographic in the labels k of the
    characteristics (see ``theta.lex_vectors``).  ``fit_residual`` is the misfit of the
    relation on the sampled grid, and ``diagram_residuals`` holds the
    diagram residual of every point the matrix was built with.
    """

    full: np.ndarray
    reduced: np.ndarray
    fit_residual: float
    diagram_residuals: np.ndarray


class _DivisorGrid:
    """theta(u + n w) theta~(u - w) on a product grid U x W of a principally
    polarized variety, from two characteristic x point lattice sums.

    For u = Omega a + b the translation formula (Mumford, Tata Lectures on
    Theta I, II.1)

        theta_tau(tau A + B + z) = exp(-pi i A^T tau A - 2 pi i A^T (B + z)) theta_tau[A; B](z)

    moves the Omega part of u into the characteristic: theta(u + n w) is the
    factor at tau = Omega, A = a, B = b times theta[a; b](n w), and
    theta~(u - w), the theta series of tau = Omega / n, the factor at
    A = n a, B = b times theta~[n a; b](-w).  So each series is one sum of
    the |U| characteristics [a; b] at the |W| points, whose factors have
    (2R+1)^g (|U| + |W|) cells, not (2R+1)^g |U| |W|.  The exact factor goes
    in as the sum's log factor: its modulus joins the envelope, so a pair
    past the double range raises :class:`TruncationOverflow` before any sum.
    Both sums take offset 1, the reduced characteristic plus the reduced
    point.
    """

    def __init__(self, pav: PolarizedAbelianVariety, n: int):
        self.omega, self.n = pav.matrix, n
        self._one = _LatticeSum(pav.matrix, 1, offset=1.0)
        self._tilde = _LatticeSum(pav.matrix / n, 1, offset=1.0)

    def terms(self, nu: int, nw: int) -> int:
        """The lattice terms of both sums on a grid of nu x nw pairs."""
        return self._one.terms(nu, nw) + self._tilde.terms(nu, nw)

    def eval(self, a: np.ndarray, b: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """The (|U|, |W|) values at u = Omega a + b, for the rows of a and b,
        and every row w of ws."""
        n = self.n
        aoa = np.einsum("ui,ij,uj->u", a, self.omega, a)[:, None]
        ab = (a * b).sum(axis=1)[:, None]
        aw = a @ ws.T
        # the logs of the two translation factors
        one = (-1j * math.pi) * (aoa + 2.0 * (ab + n * aw))
        tilde = (-1j * math.pi * n) * (aoa + 2.0 * (ab - aw))
        return (self._one.eval(a, n * ws, b, one)
                * self._tilde.eval(n * a, -ws, b, tilde))


def _wirtinger_checks(
    pav: PolarizedAbelianVariety, n: int, C: np.ndarray, seed: int, points
) -> tuple[float, np.ndarray]:
    """The relation misfit of C on a product grid of OVERSAMPLE * C.size
    pairs (u, v) and its diagram residual at every point b of ``points`` (a
    wrong C gets both, not an error), from one evaluation of each of the four
    theta series.

    One draw from ``seed`` of OVERSAMPLE * h0(n+1) samples U, then h0(N)
    samples V, N = n(n+1): the points of ``sample_points(pav, |U| + |V|,
    seed)`` with their halves u = Omega a + b.  theta(.) and theta~(.) are
    evaluated on the grid U x (V + points) by :class:`_DivisorGrid`, as the
    |U| characteristics [a; b] of each at the |V| + P points, the
    level-(n+1) basis at U only and the level-N basis at V and the points;
    the relation reads the V columns of the grid, the diagram the points
    columns.

    * The misfit is ||W o (L - ta^T C tb)||_F / ||W o L||_F of the grid
      L[u, v] = theta(u+nv) theta~(u-v) against the values ta = theta_alpha(U)
      and tb = theta_beta(V), W = w_U w_V^T the envelope weights of both
      levels.  ta (h0(n+1) x |U|) and the square tb have full row rank for
      generic samples, so ta^T (C - C') tb vanishes only for C' = C: every
      other C leaves a residual.
    * The coordinates of the divisor of u -> theta(u+nb) theta~(u-b) are fit
      at U in one :func:`_weighted_fit`, one column per point, and the
      residual of b is their :func:`projective_residual` against
      (sum_beta C[alpha, beta] theta_beta(b))_alpha: near 0 when the
      triangle of the (n+1)-theta embedding, the coefficient form and the
      divisor map commutes at b.

    Raises :class:`SizeLimit` before any evaluation when the four evaluations
    together exceed ``theta.DEFAULT_TERM_CAP`` lattice terms.
    """
    bs = np.asarray(points, dtype=complex).reshape(-1, pav.g)
    N = n * (n + 1)
    nu, nv = OVERSAMPLE * pav.h0(n + 1), pav.h0(N)
    a, b = _draw(pav, nu + nv, seed)
    z = pav.lattice_vector(a, b)
    us, vs = z[:nu], z[nu:]
    w = section_weights(pav, n + 1, us)[:, None] * section_weights(pav, N, vs)
    cols = np.concatenate([vs, bs])
    grid = _DivisorGrid(pav, n)
    basis_a, basis_b = ThetaBasis(pav, n + 1), ThetaBasis(pav, N)
    terms = grid.terms(nu, len(cols)) + basis_a.terms(nu) + basis_b.terms(len(cols))
    _within(terms, theta.DEFAULT_TERM_CAP, "Wirtinger check lattice terms")
    lhs = grid.eval(a[:nu], b[:nu], cols)
    ta = basis_a.eval_matrix(us)
    tb = basis_b.eval_matrix(cols)
    rhs = ta.T @ (C @ tb[:, :nv])
    misfit = float(np.linalg.norm(w * (lhs[:, :nv] - rhs)) / np.linalg.norm(w * lhs[:, :nv]))
    phi = _weighted_fit(pav, n + 1, ta, us, lhs[:, nv:]).coefficients
    image = C @ tb[:, nv:]
    return misfit, np.array([projective_residual(x, y) for x, y in zip(phi.T, image.T)])


def wirtinger_matrix(
    pav: PolarizedAbelianVariety, n: int, seed: int, points=()
) -> WirtingerMatrix:
    """The coefficient matrix of the bilinear theta relation at level
    (n+1, n(n+1)), checked on a product grid of 2 * #coefficients sampled
    pairs (u, v) and, through the divisor map, at every point of
    ``points``: a (P, g) complex
    array, a list of g-vectors or one g-vector (a torsion point x is passed
    as ``x.to_complex(pav)``).

    Substituting s = (l+k)/(n+1), t = (n l - k)/(n(n+1)) in the product of
    the two lattice sums (Mumford 1966, Koizumi 1976) gives c_{alpha beta} = 1
    when alpha + n beta = 0 mod Z^g and 0 otherwise; for alpha = k/(n+1) and
    beta = j/(n(n+1)) that is k + j = 0 mod n+1 componentwise.  The relation
    and the diagram are checked by :func:`_wirtinger_checks`, which evaluates
    each theta series once for both.  Raises :class:`SizeLimit` before any
    sample when h0(n(n+1)) times the 2 * unknowns relation pairs exceeds
    DEFAULT_CELL_CAP.  That bounds the (n+1)^g (n(n+1))^g unknowns: at
    most 16384, at g = 7, n = 1.  Raises
    :class:`FitResidualTooLarge` when the relation misfit exceeds
    DEFAULT_RESIDUAL_TOL.
    """
    if not pav.is_principal:
        raise ValueError("the Wirtinger matrix requires a principal polarization")
    n = _as_int(n, "n", 1)
    g = pav.g
    N = n * (n + 1)
    unknowns = (n + 1) ** g * N**g
    # h0(N) times the OVERSAMPLE * unknowns pairs of the relation
    _within(N**g * OVERSAMPLE * unknowns, DEFAULT_CELL_CAP, "Wirtinger value cells")
    k = lex_vectors((n + 1,) * g)
    j = lex_vectors((N,) * g)
    C = ((k[:, None, :] + j[None, :, :]) % (n + 1) == 0).all(axis=-1).astype(float)
    fit_residual, diagram = _wirtinger_checks(pav, n, C, seed, points)
    if not fit_residual <= DEFAULT_RESIDUAL_TOL:
        raise FitResidualTooLarge(
            f"Wirtinger residual {fit_residual:.3e} exceeds {DEFAULT_RESIDUAL_TOL:.1e}"
        )
    # columns repeat along the n-torsion shifts of beta; keep beta' = n t / (n(n+1))
    reduced_cols = _ravel(n * k, (N,) * g)
    return WirtingerMatrix(
        full=C,
        reduced=C[:, reduced_cols],
        fit_residual=fit_residual,
        diagram_residuals=diagram,
    )


def projective_residual(x: np.ndarray, y: np.ndarray) -> float:
    """||x - lambda y|| / ||x|| minimized over the scalar lambda.

    Both vectors are first scaled by :func:`_column_scale`: the residual is
    scale-free, and the norms of finite but huge coordinates stay finite."""
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    x, y = x / _column_scale(x), y / _column_scale(y)
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0 and ny == 0:
        return 0.0
    if nx == 0 or ny == 0:
        return 1.0
    lam = np.vdot(y, x) / (ny * ny)
    return float(np.linalg.norm(x - lam * y) / nx)


class SpanningReport(NamedTuple):
    rank: int
    required_rank: int
    npoints: int


def spanning_check(pav: PolarizedAbelianVariety, n: int, N: int) -> SpanningReport:
    """Rank of the evaluation vectors (theta_alpha^{(n+1)}(b))_alpha over the
    N^{2g} points b of G = (1/N) Lambda / Lambda, for an integer N >= 1.

    Full rank (n+1)^g means the image of G spans the dual projective space
    of H^0(M^{n+1}).  The rows are the points b = Omega s/N + t/N in the
    lexicographic order of (s, t), each scaled by its envelope weight
    w(b) = exp(-pi (n+1) y^T Y^{-1} y), y = Im b.  By the translation formula
    theta_c(Omega a + t) = exp(-pi i m a^T Omega a - 2 pi i m a^T t)
    theta_{c+a}(t) (Mumford, Tata Lectures on Theta I, II.1), with m = n+1
    and a = s/N, the weighted row of b is a unit phase times
    (theta_{c+s/N}(t/N))_c, so the matrix is read off one lattice sum of the
    h0(n+1) N^g characteristics c + s/N at the N^g real points t/N.  At a
    real point the Gaussian centre is the characteristic, so the sum takes
    offset 1/2.  The phases scale whole rows, so the singular values, and
    the rank, are those of the weighted rows.

    Raises ValueError unless n and N are integers >= 1 (bool and float refused),
    and :class:`SizeLimit` before building the characteristics or the sum
    when N or |G| exceeds DEFAULT_POINT_CAP (the bound on the N^g x N^g
    grid, which fires first when (n+1)^g < 10) or the h0(n+1) x |G| values
    exceed DEFAULT_CELL_CAP.
    """
    if not pav.is_principal:
        raise ValueError("the spanning check requires a principal polarization")
    g = pav.g
    n = _as_int(n, "n", 1)
    N = _as_int(N, "modulus N", 1)
    _within(N, DEFAULT_POINT_CAP, "spanning modulus N")
    npts = N ** (2 * g)
    _within(npts, DEFAULT_POINT_CAP, "spanning points |G|")
    dim = pav.h0(n + 1)
    _within(dim * npts, DEFAULT_CELL_CAP, "spanning value cells")
    lattice = _LatticeSum(pav.matrix, n + 1, offset=0.5)
    steps = lex_vectors((N,) * g) / N
    # axes (s, c): the characteristics c + s/N, c = k/(n+1) lexicographic
    chars = steps[:, None, :] + lex_vectors((n + 1,) * g) / (n + 1)
    values = lattice.eval(chars.reshape(-1, g), steps)
    # axes (s, c, t) to rows (s, t), columns c
    matrix = values.reshape(N**g, dim, N**g).transpose(0, 2, 1).reshape(npts, dim)
    rank = int(_ranks(np.linalg.svd(matrix, compute_uv=False)))
    return SpanningReport(rank, (n + 1) ** g, npts)
