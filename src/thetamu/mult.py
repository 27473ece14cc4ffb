"""Multiplication maps mu_n as explicit matrices, rank verdicts, character
blocks, the Wirtinger coefficient matrix, and the spanning instance checks.

All fits are interpolation-by-sampling: sections are evaluated at seeded
random points, each sample row is equilibrated by the inverse growth
envelope of its level (which is the natural hermitian scale of the bundle),
and coefficients come from least squares.  Correctness is enforced by
residual and conditioning checks rather than by exact addition formulas.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import FitResidualTooLarge, IllConditioned, NotInSpan, SizeLimit
from .theta import SectionIndex, ThetaBasis, ThetaTilde, section_weights
from .torsion import CharacterTable, TorsionPoint, characters
from .varieties import PolarizedAbelianVariety

#: least-squares residual above which an expansion is rejected
DEFAULT_RESIDUAL_TOL = 1e-8
#: condition-number cap for sample matrices
DEFAULT_COND_CAP = 1e10
#: relative singular-value threshold for numerical rank
DEFAULT_RANK_TOL = 1e-8
#: sigma_rank must exceed the discard level by this factor for "Surjective"
GAP_RATIO_MIN = 1e3
#: reseed attempts before giving up on conditioning
MAX_ATTEMPTS = 3
#: sample count per basis dimension
OVERSAMPLE = 2
#: cap on mu-matrix cells
DEFAULT_CELL_CAP = 10**7
#: cap on Wirtinger unknowns
DEFAULT_UNKNOWN_CAP = 20_000
#: cap on spanning evaluation points
DEFAULT_POINT_CAP = 10**6


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Seeded evaluation points z_p = Omega a_p + Delta b_p, a_p, b_p in [0,1)^g."""

    seed: int
    count: int
    a: np.ndarray
    b: np.ndarray
    z: np.ndarray


def sample_points(pav: PolarizedAbelianVariety, count: int, seed: int) -> SampleSet:
    """Draw a deterministic SampleSet (a first, then b, from default_rng(seed))."""
    rng = np.random.default_rng(seed)
    a = rng.random((count, pav.g))
    b = rng.random((count, pav.g))
    z = a @ pav.matrix.T + b * pav.delta.as_diagonal()[None, :]
    return SampleSet(int(seed), int(count), a, b, z)


class Expansion(NamedTuple):
    coefficients: np.ndarray
    residual: float
    cond: float


def _weighted_design(basis: ThetaBasis, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w = section_weights(basis.pav, basis.m, zs)
    design = (basis.eval_matrix(zs) * w[None, :]).T
    return design, w


def expand_in_basis(
    pav: PolarizedAbelianVariety,
    m: int,
    f: Callable | np.ndarray,
    samples: SampleSet,
    *,
    basis: ThetaBasis | None = None,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    cond_cap: float = DEFAULT_COND_CAP,
) -> Expansion:
    """Least-squares coefficients of f in the level-m basis.

    ``f`` is a vectorized callable on point arrays or an array of values at
    ``samples.z``.  Raises :class:`IllConditioned` when the sample matrix is
    unusable (caller reseeds) and :class:`NotInSpan` when the residual
    exceeds tolerance (every admissible section lies in the span, so that is
    a numerical fault).
    """
    basis = basis if basis is not None else ThetaBasis(pav, m)
    if samples.count < 2 * basis.dim:
        raise ValueError(
            f"need at least {2 * basis.dim} samples for level {m}, got {samples.count}"
        )
    design, w = _weighted_design(basis, samples.z)
    svals = np.linalg.svd(design, compute_uv=False)
    cond = float("inf") if svals[-1] == 0 else float(svals[0] / svals[-1])
    if cond > cond_cap:
        raise IllConditioned(f"sample matrix condition {cond:.3e} exceeds cap {cond_cap:.1e}")
    values = np.asarray(f(samples.z) if callable(f) else f, dtype=complex) * w
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    norm = float(np.linalg.norm(values))
    residual = 0.0 if norm == 0 else float(np.linalg.norm(design @ coef - values) / norm)
    if residual > residual_tol:
        raise NotInSpan(f"expansion residual {residual:.3e} exceeds {residual_tol:.1e}")
    return Expansion(coef, residual, cond)


@dataclass(frozen=True, eq=False)
class MuMatrix:
    """mu_n in the canonical bases: h0(n+1) rows, h0(1) * h0(n) columns.

    Column (c, c') holds the level-(n+1) coefficients of the product
    theta_c^{(1)} theta_{c'}^{(n)}; columns are lexicographic in (c, c').
    """

    n: int
    matrix: np.ndarray
    row_indices: tuple[SectionIndex, ...]
    col_pairs: tuple[tuple[SectionIndex, SectionIndex], ...]
    seed: int
    sample_count: int
    cond: float
    max_residual: float


def mu_matrix(
    pav: PolarizedAbelianVariety,
    n: int,
    seed: int,
    *,
    eps: float | None = None,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    cond_cap: float = DEFAULT_COND_CAP,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> MuMatrix:
    """Assemble mu_n by expanding every basis product at level n+1."""
    if n < 1:
        raise ValueError(f"require n >= 1, got {n}")
    rows = pav.h0(n + 1)
    cols = pav.h0(1) * pav.h0(n)
    if rows * cols > cell_cap:
        raise SizeLimit(f"mu_{n} needs {rows}x{cols} cells, cap is {cell_cap}")
    basis1 = ThetaBasis(pav, 1, eps=eps)
    basisn = ThetaBasis(pav, n, eps=eps)
    target = ThetaBasis(pav, n + 1, eps=eps)
    count = OVERSAMPLE * rows
    last_cond = None
    for attempt in range(MAX_ATTEMPTS):
        samples = sample_points(pav, count, seed + attempt)
        design, w = _weighted_design(target, samples.z)
        svals = np.linalg.svd(design, compute_uv=False)
        cond = float("inf") if svals[-1] == 0 else float(svals[0] / svals[-1])
        if cond > cond_cap:
            last_cond = cond
            continue
        b1 = basis1.eval_matrix(samples.z)
        bn = basisn.eval_matrix(samples.z)
        products = (b1[:, None, :] * bn[None, :, :]).reshape(cols, samples.count)
        rhs = products.T * w[:, None]
        coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
        norms = np.linalg.norm(rhs, axis=0)
        resid = np.linalg.norm(design @ coef - rhs, axis=0) / norms
        max_resid = float(resid.max())
        if max_resid > residual_tol:
            raise NotInSpan(
                f"mu column residual {max_resid:.3e} exceeds {residual_tol:.1e}"
            )
        col_pairs = tuple(
            (c1, cn) for c1 in basis1.indices for cn in basisn.indices
        )
        return MuMatrix(
            n=n,
            matrix=coef,
            row_indices=target.indices,
            col_pairs=col_pairs,
            seed=seed,
            sample_count=count,
            cond=cond,
            max_residual=max_resid,
        )
    raise IllConditioned(
        f"sample matrix condition {last_cond:.3e} exceeded {cond_cap:.1e} "
        f"after {MAX_ATTEMPTS} reseeds"
    )


class RankResult(NamedTuple):
    rank: int
    singular_values: np.ndarray
    clean_gap: bool


def numerical_rank(matrix: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> RankResult:
    """Rank = #{sigma_i > rel_tol * sigma_max}; the gap flag is set when no
    singular value falls within a decade of the threshold."""
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        return RankResult(0, np.zeros(0), True)
    s = np.linalg.svd(matrix, compute_uv=False)
    if s[0] == 0:
        return RankResult(0, s, True)
    thr = rel_tol * float(s[0])
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

    ``mu`` is the fitted matrix the rank came from (None for the
    dimensional shortcut), for callers that reuse it, e.g. ``gamma_blocks``.
    """

    verdict: Verdict
    n: int
    seed: int
    rank: int | None
    required_rank: int
    singular_values: tuple[float, ...]
    gap_ratio: float | None
    clean_gap: bool
    dimensional_shortcut: bool
    cond: float | None = None
    max_residual: float | None = None
    mu: MuMatrix | None = None


def surjectivity_verdict(
    pav: PolarizedAbelianVariety,
    n: int,
    seed: int,
    *,
    eps: float | None = None,
    rel_tol: float = DEFAULT_RANK_TOL,
    cond_cap: float = DEFAULT_COND_CAP,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> SurjectivityVerdict:
    """Decide surjectivity of mu_n numerically (deterministic per seed).

    The source dimension h0(1) h0(n) < h0(n+1) forces NotSurjective without
    any evaluation; otherwise the verdict comes from the numerical rank of
    the mu matrix, with Inconclusive whenever the spectrum has no clear gap.
    """
    required = pav.h0(n + 1)
    if pav.h0(1) * pav.h0(n) < required:
        return SurjectivityVerdict(
            verdict=Verdict.NOT_SURJECTIVE,
            n=n,
            seed=seed,
            rank=None,
            required_rank=required,
            singular_values=(),
            gap_ratio=None,
            clean_gap=True,
            dimensional_shortcut=True,
        )
    mu = mu_matrix(
        pav, n, seed, eps=eps, cond_cap=cond_cap, cell_cap=cell_cap
    )
    rank, s, clean = numerical_rank(mu.matrix, rel_tol)
    floor = rel_tol * float(s[0])
    sigma_next = float(s[rank]) if rank < len(s) else floor
    denom = max(sigma_next, 0.0)
    gap_ratio = float("inf") if denom == 0 else float(s[rank - 1]) / denom if rank else 0.0
    if rank == required and gap_ratio > GAP_RATIO_MIN:
        verdict = Verdict.SURJECTIVE
    elif rank < required and clean:
        verdict = Verdict.NOT_SURJECTIVE
    else:
        verdict = Verdict.INCONCLUSIVE
    return SurjectivityVerdict(
        verdict=verdict,
        n=n,
        seed=seed,
        rank=rank,
        required_rank=required,
        singular_values=tuple(float(x) for x in s),
        gap_ratio=gap_ratio,
        clean_gap=clean,
        dimensional_shortcut=False,
        cond=mu.cond,
        max_residual=mu.max_residual,
        mu=mu,
    )


def _eigenbasis_matrix(
    pav: PolarizedAbelianVariety, m: int, table: CharacterTable
) -> np.ndarray:
    """Unitary matrix whose columns diagonalize the normalized K(L)_1
    translation action on the level-m basis.

    Columns are grouped by character (order of K(L)_2) and, within a
    character, by orbit representative k in [0, m)^g lex; the action on the
    column (y, r) has eigenvalue chi_y.
    """
    d = pav.delta.divisors
    g = pav.g
    group = table.group
    deg = len(group.k1)
    reps = list(itertools.product(*[range(m)] * g))
    dims = tuple(m * di for di in d)
    K = int(np.prod(dims))
    jvecs = [
        tuple(int(x.a[i] * d[i]) for i in range(g)) for x in group.k1
    ]
    U = np.zeros((K, K), dtype=complex)
    for yi in range(deg):
        for ri, rep in enumerate(reps):
            col = yi * len(reps) + ri
            for ji, j in enumerate(jvecs):
                kk = tuple((rep[i] + m * j[i]) % dims[i] for i in range(g))
                row = int(np.ravel_multi_index(kk, dims))
                phase = float(table.phases[yi][ji])
                U[row, col] = np.exp(-2j * math.pi * phase)
    return U / math.sqrt(deg)


@dataclass(frozen=True, eq=False)
class GammaBlock:
    """One character block mu_{n,gamma}: (n+1)^g rows."""

    gamma_index: int
    gamma: TorsionPoint
    matrix: np.ndarray
    rank: int


@dataclass(frozen=True, eq=False)
class GammaBlocks:
    """Eigenbasis block decomposition of mu_n over the characters of K(L)_1."""

    n: int
    blocks: tuple[GammaBlock, ...]
    off_block_mass: float
    total_rank: int

    @property
    def rank_sum(self) -> int:
        return sum(b.rank for b in self.blocks)


def gamma_blocks(
    pav: PolarizedAbelianVariety,
    n: int,
    seed: int,
    *,
    mu: MuMatrix | None = None,
    rel_tol: float = DEFAULT_RANK_TOL,
) -> GammaBlocks:
    """Transform mu_n to the K(L)_1 eigenbasis on both sides and cut blocks.

    The multiplication intertwines the normalized translation actions (the
    level cocycles multiply exactly), so after the exact discrete Fourier
    transform over K(L)_1 the matrix is block diagonal over characters up to
    numerical noise, reported as ``off_block_mass``.
    """
    mu = mu if mu is not None else mu_matrix(pav, n, seed)
    table = characters(pav, 1)
    k2 = table.group.k2
    deg = len(k2)
    g = pav.g
    U1 = _eigenbasis_matrix(pav, 1, table)
    Un = _eigenbasis_matrix(pav, n, table)
    Un1 = _eigenbasis_matrix(pav, n + 1, table)
    transformed = Un1.conj().T @ mu.matrix @ np.kron(U1, Un)
    reps_n = n**g
    reps_n1 = (n + 1) ** g
    kn = deg * reps_n
    gamma_pos = {pt: i for i, pt in enumerate(k2)}
    col_gamma = np.empty(transformed.shape[1], dtype=int)
    for c1 in range(deg):
        for c2 in range(deg):
            gi = gamma_pos[k2[c1] + k2[c2]]
            for r2 in range(reps_n):
                col_gamma[c1 * kn + c2 * reps_n + r2] = gi
    row_gamma = np.repeat(np.arange(deg), reps_n1)
    total_norm = float(np.linalg.norm(transformed))
    off = transformed.copy()
    blocks = []
    for gi in range(deg):
        rows = np.where(row_gamma == gi)[0]
        cols = np.where(col_gamma == gi)[0]
        block = transformed[np.ix_(rows, cols)]
        off[np.ix_(rows, cols)] = 0.0
        blocks.append(
            GammaBlock(
                gamma_index=gi,
                gamma=k2[gi],
                matrix=block,
                rank=numerical_rank(block, rel_tol).rank,
            )
        )
    off_mass = 0.0 if total_norm == 0 else float(np.linalg.norm(off) / total_norm)
    total_rank = numerical_rank(mu.matrix, rel_tol).rank
    return GammaBlocks(
        n=n,
        blocks=tuple(blocks),
        off_block_mass=off_mass,
        total_rank=total_rank,
    )


@dataclass(frozen=True, eq=False)
class WirtingerMatrix:
    """Coefficients c_{alpha beta} of theta(u+nv) theta~(u-v) in the tensor
    basis theta_alpha^{(n+1)}(u) theta_beta^{(n(n+1))}(v), plus the reduced
    square matrix over beta representatives inside K(M^{n+1})_1.

    Both theta and theta~ carry the package normalization, so the matrix is
    canonical here; against other normalizations it is defined projectively.
    """

    n: int
    full: np.ndarray
    reduced: np.ndarray
    alpha_indices: tuple[SectionIndex, ...]
    beta_indices: tuple[SectionIndex, ...]
    fit_residual: float
    relation_residual: float
    cond: float
    seed: int


def wirtinger_matrix(
    pav: PolarizedAbelianVariety,
    n: int,
    seed: int,
    *,
    eps: float | None = None,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    cond_cap: float = DEFAULT_COND_CAP,
    max_attempts: int = MAX_ATTEMPTS,
    unknown_cap: int = DEFAULT_UNKNOWN_CAP,
) -> WirtingerMatrix:
    """Fit the coefficient matrix of the bilinear theta relation at level
    (n+1, n(n+1)) from >= 2 * #unknowns sampled pairs (u, v)."""
    if not pav.delta.is_principal:
        raise ValueError("the Wirtinger matrix requires a principal polarization")
    g = pav.g
    N = n * (n + 1)
    ka = (n + 1) ** g
    kb = N**g
    unknowns = ka * kb
    if unknowns > unknown_cap:
        raise SizeLimit(f"{unknowns} Wirtinger unknowns exceed cap {unknown_cap}")
    basis_a = ThetaBasis(pav, n + 1, eps=eps)
    basis_b = ThetaBasis(pav, N, eps=eps)
    basis_1 = ThetaBasis(pav, 1, eps=eps)
    tilde = ThetaTilde(pav, n, eps=eps)
    count = OVERSAMPLE * unknowns
    last_cond = None
    for attempt in range(max_attempts):
        samples = sample_points(pav, 2 * count, seed + attempt)
        us, vs = samples.z[:count], samples.z[count:]
        w = section_weights(pav, n + 1, us) * section_weights(pav, N, vs)
        ba = basis_a.eval_matrix(us)
        bb = basis_b.eval_matrix(vs)
        design = (ba[:, None, :] * bb[None, :, :]).reshape(unknowns, count).T * w[:, None]
        svals = np.linalg.svd(design, compute_uv=False)
        cond = float("inf") if svals[-1] == 0 else float(svals[0] / svals[-1])
        if cond > cond_cap:
            last_cond = cond
            continue
        rhs = basis_1.eval_matrix(us + n * vs)[0] * tilde.eval_many(us - vs) * w
        cvec, *_ = np.linalg.lstsq(design, rhs, rcond=None)
        fit_residual = float(
            np.linalg.norm(design @ cvec - rhs) / np.linalg.norm(rhs)
        )
        if fit_residual > residual_tol:
            raise FitResidualTooLarge(
                f"Wirtinger fit residual {fit_residual:.3e} exceeds {residual_tol:.1e}"
            )
        C = cvec.reshape(ka, kb)
        dims_b = (N,) * g
        scale = float(np.abs(C).max())
        relation = 0.0
        for k in itertools.product(*[range(N)] * g):
            shifted = tuple((ki - (n + 1) * (ki % n)) % N for ki in k)
            i0 = int(np.ravel_multi_index(k, dims_b))
            i1 = int(np.ravel_multi_index(shifted, dims_b))
            relation = max(relation, float(np.abs(C[:, i0] - C[:, i1]).max()))
        relation /= scale
        if relation > residual_tol:
            raise FitResidualTooLarge(
                f"coefficient relation residual {relation:.3e} exceeds {residual_tol:.1e}"
            )
        reduced_cols = [
            int(np.ravel_multi_index(tuple(n * ti for ti in t), dims_b))
            for t in itertools.product(*[range(n + 1)] * g)
        ]
        return WirtingerMatrix(
            n=n,
            full=C,
            reduced=C[:, reduced_cols],
            alpha_indices=basis_a.indices,
            beta_indices=basis_b.indices,
            fit_residual=fit_residual,
            relation_residual=relation,
            cond=cond,
            seed=seed,
        )
    raise IllConditioned(
        f"Wirtinger sample condition {last_cond:.3e} exceeded {cond_cap:.1e} "
        f"after {max_attempts} reseeds"
    )


def _as_point(pav: PolarizedAbelianVariety, b) -> np.ndarray:
    if isinstance(b, TorsionPoint):
        return b.to_complex(pav)
    return np.asarray(b, dtype=complex)


def phi_map_coords(
    pav: PolarizedAbelianVariety,
    n: int,
    b,
    seed: int,
    *,
    eps: float | None = None,
    basis: ThetaBasis | None = None,
    tilde: ThetaTilde | None = None,
) -> Expansion:
    """Coordinates in |(n+1) theta| of the divisor of u -> theta(u+nb) theta~(u-b).

    The underlying point of projective space depends only on b mod Lambda.
    """
    if not pav.delta.is_principal:
        raise ValueError("the divisor map requires a principal polarization")
    b = _as_point(pav, b)
    basis = basis if basis is not None else ThetaBasis(pav, n + 1, eps=eps)
    tilde = tilde if tilde is not None else ThetaTilde(pav, n, eps=eps)
    basis_1 = ThetaBasis(pav, 1, eps=eps)

    def f(zs):
        return basis_1.eval_matrix(zs + n * b)[0] * tilde.eval_many(zs - b)

    samples = sample_points(pav, OVERSAMPLE * basis.dim, seed)
    return expand_in_basis(pav, n + 1, f, samples, basis=basis)


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


def diagram_check(
    pav: PolarizedAbelianVariety,
    n: int,
    b,
    seed: int,
    *,
    wirt: WirtingerMatrix | None = None,
    eps: float | None = None,
) -> float:
    """Projective distance between the divisor coordinates of b and the
    Wirtinger image (sum_beta c_{alpha beta} theta_beta(b))_alpha.

    A small value is the pointwise commutativity of the triangle relating
    the (n+1)-theta embedding, the coefficient form, and the divisor map.
    """
    wirt = wirt if wirt is not None else wirtinger_matrix(pav, n, seed, eps=eps)
    b = _as_point(pav, b)
    phi = phi_map_coords(pav, n, b, seed, eps=eps).coefficients
    basis_b = ThetaBasis(pav, n * (n + 1), eps=eps)
    tb = basis_b.eval_matrix(b[None, :])[:, 0]
    return projective_residual(phi, wirt.full @ tb)


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
    eps: float | None = None,
    rel_tol: float = DEFAULT_RANK_TOL,
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
        pts = np.array([_as_point(pav, b) for b in G], dtype=complex)
        if pts.shape[0] > point_cap:
            raise SizeLimit(f"|G| = {pts.shape[0]} exceeds cap {point_cap}")
    basis = ThetaBasis(pav, n + 1, eps=eps)
    w = section_weights(pav, n + 1, pts)
    matrix = basis.eval_matrix(pts).T * w[:, None]
    rank, svals, _ = numerical_rank(matrix, rel_tol)
    return SpanningReport(rank, (n + 1) ** g, pts.shape[0], svals)


def monotonicity_check(pav: PolarizedAbelianVariety, n: int, seed: int, **kwargs) -> bool:
    """Check that surjectivity of mu_n propagates to mu_{n+1} on this instance
    (vacuously true when mu_n is not verified surjective)."""
    first = surjectivity_verdict(pav, n, seed, **kwargs)
    if first.verdict is not Verdict.SURJECTIVE:
        return True
    second = surjectivity_verdict(pav, n + 1, seed, **kwargs)
    return second.verdict is Verdict.SURJECTIVE
