"""Canonical theta bases of H^0(A, L^m) by certified truncated lattice sums.

The basis attached to level m is

    theta_c(z) = sum_{l in Z^g + c} exp(pi i m l^T Omega l + 2 pi i m l^T z),

with characteristics c running over (m Delta)^{-1} Z^g / Z^g.  A section
has one label, the integer vector k with 0 <= k_i < m d_i and c = k/(m d);
every evaluator orders its sections lexicographically in k, as
:func:`lex_vectors` does.  Under this choice the factor of automorphy of L^m
for a period Omega a + b (a in Z^g, b in Delta Z^g) is

    e_m(lambda, z) = exp(-pi i m a^T Omega a - 2 pi i m a^T z),

independent of c, and the normalized theta-group action of
K(L^m)_1 = {Omega a} permutes the labels: k -> k + m d a mod m d.  Both
are test oracles, ``reference.automorphy_factor`` and
``reference.translate_action``, outside this module.

Evaluation strategy: every point is first translated into the fundamental
cell of the summation lattice (the quasi-periodicity factor is restored
exactly), then the centred integer cube [-R, R]^g is summed.  Every sum takes
R from one rule, :func:`box_radius`: the smallest R >= 1 whose dropped terms
provably sum to at most eps = DEFAULT_EPS times the envelope.  So an
evaluator takes a validated variety and a level: the variety gives the period
matrix, (Im Omega)^{-1} and lambda_min, and eps is a package constant, not an
option; no evaluation takes a radius of its own.

The box sum is one matrix product.  Writing l = c + b with b in the box,
each term factors as Q[c, b] * E[b, z] * C[c, z], with
Q = exp(pi i m l^T Omega l) independent of z, E = exp(2 pi i m b^T z) and
C = exp(2 pi i m c^T z), so the K x P values are (Q @ E) * C, and the
contraction runs in BLAS.  Q and E are each a modulus times a phase:

* the modulus is a real exponential of the real part, which comes from real
  products with Y = Im Omega and Im z;
* the phase needs only X = Re Omega and Re z.  As the box is the cube
  [-R, R]^g, exp(i b^T x) is a product over the axes of the unit phases
  exp(i x_j)^b_j, which :func:`_box_phase` builds from one complex
  exponential per characteristic or point and axis.  E takes the phase of
  x = 2 pi m Re z; Q that of x = 2 pi m X c times exp(pi i m b^T X b), one
  per box point, and its row phase exp(pi i m c^T X c) moves into C.

A characteristic may carry a real half h, theta[c; h](z) = theta_c(z + h)
(:meth:`_LatticeSum.eval`): h is real, so it enters only phases (the
per-axis phase of Q, the row phase and the phase of each point's
reduction), and nothing below depends on it.

So a block of K characteristics and P points takes K P + (K + P) g complex
exponentials and B (K + P) real ones, against K P + B (K + P) complex ones
when Q and E are exponentiated entry by entry, and K B P term by term.  The
bare factors overflow (|E| reaches exp(2 pi m |b^T y|)), so

* half of the Gaussian, exp(-pi m b^T Y b / 2), moves from the modulus of Q
  into that of E;
* each row of Q and each column of E is divided by its largest modulus;
* the values are recombined as rel * (Q @ E) * exp(env), with
  rel = exp(log C + row scale + column scale - env) and env the log
  envelope of the point: a product, with no logarithm and no branch.

The scales then exceed the envelope of a (characteristic, point) pair by at
most pi m v^T Y v, where v is the difference of the characteristic and the
reduced point in lattice coordinates.  When that bound can pass 300 (large
Im Omega, towards the cusp), characteristics and points are binned and each
pair of bins gets a split centred between them, so no term that matters
leaves the normal double range.  Within a bin, characteristics and points
go through in chunks whose factors Q and E and block of values hold at most a
fixed number of elements, so temporary memory grows with neither K nor P.

No factor of the recombination overflows:

* 0 <= env <= _LOG_MAX: env is the log envelope of the point as given, and
  a larger one raises :class:`TruncationOverflow` before any sum;
* the binning keeps row scale + column scale + Re log C at most _SCALE_MAX
  above the envelope of the reduced point, which is env less the real part
  of the reduction's log factor, so |rel| <= exp(_SCALE_MAX) = e^300;
* |Q @ E| <= B, the number of box points, up to rounding: every modulus is
  at most 1 and every phase has modulus 1 to within the rounding bound of
  :func:`_box_phase`.

rel underflows only for terms below exp(-708) of their envelope, far under
eps.  At z = 0, env = 0 and exp(env) = 1, so :func:`theta_constants` takes
the exponents it would take in one exponential.

Values are accurate to eps * exp(pi m y^T (Im Omega)^{-1} y), the natural
growth envelope; sections whose envelope exceeds the double-precision range
raise :class:`TruncationOverflow` (arbitrary precision is out of scope).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import TruncationOverflow
from .varieties import DEFAULT_EPS, PolarizedAbelianVariety, _as_int, _within, validate_polarized

#: hard cap on the number of lattice points in one summation box
DEFAULT_CAPACITY = 4_000_000
#: cap on the K x (2R+1)^g x P terms of one evaluation, a few seconds of work
DEFAULT_TERM_CAP = 10**9
#: largest exponent exp() can take before double overflow, with margin
_LOG_MAX = 700.0
#: largest excess, in log scale, of a row scale times a column scale over the
#: envelope of their pair; with _FLUSH it keeps every term that matters
_SCALE_MAX = 300.0
#: scaled factors below exp(-_FLUSH) are dropped; 2 * _FLUSH < 708, so no
#: product of two kept factors is subnormal
_FLUSH = _SCALE_MAX + 50.0
#: elements of every factor and block of values per chunk, which bounds temporary memory
_CHUNK_ELEMENTS = 1 << 19


def lex_vectors(dims) -> np.ndarray:
    """All integer vectors of prod range(dims_i) in lexicographic order,
    shape (prod dims, len(dims))."""
    return np.indices(tuple(dims)).reshape(len(dims), -1).T


def _ravel(vectors: np.ndarray, dims) -> np.ndarray:
    """Lexicographic position in prod range(dims_i) of every integer vector
    along the last axis of ``vectors``: the inverse of :func:`lex_vectors`.
    The vectors must lie in range; none is checked."""
    # place values, the last axis fastest
    return vectors @ np.array([math.prod(dims[i + 1:]) for i in range(len(dims))])


def _check_label(k, m: int, dims) -> np.ndarray:
    """The level-m label k as an array; raises ValueError unless k holds
    integers, bool excluded, with 0 <= k_i < dims_i = m d_i for each of its
    g entries."""
    k = np.asarray(k)
    if (k.dtype.kind not in "iu" or k.shape != (len(dims),)
            or not ((0 <= k) & (k < dims)).all()):
        raise ValueError(f"{k.tolist()} is not a level-{m} label, 0 <= k < {dims}")
    return k


def box_radius(lambda_min: float, m: int, g: int, offset: float) -> int:
    """Smallest cube radius R >= 1 whose dropped terms sum to at most
    eps = DEFAULT_EPS times the envelope.

    Relative to the envelope, the term at b in Z^g is exp(-pi m v^T Y v) <=
    prod_i exp(-a v_i^2), with v = b - x, a = pi m lambda_min and x the
    Gaussian centre, |x_i| <= offset (1/2 at z = 0 or a real point, where x
    is the characteristic; up to 1 at a reduced point, where x adds
    Y^{-1} Im z0; see :class:`_LatticeSum`).  A
    point off the cube has some |v_i| >= rho = R + 1 - offset; as
    (rho + k)^2 >= rho^2 + 2 rho k, that axis sums to at most
    T(rho) = 2 exp(-a rho^2) / (1 - exp(-2 a rho)) over both sides.  On any
    other axis the two integers nearest x_j give at most 1 each and the rest
    at most exp(-a (1 + k)^2) per side: S = 2 + 2 exp(-a) / (1 - exp(-2 a)).
    A union bound over the axis that leaves the cube gives g T(rho) S^(g-1)
    (cf. Deconinck et al., Math. Comp. 73 (2004), Thm 2).  The floor R >= 1
    keeps both nearest coset points of c_i = 1/2, so constants far below eps
    stay accurate relative to their own size.  A lambda_min so small that no
    float radius bounds the tail raises :class:`TruncationOverflow`; a level
    m that is no integer >= 1 (bool and float refused) raises ValueError.
    """
    m = _as_int(m, "level", 1)
    if lambda_min <= 0:
        raise ValueError("lambda_min must be positive")
    a = math.pi * m * lambda_min
    # log of the largest T(rho) allowed, eps / (g S^(g-1))
    budget = (math.log(DEFAULT_EPS / g)
              - (g - 1) * math.log(2 + 2 * math.exp(-a) / -math.expm1(-2 * a)))

    def fits(radius: int) -> bool:
        rho = radius + 1 - offset
        return math.log(2.0) - a * rho * rho - math.log(-math.expm1(-2.0 * a * rho)) <= budget

    # T(rho) >= 2 exp(-a rho^2), so no radius below lo meets the budget; T
    # falls as rho grows, so double up to a radius that fits, then bisect
    start = math.sqrt((math.log(2.0) - budget) / a) + offset - 1
    if not math.isfinite(start):
        raise TruncationOverflow(f"lambda_min {lambda_min:.3e} needs a radius past the float range")
    lo = hi = max(1, math.ceil(start))
    while not fits(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid + 1, hi)
    return hi


def _log_envelope(Yinv: np.ndarray, m: int, zs) -> np.ndarray:
    """pi m y^T Y^{-1} y per point: log of the natural growth envelope of L^m."""
    y = np.asarray(zs).imag
    return math.pi * m * np.einsum("pi,ij,pj->p", y, Yinv, y)


def _scaled_exp(x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(x - shift) in place and shift, the largest entry of the real
    array x along ``axis``.

    Entries below exp(-_FLUSH) become 0, so every product of two factors is
    a normal double or 0: subnormal operands slow BLAS by an order of
    magnitude, and a term cut this way is below exp(-50) of the envelope.
    """
    shift = x.max(axis=axis, keepdims=True)
    x -= shift
    x[x < -_FLUSH] = -np.inf
    np.exp(x, out=x)
    return x, shift


def _box_phase(lin: np.ndarray, R: int) -> np.ndarray:
    """exp(i b . lin_n) for every point b of the cube [-R, R]^g, in
    lexicographic order, and every row lin_n of the (N, g) real array
    ``lin``; shape ((2R+1)^g, N).

    The cube is a product of axes, so the phase is an outer product of
    per-axis tables exp(i r lin_nj), r in [-R, R]: one complex exponential
    w = exp(i lin_nj) per (row, axis), the powers w^r, r > 1, by repeated
    multiplication and w^-r = conj(w^r), then g - 1 broadcast products with
    the rows along the contiguous axis.  A direct table, one exponential per
    (row, axis, r), would cost as much as the whole phase at g = 1.  Every
    multiplication rounds by at most sqrt(5) u (u = 2^-53), so an entry is
    within (|b|_1 + g) sqrt(5) u of exp(i b . lin_n), beyond the rounding
    of lin itself: under 1e-14 for |b|_1 + g <= 40.
    """
    n, g = lin.shape
    # table[R + r, j] = w_j^r
    table = np.empty((2 * R + 1, g, n), dtype=complex)
    table[R] = 1.0
    table[R + 1:R + 2] = np.exp(1j * lin.T)
    for r in range(R + 2, 2 * R + 1):
        np.multiply(table[r - 1], table[R + 1], out=table[r])
    np.conjugate(table[:R:-1], out=table[:R])
    phase = table[:, 0]
    for j in range(1, g):
        phase = (phase[:, None, :] * table[None, :, j]).reshape(-1, n)
    return phase


def _bins(x: np.ndarray, nb: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split the rows of x, which lie in [-h, h]^g, into nb equal bins per
    axis of their range; returns (row indices, centre of their range) for
    every occupied bin, so each row lies within h / nb of its centre on every
    axis (within h of 0 for nb = 1)."""
    if nb == 1:  # the usual case, without the cost of np.unique
        return [(np.arange(x.shape[0]), np.zeros(x.shape[1]))]
    lo, width = x.min(axis=0), np.ptp(x, axis=0)
    idx = np.clip(np.floor((x - lo) / np.where(width > 0, width, 1.0) * nb), 0, nb - 1)
    inverse = np.unique(idx, axis=0, return_inverse=True)[1].ravel()
    groups = [np.flatnonzero(inverse == j) for j in range(inverse.max() + 1)]
    return [(rows, (x[rows].min(axis=0) + x[rows].max(axis=0)) / 2) for rows in groups]


class _LatticeSum:
    """Truncated sum over Z^g + c of exp(pi i m l^T tau l + 2 pi i m l^T z)
    over the cube of radius :func:`box_radius`, with tau, (Im tau)^{-1} and
    lambda_min those of the validated variety the sum is built on.

    ``offset`` bounds the Gaussian centre per axis: the characteristic,
    reduced mod Z^g, less the lattice coordinate Y^{-1} Im z0 of the reduced
    point, which is within 1/2 of 0, and 0 at a real point.  So a caller
    passes 1/2 + max |c_i - round(c_i)| over the characteristics it
    evaluates, or 1/2 when every characteristic is 0 or every point is
    real; 1 always holds.  A real half of the characteristic moves no
    centre.  Characteristics or points past the offset taken
    void the eps bound of the radius and of the binning.
    """

    def __init__(self, pav: PolarizedAbelianVariety, m: int, offset: float):
        self.tau, self.Y, self.Yinv, self.g = pav.matrix, pav.matrix.imag, pav.im_inv, pav.g
        self.m = _as_int(m, "level", 1)
        R = self.radius = box_radius(pav.lambda_min, self.m, self.g, offset)
        # binning characteristics and points into nb^g cells each keeps the
        # scale excess pi m v^T Y v, |v_i| <= offset / nb, of every
        # (characteristic, point) block under _SCALE_MAX
        spread = math.pi * self.m * float(np.abs(self.Y).sum())
        if not math.isfinite(spread):
            raise TruncationOverflow(f"Im Omega spread {spread:.4g} is past the float range")
        self.nbins = max(1, math.ceil(offset * math.sqrt(spread / _SCALE_MAX)))
        _within((2 * R + 1) ** self.g, DEFAULT_CAPACITY, f"radius-{R} box lattice points",
                TruncationOverflow)

    @functools.cached_property
    def _cube(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (2R+1)^g integer points b of [-R, R]^g, lexicographic, with the
        columns pi m b^T Y b / 2 and exp(pi i m b^T X b), X = Re tau; built
        at the first evaluation, so a check of :meth:`terms` builds no box."""
        box = (lex_vectors((2 * self.radius + 1,) * self.g) - self.radius).astype(float)
        btb = (math.pi * self.m) * np.einsum("bi,ij,bj->b", box, self.tau, box)[:, None]
        return box, 0.5 * btb.imag, np.exp(1j * btb.real)

    def _reduce(self, zs: np.ndarray):
        """Translate into the fundamental cell of tau Z^g + Z^g.

        Returns (z0, aint, bint, pref) with z = z0 + tau aint + bint and
        theta[c; h](z) = exp(2 pi i m (c.bint - h.aint)) * exp(pref) * theta[c; h](z0).
        """
        aint = np.round(zs.imag @ self.Yinv.T)
        shift = aint @ self.tau.T
        z1 = zs - shift
        bint = np.round(z1.real)
        z0 = z1 - bint
        # a^T tau a + 2 a^T z0, with tau a the shift taken off
        pref = (-1j * math.pi * self.m) * (aint * (shift + 2.0 * z0)).sum(axis=1)
        return z0, aint, bint, pref

    def terms(self, k: int, p: int) -> int:
        """The k (2R+1)^g p terms of k characteristics at p points."""
        return k * (2 * self.radius + 1) ** self.g * p

    def eval(self, chars: np.ndarray, zs: np.ndarray, halves=None,
             log_factor=None) -> np.ndarray:
        """theta[c; h](z) = sum_{l in Z^g + c} exp(pi i m l^T tau l + 2 pi i m l^T (z + h))
        for every characteristic c, with the real half h in the same row of
        ``halves`` (0 when None), at every point z; returns (K, P), each
        value times exp(log_factor) when a (K, P) complex ``log_factor`` is
        given.

        h is real, so it enters only phases: the per-axis phase of Q takes
        2 pi m (X c + h) for 2 pi m X c, the row phase gains 2 pi m c^T h,
        and the reduction z = z0 + tau a + b of a point gains the cross term
        exp(-2 pi i m h^T a).  The radius, the binning and every modulus are
        those without h, and at h = 0 every value is bit for bit the one
        without it.  The real part of ``log_factor`` joins the point's log
        envelope ``env``, so the refusal below and the final scale see the
        envelope of the product; its imaginary part joins the phase, so it
        should be small (a few hundred at most) for the phase to keep its
        digits.

        One scaled matrix product per (bin, bin) block and chunk of
        characteristics and points, recombined relative to each point's log
        envelope, without a logarithm; see the module docstring for why no
        factor overflows.  Raises :class:`SizeLimit` before any work when
        the K (2R+1)^g P terms exceed DEFAULT_TERM_CAP, and
        :class:`TruncationOverflow` before any sum when a log envelope, with
        the real part of its log factor, exceeds _LOG_MAX.
        """
        chars = np.atleast_2d(np.asarray(chars, dtype=float))
        halves = (np.zeros_like(chars) if halves is None
                  else np.atleast_2d(np.asarray(halves, dtype=float)))
        zs = np.atleast_2d(np.asarray(zs, dtype=complex))
        _within(self.terms(chars.shape[0], zs.shape[0]), DEFAULT_TERM_CAP, "lattice sum terms")
        z0, aint, bint, pref = self._reduce(zs)
        env = _log_envelope(self.Yinv, self.m, z0) + pref.real
        # the log envelope of every value returned: of the point, or of the
        # point times its factor
        top = env if log_factor is None else env + log_factor.real
        if top.size and float(top.max()) > _LOG_MAX:
            raise TruncationOverflow(
                "section value exceeds double-precision range "
                f"(log envelope {float(top.max()):.4g})"
            )
        R, (box, half, bphase) = self.radius, self._cube
        pim = math.pi * self.m
        X = self.tau.real
        ybox = box @ (pim * self.Y)
        cshift = chars - np.round(chars)
        a = z0.imag @ self.Yinv.T
        out = np.empty((chars.shape[0], z0.shape[0]), dtype=complex)
        krows = max(1, _CHUNK_ELEMENTS // box.shape[0])
        for bin_rows, cbar in _bins(cshift, self.nbins):
            for lo in range(0, bin_rows.size, krows):
                rows = bin_rows[lo:lo + krows]
                c, crows, h = cshift[rows], chars[rows], halves[rows]
                cx, cy = c @ X, c @ self.Y
                lin = (2.0 * pim) * (cx + h)
                cxc = pim * ((cx + 2.0 * h) * c).sum(axis=1)[:, None]
                cyc = pim * (cy * c).sum(axis=1)
                step = max(1, _CHUNK_ELEMENTS // max(box.shape[0], rows.size))
                for cols, abar in _bins(a, self.nbins):
                    # half of the Gaussian moves from Q into E, the split
                    # centred between the two bins
                    centre = cbar - abar
                    split = ybox @ centre[:, None] + half
                    # Q, transposed: box points along the rows; its row
                    # phase exp(pi i m c^T X c) goes into rel
                    qmod = ybox @ (centre - 2.0 * c).T
                    qmod -= half
                    qmod -= cyc
                    qmod, row_shift = _scaled_exp(qmod, axis=0)
                    q = _box_phase(lin, R)
                    q *= bphase
                    q *= qmod
                    for plo in range(0, cols.size, step):
                        p = cols[plo:plo + step]
                        zp = z0[p]
                        zr, zi = (2.0 * pim) * zp.real, (-2.0 * pim) * zp.imag
                        # E less the split, box points along the rows
                        emod = box @ zi.T
                        emod -= split
                        emod, col_shift = _scaled_exp(emod, axis=0)
                        e = _box_phase(zr, R)
                        e *= emod
                        # rel = C exp(row scale + column scale - env), with
                        # the row phase and the phases of the translation,
                        # in turns: |rel| <= exp(_SCALE_MAX)
                        phase = crows @ (self.m * bint[p].T)
                        phase -= h @ (self.m * aint[p].T)
                        phase -= np.floor(phase)
                        phase *= 2.0 * math.pi
                        phase += c @ zr.T
                        phase += cxc
                        phase += pref.imag[p]
                        if log_factor is not None:
                            phase += log_factor.imag[rows[:, None], p]
                        rel = np.empty(phase.shape, dtype=complex)
                        rel.imag = phase
                        rel.real = c @ zi.T
                        rel.real += row_shift.T
                        rel.real += (pref[p].real - env[p]) + col_shift
                        # exp before the product: right after a complex
                        # matmul, exp runs ~10x slower
                        np.exp(rel, out=rel)
                        rel *= q.T @ e
                        rel *= np.exp(env[p] if log_factor is None else top[rows[:, None], p])
                        out[rows[:, None], p] = rel
        return out


def constants_radius(pav: PolarizedAbelianVariety, m: int) -> int:
    """The box radius of :func:`theta_constants` at level m: at z = 0 the
    Gaussian centre is the characteristic, within 1/2 of a lattice point."""
    return box_radius(pav.lambda_min, m, pav.g, 0.5)


def theta_constants(pav: PolarizedAbelianVariety, m: int) -> np.ndarray:
    """theta_c^{(m)}(0) for every level-m characteristic c = k/(m d), in the
    lexicographic order of k.

    The sum is even, theta_c(0) = theta_{-c}(0), so one characteristic of
    each pair {k, -k mod m d} is evaluated and its value written to both.
    """
    lattice = _LatticeSum(pav, m, offset=0.5)
    dims = m * np.array(pav.divisors)
    ks = lex_vectors(dims)
    # the first index of each pair {k, -k mod m d}
    rep = np.minimum(np.arange(len(ks)), _ravel(-ks % dims, dims))
    first = np.flatnonzero(rep == np.arange(len(ks)))
    chars = ks[first] / dims
    values = np.empty(len(ks), dtype=complex)
    values[first] = lattice.eval(chars, np.zeros((1, pav.g)))[:, 0]
    return values[rep]


class ThetaBasis:
    """The canonical basis of H^0(A, L^m) as a batch evaluator.

    The variety and the level fix everything: the period matrix and, through
    :func:`box_radius` at the accuracy DEFAULT_EPS, the radius, taken with
    the offset 1/2 + max_i |c_i - round(c_i)| of the level's characteristics
    (1/2 for the principal level-1 basis, whose one characteristic is 0, and
    1 when some m d_i is even).  Sections are
    ordered lexicographically in their labels k, c = k / (m d), as in
    :func:`lex_vectors`.
    Evaluations are pure; batches over point sets may run concurrently and
    results are assembled in input order.
    """

    def __init__(self, pav: PolarizedAbelianVariety, m: int):
        self.pav = pav
        self.m = m = _as_int(m, "level", 1)
        self._dims = tuple(m * di for di in pav.divisors)
        # the characteristic k_i / D_i, D_i = m d_i, farthest from an integer
        # has k_i = floor(D_i / 2)
        self._sum = _LatticeSum(pav, m, offset=0.5 + max(D // 2 / D for D in self._dims))
        self._chars = lex_vectors(self._dims) / np.array(self._dims)

    @property
    def dim(self) -> int:
        return len(self._chars)

    @property
    def radius(self) -> int:
        return self._sum.radius

    def terms(self, npoints: int) -> int:
        """The lattice terms of :meth:`eval_matrix` at npoints points."""
        return self._sum.terms(self.dim, npoints)

    def eval_matrix(self, zs) -> np.ndarray:
        """Values of all basis elements at all points, shape (dim, npoints)."""
        return self._sum.eval(self._chars, zs)

    def eval(self, k, z) -> complex:
        """Value of the section labelled k at the one point z; raises
        ValueError unless k holds g integers, bool excluded, with
        0 <= k_i < m d_i."""
        k = _check_label(k, self.m, self._dims)
        return complex(self._sum.eval(self._chars[_ravel(k, self._dims)], z).item())


class ThetaTilde:
    """The K(M^n)_1-invariant section of M^n on a principally polarized variety.

    Realized as the theta series of the quotient period matrix Omega/n:
    theta~(z) = sum_{l in Z^g} exp(pi i l^T (Omega/n) l + 2 pi i l^T z).
    It satisfies the level-n factor of automorphy and equals the sum of all
    level-n basis elements (fixed normalization, no free scalar here).  So it
    is the level-1 basis of the validated quotient variety (Omega/n, d): its
    one characteristic is 0, and that basis takes the radius of offset 1/2.
    """

    def __init__(self, pav: PolarizedAbelianVariety, n: int):
        if not pav.is_principal:
            raise ValueError("theta~ is defined for principal polarizations only")
        self.pav = pav
        self.n = n = _as_int(n, "n", 1)
        self._basis = ThetaBasis(validate_polarized(pav.matrix / n, pav.divisors), 1)

    @property
    def radius(self) -> int:
        return self._basis.radius

    def terms(self, npoints: int) -> int:
        """The lattice terms of :meth:`eval_many` at npoints points."""
        return self._basis.terms(npoints)

    def eval_many(self, zs) -> np.ndarray:
        return self._basis.eval_matrix(zs)[0]

    def eval(self, z) -> complex:
        return complex(self.eval_many(z)[0])


def section_weights(pav: PolarizedAbelianVariety, m: int, zs) -> np.ndarray:
    """exp(-pi m y^T Y^{-1} y): equilibration weights for sampled sections;
    raises ValueError unless the level m is an integer >= 1, bool excluded."""
    return np.exp(-_log_envelope(pav.im_inv, _as_int(m, "level", 1), np.atleast_2d(zs)))
