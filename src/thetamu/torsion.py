"""Exact arithmetic for the finite kernels K(L^m) and their pairings.

All torsion coordinates are ``fractions.Fraction``; complex numbers appear
only at the final exponential, so the group theory is error-free.

A point is stored as the pair (a, b) denoting ``Omega a + b mod Lambda``;
``a`` is reduced mod Z^g into [0,1) componentwise and ``b`` is reduced mod
``Delta Z^g`` into [0, d_i).  On such representatives the alternating form
is ``E(x, y) = a . b' - b . a'``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import pi
from typing import Sequence

import numpy as np

from .errors import NotInGroup, NotTorsion
from .varieties import PolarizedAbelianVariety, _as_int, _within

#: cap on |K(L^m)| enumerations
DEFAULT_GROUP_CAP = 10**6


def _as_fractions(v: Sequence) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in v)


@dataclass(frozen=True)
class TorsionPoint:
    """The point ``Omega a + b mod Lambda`` in canonical reduced form."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    divisors: tuple[int, ...]

    def __init__(self, a: Sequence, b: Sequence, divisors: Sequence[int]):
        divisors = tuple(int(d) for d in divisors)
        a = tuple(x % 1 for x in _as_fractions(a))
        b = tuple(x % d for x, d in zip(_as_fractions(b), divisors, strict=True))
        if len(a) != len(divisors):
            raise ValueError("coordinate/divisor length mismatch")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "divisors", divisors)

    @property
    def g(self) -> int:
        return len(self.a)

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.a) and all(x == 0 for x in self.b)

    def __add__(self, other: "TorsionPoint") -> "TorsionPoint":
        self._compatible(other.divisors)
        return TorsionPoint(
            [x + y for x, y in zip(self.a, other.a)],
            [x + y for x, y in zip(self.b, other.b)],
            self.divisors,
        )

    def __sub__(self, other: "TorsionPoint") -> "TorsionPoint":
        self._compatible(other.divisors)
        return TorsionPoint(
            [x - y for x, y in zip(self.a, other.a)],
            [x - y for x, y in zip(self.b, other.b)],
            self.divisors,
        )

    def __neg__(self) -> "TorsionPoint":
        return TorsionPoint([-x for x in self.a], [-x for x in self.b], self.divisors)

    def scale(self, k: int) -> "TorsionPoint":
        return TorsionPoint([k * x for x in self.a], [k * x for x in self.b], self.divisors)

    def _compatible(self, divisors: tuple[int, ...]) -> None:
        """Raise ValueError unless the point is of the polarization type
        ``divisors``, that of another point or of a variety."""
        if self.divisors != divisors:
            raise ValueError(
                f"points belong to different polarizations, {self.divisors} and {divisors}")

    def to_complex(self, pav: PolarizedAbelianVariety) -> np.ndarray:
        """Embed the representative into V = C^g."""
        a = np.array([float(x) for x in self.a])
        b = np.array([float(x) for x in self.b])
        return pav.matrix @ a + b


def zero_point(pav: PolarizedAbelianVariety) -> TorsionPoint:
    g = pav.g
    return TorsionPoint([0] * g, [0] * g, pav.divisors)


def alternating_form(x: TorsionPoint, y: TorsionPoint) -> Fraction:
    """E(x, y) = a . b' - b . a' on canonical representatives (exact)."""
    x._compatible(y.divisors)
    return sum(
        (ax * by - bx * ay for ax, bx, ay, by in zip(x.a, x.b, y.a, y.b)),
        Fraction(0),
    )


def _check_torsion(pav: PolarizedAbelianVariety, m: int, x: TorsionPoint, label: str) -> None:
    # x in K(L^m)  <=>  m E(x, .) is integral on Lambda
    # <=>  m b_i in Z and m d_i a_i in Z for every i
    x._compatible(pav.divisors)
    for i, (ai, bi, di) in enumerate(zip(x.a, x.b, pav.divisors)):
        if (m * bi).denominator != 1 or (m * di * ai).denominator != 1:
            raise NotTorsion(
                f"{label} is not in K(L^{m}): coordinate {i} fails integrality "
                f"(a_{i} = {ai}, b_{i} = {bi})"
            )


@dataclass(frozen=True)
class TorsionSubgroup:
    """Full enumeration of K(L^m) = K(L^m)_1 + K(L^m)_2.

    ``k1`` lists ``Omega (m Delta)^{-1} k mod Lambda`` and ``k2`` lists
    ``(1/m) k mod Lambda`` in lexicographic k-order; both halves are
    isotropic for the level-m pairing and have order m^g d_1...d_g.
    """

    level: int
    k1: tuple[TorsionPoint, ...]
    k2: tuple[TorsionPoint, ...]


def k_group(pav: PolarizedAbelianVariety, m: int) -> TorsionSubgroup:
    """Enumerate K(L^m)_1 and K(L^m)_2 for the polarization of ``pav``;
    raises :class:`SizeLimit` before enumerating more than DEFAULT_GROUP_CAP
    points per half."""
    m = _as_int(m, "level", 1)
    d = pav.divisors
    g = pav.g
    _within(pav.h0(m), DEFAULT_GROUP_CAP, "points |K(L^m)|")
    ranges = [range(m * di) for di in d]
    k1 = tuple(
        TorsionPoint([Fraction(ki, m * di) for ki, di in zip(k, d)], [0] * g, d)
        for k in itertools.product(*ranges)
    )
    k2 = tuple(
        TorsionPoint([0] * g, [Fraction(ki, m) for ki in k], d)
        for k in itertools.product(*ranges)
    )
    return TorsionSubgroup(m, k1, k2)


def weil_pairing_phase(
    pav: PolarizedAbelianVariety, m: int, x: TorsionPoint, y: TorsionPoint
) -> Fraction:
    """Exact phase t in [0,1) with e_m(x, y) = exp(2 pi i t); raises
    ValueError unless the level m is an integer >= 1, bool excluded."""
    m = _as_int(m, "level", 1)
    _check_torsion(pav, m, x, "x")
    _check_torsion(pav, m, y, "y")
    return (m * alternating_form(x, y)) % 1


@dataclass(frozen=True)
class CharacterTable:
    """Characters of K(L^m)_1, identified with K(L^m)_2 via the pairing.

    ``phases[i][j]`` is the exact rational t with
    chi_{k2[i]}(k1[j]) = exp(2 pi i t); ``values`` is the same table as
    complex numbers. The identification y -> chi_y is a bijection.
    """

    level: int
    group: TorsionSubgroup
    phases: tuple[tuple[Fraction, ...], ...]

    @property
    def values(self) -> np.ndarray:
        return np.exp(
            2j * pi * np.array([[float(t) for t in row] for row in self.phases])
        )

    def character_of(self, y: TorsionPoint) -> int:
        """Row index of the character attached to y in K(L^m)_2."""
        for i, p in enumerate(self.group.k2):
            if p == y:
                return i
        raise NotInGroup(f"{y} is not an enumerated element of K(L^m)_2")


def characters(pav: PolarizedAbelianVariety, m: int) -> CharacterTable:
    """Character table of K(L^m)_1 with rows indexed by K(L^m)_2; raises
    :class:`SizeLimit` before any enumeration when its h0(m)^2 exact
    pairings exceed DEFAULT_GROUP_CAP."""
    _within(pav.h0(m) ** 2, DEFAULT_GROUP_CAP, "pairings of K(L^m)")
    group = k_group(pav, m)
    phases = tuple(
        tuple(weil_pairing_phase(pav, m, x, y) for x in group.k1) for y in group.k2
    )
    return CharacterTable(m, group, phases)


def crt_split(
    pav: PolarizedAbelianVariety, n: int, beta: TorsionPoint
) -> tuple[TorsionPoint, TorsionPoint]:
    """Split beta in K(M^{n(n+1)})_1 as gamma + beta' with n gamma = 0 and
    (n+1) beta' = 0 (unique since gcd(n, n+1) = 1).

    Requires a principal polarization and a point of it; gamma is the
    n-torsion part of beta.
    """
    if not pav.is_principal:
        raise ValueError("crt_split requires a principal polarization")
    n = _as_int(n, "n", 1)
    beta._compatible(pav.divisors)
    N = n * (n + 1)
    g = pav.g
    ks = []
    for i, (ai, bi) in enumerate(zip(beta.a, beta.b)):
        if bi != 0 or (N * ai).denominator != 1:
            raise NotInGroup(
                f"beta is not in K(M^{N})_1: coordinate {i} (a = {ai}, b = {bi})"
            )
        ks.append(int(N * ai))
    gamma = TorsionPoint([Fraction(k % n, n) for k in ks], [0] * g, beta.divisors)
    beta_prime = TorsionPoint(
        [Fraction((-k) % (n + 1), n + 1) for k in ks], [0] * g, beta.divisors
    )
    return gamma, beta_prime
