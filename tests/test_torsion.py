import itertools
from fractions import Fraction

import numpy as np
import pytest

from thetamu import torsion
from thetamu import (
    NotInGroup,
    NotTorsion,
    SizeLimit,
    TorsionPoint,
    alternating_form,
    characters,
    crt_split,
    k_group,
    random_period_matrix,
    validate_polarized,
    weil_pairing_phase,
    zero_point,
)


@pytest.fixture
def elliptic():
    return validate_polarized(np.array([[1j]]), (1,))


@pytest.fixture
def elliptic_d3():
    return validate_polarized(np.array([[0.2 + 1.1j]]), (3,))


def test_point_reduction_and_equality():
    p = TorsionPoint([Fraction(3, 2)], [Fraction(7, 2)], (3,))
    assert p.a == (Fraction(1, 2),)
    assert p.b == (Fraction(1, 2),)
    q = TorsionPoint([Fraction(-1, 2)], [Fraction(-5, 2)], (3,))
    assert p == q
    assert (p - q).is_zero


def test_k_group_elliptic_two_torsion(elliptic):
    grp = k_group(elliptic, 2)
    assert [x.a for x in grp.k1] == [(Fraction(0),), (Fraction(1, 2),)]
    assert [x.b for x in grp.k2] == [(Fraction(0),), (Fraction(1, 2),)]


def test_k_group_orders():
    pav13 = validate_polarized(random_period_matrix(2, 1), (1, 3))
    assert len(k_group(pav13, 1).k1) == 3
    pav3 = validate_polarized(np.array([[1.3j]]), (3,))
    assert len(k_group(pav3, 2).k1) == 6


@pytest.mark.parametrize("divisors,m", [((1,), 2), ((3,), 2), ((1, 2), 1), ((2, 2), 2)])
def test_k_group_size_matches_h0(divisors, m):
    g = len(divisors)
    pav = validate_polarized(random_period_matrix(g, 9), divisors)
    grp = k_group(pav, m)
    assert len(grp.k1) == len(grp.k2) == pav.h0(m)


def test_k_group_cap(monkeypatch):
    # h0(L^1001) = 1,001,000 exceeds DEFAULT_GROUP_CAP: refused before any
    # point is enumerated
    pav = validate_polarized(random_period_matrix(1, 2), (1000,))

    def never_called(*args, **kwargs):
        raise AssertionError("k_group enumerated points past its cap")

    monkeypatch.setattr(torsion, "TorsionPoint", never_called)
    with pytest.raises(SizeLimit, match=r"^points \|K\(L\^m\)\|: 1001000 exceeds cap 1000000$"):
        k_group(pav, 1001)


def test_characters_pairing_cap(monkeypatch):
    # h0(L)^2 = 1001^2 pairings exceed DEFAULT_GROUP_CAP: refused before
    # K(L) is enumerated
    pav = validate_polarized(random_period_matrix(1, 2), (1001,))

    def never_called(*args, **kwargs):
        raise AssertionError("characters enumerated points past its cap")

    monkeypatch.setattr(torsion, "TorsionPoint", never_called)
    with pytest.raises(SizeLimit, match=r"^pairings of K\(L\^m\): 1002001 exceeds cap 1000000$"):
        characters(pav, 1)


def test_weil_pairing_example(elliptic):
    grp = k_group(elliptic, 2)
    x = grp.k1[1]  # Omega/2
    y = grp.k2[1]  # 1/2
    assert alternating_form(x, y) == Fraction(1, 4)
    # e_2(x, y) = exp(2 pi i / 2) = -1
    assert weil_pairing_phase(elliptic, 2, x, y) == Fraction(1, 2)


def test_weil_pairing_isotropy_and_zero(elliptic_d3):
    grp = k_group(elliptic_d3, 2)
    for half in (grp.k1, grp.k2):
        for x in half[:4]:
            for y in half[:4]:
                assert weil_pairing_phase(elliptic_d3, 2, x, y) == 0
    z = zero_point(elliptic_d3)
    assert weil_pairing_phase(elliptic_d3, 2, z, grp.k2[3]) == 0


def test_weil_pairing_nondegenerate():
    for divisors in ((2,), (3,), (1, 2)):
        g = len(divisors)
        pav = validate_polarized(random_period_matrix(g, 4), divisors)
        for m in (1, 2):
            grp = k_group(pav, m)
            for x in grp.k1:
                if x.is_zero:
                    continue
                assert any(
                    weil_pairing_phase(pav, m, x, y) != 0 for y in grp.k2
                ), f"pairing degenerate at {x}"


def test_weil_pairing_rejects_non_torsion(elliptic):
    x = TorsionPoint([Fraction(1, 3)], [0], (1,))
    y = zero_point(elliptic)
    with pytest.raises(NotTorsion):
        weil_pairing_phase(elliptic, 2, x, y)


def test_crt_split_example(elliptic):
    beta = TorsionPoint([Fraction(1, 6)], [0], (1,))
    gamma, beta_prime = crt_split(elliptic, 2, beta)
    assert gamma.a == (Fraction(1, 2),)
    assert beta_prime.a == (Fraction(2, 3),)
    # exhaustive-search oracle over all candidate pairs
    candidates = [
        (TorsionPoint([Fraction(s, 2)], [0], (1,)), TorsionPoint([Fraction(t, 3)], [0], (1,)))
        for s in range(2)
        for t in range(3)
    ]
    matches = [(u, v) for u, v in candidates if u + v == beta]
    assert matches == [(gamma, beta_prime)]


def test_crt_split_trivial_cases(elliptic):
    zero = zero_point(elliptic)
    assert crt_split(elliptic, 2, zero) == (zero, zero)
    beta = TorsionPoint([Fraction(1, 3)], [0], (1,))
    gamma, beta_prime = crt_split(elliptic, 2, beta)
    assert gamma.is_zero
    assert beta_prime == beta


@pytest.mark.parametrize("g,n", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_crt_split_is_homomorphism(g, n):
    pav = validate_polarized(random_period_matrix(g, 6), (1,) * g)
    group = k_group(pav, n * (n + 1))
    elements = group.k1
    for b1 in elements:
        g1, p1 = crt_split(pav, n, b1)
        assert b1 == g1 + p1
        assert g1.scale(n).is_zero
        assert p1.scale(n + 1).is_zero
    for b1, b2 in itertools.islice(itertools.product(elements, elements), 120):
        g1, p1 = crt_split(pav, n, b1)
        g2, p2 = crt_split(pav, n, b2)
        g3, p3 = crt_split(pav, n, b1 + b2)
        assert g3 == g1 + g2
        assert p3 == p1 + p2


def test_crt_split_rejects_real_part(elliptic):
    beta = TorsionPoint([0], [Fraction(1, 6)], (1,))
    with pytest.raises(NotInGroup):
        crt_split(elliptic, 2, beta)


def test_characters_table(elliptic):
    table = characters(elliptic, 2)
    values = table.values
    # trivial character is the row of y = 0
    assert np.allclose(values[0], 1.0)
    # chi_{1/2}(Omega/2) = -1
    assert values[1, 1] == pytest.approx(-1.0)
    # bijection: distinct rows
    assert len({tuple(row) for row in table.phases}) == len(table.phases)
    # orthogonality under the uniform inner product
    gram = values @ values.conj().T / values.shape[1]
    assert np.allclose(gram, np.eye(values.shape[0]), atol=1e-12)


def test_characters_orthogonal_d3(elliptic_d3):
    table = characters(elliptic_d3, 1)
    values = table.values
    gram = values @ values.conj().T / values.shape[1]
    assert np.allclose(gram, np.eye(3), atol=1e-12)


def test_points_of_another_polarization_are_refused():
    # on type (1,2), a point built for (2,2) or for g = 1 is refused with one
    # ValueError, though its coordinates alone pass the test of its own type
    pav = validate_polarized(random_period_matrix(2, 4), (1, 2))
    x = TorsionPoint([Fraction(1, 2), 0], [0, 0], (2, 2))
    y = TorsionPoint([0, 0], [1, 0], (2, 2))
    other = r"different polarizations, \(2, 2\) and \(1, 2\)"
    with pytest.raises(ValueError, match=other):
        weil_pairing_phase(pav, 1, x, y)
    with pytest.raises(NotTorsion):
        weil_pairing_phase(pav, 1, TorsionPoint(x.a, x.b, (1, 2)), TorsionPoint(y.a, y.b, (1, 2)))
    with pytest.raises(ValueError, match=r"different polarizations, \(1,\) and \(1, 2\)"):
        weil_pairing_phase(pav, 1, TorsionPoint([0], [0], (1,)), zero_point(pav))
    # crt_split on a principal curve refuses a point of type (2)
    elliptic = validate_polarized(np.array([[1j]]), (1,))
    with pytest.raises(ValueError, match=r"different polarizations, \(2,\) and \(1,\)"):
        crt_split(elliptic, 2, TorsionPoint([Fraction(1, 6)], [0], (2,)))
