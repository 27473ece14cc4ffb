"""Paramodular covariance of mu_n, an oracle that needs no reference build.

The rank of mu_n depends only on the isomorphism class of (A, L), and the
paramodular group Gamma_Delta acts on Siegel space without changing that
class (Birkenhake and Lange, *Complex Abelian Varieties*, Ch. 8).  Its
generators are the inversion ``-Delta Omega^-1 Delta``, the translations
``Omega + S`` with S integral symmetric and ``Delta^-1 S`` integral, and the
base changes ``U Omega U^T`` with U and ``Delta^-1 U Delta`` in GL(g, Z).
Each changes a canonical theta basis by a unitary matrix times one scalar,
so the union spectrum of mu_n at an image of Omega is the one at Omega
times one common factor.  A matrix outside the group moves the spectrum.
"""

import numpy as np
import pytest

from thetamu import random_period_matrix, surjectivity_verdict, validate_polarized

#: the seed of the Omega every image is taken of
OMEGA_SEED = 301


def _unit(g: int, i: int, j: int) -> np.ndarray:
    """The g x g integer matrix with a single 1 at (i, j)."""
    m = np.zeros((g, g), dtype=int)
    m[i, j] = 1
    return m


def inversion(omega, divisors):
    delta = np.diag(divisors)
    image = -delta @ np.linalg.inv(omega) @ delta
    return (image + image.T) / 2


def translation(s):
    return lambda omega, divisors: omega + s


def last_translation(omega, divisors):
    """Omega + d_g e_g e_g^T."""
    g = len(divisors)
    return omega + divisors[-1] * _unit(g, g - 1, g - 1)


def _name(divisors) -> str:
    return "-".join(map(str, divisors))


def base_change(u):
    u = np.array(u)
    return lambda omega, divisors: u @ omega @ u.T


def verdicts(divisors, n, image):
    omega = random_period_matrix(len(divisors), OMEGA_SEED)
    return [surjectivity_verdict(validate_polarized(w, divisors), n)
            for w in (omega, image(omega, divisors))]


def spectrum_move(before, after) -> float:
    """max |s - c t| / max s for the union spectra s before and t after,
    with c the least-squares common factor."""
    s, t = np.array(before.singular_values), np.array(after.singular_values)
    c = (s @ t) / (t @ t)
    return float(np.abs(s - c * t).max() / s[0])


_SHEAR_124 = np.eye(3, dtype=int) + _unit(3, 0, 1)

#: (id, divisors, n, image): generator images of Gamma_Delta
COVARIANT = [
    *((f"inversion-{_name(d)}-n{n}", d, n, inversion) for d, n in [
        ((3,), 1), ((3,), 2), ((1, 7), 1), ((3, 3), 1), ((1, 2, 4), 1), ((1, 2, 4), 2),
        ((1, 3, 9), 2)]),
    *((f"translation-{_name(d)}-n{n}", d, n, last_translation) for d, n in [
        ((3,), 2), ((1, 7), 1), ((3, 3), 1), ((1, 2, 4), 2), ((1, 3, 9), 2)]),
    ("swap-3-3-n1", (3, 3), 1, base_change([[0, 1], [1, 0]])),
    ("shear-1-7-n1", (1, 7), 1, base_change([[1, 1], [0, 1]])),
    ("shear-1-2-4-n1", (1, 2, 4), 1, base_change(_SHEAR_124)),
    ("shear-1-2-4-n2", (1, 2, 4), 2, base_change(_SHEAR_124)),
]

#: (id, divisors, n, image): matrices outside Gamma_Delta, as negative controls
OUTSIDE = [
    *((f"identity-translation-{_name(d)}", d, 1, translation(np.eye(len(d), dtype=int)))
      for d in [(1, 7), (3, 3), (1, 2, 4)]),
    ("swap-1-7", (1, 7), 1, base_change([[0, 1], [1, 0]])),
    ("lower-shear-1-2-4", (1, 2, 4), 1, base_change(np.eye(3, dtype=int) + _unit(3, 1, 0))),
]


@pytest.mark.parametrize("divisors,n,image", [row[1:] for row in COVARIANT],
                         ids=[row[0] for row in COVARIANT])
def test_generator_images_keep_the_spectrum_up_to_one_factor(divisors, n, image):
    before, after = verdicts(divisors, n, image)
    assert (after.verdict, after.rank) == (before.verdict, before.rank)
    assert spectrum_move(before, after) <= 1e-12


@pytest.mark.parametrize("divisors,n,image", [row[1:] for row in OUTSIDE],
                         ids=[row[0] for row in OUTSIDE])
def test_matrices_outside_the_group_move_the_spectrum(divisors, n, image):
    assert spectrum_move(*verdicts(divisors, n, image)) >= 1e-3
