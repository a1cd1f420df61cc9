"""Direct per-term sums of the theta, Appell and character series.

Each function rebuilds every term's exponent and calls cmath.exp on it, over
the same index window as the library's ratio walks.  They are the reference
the walks are tested against, together with mpmath; the library keeps no such
second path.  Arguments are plain complex numbers, already validated.

The character sums also return a rounding bound, eps * sum_j |t_j| (|X_j| + 1)
with X_j the exponent of term j: to first order, what rounding the exponents
and adding the terms can move the sum by.  Where the terms cancel, or where a
large label makes X_j large, it exceeds 1e-13 of the sum.
"""

import cmath
import math
import sys

from mockchar.appell import appell_cutoff
from mockchar.characters import _atypical_cutoff, _typical_cutoff, theta_eta_prefactor
from mockchar.domain import DEFAULT_TRUNC, PI_I, TWO_PI_I
from mockchar.kernel import theta_cutoff

EPS = sys.float_info.epsilon


def theta1(u: complex, tau: complex, trunc=DEFAULT_TRUNC) -> complex:
    n_max = theta_cutoff(u, tau, trunc)
    acc = 0.0 + 0.0j
    for n in range(-n_max, n_max + 1):
        half = n + 0.5
        term = cmath.exp(PI_I * half * half * tau + TWO_PI_I * u * half)
        acc += -term if n & 1 else term
    return -1j * acc


def theta3(u: complex, tau: complex, trunc=DEFAULT_TRUNC) -> complex:
    n_max = theta_cutoff(u, tau, trunc)
    acc = 1.0 + 0.0j
    for n in range(1, n_max + 1):
        core = PI_I * n * n * tau
        cross = TWO_PI_I * u * n
        acc += cmath.exp(core + cross) + cmath.exp(core - cross)
    return acc


def aK(level: int, u: complex, v: complex, tau: complex, trunc=DEFAULT_TRUNC) -> complex:
    """The defining series term by term.  For n < 0 it forms q^{-n}, which
    overflows where Im tau * |n| is large, and then returns inf * 0 = nan."""
    n_max = appell_cutoff(level, u, v, tau, trunc)
    z = cmath.exp(TWO_PI_I * u)
    acc = 0.0 + 0.0j
    for n in range(-n_max, n_max + 1):
        expo = TWO_PI_I * (tau * (level * n * (n + 1) / 2.0) + v * n)
        term = cmath.exp(expo) / (1.0 - z * cmath.exp(TWO_PI_I * tau * n))
        acc += -term if (level * n) & 1 else term
    return cmath.exp(PI_I * level * u) * acc


def atypical_body(params, n_prime, ell_prime: int, u, v, tau, trunc=DEFAULT_TRUNC, q_shift=0.0):
    """(sum, rounding bound) of the atypical series over j = m*ell + ell'."""
    a, K, ell = params.a, params.K, params.ell
    n_max = _atypical_cutoff(params, n_prime, u, v, tau, trunc)
    acc = 0.0 + 0.0j
    mass = 0.0
    for m in range(-((n_max + ell_prime) // ell), (n_max - ell_prime) // ell + 1):
        j = m * ell + ell_prime
        expo = TWO_PI_I * (
            v * j
            + u * (a * j + n_prime + 0.5)
            + tau * (j * (j * K + 2.0 * n_prime + 1.0) / 2.0 + q_shift)
        )
        term = cmath.exp(expo) / (1.0 - cmath.exp(TWO_PI_I * (u + j * tau)))
        acc += -term if j & 1 else term
        mass += abs(term) * (abs(expo) + 1.0)
    return acc, EPS * mass


def typical_body(params, c, u, v, tau, trunc=DEFAULT_TRUNC):
    """(sum, rounding bound) of the typical label sum."""
    n, ell = params.n, params.ell
    n_max = _typical_cutoff(params, c, u, v, tau, trunc)
    acc = 0.0 + 0.0j
    mass = 0.0
    for m in range(-n_max, n_max + 1):
        expo = TWO_PI_I * (
            v * (m * ell) + u * (m * n) + tau * (m * m * (2.0 * n * ell + ell * ell) / 2.0 + m * c)
        )
        term = cmath.exp(expo)
        acc += -term if (m * ell) & 1 else term
        mass += abs(term) * (abs(expo) + 1.0)
    return acc, EPS * mass


def chi_w_atypical(params, label, u, v, tau, trunc=DEFAULT_TRUNC, q_shift=0.0):
    """(value, rounding bound) of the atypical character.  The prefactor
    theta1/eta^3 is the library's, so only the body differs from it."""
    body, bound = atypical_body(params, label.n_prime, label.ell_prime, u, v, tau, trunc, q_shift)
    pref = -1j * theta_eta_prefactor(u, tau, trunc)
    return pref * body, abs(pref) * bound


def _typical_labels(params, label):
    npr, epr = label.n_prime, label.e_prime
    n, ell = params.n, params.ell
    sign = -1.0 if math.floor(epr.real) & 1 else 1.0
    return npr, epr, n, ell, params.K, sign, n * epr + npr * ell + ell * epr


def chi_w_typical_sum(params, label, u, v, tau, trunc=DEFAULT_TRUNC):
    """(value, rounding bound) of the route="sum" typical character, with the
    library's prefactor and the direct label sum."""
    npr, epr, n, ell, K, sign, c = _typical_labels(params, label)
    lead = cmath.exp(TWO_PI_I * (v * epr + u * npr + tau * (npr * epr + epr * epr / 2.0)))
    body, bound = typical_body(params, c, u, v, tau, trunc)
    pref = 1j * sign * lead * theta_eta_prefactor(u, tau, trunc)
    return pref * body, abs(pref) * bound


def chi_w_typical_theta(params, label, u, v, tau, trunc=DEFAULT_TRUNC) -> complex:
    """The route="theta" typical character with the library's prefactor and
    the direct theta1 at ell^2 K tau."""
    npr, epr, n, ell, K, sign, c = _typical_labels(params, label)
    w = (ell - 1) / 2.0 + n * u + ell * v + tau * (c - n * ell - ell * ell / 2.0)
    phase = cmath.exp(
        TWO_PI_I
        * (
            v * (epr - ell / 2.0)
            + u * (npr - n / 2.0)
            + tau * (npr * epr + epr * epr / 2.0 - c / 2.0 + n * ell / 4.0 + ell * ell / 8.0)
        )
    )
    prefactor = -sign * cmath.exp(-PI_I * (ell - 1) / 2.0)
    return prefactor * theta_eta_prefactor(u, tau, trunc) * phase * theta1(w, ell * ell * K * tau, trunc)
