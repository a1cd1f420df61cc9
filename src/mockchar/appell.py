"""Level-K Appell-Lerch sums, their level-reduction relations, and the
right-hand sides of their elliptic and modular transformation laws.

Conventions (fixed once, used everywhere): z^{K/2} means e^{pi i K u}, so all
fractional powers are single-valued in u.  Two of the printed transformation
coefficients are inconsistent with the defining series; the corrected values
are the defaults and the printed ones remain available as variants for the
arbitration tests.
"""

from __future__ import annotations

import cmath
import math

from .domain import (
    DEFAULT_TRUNC,
    PI_I,
    TWO_PI_I,
    TruncationSpec,
    as_complex,
    as_tau,
)
from .errors import InvalidParameter
from .kernel import _lead_exp, _lerch_walk, _peak_index, _theta1, gaussian_cutoff, require_pole_clearance
from .mordell import mordell_h


def _check_level(level: int) -> None:
    if not isinstance(level, int) or level < 1:
        raise InvalidParameter("level must be a positive integer, got %r" % (level,))


def appell_cutoff(level: int, u: complex, v: complex, tau: complex, trunc: TruncationSpec) -> int:
    # n -> +inf: |q^{K n(n+1)/2} y^n| ; n -> -inf gains an extra |q^n / z|
    decay = math.pi * level * tau.imag
    growth = (
        math.pi * level * tau.imag
        + 2.0 * math.pi * (abs(u.imag) + abs(v.imag))
        + 2.0 * math.pi * tau.imag
    )
    return gaussian_cutoff(decay, growth, trunc.tail_tol, trunc.max_terms)


def aK(level: int, u, v, tau, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    """Level-`level` Appell-Lerch sum z^{K/2} sum_n (-1)^{Kn} q^{Kn(n+1)/2} y^n / (1-zq^n).

    The terms with n = -m < 0 are summed as -b_m z^{-1} / (1 - q^m/z) with
    b_m = (-1)^{Km} q^{Km(m-1)/2+m} y^{-m}, so that no factor overflows where
    q^{-m} is huge and its numerator tiny.  Each side is walked outward from its
    largest numerator (kernel._lerch_walk): the term ratios change by q^K per
    step and the pole factors z q^n and q^m/z by q.  A largest numerator or a
    sum beyond the double range raises RangeExceeded.
    """
    _check_level(level)
    return _aK(level, as_complex(u), as_complex(v), as_tau(tau), trunc)


def _aK(level: int, uu: complex, vv: complex, tt: complex, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    """aK on validated arguments; it checks only the pole clearance of uu."""
    require_pole_clearance(uu, tt)
    n_max = appell_cutoff(level, uu, vv, tt, trunc)
    sign = -1.0 if level & 1 else 1.0
    step = TWO_PI_I * level * tt
    q = TWO_PI_I * tt
    # n >= 0: (-1)^{Kn} q^{Kn(n+1)/2} y^n is largest near n = -Im v/(K Im tau) - 1/2
    k = _peak_index(-vv.imag / (level * tt.imag) - 0.5, 0, n_max)
    lead = _lead_exp(TWO_PI_I * (tt * (level * k * (k + 1) / 2.0) + vv * k), k)
    acc = _lerch_walk(
        -lead if (level * k) & 1 else lead,
        TWO_PI_I * (level * (k + 1) * tt + vv),
        step,
        TWO_PI_I * (uu + k * tt),
        q,
        n_max - k,
        k,
        sign,
    )
    # n = -m < 0: -b_m z^{-1} is largest near m = (Im v/Im tau - 1)/K + 1/2
    k = _peak_index((vv.imag / tt.imag - 1.0) / level + 0.5, 1, n_max)
    lead = _lead_exp(TWO_PI_I * (tt * (level * k * (k - 1) / 2.0 + k) - vv * k - uu), -k)
    acc -= _lerch_walk(
        -lead if (level * k) & 1 else lead,
        TWO_PI_I * ((level * k + 1) * tt - vv),
        step,
        TWO_PI_I * (k * tt - uu),
        q,
        n_max - k,
        k - 1,
        sign,
    )
    return cmath.exp(PI_I * level * uu) * acc


def a1(u, v, tau, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    return aK(1, u, v, tau, trunc)


def aK_via_rel1(level: int, u, v, tau) -> complex:
    """A_K as sum_{m<K} z^m A_1(Ku, v + m*tau + (K-1)/2; K*tau)."""
    _check_level(level)
    uu = as_complex(u)
    vv = as_complex(v)
    tt = as_tau(tau)
    acc = 0.0 + 0.0j
    for m in range(level):
        acc += cmath.exp(TWO_PI_I * uu * m) * _aK(
            1, level * uu, vv + m * tt + (level - 1) / 2.0, level * tt
        )
    return acc


def aK_via_rel2(level: int, u, v, tau) -> complex:
    """A_K as K^{-1} z^{(K-1)/2} sum_{m<K} A_1(u, v/K + m/K + tau(K-1)/(2K); tau/K)."""
    _check_level(level)
    uu = as_complex(u)
    vv = as_complex(v)
    tt = as_tau(tau)
    scaled = DEFAULT_TRUNC.scaled(math.sqrt(level))  # nome |q|^{1/K} decays slower
    acc = 0.0 + 0.0j
    for m in range(level):
        acc += _aK(
            1,
            uu,
            vv / level + m / level + tt * (level - 1) / (2.0 * level),
            tt / level,
            scaled,
        )
    return acc * cmath.exp(PI_I * uu * (level - 1)) / level


def aK_tau_plus_one(level: int, u, v, tau) -> complex:
    """LHS of the T-law: A_K at tau + 1 (the law states it equals A_K at tau)."""
    tt = as_tau(tau) + 1.0
    _check_level(level)
    return _aK(level, as_complex(u), as_complex(v), tt)


def aK_elliptic_rhs(
    level: int,
    which: str,
    u,
    v,
    tau,
    coefficient_variant: str = "corrected",
) -> complex:
    """RHS of the four elliptic shift laws for A_K.

    `which` is one of "u+1", "v+1", "u+tau", "v+tau".  The theta-term
    coefficients of the two tau-shifts admit a "printed" and a "corrected"
    variant; these differ for even level and the arbitration test pins the
    corrected one.
    """
    _check_level(level)
    if coefficient_variant not in ("corrected", "printed"):
        raise InvalidParameter("unknown coefficient_variant %r" % (coefficient_variant,))
    uu = as_complex(u)
    vv = as_complex(v)
    tt = as_tau(tau)
    base = _aK(level, uu, vv, tt)
    sign_K = -1.0 if level & 1 else 1.0
    if which == "u+1":
        return sign_K * base
    if which == "v+1":
        return base
    if which == "u+tau":
        main = (
            sign_K
            * cmath.exp(TWO_PI_I * (level * uu - vv) + PI_I * level * tt)
            * base
        )
        if coefficient_variant == "corrected":
            coeff = 1j ** (-level)
        else:
            coeff = -(1j**level)
        theta_sum = 0.0 + 0.0j
        for m in range(level):
            theta_sum += cmath.exp(TWO_PI_I * m * uu + PI_I * m * tt) * _theta1(
                vv + m * tt + (level + 1) / 2.0, level * tt
            )
        extra = (
            coeff
            * cmath.exp(PI_I * (level * uu - vv) + PI_I * tt * 3.0 * level / 4.0)
            * theta_sum
        )
        return main + extra
    if which == "v+tau":
        main = cmath.exp(-TWO_PI_I * uu) * base
        if coefficient_variant == "corrected":
            coeff = -(1j ** (-level))
        else:
            coeff = 1j**level
        extra = (
            coeff
            * cmath.exp(PI_I * (uu * (level - 2) - vv) - PI_I * tt * level / 4.0)
            * _theta1(vv + (level + 1) / 2.0, level * tt)
        )
        return main + extra
    raise InvalidParameter("unknown shift %r" % (which,))


def aK_s_transform_rhs(
    level: int,
    u,
    v,
    tau,
    variant: str = "AKS",
    sign_variant: str = "corrected",
) -> complex:
    """RHS of the S-transformation of A_K, in either stated form.

    variant "AKS" uses level-(1/K) theta/Mordell data, "AKS2" level-K data.
    The sign of the Mordell term: "printed" keeps +i/2, "corrected" uses -i/2,
    which is what the defining series satisfy (checked by the arbitration
    test; the printed sign contradicts the series already at level one).
    """
    _check_level(level)
    if variant not in ("AKS", "AKS2"):
        raise InvalidParameter("unknown variant %r" % (variant,))
    if sign_variant not in ("corrected", "printed"):
        raise InvalidParameter("unknown sign_variant %r" % (sign_variant,))
    uu = as_complex(u)
    vv = as_complex(v)
    tt = as_tau(tau)
    sign = -1.0 if sign_variant == "corrected" else 1.0
    base = _aK(level, uu, vv, tt)
    prefactor = tt * cmath.exp(-PI_I * (level * uu * uu - 2.0 * vv * uu) / tt)
    if variant == "AKS":
        scaled = DEFAULT_TRUNC.scaled(math.sqrt(level))
        acc = 0.0 + 0.0j
        off = (level - 1) * tt / (2.0 * level)
        for m in range(level):
            theta_arg = off + vv / level - m / level
            acc += _theta1(theta_arg, tt / level, scaled) * mordell_h(
                uu - off - vv / level + m / level, tt / level
            )
        extra = sign * (1j / (2.0 * level)) * cmath.exp(PI_I * uu * (level - 1)) * acc
    else:
        acc = 0.0 + 0.0j
        for m in range(level):
            acc += cmath.exp(TWO_PI_I * m * uu) * _theta1(
                vv + m * tt - (level - 1) / 2.0, level * tt
            ) * mordell_h(level * uu - vv - m * tt + (level - 1) / 2.0, level * tt)
        extra = sign * 0.5j * acc
    return prefactor * (base + extra)
