"""Characters of gl(1|1) and of its W-superalgebra extensions.

Atypical and typical families, their mutual relations (difference identity,
Appell-sum form, root-of-unity decompositions), elliptic shift laws, the
regularized characters, and the free-boson lattice oracle.

Labels may be complex (the continued "curve" labels); floors of complex
numbers are floors of the real part throughout.  The curve labels
(a_r(x), e_r(x)) = (a e0 + i(a+1)x, e0 - ix) come from one exact helper,
curve_e0, and every curve's Gaussian in x has the same drift
B = (a+1)u - v.  Every function here takes and returns scalars.

The public characters validate u, v and tau once and call private cores
(_chi_w_atypical, _chi_w_typical, _chi_lattice, _theta_eta) that take plain
complex numbers and call the kernel's cores; the identity checks below call
the cores too.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .domain import (
    DEFAULT_TRUNC,
    PI_I,
    TWO_PI_I,
    AlgebraParams,
    AtypicalWLabel,
    TruncationSpec,
    TypicalWLabel,
    as_complex,
    as_tau,
    floor_re,
    identity_report,
)
from .errors import InvalidParameter
from .kernel import (
    _eta,
    _lead_exp,
    _lerch_walk,
    _peak_index,
    _ratio_walk,
    _theta1,
    _theta3,
    gaussian_cutoff,
    require_pole_clearance,
)


def epsilon_fn(ell: int) -> Fraction:
    """The half-integer weight offset: +1/2, 0, -1/2 for positive, zero, negative."""
    if ell > 0:
        return Fraction(1, 2)
    if ell < 0:
        return Fraction(-1, 2)
    return Fraction(0)


def conformal_dim(n, e) -> complex:
    n = as_complex(n)
    e = as_complex(e)
    return n * e + e * e / 2.0


def theta_eta_prefactor(u, tau, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    return _theta_eta(as_complex(u), as_tau(tau), trunc)


def _theta_eta(u: complex, tau: complex, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    """theta1(u; tau) / eta(tau)^3 on validated arguments."""
    return _theta1(u, tau, trunc) / _eta(tau, trunc) ** 3


def chi_gl11_typical(n, e, u, v, tau, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    n = as_complex(n)
    e = as_complex(e)
    uu = as_complex(u)
    vv = as_complex(v)
    tt = as_tau(tau)
    sign = -1.0 if floor_re(e) & 1 else 1.0
    return (
        1j
        * sign
        * _lead_exp(TWO_PI_I * (vv * e + uu * n + tt * conformal_dim(n, e)))
        * _theta_eta(uu, tt, trunc)
    )


def chi_gl11_atypical(n, ell: int, u, v, tau, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    if not isinstance(ell, int):
        raise InvalidParameter("ell must be an integer")
    n = as_complex(n)
    uu = as_complex(u)
    vv = as_complex(v)
    tt = as_tau(tau)
    require_pole_clearance(uu, tt)
    eps = float(epsilon_fn(ell))
    # the lead y^ell z^{n+1/2} q^{h(n, ell)} and the case factor, one exponent
    expo = TWO_PI_I * (vv * ell + uu * (n + 0.5 - eps) + tt * (conformal_dim(n, ell) + ell * (0.5 - eps)))
    w = TWO_PI_I * (uu + ell * tt)  # z q^ell = e^w
    sign = 1.0 if ell & 1 else -1.0  # -(-1)^ell
    if w.real > 0.0:  # |z q^ell| > 1: 1/(1 - e^w) = -e^{-w} / (1 - e^{-w})
        expo, w, sign = expo - w, -w, -sign
    return sign * 1j * _lead_exp(expo) / (1.0 - cmath.exp(w)) * _theta_eta(uu, tt, trunc)


def _atypical_cutoff(
    params: AlgebraParams, n_prime: complex, u: complex, v: complex, tau: complex, trunc: TruncationSpec
) -> int:
    decay = math.pi * params.K * tau.imag
    growth = (
        math.pi * params.K * tau.imag
        + 2.0 * math.pi * (abs(v.imag) + (params.a + 1) * abs(u.imag))
        + math.pi * abs((tau * (2.0 * n_prime + 1.0)).imag)
        + 2.0 * math.pi * tau.imag
    )
    return gaussian_cutoff(decay, growth, trunc.tail_tol, trunc.max_terms)


def _atypical_body(
    params: AlgebraParams,
    n_prime: complex,
    ell_prime: int,
    u: complex,
    v: complex,
    tau: complex,
    trunc: TruncationSpec,
    q_shift: complex = 0.0,
) -> complex:
    """sum over j = m*ell + ell' of the defining series, with an optional
    additive shift of every q-exponent (used by the regularized character).

    The terms t_j / (1 - z q^j) with j >= 0 and those with j < 0 are two
    walks (kernel._lerch_walk), each outward from its largest numerator: per
    step the term ratios change by q^{K ell^2} and the pole factor by
    q^{+-ell}.  For j < 0 a term is written -t_j (z q^j)^{-1} / (1 - (z q^j)^{-1}),
    as aK writes its n < 0 terms, so that no numerator leaves the double range
    where |z q^j| is huge and the term is not.  A largest term or a sum
    beyond the double range raises RangeExceeded.
    """
    a, K, ell = params.a, params.K, params.ell
    n_max = _atypical_cutoff(params, n_prime, u, v, tau, trunc)
    j_lo = -((n_max + ell_prime) // ell)
    j_hi = (n_max - ell_prime) // ell
    m_split = -(ell_prime // ell)  # the lowest m with j >= 0
    half = n_prime + 0.5
    sign = -1.0 if ell & 1 else 1.0
    # |t_j| is largest near j = -(Im v + a Im u + Im(tau (2n'+1))/2) / (K Im tau),
    # and |t_j / (z q^j)| one step of 1/K above that
    j_peak = -(v.imag + a * u.imag + (tau * half).imag) / (K * tau.imag)
    acc = 0.0 + 0.0j
    for lo, hi, shift in ((max(j_lo, m_split), j_hi, 0), (j_lo, min(j_hi, m_split - 1), 1)):
        if lo > hi:
            continue
        m0 = _peak_index((j_peak + shift / K - ell_prime) / ell, lo, hi)
        j0 = m0 * ell + ell_prime
        h = half - shift
        lead = _lead_exp(
            TWO_PI_I * (v * j0 + u * (a * j0 + h) + tau * (j0 * (j0 * K / 2.0 + h) + q_shift)), j0
        )
        pole = TWO_PI_I * (u + j0 * tau)
        walked = _lerch_walk(
            -lead if j0 & 1 else lead,
            TWO_PI_I * (ell * (v + a * u) + tau * (ell * ((2 * j0 + ell) * K / 2.0 + h))),
            TWO_PI_I * (K * ell * ell) * tau,
            -pole if shift else pole,
            (-TWO_PI_I if shift else TWO_PI_I) * ell * tau,
            hi - m0,
            m0 - lo,
            sign,
        )
        acc += -walked if shift else walked
    return acc


def chi_w_atypical(
    params: AlgebraParams,
    label: AtypicalWLabel,
    u,
    v,
    tau,
    trunc: TruncationSpec = DEFAULT_TRUNC,
) -> complex:
    return _chi_w_atypical(params, label, as_complex(u), as_complex(v), as_tau(tau), trunc)


def _chi_w_atypical(
    params: AlgebraParams,
    label: AtypicalWLabel,
    u: complex,
    v: complex,
    tau: complex,
    trunc: TruncationSpec = DEFAULT_TRUNC,
) -> complex:
    """chi_w_atypical on validated arguments."""
    require_pole_clearance(u, tau)
    body = _atypical_body(params, complex(label.n_prime), label.ell_prime, u, v, tau, trunc)
    return -1j * _theta_eta(u, tau, trunc) * body


def chi_regularized(params: AlgebraParams, label: AtypicalWLabel, epsilon: float, u, v, tau) -> complex:
    """q^{eps n'^2} times the atypical character, with the regulator folded into
    each term's exponent so large labels neither overflow nor underflow."""
    if not float(epsilon) > 0.0:
        raise InvalidParameter("epsilon must be positive")
    uu = as_complex(u)
    vv = as_complex(v)
    tt = as_tau(tau)
    require_pole_clearance(uu, tt)
    n_prime = complex(label.n_prime)
    shift = float(epsilon) * n_prime ** 2
    body = _atypical_body(params, n_prime, label.ell_prime, uu, vv, tt, DEFAULT_TRUNC, q_shift=shift)
    return -1j * _theta_eta(uu, tt) * body


def _typical_cutoff(
    params: AlgebraParams, c: complex, u: complex, v: complex, tau: complex, trunc: TruncationSpec
) -> int:
    ell, n = params.ell, params.n
    decay = math.pi * ell * ell * params.K * tau.imag
    growth = 2.0 * math.pi * (ell * abs(v.imag) + n * abs(u.imag)) + 2.0 * math.pi * abs(
        (tau * c).imag
    )
    return gaussian_cutoff(decay, growth, trunc.tail_tol, trunc.max_terms)


def _typical_body_sum(
    params: AlgebraParams, c, u: complex, v: complex, tau: complex, trunc: TruncationSpec
) -> complex:
    """sum_m (-1)^{m ell} e^{2 pi i (m (ell v + n u + c tau) + m^2 (2 n ell + ell^2) tau / 2)},
    walked outward from its largest term; the ratios change by q^{2 n ell + ell^2}.
    A largest term beyond the double range raises RangeExceeded."""
    n, ell = params.n, params.ell
    n_max = _typical_cutoff(params, c, u, v, tau, trunc)
    quad = (2.0 * n * ell + ell * ell) / 2.0
    # |term| is largest near m = -Im(ell v + n u + c tau) / (2 quad Im tau)
    k = _peak_index(-(v * ell + u * n + tau * c).imag / (2.0 * quad * tau.imag), -n_max, n_max)
    lead = _lead_exp(TWO_PI_I * (v * (k * ell) + u * (k * n) + tau * (quad * k * k + c * k)), k)
    return _ratio_walk(
        -lead if (k * ell) & 1 else lead,
        TWO_PI_I * (v * ell + u * n + tau * (quad * (2 * k + 1) + c)),
        TWO_PI_I * (2.0 * quad) * tau,
        n_max - k,
        n_max + k,
        -1.0 if ell & 1 else 1.0,
    )


def chi_w_typical(
    params: AlgebraParams,
    label: TypicalWLabel,
    u,
    v,
    tau,
    trunc: TruncationSpec = DEFAULT_TRUNC,
    route: str = "sum",
) -> complex:
    return _chi_w_typical(params, label, as_complex(u), as_complex(v), as_tau(tau), trunc, route)


def _chi_w_typical(
    params: AlgebraParams,
    label: TypicalWLabel,
    uu: complex,
    vv: complex,
    tt: complex,
    trunc: TruncationSpec = DEFAULT_TRUNC,
    route: str = "sum",
) -> complex:
    """chi_w_typical on validated arguments."""
    n_prime = label.n_prime
    e_prime = label.e_prime
    n, ell, K = params.n, params.ell, params.K
    sign = -1.0 if floor_re(e_prime) & 1 else 1.0
    lead = _lead_exp(
        TWO_PI_I * (vv * e_prime + uu * n_prime + tt * (n_prime * e_prime + e_prime * e_prime / 2.0))
    )
    c = n * e_prime + n_prime * ell + ell * e_prime
    if route == "sum":
        body = _typical_body_sum(params, c, uu, vv, tt, trunc)
        return 1j * sign * lead * body * _theta_eta(uu, tt, trunc)
    if route == "theta":
        # resummation: body = theta3(ell*v + n*u + c*tau + ell/2; ell^2 K tau),
        # then the half-period identity turns theta3 into theta1.
        w = (ell - 1) / 2.0 + n * uu + ell * vv + tt * (c - n * ell - ell * ell / 2.0)
        prefactor = -sign * cmath.exp(-PI_I * (ell - 1) / 2.0)
        return (
            prefactor
            * _theta_eta(uu, tt, trunc)
            * cmath.exp(
                TWO_PI_I
                * (
                    vv * (e_prime - ell / 2.0)
                    + uu * (n_prime - n / 2.0)
                    + tt
                    * (
                        n_prime * e_prime
                        + e_prime * e_prime / 2.0
                        - c / 2.0
                        + n * ell / 4.0
                        + ell * ell / 8.0
                    )
                )
            )
            * _theta1(w, ell * ell * K * tt, trunc)
        )
    raise InvalidParameter("unknown route %r" % (route,))


def curve_e0(params: AlgebraParams, r) -> tuple:
    """e_r(0) = (a - r)/K + 1/2 as (num, den) in integers, for rational r.

    The curve labels are a_r(x) = a e0 + i(a+1)x and e_r(x) = e0 - ix."""
    rf = Fraction(r)
    d = rf.denominator
    return 2 * (params.a * d - rf.numerator) + params.K * d, 2 * params.K * d


def curve_prefactor(params: AlgebraParams, r, u: complex, v: complex, tau: complex) -> complex:
    """x-free factor of the typical character along the curve
    (a_r(x), e_r(x)); the whole label sum lives here because the sum's
    exponent is x-free once n = a*ell is used: its c is ell K e0."""
    num, den = curve_e0(params, r)
    e0 = num / den
    n0 = params.a * e0
    sign = -1.0 if (num // den) & 1 else 1.0
    body = _typical_body_sum(params, params.ell * params.K * e0, u, v, tau, DEFAULT_TRUNC)
    lead = _lead_exp(TWO_PI_I * (v * e0 + u * n0 + tau * (n0 * e0 + e0 * e0 / 2.0)))
    return 1j * sign * lead * body * _theta_eta(u, tau)


def curve_drift(params: AlgebraParams, u: complex, v: complex) -> complex:
    """B in the curve Gaussian e^{-2 pi x B + pi i tau K x^2}, the same for
    every curve: as n0 = a e0, the tau part tau (a e0 - n0) vanishes."""
    return (params.a + 1) * u - v


def chi_w_typical_curve(params: AlgebraParams, r, x, u, v, tau) -> complex:
    """Typical character along the continued-label curve (a_r(x), e_r(x)).

    The only per-x work is one exponential, since the label sum collapses
    into the x-free curve_prefactor.  The result is entire in x: the parity
    sign is locked to the real-axis value.
    """
    uu = as_complex(u)
    vv = as_complex(v)
    tt = as_tau(tau)
    xx = as_complex(x)
    gauss = cmath.exp(-2.0 * math.pi * xx * curve_drift(params, uu, vv) + PI_I * tt * params.K * xx * xx)
    return curve_prefactor(params, r, uu, vv, tt) * gauss


def chi_via_appell(params: AlgebraParams, n_prime, u, v, tau) -> complex:
    """chi of the (n', 0) atypical in the ell = 1 family through the level-K
    Appell sum: -i (theta1/eta^3) z^{n'-a} A_{2a+1}(u, v+au+tau(n'-a))."""
    if params.ell != 1:
        raise InvalidParameter("Appell form needs the ell = 1 family")
    from .appell import _aK

    a = params.a
    uu = as_complex(u)
    vv = as_complex(v)
    tt = as_tau(tau)
    npr = as_complex(n_prime)
    return (
        -1j
        * _theta_eta(uu, tt)
        * cmath.exp(TWO_PI_I * uu * (npr - a))
        * _aK(2 * a + 1, uu, vv + a * uu + tt * (npr - a), tt)
    )


def elliptic_shift_atypical(
    params: AlgebraParams,
    label: AtypicalWLabel,
    shift: str,
    u,
    v,
    tau,
    alpha: float = 0.0,
) -> dict:
    uu = as_complex(u)
    vv = as_complex(v)
    tt = as_tau(tau)
    a = params.a
    npr, lpr = label.n_prime, label.ell_prime
    if shift == "u+1":
        lhs = _chi_w_atypical(params, label, uu + 1.0, vv, tt)
        rhs = cmath.exp(TWO_PI_I * (a * lpr + npr)) * _chi_w_atypical(params, label, uu, vv, tt)
    elif shift == "v+1":
        lhs = _chi_w_atypical(params, label, uu, vv + 1.0, tt)
        rhs = _chi_w_atypical(params, label, uu, vv, tt)
    elif shift == "u+tau":
        lhs = _chi_w_atypical(params, label, uu + tt, vv, tt)
        rhs = cmath.exp(-TWO_PI_I * vv) * _chi_w_atypical(
            params, AtypicalWLabel(npr - a - 1.0, lpr + 1), uu, vv, tt
        )
    elif shift == "v+tau":
        lhs = _chi_w_atypical(params, label, uu, vv + tt, tt)
        rhs = cmath.exp(-TWO_PI_I * uu) * _chi_w_atypical(
            params, AtypicalWLabel(npr + 1.0, lpr), uu, vv, tt
        )
    elif shift == "v+alpha*tau":
        lhs = _chi_w_atypical(params, label, uu, vv + alpha * tt, tt)
        rhs = cmath.exp(-TWO_PI_I * uu * alpha) * _chi_w_atypical(
            params, AtypicalWLabel(npr + alpha, lpr), uu, vv, tt
        )
    else:
        raise InvalidParameter("unknown shift %r" % (shift,))
    return identity_report("elliptic_atypical_" + shift, lhs, rhs, shift=shift, alpha=alpha)


def elliptic_shift_typical(
    params: AlgebraParams,
    label: TypicalWLabel,
    shift: str,
    u,
    v,
    tau,
    alpha: float = 0.0,
) -> dict:
    uu = as_complex(u)
    vv = as_complex(v)
    tt = as_tau(tau)
    npr, epr = label.n_prime, label.e_prime
    if shift == "u+1":
        lhs = _chi_w_typical(params, label, uu + 1.0, vv, tt)
        rhs = cmath.exp(TWO_PI_I * (npr - 0.5)) * _chi_w_typical(params, label, uu, vv, tt)
    elif shift == "v+1":
        lhs = _chi_w_typical(params, label, uu, vv + 1.0, tt)
        rhs = cmath.exp(TWO_PI_I * epr) * _chi_w_typical(params, label, uu, vv, tt)
    elif shift == "u+tau":
        lhs = _chi_w_typical(params, label, uu + tt, vv, tt)
        rhs = cmath.exp(-TWO_PI_I * vv) * _chi_w_typical(
            params, TypicalWLabel(npr - 1.0, epr + 1.0), uu, vv, tt
        )
    elif shift == "v+tau":
        lhs = _chi_w_typical(params, label, uu, vv + tt, tt)
        rhs = cmath.exp(-TWO_PI_I * uu) * _chi_w_typical(
            params, TypicalWLabel(npr + 1.0, epr), uu, vv, tt
        )
    elif shift == "v+alpha*tau":
        lhs = _chi_w_typical(params, label, uu, vv + alpha * tt, tt)
        rhs = cmath.exp(-TWO_PI_I * uu * alpha) * _chi_w_typical(
            params, TypicalWLabel(npr + alpha, epr), uu, vv, tt
        )
    else:
        raise InvalidParameter("unknown shift %r" % (shift,))
    return identity_report("elliptic_typical_" + shift, lhs, rhs, shift=shift, alpha=alpha)


def verify_atyp_typ_difference(params: AlgebraParams, label: AtypicalWLabel, u, v, tau) -> dict:
    """chi_A(n'+1, l') - chi_A(n', l') = chi_T(n' + l'a + 1/2, l')."""
    uu = as_complex(u)
    vv = as_complex(v)
    tt = as_tau(tau)
    npr, lpr = label.n_prime, label.ell_prime
    lhs = _chi_w_atypical(params, AtypicalWLabel(npr + 1.0, lpr), uu, vv, tt) - _chi_w_atypical(
        params, label, uu, vv, tt
    )
    rhs = _chi_w_typical(params, TypicalWLabel(npr + lpr * params.a + 0.5, complex(lpr)), uu, vv, tt)
    return identity_report("atyp_typ_difference", lhs, rhs)


def verify_typical_periodicity(params: AlgebraParams, label: TypicalWLabel, u, v, tau) -> dict:
    uu = as_complex(u)
    vv = as_complex(v)
    tt = as_tau(tau)
    shifted = TypicalWLabel(label.n_prime + params.n, label.e_prime + params.ell)
    lhs = _chi_w_typical(params, label, uu, vv, tt)
    rhs = _chi_w_typical(params, shifted, uu, vv, tt)
    return identity_report("typical_periodicity", lhs, rhs)


def verify_atypical_periodicity(params: AlgebraParams, label: AtypicalWLabel, u, v, tau) -> dict:
    uu = as_complex(u)
    vv = as_complex(v)
    tt = as_tau(tau)
    shifted = AtypicalWLabel(label.n_prime, label.ell_prime + params.ell)
    lhs = _chi_w_atypical(params, label, uu, vv, tt)
    rhs = _chi_w_atypical(params, shifted, uu, vv, tt)
    return identity_report("atypical_periodicity", lhs, rhs)


def _unity_window(params: AlgebraParams) -> range:
    return range(params.n, params.n + params.ell)


def chiunity_decompose(
    params: AlgebraParams,
    direction: str,
    index: int,
    u,
    v,
    tau,
    n_prime=0.0,
    e_prime=0.0,
) -> dict:
    """The four root-of-unity decompositions between the (n, ell) and the
    (a, 1) families; `index` is the free label t (or s for typ-bwd)."""
    ell, a = params.ell, params.a
    params1 = AlgebraParams(a, 1)
    xi = cmath.exp(TWO_PI_I / ell)
    uu = as_complex(u)
    vv = as_complex(v)
    tt = as_tau(tau)
    window = _unity_window(params)
    t = index
    if direction == "atyp-fwd":
        lhs = _chi_w_atypical(params, AtypicalWLabel(as_complex(n_prime), t), uu, vv, tt)
        rhs = sum(
            xi ** (-t * s) * _chi_w_atypical(params1, AtypicalWLabel(as_complex(n_prime), 0), uu, vv + s / ell, tt)
            for s in window
        ) / ell
    elif direction == "atyp-bwd":
        lhs = _chi_w_atypical(params1, AtypicalWLabel(as_complex(n_prime), 0), uu, vv + t / ell, tt)
        rhs = sum(
            xi ** (t * s) * _chi_w_atypical(params, AtypicalWLabel(as_complex(n_prime), s), uu, vv, tt)
            for s in window
        )
    elif direction == "typ-fwd":
        npr = as_complex(n_prime)
        epr = as_complex(e_prime)
        lhs = _chi_w_typical(params, TypicalWLabel(npr + t * a, epr + t), uu, vv, tt)
        rhs = sum(
            xi ** (-s * t)
            * cmath.exp(-TWO_PI_I * epr * s / ell)
            * _chi_w_typical(params1, TypicalWLabel(npr, epr), uu, vv + s / ell, tt)
            for s in window
        ) / ell
    elif direction == "typ-bwd":
        npr = as_complex(n_prime)
        epr = as_complex(e_prime)
        s = index
        lhs = _chi_w_typical(params1, TypicalWLabel(npr, epr), uu, vv + s / ell, tt)
        rhs = cmath.exp(TWO_PI_I * epr * s / ell) * sum(
            xi ** (s * t2) * _chi_w_typical(params, TypicalWLabel(npr + t2 * a, epr + t2), uu, vv, tt)
            for t2 in window
        )
    else:
        raise InvalidParameter("unknown direction %r" % (direction,))
    return identity_report("chiunity_" + direction, lhs, rhs, index=index)


def _check_alpha_sq(alpha_sq: int) -> None:
    if not isinstance(alpha_sq, int) or alpha_sq < 1:
        raise InvalidParameter("alpha_sq must be a positive integer, got %r" % (alpha_sq,))


def chi_lattice(alpha_sq: int, n: int, u, tau, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    """Free-boson lattice character z^{n/alpha} q^{n^2/(2 alpha^2)}
    theta3(alpha u + n tau; alpha^2 tau)/eta."""
    _check_alpha_sq(alpha_sq)
    if not isinstance(n, int):
        raise InvalidParameter("n must be an integer, got %r" % (n,))
    return _chi_lattice(alpha_sq, n, as_complex(u), as_tau(tau), trunc)


def _chi_lattice(alpha_sq: int, n: int, u: complex, tau: complex, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    """chi_lattice on validated arguments."""
    alpha = math.sqrt(alpha_sq)
    return (
        _lead_exp(TWO_PI_I * (u * n / alpha + tau * n * n / (2.0 * alpha_sq)))
        * _theta3(alpha * u + n * tau, alpha_sq * tau, trunc)
        / _eta(tau, trunc)
    )


def lattice_s_check(alpha_sq: int, u, tau) -> dict:
    """S-law of the lattice characters for every residue n."""
    _check_alpha_sq(alpha_sq)
    uu = as_complex(u)
    tt = as_tau(tau)
    worst = -1.0
    alpha = math.sqrt(alpha_sq)
    for n in range(alpha_sq):
        lhs = _chi_lattice(alpha_sq, n, uu / tt, -1.0 / tt)
        acc = 0.0 + 0.0j
        for l in range(alpha_sq):
            acc += cmath.exp(-TWO_PI_I * n * l / alpha_sq) * _chi_lattice(alpha_sq, l, uu, tt)
        rhs = cmath.exp(PI_I * uu * uu / tt) / alpha * acc
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    return {"check": "lattice_s_law", "alpha_sq": alpha_sq, "rel_err": worst, "abs_err": worst}


def lattice_structure_constant(alpha_sq: int, a: int, b: int, c: int) -> int:
    """Verlinde number from the lattice S-matrix: the root-of-unity character
    sum (1/alpha^2) sum_l e^{-2 pi i l (a + b - c)/alpha^2}, rounded to the
    nearest integer.  The lattice.structure-constants check compares it with
    the Kronecker form delta_{a+b = c mod alpha^2}."""
    _check_alpha_sq(alpha_sq)
    acc = 0.0 + 0.0j
    for l in range(alpha_sq):
        acc += cmath.exp(-TWO_PI_I * l * (a + b - c) / alpha_sq)
    return round(acc.real / alpha_sq)
