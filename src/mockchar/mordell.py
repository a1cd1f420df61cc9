"""Mordell-type integrals h and h_s and their shift identity.

h(u; tau)   = int_R e^{pi i tau x^2 - 2 pi u x} / cosh(pi x) dx
h_s(u; tau) = int_R q^{x^2/2} z^{ix} / cosh(pi(x - is)) dx   for 0 <= |s| <= 1

h is taken in closed form (Zwegers, thesis, Utrecht 2002, ch. 1):
h(u; tau) = R(u; tau) + (-i tau)^{-1/2} e^{pi i u^2/tau} R(u/tau; -1/tau),
with R a series of erfc-weighted Gaussians summed to a tail tolerance, so h
needs no quadrature.

The h_s kernel has its poles at x = i(s + k + 1/2), k in Z, so one of them
lies within 1/2 of the real axis and, at s near +-1/2, next to it.  Since
cosh(pi(x - is)) = i sinh(pi(x - i(s + 1/2))), h_s is one kernel line
integral (kernel._pole_line), which takes that nearest pole by one rule: on R
as the principal value plus the half-residue, within a Gaussian width of R by
subtracting its principal part, and farther out as it is.

At s = +-1/2 that pole sits on the real axis at x = 0, and h_s is taken on R
passing below it: the principal value on R plus sigma times the half-residue,
with sigma = -1.  An explicit eps instead takes the line R - i*eps, eps in
(0, 1), mapped onto R, where the pole is eps away and is subtracted; by Cauchy
it gives the same value, and it is the independent reference of the default
route.

Only the quadratures, h_s and the contour oracle, load numpy: their
integrands are numpy expressions, and each builder imports numpy when it runs.
"""

from __future__ import annotations

import cmath
import math

from .domain import (DEFAULT_QUAD, DEFAULT_TRUNC, QuadratureSpec, TruncationSpec, as_complex, as_tau,
                     contour_depth, identity_report)
from .errors import InvalidParameter, RangeExceeded, TailBoundExceeded
from .kernel import QuadratureResult, _pole_line, integrate_line

_TWO_PI = 2.0 * math.pi
_PI_I = 1j * math.pi
# the largest -ln(tol) that R honours: e^{pi y reach^2} must stay a double
_MAX_TAIL_LOG = 700.0


def h_window(u: complex, tau: complex) -> float:
    """Integration half-width covering the displaced Gaussian peak."""
    return 8.0 + (abs(u.real) + abs(u.imag)) / tau.imag


def _zwegers_r(u: complex, tau: complex, lead: complex, trunc: TruncationSpec) -> complex:
    """e^lead R(u; tau), R(u; tau) = sum_{nu in 1/2 + Z} [sgn(nu) - erf((nu + a) sqrt(2 pi y))]
    (-1)^{nu - 1/2} e^{-pi i nu^2 tau - 2 pi i nu u}, y = Im tau, a = Im u / y.

    The bracket is erfc(x) for nu > 0 and -erfc(-x) for nu < 0, with
    x = (nu + a) sqrt(2 pi y), so it keeps its digits where it is small.  A
    term's size is e^{pi y((nu + a)^2 - a^2)} times its bracket.  Between 0 and
    -a the bracket lies in [1, 2] and the term is at most 2.  Beyond them the
    bracket is an erfc tail, and the term is below e^{-pi y((nu + a)^2 + a^2)}.
    So the sum runs from 0 and -a out to where pi y (nu + a)^2 reaches
    -ln(tail_tol).  Farther out erfc underflows while the exponential
    overflows, and the term would be inf * 0.  lead joins every term's
    exponent, where the terms' e^{-pi y a^2} offsets it: exponentiated on its
    own it can overflow while e^lead R fits in a double.
    """
    y = tau.imag
    a = u.imag / y
    reach = math.sqrt(min(-math.log(trunc.tail_tol), _MAX_TAIL_LOG) / (math.pi * y))
    lo, hi = min(-a - reach, 0.0), max(-a + reach, 0.0)
    if not hi - lo <= max(trunc.max_terms, 4096):
        raise TailBoundExceeded("R needs %.3g terms at Im tau = %g" % (hi - lo, y))
    scale = math.sqrt(_TWO_PI * y)
    acc = 0.0j
    for k in range(math.ceil(lo - 0.5), math.floor(hi - 0.5) + 1):
        nu = k + 0.5
        x = (nu + a) * scale
        term = (math.erfc(x) if k >= 0 else -math.erfc(-x)) * cmath.exp(lead - _PI_I * nu * (nu * tau + 2.0 * u))
        acc += -term if k & 1 else term
    return acc


def mordell_h(u, tau, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    """h(u; tau) = R(u; tau) + (-i tau)^{-1/2} e^{pi i u^2/tau} R(u/tau; -1/tau),
    each R summed to trunc.tail_tol."""
    uu, tt = as_complex(u), as_tau(tau)
    try:
        return _zwegers_r(uu, tt, 0.0, trunc) + _zwegers_r(
            uu / tt, -1.0 / tt, _PI_I * uu * uu / tt, trunc) / cmath.sqrt(-1j * tt)
    except OverflowError:
        raise RangeExceeded("h(u; tau) leaves the double range") from None


def mordell_h_s_quad(
    s: float,
    u,
    tau,
    tail_tol: float = DEFAULT_QUAD.tail_tol,
    eps: float | None = None,
) -> QuadratureResult:
    """h_s with its quadrature error and node count; tail_tol is the
    trapezoid's refinement tolerance.  At |s| = 1/2 the contour passes below
    the pole at 0: on R by default, or along R - i*eps for an eps in (0, 1)."""
    if isinstance(s, complex):
        if s.imag != 0.0:
            raise InvalidParameter("s must be real, got %r" % (s,))
        s = s.real
    s = float(s)
    if abs(s) > 1.0:
        raise InvalidParameter("|s| must be at most 1, got %g" % s)
    uu = as_complex(u)
    tt = as_tau(tau)
    # cosh(pi(x - is)) = i sinh(pi(x - i(s + 1/2))), so h_s is -i times the
    # kernel line integral with p = s + 1/2, passing below a pole on R
    alpha, beta, p, const = _PI_I * tt, -_TWO_PI * uu, s + 0.5, -1j
    if eps is not None and abs(s) == 0.5:
        # x -> x - i eps maps R - i eps onto R
        d = contour_depth(eps)
        const *= cmath.exp(-alpha * d * d - 1j * beta * d)
        beta, p = beta - 2j * alpha * d, p + d
    return _pole_line(alpha, const, beta, p, -1.0, tail_tol)


def mordell_h_s(s, u, tau, eps: float | None = None) -> complex:
    return mordell_h_s_quad(s, u, tau, eps=eps).value


def mordell_h_contour(s: float, u, tau) -> complex:
    """The h_s integrand taken over the shifted line R + is (used as an oracle)."""
    import numpy as np

    uu = as_complex(u)
    tt = as_tau(tau)
    s_c = complex(0.0, float(s))

    def integrand(t):
        x = t + s_c
        return np.exp(_PI_I * tt * x * x - _TWO_PI * uu * x) / np.cosh(math.pi * t)

    return integrate_line(integrand, QuadratureSpec(half_width=h_window(uu, tt))).value


def verify_mordell_shift(s: float, u, tau) -> dict:
    """Check h(u + s*tau) = q^{s^2/2} z^s h_s(u) on -1/2 <= s < 1/2."""
    if not -0.5 <= float(s) < 0.5:
        raise InvalidParameter("shift identity needs -1/2 <= s < 1/2, got %g" % s)
    uu = as_complex(u)
    tt = as_tau(tau)
    lhs = mordell_h(uu + s * tt, tt)
    prefactor = cmath.exp(_PI_I * tt * s * s + 2j * math.pi * uu * s)
    rhs = prefactor * mordell_h_s(s, uu, tt)
    return identity_report("mordell_shift", lhs, rhs, s=float(s))


def verify_h1_reflection(u, tau) -> dict:
    """Check h_1(u) = -h(u)."""
    lhs = mordell_h_s(1.0, u, tau)
    rhs = -mordell_h(u, tau)
    return identity_report("h1_reflection", lhs, rhs)


def verify_contour_identity(s: float, u, tau) -> dict:
    """Check int_{R+is} = q^{-s^2/2} z^{-s} h(u + s*tau)."""
    uu = as_complex(u)
    tt = as_tau(tau)
    lhs = mordell_h_contour(s, uu, tt)
    rhs = cmath.exp(-_PI_I * tt * s * s - 2j * math.pi * uu * s) * mordell_h(uu + s * tt, tt)
    return identity_report("contour_identity", lhs, rhs)
