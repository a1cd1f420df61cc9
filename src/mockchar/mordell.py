"""Mordell-type line integrals h and h_s and their shift identity.

h(u; tau)   = int_R e^{pi i tau x^2 - 2 pi u x} / cosh(pi x) dx
h_s(u; tau) = int_R q^{x^2/2} z^{ix} / cosh(pi(x - is)) dx   for 0 <= |s| <= 1

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

The integrands built here (h and the contour oracle) are numpy expressions;
each builder imports numpy when it runs.
"""

from __future__ import annotations

import cmath
import math

from .domain import (
    DEFAULT_QUAD,
    QuadratureSpec,
    as_complex,
    as_tau,
    contour_depth,
    identity_report,
)
from .errors import InvalidParameter
from .kernel import QuadratureResult, _pole_line, integrate_line

_TWO_PI = 2.0 * math.pi
_PI_I = 1j * math.pi


def h_window(u: complex, tau: complex) -> float:
    """Integration half-width covering the displaced Gaussian peak."""
    return 8.0 + (abs(u.real) + abs(u.imag)) / tau.imag


def _quad_for(u: complex, tau: complex, quad: QuadratureSpec | None) -> QuadratureSpec:
    base = DEFAULT_QUAD if quad is None else quad
    return QuadratureSpec(
        half_width=max(base.half_width, h_window(u, tau)),
        nodes=base.nodes,
        tail_tol=base.tail_tol,
        max_nodes=base.max_nodes,
    )


def mordell_h_quad(u, tau, quad: QuadratureSpec | None = None) -> QuadratureResult:
    import numpy as np

    uu = as_complex(u)
    tt = as_tau(tau)

    def integrand(x):
        return np.exp(_PI_I * tt * x * x - _TWO_PI * uu * x) / np.cosh(math.pi * x)

    return integrate_line(integrand, _quad_for(uu, tt, quad))


def mordell_h(u, tau) -> complex:
    """h(u; tau), with u stepped by +-tau (at most 64 times) to |Im u| <= Im tau/2
    through h(u) + e^{-2 pi i u - pi i tau} h(u + tau) = 2 e^{-pi i u - pi i tau/4}:
    farther out the quadrature's terms cancel up to 1e7 times |h|."""
    uu, tt = as_complex(u), as_tau(tau)
    a, b = 0.0j, 1.0 + 0.0j  # h(u) = a + b h(uu) as uu steps
    for _ in range(64):
        if 2.0 * abs(uu.imag) <= tt.imag:
            break
        step = -1.0 if uu.imag > 0.0 else 1.0
        a += b * 2.0 * cmath.exp(-step * _PI_I * uu - _PI_I * tt / 4.0)
        b *= -cmath.exp(-step * 2.0 * _PI_I * uu - _PI_I * tt)
        uu += step * tt
    return a + b * mordell_h_quad(uu, tt).value


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
    s = float(s)
    s_c = complex(0.0, s)

    def integrand(t):
        x = t + s_c
        return np.exp(_PI_I * tt * x * x - _TWO_PI * uu * x) / np.cosh(math.pi * t)

    return integrate_line(integrand, _quad_for(uu, tt, None)).value


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
