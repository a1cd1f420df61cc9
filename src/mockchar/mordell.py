"""Mordell-type line integrals h and h_s and their shift identity.

h(u; tau)   = int_R e^{pi i tau x^2 - 2 pi u x} / cosh(pi x) dx
h_s(u; tau) = int_R q^{x^2/2} z^{ix} / cosh(pi(x - is)) dx   for 0 <= |s| <= 1

At s = +-1/2 the integrand has a pole on the real axis, and its other poles
lie on iZ as well; the contour drops to R - i*eps.  By default eps is
CONTOUR_EPS = 1/2, midway to the next pole, where the trapezoid rule needs the
fewest nodes, lowered to 1/(2|Re tau|) where the Gaussian's tilt on the shifted
line would outgrow the 1/cosh decay (domain.midway_depth).  Any eps in (0, 1)
gives the same value.  Other s stay on the real axis.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import (  # CONTOUR_EPS is re-exported as the default depth
    CONTOUR_EPS,
    DEFAULT_QUAD,
    QuadratureSpec,
    as_complex,
    as_modular,
    contour_depth,
    midway_depth,
)
from .errors import InvalidParameter
from .kernel import QuadratureResult, integrate_line

_TWO_PI = 2.0 * math.pi
_PI_I = 1j * math.pi


def h_window(u: complex, tau: complex) -> float:
    """Integration half-width covering the displaced Gaussian peak."""
    return 8.0 + (abs(u.real) + abs(u.imag)) / tau.imag


def _quad_for(u: complex, tau: complex, quad: QuadratureSpec | None, shift: float) -> QuadratureSpec:
    base = DEFAULT_QUAD if quad is None else quad
    return QuadratureSpec(
        half_width=max(base.half_width, h_window(u, tau)),
        nodes=base.nodes,
        contour_shift=shift,
        tail_tol=base.tail_tol,
        max_nodes=base.max_nodes,
    )


def mordell_h_quad(u, tau, quad: QuadratureSpec | None = None) -> QuadratureResult:
    uu = as_complex(u)
    tt = as_modular(tau).tau

    def integrand(x):
        return np.exp(_PI_I * tt * x * x - _TWO_PI * uu * x) / np.cosh(math.pi * x)

    return integrate_line(integrand, _quad_for(uu, tt, quad, 0.0), vectorized=True)


def mordell_h(u, tau, quad: QuadratureSpec | None = None) -> complex:
    return mordell_h_quad(u, tau, quad).value


def mordell_h_s_quad(
    s: float,
    u,
    tau,
    quad: QuadratureSpec | None = None,
    eps: float | None = None,
) -> QuadratureResult:
    """h_s with its quadrature error and node count.  At |s| = 1/2 the
    contour is R - i*eps, with eps in (0, 1); None takes midway_depth."""
    if isinstance(s, complex):
        if s.imag != 0.0:
            raise InvalidParameter("s must be real, got %r" % (s,))
        s = s.real
    s = float(s)
    if abs(s) > 1.0:
        raise InvalidParameter("|s| must be at most 1, got %g" % s)
    uu = as_complex(u)
    tt = as_modular(tau).tau
    shift = 0.0
    if abs(abs(s) - 0.5) < 1e-12:
        shift = -(midway_depth(tt.real) if eps is None else contour_depth(eps))
    s_c = complex(0.0, s)

    def integrand(x):
        return np.exp(_PI_I * tt * x * x - _TWO_PI * uu * x) / np.cosh(math.pi * (x - s_c))

    # on R + i*shift the Gaussian peak sits where it would for u + shift*tau
    return integrate_line(integrand, _quad_for(uu + shift * tt, tt, quad, shift), vectorized=True)


def mordell_h_s(s, u, tau, quad: QuadratureSpec | None = None, eps: float | None = None) -> complex:
    return mordell_h_s_quad(s, u, tau, quad, eps).value


def mordell_h_contour(s: float, u, tau, quad: QuadratureSpec | None = None) -> complex:
    """The h_s integrand taken over the shifted line R + is (used as an oracle)."""
    uu = as_complex(u)
    tt = as_modular(tau).tau
    s = float(s)
    s_c = complex(0.0, s)

    def integrand(t):
        x = t + s_c
        return np.exp(_PI_I * tt * x * x - _TWO_PI * uu * x) / np.cosh(math.pi * t)

    return integrate_line(integrand, _quad_for(uu, tt, quad, 0.0), vectorized=True).value


def verify_mordell_shift(s: float, u, tau, quad: QuadratureSpec | None = None) -> dict:
    """Check h(u + s*tau) = q^{s^2/2} z^s h_s(u) on -1/2 <= s < 1/2."""
    if not -0.5 <= float(s) < 0.5:
        raise InvalidParameter("shift identity needs -1/2 <= s < 1/2, got %g" % s)
    uu = as_complex(u)
    tt = as_modular(tau).tau
    lhs = mordell_h(uu + s * tt, tt, quad)
    import cmath

    prefactor = cmath.exp(_PI_I * tt * s * s + 2j * math.pi * uu * s)
    rhs = prefactor * mordell_h_s(s, uu, tt, quad)
    abs_err = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), 1.0)
    return {
        "s": float(s),
        "lhs": lhs,
        "rhs": rhs,
        "abs_err": abs_err,
        "rel_err": abs_err / scale,
    }


def verify_h1_reflection(u, tau, quad: QuadratureSpec | None = None) -> dict:
    """Check h_1(u) = -h(u)."""
    lhs = mordell_h_s(1.0, u, tau, quad)
    rhs = -mordell_h(u, tau, quad)
    abs_err = abs(lhs - rhs)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "abs_err": abs_err,
        "rel_err": abs_err / max(abs(lhs), abs(rhs), 1.0),
    }


def verify_contour_identity(s: float, u, tau, quad: QuadratureSpec | None = None) -> dict:
    """Check int_{R+is} = q^{-s^2/2} z^{-s} h(u + s*tau)."""
    import cmath

    uu = as_complex(u)
    tt = as_modular(tau).tau
    lhs = mordell_h_contour(s, uu, tt, quad)
    rhs = cmath.exp(-_PI_I * tt * s * s - 2j * math.pi * uu * s) * mordell_h(uu + s * tt, tt, quad)
    abs_err = abs(lhs - rhs)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "abs_err": abs_err,
        "rel_err": abs_err / max(abs(lhs), abs(rhs), 1.0),
    }
