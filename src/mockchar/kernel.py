"""Theta and eta kernels with certified truncation, plus line quadrature.

Series are summed over a symmetric window whose width is chosen so that the
Gaussian tail bound falls below the requested tolerance.  Quadrature is the
trapezoid rule on a finite window with node doubling until two successive
refinements agree to the tolerance or to the sum's rounding floor.  Its nodes
sit on the nested grid x_k = k*h, so x and -x are exact negatives and every
level reuses the nodes of the levels below it; the first integrand pass covers
three levels and each later doubling evaluates only the new nodes.  numpy is
imported by the quadrature functions on first use, so the series kernels load
without it.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .domain import (
    DEFAULT_QUAD,
    DEFAULT_TRUNC,
    PI_I,
    POLE_CLEARANCE,
    TWO_PI_I,
    QuadratureSpec,
    TruncationSpec,
    as_complex,
    as_tau,
    identity_report,
    lattice_distance,
)
from .errors import PoleProximity, QuadratureNoConvergence, TailBoundExceeded


def tail_bound_gaussian(decay: float, growth: float, start: int) -> float:
    """Bound sum_{n >= start} e^{-decay*n^2 + growth*n} by geometric domination.

    Requires decay*(2*start + 1) > growth so the ratio test applies.
    """
    ratio_log = -decay * (2 * start + 1) + growth
    if ratio_log >= 0.0:
        return math.inf
    lead_log = -decay * start * start + growth * start
    if lead_log > 700.0:
        return math.inf
    ratio = math.exp(ratio_log)
    if ratio == 1.0:  # decay below the resolution of 1 - ratio (Im tau ~ 1e-17)
        return math.inf
    return math.exp(lead_log) / (1.0 - ratio)


def gaussian_cutoff(decay: float, growth: float, tol: float, max_terms: int) -> int:
    if decay <= 0.0:
        raise TailBoundExceeded("series has no Gaussian decay (decay=%g)" % decay)
    n = 4
    while n <= max_terms:
        if tail_bound_gaussian(decay, growth, n) <= tol:
            return n
        n = n + 4 if n < 32 else n + max(4, n // 4)
    raise TailBoundExceeded(
        "needed more than %d terms for tail tolerance %g (decay=%g growth=%g)"
        % (max_terms, tol, decay, growth)
    )


@lru_cache(maxsize=1 << 16)
def _theta1_cached(u: complex, tau: complex, n_max: int) -> complex:
    acc = 0.0 + 0.0j
    for n in range(-n_max, n_max + 1):
        half = n + 0.5
        term = cmath.exp(PI_I * half * half * tau + TWO_PI_I * u * half)
        acc += -term if n & 1 else term
    return -1j * acc


@lru_cache(maxsize=1 << 16)
def _theta3_cached(u: complex, tau: complex, n_max: int) -> complex:
    acc = 1.0 + 0.0j
    for n in range(1, n_max + 1):
        core = PI_I * n * n * tau
        cross = TWO_PI_I * u * n
        acc += cmath.exp(core + cross) + cmath.exp(core - cross)
    return acc


@lru_cache(maxsize=1 << 12)
def _eta_cached(tau: complex, n_max: int) -> complex:
    q = cmath.exp(TWO_PI_I * tau)
    acc = cmath.exp(TWO_PI_I * tau / 24.0)
    qn = 1.0 + 0.0j
    for _ in range(n_max):
        qn *= q
        acc *= 1.0 - qn
    return acc


def theta_cutoff(u: complex, tau: complex, trunc: TruncationSpec) -> int:
    decay = math.pi * tau.imag
    growth = 2.0 * math.pi * abs(u.imag)
    return gaussian_cutoff(decay, growth, trunc.tail_tol, trunc.max_terms)


def theta1(u, tau, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    uu = as_complex(u)
    tt = as_tau(tau)
    return _theta1_cached(uu, tt, theta_cutoff(uu, tt, trunc))


def theta3(u, tau, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    uu = as_complex(u)
    tt = as_tau(tau)
    return _theta3_cached(uu, tt, theta_cutoff(uu, tt, trunc))


def eta(tau, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    tt = as_tau(tau)
    absq = abs(cmath.exp(TWO_PI_I * tt))
    if not absq < 1.0:
        raise TailBoundExceeded("|q| rounds to 1 at tau = %s" % (tt,))
    # product tail: |log prod_{n>N}(1-q^n)| <= |q|^{N+1} / ((1-|q|)^2)
    n = max(8, int(math.ceil(math.log(trunc.tail_tol * (1.0 - absq) ** 2) / math.log(absq))))
    if n > max(trunc.max_terms, 4096):
        raise TailBoundExceeded("eta product needs %d factors" % n)
    return _eta_cached(tt, n)


def eta_pentagonal(tau, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    """Independent eta evaluation via the pentagonal-number series."""
    tt = as_tau(tau)
    decay = 3.0 * math.pi * tt.imag
    growth = math.pi * tt.imag
    k_max = gaussian_cutoff(decay, growth, trunc.tail_tol, trunc.max_terms)
    acc = 0.0 + 0.0j
    for k in range(-k_max, k_max + 1):
        term = cmath.exp(TWO_PI_I * tt * (k * (3 * k - 1) / 2.0 + 1.0 / 24.0))
        acc += -term if k & 1 else term
    return acc


def eta_cubed(tau, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    return eta(tau, trunc) ** 3


def require_pole_clearance(u, tau, clearance: float = POLE_CLEARANCE, what: str = "u") -> None:
    """Poles sit on u in Z + tau*Z; reject arguments too close to that lattice.
    Callers pass u and tau already validated."""
    d = lattice_distance(u, tau)
    if d < clearance:
        raise PoleProximity("%s is %.3g from the pole lattice (clearance %g)" % (what, d, clearance))


def sqrt_principal(w) -> complex:
    """Principal branch square root (cut along the negative real axis)."""
    return cmath.sqrt(as_complex(w))


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error: float
    nodes: int

    def __complex__(self) -> complex:
        return self.value


# Points per vectorized integrand call.  Node doubling can reach 2^19 points,
# and an integrand builds several complex temporaries of its input's length;
# evaluating in slices keeps those small while the sum still runs over the
# whole array.
_EVAL_CHUNK = 1 << 14


def _eval_line(f, xs, shift: complex, vectorized: bool):
    """f on xs + shift; raises once any value is not finite, since no
    refinement of a sum that holds a nan or an inf can converge."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        if not vectorized:
            out = np.array([f(complex(x) + shift) for x in xs], dtype=complex)
        else:
            out = np.empty(xs.shape, dtype=complex)
            for start in range(0, xs.size, _EVAL_CHUNK):
                pts = xs[start:start + _EVAL_CHUNK] + shift
                vals = np.asarray(f(pts), dtype=complex)
                if vals.shape != pts.shape:
                    raise ValueError("vectorized integrand returned shape %s" % (vals.shape,))
                out[start:start + _EVAL_CHUNK] = vals
    finite = np.isfinite(out)
    if not finite.all():
        raise QuadratureNoConvergence(
            "integrand not finite at %d of %d nodes" % (out.size - np.count_nonzero(finite), out.size)
        )
    return out


# Rounding floor of a trapezoid sum, per unit of h * sum|f|.  Each term
# carries the rounding of its node and of an exponent that reaches tens of
# units, so its relative error is tens of ulps, not one: against mpmath,
# Mordell integrals with heavy cancellation were off by up to 33 eps * h *
# sum|f|.  Where the terms cancel so strongly that this floor exceeds tail_tol,
# no refinement can meet tail_tol.
_ROUNDING_ULPS = 64.0 * sys.float_info.epsilon


def integrate_line(f, spec: QuadratureSpec = DEFAULT_QUAD, vectorized: bool = False) -> QuadratureResult:
    """Trapezoid quadrature of f over [-L, L] + i*contour_shift with node doubling.

    The nodes are x_k = k*h.  The first integrand pass evaluates the 4n + 1
    nodes of the third level (n = spec.nodes, h = 2L/4n); the levels with n and
    2n intervals are its strided slices.  Each later doubling halves h and
    evaluates only the new odd multiples of it.  Every node is an exact
    multiple of the finest h, so x and -x are exact negatives at every level.

    Stops once two successive refinements agree to the larger of
    spec.tail_tol and the rounding floor _ROUNDING_ULPS * h * sum|f| (at least
    two doublings are always performed).  The error is the last difference
    or the floor, whichever is larger.  Refinement cannot see what lies
    outside the window, so a result whose integrand at +-L still exceeds that
    limit raises QuadratureNoConvergence instead of returning a cut-off value.
    So does a non-finite integrand value, at the first level that meets one.
    """
    import numpy as np

    half = spec.half_width
    shift = 1j * spec.contour_shift
    n = spec.nodes
    h = 2.0 * half / n
    vals = _eval_line(f, np.arange(-2 * n, 2 * n + 1) * (h / 4.0), shift, vectorized)
    edge = max(abs(vals[0]), abs(vals[-1]))
    current = h * (vals[::4].sum() - 0.5 * (vals[0] + vals[-1]))
    mass = h * (np.abs(vals[::4]).sum() - 0.5 * (abs(vals[0]) + abs(vals[-1])))
    # midpoints of the levels with n and 2n intervals, already evaluated
    first_mids = (vals[2::4], vals[1::2])
    refinements = 0
    while True:
        if refinements < len(first_mids):
            mid_vals = first_mids[refinements]
        else:
            mids = np.arange(1 - n, n, 2) * (h / 2.0)
            mid_vals = _eval_line(f, mids, shift, vectorized)
        refined = current / 2.0 + (h / 2.0) * mid_vals.sum()
        mass = mass / 2.0 + (h / 2.0) * np.abs(mid_vals).sum()
        err = abs(refined - current)
        floor = _ROUNDING_ULPS * mass
        n *= 2
        h /= 2.0
        current = refined
        refinements += 1
        limit = max(spec.tail_tol, floor)
        if refinements >= 2 and err <= limit:
            if edge > limit:
                raise QuadratureNoConvergence(
                    "window [-%g, %g] cuts the integrand off (|f| = %.3g at its edge, limit %.3g)"
                    % (half, half, edge, limit)
                )
            return QuadratureResult(complex(current), float(max(err, floor)), n + 1)
        if n >= spec.max_nodes:
            raise QuadratureNoConvergence(
                "no convergence with %d nodes (last delta %.3g, tol %g, rounding floor %.3g)"
                % (n, err, spec.tail_tol, floor)
            )


def theta1_rescaling_check(
    level: int, u, tau, trunc: TruncationSpec = DEFAULT_TRUNC
) -> dict:
    """theta1 at tau/K as a K-term combination of theta1 at K*tau."""
    if level < 1:
        raise ValueError("level must be >= 1")
    uu = as_complex(u)
    tt = as_tau(tau)
    kk = float(level)
    lhs = theta1(uu, tt / kk, trunc)
    rhs = 0.0 + 0.0j
    for n in range(level):
        shift = n - (level - 1) / 2.0
        pref = cmath.exp(2j * math.pi * (tt * shift * shift / (2.0 * kk) + shift * (uu + 0.5)))
        rhs += pref * theta1(kk * uu + tt * shift + (level - 1) / 2.0, kk * tt, trunc)
    return identity_report("theta1_rescaling", lhs, rhs, level=level)


def gauss_identity_check(alpha, beta, quad: QuadratureSpec = DEFAULT_QUAD) -> dict:
    """Quadrature of e^{-alpha x^2 + beta x} against sqrt(pi/alpha) e^{beta^2/4 alpha}."""
    import numpy as np

    al = as_complex(alpha)
    be = as_complex(beta)
    if not al.real > 0.0:
        raise ValueError("need Re alpha > 0 for a convergent Gaussian")
    # window: |integrand| <= e^{-Re(al) x^2 + |be| |x|} < tol outside
    half = (abs(be) + math.sqrt(abs(be) ** 2 + 4.0 * al.real * math.log(1e16))) / (2.0 * al.real)
    spec = QuadratureSpec(
        half_width=max(half, 4.0 / math.sqrt(al.real)),
        nodes=quad.nodes,
        contour_shift=0.0,
        tail_tol=quad.tail_tol,
        max_nodes=quad.max_nodes,
    )
    res = integrate_line(lambda xs: np.exp(-al * xs * xs + be * xs), spec, vectorized=True)
    lhs = res.value
    rhs = sqrt_principal(math.pi / al) * cmath.exp(be * be / (4.0 * al))
    return identity_report("gauss_identity", lhs, rhs, nodes=res.nodes)
