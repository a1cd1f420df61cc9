"""Theta and eta kernels with certified truncation, plus line quadrature.

Series are summed over a symmetric window whose width is chosen so that the
Gaussian tail bound falls below the requested tolerance.  Each sum is walked
outward from its largest term: that term is one cmath.exp (RangeExceeded if it
leaves the double range), every other term is its neighbour times a ratio, and
the ratio itself changes by a constant factor per step because the exponent is
quadratic in the index.  Quadrature is the trapezoid rule on a finite window
with node doubling until two successive refinements agree to the tolerance or
to the sum's rounding floor.  Its nodes sit on the nested grid x_k = k*h, so x
and -x are exact negatives and every level reuses the nodes of the levels below
it; the first integrand pass covers three levels and each later doubling
evaluates only the new nodes.  _pole_line integrates one Gaussian over a
sinh kernel line (h_s and every S-check integral).  numpy is imported by the
quadrature functions on first use, so the series kernels load without it.

theta1, theta3 and eta validate their arguments and call the private cores
_theta1, _theta3 and _eta, which take plain complex numbers; the characters
and the Appell relations call the cores, so a public call validates once.
Theta sums are not memoised, as their u is almost always new (0 hits in a plot
row; verify's repeats saved <2% of its time).  Two things are: eta's product,
as tau repeats, and gaussian_cutoff, whose (decay, growth) repeat along a plot
row because they depend only on the level and the imaginary parts of the
arguments (99.6% hits on plot rows, 48% in verify).
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
    check_level,
    identity_report,
    lattice_distance,
)
from .errors import (
    InvalidParameter,
    PoleOnContour,
    PoleProximity,
    QuadratureNoConvergence,
    RangeExceeded,
    TailBoundExceeded,
)


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


@lru_cache(maxsize=256)
def gaussian_cutoff(decay: float, growth: float, tol: float, max_terms: int) -> int:
    """The first candidate n whose Gaussian tail bound is at most tol.  A
    pure function of its arguments, memoised; an error is not cached, so it
    is raised again on every call."""
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


def _peak_index(center: float, lo: int, hi: int) -> int:
    """The integer nearest to center, clamped to [lo, hi]: where a walk starts."""
    k = round(center)
    return lo if k < lo else hi if k > hi else k


def _lead_exp(exponent: complex, index: int | None = None) -> complex:
    """e^exponent: the largest term of a walk, at the given index, or with
    index None a label lead outside the walks.  A value beyond the double
    range raises RangeExceeded."""
    try:
        return cmath.exp(exponent)
    except OverflowError:
        if index is None:
            raise RangeExceeded("the label lead leaves the double range") from None
        raise RangeExceeded("the largest term, at index %d, leaves the double range" % index) from None


def _ratio_walk(lead: complex, up: complex, step: complex, n_up: int, n_down: int, sign: float = 1.0) -> complex:
    """Sum of the term lead = t_k of a series whose exponent is quadratic in
    the index, the n_up terms above it and the n_down terms below it.

    Every term is its neighbour times a ratio: t_{k+1}/t_k = sign e^{up} and
    t_{k-1}/t_k = sign e^{step - up}, and each ratio changes by the factor
    e^{step} per index step outward.  A ratio is exponentiated only when its
    side has terms, so an unused one cannot overflow.  The two sides are
    walked together while both have terms.
    """
    factor = cmath.exp(step)
    t_up = t_down = acc = lead
    r_up = sign * cmath.exp(up) if n_up else 0.0
    r_down = sign * cmath.exp(step - up) if n_down else 0.0
    for _ in range(n_up if n_up < n_down else n_down):
        t_up *= r_up
        t_down *= r_down
        acc += t_up + t_down
        r_up *= factor
        r_down *= factor
    if n_up > n_down:
        term, ratio, rest = t_up, r_up, n_up - n_down
    else:
        term, ratio, rest = t_down, r_down, n_down - n_up
    for _ in range(rest):
        term *= ratio
        ratio *= factor
        acc += term
    return acc


def _lerch_walk(
    lead: complex, up: complex, step: complex, pole: complex, pole_step: complex,
    n_up: int, n_down: int, sign: float = 1.0,
) -> complex:
    """Sum of t_n / (1 - w_n) over the lead t_k, the n_up terms above it and
    the n_down terms below it.

    The numerators t_n walk as in _ratio_walk.  The pole factors start at
    w_k = e^{pole} and change by e^{pole_step} per step up and e^{-pole_step}
    per step down.  No term checks its pole factor: every caller has passed
    require_pole_clearance, which keeps each |1 - w_n| near 2 pi x
    POLE_CLEARANCE or more.  A sum that is not finite raises RangeExceeded.
    """
    w_lead = cmath.exp(pole)
    acc = lead / (1.0 - w_lead)
    factor = cmath.exp(step)
    for n, ratio_exp, w_exp in ((n_up, up, pole_step), (n_down, step - up, -pole_step)):
        if n:
            term, ratio, w, w_step = lead, sign * cmath.exp(ratio_exp), w_lead, cmath.exp(w_exp)
            for _ in range(n):
                term *= ratio
                ratio *= factor
                w *= w_step
                acc += term / (1.0 - w)
    if not cmath.isfinite(acc):
        # a pole factor grown past the double range turns its term into inf/inf
        raise RangeExceeded("a pole factor of the series leaves the double range")
    return acc


def _theta1_walk(u: complex, tau: complex, n_max: int) -> complex:
    """-i sum_{|n| <= n_max} (-1)^n e^{pi i tau (n+1/2)^2 + 2 pi i u (n+1/2)},
    walked outward from its largest term; t_{n+1} = t_n * (-z q^{n+1})."""
    k = _peak_index(-u.imag / tau.imag - 0.5, -n_max, n_max)
    half = k + 0.5
    lead = _lead_exp(PI_I * half * half * tau + TWO_PI_I * u * half, k)
    return -1j * _ratio_walk(
        -lead if k & 1 else lead, TWO_PI_I * (u + (k + 1) * tau), TWO_PI_I * tau, n_max - k, n_max + k, -1.0
    )


def _theta3_walk(u: complex, tau: complex, n_max: int) -> complex:
    """sum_{|n| <= n_max} e^{pi i tau n^2 + 2 pi i u n}, walked outward from
    its largest term; t_{n+1} = t_n * z q^{n+1/2}."""
    k = _peak_index(-u.imag / tau.imag, -n_max, n_max)
    lead = _lead_exp((PI_I * k * tau + TWO_PI_I * u) * k, k) if k else 1.0 + 0.0j
    return _ratio_walk(lead, TWO_PI_I * u + PI_I * (2 * k + 1) * tau, TWO_PI_I * tau, n_max - k, n_max + k)


@lru_cache(maxsize=1 << 12)
def _eta_cached(tau: complex, max_terms: int, tail_tol: float) -> complex:
    """q^{1/24} prod_{n <= N} (1 - q^n), with N from the product's tail bound.
    Memoised, as tau repeats where theta's u does not (99.9% hits in a plot
    row); the key is (tau, max_terms, tail_tol), plain values that hash in C.
    The cutoff and its range checks are part of the cached call; an error is
    raised again on every call."""
    q = cmath.exp(TWO_PI_I * tau)
    absq = abs(q)
    if not absq < 1.0:
        raise TailBoundExceeded("|q| rounds to 1 at tau = %s" % (tau,))
    # product tail: |log prod_{n>N}(1-q^n)| <= |q|^{N+1} / ((1-|q|)^2)
    n_max = max(8, int(math.ceil(math.log(tail_tol * (1.0 - absq) ** 2) / math.log(absq))))
    if n_max > max(max_terms, 4096):
        raise TailBoundExceeded("eta product needs %d factors" % n_max)
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


def _theta1(u: complex, tau: complex, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    """theta1 on validated arguments."""
    # theta1(u + n) = (-1)^n theta1(u), exactly: far from 0 the terms cancel
    n = round(u.real)
    u -= n
    value = _theta1_walk(u, tau, theta_cutoff(u, tau, trunc))
    return -value if n & 1 else value


def _theta3(u: complex, tau: complex, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    """theta3 on validated arguments."""
    u -= round(u.real)  # theta3(u + n) = theta3(u), exactly
    return _theta3_walk(u, tau, theta_cutoff(u, tau, trunc))


def _eta(tau: complex, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    """eta on a validated tau."""
    return _eta_cached(tau, trunc.max_terms, trunc.tail_tol)


def theta1(u, tau, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    return _theta1(as_complex(u), as_tau(tau), trunc)


def theta3(u, tau, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    return _theta3(as_complex(u), as_tau(tau), trunc)


def eta(tau, trunc: TruncationSpec = DEFAULT_TRUNC) -> complex:
    return _eta(as_tau(tau), trunc)


def eta_pentagonal(tau) -> complex:
    """Independent eta evaluation via the pentagonal-number series."""
    tt = as_tau(tau)
    decay = 3.0 * math.pi * tt.imag
    growth = math.pi * tt.imag
    k_max = gaussian_cutoff(decay, growth, DEFAULT_TRUNC.tail_tol, DEFAULT_TRUNC.max_terms)
    acc = 0.0 + 0.0j
    for k in range(-k_max, k_max + 1):
        term = cmath.exp(TWO_PI_I * tt * (k * (3 * k - 1) / 2.0 + 1.0 / 24.0))
        acc += -term if k & 1 else term
    return acc


# With u = alpha + beta*tau, lattice_distance tries the four lattice points
# whose coordinates are the floors and ceilings of alpha and beta.  Each of
# them other than the one at the rounded coordinates is off by at least 1/2 in
# alpha or in beta, which puts it at least Im tau / (2 max(1, Im tau + |Re tau|))
# from u: at least 11 x POLE_CLEARANCE where Im tau exceeds _ONE_POINT_IM x
# max(1, |tau|).  The bounds on |tau| and on the coordinates keep every
# rounding error below 1e-6 of that margin.
_ONE_POINT_IM = 32.0 * POLE_CLEARANCE
_ONE_POINT_TAU = 256.0
_ONE_POINT_COORD = float(1 << 20)


def require_pole_clearance(u: complex, tau: complex) -> None:
    """Poles sit on u in Z + tau*Z; reject arguments too close to that lattice.
    Callers pass u and tau already validated.

    Measures the distance to one lattice point, the one at the rounded lattice
    coordinates of u, and raises exactly where lattice_distance, the minimum
    over four points around u, is below POLE_CLEARANCE.  lattice_distance words
    the error, and decides wherever the one-point bounds above do not hold."""
    beta = u.imag / tau.imag
    alpha = u.real - beta * tau.real
    size = abs(tau)
    if (
        size < _ONE_POINT_TAU
        and tau.imag > _ONE_POINT_IM * max(1.0, size)
        and abs(alpha) < _ONE_POINT_COORD
        and abs(beta) < _ONE_POINT_COORD
        and abs(u - (round(alpha) + round(beta) * tau)) >= POLE_CLEARANCE
    ):
        return
    d = lattice_distance(u, tau)
    if d < POLE_CLEARANCE:
        raise PoleProximity("u is %.3g from the pole lattice (clearance %g)" % (d, POLE_CLEARANCE))


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


# Points per integrand call.  Node doubling can reach 2^19 points, and an
# integrand builds several complex temporaries of its input's length;
# evaluating in slices keeps those small while the sum still runs over the
# whole array.
_EVAL_CHUNK = 1 << 14


def _eval_line(f, xs):
    """f on the nodes xs, in slices, each handed over as a complex array on
    R; raises once any value is not finite, since no refinement of a sum that
    holds a nan or an inf can converge."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        out = np.empty(xs.shape, dtype=complex)
        for start in range(0, xs.size, _EVAL_CHUNK):
            pts = xs[start:start + _EVAL_CHUNK] + 0j
            vals = np.asarray(f(pts), dtype=complex)
            if vals.shape != pts.shape:
                raise ValueError("integrand returned shape %s" % (vals.shape,))
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


def integrate_line(f, spec: QuadratureSpec = DEFAULT_QUAD) -> QuadratureResult:
    """Trapezoid quadrature of f over [-L, L] with node doubling; f maps a
    complex array of nodes on R to their values.

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
    n = spec.nodes
    h = 2.0 * half / n
    vals = _eval_line(f, np.arange(-2 * n, 2 * n + 1) * (h / 4.0))
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
            mid_vals = _eval_line(f, mids)
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


_ON_AXIS = 1e-9  # a kernel pole closer to R than this is taken as on it
_WINDOW_LOG = 16.0 * math.log(10.0)  # the window ends 1e-16 below the largest term


def _pole_line_window(decay: float, beta: complex) -> float:
    """Half width for _pole_line, with decay = -Re alpha.  Away from the pole
    the integrand is about |c| e^{-decay x^2 + slope x}, slope = |Re beta| - pi
    (the kernel's e^{-pi|x|}), which peaks at |c| e^{max(slope, 0)^2 / (4 decay)}.
    The window ends 1e-16 below that peak, at the larger root of
    -decay x^2 + slope x = max(slope, 0)^2 / (4 decay) - _WINDOW_LOG, so |c|
    drops out.  It also spans the Gaussian's own peak |Re beta| / (2 decay),
    so where Re alpha is too small to confine the Gaussian the trapezoid
    cannot converge and raises."""
    slope = abs(beta.real) - math.pi
    if slope >= 0.0:
        edge = slope / (2.0 * decay) + math.sqrt(_WINDOW_LOG / decay)
    else:
        edge = 2.0 * _WINDOW_LOG / (math.sqrt(slope * slope + 4.0 * decay * _WINDOW_LOG) - slope)
    return max(edge, abs(beta.real) / (2.0 * decay))


def _pole_line(alpha: complex, c: complex, beta: complex, p: float, side: float | None,
               tail_tol: float) -> QuadratureResult:
    """c int_R e^{alpha x^2 + beta x} / sinh(pi(x - ip)) dx for Re alpha < 0,
    in one integrate_line call.

    With x0 = i y0 the nearest kernel pole, y0 = p + k in (-1/2, 1/2] and
    k = floor(1/2 - p), the kernel is (-1)^k / sinh(pi(x - x0)), which keeps
    full relative accuracy near x0; r = G(x0) / pi, G = c e^{alpha x^2 +
    beta x}, is the residue of G / sinh(pi(x - x0)) there.
    - On R (|y0| < _ON_AXIS): the principal value, x paired with -x into
      (G(x) - G(-x)) / (2 sinh(pi x)), plus side times the half-residue
      -i pi r (side +1 passes above the pole, -1 below, 0 is the principal
      value; None raises PoleOnContour).
    - Near, where the Gaussian grows by at most e from its peak on R to x0
      (beta = 0: -Re(alpha) y0^2 <= 1): r e^{-w (x - x0)^2} / (x - x0) is
      subtracted and its integral, +-i pi r with + for a pole above R, added
      back, so the trapezoid sees the next pole, at least 1/2 away.
      w = max(-Re alpha, 1): as wide as the Gaussian, but no wider than the
      kernel's e^{-pi|x|} keeps the integrand; a complex w = -alpha would tilt
      the subtracted Gaussian by e^{2 Im(alpha) y0 x}.
    - Far: G / sinh as it is; subtracting would cancel terms of size |G(x0)|.
    """
    import numpy as np

    decay = -alpha.real
    half = _pole_line_window(decay, beta)
    k = math.floor(0.5 - p)
    y0 = p + k
    if abs(y0) < _ON_AXIS:
        if side is None:
            raise PoleOnContour("a kernel pole lies on the real axis and no side was given")

        def f(xs):
            x = xs.real
            ax = np.abs(x)
            gauss = alpha * ax * ax - math.pi * ax
            bx = beta * x
            # 0/0 at x = 0, replaced below (integrate_line ignores invalid values)
            odd = c * (np.exp(gauss + bx) - np.exp(gauss - bx))
            out = np.sign(x) * odd / -np.expm1(-2.0 * math.pi * ax)
            return np.where(x == 0.0, c * beta / math.pi, out)

        add = -side * 1j * c
    else:
        x0 = 1j * y0
        r, width = 0.0, max(decay, 1.0)
        if decay * y0 * y0 - beta.imag * y0 <= beta.real * beta.real / (4.0 * decay) + 1.0:
            r = c * cmath.exp(alpha * x0 * x0 + beta * x0) / math.pi
            # the subtracted Gaussian lacks the kernel's decay: span it to 1e-16 of its peak
            half = max(half, math.sqrt(_WINDOW_LOG / width + y0 * y0))

        def f(x):
            dx = x - x0
            return c * np.exp(alpha * (x * x) + beta * x) / np.sinh(math.pi * dx) - r * np.exp(-width * dx * dx) / dx

        add = math.copysign(1.0, y0) * 1j * math.pi * r
    spec = QuadratureSpec(half_width=half, tail_tol=tail_tol)
    if 2.0 * half / spec.max_nodes > 1.0:
        # even the finest step would exceed the spacing of the kernel's poles
        raise QuadratureNoConvergence(
            "window [-%g, %g] is too wide to resolve with %d nodes" % (half, half, spec.max_nodes)
        )
    res = integrate_line(f, spec)
    sign = -1.0 if k & 1 else 1.0
    return QuadratureResult(sign * (res.value + add), res.error, res.nodes)


def theta1_rescaling_check(level: int, u, tau) -> dict:
    """theta1 at tau/K as a K-term combination of theta1 at K*tau."""
    check_level(level)
    uu = as_complex(u)
    tt = as_tau(tau)
    kk = float(level)
    lhs = _theta1(uu, tt / kk)
    rhs = 0.0 + 0.0j
    for n in range(level):
        shift = n - (level - 1) / 2.0
        pref = cmath.exp(2j * math.pi * (tt * shift * shift / (2.0 * kk) + shift * (uu + 0.5)))
        rhs += pref * _theta1(kk * uu + tt * shift + (level - 1) / 2.0, kk * tt)
    return identity_report("theta1_rescaling", lhs, rhs, level=level)


def gauss_identity_check(alpha, beta) -> dict:
    """Quadrature of e^{-alpha x^2 + beta x} against sqrt(pi/alpha) e^{beta^2/4 alpha}."""
    import numpy as np

    al = as_complex(alpha)
    be = as_complex(beta)
    if not al.real > 0.0:
        raise InvalidParameter("need Re alpha > 0 for a convergent Gaussian")
    # window: |integrand| <= e^{-Re(al) x^2 + |be| |x|} < tol outside
    half = (abs(be) + math.sqrt(abs(be) ** 2 + 4.0 * al.real * math.log(1e16))) / (2.0 * al.real)
    spec = QuadratureSpec(half_width=max(half, 4.0 / math.sqrt(al.real)))
    res = integrate_line(lambda xs: np.exp(-al * xs * xs + be * xs), spec)
    lhs = res.value
    rhs = sqrt_principal(math.pi / al) * cmath.exp(be * be / (4.0 * al))
    return identity_report("gauss_identity", lhs, rhs, nodes=res.nodes)
