"""Reference values the benchmark judges mockchar's outputs against.

eval-series: mpmath for theta1, theta3, eta, the lattice characters and the
defining series of aK and of the atypical characters; the library's
independent second route (`route="theta"`) for typical characters.
`aK_via_rel1` is not used as the aK oracle: it evaluates A_1 at K*u and loses
accuracy as 1/dist(K*u, Z), so near those points it misses 2e-13 while aK
itself is accurate.
expand: the series evaluated at a point inside |q| < |z| < 1 against direct
evaluation, as the qexpand suite does, and, for a sample of expansions, every
exact coefficient against an independent exact expansion of the defining
sums (`exact_expansion`).  The point check sees only the low orders; the
exact check sees every order.

Errors use the verify suites' metric |got - ref| / max(|got|, |ref|, 1).  An
mpmath reference is held to the library's reported bound; a second library
route carries its own bound, so the pair is held to twice that.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

EXPAND_TOL = 1e-9  # the qexpand suite's tolerance
MP_PREC = 96


def scaled_err(got: complex, ref: complex) -> float:
    """|got - ref| / max(|got|, |ref|, 1): the error metric of the verify suites."""
    return abs(got - ref) / max(abs(got), abs(ref), 1.0)


def _mp_theta(n: int, u: complex, tau: complex):
    with mpmath.workprec(MP_PREC):
        return mpmath.jtheta(n, mpmath.pi * mpmath.mpc(u), mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau)))


def _mp_eta(tau: complex):
    with mpmath.workprec(MP_PREC):
        t = mpmath.mpc(tau)
        return mpmath.exp(2j * mpmath.pi * t / 24) * mpmath.qp(mpmath.exp(2j * mpmath.pi * t))


def _mp_chi_lattice(alpha_sq: int, n: int, u: complex, tau: complex) -> complex:
    with mpmath.workprec(MP_PREC):
        alpha = mpmath.sqrt(alpha_sq)
        uu, tt = mpmath.mpc(u), mpmath.mpc(tau)
        pref = mpmath.exp(2j * mpmath.pi * (uu * n / alpha + tt * n * n / (2 * alpha_sq)))
        return complex(pref * _mp_theta(3, alpha * uu + n * tt, alpha_sq * tt) / _mp_eta(tt))


def _j_max(decay: float, growth: float) -> int:
    """Last |j| whose term exp(-decay j^2 + growth |j|) can still matter (below e^-50)."""
    return int((growth + math.sqrt(growth * growth + 4 * decay * 50.0)) / (2 * decay)) + 2


def _mp_appell(level: int, u: complex, v: complex, tau: complex) -> complex:
    """z^{K/2} sum_n (-1)^{K n} q^{K n(n+1)/2} y^n / (1 - z q^n), the defining series."""
    growth = math.pi * level * tau.imag + 2 * math.pi * (abs(u.imag) + abs(v.imag) + tau.imag)
    n_max = _j_max(math.pi * level * tau.imag, growth)
    with mpmath.workprec(MP_PREC):
        uu, vv, tt = mpmath.mpc(u), mpmath.mpc(v), mpmath.mpc(tau)
        two_pi_i = 2j * mpmath.pi
        acc = mpmath.mpc(0)
        for n in range(-n_max, n_max + 1):
            term = mpmath.exp(two_pi_i * (tt * level * n * (n + 1) / 2 + vv * n)) / (
                1 - mpmath.exp(two_pi_i * (uu + n * tt)))
            acc += -term if (level * n) & 1 else term
        return complex(mpmath.exp(1j * mpmath.pi * level * uu) * acc)


def _mp_chi_atypical(params, label, u: complex, v: complex, tau: complex) -> complex:
    """-i theta1/eta^3 * sum_{j = m*ell + ell'} (-1)^j y^j z^{a j + n' + 1/2}
    q^{j (j K + 2 n' + 1)/2} / (1 - z q^j), summed until the terms are negligible."""
    a, K, ell = params.a, params.K, params.ell
    n_prime = complex(label.n_prime).real
    lp = label.ell_prime
    growth = 2 * math.pi * (abs(v.imag) + (a + 1) * abs(u.imag) + (abs(n_prime) + 2) * tau.imag)
    j_max = _j_max(math.pi * K * tau.imag, growth)
    with mpmath.workprec(MP_PREC):
        uu, vv, tt = mpmath.mpc(u), mpmath.mpc(v), mpmath.mpc(tau)
        two_pi_i = 2j * mpmath.pi
        acc = mpmath.mpc(0)
        for m in range(-(j_max // ell) - 2, j_max // ell + 3):
            j = m * ell + lp
            expo = vv * j + uu * (a * j + n_prime + 0.5) + tt * (j * (j * K + 2 * n_prime + 1) / 2)
            term = mpmath.exp(two_pi_i * expo) / (1 - mpmath.exp(two_pi_i * (uu + j * tt)))
            acc += -term if j & 1 else term
        return complex(-1j * _mp_theta(1, uu, tt) / _mp_eta(tt) ** 3 * acc)


def eval_reference(mc, family: str, args: tuple, bound: float):
    """(reference value, allowed error) for one eval-series call."""
    if family == "theta1":
        return complex(_mp_theta(1, *args)), bound
    if family == "theta3":
        return complex(_mp_theta(3, *args)), bound
    if family == "eta":
        return complex(_mp_eta(*args)), bound
    if family == "aK":
        return _mp_appell(*args), bound
    if family == "chi_w_atypical":
        return _mp_chi_atypical(*args), bound
    if family == "chi_w_typical":
        return mc.characters.chi_w_typical(*args, route="theta"), 2 * bound
    if family == "chi_lattice":
        return _mp_chi_lattice(*args), bound
    raise ValueError("no oracle for %r" % (family,))


def expand_reference(mc, obj: str, kwargs: dict, point: tuple) -> complex:
    """Direct evaluation of the expanded object at `point`."""
    u, v, tau = point
    if obj == "theta1":
        return mc.kernel.theta1(u, tau)
    if obj == "theta1_over_eta3":
        return mc.kernel.theta1(u, tau) / mc.kernel.eta(tau) ** 3
    if obj == "ak":
        return mc.appell.aK(kwargs["level"], u, v, tau)
    if obj == "chi_atypical":
        return mc.characters.chi_w_atypical(kwargs["params"], kwargs["label"], u, v, tau)
    raise ValueError("no oracle for %r" % (obj,))


# ---------------------------------------------------------------------------
# exact q-expansions, written from the defining sums independently of qseries
#
# A series is {(q_exp, z_pow, y_pow): (re, im)} with Fraction exponents and
# integer Gaussian coefficients.  Meromorphic objects are expanded in
# |q| < |z| < 1:  1/(1 - z q^j) = sum_{k>=0} z^k q^{jk} for j >= 0 and
# -sum_{k>=1} z^-k q^{-jk} for j < 0.

HALF = Fraction(1, 2)


def _add(out: dict, key: tuple, re: int, im: int) -> None:
    acc = out.get(key, (0, 0))
    new = (acc[0] + re, acc[1] + im)
    if new == (0, 0):
        out.pop(key, None)
    else:
        out[key] = new


def _exact_theta1(order: Fraction) -> dict:
    """theta1 = -i sum_m (-1)^m q^{(m+1/2)^2/2} z^{m+1/2}."""
    out: dict = {}
    m = 0
    while Fraction((2 * m + 1) ** 2, 8) <= order:
        for mm in (m, -m - 1):
            _add(out, (Fraction((2 * mm + 1) ** 2, 8), Fraction(2 * mm + 1, 2), Fraction(0)),
                 0, 1 if mm & 1 else -1)
        m += 1
    return out


def _euler_inverse_cubed(n_max: int) -> list:
    """Coefficients of prod_{n>=1} (1 - q^n)^-3 through q^n_max."""
    c = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        for _ in range(3):
            for i in range(n, n_max + 1):
                c[i] += c[i - n]
    return c


def _exact_theta1_over_eta3(order: Fraction) -> dict:
    """theta1 * q^{-1/8} prod (1 - q^n)^-3."""
    shift = Fraction(1, 8)
    n_max = max(int(math.floor(order)), 0)
    inv = _euler_inverse_cubed(n_max)
    out: dict = {}
    for (qe, zp, yp), (re, im) in _exact_theta1(order + shift).items():
        for i, c in enumerate(inv):
            if qe - shift + i <= order and c:
                _add(out, (qe - shift + i, zp, yp), re * c, im * c)
    return out


def _geometric(j: int, q0: Fraction, z0: Fraction, order: Fraction, z_cap: Fraction):
    """(q_exp, z_pow, sign) of q^q0 z^z0 / (1 - z q^j) with q_exp <= order, |z_pow| <= z_cap."""
    if j >= 0:
        k = 0
        while q0 + j * k <= order and z0 + k <= z_cap:
            if z0 + k >= -z_cap:
                yield q0 + j * k, z0 + k, 1
            k += 1
    else:
        k = 1
        while q0 - j * k <= order and z0 - k >= -z_cap:
            if z0 - k <= z_cap:
                yield q0 - j * k, z0 - k, -1
            k += 1


def _exact_appell(level: int, order: Fraction, window: int) -> dict:
    """z^{K/2} sum_n (-1)^{Kn} q^{Kn(n+1)/2} y^n / (1 - z q^n), |z_pow| <= window."""
    out: dict = {}
    n_lim = int(math.isqrt(int(2 * order / level) + 1)) + 2
    for n in range(-n_lim, n_lim + 1):
        sign = -1 if (level * n) & 1 else 1
        q0 = Fraction(level * n * (n + 1), 2)
        for qe, zp, g in _geometric(n, q0, Fraction(level, 2), order, Fraction(window)):
            _add(out, (qe, zp, Fraction(n)), sign * g, 0)
    return out


def _exact_chi_atypical(params, label, order: Fraction, window: int) -> dict:
    """-i theta1/eta^3 * sum_{j = m ell + ell'} (-1)^j y^j z^{a j + n' + 1/2}
    q^{j (j K + 2 n' + 1)/2} / (1 - z q^j), |z_pow| <= window."""
    a, K, ell = params.a, params.K, params.ell
    n_prime = Fraction(complex(label.n_prime).real)
    lp = label.ell_prime
    # the prefactor's z-powers stay within +-(2 order + 3) (checked below)
    body_cap = Fraction(window) + 2 * order + 4
    body: dict = {}
    j_lim = int(math.isqrt(int(2 * order / K) + 1)) + int(abs(2 * n_prime + 1) / K) + 3
    for j in range(-j_lim, j_lim + 1):
        if (j - lp) % ell:
            continue
        q0 = Fraction(j) * (j * K + 2 * n_prime + 1) / 2
        sign = -1 if j & 1 else 1
        for qe, zp, g in _geometric(j, q0, a * j + n_prime + HALF, order, body_cap):
            _add(body, (qe, zp, Fraction(j)), sign * g, 0)
    # the prefactor starts at q^0; a body term below q^0 pairs with prefactor terms above order
    low = min((k[0] for k in body), default=Fraction(0))
    lead = _exact_theta1_over_eta3(order - min(low, Fraction(0)))
    if any(abs(k[1]) > 2 * order + 3 for k in lead):
        raise ValueError("prefactor z-powers exceed the body's margin")
    out: dict = {}
    for (qa, za, _), (ra, ia) in lead.items():
        ra, ia = ia, -ra  # times -i
        for (qb, zb, yb), (rb, ib) in body.items():
            if qa + qb <= order and abs(za + zb) <= window:
                _add(out, (qa + qb, za + zb, yb), ra * rb - ia * ib, ra * ib + ia * rb)
    return out


def exact_expansion(mc, obj: str, order: Fraction, kwargs: dict) -> dict:
    """The expansion qexpand should return, within its documented z-window."""
    window = mc.qseries.default_z_window(order)
    if obj == "theta1":
        return _exact_theta1(order)
    if obj == "theta1_over_eta3":
        return _exact_theta1_over_eta3(order)
    if obj == "ak":
        return _exact_appell(kwargs["level"], order, window)
    if obj == "chi_atypical":
        return _exact_chi_atypical(kwargs["params"], kwargs["label"], order, window)
    raise ValueError("no oracle for %r" % (obj,))


def series_terms(series) -> dict:
    """A qseries.SparseSeries as {(q_exp, z_pow, y_pow): (re, im)}."""
    return {key: (c.re, c.im) for key, c in series.terms.items()}


def first_difference(got: dict, want: dict):
    """The lowest-order key where two exact series differ, or None."""
    keys = [k for k in set(got) | set(want) if got.get(k) != want.get(k)]
    return min(keys) if keys else None
