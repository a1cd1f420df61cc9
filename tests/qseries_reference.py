"""The q-expansions in Fractions, term by term through add_term.

Every exponent is a Fraction and every coefficient a GRat, added one term at a
time, as the library built them before it moved to scaled integers.  They are
the reference the integer expansions are tested against, dict order included;
the library keeps no such second path.  Products go through SparseSeries.mul,
the library's only product, which tests/test_qseries.py checks against the
Fraction pair loop on its own.
"""

import math
from fractions import Fraction

from mockchar.qseries import MINUS_I, GRat, SparseSeries, as_fraction, default_z_window


def theta1_series(order) -> SparseSeries:
    out = SparseSeries(order)
    n = 0
    while True:
        placed = False
        for m in (n, -n - 1):
            half = Fraction(2 * m + 1, 2)
            q_exp = half * half / 2
            if q_exp <= out.order:
                sign = -1 if m & 1 else 1
                out.add_term(q_exp, half, 0, GRat(Fraction(0), Fraction(-sign)))
                placed = True
        if not placed:
            return out
        n += 1


def eta3_inverse_qcoeffs(n_max: int) -> list:
    jac = [Fraction(0)] * (n_max + 1)
    k = 0
    while k * (k + 1) // 2 <= n_max:
        jac[k * (k + 1) // 2] = Fraction((2 * k + 1) * (-1 if k & 1 else 1))
        k += 1
    inv = [Fraction(0)] * (n_max + 1)
    inv[0] = Fraction(1)
    for n in range(1, n_max + 1):
        inv[n] = -sum(jac[j] * inv[n - j] for j in range(1, n + 1))
    return inv


def theta1_over_eta3_series(order) -> SparseSeries:
    out = SparseSeries(order)
    n_max = int(math.floor(float(out.order)))
    if n_max < 0:
        return out
    inv = eta3_inverse_qcoeffs(n_max)
    m = 0
    while True:
        placed = False
        for n in (m, -m - 1):
            base = Fraction(n * (n + 1), 2)
            if base <= out.order:
                placed = True
                half = Fraction(2 * n + 1, 2)
                sign = Fraction(-1 if n & 1 else 1)
                for j in range(0, n_max + 1):
                    if base + j > out.order:
                        break
                    out.add_term(base + j, half, 0, GRat(Fraction(0), -sign * inv[j]))
        if not placed:
            return out
        m += 1


def geometric_factor_terms(j: int, order, z_cap: int):
    """(extra_q, extra_z, sign) of 1/(1 - z q^j) expanded in |q| < |z| < 1."""
    if j >= 0:
        for k in range(0, z_cap + 1):
            extra = Fraction(j * k)
            if extra > order:
                return
            yield extra, Fraction(k), 1
    else:
        for k in range(1, z_cap + 1):
            extra = Fraction(-j * k)
            if extra > order:
                return
            yield extra, Fraction(-k), -1


def appell_series(level: int, order, z_window=None) -> SparseSeries:
    out = SparseSeries(order)
    window = default_z_window(out.order) if z_window is None else z_window
    cap = window + level + int(2 * float(out.order)) + 8
    half_level = Fraction(level, 2)
    n = 0
    while True:
        placed = False
        for m in (n, -n - 1):
            base = Fraction(level * m * (m + 1), 2)
            floor_extra = Fraction(0) if m >= 0 else Fraction(-m)
            if base + floor_extra <= out.order:
                placed = True
                sign = -1 if (level * m) & 1 else 1
                for extra_q, extra_z, gsign in geometric_factor_terms(m, out.order - base, cap):
                    z_pow = half_level + extra_z
                    if abs(z_pow) <= window:
                        out.add_term(base + extra_q, z_pow, Fraction(m), GRat(Fraction(sign * gsign)))
        if not placed:
            return out
        n += 1


def chi_w_atypical_series(params, label, order, z_window=None) -> SparseSeries:
    n_rat = as_fraction(label.n_prime, "n_prime")
    out_order = as_fraction(order, "order")
    window = default_z_window(out_order) if z_window is None else z_window
    a, K, ell = params.a, params.K, params.ell
    j_max = int(2 * float(out_order) / K) + abs(label.ell_prime) + 2
    cap = window + (a + 1) * j_max + int(abs(float(n_rat))) + int(2 * float(out_order)) + 8
    lead = theta1_over_eta3_series(out_order).scaled(MINUS_I)
    body = SparseSeries(out_order)
    past_minimum = abs(label.ell_prime) + abs(2 * n_rat) + 1
    m = 0
    while True:
        placed = False
        for mm in (m, -m - 1):
            j = mm * ell + label.ell_prime
            base = Fraction(j) * (Fraction(j * K) + 2 * n_rat + 1) / 2
            floor_extra = Fraction(0) if j >= 0 else Fraction(-j)
            if base + floor_extra <= out_order:
                placed = True
                sign = -1 if j & 1 else 1
                for extra_q, extra_z, gsign in geometric_factor_terms(j, out_order - base, cap):
                    body.add_term(
                        base + extra_q,
                        Fraction(a * j) + n_rat + Fraction(1, 2) + extra_z,
                        Fraction(j),
                        GRat(Fraction(sign * gsign)),
                    )
        if not placed and m * ell > past_minimum:
            break
        m += 1
    return lead.mul(body, window)
