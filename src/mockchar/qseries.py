"""Exact q-expansions: sparse trivariate series in q, z, y.

Exponents are Fractions, coefficients are Gaussian rationals, so expansions are
exact and comparable term by term.  Series of meromorphic objects (Appell sums,
atypical characters) are expanded in the region |q| < |z| < 1.

Products run on integers: `SparseSeries.mul` scales every exponent by the lcm
of the exponent denominators of both operands (and of the output order), and
each operand's coefficients by the lcm of that operand's coefficient
denominators.  It multiplies and accumulates the scaled integers pair by pair
and builds the Fraction keys and GRat coefficients once per surviving term.
The result, dict order included, is that of the Fraction pair loop.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .domain import TWO_PI_I, AlgebraParams, AtypicalWLabel, as_complex, as_tau
from .errors import InvalidParameter, NonRationalExponents, UnsupportedObject

Key = tuple  # (q_exp, z_pow, y_pow), all Fraction

_MAX_DEN = 1 << 20


def as_fraction(x, what: str = "value") -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        f = Fraction(x)
        if f.denominator > _MAX_DEN:
            raise NonRationalExponents("%s=%r is not a small rational" % (what, x))
        return f
    if isinstance(x, complex):
        if x.imag != 0.0:
            raise NonRationalExponents("%s=%r has nonzero imaginary part" % (what, x))
        return as_fraction(x.real, what)
    raise NonRationalExponents("cannot interpret %s=%r as a rational" % (what, x))


@dataclass(frozen=True)
class GRat:
    """Gaussian rational re + im*i."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other: "GRat") -> "GRat":
        return GRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GRat") -> "GRat":
        return GRat(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GRat") -> "GRat":
        return GRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GRat":
        return GRat(-self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        imag = "%si" % self.im if self.im > 0 else "-%si" % (-self.im)
        if self.re == 0:
            return imag
        sign = "+" if self.im > 0 else "-"
        return "%s%s%si" % (self.re, sign, abs(self.im))


MINUS_I = GRat(Fraction(0), Fraction(-1))


def _scaled(x, d: int) -> int:
    """x * d for a rational x whose denominator divides d."""
    return x.numerator * (d // x.denominator)


def _scaled_rows(terms: dict, dq: int, dz: int, dy: int):
    """Terms as integer rows (q*dq, z*dz, y*dy, re*c, im*c), and c, the lcm of
    their coefficient denominators."""
    c = math.lcm(*(d for coeff in terms.values() for d in (coeff.re.denominator, coeff.im.denominator)))
    rows = [
        (_scaled(q, dq), _scaled(z, dz), _scaled(y, dy), _scaled(coeff.re, c), _scaled(coeff.im, c))
        for (q, z, y), coeff in terms.items()
    ]
    return rows, c


class SparseSeries:
    """Finite sum of c * q^a z^b y^c terms, truncated at q-order <= `order`."""

    __slots__ = ("terms", "order")

    def __init__(self, order, terms=None):
        self.order = as_fraction(order, "order")
        self.terms: dict = {}
        if terms:
            for key, coeff in terms.items():
                self.add_term(key[0], key[1], key[2], coeff)

    def add_term(self, q_exp, z_pow, y_pow, coeff: GRat) -> None:
        q_exp = as_fraction(q_exp, "q_exp")
        if q_exp > self.order or coeff.is_zero:
            return
        key = (q_exp, as_fraction(z_pow, "z_pow"), as_fraction(y_pow, "y_pow"))
        acc = self.terms.get(key)
        new = coeff if acc is None else acc + coeff
        if new.is_zero:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def mul(self, other: "SparseSeries", z_window: int) -> "SparseSeries":
        """Product truncated at the lower order and to |z_pow| <= z_window.

        Pairs outside the order or the window are skipped before their
        coefficients are multiplied.  The integer pair loop (see the module
        docstring) adds and pops keys in the same sequence as add_term would,
        so terms and their dict order are those of the Fraction product.
        """
        out = SparseSeries(min(self.order, other.order))
        keys = [*self.terms, *other.terms]
        dq = math.lcm(out.order.denominator, *(q.denominator for q, _, _ in keys))
        dz = math.lcm(*(z.denominator for _, z, _ in keys))
        dy = math.lcm(*(y.denominator for _, _, y in keys))
        rows_a, ca = _scaled_rows(self.terms, dq, dz, dy)
        rows_b, cb = _scaled_rows(other.terms, dq, dz, dy)
        q_max = _scaled(out.order, dq)
        z_max = z_window * dz
        acc: dict = {}
        for qa, za, ya, ra, ia in rows_a:
            for qb, zb, yb, rb, ib in rows_b:
                qe = qa + qb
                if qe > q_max:
                    continue
                ze = za + zb
                if abs(ze) > z_max:
                    continue
                re = ra * rb - ia * ib
                im = ra * ib + ia * rb
                key = (qe, ze, ya + yb)
                old = acc.get(key)
                if old is not None:
                    re += old[0]
                    im += old[1]
                if re or im:
                    acc[key] = (re, im)
                elif old is not None:
                    del acc[key]
        c = ca * cb
        out.terms = {
            (Fraction(qe, dq), Fraction(ze, dz), Fraction(ye, dy)): GRat(Fraction(re, c), Fraction(im, c))
            for (qe, ze, ye), (re, im) in acc.items()
        }
        return out

    def scaled(self, coeff: GRat) -> "SparseSeries":
        out = SparseSeries(self.order)
        for key, c in self.terms.items():
            out.add_term(*key, c * coeff)
        return out

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2]))

    def eval_at(self, u, v, tau) -> complex:
        uu = as_complex(u)
        vv = as_complex(v)
        tt = as_tau(tau)
        acc = 0.0 + 0.0j
        for (qe, zp, yp), coeff in self.terms.items():
            acc += coeff.to_complex() * cmath.exp(
                TWO_PI_I * (float(qe) * tt + float(zp) * uu + float(yp) * vv)
            )
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseSeries) and self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)


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
    """Integer-power coefficients of q^{1/8}/eta^3 through q^{n_max}."""
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
            base = Fraction(n * (n + 1), 2)  # (n+1/2)^2/2 - 1/8
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


def default_z_window(order) -> int:
    return max(32, int(2 * float(order)) + 8)


def _geometric_factor_terms(j: int, order, z_cap: int):
    """Yield (extra_q, extra_z, sign) for the expansion of 1/(1 - z q^j), |q|<|z|<1."""
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


def appell_series(level: int, order, z_window: int | None = None) -> SparseSeries:
    """q-expansion of the level-`level` Appell sum in the region |q| < |z| < 1.

    Coefficients are exact for |z_pow| <= z_window; higher z-powers (the sum has
    infinitely many per q-order) are dropped.
    """
    if level <= 0:
        raise InvalidParameter("level must be a positive integer")
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
                for extra_q, extra_z, gsign in _geometric_factor_terms(m, out.order - base, cap):
                    z_pow = half_level + extra_z
                    if abs(z_pow) <= window:
                        out.add_term(base + extra_q, z_pow, Fraction(m), GRat(Fraction(sign * gsign)))
        if not placed:
            return out
        n += 1


@lru_cache(maxsize=32)
def _atypical_lead(order: Fraction) -> SparseSeries:
    """-i theta1/eta^3 to `order`: the label-independent factor of every
    atypical character.  Shared between calls; `mul` leaves it unchanged."""
    return theta1_over_eta3_series(order).scaled(MINUS_I)


def chi_w_atypical_series(
    params: AlgebraParams, label: AtypicalWLabel, order, z_window: int | None = None
) -> SparseSeries:
    """Expansion of the atypical character, exact for |z_pow| <= z_window.

    Needs rational n' so the exponents stay exact.
    """
    n_rat = as_fraction(label.n_prime, "n_prime")
    out_order = as_fraction(order, "order")
    window = default_z_window(out_order) if z_window is None else z_window
    a, K, ell = params.a, params.K, params.ell
    j_max = int(2 * float(out_order) / K) + abs(label.ell_prime) + 2
    cap = window + (a + 1) * j_max + int(abs(float(n_rat))) + int(2 * float(out_order)) + 8
    lead = _atypical_lead(out_order)

    body = SparseSeries(out_order)
    # The leading q exponent base + floor_extra is convex in j with its
    # minimum at |j| <= |2n'| + 1, and m walks j outwards on both sides; a
    # pass that places nothing ends the loop only once both j are past that
    # minimum, as an empty pass before it can still be followed by terms.
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
                sign = -1 if j & 1 else 1  # (-1)^j from (-y z^a)^j
                for extra_q, extra_z, gsign in _geometric_factor_terms(j, out_order - base, cap):
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


def qexpand(
    obj: str,
    order,
    *,
    level: int | None = None,
    params: AlgebraParams | None = None,
    label: AtypicalWLabel | None = None,
    z_window: int | None = None,
) -> SparseSeries:
    """Expansion registry used by the CLI and the series tests."""
    name = obj.strip().lower()
    if name == "theta1":
        return theta1_series(order)
    if name in ("eta_inv_cubed_theta1", "theta1_over_eta3"):
        return theta1_over_eta3_series(order)
    if name in ("a_k", "ak", "appell"):
        if level is None:
            raise InvalidParameter("appell expansion needs the level")
        return appell_series(level, order, z_window)
    if name in ("chi_w_atypical", "chi_atypical"):
        if params is None or label is None:
            raise InvalidParameter("character expansion needs algebra params and a label")
        return chi_w_atypical_series(params, label, order, z_window)
    raise UnsupportedObject("no q-expansion for object %r" % obj)
