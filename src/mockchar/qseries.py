"""Exact q-expansions: sparse trivariate series in q, z, y.

Exponents are Fractions, coefficients are Gaussian rationals, so expansions are
exact and comparable term by term.  Series of meromorphic objects (Appell sums,
atypical characters) are expanded in the region |q| < |z| < 1.

The series are built on integers.  Each expansion (theta1, theta1/eta^3, the
Appell sum and the atypical character's body) scales the exponents by the lcm
of their denominators, accumulates integer keys (q dq, z dz, y dy) with integer
coefficients, adding a term and dropping a key whose sum is zero in the order
add_term would, and converts once at the end.  Products do the same:
`SparseSeries.mul` scales both operands' exponents by common lcms and each
operand's coefficients by the lcm of its coefficient denominators, and
multiplies and accumulates the scaled integers pair by pair.  One helper turns
every integer form into a SparseSeries, building each distinct exponent
Fraction and coefficient once.  Terms and their dict order are those of the
term-by-term Fraction expansions and of the Fraction pair loop.
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


def _scaled(x: Fraction, d: int) -> int:
    """floor(x * d), which is x * d where the denominator of x divides d.  An
    exponent e scaled by d is <= x * d if and only if it is <= this."""
    return x.numerator * d // x.denominator


def _scaled_rows(terms: dict, dq: int, dz: int, dy: int):
    """Terms as integer rows (q*dq, z*dz, y*dy, re*c, im*c), and c, the lcm of
    their coefficient denominators."""
    c = math.lcm(*(d for coeff in terms.values() for d in (coeff.re.denominator, coeff.im.denominator)))
    rows = [
        (_scaled(q, dq), _scaled(z, dz), _scaled(y, dy), _scaled(coeff.re, c), _scaled(coeff.im, c))
        for (q, z, y), coeff in terms.items()
    ]
    return rows, c


class _Memo(dict):
    """make(key) for each distinct key, computed once and then looked up."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _from_scaled(order: Fraction, acc: dict, dq: int, dz: int, dy: int, coeff) -> "SparseSeries":
    """The series whose terms are those of acc, {(q dq, z dz, y dy): c}, in
    acc's order, each with coefficient coeff(c).  Every distinct exponent
    Fraction and coefficient is built once and shared by the terms that have
    it; both are immutable."""
    fq = _Memo(lambda n: Fraction(n, dq))
    fz = _Memo(lambda n: Fraction(n, dz))
    fy = _Memo(lambda n: Fraction(n, dy))
    fc = _Memo(coeff)
    out = SparseSeries(order)
    out.terms = {(fq[q], fz[z], fy[y]): fc[c] for (q, z, y), c in acc.items()}
    return out


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
        order = min(self.order, other.order)
        keys = [*self.terms, *other.terms]
        dq = math.lcm(*(q.denominator for q, _, _ in keys))
        dz = math.lcm(*(z.denominator for _, z, _ in keys))
        dy = math.lcm(*(y.denominator for _, _, y in keys))
        rows_a, ca = _scaled_rows(self.terms, dq, dz, dy)
        rows_b, cb = _scaled_rows(other.terms, dq, dz, dy)
        q_max = _scaled(order, dq)
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
        fc = _Memo(lambda n: Fraction(n, c))
        return _from_scaled(order, acc, dq, dz, dy, lambda v: GRat(fc[v[0]], fc[v[1]]))

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


def _add(acc: dict, key: tuple, c: int) -> None:
    """add_term on integer keys: add c at key, and drop the key once its sum is zero."""
    if not c:
        return
    old = acc.get(key)
    if old is None:
        acc[key] = c
    elif old + c:
        acc[key] = old + c
    else:
        del acc[key]


def _real(c: int) -> GRat:
    return GRat(Fraction(c))


def _imag(c: int) -> GRat:
    return GRat(Fraction(0), Fraction(c))


def theta1_series(order) -> SparseSeries:
    """-i sum_n (-1)^n q^{(n+1/2)^2/2} z^{n+1/2}, on keys (8 q, 2 z, y)."""
    order = as_fraction(order, "order")
    q_max = _scaled(order, 8)
    acc: dict = {}
    n = 0
    while True:
        placed = False
        for m in (n, -n - 1):
            h2 = 2 * m + 1
            if h2 * h2 <= q_max:
                _add(acc, (h2 * h2, h2, 0), 1 if m & 1 else -1)
                placed = True
        if not placed:
            return _from_scaled(order, acc, 8, 2, 1, _imag)
        n += 1


def eta3_inverse_qcoeffs(n_max: int) -> list:
    """Integer-power coefficients of q^{1/8}/eta^3 through q^{n_max}: the
    inverse of eta^3 q^{-1/8} = sum_k (-1)^k (2k+1) q^{k(k+1)/2}."""
    jac = []  # (k(k+1)/2, (-1)^k (2k+1)) for k >= 1
    k = 1
    while k * (k + 1) // 2 <= n_max:
        jac.append((k * (k + 1) // 2, -(2 * k + 1) if k & 1 else 2 * k + 1))
        k += 1
    inv = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        inv[n] = -sum(c * inv[n - t] for t, c in jac if t <= n)
    return inv


def theta1_over_eta3_series(order) -> SparseSeries:
    """theta1/eta^3 = -i sum_n (-1)^n q^{n(n+1)/2} z^{n+1/2} q^{1/8}/eta^3, on
    keys (q, 2 z, y): every q exponent is an integer."""
    order = as_fraction(order, "order")
    q_max = _scaled(order, 1)
    acc: dict = {}
    inv = eta3_inverse_qcoeffs(q_max)
    m = 0
    while True:
        placed = False
        for n in (m, -m - 1):
            base = n * (n + 1) // 2  # (n+1/2)^2/2 - 1/8
            if base <= q_max:
                placed = True
                sign = -1 if n & 1 else 1
                for j in range(q_max - base + 1):
                    _add(acc, (base + j, 2 * n + 1, 0), -sign * inv[j])
        if not placed:
            return _from_scaled(order, acc, 1, 2, 1, _imag)
        m += 1


def default_z_window(order) -> int:
    return max(32, int(2 * float(order)) + 8)


def _add_lerch_terms(acc: dict, j: int, base: int, z0: int, c: int, q_max: int, dq: int, dz: int,
                     cap: int, z_max=None) -> None:
    """Add c q^base z^z0 y^j / (1 - z q^j), expanded in |q| < |z| < 1, to acc:
    c sum_{k >= 0} z^k q^{jk} for j >= 0, -c sum_{k >= 1} z^{-k} q^{-jk} for
    j < 0.  base and q_max are scaled by dq, z0 and z_max by dz; k stops at
    cap or past q_max, and terms with |z| > z_max are left out."""
    if j >= 0:
        k_lo, q_step, z_step = 0, j * dq, dz
    else:
        k_lo, q_step, z_step, c = 1, -j * dq, -dz, -c
    k_hi = min(cap, (q_max - base) // q_step) if q_step else cap
    for k in range(k_lo, k_hi + 1):
        z = z0 + k * z_step
        if z_max is None or abs(z) <= z_max:
            _add(acc, (base + k * q_step, z, j), c)


def appell_series(level: int, order, z_window: int | None = None) -> SparseSeries:
    """q-expansion of the level-`level` Appell sum in the region |q| < |z| < 1.

    Coefficients are exact for |z_pow| <= z_window; higher z-powers (the sum has
    infinitely many per q-order) are dropped.  Keys are (q, 2 z, y): every q
    exponent is an integer.
    """
    if level <= 0:
        raise InvalidParameter("level must be a positive integer")
    order = as_fraction(order, "order")
    window = default_z_window(order) if z_window is None else z_window
    cap = window + level + int(2 * float(order)) + 8
    q_max = _scaled(order, 1)
    acc: dict = {}
    n = 0
    while True:
        placed = False
        for m in (n, -n - 1):
            base = level * m * (m + 1) // 2
            if base + max(-m, 0) <= q_max:
                placed = True
                sign = -1 if (level * m) & 1 else 1
                _add_lerch_terms(acc, m, base, level, sign, q_max, 1, 2, cap, 2 * window)
        if not placed:
            return _from_scaled(order, acc, 1, 2, 1, _real)
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

    Needs rational n' so the exponents stay exact.  The body
    sum_j (-1)^j q^{j(jK/2 + n' + 1/2)} z^{aj + n' + 1/2} y^j / (1 - z q^j) is
    built on keys (d q, d z, y) with d = lcm(2, denominator of n'), which
    makes every exponent an integer, and then multiplied by -i theta1/eta^3.
    """
    n_rat = as_fraction(label.n_prime, "n_prime")
    out_order = as_fraction(order, "order")
    window = default_z_window(out_order) if z_window is None else z_window
    a, K, ell = params.a, params.K, params.ell
    j_max = int(2 * float(out_order) / K) + abs(label.ell_prime) + 2
    cap = window + (a + 1) * j_max + int(abs(float(n_rat))) + int(2 * float(out_order)) + 8
    lead = _atypical_lead(out_order)

    d = math.lcm(2, n_rat.denominator)
    half = _scaled(n_rat + Fraction(1, 2), d)  # (n' + 1/2) d
    q_max = _scaled(out_order, d)
    acc: dict = {}
    # The leading q exponent base + max(-j, 0) is convex in j with its
    # minimum at |j| <= |2n'| + 1, and m walks j outwards on both sides; a
    # pass that places nothing ends the loop only once both j are past that
    # minimum, as an empty pass before it can still be followed by terms.
    past_minimum = abs(label.ell_prime) + abs(2 * n_rat) + 1
    m = 0
    while True:
        placed = False
        for mm in (m, -m - 1):
            j = mm * ell + label.ell_prime
            base = j * (j * K * (d // 2) + half)  # j (jK/2 + n' + 1/2) d
            if base + max(-j, 0) * d <= q_max:
                placed = True
                # (-1)^j from (-y z^a)^j
                _add_lerch_terms(acc, j, base, a * j * d + half, -1 if j & 1 else 1, q_max, d, d, cap)
        if not placed and m * ell > past_minimum:
            break
        m += 1
    return lead.mul(_from_scaled(out_order, acc, d, d, 1, _real), window)


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
