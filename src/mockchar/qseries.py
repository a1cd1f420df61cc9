"""Exact q-expansions: sparse trivariate series in q, z, y.

Exponents are rationals and coefficients Gaussian rationals, so expansions are
exact and comparable term by term.  Series of meromorphic objects (Appell sums,
atypical characters) are expanded in the region |q| < |z| < 1.

A SparseSeries holds integers only.  Its exponents are scaled by positive
integers dq, dz and dy, its coefficients by an integer dc, and its terms are
the dict {(q dq, z dz, y dy): (re dc, im dc)}.  Each expansion (theta1,
theta1/eta^3, the Appell sum and the atypical character's body) picks scales
that make every exponent an integer, accumulates its terms on them, adding a
term and dropping a key whose sum is zero in the order add_term would, and
returns that dict as it stands.  `SparseSeries.mul` brings both operands to
the lcms of their scales by integer factors and multiplies and accumulates the
integers pair by pair; `eval_at` reads the integers.

`terms` is the exact view, {(q_exp, z_pow, y_pow): GRat} with Fraction
exponents: built on first read, read-only, and rebuilt after add_term.
`sorted_items()` builds Fractions only for the items it returns.  Terms and
their dict order are those of the term-by-term Fraction expansions and of the
Fraction pair loop.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .domain import TWO_PI_I, AlgebraParams, AtypicalWLabel, as_complex, as_tau
from .errors import InvalidParameter, NonRationalExponents, UnsupportedObject

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


def _fractions(ns, d: int) -> dict:
    """{n: Fraction(n, d)} over the distinct n."""
    return {n: Fraction(n, d) for n in set(ns)}


class SparseSeries:
    """Finite sum of k * q^a z^b y^c terms, truncated at q-order <= `order`.

    Held as integers (see the module docstring): `ints` maps (a dq, b dz, c dy)
    to (Re k dc, Im k dc).  `terms` and `sorted_items()` are the exact view.
    """

    __slots__ = ("order", "dq", "dz", "dy", "dc", "ints", "_terms")

    def __init__(self, order, terms=None):
        self.order = as_fraction(order, "order")
        self.dq = self.dz = self.dy = self.dc = 1
        self.ints: dict = {}
        self._terms = None
        if terms:
            for key, coeff in terms.items():
                self.add_term(key[0], key[1], key[2], coeff)

    @classmethod
    def _of(cls, order: Fraction, ints: dict, dq: int, dz: int, dy: int, dc: int = 1) -> "SparseSeries":
        out = cls.__new__(cls)
        out.order, out.ints, out._terms = order, ints, None
        out.dq, out.dz, out.dy, out.dc = dq, dz, dy, dc
        return out

    def _scales(self) -> tuple:
        return self.dq, self.dz, self.dy, self.dc

    def _ints_on(self, dq: int, dz: int, dy: int, dc: int) -> dict:
        """ints on scales that are multiples of this series' own, in dict order."""
        fq, fz, fy, fc = dq // self.dq, dz // self.dz, dy // self.dy, dc // self.dc
        if fq == fz == fy == fc == 1:
            return self.ints
        return {(q * fq, z * fz, y * fy): (re * fc, im * fc) for (q, z, y), (re, im) in self.ints.items()}

    def _exact(self, items) -> list:
        """[(Fraction key, GRat)] for integer items; every distinct exponent and
        coefficient is built once and shared by the terms that have it."""
        fq = _fractions((q for (q, _, _), _ in items), self.dq)
        fz = _fractions((z for (_, z, _), _ in items), self.dz)
        fy = _fractions((y for (_, _, y), _ in items), self.dy)
        dc = self.dc
        coeffs = {c: GRat(Fraction(c[0], dc), Fraction(c[1], dc)) for c in {c for _, c in items}}
        return [((fq[q], fz[z], fy[y]), coeffs[c]) for (q, z, y), c in items]

    @property
    def terms(self):
        """{(q_exp, z_pow, y_pow): GRat} with Fraction exponents, in the order
        the terms were added: built on first read, read-only."""
        if self._terms is None:
            self._terms = MappingProxyType(dict(self._exact(list(self.ints.items()))))
        return self._terms

    def add_term(self, q_exp, z_pow, y_pow, coeff: GRat) -> None:
        q_exp = as_fraction(q_exp, "q_exp")
        if q_exp > self.order or coeff.is_zero:
            return
        z_pow = as_fraction(z_pow, "z_pow")
        y_pow = as_fraction(y_pow, "y_pow")
        scales = (
            math.lcm(self.dq, q_exp.denominator),
            math.lcm(self.dz, z_pow.denominator),
            math.lcm(self.dy, y_pow.denominator),
            math.lcm(self.dc, coeff.re.denominator, coeff.im.denominator),
        )
        if scales != self._scales():
            self.ints = self._ints_on(*scales)
            self.dq, self.dz, self.dy, self.dc = scales
        key = (_scaled(q_exp, self.dq), _scaled(z_pow, self.dz), _scaled(y_pow, self.dy))
        re, im = _scaled(coeff.re, self.dc), _scaled(coeff.im, self.dc)
        old = self.ints.get(key)
        if old is not None:
            re += old[0]
            im += old[1]
        if re or im:
            self.ints[key] = (re, im)
        else:
            del self.ints[key]
        self._terms = None

    def mul(self, other: "SparseSeries", z_window: int) -> "SparseSeries":
        """Product truncated at the lower order and to |z_pow| <= z_window.

        Pairs outside the order or the window are skipped before their
        coefficients are multiplied.  The integer pair loop adds and pops keys
        in the same sequence as add_term would, so terms and their dict order
        are those of the Fraction product.
        """
        order = min(self.order, other.order)
        dq = math.lcm(self.dq, other.dq)
        dz = math.lcm(self.dz, other.dz)
        dy = math.lcm(self.dy, other.dy)
        rows_a = [(*k, *c) for k, c in self._ints_on(dq, dz, dy, self.dc).items()]
        rows_b = [(*k, *c) for k, c in other._ints_on(dq, dz, dy, other.dc).items()]
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
        return SparseSeries._of(order, acc, dq, dz, dy, self.dc * other.dc)

    def scaled(self, coeff: GRat) -> "SparseSeries":
        """This series times coeff."""
        dc = math.lcm(coeff.re.denominator, coeff.im.denominator)
        cr, ci = _scaled(coeff.re, dc), _scaled(coeff.im, dc)
        ints = {k: (re * cr - im * ci, re * ci + im * cr) for k, (re, im) in self.ints.items()} if cr or ci else {}
        return SparseSeries._of(self.order, ints, self.dq, self.dz, self.dy, self.dc * dc)

    def sorted_items(self):
        """The exact (key, GRat) items sorted by key; the scales are positive,
        so the integer keys sort as the Fraction ones."""
        return self._exact(sorted(self.ints.items()))

    def eval_at(self, u, v, tau) -> complex:
        uu = as_complex(u)
        vv = as_complex(v)
        tt = as_tau(tau)
        dq, dz, dy, dc = self._scales()
        acc = 0.0 + 0.0j
        # n / d is float(Fraction(n, d)): both round the same rational once
        for (q, z, y), (re, im) in self.ints.items():
            acc += complex(re / dc, im / dc) * cmath.exp(TWO_PI_I * (q / dq * tt + z / dz * uu + y / dy * vv))
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseSeries) or len(self.ints) != len(other.ints):
            return False
        scales = [math.lcm(a, b) for a, b in zip(self._scales(), other._scales())]
        return self._ints_on(*scales) == other._ints_on(*scales)

    def __len__(self) -> int:
        return len(self.ints)


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
            return SparseSeries._of(order, {k: (0, c) for k, c in acc.items()}, 8, 2, 1)
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
            return SparseSeries._of(order, {k: (0, c) for k, c in acc.items()}, 1, 2, 1)
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
            return SparseSeries._of(order, {k: (c, 0) for k, c in acc.items()}, 1, 2, 1)
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
    half = _scaled(n_rat, d) + d // 2  # (n' + 1/2) d
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
    body = SparseSeries._of(out_order, {k: (c, 0) for k, c in acc.items()}, d, d, 1)
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
