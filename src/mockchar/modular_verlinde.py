"""Modular S/T data and Verlinde-type structure for the W-algebra characters.

The atypical sector is finite: ell*ell labels (t/ell, t') with t, t' drawn
from a centered window S.  The typical sector lives on label curves
(a_r(x), e_r(x)) indexed by a lattice window M of size ell^2*K and a real
coordinate x.  S-matrix entries are provided in two normalizations, one for
real labels (m, e) and one for curve points (r, x), together with numerical
checks of the S- and T-transformation laws, unitarity, and the product
structure the S-matrix induces.

Every curve label e_r(0) is read from characters.curve_e0 in integers, and
every typical curve carries the same Gaussian drift B in x, so the typical
expansions take one closed-form Gaussian integral.  The atypical S-transform
and the double S read one character vector (the atypical characters, the
curve prefactors C_r and B) and apply one atypical S-row to it; each curve
term of that row, and of the rank-one atypical lemma, is one curve line
integral: a kernel line integral of one Gaussian (kernel._pole_line).

Every check returns a plain dict with ``lhs``/``rhs``/``abs_err``/``rel_err``
style keys so callers can apply their own tolerances.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .characters import (
    chi_regularized,
    chi_w_atypical,
    chi_w_typical,
    chi_w_typical_curve,
    curve_drift,
    curve_e0,
    curve_prefactor,
)
from .domain import (
    DEFAULT_QUAD,
    POLE_CLEARANCE,
    TWO_PI_I,
    AlgebraParams,
    AtypicalWLabel,
    RegulatorSpec,
    TypicalWLabel,
    as_complex,
    as_tau,
    floor_re,
    identity_report,
    rel_err,
)
from .errors import (
    IndexOutOfRange,
    InvalidParameter,
    SingularEntry,
)
from .kernel import _pole_line

__all__ = [
    "AT_BLOCK_SIGN",
    "DEF_AM_VARIANT",
    "DEF_AM_VARIANTS",
    "LEMMA_HALF_SIGN",
    "S_AT_PARITY",
    "SINGULAR_CONTOUR_SIDE",
    "T_PHASE_VARIANT",
    "IndexSets",
    "StructureConstant",
    "fusion_target",
    "index_sets",
    "lemma_trafoatyp_check",
    "lemma_trafotypchar_check",
    "s_compose_check",
    "s_entry_aa",
    "s_entry_at",
    "s_entry_consistency_check",
    "s_entry_tt",
    "s_periodicity_check",
    "s_transform_atypical_check",
    "s_transform_typical_check",
    "structure_constant",
    "structure_constant_weak_check",
    "t_transform_check",
    "unitarity_aa_check",
    "unitarity_tt_weak_check",
    "verlinde_product_aa",
    "verlinde_product_at",
]

# Numerical conventions, frozen after arbitrating each one against the
# transformation laws themselves.  Each constant is its convention's only
# switch: the checks read it at call time and take no keyword for it, and the
# convention tests set each one to its losing value and demand that the
# matching check fail.  The one exception is DEF_AM_VARIANT: it is the
# default of lemma_trafotypchar_check's phase_variant, which verify varies.
#
#   S_AT_PARITY       the atypical-to-typical entries carry (-1)^floor(Re e);
#                     without it the entry flips sign under r -> r + ell*K
#                     while the attached character does not, so the lattice
#                     window would not be well defined.
#   AT_BLOCK_SIGN     overall sign of the typical integral block in the
#                     atypical S-transformation.
#   LEMMA_HALF_SIGN   sign of the 1/2 in front of the cosh-kernel integral in
#                     the rank-one transformation lemma.
#   SINGULAR_CONTOUR_SIDE  which side of a kernel pole on the real axis the
#                     x-contour passes: +1.0 above, -1.0 below, 0.0 neither
#                     (the principal value).  Such a row is integrated on R
#                     as the principal value plus side times the half-residue
#                     (kernel._pole_line), which holds at every Im tau.
#   T_PHASE_VARIANT   "K" uses (a-r)^2/K in the typical T-phase; "K2" keeps
#                     (a-r)^2/K^2.  Only "K" is consistent with tau -> tau + 1
#                     applied directly to the character.
#   DEF_AM_VARIANT    resolved reading of the quadratic term in the phase
#                     A_{m'}(w) of the typical transformation lemma.
#   S_TT_QUARTER_TERM constant term of the typical-typical phase, shared by
#                     both entry normalizations and by A_{m'} of the typical
#                     lemma.  With +1/4 every typical S-identity fails by a
#                     uniform overall sign at all tested ranks; -1/4 restores
#                     them.
S_AT_PARITY = True
AT_BLOCK_SIGN = 1.0
LEMMA_HALF_SIGN = 1.0
SINGULAR_CONTOUR_SIDE = 1.0
T_PHASE_VARIANT = "K"
DEF_AM_VARIANT = "mp+1/2,m+1/2"
S_TT_QUARTER_TERM = -0.25

DEF_AM_VARIANTS = ("mp+1/2,m+1/2", "mp+1/2,m-1/2", "mp+1/2,m/2", "mp-1/2,m+1/2")


# ---------------------------------------------------------------------------
# index sets and labels


@dataclass(frozen=True)
class IndexSets:
    """Atypical window S (ell integers) and typical lattice window M
    (ell^2*K points of (1/ell)Z, right-closed around zero)."""

    params: AlgebraParams
    s_values: tuple
    m_values: tuple

    def __post_init__(self):
        if len(self.s_values) != self.params.ell:
            raise InvalidParameter("S must contain exactly ell integers")
        if len(self.m_values) != self.params.ell**2 * self.params.K:
            raise InvalidParameter("M must contain exactly ell^2*K points")


def index_sets(params: AlgebraParams) -> IndexSets:
    ell, K = params.ell, params.K
    s_values = tuple(range(-(ell // 2), -(ell // 2) + ell))
    count = ell * ell * K
    p_start = -(count // 2) + (1 if count % 2 == 0 else 0)
    m_values = tuple(Fraction(p, ell) for p in range(p_start, p_start + count))
    return IndexSets(params, s_values, m_values)


def _require_in_s(ell: int, value, name: str) -> int:
    v = int(value)
    if v != value:
        raise IndexOutOfRange("%s must be an integer, got %r" % (name, value))
    if not (-ell <= 2 * v < ell):
        raise IndexOutOfRange("%s=%d outside the window -ell/2 <= %s < ell/2" % (name, v, name))
    return v


def _require_s_pair(params: AlgebraParams, pair) -> tuple:
    t, tp = pair
    return _require_in_s(params.ell, t, "t"), _require_in_s(params.ell, tp, "t'")


def _coerce_m(params: AlgebraParams, m, name: str = "m", window: bool = False) -> Fraction:
    """Coerce a typical lattice label to (1/ell)Z; window=True additionally
    demands membership in the centered window M (curve rows of the
    S-transformation live there, generic (m, e) labels need not)."""
    ell, K = params.ell, params.K
    mf = Fraction(m)
    p = mf * ell
    if p.denominator != 1:
        raise IndexOutOfRange("%s=%s is not in (1/ell)Z" % (name, mf))
    if window:
        p = int(p)
        count = ell * ell * K
        if not (-count < 2 * p <= count):
            raise IndexOutOfRange("%s=%s outside the lattice window M" % (name, mf))
    return mf


def _m_window(params: AlgebraParams, m: Fraction) -> tuple:
    """Translate m by multiples of ell*K into M; returns (representative, eps)."""
    ell, K = params.ell, params.K
    count = ell * ell * K
    p = m * ell
    if p.denominator != 1:
        raise IndexOutOfRange("label %s is not in (1/ell)Z" % (m,))
    p = int(p)
    eps = 0
    while 2 * p > count:
        p -= count
        eps -= 1
    while 2 * p <= -count:
        p += count
        eps += 1
    return Fraction(p, ell), eps


@dataclass(frozen=True)
class StructureConstant:
    """Symbolic Verlinde coefficient: a Kronecker condition on the lattice
    window plus the argument of a Dirac delta in the continuous label.
    The coefficient is never collapsed to a bare number."""

    kronecker_satisfied: bool
    delta_argument: complex
    row: tuple
    col: tuple
    col2: tuple

    @property
    def is_nonzero(self) -> bool:
        return self.kronecker_satisfied and abs(self.delta_argument) <= 1e-12


# ---------------------------------------------------------------------------
# raw entries


def _parity(e_real: float) -> float:
    return -1.0 if (math.floor(e_real) & 1) else 1.0


def _s_aa_raw(params: AlgebraParams, row, col) -> complex:
    t, tp = row
    s, sp = col
    ell = params.ell
    return cmath.exp(-TWO_PI_I * (tp * s + sp * t) / ell) / ell


def _s_at_raw(params: AlgebraParams, row, r, e: complex, parity_sign: float) -> complex:
    """(1/2ell) * parity * e^{2 pi i (t' r - e t/ell)} / sin(pi e).

    ``parity_sign`` is locked by the caller to the real-axis value of e so
    the entry stays analytic in x.
    """
    t, tp = row
    ell = params.ell
    phase = cmath.exp(TWO_PI_I * (tp * float(r) - e * (t / ell)))
    return parity_sign * phase / (2.0 * ell * cmath.sin(math.pi * e))


def _s_at_curve_const(params: AlgebraParams, row, r) -> tuple:
    """(C, f) with S_at(row; r, x) = C e^{-2 pi x t/ell} / sin(pi(f - ix)) on
    the curve e = e0 - ix, e0 = e_r(0), f = e0 mod 1 (0 on a singular row).

    The parity sign (-1)^floor(e0) cancels that of sin(pi(e0 - ix)), and the
    phase of C = e^{2 pi i (t' r - e0 t/ell)} / 2ell is reduced mod 1 exactly,
    so r -> r + j*ell*K and t' -> t' + j*ell change no bit of the entry.
    With S_AT_PARITY off (the rejected convention) C carries (-1)^floor(e0)."""
    t, tp = int(row[0]), int(row[1])
    num, den = curve_e0(params, r)
    # r = a + K/2 - K e0, so t' r - e0 t/ell = t'/2 - e0 (K ell t' + t)/ell mod 1, in integers
    turns_den = den * params.ell
    turns = (tp * (turns_den // 2) - num * (params.K * params.ell * tp + t)) % turns_den / turns_den
    const = cmath.exp(TWO_PI_I * turns) / (2.0 * params.ell)
    if not S_AT_PARITY and (num // den) & 1:
        const = -const
    return const, num % den / den


def _s_at_curve(params: AlgebraParams, row, r, x: complex) -> complex:
    """S_at(row; r, x) at the curve point (r, x), with the parity sign."""
    const, f = _s_at_curve_const(params, row, r)
    sin = cmath.sin(math.pi * (f - 1j * x))
    if abs(sin) < POLE_CLEARANCE:
        raise SingularEntry("curve point (r=%s, x=%r) sits on a pole of 1/sin" % (r, x))
    return const * cmath.exp(-2.0 * math.pi * x * row[0] / params.ell) / sin


def _s_tt_curve_const(params: AlgebraParams, r, c) -> complex:
    """S_tt((r, 0), (c, 0)) = sign e^{2 pi i (R - 1/4)} / ell, with the phase
    reduced exactly.

    The zero-drift identity K e_c(0) + c - 2a - 1/2 = 0 (and its twin for r)
    removes every term of the exponent linear in x or w and leaves the
    rational constant R = -K e_r(0) e_c(0).  The parity sign
    (-1)^{floor e_r(0) + floor e_c(0)} is half a turn per unit.  Both are
    taken mod 1 in integers, so r -> r + j*ell*K on either slot changes no
    bit of the entry."""
    nr, dr = curve_e0(params, r)
    nc, dc = curve_e0(params, c)
    den = dr * dc  # even, as dr is
    turns = (-params.K * nr * nc + (nr // dr + nc // dc) * (den // 2)) % den / den
    return cmath.exp(TWO_PI_I * (turns + S_TT_QUARTER_TERM)) / params.ell


def _s_tt_curve_raw(params: AlgebraParams, r, x: complex, c, w: complex) -> complex:
    """Curve-normalized typical-typical entry S_tt((r, 0), (c, 0)) e^{-2 pi i K x w}."""
    return _s_tt_curve_const(params, r, c) * cmath.exp(-TWO_PI_I * params.K * (x * w))


def _s_tt_real_raw(params: AlgebraParams, col, col2) -> complex:
    m, e = col
    m2, e2 = col2
    K, ell = params.K, params.ell
    sign = -1.0 if (floor_re(e) + floor_re(e2)) & 1 else 1.0
    ee = as_complex(e)
    ee2 = as_complex(e2)
    expo = ee * K * ee2 - ee * (float(m2) - 0.5) - ee2 * (float(m) - 0.5) + S_TT_QUARTER_TERM
    return sign * cmath.exp(TWO_PI_I * expo) / ell


# ---------------------------------------------------------------------------
# public entries


def s_entry_aa(params: AlgebraParams, row, col) -> complex:
    return _s_aa_raw(params, _require_s_pair(params, row), _require_s_pair(params, col))


def s_entry_at(params: AlgebraParams, row, label, label_kind: str = "m") -> complex:
    """Atypical-to-typical entry.

    ``label_kind="m"``: label = (m, e) with m in M and e the real (or complex)
    typical coordinate; the window index is r = 2a - m.
    ``label_kind="r"``: label = (r, x) is a curve point; e = e_r(x) and the
    parity sign is locked to the real-axis value e_r(0).
    """
    row = _require_s_pair(params, row)
    if label_kind == "m":
        m, e = label
        mf = _coerce_m(params, m)
        r = 2 * params.a - mf
        ee = as_complex(e)
        if ee.imag == 0.0 and abs(ee.real - round(ee.real)) < POLE_CLEARANCE:
            raise SingularEntry("sin(pi e) vanishes at integer e=%r" % e)
        sign = _parity(ee.real) if S_AT_PARITY else 1.0
        return _s_at_raw(params, row, r, ee, sign)
    if label_kind == "r":
        r, x = label
        return _s_at_curve(params, row, Fraction(r), as_complex(x))
    raise InvalidParameter("label_kind must be 'm' or 'r'")


def s_entry_tt(params: AlgebraParams, col, col2) -> complex:
    """Typical-typical entry in the real-label normalization.

    Labels are (m, e) pairs; e may be complex, parities use floor of the real
    part.  For real labels the entry has modulus 1/ell."""
    m, e = col
    m2, e2 = col2
    mf = _coerce_m(params, m)
    mf2 = _coerce_m(params, m2, "m'")
    return _s_tt_real_raw(params, (mf, e), (mf2, e2))


def s_entry_consistency_check(params: AlgebraParams, r, x, c, w) -> dict:
    """Curve and real-label normalizations agree after the dictionary
    m = 2a - r, e = e_r(x): the curve entry is the real-label entry times
    e^{-2 pi i (e + e')}, and the at-entries coincide verbatim."""
    a = params.a
    rf = Fraction(r)
    cf = Fraction(c)
    xx, ww = as_complex(x), as_complex(w)
    (nr, dr), (nc, dc) = curve_e0(params, rf), curve_e0(params, cf)
    e_r = nr / dr - 1j * xx
    e_c = nc / dc - 1j * ww
    curve = _s_tt_curve_raw(params, rf, xx, cf, ww)
    real = _s_tt_real_raw(params, (2 * a - rf, e_r), (2 * a - cf, e_c))
    bridged = real * cmath.exp(-TWO_PI_I * (e_r + e_c))
    tt_err = abs(curve - bridged)

    row = (0, 0)
    at_curve = s_entry_at(params, row, (rf, x), label_kind="r")
    at_real = s_entry_at(params, row, (2 * a - rf, e_r), label_kind="m")
    at_err = abs(at_curve - at_real)
    return {
        "check": "s_entry_consistency",
        "tt_abs_err": tt_err,
        "at_abs_err": at_err,
        "max_abs_err": max(tt_err, at_err),
    }


# ---------------------------------------------------------------------------
# quadrature helpers


def _uv(args) -> tuple:
    u, v = args
    return as_complex(u), as_complex(v)


def _gaussian_integral(alpha: complex, beta: complex) -> complex:
    """int_R e^{-alpha w^2 + beta w} dw = sqrt(pi/alpha) e^{beta^2/(4 alpha)}.

    Needs Re alpha > 0 (principal square root).  The curve Gaussians have
    alpha = -pi i tau K, with Re alpha = pi K Im tau."""
    return cmath.sqrt(math.pi / alpha) * cmath.exp(beta * beta / (4.0 * alpha))


def _dist_to_integers(y: float) -> float:
    return abs(((y + 0.5) % 1.0) - 0.5)


# ---------------------------------------------------------------------------
# S-transformation checks


def _character_vector(params: AlgebraParams, u: complex, v: complex, tau: complex) -> tuple:
    """(atypicals, prefs, drift), the vector every atypical S-row acts on: the
    pairs ((s, s'), chi_A(s/ell, s')) over S x S, {r: C_r} over M and the
    drift B, so chi_T-curve(r, x) = C_r e^{pi i tau K x^2 - 2 pi B x}."""
    sets = index_sets(params)
    atypicals = [((s, sp), chi_w_atypical(params, AtypicalWLabel(s / params.ell, sp), u, v, tau))
                 for s in sets.s_values for sp in sets.s_values]
    prefs = {r: curve_prefactor(params, r, u, v, tau) for r in sets.m_values}
    return atypicals, prefs, curve_drift(params, u, v)


def _curve_line(params: AlgebraParams, tau: complex, pref: complex, const: complex, beta: complex,
                p: float, side: float | None, scale: float) -> complex:
    """pref * const * int_R e^{pi i tau K x^2 + beta x} / sinh(pi(x - ip)) dx.

    The curve prefactor pref = C_r is pulled out so the quadrature sees an
    O(1) integrand, whose tail tolerance follows scale.  A pole on R (integer
    p) takes the half-residue sign side; other p take None."""
    res = _pole_line(math.pi * 1j * tau * params.K, const, beta, p, side,
                     max(DEFAULT_QUAD.tail_tol, 1e-9 * scale))
    return pref * res.value


def _s_row(params: AlgebraParams, row, vec: tuple, tau: complex, scale: float) -> tuple:
    """(sum_A S_aa(row, A) chi_A + AT_BLOCK_SIGN sum_r int_R S_at(row; r, x) chi_T-curve(r, x) dx,
    the rows r with integer e_r(0)) on the character vector vec.  Those rows
    have their 1/sin pole at x = 0 and pass it on SINGULAR_CONTOUR_SIDE."""
    atypicals, prefs, drift = vec
    aa = 0.0 + 0.0j
    for col, chi in atypicals:
        aa += _s_aa_raw(params, row, col) * chi
    # 1/sin(pi(f - ix)) = i/sinh(pi(x + if)); the phase's x-part joins the Gaussian
    beta = -2.0 * math.pi * (drift + row[0] / params.ell)
    at_total = 0.0 + 0.0j
    singular_rows = []
    for r, pref in prefs.items():
        const, f = _s_at_curve_const(params, row, r)
        if f == 0.0:
            singular_rows.append(r)
        side = SINGULAR_CONTOUR_SIDE if f == 0.0 else None
        at_total += _curve_line(params, tau, pref, 1j * const, beta, -f, side, scale)
    return aa + AT_BLOCK_SIGN * at_total, tuple(singular_rows)


def s_transform_atypical_check(params: AlgebraParams, row, args, tau) -> dict:
    """chi_A(u/tau, v/tau; -1/tau) against the S-row applied to the character vector.

    Rows with integer e_r(0) put the 1/sin pole at x = 0 on the contour R.
    Their integral is the principal value on R plus SINGULAR_CONTOUR_SIDE
    times the half-residue."""
    t, tp = _require_s_pair(params, row)
    u, v = _uv(args)
    tt = as_tau(tau)

    lhs = chi_w_atypical(params, AtypicalWLabel(t / params.ell, tp), u / tt, v / tt, -1.0 / tt)
    vec = _character_vector(params, u, v, tt)
    value, singular_rows = _s_row(params, (t, tp), vec, tt, abs(lhs))
    rhs = cmath.exp(TWO_PI_I * u * v / tt) * value
    return identity_report("s_transform_atypical", lhs, rhs, row=(t, tp), singular_rows=singular_rows)


def _typical_coeff(params: AlgebraParams, r: Fraction, prefs: dict) -> complex:
    """sum_c S_tt((r,0),(c,0)) C_c over the window M, with prefs = {c: C_c}.
    As S_tt((r,x),(c,w)) = S_tt((r,0),(c,0)) e^{-2 pi i K x w} and every
    curve has the drift B, sum_c int dw S_tt chi_T-curve(c,w) is this sum
    times _gaussian_integral(-pi i tau K, -2 pi B - 2 pi i K x)."""
    return sum(_s_tt_curve_const(params, r, c) * pref for c, pref in prefs.items())


def s_transform_typical_check(params: AlgebraParams, row, args, tau) -> dict:
    """chi_T-curve(r, x)(u/tau, v/tau; -1/tau) against the S_tt expansion.

    The expansion's one Gaussian integral is taken in closed form."""
    r, x = row
    rf = _coerce_m(params, r, "r", window=True)
    xf = float(x)
    u, v = _uv(args)
    tt = as_tau(tau)
    lhs = chi_w_typical_curve(params, rf, xf, u / tt, v / tt, -1.0 / tt)
    prefs = {c: curve_prefactor(params, c, u, v, tt) for c in index_sets(params).m_values}
    beta = -2.0 * math.pi * curve_drift(params, u, v) - TWO_PI_I * params.K * xf
    bracket = _typical_coeff(params, rf, prefs) * _gaussian_integral(-math.pi * 1j * tt * params.K, beta)
    rhs = cmath.exp(TWO_PI_I * u * v / tt) * bracket
    return identity_report("s_transform_typical", lhs, rhs, row=(rf, xf))


def t_transform_check(params: AlgebraParams, label, family: str, args, tau) -> dict:
    """tau -> tau + 1 on an atypical label (t, t') or a typical curve point (r, x)."""
    u, v = _uv(args)
    tt = as_tau(tau)
    ell, a, K = params.ell, params.a, params.K
    if family == "atyp":
        t, tp = _require_s_pair(params, label)
        lhs = chi_w_atypical(params, AtypicalWLabel(t / ell, tp), u, v, tt + 1.0)
        base = chi_w_atypical(params, AtypicalWLabel(t / ell, tp), u, v, tt)
        rhs = cmath.exp(TWO_PI_I * t * tp / ell) * base
        return identity_report("t_transform_atyp", lhs, rhs, label=(t, tp))
    if family == "typ":
        r, x = label
        rf = Fraction(r)
        xf = float(x)
        beta = a - float(rf)
        quad_term = beta * beta / K if T_PHASE_VARIANT == "K" else beta * beta / (K * K)
        expo = math.pi * 1j * (quad_term + beta + a / 2.0 + 0.25 + K * xf * xf)
        lhs = chi_w_typical_curve(params, rf, xf, u, v, tt + 1.0)
        rhs = cmath.exp(expo) * chi_w_typical_curve(params, rf, xf, u, v, tt)
        return identity_report("t_transform_typ", lhs, rhs, label=(rf, xf), variant=T_PHASE_VARIANT)
    raise InvalidParameter("family must be 'atyp' or 'typ'")


# ---------------------------------------------------------------------------
# rank-one transformation lemmas


def lemma_trafoatyp_check(a: int, ell: int, s: int, t: int, args, tau) -> dict:
    """Rank-one atypical transformation with spectral-flow offsets s, t.

    chi_A(u/tau, v/tau + s/ell; -1/tau) against the flowed atypical plus
    LEMMA_HALF_SIGN times half the cosh-kernel integral over the 2a+1 typical
    curves.  The kernel pole hits R exactly when m = 2a and s = -ell/2; that
    term is the principal value on R plus SINGULAR_CONTOUR_SIDE times the
    half-residue, as in s_transform_atypical_check."""
    if a < 0 or ell <= 0:
        raise InvalidParameter("need a >= 0 and ell >= 1")
    pr = AlgebraParams(a, 1)
    K = pr.K
    sv = _require_in_s(ell, s, "s")
    tv = _require_in_s(ell, t, "t")
    u, v = _uv(args)
    tt = as_tau(tau)

    lhs = chi_w_atypical(pr, AtypicalWLabel(tv / ell, 0), u / tt, v / tt + sv / ell, -1.0 / tt)
    base = chi_w_atypical(pr, AtypicalWLabel(sv / ell, 0), u, v - tv / ell, tt)
    scale = abs(lhs)

    drift = curve_drift(pr, u, v - tv / ell)
    total = 0.0 + 0.0j
    singular_terms = []
    for m in range(0, 2 * a + 1):
        r = Fraction(m) - Fraction(sv, ell)
        c_m = Fraction(a - m) + Fraction(sv, ell)
        singular = (c_m / K - Fraction(1, 2)).denominator == 1
        if singular:
            singular_terms.append(m)
        pref = curve_prefactor(pr, r, u, v - tv / ell, tt)
        # 1/cosh(pi(x + ic)) = -i/sinh(pi(x - i(1/2 - c)))
        total += _curve_line(pr, tt, pref, -1j, -2.0 * math.pi * drift, 0.5 - float(c_m) / K,
                             SINGULAR_CONTOUR_SIDE if singular else None, scale)

    rhs = cmath.exp(TWO_PI_I * u * v / tt) * (base + LEMMA_HALF_SIGN * 0.5 * total)
    return identity_report(
        "lemma_trafoatyp",
        lhs,
        rhs,
        a=a,
        ell=ell,
        s=sv,
        t=tv,
        singular_terms=tuple(singular_terms),
    )


def lemma_trafotypchar_check(
    a: int,
    ell: int,
    m: int,
    s: int,
    t: int,
    x: float,
    args,
    tau,
    phase_variant: str | None = None,
) -> dict:
    """Rank-one typical transformation with flow offsets.

    chi_T-curve(m - s/ell, x)(u/tau, v/tau + t/ell; -1/tau) against the sum of
    2a+1 Fourier-Gaussian integrals with phase A_{m'}(w).  The quadratic term
    of A_{m'} is selected by ``phase_variant``.  The integrals are taken in
    closed form."""
    if a < 0 or ell <= 0:
        raise InvalidParameter("need a >= 0 and ell >= 1")
    if not (0 <= m <= 2 * a):
        raise IndexOutOfRange("m=%r outside 0 <= m <= 2a" % (m,))
    sv = _closed_window_int(ell, s, "s")
    tv = _closed_window_int(ell, t, "t")
    which = DEF_AM_VARIANT if phase_variant is None else phase_variant
    if which not in DEF_AM_VARIANTS:
        raise InvalidParameter("phase_variant must be one of %r" % (DEF_AM_VARIANTS,))

    # The flow windows are closed on the right, and at the +ell/2 edge both
    # integer label windows shift by one so the half-integer curve labels
    # m - s/ell and m' - t/ell stay inside (0, K): the m' sum runs over
    # {1..K} instead of {0..K-1}, and a row label given as m = 0 folds to
    # m = K, which costs exactly one overall sign through the
    # (m'+1/2)(m+1/2)/K phase.  Arbitrated numerically by solving for the
    # per-m' coefficients over a in {0,1,2}, ell in {1,2,3,4}; any fixed
    # overall edge sign instead fails for a >= 1.
    boundary_sign = -1.0 if (2 * sv == ell and m == 0) else 1.0
    mp_start = 1 if 2 * tv == ell else 0

    pr = AlgebraParams(a, 1)
    K = pr.K
    u, v = _uv(args)
    tt = as_tau(tau)
    xf = float(x)

    r_left = Fraction(m) - Fraction(sv, ell)
    lhs = chi_w_typical_curve(pr, r_left, xf, u / tt, v / tt + tv / ell, -1.0 / tt)

    coeff = 0.0 + 0.0j
    for mp in range(mp_start, mp_start + K):
        quad_term = _def_am_quadratic(which, mp, m)
        # w-independent part of A_{m'}; the w-linear part -i w s/ell - w K x
        # is folded into the Gaussian's linear coefficient beta below
        const_phase = cmath.exp(
            TWO_PI_I
            * (-1j * xf * tv / ell + sv * tv / (ell * ell * K) - quad_term / K + S_TT_QUARTER_TERM)
        )
        coeff += const_phase * curve_prefactor(pr, Fraction(mp) - Fraction(tv, ell), u, v - sv / ell, tt)
    # every curve has the same drift, so the K Gaussian integrals are one
    beta = -2.0 * math.pi * curve_drift(pr, u, v - sv / ell) + 2.0 * math.pi * sv / ell - TWO_PI_I * K * xf
    total = coeff * _gaussian_integral(-math.pi * 1j * tt * K, beta)

    rhs = cmath.exp(TWO_PI_I * u * v / tt) * boundary_sign * total
    return identity_report(
        "lemma_trafotypchar",
        lhs,
        rhs,
        a=a,
        ell=ell,
        m=m,
        s=sv,
        t=tv,
        x=xf,
        phase_variant=which,
    )


def _closed_window_int(ell: int, value, name: str) -> int:
    v = int(value)
    if v != value or not (-ell <= 2 * v <= ell):
        raise IndexOutOfRange("%s=%r outside -ell/2 <= %s <= ell/2" % (name, value, name))
    return v


def _def_am_quadratic(which: str, mp: int, m: int) -> float:
    if which == "mp+1/2,m+1/2":
        return (mp + 0.5) * (m + 0.5)
    if which == "mp+1/2,m-1/2":
        return (mp + 0.5) * (m - 0.5)
    if which == "mp+1/2,m/2":
        return (mp + 0.5) * m / 2.0
    return (mp - 0.5) * (m + 0.5)


# ---------------------------------------------------------------------------
# composition and periodicity


def s_compose_check(params: AlgebraParams, row, args, tau) -> dict:
    """Applying S twice sends (u, v) to (-u, -v); the automorphy prefactors
    cancel, so chi_A(-u, -v) must equal the double S-matrix expansion.

    Rows with integer e_r(0), inner and outer, pass their 1/sin pole on R on
    SINGULAR_CONTOUR_SIDE, as in s_transform_atypical_check.  The inner S is
    the S-row of each atypical Y on one character vector."""
    t, tp = _require_s_pair(params, row)
    u, v = _uv(args)
    tt = as_tau(tau)
    ell, K = params.ell, params.K

    lhs = chi_w_atypical(params, AtypicalWLabel(t / ell, tp), -u, -v, tt)
    scale = abs(lhs)
    vec = _character_vector(params, u, v, tt)
    atypicals, prefs, drift = vec

    rhs = 0.0 + 0.0j
    for col, _ in atypicals:
        inner, _ = _s_row(params, col, vec, tt, scale)
        rhs += _s_aa_raw(params, (t, tp), col) * inner

    # Outer row r: S_at(row; r, x) against _typical_coeff times the one
    # w-integral, sqrt(pi/alpha) e^{beta0^2/(4 alpha)} e^{alpha_x x^2 + (beta0/tau) x}
    # in x with alpha = -pi i tau K, and S_at's e^{-2 pi x t/ell} in the
    # linear term: one kernel line integral with one Gaussian.
    alpha_x = -math.pi * 1j * K / tt
    beta0 = -2.0 * math.pi * drift
    gauss = _gaussian_integral(-math.pi * 1j * tt * K, beta0)
    beta = beta0 / tt - 2.0 * math.pi * t / ell
    tail_tol = max(DEFAULT_QUAD.tail_tol, 1e-8 * scale)
    for r in prefs:
        const, f = _s_at_curve_const(params, (t, tp), r)
        coeff = 1j * const * gauss * _typical_coeff(params, r, prefs)
        rhs += AT_BLOCK_SIGN * _pole_line(alpha_x, coeff, beta, -f, SINGULAR_CONTOUR_SIDE, tail_tol).value

    return identity_report("s_compose", lhs, rhs, row=(t, tp))


_PERIODICITY_TRIALS = 10


def s_periodicity_check(params: AlgebraParams, seed: int = 0) -> dict:
    """Window shifts: S_aa under t' -> t' + m*ell (either slot), S_at under
    t' -> t' + m*ell and r -> r + m'*ell*K, S_tt under r -> r + m*ell*K on
    both slots.  All hold exactly entrywise; the at/tt cases need the parity
    factor to cancel the sign of sin under e -> e - m*ell."""
    import numpy as np

    rng = np.random.default_rng(seed)
    sets = index_sets(params)
    ell, K = params.ell, params.K
    worst = 0.0
    for _ in range(_PERIODICITY_TRIALS):
        t, tp = rng.choice(sets.s_values), rng.choice(sets.s_values)
        s, sp = rng.choice(sets.s_values), rng.choice(sets.s_values)
        jr = int(rng.integers(-3, 4))
        jc = int(rng.integers(-3, 4))
        r = sets.m_values[int(rng.integers(0, len(sets.m_values)))]
        c = sets.m_values[int(rng.integers(0, len(sets.m_values)))]
        x = float(rng.uniform(-1.0, 1.0))
        w = float(rng.uniform(-1.0, 1.0))

        base_aa = _s_aa_raw(params, (t, tp), (s, sp))
        shifted_aa = _s_aa_raw(params, (t, tp + jr * ell), (s, sp + jc * ell))
        worst = max(worst, abs(base_aa - shifted_aa))

        base_at = _s_at_curve(params, (t, tp), r, x)
        worst = max(worst, abs(base_at - _s_at_curve(params, (t, tp + jr * ell), r, x)))
        worst = max(worst, abs(base_at - _s_at_curve(params, (t, tp), r + jc * ell * K, x)))

        base_tt = _s_tt_curve_raw(params, r, x, c, w)
        shifted_tt = _s_tt_curve_raw(params, r + jr * ell * K, x, c + jc * ell * K, w)
        worst = max(worst, abs(base_tt - shifted_tt))
    return {"check": "s_periodicity", "max_abs_err": worst, "trials": _PERIODICITY_TRIALS}


# ---------------------------------------------------------------------------
# Verlinde structure


def structure_constant(params: AlgebraParams, row, col, col2) -> StructureConstant:
    """Verlinde coefficient N for atypical row (t, t') against typical labels
    (m, e) and (m', e').  Symbolic: a Kronecker condition p' = p + t + t'*ell*K
    modulo ell^2*K together with the delta argument e - e' + (m' - m - t/ell)/K."""
    t, tp = _require_s_pair(params, row)
    m, e = col
    m2, e2 = col2
    mf = _coerce_m(params, m)
    mf2 = _coerce_m(params, m2, "m'")
    ell, K = params.ell, params.K
    delta_shift = mf2 - mf - Fraction(t, ell)
    delta_argument = as_complex(e) - as_complex(e2) + float(delta_shift) / K
    p, p2 = int(mf * ell), int(mf2 * ell)
    kron = (p2 - p - t - tp * ell * K) % (ell * ell * K) == 0
    return StructureConstant(kron, delta_argument, (t, tp), (mf, as_complex(e)), (mf2, as_complex(e2)))


def fusion_target(params: AlgebraParams, row, col) -> dict:
    """Fusion of atypical (t/ell, t') with the typical module labeled (m, e):
    target lattice index m + t/ell + t'K, folded into M by eps*ell*K, with
    e -> e + t' + eps*ell.  Returns both the windowed and unfolded labels."""
    t, tp = _require_s_pair(params, row)
    m, e = col
    mf = _coerce_m(params, m)
    a, ell, K = params.a, params.ell, params.K
    ee = as_complex(e)

    m_raw = mf + Fraction(t, ell) + tp * K
    m_win, eps = _m_window(params, m_raw)
    e_direct = ee + tp
    e_win = ee + tp + eps * ell
    n_direct = float(m_raw) - (a + 1) * e_direct + 0.5
    n_win = float(m_win) - (a + 1) * e_win + 0.5
    return {
        "m_windowed": m_win,
        "epsilon": eps,
        "direct": TypicalWLabel(n_direct, e_direct),
        "windowed": TypicalWLabel(n_win, e_win),
    }


def verlinde_product_at(params: AlgebraParams, row, col, args, tau) -> dict:
    """Atypical x typical product.

    The windowed and unfolded target labels differ by eps*(n, ell), which the
    typical periodicity absorbs, so both label the same character; the target
    must also sit exactly where the structure constant fires and agree with
    the a-shifted label addition rule."""
    t, tp = _require_s_pair(params, row)
    m, e = col
    mf = _coerce_m(params, m)
    a, ell = params.a, params.ell
    ee = as_complex(e)
    u, v = _uv(args)
    tt = as_tau(tau)

    ft = fusion_target(params, (t, tp), (mf, ee))
    direct, windowed = ft["direct"], ft["windowed"]

    chi_direct = chi_w_typical(params, direct, u, v, tt)
    chi_windowed = chi_w_typical(params, windowed, u, v, tt)
    window_err = rel_err(chi_direct, chi_windowed)

    sc = structure_constant(params, (t, tp), (mf, ee), (ft["m_windowed"], windowed.e_prime))

    # label addition: n' picks up t/ell + a t', e' picks up t'
    n_col = float(mf) - (a + 1) * ee + 0.5
    rule = TypicalWLabel(n_col + t / ell + a * tp, ee + tp)
    rule_err = max(
        abs(rule.n_prime - direct.n_prime), abs(rule.e_prime - direct.e_prime)
    )

    again, eps_again = _m_window(params, ft["m_windowed"])
    idempotent = again == ft["m_windowed"] and eps_again == 0
    return {
        "check": "verlinde_product_at",
        "window_rel_err": window_err,
        "rule_label_err": rule_err,
        "kronecker_satisfied": sc.kronecker_satisfied,
        "delta_argument_abs": abs(sc.delta_argument),
        "idempotent": idempotent,
        "epsilon": ft["epsilon"],
    }


def verlinde_product_aa(
    params: AlgebraParams,
    row,
    row2,
    reg: RegulatorSpec,
    m_cutoff: int,
    args,
    tau,
) -> dict:
    """Atypical x atypical product in the regularized sense.

    The regularized labels add exactly; the finite difference of atypicals
    telescopes into a sum of typicals; the regulator kills the character as
    the label grows."""
    t, tp = _require_s_pair(params, row)
    s, sp = _require_s_pair(params, row2)
    ell, a = params.ell, params.a
    u, v = _uv(args)
    tt = as_tau(tau)
    if m_cutoff < 0:
        raise InvalidParameter("m_cutoff must be >= 0")
    # the Gaussian regulator only wins against the flow sum for
    # epsilon > 1/(2K); below that the tail diverges instead of vanishing
    if reg.epsilon <= 0.5 / params.K:
        raise InvalidParameter(
            "regulator epsilon=%r too weak for K=%d (need epsilon > 1/(2K))"
            % (reg.epsilon, params.K)
        )

    x0 = (s + t) / ell
    y = sp + tp

    upper = chi_w_atypical(params, AtypicalWLabel(x0 + m_cutoff + 1, y), u, v, tt)
    lower = chi_w_atypical(params, AtypicalWLabel(x0, y), u, v, tt)
    ladder = 0.0 + 0.0j
    for i in range(0, m_cutoff + 1):
        ladder += chi_w_typical(params, TypicalWLabel(x0 + i + y * a + 0.5, y), u, v, tt)
    tel = identity_report("telescope", upper - lower, ladder)

    # ell'-periodicity lets the summed flow label be reduced into the window
    reduced = y - ell * ((y + ell // 2) // ell)
    chi_sum = chi_w_atypical(params, AtypicalWLabel(x0, y), u, v, tt)
    chi_red = chi_w_atypical(params, AtypicalWLabel(x0, int(reduced)), u, v, tt)
    label_rel_err = abs(chi_sum - chi_red) / max(abs(chi_sum), 1.0)

    tail = max(
        abs(chi_regularized(params, AtypicalWLabel(npr, y), reg.epsilon, u, v, tt))
        for npr in (30, 31, 40)
    )
    return {
        "check": "verlinde_product_aa",
        "product_label": (x0, y),
        "telescope_rel_err": tel["rel_err"],
        "label_rel_err": label_rel_err,
        "regulator_tail": tail,
        "m_cutoff": m_cutoff,
    }


# ---------------------------------------------------------------------------
# unitarity


def unitarity_aa_check(params: AlgebraParams) -> dict:
    """sum over S x S of S_aa conj(S_aa) reproduces the identity exactly:
    max |S S^dagger - I| over the ell^2 x ell^2 atypical block."""
    import numpy as np

    sets = index_sets(params)
    labels = [(t, tp) for t in sets.s_values for tp in sets.s_values]
    s_aa = np.array([[_s_aa_raw(params, row, col) for col in labels] for row in labels])
    gram = s_aa @ s_aa.conj().T
    worst = float(np.abs(gram - np.eye(len(labels))).max())
    return {"check": "unitarity_aa", "max_abs_err": worst}


def unitarity_tt_weak_check(
    params: AlgebraParams,
    e: float,
    m,
    m2,
    test_width: float = 0.05,
) -> dict:
    """Weak-sense typical unitarity against a Gaussian test function.

    Exact part: the lattice character sum over M collapses to ell^2*K times a
    Kronecker delta.  Probe part: pairing the double integral with a unit
    Gaussian g of width w = ``test_width`` centered at e must return g(e) when
    m = m2 and 0 otherwise.  The e-integral turns g into its Fourier
    transform at the lattice frequencies K e' - (m' - 1/2), whose phases in e
    cancel those of the entries exactly, so the e'-integral is in closed
    form: each m' in M contributes the Gaussian mass
    e^{-dm^2/(2 w^2 K^2)} / (K w sqrt(2 pi)) times the character
    e^{-2 pi i dm (m' - 1/2)/K}, with dm = m - m2, and the value is their sum
    over ell^2.  The two parity factors (-1)^floor(e') from the
    summed entry and its conjugate cancel pointwise and are dropped; the test
    point e must stay several widths away from the integers so the remaining
    parities are constant on the support of g."""
    ef = float(e)
    w = float(test_width)
    mf = _coerce_m(params, m)
    mf2 = _coerce_m(params, m2, "m2")
    ell, K = params.ell, params.K
    if _dist_to_integers(ef) < 6.0 * w:
        raise InvalidParameter("test point e must sit at least 6 widths from the integers")

    sets = index_sets(params)
    count = ell * ell * K

    # exact lattice sum
    dm = float(mf - mf2)
    lattice = sum(cmath.exp(TWO_PI_I * float(mp) * dm / K) for mp in sets.m_values)
    lattice_target = count if mf == mf2 else 0.0
    lattice_err = abs(lattice - lattice_target)

    # phase identity on the delta support: e^{pi i j} (-1)^{floor(e)+floor(e-j)} = 1
    phase_err = 0.0
    for j in range(-10, 10):
        val = cmath.exp(math.pi * 1j * j) * (-1.0) ** (math.floor(ef) + math.floor(ef - j))
        phase_err = max(phase_err, abs(val - 1.0))

    # the probe pairing: Gaussian mass times the lattice character sum
    mass = math.exp(-0.5 * (dm / (w * K)) ** 2) / (K * w * math.sqrt(2.0 * math.pi))
    characters = sum(cmath.exp(-TWO_PI_I * dm * (float(mp) - 0.5) / K) for mp in sets.m_values)
    val = mass * characters / (ell * ell)

    predicted = (1.0 / (w * math.sqrt(2.0 * math.pi))) if mf == mf2 else 0.0
    scaled_err = abs(val - predicted) * w * math.sqrt(2.0 * math.pi)
    return {
        "check": "unitarity_tt_weak",
        "lattice_abs_err": lattice_err,
        "phase_identity_err": phase_err,
        "value": val,
        "predicted": predicted,
        "scaled_err": scaled_err,
    }


def structure_constant_weak_check(
    params: AlgebraParams,
    row,
    col,
    m2,
    test_width: float = 0.05,
) -> dict:
    """Weak-sense check of the Verlinde coefficient N.

    N is the M-sum/x-integral of (S_at ratio) * S_tt * conj(S_tt); pairing it
    with a unit Gaussian g of width w in e' centered on the predicted delta
    support must return g(center) times the Kronecker factor.  The sins in
    the S_at ratio cancel exactly, and the parities are constant
    Gaussian-support factors.  The e'-integral turns g into its Fourier
    transform at nu = K x - k + 1/2, and in terms of nu the x-phase of the
    transform's centre cancels the x-phase of the entries, so each k in M
    contributes the Gaussian mass 1/(K w sqrt(2 pi)) times the character
    e^{2 pi i k (Delta/K - t')}, and the whole sum carries the residual phase
    e^{-pi i Delta/K} (-1)^{floor(e)+floor(e')}.  The report gives the value
    against the claimed g(center) and against g(center) times that phase,
    which is 1 whenever the window forces Delta = 0."""
    t, tp = _require_s_pair(params, row)
    m, e = col
    mf = _coerce_m(params, m)
    mf2 = _coerce_m(params, m2, "m'")
    ef = float(e)
    w = float(test_width)
    ell, K = params.ell, params.K

    delta_shift = mf2 - mf - Fraction(t, ell)
    center = ef + float(delta_shift) / K
    if _dist_to_integers(ef) < 6.0 * w or _dist_to_integers(center) < 6.0 * w:
        raise InvalidParameter("test labels must sit at least 6 widths from the integers")
    sc = structure_constant(params, (t, tp), (mf, ef), (mf2, center))
    kron = sc.kronecker_satisfied

    sets = index_sets(params)
    par = _parity(ef) * _parity(center)
    residual_phase = par * cmath.exp(-math.pi * 1j * float(delta_shift) / K)
    # the probe pairing: Gaussian mass times the lattice character sum
    mass = 1.0 / (K * w * math.sqrt(2.0 * math.pi))
    turn = float(delta_shift) / K - tp
    characters = sum(cmath.exp(TWO_PI_I * float(k) * turn) for k in sets.m_values)
    val = residual_phase * mass * characters / (ell * ell)

    g_center = 1.0 / (w * math.sqrt(2.0 * math.pi))
    predicted_plain = g_center if kron else 0.0
    predicted_phased = g_center * residual_phase if kron else 0.0
    scale = w * math.sqrt(2.0 * math.pi)
    return {
        "check": "structure_constant_weak",
        "kronecker_satisfied": kron,
        "value": val,
        "predicted": predicted_plain,
        "scaled_err": abs(val - predicted_plain) * scale,
        "scaled_err_phased": abs(val - predicted_phased) * scale,
        "residual_phase": residual_phase,
    }
