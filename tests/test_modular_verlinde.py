"""S/T-matrix and Verlinde-structure tests.

Index windows, entry symmetries and singularities, the modular transformation
checks (including the rank-one lemmas with their singular cells), and the
fusion-product machinery.  Tolerances follow the quadrature budget of the
checks: exact entry identities get float-noise gates, integral-backed
transformations get 1e-5..1e-6.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

import mockchar.modular_verlinde as mv
from mockchar.characters import curve_drift, curve_e0, curve_prefactor
from mockchar.domain import AlgebraParams, QuadratureSpec, RegulatorSpec
from mockchar.errors import (
    IndexOutOfRange,
    InvalidParameter,
    SingularEntry,
)
from mockchar.kernel import integrate_line

ARGS = (0.07 + 0.11j, 0.13 + 0.05j)
TAU = 0.1 + 1.1j


def test_index_window_shapes():
    pr = AlgebraParams(2, 2)
    sets = mv.index_sets(pr)
    assert sets.s_values == (-1, 0)
    assert len(sets.m_values) == pr.ell**2 * pr.K
    # right-closed window: -l^2 K/2 < p <= l^2 K/2
    ps = [m * pr.ell for m in sets.m_values]
    assert min(ps) == -pr.ell**2 * pr.K // 2 + 1
    assert max(ps) == pr.ell**2 * pr.K // 2

    pr1 = AlgebraParams(2, 1)
    sets1 = mv.index_sets(pr1)
    assert sets1.s_values == (0,)
    assert len(sets1.m_values) == pr1.K
    assert Fraction(0) in sets1.m_values


def test_window_membership_enforced():
    pr = AlgebraParams(2, 2)
    with pytest.raises(IndexOutOfRange):
        mv.s_entry_aa(pr, (0, 1), (0, 0))
    with pytest.raises(IndexOutOfRange):
        mv.s_entry_aa(pr, (0, 0), (-2, 0))
    with pytest.raises(IndexOutOfRange):
        mv.s_entry_tt(pr, (Fraction(1, 3), 0.3), (0, 0.4))


def test_algebra_params_divisibility():
    with pytest.raises(InvalidParameter):
        AlgebraParams(1, 2)


@pytest.mark.parametrize("n,l", [(1, 1), (2, 2), (3, 3)])
def test_aa_and_tt_symmetry(n, l):
    pr = AlgebraParams(n, l)
    sets = mv.index_sets(pr)
    for row in ((sets.s_values[0], sets.s_values[-1]),):
        for col in ((sets.s_values[-1], sets.s_values[0]),):
            a = mv.s_entry_aa(pr, row, col)
            b = mv.s_entry_aa(pr, col, row)
            assert abs(a - b) < 1e-15
    m1 = sets.m_values[1]
    m2 = sets.m_values[-1]
    a = mv.s_entry_tt(pr, (m1, 0.37), (m2, 0.61))
    b = mv.s_entry_tt(pr, (m2, 0.61), (m1, 0.37))
    assert abs(a - b) < 1e-14


def test_tt_entry_modulus():
    pr = AlgebraParams(2, 2)
    val = mv.s_entry_tt(pr, (Fraction(1, 2), 0.3), (Fraction(-1), 0.8))
    assert abs(abs(val) - 1.0 / pr.ell) < 1e-13


def test_at_singular_at_integer_e():
    pr = AlgebraParams(1, 1)
    with pytest.raises(SingularEntry):
        mv.s_entry_at(pr, (0, 0), (Fraction(0), 1.0))
    # complex e just off the axis is fine
    entry = mv.s_entry_at(pr, (0, 0), (Fraction(0), 1.0 + 0.2j))
    assert type(entry) is complex and abs(entry) > 0


def test_at_curve_and_real_normalizations_agree():
    pr = AlgebraParams(2, 2)
    rep = mv.s_entry_consistency_check(pr, Fraction(1, 2), 0.21, Fraction(-1, 2), 0.33)
    assert rep["max_abs_err"] < 1e-12, rep


@pytest.mark.parametrize("n,l", [(0, 1), (1, 1), (2, 2), (0, 4)])
def test_unitarity_aa(n, l):
    rep = mv.unitarity_aa_check(AlgebraParams(n, l))
    assert rep["max_abs_err"] < 1e-12, rep


def _unitarity_aa_six_loops(params):
    """The entry-by-entry sum over S x S that unitarity_aa_check replaced by
    one matrix product; kept as its reference."""
    sets = mv.index_sets(params)
    worst = 0.0
    for t in sets.s_values:
        for tp in sets.s_values:
            for r in sets.s_values:
                for rp in sets.s_values:
                    acc = 0.0 + 0.0j
                    for s in sets.s_values:
                        for sp in sets.s_values:
                            acc += mv._s_aa_raw(params, (t, tp), (s, sp)) * np.conj(
                                mv._s_aa_raw(params, (r, rp), (s, sp))
                            )
                    target = 1.0 if (t == r and tp == rp) else 0.0
                    worst = max(worst, abs(acc - target))
    return worst


@pytest.mark.parametrize("n,l", [(0, 1), (1, 1), (2, 2), (3, 3), (0, 4)])
def test_unitarity_aa_matches_entrywise_sum(n, l):
    pr = AlgebraParams(n, l)
    got = mv.unitarity_aa_check(pr)["max_abs_err"]
    assert abs(got - _unitarity_aa_six_loops(pr)) <= 1e-15


@pytest.mark.parametrize("n,l", [(0, 1), (1, 1), (2, 1), (2, 2), (3, 3), (0, 4)])
def test_st_cubed_is_s_squared_on_the_atypical_block(n, l):
    # the exact half of the SL(2,Z) relation (ST)^3 = S^2: S maps atypicals
    # to atypicals plus typicals and T is diagonal, so the atypical block
    # obeys it alone, with T_a = e^{2 pi i t t'/ell}
    pr = AlgebraParams(n, l)
    sets = mv.index_sets(pr)
    labels = [(t, tp) for t in sets.s_values for tp in sets.s_values]
    s_aa = np.array([[mv._s_aa_raw(pr, row, col) for col in labels] for row in labels])
    t_a = np.diag([cmath.exp(2j * math.pi * t * tp / pr.ell) for t, tp in labels])
    st = s_aa @ t_a
    assert np.abs(st @ st @ st - s_aa @ s_aa).max() <= 1e-14


def _s_tt_curve_float(params, r, x, c, w):
    """The typical-typical curve entry as one float exponent, every term kept:
    the formula that the exact phase reduction replaced; kept as its reference."""
    K, ell, a = params.K, params.ell, params.a
    e_r0 = (a - float(r)) / K + 0.5
    e_c0 = (a - float(c)) / K + 0.5
    sign = -1.0 if (math.floor(e_r0) + math.floor(e_c0)) & 1 else 1.0
    e_r = e_r0 - 1j * x
    e_c = e_c0 - 1j * w
    expo = e_r * K * e_c + e_r * (float(c) - 2 * a - 0.5) + e_c * (float(r) - 2 * a - 0.5) - 0.25
    return sign * cmath.exp(2j * math.pi * expo) / ell


@pytest.mark.parametrize("n,l", [(0, 1), (1, 1), (2, 1), (2, 2), (3, 3)])
def test_s_tt_curve_entry_is_window_periodic_to_the_bit(n, l):
    pr = AlgebraParams(n, l)
    period = pr.ell * pr.K
    xs = (0.0, 0.37, -0.81)
    for r in mv.index_sets(pr).m_values:
        for c in mv.index_sets(pr).m_values:
            for x in xs:
                for w in xs:
                    got = mv._s_tt_curve_raw(pr, r, x, c, w)
                    assert abs(got - _s_tt_curve_float(pr, r, x, c, w)) <= 1e-13, (r, c, x, w)
                    for jr, jc in ((1, 0), (0, -1), (2, 3), (-3, 1)):
                        shifted = mv._s_tt_curve_raw(pr, r + jr * period, x, c + jc * period, w)
                        assert shifted == got, (r, c, x, w, jr, jc)


@pytest.mark.parametrize("n,l", [(1, 1), (2, 2)])
def test_s_periodicity(n, l):
    rep = mv.s_periodicity_check(AlgebraParams(n, l), seed=11)
    assert rep["max_abs_err"] < 1e-13, rep


@pytest.mark.parametrize("n,l", [(0, 1), (1, 1), (2, 1), (2, 2)])
def test_s_transform_atypical(n, l):
    pr = AlgebraParams(n, l)
    sets = mv.index_sets(pr)
    row = (sets.s_values[0], sets.s_values[-1])
    rep = mv.s_transform_atypical_check(pr, row, ARGS, TAU)
    assert rep["rel_err"] < 1e-5, rep


def test_s_transform_typical_fractional_r():
    pr = AlgebraParams(2, 2)
    rep = mv.s_transform_typical_check(pr, (Fraction(1, 2), 0.23), ARGS, TAU)
    assert rep["rel_err"] < 1e-5, rep
    pr1 = AlgebraParams(1, 1)
    rep = mv.s_transform_typical_check(pr1, (Fraction(1), 0.11), ARGS, TAU)
    assert rep["rel_err"] < 1e-5, rep


@pytest.mark.parametrize("n,l", [(1, 1), (2, 1), (2, 2)])
def test_t_transform(n, l):
    pr = AlgebraParams(n, l)
    rep = mv.t_transform_check(pr, (0, 0), "atyp", ARGS, TAU)
    assert rep["rel_err"] < 1e-13, rep
    r = Fraction(1) if pr.K > 1 else Fraction(0)
    rep = mv.t_transform_check(pr, (r, 0.17), "typ", ARGS, TAU)
    assert rep["rel_err"] < 1e-13, rep


@pytest.mark.parametrize("a,ell,s,t", [(0, 1, 0, 0), (1, 1, 0, 0), (1, 2, 0, -1), (2, 2, 0, 0)])
def test_lemma_trafoatyp_regular_cells(a, ell, s, t):
    rep = mv.lemma_trafoatyp_check(a, ell, s, t, ARGS, TAU)
    assert rep["rel_err"] < 1e-5, rep
    assert rep["singular_terms"] == ()


def test_lemma_trafoatyp_singular_cell():
    # s = -ell/2 puts the m = 2a kernel pole on the contour
    rep = mv.lemma_trafoatyp_check(1, 2, -1, 0, ARGS, TAU)
    assert rep["singular_terms"] == (2,)
    assert rep["rel_err"] < 1e-5, rep


def _mp_shifted_line(alpha, beta, kernel, depth=0.25):
    """mpmath reference: int e^{alpha x^2 + beta x} kernel(x) dx along
    R + i*depth, at 25 digits, over 16 Gaussian widths on either side of the
    Gaussian's peak on that line.

    The singular rows' kernels have their poles on iZ, so this line passes
    above the on-axis pole and below the next one.  The Gaussian grows by
    e^{-Re(alpha) depth^2} on the line, which the working precision absorbs."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(25):
        al, be, d = mp.mpc(alpha), mp.mpc(beta), mp.mpf(depth)
        peak = (2 * al.imag * d - be.real) / (2 * al.real)
        width = 1 / mp.sqrt(-2 * al.real)

        def f(t):
            x = mp.mpc(t, d)
            return mp.exp(al * x * x + be * x) * kernel(mp, x)

        points = [peak + k * width for k in range(-16, 17, 8)]
        return complex(mp.quad(f, points, method="gauss-legendre"))


def _curve_parts(params, r, u, v, tau):
    """(C_r, B): the curve prefactor and the drift every curve shares."""
    return curve_prefactor(params, r, u, v, tau), curve_drift(params, u, v)


def _at_row(params, row, r, curve, tau, scale):
    """One S_at row integral of _s_row, side +1: one _curve_line call."""
    pref, drift = curve
    const, f = mv._s_at_curve_const(params, row, r)
    beta = -2.0 * math.pi * (drift + row[0] / params.ell)
    return mv._curve_line(params, tau, pref, 1j * const, beta, -f, 1.0, scale)


def _lemma_term(pr, c, curve, tau, scale):
    """One cosh-kernel term of lemma_trafoatyp_check, side +1: one _curve_line call."""
    pref, drift = curve
    return mv._curve_line(pr, tau, pref, -1j, -2.0 * math.pi * drift, 0.5 - c, 1.0, scale)


def _mp_at_row(params, row, r, curve, tau):
    """The singular S_at row integral of _s_row, on a line above the pole."""
    t, tp = row
    ell, K = params.ell, params.K
    num, den = curve_e0(params, r)
    e0 = num / den
    sign = mv._parity(e0)

    def kernel(mp, x):
        e = e0 - 1j * x
        return sign * mp.exp(2j * mp.pi * (tp * float(r) - e * t / ell)) / (2 * ell * mp.sin(mp.pi * e))

    pref, drift = curve
    return pref * _mp_shifted_line(math.pi * 1j * tau * K, -2.0 * math.pi * drift, kernel)


def _mp_lemma_term(pr, c, curve, tau):
    """The singular cosh-kernel term of lemma_trafoatyp_check, on a line above the pole."""
    pref, drift = curve
    return pref * _mp_shifted_line(
        math.pi * 1j * tau * pr.K, -2.0 * math.pi * drift, lambda mp, x: 1 / mp.cosh(mp.pi * (x + 1j * c))
    )


def _singular_lemma_term(tau, args=ARGS):
    """(pr, c, curve) of the one singular term of lemma cell (1, 2, -1, 0):
    m = 2a, r = m - s/ell = 5/2, c = (a - m + s/ell) / K = -1/2."""
    pr = AlgebraParams(1, 1)
    u, v = args
    return pr, -0.5, _curve_parts(pr, Fraction(5, 2), u, v, tau)


@pytest.mark.parametrize("tau", [1.2 + 0.5j, 2.0 + 0.3j, -1.5 + 0.4j])
def test_singular_rows_at_large_re_tau(tau):
    # K |Re tau| > 1 (K = 3 in both cells): the principal value on R needs no
    # depth rule; each singular integral matches mpmath on a line above the pole
    rep = mv.lemma_trafoatyp_check(1, 2, -1, 0, ARGS, tau)
    assert rep["rel_err"] < 1e-10, rep
    pr, c, curve = _singular_lemma_term(tau)
    ref = _mp_lemma_term(pr, c, curve, tau)
    got = _lemma_term(pr, c, curve, tau, abs(rep["lhs"]))
    assert abs(got - ref) < 1e-10 * abs(ref), (got, ref)

    params, row = AlgebraParams(2, 2), (0, 0)
    rep = mv.s_transform_atypical_check(params, row, ARGS, tau)
    assert rep["rel_err"] < 1e-10, rep
    for r in rep["singular_rows"]:
        curve = _curve_parts(params, r, *ARGS, tau)
        ref = _mp_at_row(params, row, r, curve, tau)
        got = _at_row(params, row, r, curve, tau, abs(rep["lhs"]))
        assert abs(got - ref) < 1e-10 * abs(ref), (r, got, ref)


def _tall_point(T):
    """tau = iT with u and v scaled so the Gaussian peaks stay near R."""
    return 1j * T, (0.1 + 0.15j * T, 0.05 + 0.05j * T)


@pytest.mark.parametrize("T", [2.0, 8.0, 12.5, 20.0])
@pytest.mark.parametrize("cell", [(0, 1), (1, 1), (2, 1), (2, 2)])
def test_singular_rows_match_mpmath_at_large_im_tau(cell, T):
    # the shifted contours of the old depth rule lost every digit by
    # Im tau = 12.5; the principal value on R holds at every Im tau.  Every
    # row meets 1e-12; the singular integrals of the row the suites sample,
    # whose t != 0 enters the Gaussian, are compared with mpmath.
    tau, args = _tall_point(T)
    params = AlgebraParams(*cell)
    sets = mv.index_sets(params)
    for row in [(t, tp) for t in sets.s_values for tp in sets.s_values]:
        rep = mv.s_transform_atypical_check(params, row, args, tau)
        assert rep["rel_err"] <= 1e-12, (row, rep)
    row = (sets.s_values[0], sets.s_values[-1])
    rep = mv.s_transform_atypical_check(params, row, args, tau)
    assert bool(rep["singular_rows"]) == (cell == (2, 2))
    for r in rep["singular_rows"]:
        curve = _curve_parts(params, r, *args, tau)
        ref = _mp_at_row(params, row, r, curve, tau)
        got = _at_row(params, row, r, curve, tau, abs(rep["lhs"]))
        assert abs(got - ref) <= 1e-12 * abs(ref), (r, got, ref)


@pytest.mark.parametrize("T", [2.0, 8.0, 12.5, 20.0])
def test_singular_lemma_term_matches_mpmath_at_large_im_tau(T):
    tau, args = _tall_point(T)
    rep = mv.lemma_trafoatyp_check(1, 2, -1, 0, args, tau)
    assert rep["singular_terms"] == (2,)
    assert rep["rel_err"] <= 1e-12, rep
    pr, c, curve = _singular_lemma_term(tau, args)
    ref = _mp_lemma_term(pr, c, curve, tau)
    got = _lemma_term(pr, c, curve, tau, abs(rep["lhs"]))
    assert abs(got - ref) <= 1e-12 * abs(ref), (got, ref)


def test_principal_value_side_is_the_mean_of_both_sides(monkeypatch):
    # the half-residue enters with the side's sign, so side 0.0 sits halfway
    def rhs(check, side):
        monkeypatch.setattr(mv, "SINGULAR_CONTOUR_SIDE", side)
        return check()["rhs"]

    for check in (
        lambda: mv.lemma_trafoatyp_check(1, 2, -1, 0, ARGS, TAU),
        lambda: mv.s_transform_atypical_check(AlgebraParams(2, 2), (0, 0), ARGS, TAU),
    ):
        above, below, pv = (rhs(check, side) for side in (1.0, -1.0, 0.0))
        assert abs(pv - (above + below) / 2) <= 1e-14 * abs(pv), (above, below, pv)


@pytest.mark.parametrize("tau", [1.1j, 0.1 + 1.1j, -0.45 + 0.8j, 0.3 + 1.9j])
def test_gaussian_integral_matches_quadrature(tau):
    # the curve Gaussians: alpha = -pi i tau K, complex beta
    for K in (1, 3, 5):
        alpha = -math.pi * 1j * tau * K
        for beta in (0.0, -2.0 * math.pi * (0.3 - 0.2j), -2.0 * math.pi * (0.1 + 0.4j) - 2j * math.pi * K * 0.7):
            # window: |integrand| < e^{-40} outside
            b = abs(beta)
            half = (b + math.sqrt(b * b + 4.0 * alpha.real * 40.0)) / (2.0 * alpha.real)
            spec = QuadratureSpec(half_width=half, tail_tol=1e-15, max_nodes=1 << 16)
            quad = integrate_line(lambda w: np.exp(-alpha * w * w + beta * w), spec)
            closed = mv._gaussian_integral(alpha, beta)
            assert abs(quad.value - closed) <= 1e-12 * max(abs(closed), 1.0), (K, beta, quad, closed)


def test_closed_form_checks_run_no_quadrature(monkeypatch):
    # the typical S-transformation and the typical lemma take every Gaussian
    # integral in closed form; quadrature must not creep back into them
    def no_quadrature(*args, **kwargs):
        raise AssertionError("integrate_line called from a closed-form path")

    monkeypatch.setattr("mockchar.kernel.integrate_line", no_quadrature)
    pr = AlgebraParams(1, 1)
    rep = mv.s_transform_typical_check(pr, (Fraction(0), 0.17), ARGS, TAU)
    assert rep["rel_err"] < 1e-10, rep
    rep = mv.lemma_trafotypchar_check(1, 2, 1, 0, -1, 0.13, ARGS, TAU)
    assert rep["rel_err"] < 1e-10, rep
    # so do the Gaussian-probe pairings of the weak checks
    assert mv.unitarity_tt_weak_check(pr, 0.37, 0, 0)["scaled_err"] < 1e-12
    assert mv.structure_constant_weak_check(pr, (0, 0), (0, 0.37), 0)["scaled_err"] < 1e-12


def test_lemma_trafotypchar_interior():
    for (a, ell, m, s, t) in ((1, 1, 0, 0, 0), (1, 2, 1, 0, -1), (2, 2, 2, -1, 0)):
        rep = mv.lemma_trafotypchar_check(a, ell, m, s, t, 0.13, ARGS, TAU)
        assert rep["rel_err"] < 1e-5, (a, ell, m, s, t, rep)


def test_lemma_trafotypchar_closed_window_edges():
    # closed windows: s and t may equal +ell/2, unlike the character labels
    rep = mv.lemma_trafotypchar_check(1, 2, 1, 0, 1, 0.13, ARGS, TAU)
    assert rep["rel_err"] < 1e-5, rep
    # s = +ell/2 with m = 0 exercises the m -> K fold
    rep = mv.lemma_trafotypchar_check(1, 2, 0, 1, 0, 0.13, ARGS, TAU)
    assert rep["rel_err"] < 1e-5, rep
    # both edges at once
    rep = mv.lemma_trafotypchar_check(1, 2, 0, 1, 1, 0.13, ARGS, TAU)
    assert rep["rel_err"] < 1e-5, rep


def test_s_compose():
    pr = AlgebraParams(1, 1)
    rep = mv.s_compose_check(pr, (0, 0), ARGS, TAU)
    assert rep["rel_err"] < 1e-4, rep


@pytest.mark.parametrize("tau", [0.1 + 1.1j, -0.3 + 0.8j, 0.45 + 2.0j, 0.2 + 4.0j])
def test_s_compose_covers_singular_rows(tau):
    # cell (2, 2) has rows with integer e_r(0), whose 1/sin pole sits on R in
    # the inner and in the outer integrals; both take the principal value plus
    # the half-residue on SINGULAR_CONTOUR_SIDE
    params = AlgebraParams(2, 2)
    sets = mv.index_sets(params)
    assert any(mv._s_at_curve_const(params, (0, 0), r)[1] == 0.0 for r in sets.m_values)
    for row in [(t, tp) for t in sets.s_values for tp in sets.s_values]:
        rep = mv.s_compose_check(params, row, ARGS, tau)
        assert rep["rel_err"] <= 1e-12, (row, rep)


@pytest.mark.parametrize("seed", [250, 291, 334])
def test_s_periodicity_of_the_at_entry_is_exact(seed):
    # the S_at phase and e_r(0) are reduced mod 1 exactly, so the window
    # shifts change no bit of the at-entries (these seeds were off by 2.8e-13
    # to 2.2e-12); what is left is the float S_aa phase
    assert mv.s_periodicity_check(AlgebraParams(2, 2), seed)["max_abs_err"] <= 1e-14


def test_s_compose_computes_each_curve_and_character_once(monkeypatch):
    # The curve prefactors and the atypical characters depend neither on the
    # outer row (sY, s'Y) nor on x, so one check computes each of them once:
    # |M| prefactors and |S|^2 characters plus the left-hand side.
    pr = AlgebraParams(2, 1)
    sets = mv.index_sets(pr)
    calls = {"curve_prefactor": 0, "_chi_w_atypical": 0}

    def counted(name):
        fn = getattr(mv, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(mv, name, counted(name))
    rep = mv.s_compose_check(pr, (0, 0), ARGS, TAU)
    assert calls["curve_prefactor"] <= len(sets.m_values), calls
    assert calls["_chi_w_atypical"] <= len(sets.s_values) ** 2 + 1, calls
    # computing them once changes no bit of the result (the value of the
    # quadrature on the nested k*h grid, with the series summed by term ratios
    # and the S_tt phases reduced exactly)
    assert rep["rel_err"] == 6.268115489686946e-16, rep
    # the other two readers of the S-row and the curve line integral, pinned
    # the same way: a cell with singular rows and the singular lemma cell
    rep = mv.s_transform_atypical_check(AlgebraParams(2, 2), (0, 0), ARGS, TAU)
    assert rep["singular_rows"] == (Fraction(-1, 2), Fraction(5, 2))
    assert rep["rel_err"] == 7.573860621528344e-16, rep
    rep = mv.lemma_trafoatyp_check(1, 2, -1, 0, ARGS, TAU)
    assert rep["singular_terms"] == (2,)
    assert rep["rel_err"] == 1.1549043601717677e-15, rep


def test_structure_constant_kronecker():
    pr = AlgebraParams(2, 2)  # a=1, K=3, ell=2
    # p' = p + t + t' * ell * K (mod ell^2 K): start from p=1 (m=1/2)
    row = (-1, 0)
    m = Fraction(1, 2)
    p2 = 1 + (-1) + 0 * 2 * 3
    m2 = Fraction(p2, 2)
    sc = mv.structure_constant(pr, row, (m, 0.37), (m2, 0.37 + float(m2 - m + Fraction(1, 2)) / 3))
    assert sc.kronecker_satisfied
    assert abs(sc.delta_argument) < 1e-12
    assert sc.is_nonzero
    # breaking the lattice condition kills the coefficient
    sc = mv.structure_constant(pr, row, (m, 0.37), (m2 + Fraction(1, 2), 0.37))
    assert not sc.kronecker_satisfied
    assert not sc.is_nonzero


def test_fusion_target_windowing():
    pr = AlgebraParams(2, 2)  # ell=2, K=3, window (1/2)Z with 12 points
    out = mv.fusion_target(pr, (0, -1), (Fraction(1, 2), 0.4))
    # m_raw = 1/2 - 3 = -5/2 stays in (-3, 3]
    assert out["epsilon"] == 0
    assert out["m_windowed"] == Fraction(-5, 2)
    assert out["direct"] == out["windowed"]
    out = mv.fusion_target(pr, (-1, 0), (Fraction(-5, 2), 0.4))
    # m_raw = -3 falls outside the right-closed window and wraps by +ell*K
    assert out["epsilon"] == 1
    assert out["m_windowed"] == Fraction(3)
    assert out["windowed"].e_prime == pytest.approx(0.4 + 2)


@pytest.mark.parametrize("n,l", [(1, 1), (2, 2), (3, 1)])
def test_verlinde_product_at(n, l):
    pr = AlgebraParams(n, l)
    sets = mv.index_sets(pr)
    row = (sets.s_values[0], sets.s_values[-1])
    col = (Fraction(1, 2) if l == 2 else Fraction(1), 0.37)
    rep = mv.verlinde_product_at(pr, row, col, ARGS, TAU)
    assert rep["kronecker_satisfied"]
    assert rep["idempotent"]
    assert rep["window_rel_err"] < 1e-10, rep
    assert rep["rule_label_err"] < 1e-10, rep
    assert rep["delta_argument_abs"] < 1e-12


@pytest.mark.parametrize("n,l,eps", [(1, 1, 0.2), (3, 1, 0.1), (2, 2, 0.2)])
def test_verlinde_product_aa(n, l, eps):
    pr = AlgebraParams(n, l)
    sets = mv.index_sets(pr)
    row = (sets.s_values[0], sets.s_values[-1])
    row2 = (sets.s_values[-1], sets.s_values[0])
    rep = mv.verlinde_product_aa(pr, row, row2, RegulatorSpec(eps), 10, ARGS, TAU)
    assert rep["telescope_rel_err"] < 1e-9, rep
    assert rep["label_rel_err"] < 1e-9, rep
    assert rep["regulator_tail"] < 1e-9


def test_regulator_validity_guard():
    pr = AlgebraParams(1, 1)  # K = 3, so eps must exceed 1/6
    with pytest.raises(InvalidParameter):
        mv.verlinde_product_aa(pr, (0, 0), (0, 0), RegulatorSpec(1.0 / 6.0), 10, ARGS, TAU)
    with pytest.raises(InvalidParameter):
        mv.verlinde_product_aa(pr, (0, 0), (0, 0), RegulatorSpec(0.05), 10, ARGS, TAU)


def test_unitarity_tt_weak():
    pr = AlgebraParams(1, 1)
    rep = mv.unitarity_tt_weak_check(pr, 0.37, 0, 0)
    assert rep["lattice_abs_err"] < 1e-10
    assert rep["phase_identity_err"] < 1e-12
    assert rep["scaled_err"] < 1e-3, rep
    rep = mv.unitarity_tt_weak_check(pr, 0.37, 0, 1)
    assert rep["predicted"] == 0.0
    assert rep["scaled_err"] < 1e-3, rep


def test_weak_checks_guard_lattice_proximity():
    pr = AlgebraParams(1, 1)
    with pytest.raises(InvalidParameter):
        mv.unitarity_tt_weak_check(pr, 0.01, 0, 0)
    with pytest.raises(InvalidParameter):
        mv.structure_constant_weak_check(pr, (0, 0), (0, 0.99), 0)


def _probe_hat(width, freqs):
    """Fourier transform of the unit-mass Gaussian probe of the given width."""
    return np.exp(-2.0 * (math.pi * width * np.asarray(freqs, dtype=float)) ** 2)


def _probe_spec(pr, width):
    """A window past the frequency where the probe's transform drops below
    1e-16, for integrands over the lattice frequencies K y - (k - 1/2)."""
    fstar = math.sqrt(math.log(1e16) / 2.0) / (math.pi * width)
    return QuadratureSpec(half_width=(fstar + pr.ell * pr.K / 2.0 + 1.0) / pr.K, tail_tol=1e-12)


def _unitarity_tt_by_quadrature(pr, e, m, m2, width):
    """The e'-integral of the weak unitarity check, integrand as written
    before the pairing was taken in closed form; kept as its reference."""
    ell, K = pr.ell, pr.K
    dm = float(Fraction(m) - Fraction(m2))
    mp_arr = np.array([float(mp) for mp in mv.index_sets(pr).m_values])

    def integrand(ep):
        ep = np.real(ep)
        nu = K * ep[None, :] - (mp_arr[:, None] - 0.5)
        ghat = np.exp(-2j * math.pi * e * nu) * _probe_hat(width, nu)
        osc = np.exp(2j * math.pi * (e * nu - ep[None, :] * dm))
        return (osc * ghat).sum(axis=0) / (ell * ell)

    return integrate_line(integrand, _probe_spec(pr, width)).value


def _n_weak_by_quadrature(pr, row, col, m2, width):
    """The x-integral of the weak Verlinde-coefficient check (e'-integral
    already done), integrand as written before the pairing was taken in
    closed form; kept as its reference."""
    t, tp = row
    m, e = col
    ell, K = pr.ell, pr.K
    delta = float(Fraction(m2) - Fraction(m) - Fraction(t, ell))
    center = e + delta / K
    par = -1.0 if (math.floor(e) + math.floor(center)) & 1 else 1.0
    k_arr = np.array([float(k) for k in mv.index_sets(pr).m_values])

    def integrand(xs):
        xs = np.real(xs)
        nu = K * xs[None, :] - (k_arr[:, None] - 0.5)
        ghat = np.exp(-2j * math.pi * center * nu) * _probe_hat(width, nu)
        xphase = np.exp(2j * math.pi * (xs[None, :] * (K * e + delta)))
        kphase = np.exp(-2j * math.pi * (k_arr[:, None] * (e + tp)))
        return (xphase * kphase * ghat).sum(axis=0) * (par * cmath.exp(math.pi * 1j * e) / (ell * ell))

    return integrate_line(integrand, _probe_spec(pr, width)).value


@pytest.mark.parametrize(
    "n,l,e,m,m2",
    [
        # the three suite calls
        (1, 1, 0.37, 0, 0),
        (1, 1, 0.37, 0, 1),
        (2, 2, 0.41, Fraction(1, 2), Fraction(1, 2)),
        # off the diagonal at rank two, and at a = 3
        (2, 2, 0.41, Fraction(1, 2), Fraction(3, 2)),
        (3, 1, 0.37, 1, 0),
    ],
)
def test_unitarity_tt_weak_closed_form_matches_quadrature(n, l, e, m, m2):
    pr = AlgebraParams(n, l)
    width = 0.05
    rep = mv.unitarity_tt_weak_check(pr, e, m, m2, test_width=width)
    ref = _unitarity_tt_by_quadrature(pr, e, m, m2, width)
    g_center = 1.0 / (width * math.sqrt(2.0 * math.pi))
    assert abs(rep["value"] - ref) <= 1e-9 * g_center, (rep, ref)


@pytest.mark.parametrize(
    "n,l,row,col,m2,kron",
    [
        # the two suite calls
        (1, 1, (0, 0), (0, 0.37), 0, True),
        (2, 2, (-1, 0), (Fraction(1, 2), 0.41), Fraction(0), True),
        # p' - p - t - t' ell K = 1 (mod ell^2 K): the Kronecker condition fails
        (2, 2, (-1, 0), (Fraction(1, 2), 0.41), Fraction(1, 2), False),
    ],
)
def test_structure_constant_weak_closed_form_matches_quadrature(n, l, row, col, m2, kron):
    pr = AlgebraParams(n, l)
    width = 0.05
    rep = mv.structure_constant_weak_check(pr, row, col, m2, test_width=width)
    assert rep["kronecker_satisfied"] is kron
    ref = _n_weak_by_quadrature(pr, row, col, m2, width)
    g_center = 1.0 / (width * math.sqrt(2.0 * math.pi))
    assert abs(rep["value"] - ref) <= 1e-9 * g_center, (rep, ref)


def test_structure_constant_weak():
    pr = AlgebraParams(1, 1)
    rep = mv.structure_constant_weak_check(pr, (0, 0), (0, 0.37), 0)
    assert rep["kronecker_satisfied"]
    assert rep["scaled_err"] < 1e-3, rep
    assert abs(rep["residual_phase"] - 1.0) < 1e-12
