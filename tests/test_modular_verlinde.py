"""S/T-matrix and Verlinde-structure tests.

Index windows, entry symmetries and singularities, the modular transformation
checks (including the rank-one lemmas with their singular cells), and the
fusion-product machinery.  Tolerances follow the quadrature budget of the
checks: exact entry identities get float-noise gates, integral-backed
transformations get 1e-5..1e-6.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import mockchar.modular_verlinde as mv
from mockchar.domain import AlgebraParams, QuadratureSpec, RegulatorSpec, midway_depth
from mockchar.errors import (
    IndexOutOfRange,
    InvalidParameter,
    PoleOnContour,
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
            a = mv.s_entry_aa(pr, row, col).value
            b = mv.s_entry_aa(pr, col, row).value
            assert abs(a - b) < 1e-15
    m1 = sets.m_values[1]
    m2 = sets.m_values[-1]
    a = mv.s_entry_tt(pr, (m1, 0.37), (m2, 0.61)).value
    b = mv.s_entry_tt(pr, (m2, 0.61), (m1, 0.37)).value
    assert abs(a - b) < 1e-14


def test_tt_entry_modulus():
    pr = AlgebraParams(2, 2)
    val = mv.s_entry_tt(pr, (Fraction(1, 2), 0.3), (Fraction(-1), 0.8)).value
    assert abs(abs(val) - 1.0 / pr.ell) < 1e-13


def test_at_singular_at_integer_e():
    pr = AlgebraParams(1, 1)
    with pytest.raises(SingularEntry):
        mv.s_entry_at(pr, (0, 0), (Fraction(0), 1.0))
    # complex e just off the axis is fine
    entry = mv.s_entry_at(pr, (0, 0), (Fraction(0), 1.0 + 0.2j))
    assert abs(entry.value) > 0


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


def test_t_transform_rejects_unknown_variant():
    pr = AlgebraParams(1, 1)
    with pytest.raises(InvalidParameter):
        mv.t_transform_check(pr, (Fraction(1), 0.1), "typ", ARGS, TAU, variant="K3")


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


def test_lemma_trafoatyp_pole_on_contour():
    with pytest.raises(PoleOnContour):
        mv.lemma_trafoatyp_check(1, 2, -1, 0, ARGS, TAU, singular_side=0.0)


def test_singular_contour_depth_must_stay_below_next_pole():
    # side 2 puts the contour at depth 1, on the next pole of the kernel
    with pytest.raises(InvalidParameter):
        mv.lemma_trafoatyp_check(1, 2, -1, 0, ARGS, TAU, singular_side=2.0)
    with pytest.raises(InvalidParameter):
        mv.s_transform_atypical_check(AlgebraParams(2, 2), (0, 0), ARGS, TAU, singular_side=-3.0)


@pytest.mark.parametrize("tau", [1.2 + 0.5j, 2.0 + 0.3j, -1.5 + 0.4j])
def test_singular_rows_at_large_re_tau(tau):
    # K |Re tau| > 1 (K = 3 in both cells): the default depth is lowered so
    # the Gaussian's tilt on the shifted line cannot outgrow the kernel decay;
    # it must agree with a contour 1e-3 off the pole
    near_side = 1e-3 / midway_depth(3 * tau.real)
    for check in (
        lambda **kw: mv.lemma_trafoatyp_check(1, 2, -1, 0, ARGS, tau, **kw),
        lambda **kw: mv.s_transform_atypical_check(AlgebraParams(2, 2), (0, 0), ARGS, tau, **kw),
    ):
        rep = check()
        near = check(singular_side=near_side)
        assert rep["rel_err"] < 1e-10, rep
        assert abs(rep["rhs"] - near["rhs"]) < 1e-10 * abs(near["rhs"]), (rep, near)


@pytest.mark.parametrize("tau", [0.4 + 1.1j, -0.3 + 0.9j])
def test_singular_row_window_follows_contour_tilt(monkeypatch, tau):
    # On R + i*d the Gaussian e^{pi i tau K x^2} gains the drift K d Re(tau),
    # and the window of a singular row must be sized for it.  Within the
    # default depth the kernel decay hides a window sized without it, so the
    # drift is read where the window is sized: halving the depth moves each
    # singular row's drift by K (d/2) Re(tau) and leaves the other rows alone.
    K = 3
    depth = midway_depth(K * tau.real)
    seen = []
    sized = mv._gauss_half_width

    def spy(k, tau_, drift_re, *rest):
        seen.append(drift_re)
        return sized(k, tau_, drift_re, *rest)

    monkeypatch.setattr(mv, "_gauss_half_width", spy)
    for check in (
        lambda side: mv.lemma_trafoatyp_check(1, 2, -1, 0, ARGS, tau, singular_side=side),
        lambda side: mv.s_transform_atypical_check(AlgebraParams(2, 2), (0, 0), ARGS, tau,
                                                   singular_side=side),
    ):
        drifts = []
        for side in (1.0, 0.5):
            seen.clear()
            check(side)
            drifts.append(list(seen))
        tilt = K * depth / 2 * abs(tau.real)
        moved = [abs(a - b) for a, b in zip(*drifts)]
        assert 0 < moved.count(0.0) < len(moved), moved
        for m in moved:
            assert m == 0.0 or m == pytest.approx(tilt, rel=1e-12), moved


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
            quad = integrate_line(lambda w: np.exp(-alpha * w * w + beta * w), spec, vectorized=True)
            closed = complex(mv._gaussian_integral(alpha, beta))
            assert abs(quad.value - closed) <= 1e-12 * max(abs(closed), 1.0), (K, beta, quad, closed)


def test_gaussian_hat_matches_quadrature():
    width = 0.05
    freqs = [[0.0, 1.5, -4.0], [7.25, -11.0, 2.0]]
    got = mv._gaussian_hat(width, freqs)
    assert got.shape == (2, 3)
    spec = QuadratureSpec(half_width=10.0 * width, tail_tol=1e-14)
    for f, g in zip([f for row in freqs for f in row], got.ravel()):
        quad = integrate_line(
            lambda s: np.exp(-s * s / (2.0 * width * width) - 2j * math.pi * f * s)
            / (width * math.sqrt(2.0 * math.pi)),
            spec,
            vectorized=True,
        )
        assert abs(quad.value - g) < 1e-12, (f, quad, g)


def test_closed_form_checks_run_no_quadrature(monkeypatch):
    # the typical S-transformation and the typical lemma take every Gaussian
    # integral in closed form; quadrature must not creep back into them
    def no_quadrature(*args, **kwargs):
        raise AssertionError("integrate_line called from a closed-form path")

    monkeypatch.setattr(mv, "integrate_line", no_quadrature)
    pr = AlgebraParams(1, 1)
    rep = mv.s_transform_typical_check(pr, (Fraction(0), 0.17), ARGS, TAU)
    assert rep["rel_err"] < 1e-10, rep
    rep = mv.lemma_trafotypchar_check(1, 2, 1, 0, -1, 0.13, ARGS, TAU)
    assert rep["rel_err"] < 1e-10, rep


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


def test_s_compose_computes_each_curve_and_character_once(monkeypatch):
    # The curve prefactors and the atypical characters depend neither on the
    # outer row (sY, s'Y) nor on x, so one check computes each of them once:
    # |M| prefactors and |S|^2 characters plus the left-hand side.
    pr = AlgebraParams(2, 1)
    sets = mv.index_sets(pr)
    calls = {"curve_prefactor": 0, "chi_w_atypical": 0}

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
    assert calls["chi_w_atypical"] <= len(sets.s_values) ** 2 + 1, calls
    # computing them once changes no bit of the result (the value of the
    # quadrature on the nested k*h grid)
    assert rep["rel_err"] == 9.066631446014667e-16, rep


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


def test_structure_constant_weak():
    pr = AlgebraParams(1, 1)
    rep = mv.structure_constant_weak_check(pr, (0, 0), (0, 0.37), 0)
    assert rep["kronecker_satisfied"]
    assert rep["scaled_err"] < 1e-3, rep
    assert abs(rep["residual_phase"] - 1.0) < 1e-12
