"""Kernel tests: theta/eta evaluation against independent closed forms,
transformation laws, truncation errors, and an mpmath oracle for the series."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mockchar import kernel
from mockchar.appell import aK
from mockchar.domain import DEFAULT_QUAD, QuadratureSpec, TruncationSpec
from mockchar.errors import PoleProximity, QuadratureNoConvergence, TailBoundExceeded
from mockchar.kernel import (
    eta,
    eta_cubed,
    eta_pentagonal,
    gauss_identity_check,
    integrate_line,
    require_pole_clearance,
    sqrt_principal,
    theta1,
    theta1_rescaling_check,
    theta3,
)

PI_I = 1j * math.pi
TWO_PI_I = 2j * math.pi


# closed forms at tau = i, independent of every series in the package
ETA_AT_I = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
THETA3_AT_I = math.pi ** 0.25 / math.gamma(0.75)


def test_eta_at_i_closed_form():
    assert abs(eta(1j) - ETA_AT_I) < 1e-14


def test_theta3_at_i_closed_form():
    assert abs(theta3(0.0, 1j) - THETA3_AT_I) < 1e-14


def test_eta_product_vs_pentagonal():
    for tau in (1j, 0.3 + 0.8j, -0.4 + 1.7j):
        assert abs(eta(tau) - eta_pentagonal(tau)) < 1e-14


def test_eta_cubed_jacobi_vs_power():
    for tau in (1.1j, 0.2 + 0.9j):
        assert abs(eta_cubed(tau) - eta(tau) ** 3) < 1e-14


def test_theta1_odd():
    u, tau = 0.21 + 0.07j, 0.1 + 1.3j
    assert abs(theta1(-u, tau) + theta1(u, tau)) < 1e-14
    assert abs(theta1(0.0, tau)) < 1e-14


def test_theta1_derivative_at_zero_is_2pi_eta_cubed():
    # theta1'(0) = 2 pi eta^3, via a symmetric difference quotient
    tau = 0.13 + 1.1j
    h = 1e-5
    deriv = (theta1(h, tau) - theta1(-h, tau)) / (2.0 * h)
    assert abs(deriv - 2.0 * math.pi * eta_cubed(tau)) < 1e-8


@settings(max_examples=25, deadline=None)
@given(
    ur=st.floats(-0.45, 0.45),
    ui=st.floats(-0.3, 0.3),
    tr=st.floats(-0.5, 0.5),
    ti=st.floats(0.8, 2.0),
)
def test_theta1_lattice_laws(ur, ui, tr, ti):
    u = complex(ur, ui)
    tau = complex(tr, ti)
    base = theta1(u, tau)
    assert abs(theta1(u + 1.0, tau) + base) <= 1e-12 * max(abs(base), 1.0)
    shifted = theta1(u + tau, tau)
    expected = -cmath.exp(-PI_I * tau - TWO_PI_I * u) * base
    assert abs(shifted - expected) <= 1e-12 * max(abs(expected), 1.0)


def test_theta1_s_law():
    for u, tau in ((0.2, 1.2j), (0.31 - 0.11j, 0.4 + 0.9j)):
        lhs = theta1(u / tau, -1.0 / tau)
        rhs = -1j * sqrt_principal(-1j * tau) * cmath.exp(PI_I * u * u / tau) * theta1(u, tau)
        assert abs(lhs - rhs) < 1e-13 * max(abs(rhs), 1.0)


def test_theta1_tau_plus_one():
    u, tau = 0.17 + 0.05j, 0.2 + 1.1j
    assert abs(theta1(u, tau + 1.0) - cmath.exp(PI_I / 4.0) * theta1(u, tau)) < 1e-14


def test_theta3_half_period_reduces_to_theta1():
    w, tau = 0.11 - 0.04j, 0.15 + 1.05j
    lhs = theta3(w + 0.5 + tau / 2.0, tau)
    rhs = 1j * cmath.exp(-PI_I * tau / 4.0 - PI_I * w) * theta1(w, tau)
    assert abs(lhs - rhs) < 1e-13


def test_eta_s_and_t_laws():
    for tau in (1.3j, 0.25 + 0.95j):
        assert abs(eta(-1.0 / tau) - sqrt_principal(-1j * tau) * eta(tau)) < 1e-13
        assert abs(eta(tau + 1.0) - cmath.exp(PI_I / 12.0) * eta(tau)) < 1e-14


def test_theta_rescaling_levels():
    for level in (1, 2, 3, 5):
        rep = theta1_rescaling_check(level, 0.13 + 0.02j, 0.21 + 1.15j)
        assert rep["rel_err"] < 1e-12, (level, rep)


def test_gauss_identity_quadrature():
    for alpha, beta in ((1.0, 0.0), (0.7 + 1.3j, -0.4 + 0.2j), (2.5 - 0.8j, 1.1j)):
        rep = gauss_identity_check(alpha, beta)
        assert rep["rel_err"] < 1e-12, rep


def test_sqrt_principal_branch():
    assert abs(sqrt_principal(4.0) - 2.0) < 1e-15
    assert abs(sqrt_principal(-1.0 + 0j) - 1j) < 1e-15
    z = sqrt_principal(-1j * (0.3 + 1.2j))
    assert z.real > 0.0  # principal branch keeps Re >= 0


def test_integrate_line_refines_to_tolerance():
    spec = QuadratureSpec(half_width=8.0, nodes=32, tail_tol=1e-12)
    res = integrate_line(lambda x: cmath.exp(-x * x), spec)
    assert abs(res.value - math.sqrt(math.pi)) < 1e-12
    assert res.error < 1e-10
    assert res.nodes > 32


def test_integrate_line_evaluates_in_bounded_slices(monkeypatch):
    # poles at +-0.003i need more nodes than one slice holds; the vectorized
    # integrand must never see more points than a slice, and slicing must not
    # change a bit of the result
    seen = []

    def near_pole(xs):
        seen.append(xs.size)
        return np.exp(-xs * xs) / (xs * xs + 1e-5)

    spec = QuadratureSpec(half_width=6.0, nodes=64, tail_tol=1e-9, max_nodes=1 << 18)
    chunk = kernel._EVAL_CHUNK
    sliced = integrate_line(near_pole, spec, vectorized=True)
    assert sliced.nodes > chunk
    assert max(seen) <= chunk
    monkeypatch.setattr(kernel, "_EVAL_CHUNK", 1 << 30)
    assert integrate_line(near_pole, spec, vectorized=True) == sliced
    assert max(seen) > chunk


def test_integrate_line_stops_at_rounding_floor():
    # the terms reach 1e7 while the integral is ~1e-37: no refinement can meet
    # tail_tol 1e-11, so the rule stops at the rounding floor and reports it
    # instead of doubling to max_nodes
    spec = QuadratureSpec(half_width=8.0, nodes=64, tail_tol=1e-11)
    res = integrate_line(lambda x: 1e7 * np.exp(-x * x) * np.cos(20.0 * x), spec, vectorized=True)
    assert res.nodes < spec.max_nodes
    assert 1e-11 < res.error < 1e-6
    assert abs(res.value) <= res.error


def test_quadrature_no_convergence_when_capped():
    spec = QuadratureSpec(half_width=6.0, nodes=4, max_nodes=8)
    with pytest.raises(QuadratureNoConvergence, match="no convergence with 8 nodes"):
        integrate_line(lambda x: cmath.exp(-x * x), spec)


def test_integrate_line_evaluates_each_node_once_on_a_symmetric_grid():
    # the nodes are k*h: x and -x are exact negatives, and no refinement
    # evaluates a node that an earlier pass already covered
    seen = []

    def spy(xs):
        seen.append(xs.copy())
        return np.exp(-xs * xs) / (xs * xs + 0.01)

    spec = QuadratureSpec(half_width=7.0, nodes=8, tail_tol=1e-12)
    res = integrate_line(spy, spec, vectorized=True)
    assert len(seen) > 1  # at least one doubling after the first pass
    assert seen[0].size == 4 * spec.nodes + 1
    xs = np.concatenate(seen)
    assert xs.size == res.nodes == np.unique(xs).size
    assert set(xs.tolist()) == set((-xs).tolist())
    assert xs.min() == -spec.half_width and xs.max() == spec.half_width


def test_integrate_line_converging_at_the_third_level_calls_the_integrand_once():
    calls = []

    def spy(xs):
        calls.append(xs.size)
        return np.exp(-xs * xs)

    res = integrate_line(spy, DEFAULT_QUAD, vectorized=True)
    assert res.nodes == 4 * DEFAULT_QUAD.nodes + 1
    assert calls == [res.nodes]
    assert abs(res.value - math.sqrt(math.pi)) <= res.error


def test_integrate_line_stops_at_the_first_non_finite_value():
    # refining a sum that holds a nan can never converge: one pass, then raise
    calls = []

    def nan_at_origin(xs):
        calls.append(xs.size)
        return np.where(xs == 0.0, np.nan, np.exp(-xs * xs))

    with pytest.raises(QuadratureNoConvergence, match="not finite at 1 of 257 nodes"):
        integrate_line(nan_at_origin, DEFAULT_QUAD, vectorized=True)
    assert calls == [4 * DEFAULT_QUAD.nodes + 1]


def test_integrate_line_pointwise_stops_after_one_pass():
    calls = []

    def nan_at_origin(x):
        calls.append(x)
        return math.nan if x == 0.0 else cmath.exp(-x * x)

    with pytest.raises(QuadratureNoConvergence, match="not finite at 1 of 257 nodes"):
        integrate_line(nan_at_origin, DEFAULT_QUAD)
    assert len(calls) == 4 * DEFAULT_QUAD.nodes + 1


def test_integrate_line_raises_on_overflow_without_a_warning():
    # errors are raised, not printed: the pytest config turns RuntimeWarning
    # into a failure, so an overflow warning leaking out fails this test
    spec = QuadratureSpec(half_width=1e3)
    with pytest.raises(QuadratureNoConvergence, match="not finite"):
        integrate_line(lambda x: np.exp(x * x) * np.exp(-x * x), spec, vectorized=True)


def test_integrate_line_rejects_a_window_that_cuts_the_integrand_off():
    # e^{-x^2/2} is 1.5e-8 at x = 6, so [-6, 6] misses 5e-9 of the integral
    # while two refinements of the cut-off value agree to ~1e-11
    spec = replace(DEFAULT_QUAD, half_width=6.0)
    with pytest.raises(QuadratureNoConvergence, match="cuts the integrand off"):
        integrate_line(lambda x: np.exp(-x * x / 2), spec, vectorized=True)
    wide = integrate_line(lambda x: np.exp(-x * x / 2), DEFAULT_QUAD, vectorized=True)
    assert abs(wide.value - math.sqrt(2.0 * math.pi)) <= wide.error


def test_tail_bound_exceeded_for_tiny_truncation():
    with pytest.raises(TailBoundExceeded):
        theta1(0.2, 0.9j, TruncationSpec(max_terms=2))


def test_pole_clearance_guard():
    with pytest.raises(PoleProximity):
        require_pole_clearance(0.0, 1j)
    with pytest.raises(PoleProximity):
        require_pole_clearance(1.0 + 1.2j, 1.2j)
    require_pole_clearance(0.2 + 0.1j, 1.2j)


ORACLE_V = 0.17 + 0.03j


@pytest.mark.parametrize("u,tau", [
    (0.13 + 0.05j, 1.1j),
    (0.31 - 0.2j, 0.4 + 0.9j),
    (0.07 + 0.1j, -0.3 + 0.6j),
    (0.2 + 0.01j, 0.1 + 1.7j),
])
def test_kernels_match_mpmath_oracle(u, tau):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        uu, vv, tt = mp.mpc(u), mp.mpc(ORACLE_V), mp.mpc(tau)
        nome = mp.exp(mp.pi * 1j * tt)
        q = nome * nome
        z, y = mp.exp(2j * mp.pi * uu), mp.exp(2j * mp.pi * vv)
        eta_ref = complex(mp.exp(2j * mp.pi * tt / 24) * mp.qp(q))

        def appell_ref(level):
            total = mp.nsum(
                lambda n: (-1) ** (level * int(n)) * q ** (level * n * (n + 1) / 2) * y ** n
                / (1 - z * q ** n),
                [-mp.inf, mp.inf],
            )
            return complex(mp.exp(1j * mp.pi * level * uu) * total)

        refs = [
            (theta1(u, tau), complex(mp.jtheta(1, mp.pi * uu, nome))),
            (theta3(u, tau), complex(mp.jtheta(3, mp.pi * uu, nome))),
            (eta(tau), eta_ref),
            (eta_pentagonal(tau), eta_ref),
        ] + [(aK(level, u, ORACLE_V, tau), appell_ref(level)) for level in (1, 2, 3)]
    for got, want in refs:
        assert abs(got - want) <= 1e-13 * abs(want), (got, want)
