"""Kernel tests: theta/eta evaluation against independent closed forms,
transformation laws, truncation errors, and an mpmath oracle for the series."""

import cmath
import gc
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mockchar import kernel
from mockchar.appell import aK
from mockchar.domain import DEFAULT_QUAD, DEFAULT_TRUNC, POLE_CLEARANCE, QuadratureSpec, TruncationSpec, lattice_distance
from mockchar.errors import PoleOnContour, PoleProximity, QuadratureNoConvergence, TailBoundExceeded
from mockchar.kernel import (
    eta,
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


def test_eta_cutoff_and_its_errors_on_every_call():
    # the cutoff N from |q|^{N+1} / (1 - |q|)^2 <= tail_tol, then the product
    for tau, trunc in ((1j, DEFAULT_TRUNC), (0.3 + 0.05j, DEFAULT_TRUNC), (-0.2 + 0.7j, TruncationSpec(16, 1e-6))):
        q = cmath.exp(TWO_PI_I * tau)
        n = max(8, math.ceil(math.log(trunc.tail_tol * (1.0 - abs(q)) ** 2) / math.log(abs(q))))
        want = cmath.exp(TWO_PI_I * tau / 24.0)
        qn = 1.0 + 0.0j
        for _ in range(n):
            qn *= q
            want *= 1.0 - qn
        assert eta(tau, trunc) == want and eta(tau, trunc) == want  # a miss, then a hit
    for _ in range(2):  # errors are not cached: each call raises
        with pytest.raises(TailBoundExceeded, match="rounds to 1"):
            eta(1e-20j)
        with pytest.raises(TailBoundExceeded, match="eta product needs"):
            eta(1e-4j)


def test_eta_memo_is_keyed_on_the_truncation_values():
    tau = 0.23 + 0.97j
    eta(tau)
    hits = kernel._eta_cached.cache_info().hits
    # an equal spec built anew finds the same entry
    assert eta(tau, TruncationSpec(DEFAULT_TRUNC.max_terms, DEFAULT_TRUNC.tail_tol)) == eta(tau)
    assert kernel._eta_cached.cache_info().hits == hits + 2


def test_cutoff_memo_has_a_fixed_size():
    assert kernel.gaussian_cutoff.cache_info().maxsize == 256
    for k in range(600):
        kernel.gaussian_cutoff(1.0 + k * 1e-3, 2.0, 1e-13, 128)
    assert kernel.gaussian_cutoff.cache_info().currsize <= 256


@settings(max_examples=200, deadline=None)
@given(
    decay=st.floats(-0.5, 10.0),
    growth=st.floats(0.0, 60.0),
    tol=st.sampled_from((1e-13, 1e-8, 1e-3)),
    max_terms=st.sampled_from((4, 16, 128)),
)
def test_cutoff_memo_matches_the_unmemoised_loop(decay, growth, tol, max_terms):
    def outcome(fn):
        try:
            return fn(decay, growth, tol, max_terms)
        except TailBoundExceeded as exc:
            return str(exc)

    want = outcome(kernel.gaussian_cutoff.__wrapped__)
    assert outcome(kernel.gaussian_cutoff) == want  # a miss or a hit
    assert outcome(kernel.gaussian_cutoff) == want  # a hit, or raised again


def test_cutoff_memo_raises_again_on_every_call():
    size = kernel.gaussian_cutoff.cache_info().currsize
    for _ in range(3):
        with pytest.raises(TailBoundExceeded, match="needed more than 8 terms"):
            kernel.gaussian_cutoff(0.01, 1.0, 1e-13, 8)
        with pytest.raises(TailBoundExceeded, match="no Gaussian decay"):
            kernel.gaussian_cutoff(0.0, 1.0, 1e-13, 8)
    assert kernel.gaussian_cutoff.cache_info().currsize == size


def test_theta1_odd():
    u, tau = 0.21 + 0.07j, 0.1 + 1.3j
    assert abs(theta1(-u, tau) + theta1(u, tau)) < 1e-14
    assert abs(theta1(0.0, tau)) < 1e-14


def test_theta1_derivative_at_zero_is_2pi_eta_cubed():
    # theta1'(0) = 2 pi eta^3, via a symmetric difference quotient
    tau = 0.13 + 1.1j
    h = 1e-5
    deriv = (theta1(h, tau) - theta1(-h, tau)) / (2.0 * h)
    assert abs(deriv - 2.0 * math.pi * eta(tau) ** 3) < 1e-8


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
    res = integrate_line(lambda x: np.exp(-x * x), spec)
    assert abs(res.value - math.sqrt(math.pi)) < 1e-12
    assert res.error < 1e-10
    assert res.nodes > 32


def test_integrate_line_evaluates_in_bounded_slices(monkeypatch):
    # poles at +-0.003i need more nodes than one slice holds; the integrand
    # must never see more points than a slice, and slicing must not change a
    # bit of the result
    seen = []

    def near_pole(xs):
        seen.append(xs.size)
        return np.exp(-xs * xs) / (xs * xs + 1e-5)

    spec = QuadratureSpec(half_width=6.0, nodes=64, tail_tol=1e-9, max_nodes=1 << 18)
    chunk = kernel._EVAL_CHUNK
    sliced = integrate_line(near_pole, spec)
    assert sliced.nodes > chunk
    assert max(seen) <= chunk
    monkeypatch.setattr(kernel, "_EVAL_CHUNK", 1 << 30)
    assert integrate_line(near_pole, spec) == sliced
    assert max(seen) > chunk


def test_integrate_line_stops_at_rounding_floor():
    # the terms reach 1e7 while the integral is ~1e-37: no refinement can meet
    # tail_tol 1e-11, so the rule stops at the rounding floor and reports it
    # instead of doubling to max_nodes
    spec = QuadratureSpec(half_width=8.0, nodes=64, tail_tol=1e-11)
    res = integrate_line(lambda x: 1e7 * np.exp(-x * x) * np.cos(20.0 * x), spec)
    assert res.nodes < spec.max_nodes
    assert 1e-11 < res.error < 1e-6
    assert abs(res.value) <= res.error


def test_quadrature_no_convergence_when_capped():
    spec = QuadratureSpec(half_width=6.0, nodes=4, max_nodes=8)
    with pytest.raises(QuadratureNoConvergence, match="no convergence with 8 nodes"):
        integrate_line(lambda x: np.exp(-x * x), spec)


def test_integrate_line_evaluates_each_node_once_on_a_symmetric_grid():
    # the nodes are k*h: x and -x are exact negatives, and no refinement
    # evaluates a node that an earlier pass already covered
    seen = []

    def spy(xs):
        seen.append(xs.copy())
        return np.exp(-xs * xs) / (xs * xs + 0.01)

    spec = QuadratureSpec(half_width=7.0, nodes=8, tail_tol=1e-12)
    res = integrate_line(spy, spec)
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

    res = integrate_line(spy, DEFAULT_QUAD)
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
        integrate_line(nan_at_origin, DEFAULT_QUAD)
    assert calls == [4 * DEFAULT_QUAD.nodes + 1]


def test_integrate_line_raises_on_overflow_without_a_warning():
    # errors are raised, not printed: the pytest config turns RuntimeWarning
    # into a failure, so an overflow warning leaking out fails this test
    spec = QuadratureSpec(half_width=1e3)
    with pytest.raises(QuadratureNoConvergence, match="not finite"):
        integrate_line(lambda x: np.exp(x * x) * np.exp(-x * x), spec)


def test_integrate_line_rejects_a_window_that_cuts_the_integrand_off():
    # e^{-x^2/2} is 1.5e-8 at x = 6, so [-6, 6] misses 5e-9 of the integral
    # while two refinements of the cut-off value agree to ~1e-11
    spec = replace(DEFAULT_QUAD, half_width=6.0)
    with pytest.raises(QuadratureNoConvergence, match="cuts the integrand off"):
        integrate_line(lambda x: np.exp(-x * x / 2), spec)
    wide = integrate_line(lambda x: np.exp(-x * x / 2), DEFAULT_QUAD)
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
    # where the rounded lattice coordinates of u do not name the nearest of
    # the four points lattice_distance tries, that point still decides
    for u, tau in ((7e-7j, 1000.0 + 1e-3j), (complex(-1e-7, 5e-7), 100.0 + 1e-4j), (7e-8j, 0.3 + 1e-7j)):
        with pytest.raises(PoleProximity, match="u is %.3g from" % lattice_distance(u, tau)):
            require_pole_clearance(u, tau)


@settings(max_examples=400, deadline=None)
@given(
    tr=st.floats(-3.0, 3.0),
    log_ti=st.floats(-8.0, 3.0),
    a=st.integers(-50, 50),
    b=st.integers(-50, 50),
    log_r=st.floats(-9.0, 7.0),
    phi=st.floats(0.0, 6.3),
)
def test_pole_clearance_raises_where_the_four_point_distance_is_below_it(tr, log_ti, a, b, log_r, phi):
    # require_pole_clearance measures one lattice point; lattice_distance, the
    # minimum over the four around u, is the rule it must agree with
    tau = complex(tr, 10.0 ** log_ti)
    u = a + b * tau + 10.0 ** log_r * cmath.exp(1j * phi)
    d = lattice_distance(u, tau)
    if d < POLE_CLEARANCE:
        with pytest.raises(PoleProximity, match="u is %.3g from" % d):
            require_pole_clearance(u, tau)
    else:
        require_pole_clearance(u, tau)


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



def test_theta_reduces_re_u_before_summing():
    # far from the origin the direct sum's terms cancel to many ulps of them
    # below the value: theta1(300, i) came out as -4.6e-14 against an exact 0
    assert abs(theta1(300.0, 1j)) <= 1e-16
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        ref = complex(mp.jtheta(3, mp.pi * mp.mpf(300.3), mp.exp(-mp.pi)))
    assert abs(theta3(300.3, 1j) - ref) <= 4e-16 * abs(ref)
    # the reduction u -> u - n is exact, so the shifted arguments agree to the bit
    u = 300.3 + 0.2j
    assert theta1(u, 1j) == theta1(u - 300.0, 1j) == -theta1(u + 1.0, 1j)
    assert theta3(u, 1j) == theta3(u - 300.0, 1j)


def test_theta_sums_retain_no_memory():
    # a theta sum is not memoised: 20k calls each at distinct u leave nothing
    # behind (a 65,536-entry cache of them held ~8 MB)
    tau = 0.1 + 1.1j
    theta1(0.3, tau), theta3(0.3, tau)  # first calls set up module state
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for j in range(20_000):
            u = complex(-0.45 + j * 4.5e-5, 0.01)
            theta1(u, tau)
            theta3(u, tau)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.5e6


def _mp_pole_line(alpha, c, beta, p, depth):
    """mpmath reference for kernel._pole_line: c int e^{alpha x^2 + beta x} /
    sinh(pi(x - ip)) dx along R + i*depth, at 30 digits, over |Re x| <= 30,
    beyond which every test integrand is below e^{-60}."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        al, cc, be, pp, d = mp.mpc(alpha), mp.mpc(c), mp.mpc(beta), mp.mpf(p), mp.mpf(depth)

        def f(t):
            x = mp.mpc(t, d)
            return cc * mp.exp(al * x * x + be * x) / mp.sinh(mp.pi * (x - 1j * pp))

        return complex(mp.quad(f, mp.linspace(-30, 30, 61), method="gauss-legendre"))


ONE_TERM = (1.0, -2.0 * math.pi * (0.1 + 0.05j))
# coefficients and slopes with both real and imaginary parts
TILTED_TERM = (0.5 - 0.2j, 1.3 - 0.4j)
STEEP_TERM = (-0.7j, -2.1 + 0.3j)


# (alpha, (c, beta), p, side, depth of a reference line that passes the pole
# nearest R on the same side as R, midway to the next pole on the other side)
POLE_LINE_CASES = {
    "on-R-above": (PI_I * (0.1 + 1.3j), ONE_TERM, 0.0, 1.0, 0.5),
    "on-R-below": (PI_I * (0.1 + 1.3j), ONE_TERM, 1.0, -1.0, -0.5),
    "near-above": (PI_I * (0.1 + 1.3j), ONE_TERM, 0.3, None, -0.2),
    "near-below": (PI_I * (0.1 + 1.3j), ONE_TERM, -0.35, None, 0.15),
    "far": (PI_I * (0.2 + 10.0j), ONE_TERM, 0.45, None, -0.05),
    "tilted-near": (2.0 * PI_I * (-0.3 + 0.9j), TILTED_TERM, -0.2, None, 0.3),
    "steep-on-R": (2.0 * PI_I * (-0.3 + 0.9j), STEEP_TERM, 0.0, -1.0, -0.5),
}


@pytest.mark.parametrize("case", sorted(POLE_LINE_CASES))
def test_pole_line_matches_mpmath(case):
    alpha, (c, beta), p, side, depth = POLE_LINE_CASES[case]
    res = kernel._pole_line(alpha, c, beta, p, side, 1e-13)
    ref = _mp_pole_line(alpha, c, beta, p, depth)
    assert abs(res.value - ref) <= 1e-13 * abs(ref), (res, ref)
    assert res.nodes <= 513, res


def test_pole_line_principal_value_is_the_mean_of_both_sides():
    alpha, (c, beta) = PI_I * (0.1 + 1.3j), TILTED_TERM
    above, below, pv = (kernel._pole_line(alpha, c, beta, 0.0, side, 1e-13).value for side in (1.0, -1.0, 0.0))
    assert abs(pv - (above + below) / 2) <= 1e-15 * abs(pv)


def test_pole_line_does_not_subtract_a_pole_the_gaussian_grows_toward():
    # Im beta = -100 makes |G| grow by e^{17} from R to the pole at i/6,
    # although -Re(alpha) y0^2 = 0.26: subtracting its residue would cancel
    # e^{17} times the integrand's size on R (~1) and lose 8 digits
    alpha, beta, p = -3.0 * math.pi, -2.0 * math.pi * (0.01 + 15.95j), -5.0 / 6.0
    res = kernel._pole_line(alpha, 1.0, beta, p, None, 1e-13)
    assert abs(res.value - _mp_pole_line(alpha, 1.0, beta, p, -1.0 / 3.0)) <= 1e-13


def test_pole_line_on_the_axis_needs_a_side():
    with pytest.raises(PoleOnContour):
        kernel._pole_line(PI_I * 1.1j, *ONE_TERM, 1e-10, None, 1e-13)
