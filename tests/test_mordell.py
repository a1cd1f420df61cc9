"""Mordell integral tests.

The frozen value of h(0; i) comes from node-doubled quadrature converged at
two different node caps during development; it also survives every shift and
contour identity below, which are computed through independent code paths.
"""

import math

import numpy as np
import pytest

from mockchar.domain import QuadratureSpec, contour_depth, midway_depth
from mockchar.errors import InvalidParameter, QuadratureNoConvergence
from mockchar.kernel import integrate_line
from mockchar.mordell import (
    h_window,
    mordell_h,
    mordell_h_contour,
    mordell_h_quad,
    mordell_h_s,
    mordell_h_s_quad,
    verify_contour_identity,
    verify_h1_reflection,
    verify_mordell_shift,
)

H_AT_0_I = 0.669063339135868


def test_h_at_origin_frozen_value():
    assert abs(mordell_h(0.0, 1j) - H_AT_0_I) < 1e-12


def test_h_at_origin_node_count():
    # h(0; i) converges at the third doubling of the default 64 intervals
    assert mordell_h_quad(0.0, 1j).nodes == 513


def test_h_quad_reports_its_error():
    res = mordell_h_quad(0.1 + 0.05j, 1.3j)
    assert res.error < 1e-10
    assert abs(mordell_h(0.1 + 0.05j, 1.3j) - res.value) == 0.0


def test_h_is_even_in_u():
    for u, tau in ((0.21, 1.1j), (0.13 - 0.08j, 0.2 + 0.9j)):
        assert abs(mordell_h(u, tau) - mordell_h(-u, tau)) < 1e-12


@pytest.mark.parametrize("s", [-0.5, -0.3, 0.0, 0.25, 0.49])
def test_shift_identity(s):
    for u, tau in ((0.11, 1.2j), (-0.2 + 0.07j, 0.15 + 1.0j)):
        rep = verify_mordell_shift(s, u, tau)
        assert rep["rel_err"] < 1e-9, (s, rep)


def test_h1_is_minus_h():
    for u, tau in ((0.17, 1.1j), (0.05 - 0.1j, 0.3 + 1.3j)):
        rep = verify_h1_reflection(u, tau)
        assert rep["rel_err"] < 1e-10, rep


@pytest.mark.parametrize("s", [0.5, -0.5])
def test_half_shift_epsilon_independence(s):
    u, tau = 0.12 + 0.03j, 1.15j
    v1 = mordell_h_s(s, u, tau, eps=1e-3)
    v2 = mordell_h_s(s, u, tau, eps=2e-3)
    v3 = mordell_h_s(s, u, tau, eps=5e-4)
    assert abs(v1 - v2) < 1e-10
    assert abs(v1 - v3) < 1e-10


@pytest.mark.parametrize("s", [0.5, -0.5])
def test_half_shift_midway_contour(s):
    # the default contour runs midway between poles: it agrees with the
    # contour that hugs the on-axis pole, with a few hundred nodes
    u, tau = 0.12 + 0.03j, 1.15j
    res = mordell_h_s_quad(s, u, tau)
    assert res.nodes <= 1025, res
    assert abs(res.value - mordell_h_s(s, u, tau, eps=1e-3)) < 1e-10


@pytest.mark.parametrize("eps", [0.0, -0.2, 1.0, 1.5])
def test_half_shift_contour_depth_domain(eps):
    # at depth 1 the contour runs into the next pole
    with pytest.raises(InvalidParameter):
        mordell_h_s(0.5, 0.1, 1j, eps=eps)


@pytest.mark.parametrize("tau", [2 + 0.1j, 1.2 + 0.05j, -2 + 0.1j, 5 + 0.2j])
def test_half_shift_midway_contour_at_large_re_tau(tau):
    # on R - i/2 the Gaussian gains e^{pi Re(tau) t}, which outgrows the
    # 1/cosh decay once |Re tau| > 1: the default depth drops to
    # 1/(2|Re tau|) and the window follows the shifted Gaussian peak
    u = 0.1
    res = mordell_h_s_quad(0.5, u, tau)
    assert res.nodes <= 4097, res
    assert abs(res.value - mordell_h_s(0.5, u, tau, eps=1e-3)) < 1e-10


@pytest.mark.parametrize("eps", [5e-4, 1e-3, 2e-3])
def test_half_shift_near_pole_node_count(eps):
    # the pole eps from the line is subtracted in closed form, so the
    # trapezoid sees the next pole, 1 - eps away, not this one
    res = mordell_h_s_quad(0.5, 0.12 + 0.03j, 1.15j, eps=eps)
    assert res.nodes <= 1025, res


def test_near_axis_pole_node_count():
    # at s = 0.49 a kernel pole sits 0.01 below the real axis
    res = mordell_h_s_quad(0.49, 0.12 + 0.03j, 1.15j)
    assert res.nodes <= 1025, res
    assert verify_mordell_shift(0.49, 0.12 + 0.03j, 1.15j)["rel_err"] < 1e-13


@pytest.mark.parametrize("s", [0.5, -0.5])
def test_subtracted_pole_matches_raw_trapezoid(s):
    # independent reference: the plain trapezoid on R - 1e-3 i, with the pole
    # left in the integrand, refined until it resolves it (~2^18 nodes)
    u, tau, eps = 0.12 + 0.03j, 1.15j, 1e-3

    def raw(x):
        return np.exp(1j * math.pi * tau * x * x - 2.0 * math.pi * u * x) / np.cosh(math.pi * (x - 1j * s))

    ref = integrate_line(raw, QuadratureSpec(half_width=h_window(u - eps * tau, tau), contour_shift=-eps),
                         vectorized=True)
    assert ref.nodes > 1 << 16
    res = mordell_h_s_quad(s, u, tau, eps=eps)
    assert abs(res.value - ref.value) < 1e-10


# inputs from the appell.s-law check at verify seeds 1044 and 1068: h * sum|f|
# is ~8e5 for a value of ~0.1, so tail_tol 1e-11 lies below the rounding floor
STALL_INPUTS = [
    (5.487252167525026 - 3.8118117734703665j, -2.4554381934446483 + 5.652835056997337j),
    (5.307207960713834 - 3.6839248572266023j, -1.874882345998095 + 5.324689671854745j),
]


@pytest.mark.parametrize("u,tau", STALL_INPUTS)
def test_h_with_heavy_cancellation_meets_its_reported_error(u, tau):
    mp = pytest.importorskip("mpmath")
    res = mordell_h_quad(u, tau)
    assert res.nodes <= 1 << 14, res
    with mp.workdps(30):
        uu, tt = mp.mpc(u), mp.mpc(tau)
        ref = complex(mp.quad(
            lambda x: mp.exp(mp.pi * 1j * tt * x * x - 2 * mp.pi * uu * x) / mp.cosh(mp.pi * x),
            [-mp.inf, -2, -1, 0, mp.inf],
        ))
    assert abs(res.value - ref) <= res.error, (res, ref)


def test_half_shift_explicit_depth_window_follows_tilt():
    # an explicit eps = 1/2 at Re tau = 2 keeps the tilt; the window must
    # still cover the Gaussian peak it moves to t ~ 5
    u, tau = 0.0, 2 + 0.1j
    ref = mordell_h_s(0.5, u, tau, eps=1e-3)
    assert abs(mordell_h_s(0.5, u, tau, eps=0.5) - ref) < 1e-10


def test_depth_is_ignored_off_the_pole():
    u, tau = 0.12 + 0.03j, 1.15j
    assert mordell_h_s(0.3, u, tau, eps=1.5) == mordell_h_s(0.3, u, tau)


def test_contour_depth_helpers():
    assert contour_depth(0.5) == 0.5
    for bad in (0.0, -0.1, 1.0, 2.0):
        with pytest.raises(InvalidParameter):
            contour_depth(bad)
    assert midway_depth(0.0) == 0.5
    assert midway_depth(-1.0) == 0.5
    assert midway_depth(2.0) == 0.25
    assert midway_depth(-4.0) == 0.125


@pytest.mark.parametrize("s", [-0.4, -0.15, 0.0, 0.2, 0.45])
def test_contour_identity(s):
    rep = verify_contour_identity(s, 0.1 + 0.04j, 1.25j)
    assert rep["rel_err"] < 1e-9, (s, rep)


def test_contour_function_agrees_with_shift_form():
    import cmath
    import math

    s, u, tau = 0.3, 0.14, 1.2j
    lhs = mordell_h_contour(s, u, tau)
    q_fac = cmath.exp(-2j * math.pi * tau * s * s / 2.0)
    z_fac = cmath.exp(-2j * math.pi * u * s)
    rhs = q_fac * z_fac * mordell_h(u + s * tau, tau)
    assert abs(lhs - rhs) < 1e-9


def test_shift_parameter_domain():
    with pytest.raises(InvalidParameter):
        mordell_h_s(1.2, 0.1, 1j)
    with pytest.raises(InvalidParameter):
        mordell_h_s(-1.01, 0.1, 1j)


def test_window_grows_with_argument():
    assert h_window(2.0 + 0.0j, 1j) > h_window(0.0j, 1j)


def test_capped_quadrature_raises():
    with pytest.raises(QuadratureNoConvergence):
        mordell_h(0.1, 1j, QuadratureSpec(half_width=6.0, nodes=4, max_nodes=8))
