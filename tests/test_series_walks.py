"""Series kernels summed by term ratios, against the direct sums and mpmath.

The kernels walk each series outward from its largest term.  series_reference
keeps the direct sums, one cmath.exp per term over the same index window, and
mpmath evaluates the defining series at 40 digits.  The grid takes Im tau in
{0.01, 0.02, 0.1, 1, 3}, |Im u| and |Im v| up to 0.45 Im tau, and atypical
labels n' up to +-40.

Errors are the verify suites' scaled error |a - b| / max(|a|, |b|, 1).
theta1, theta3 and aK meet 1e-13.  A character meets 1e-13 or, where that
is larger, 8 times the rounding bound of its direct sum (series_reference).
At |n'| = 40 the largest term's exponent is ~800 |tau|, and rounding it
alone moves the sum by more than 1e-13, as does rounding terms that cancel;
no evaluation in doubles meets 1e-13 there, and the direct sums miss mpmath
by more than the walks do.  The characters share the library's prefactor
theta1/eta^3 with their references, so a comparison sees only the rewritten
sums; theta1 is checked on its own.
"""

import cmath
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import series_reference as ref
from mockchar import appell, characters, kernel
from mockchar.domain import DEFAULT_TRUNC, AlgebraParams, AtypicalWLabel, TypicalWLabel, rel_err
from mockchar.errors import ConvergenceError, RangeExceeded

IM_TAUS = (0.01, 0.02, 0.1, 1.0, 3.0)
POINTS = 4
TOL = 1e-13
CELLS = ((0, 1), (1, 1), (2, 1), (2, 2))
ATYPICAL_LABELS = ((0.5, 0), (-7.5, 1), (40.0, -1), (-40.0, 0), (3.25 + 0.5j, 1))
TYPICAL_LABELS = ((0.3, 0.41), (-0.8, 0.65), (1.7 + 0.2j, 0.55 - 0.1j))
EPSILON = 0.1  # regulator of chi_regularized


def grid_points(im_tau: float, seed: int = 0) -> list:
    """(u, v, tau) with Re tau in [-1/2, 1/2] and |Im u|, |Im v| <= 0.45 Im tau."""
    rng = random.Random("%r:%d" % (im_tau, seed))
    return [
        (
            complex(rng.uniform(0.05, 0.95), rng.uniform(-0.45, 0.45) * im_tau),
            complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.45, 0.45) * im_tau),
            complex(rng.uniform(-0.5, 0.5), im_tau),
        )
        for _ in range(POINTS)
    ]


def char_tol(value: complex, bound: float) -> float:
    """1e-13, or 8 rounding bounds of the direct sum in the scaled metric."""
    return max(TOL, 8.0 * bound / max(abs(value), 1.0))


# ---------------------------------------------------------------------------
# mpmath: the defining series at 40 digits

def _mp():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    return mp


def mp_theta(mp, which: int, u: complex, tau: complex) -> complex:
    return complex(mp.jtheta(which, mp.pi * mp.mpc(u), mp.exp(1j * mp.pi * mp.mpc(tau))))


def mp_appell(mp, level: int, u: complex, v: complex, tau: complex) -> complex:
    uu, vv, tt = mp.mpc(u), mp.mpc(v), mp.mpc(tau)
    two_pi_i = 2j * mp.pi
    n_max = appell.appell_cutoff(level, u, v, tau, DEFAULT_TRUNC) + 8
    acc = mp.mpc(0)
    for n in range(-n_max, n_max + 1):
        term = mp.exp(two_pi_i * (tt * level * n * (n + 1) / 2 + vv * n)) / (1 - mp.exp(two_pi_i * (uu + n * tt)))
        acc += -term if (level * n) & 1 else term
    return complex(mp.exp(1j * mp.pi * level * uu) * acc)


def mp_atypical_body(mp, params, n_prime, ell_prime, u, v, tau, q_shift=0.0) -> tuple:
    """(sum, rounding bound): the bound is series_reference's, eps sum_j |t_j| (|X_j| + 1),
    taken in mpmath, where the direct sum in doubles overflows."""
    a, K, ell = params.a, params.K, params.ell
    uu, vv, tt, npr = mp.mpc(u), mp.mpc(v), mp.mpc(tau), mp.mpc(n_prime)
    two_pi_i = 2j * mp.pi
    n_max = characters._atypical_cutoff(params, complex(n_prime), u, v, tau, DEFAULT_TRUNC) + 8
    acc = mp.mpc(0)
    mass = mp.mpf(0)
    for m in range(-(n_max // ell) - 2, n_max // ell + 3):
        j = m * ell + ell_prime
        expo = two_pi_i * (vv * j + uu * (a * j + npr + mp.mpf(0.5)) + tt * (j * (j * K + 2 * npr + 1) / 2 + mp.mpc(q_shift)))
        term = mp.exp(expo) / (1 - mp.exp(two_pi_i * (uu + j * tt)))
        acc += -term if j & 1 else term
        mass += abs(term) * (abs(expo) + 1)
    return complex(acc), float(ref.EPS * mass)


def mp_typical_body(mp, params, c, u, v, tau) -> complex:
    n, ell = params.n, params.ell
    uu, vv, tt, cc = mp.mpc(u), mp.mpc(v), mp.mpc(tau), mp.mpc(c)
    two_pi_i = 2j * mp.pi
    n_max = characters._typical_cutoff(params, complex(c), u, v, tau, DEFAULT_TRUNC) + 8
    acc = mp.mpc(0)
    for m in range(-n_max, n_max + 1):
        term = mp.exp(two_pi_i * (vv * (m * ell) + uu * (m * n) + tt * (m * m * (2 * n * ell + ell * ell) / mp.mpf(2) + m * cc)))
        acc += -term if (m * ell) & 1 else term
    return complex(acc)


# ---------------------------------------------------------------------------
# theta1, theta3, aK: 1e-13 against the direct sums and mpmath


@pytest.mark.parametrize("im_tau", IM_TAUS)
def test_theta_walks_match_direct_sums_and_mpmath(im_tau):
    mp = _mp()
    for u, _, tau in grid_points(im_tau):
        for which, walk, direct in ((1, kernel.theta1, ref.theta1), (3, kernel.theta3, ref.theta3)):
            got = walk(u, tau)
            assert rel_err(got, direct(u, tau)) <= TOL, (which, u, tau)
            assert rel_err(got, mp_theta(mp, which, u, tau)) <= TOL, (which, u, tau)


@pytest.mark.parametrize("im_tau", IM_TAUS)
def test_appell_walk_matches_direct_sum_and_mpmath(im_tau):
    mp = _mp()
    for u, v, tau in grid_points(im_tau):
        for level in range(1, 8):
            got = appell.aK(level, u, v, tau)
            assert rel_err(got, ref.aK(level, u, v, tau)) <= TOL, (level, u, v, tau)
            assert rel_err(got, mp_appell(mp, level, u, v, tau)) <= TOL, (level, u, v, tau)


# ---------------------------------------------------------------------------
# characters: 1e-13 or the direct sum's rounding bound


@pytest.mark.parametrize("im_tau", IM_TAUS)
def test_atypical_walks_match_direct_sums_and_mpmath(im_tau):
    mp = _mp()
    checked = 0
    for (u, v, tau), cell in zip(grid_points(im_tau), CELLS):
        params = AlgebraParams(*cell)
        for n_prime, ell_prime in ATYPICAL_LABELS:
            label = AtypicalWLabel(n_prime, ell_prime)
            shift = EPSILON * label.n_prime ** 2
            for q_shift, walk in (
                (0.0, lambda: characters.chi_w_atypical(params, label, u, v, tau)),
                (shift, lambda: characters.chi_regularized(params, label, EPSILON, u, v, tau)),
            ):
                try:
                    want, bound = ref.chi_w_atypical(params, label, u, v, tau, q_shift=q_shift)
                except OverflowError:
                    continue  # a term of the direct sum leaves the double range: nothing to compare
                got = walk()
                assert rel_err(got, want) <= char_tol(want, bound), (cell, n_prime, ell_prime, q_shift, u, v, tau)
                body = characters._atypical_body(params, label.n_prime, ell_prime, u, v, tau, DEFAULT_TRUNC, q_shift)
                _, body_bound = ref.atypical_body(params, label.n_prime, ell_prime, u, v, tau, DEFAULT_TRUNC, q_shift)
                body_mp, _ = mp_atypical_body(mp, params, label.n_prime, ell_prime, u, v, tau, q_shift)
                assert rel_err(body, body_mp) <= char_tol(body_mp, body_bound), (cell, n_prime, ell_prime, q_shift)
                checked += 1
    # at Im tau >= 1 the labels +-40 leave the double range; everything else is compared
    assert checked >= POINTS * 2 * (len(ATYPICAL_LABELS) - 2)


@pytest.mark.parametrize("im_tau", IM_TAUS)
def test_typical_walks_match_direct_sums_and_mpmath(im_tau):
    mp = _mp()
    for (u, v, tau), cell in zip(grid_points(im_tau), CELLS):
        params = AlgebraParams(*cell)
        for n_prime, e_prime in TYPICAL_LABELS:
            label = TypicalWLabel(n_prime, e_prime)
            want, bound = ref.chi_w_typical_sum(params, label, u, v, tau)
            got = characters.chi_w_typical(params, label, u, v, tau, route="sum")
            assert rel_err(got, want) <= char_tol(want, bound), (cell, label, u, v, tau)
            got = characters.chi_w_typical(params, label, u, v, tau, route="theta")
            assert rel_err(got, ref.chi_w_typical_theta(params, label, u, v, tau)) <= TOL, (cell, label, u, v, tau)
            c = params.n * label.e_prime + label.n_prime * params.ell + params.ell * label.e_prime
            body = characters._typical_body_sum(params, c, u, v, tau, DEFAULT_TRUNC)
            body_mp = mp_typical_body(mp, params, c, u, v, tau)
            _, body_bound = ref.typical_body(params, c, u, v, tau)
            assert rel_err(body, body_mp) <= char_tol(body_mp, body_bound), (cell, label, u, v, tau)


def test_atypical_walk_returns_no_nan_where_pole_factors_overflow():
    # at Im tau = 30 the pole factors z q^j of the lowest j in the window
    # exceed 1e308 (the direct sum raised OverflowError on them); carried
    # along by multiplication they become inf, and their terms inf/inf = nan
    try:
        value = characters.chi_w_atypical(AlgebraParams(1, 1), AtypicalWLabel(0.5, 0), 0.3, 0.2, 30j)
    except OverflowError:
        return
    assert cmath.isfinite(value), value


def test_regularized_character_where_numerators_overflow():
    # the j < 0 numerators t_j leave the double range here, though their terms
    # t_j / (1 - z q^j) do not: the direct sum cannot be formed, and the walk
    # divides by z q^j first
    mp = _mp()
    params, label = AlgebraParams(1, 1), AtypicalWLabel(40, -1)
    u = 0.19408951133058905 - 0.29298027614733735j
    v = 0.13914248049402445 - 0.4179806621142537j
    tau = -0.301665635743412 + 1j
    shift = EPSILON * label.n_prime ** 2
    with pytest.raises(OverflowError):
        ref.chi_w_atypical(params, label, u, v, tau, q_shift=shift)
    body, bound = mp_atypical_body(mp, params, label.n_prime, label.ell_prime, u, v, tau, shift)
    pref = -1j * characters.theta_eta_prefactor(u, tau, DEFAULT_TRUNC)
    got = characters.chi_regularized(params, label, EPSILON, u, v, tau)
    assert abs(body) > 1e279
    assert rel_err(got, pref * body) <= char_tol(pref * body, abs(pref) * bound), (got, pref * body)


def test_atypical_character_beyond_the_double_range_raises_range_exceeded():
    # the unregularized character at the point above: its largest term, at
    # j = -13, is ~e^1650, and no double holds it
    u = 0.19408951133058905 - 0.29298027614733735j
    v = 0.13914248049402445 - 0.4179806621142537j
    tau = -0.301665635743412 + 1j
    with pytest.raises(RangeExceeded) as info:
        characters.chi_w_atypical(AlgebraParams(1, 1), AtypicalWLabel(40, -1), u, v, tau)
    assert isinstance(info.value, ConvergenceError) and isinstance(info.value, OverflowError)


def test_lerch_walk_beyond_the_double_range_raises_range_exceeded():
    # terms and pole factors both grow past 1e308: inf / inf
    with pytest.raises(RangeExceeded):
        kernel._lerch_walk(1.0 + 0j, 10.0 + 0j, 0j, 700.0 + 0j, 10.0 + 0j, 40, 0)


# ---------------------------------------------------------------------------
# the same box, sampled by hypothesis

box_point = st.tuples(
    st.floats(0.01, 3.0),
    st.floats(-0.5, 0.5),
    st.floats(0.05, 0.95),
    st.floats(-0.45, 0.45),
    st.floats(-0.5, 0.5),
    st.floats(-0.45, 0.45),
)


@settings(max_examples=40, deadline=None)
@given(box_point, st.integers(1, 7), st.sampled_from(CELLS), st.floats(-40.0, 40.0), st.integers(-2, 2))
def test_walks_match_direct_sums_on_the_box(point, level, cell, n_prime, ell_prime):
    im_tau, re_tau, re_u, fu, re_v, fv = point
    tau = complex(re_tau, im_tau)
    u = complex(re_u, fu * im_tau)
    v = complex(re_v, fv * im_tau)
    assert rel_err(kernel.theta1(u, tau), ref.theta1(u, tau)) <= TOL
    assert rel_err(kernel.theta3(u, tau), ref.theta3(u, tau)) <= TOL
    assert rel_err(appell.aK(level, u, v, tau), ref.aK(level, u, v, tau)) <= TOL
    params = AlgebraParams(*cell)
    label = AtypicalWLabel(n_prime, ell_prime)
    try:
        want, bound = ref.chi_w_atypical(params, label, u, v, tau)
    except OverflowError:
        return  # beyond the double range at large |n'| and Im tau
    got = characters.chi_w_atypical(params, label, u, v, tau)
    assert rel_err(got, want) <= char_tol(want, bound)
