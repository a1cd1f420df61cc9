"""Arguments are validated where they enter the library.

The public entry points check u, v and tau once and hand plain complex
numbers to the helpers below them, which check nothing again.  These tests
pin that every entry point still rejects a tau off the upper half-plane, a
non-finite tau and a non-finite u with InvalidParameter, and that the CLI
turns the rejection into exit code 2.  A tau in the upper half-plane but too
close to the real axis for any series to converge is a convergence failure
(exit code 3).
"""

import cmath
import collections
import math
import sys

import pytest

import mockchar
import mockchar.modular_verlinde as mv
from mockchar import characters, domain, kernel
from mockchar.cli import main
from mockchar.domain import AlgebraParams, AtypicalWLabel, TypicalWLabel
from mockchar.errors import InvalidParameter, PoleProximity

PR = AlgebraParams(1, 1)
V = 0.31 + 0.02j

# name -> (call(u, tau), takes u)
ENTRY_POINTS = {
    "theta1": (lambda u, tau: mockchar.theta1(u, tau), True),
    "theta3": (lambda u, tau: mockchar.theta3(u, tau), True),
    "eta": (lambda u, tau: mockchar.eta(tau), False),
    "eta_pentagonal": (lambda u, tau: mockchar.eta_pentagonal(tau), False),
    "aK": (lambda u, tau: mockchar.aK(3, u, V, tau), True),
    "mordell_h": (lambda u, tau: mockchar.mordell_h(u, tau), True),
    "chi_w_atypical": (lambda u, tau: mockchar.chi_w_atypical(PR, AtypicalWLabel(0.5, 0), u, V, tau), True),
    "chi_w_typical": (lambda u, tau: mockchar.chi_w_typical(PR, TypicalWLabel(0.3, 0.41), u, V, tau), True),
    "chi_lattice": (lambda u, tau: mockchar.chi_lattice(3, 1, u, tau), True),
    "s_transform_atypical_check": (
        lambda u, tau: mv.s_transform_atypical_check(PR, (0, 0), (u, V), tau)["rel_err"], True),
    "s_compose_check": (lambda u, tau: mv.s_compose_check(PR, (0, 0), (u, V), tau)["rel_err"], True),
}

GOOD_U = 0.17 + 0.05j
GOOD_TAU = 0.1 + 1.1j
BAD = {
    "tau-lower-half-plane": (GOOD_U, 0.3 - 0.1j),
    "tau-nan": (GOOD_U, math.nan),
    "u-inf": (complex(math.inf, 0.0), GOOD_TAU),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_accepts_a_valid_point(name):
    call, _ = ENTRY_POINTS[name]
    assert cmath.isfinite(call(GOOD_U, GOOD_TAU))


@pytest.mark.parametrize("name,case", [
    (name, case)
    for name, (_, takes_u) in sorted(ENTRY_POINTS.items())
    for case in sorted(BAD)
    if takes_u or not case.startswith("u-")
])
def test_entry_point_rejects_bad_arguments(name, case):
    call, _ = ENTRY_POINTS[name]
    u, tau = BAD[case]
    with pytest.raises(InvalidParameter, match="non-finite|upper half-plane"):
        call(u, tau)


def test_cli_rejects_tau_in_lower_half_plane(capsys):
    assert main(["eval", "theta1", "--u", "0.1", "--tau=-1i"]) == 2
    assert "upper half-plane" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "eta"],
    ["eval", "theta1", "--u", "0.1"],
    ["eval", "ak", "--K", "3", "--u", "0.1", "--v", "0.2"],
    ["eval", "chi_lattice", "--K", "3", "--n", "1", "--u", "0.1"],
    ["eval", "h", "--u", "0.1"],
    ["eval", "h_s", "--s", "0.5", "--u", "0.1"],
])
def test_tau_too_close_to_the_real_axis_is_a_convergence_failure(capsys, argv):
    # Im tau > 0, but so small that |q| and the series ratios round to 1
    assert main(argv + ["--tau", "1e-20i"]) == 3
    assert "convergence failure" in capsys.readouterr().err


# Every public series entry: the call, its fixed non-complex arguments and the
# names of its complex arguments, all passed by keyword.
SERIES = {
    "theta1": (mockchar.theta1, {}, ("u", "tau")),
    "theta3": (mockchar.theta3, {}, ("u", "tau")),
    "eta": (mockchar.eta, {}, ("tau",)),
    "aK": (mockchar.aK, {"level": 3}, ("u", "v", "tau")),
    "a1": (mockchar.a1, {}, ("u", "v", "tau")),
    "chi_w_atypical": (mockchar.chi_w_atypical, {"params": PR, "label": AtypicalWLabel(0.5, 0)}, ("u", "v", "tau")),
    "chi_w_typical": (mockchar.chi_w_typical, {"params": PR, "label": TypicalWLabel(0.3, 0.41)}, ("u", "v", "tau")),
    "chi_lattice": (mockchar.chi_lattice, {"alpha_sq": 3, "n": 1}, ("u", "tau")),
    "chi_gl11_typical": (characters.chi_gl11_typical, {}, ("n", "e", "u", "v", "tau")),
    "chi_gl11_atypical": (characters.chi_gl11_atypical, {"ell": 1}, ("n", "u", "v", "tau")),
    "chi_regularized": (
        characters.chi_regularized, {"params": PR, "label": AtypicalWLabel(0.5, 0), "epsilon": 0.1}, ("u", "v", "tau")),
}
# the series with poles on u in Z + tau*Z
POLED = ("aK", "a1", "chi_w_atypical", "chi_gl11_atypical", "chi_regularized")
GOOD = {"n": 0.5, "e": 0.41, "u": GOOD_U, "v": V, "tau": GOOD_TAU}


def _call(name, **override):
    fn, fixed, names = SERIES[name]
    args = {key: GOOD[key] for key in names}
    args.update(override)
    return fn(**fixed, **args)


@pytest.mark.parametrize("name", sorted(SERIES))
def test_series_entry_accepts_a_valid_point(name):
    assert cmath.isfinite(_call(name))


NON_FINITE = (math.nan, math.inf, complex(0.1, math.nan), complex(-math.inf, 1.0))


@pytest.mark.parametrize("name,arg", [(name, arg) for name in sorted(SERIES) for arg in SERIES[name][2]])
def test_series_entry_rejects_a_non_finite_argument(name, arg):
    for bad in NON_FINITE:
        with pytest.raises(InvalidParameter, match="non-finite"):
            _call(name, **{arg: bad})


@pytest.mark.parametrize("name", sorted(SERIES))
def test_series_entry_rejects_tau_off_the_upper_half_plane(name):
    for tau in (0.3, 0.3 + 0.0j, 0.3 - 0.1j, -1j):
        with pytest.raises(InvalidParameter, match="upper half-plane"):
            _call(name, tau=tau)


@pytest.mark.parametrize("name", sorted(SERIES))
def test_series_entry_rejects_strings(name):
    # complex("0.1") would parse; the library takes numbers, the CLI parses text
    for arg in SERIES[name][2]:
        for text in ("0.1", "1j", b"0.1"):
            with pytest.raises(InvalidParameter, match="expected a number"):
                _call(name, **{arg: text})


def test_labels_reject_strings():
    with pytest.raises(InvalidParameter, match="expected a number"):
        AtypicalWLabel("0.5", 0)
    with pytest.raises(InvalidParameter, match="expected a number"):
        TypicalWLabel(0.5, "0.3")


@pytest.mark.parametrize("alpha_sq,n", [(2.5, 0), (2.0, 1), (2, 0.5), (2, 1.0), (0, 0), (-1, 0), (2, "1")])
def test_chi_lattice_takes_integer_labels_only(alpha_sq, n):
    with pytest.raises(InvalidParameter, match="integer"):
        mockchar.chi_lattice(alpha_sq, n, 0.1, 1j)


def test_lattice_s_check_takes_an_integer_alpha_sq_only():
    for alpha_sq in (2.0, 0):
        with pytest.raises(InvalidParameter, match="alpha_sq must be a positive integer"):
            characters.lattice_s_check(alpha_sq, 0.1, 1j)


POLE_TAUS = [complex(re, im) for re in (-0.5, 0.0, 0.5) for im in (0.05, 1.0)]


def _near_lattice(tau, dist):
    """Points at distance dist from four lattice points, in four directions."""
    points = (0.0, 1.0 + tau, -tau, 2.0 - tau)
    return [p + dist * cmath.exp(1j * (0.3 + 1.6 * k)) for k, p in enumerate(points)]


@pytest.mark.parametrize("name", POLED)
@pytest.mark.parametrize("tau", POLE_TAUS)
def test_pole_proximity_at_1e_7_from_the_lattice(name, tau):
    for u in _near_lattice(tau, 1e-7):
        with pytest.raises(PoleProximity) as err:
            _call(name, u=u, tau=tau)
        assert str(err.value) == "u is 1e-07 from the pole lattice (clearance 1e-06)"


@pytest.mark.parametrize("name", POLED)
@pytest.mark.parametrize("tau", POLE_TAUS)
def test_pole_clearance_passes_at_2e_6_from_the_lattice(name, tau):
    for u in _near_lattice(tau, 2e-6):
        assert cmath.isfinite(_call(name, u=u, tau=tau))


def _entered(call):
    """Number of entries into each Python function while call() runs, by code object."""
    seen = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            seen[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("name", ["aK", "chi_w_atypical", "chi_w_typical", "chi_lattice"])
def test_a_public_call_validates_each_argument_once(name):
    # the nested theta1, theta3, eta and aK work goes to the private cores
    _call(name)  # warm the memos, which do not change what is entered
    seen = _entered(lambda: _call(name))
    assert seen[domain.as_complex.__code__] == len(SERIES[name][2])
    assert seen[domain.as_tau.__code__] == 1
    for public in (kernel.theta1, kernel.theta3, kernel.eta, characters.theta_eta_prefactor):
        assert seen[public.__code__] == 0, public.__name__
