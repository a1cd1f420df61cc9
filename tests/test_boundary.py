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
import math

import pytest

import mockchar
import mockchar.modular_verlinde as mv
from mockchar.cli import main
from mockchar.domain import AlgebraParams, AtypicalWLabel, TypicalWLabel
from mockchar.errors import InvalidParameter

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
