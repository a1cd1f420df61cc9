"""Character tests: gl(1|1) building blocks, W-algebra characters, lattice factors.

The typical gl(1|1) character is reassembled here from raw theta/eta pieces as
an independent oracle; W-typical characters are checked against both internal
routes, and the decomposition/periodicity/shift identities are exercised on
small label grids.
"""

import cmath
import math
from fractions import Fraction

import pytest

from mockchar.characters import (
    chi_gl11_atypical,
    chi_gl11_typical,
    chi_lattice,
    chi_regularized,
    chi_via_appell,
    chi_w_atypical,
    chi_w_typical,
    chi_w_typical_curve,
    chiunity_decompose,
    conformal_dim,
    elliptic_shift_atypical,
    elliptic_shift_typical,
    epsilon_fn,
    lattice_s_check,
    lattice_structure_constant,
    theta_eta_prefactor,
    verify_atyp_typ_difference,
    verify_atypical_periodicity,
    verify_typical_periodicity,
)
from mockchar.domain import AlgebraParams, AtypicalWLabel, TypicalWLabel
from mockchar.errors import InvalidParameter
from mockchar.kernel import eta, theta1, theta3
from mockchar.modular_verlinde import index_sets
from mockchar import characters, suites
from mockchar.suites import DEFAULT_GRID

U, V, TAU = 0.13 + 0.21j, 0.29 + 0.11j, 0.1 + 1.1j


def _typical_oracle(n, e, u, v, tau):
    # i (-1)^{floor(e)} y^e z^n q^{ne + e^2/2} theta1(u) / eta^3
    y_pow = cmath.exp(2j * math.pi * v * e)
    z_pow = cmath.exp(2j * math.pi * u * n)
    delta = n * e + e * e / 2.0
    q_pow = cmath.exp(2j * math.pi * tau * delta)
    sign = (-1.0) ** math.floor(e)
    return 1j * sign * y_pow * z_pow * q_pow * theta1(u, tau) / eta(tau) ** 3


@pytest.mark.parametrize("n,e", [(0, 0.3), (1, 0.7), (-2, 1.4), (3, -0.6)])
def test_gl11_typical_against_reassembly(n, e):
    got = chi_gl11_typical(n, e, U, V, TAU)
    want = _typical_oracle(n, e, U, V, TAU)
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_gl11_atypical_vs_typical_limit_structure():
    # atypical characters stay finite where the typical family is defined
    val = chi_gl11_atypical(1, 2, U, V, TAU)
    assert abs(val) > 0
    assert cmath.isfinite(val)


@pytest.mark.parametrize(
    "args,frozen",
    [
        ((1, -3, 0.1 + 0.02j, 0.13 - 0.05j, 0.1 + 1.1j), -4.3314570207095895e-06 - 5.26379800262946e-06j),
        ((0.5 + 0.2j, -3, -0.2 + 0.3j, 0.1, -0.2 + 0.9j), -1.954937747282823e-08 - 1.4760985290731207e-08j),
    ],
)
def test_gl11_atypical_at_negative_ell_keeps_its_value(args, frozen):
    # |z q^ell| > 1 here, so 1/(1 - z q^ell) is taken as -(z q^ell)^{-1} /
    # (1 - (z q^ell)^{-1}); the value computed with the direct form is frozen
    assert abs(chi_gl11_atypical(*args) - frozen) <= 1e-14 * abs(frozen)


@pytest.mark.parametrize("n,ell", [(0, 1), (1, 1), (2, 1), (2, 2), (3, 3)])
def test_w_typical_routes_agree(n, ell):
    params = AlgebraParams(n, ell)
    label = TypicalWLabel(0.4, 0.7)
    a = chi_w_typical(params, label, U, V, TAU, route="sum")
    b = chi_w_typical(params, label, U, V, TAU, route="theta")
    assert abs(a - b) < 1e-12 * max(1.0, abs(a))


@pytest.mark.parametrize("n,ell", DEFAULT_GRID)
def test_curve_character_is_the_typical_character_at_the_curve_label(n, ell):
    # chi_w_typical_curve takes the drift B = (a+1)u - v for every curve r;
    # chi_w_typical builds its lead from the complex label itself
    params = AlgebraParams(n, ell)
    a, K = params.a, params.K
    for r in index_sets(params).m_values:
        e0 = float((a - r) / K + Fraction(1, 2))
        for x in (-0.8, 0.0, 0.35, 1.1):
            got = chi_w_typical_curve(params, r, x, U, V, TAU)
            want = chi_w_typical(params, TypicalWLabel(a * e0 + 1j * (a + 1) * x, e0 - 1j * x), U, V, TAU)
            assert abs(got - want) <= 1e-13 * abs(want), (r, x, got, want)


@pytest.mark.parametrize("n,ell", [(1, 1), (2, 2)])
def test_typical_periodicity(n, ell):
    params = AlgebraParams(n, ell)
    rep = verify_typical_periodicity(params, TypicalWLabel(0.3, 0.55), U, V, TAU)
    assert rep["rel_err"] < 1e-13, rep


@pytest.mark.parametrize("n,ell", [(1, 1), (2, 1), (2, 2)])
def test_atypical_periodicity_exact(n, ell):
    params = AlgebraParams(n, ell)
    rep = verify_atypical_periodicity(params, AtypicalWLabel(0.0, 1), U, V, TAU)
    assert rep["rel_err"] < 1e-13, rep


@pytest.mark.parametrize("n,ell", [(0, 1), (1, 1), (2, 2)])
def test_atyp_typ_ladder(n, ell):
    params = AlgebraParams(n, ell)
    for lpr in (0, 1):
        rep = verify_atyp_typ_difference(
            params, AtypicalWLabel(0.0, lpr), U, V, TAU
        )
        assert rep["rel_err"] < 1e-11, (lpr, rep)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_chi_as_appell(n):
    params = AlgebraParams(n, 1)
    for n_prime in (0.0, 1.0, -1.0):
        lhs = chi_w_atypical(params, AtypicalWLabel(n_prime, 0), U, V, TAU)
        rhs = chi_via_appell(params, n_prime, U, V, TAU)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs)), (n, n_prime)


def test_chi_as_appell_requires_ell_one():
    with pytest.raises(InvalidParameter):
        chi_via_appell(AlgebraParams(2, 2), 0.0, U, V, TAU)


@pytest.mark.parametrize("shift", ["u+1", "v+1", "u+tau", "v+tau"])
def test_elliptic_shifts_atypical(shift):
    params = AlgebraParams(2, 1)
    rep = elliptic_shift_atypical(
        params, AtypicalWLabel(1.0, 0), shift, U, V, TAU
    )
    assert rep["rel_err"] < 1e-12, rep


@pytest.mark.parametrize("shift", ["u+1", "v+1", "u+tau", "v+tau"])
def test_elliptic_shifts_typical(shift):
    params = AlgebraParams(2, 2)
    rep = elliptic_shift_typical(
        params, TypicalWLabel(0.35, 0.6), shift, U, V, TAU
    )
    assert rep["rel_err"] < 1e-12, rep


@pytest.mark.parametrize("alpha", [0.5, 1.5, -0.7])
def test_elliptic_shift_general_alpha(alpha):
    params = AlgebraParams(1, 1)
    rep_a = elliptic_shift_atypical(
        params, AtypicalWLabel(0.0, 0), "v+alpha*tau", U, V, TAU, alpha=alpha
    )
    rep_t = elliptic_shift_typical(
        params, TypicalWLabel(0.3, 0.45), "v+alpha*tau", U, V, TAU, alpha=alpha
    )
    assert rep_a["rel_err"] < 1e-11, rep_a
    assert rep_t["rel_err"] < 1e-11, rep_t


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize(
    "direction", ["atyp-fwd", "atyp-bwd", "typ-fwd", "typ-bwd"]
)
def test_chiunity(ell, direction):
    params = AlgebraParams(ell, ell)
    for index in range(params.n, params.n + params.ell):
        rep = chiunity_decompose(params, direction, index, U, V, TAU)
        assert rep["rel_err"] < 1e-11, (ell, direction, index, rep)


def test_epsilon_fn_values():
    assert epsilon_fn(1) == Fraction(1, 2)
    assert epsilon_fn(3) == Fraction(1, 2)
    assert epsilon_fn(0) == Fraction(0)
    assert epsilon_fn(-1) == Fraction(-1, 2)
    assert epsilon_fn(-5) == Fraction(-1, 2)


def test_conformal_dim():
    # Delta_{n,e} = n e + e^2/2
    assert conformal_dim(2, 0.5) == pytest.approx(1.125)
    assert conformal_dim(0, 1.0) == pytest.approx(0.5)


def test_lattice_against_theta3_reassembly():
    from mockchar.kernel import eta

    for alpha_sq, n in ((2, 0), (2, 1), (3, 2), (4, -1)):
        alpha = math.sqrt(alpha_sq)
        got = chi_lattice(alpha_sq, n, U, TAU)
        z_pow = cmath.exp(2j * math.pi * U * (n / alpha))
        q_pow = cmath.exp(2j * math.pi * TAU * (n * n / (2.0 * alpha_sq)))
        want = z_pow * q_pow * theta3(alpha * U + n * TAU, alpha_sq * TAU) / eta(TAU)
        assert abs(got - want) < 1e-11 * max(1.0, abs(got)), (alpha_sq, n)


@pytest.mark.parametrize("alpha_sq", [2, 3, 4])
def test_lattice_structure_constants_exact(alpha_sq):
    for a in range(alpha_sq):
        for b in range(alpha_sq):
            for c in range(alpha_sq):
                got = lattice_structure_constant(alpha_sq, a, b, c)
                want = 1 if (a + b - c) % alpha_sq == 0 else 0
                assert got == want


@pytest.mark.parametrize("alpha_sq", [0, -2, 2.5])
def test_lattice_structure_constant_rejects_a_bad_alpha_sq(alpha_sq):
    with pytest.raises(InvalidParameter, match="alpha_sq must be a positive integer"):
        lattice_structure_constant(alpha_sq, 0, 0, 0)


def test_lattice_structure_constant_drift_fails_its_report(monkeypatch):
    # with every phase of the root-of-unity sum set to 1 the sum reads 1 for
    # every (a, b, c); the check compares it with the Kronecker form, so the
    # drift is a failed report, not a crash
    monkeypatch.setattr(characters, "TWO_PI_I", 0.0)
    assert lattice_structure_constant(2, 0, 1, 0) == 1
    spec = next(s for s in suites.resolve_checks(("lattice",)) if s.check_id == "lattice.structure-constants")
    reps = suites._run_one(spec, suites.SuiteConfig(suites=("lattice",)))
    assert [r.check_id for r in reps] == ["lattice.structure-constants.a%d" % n for n in (2, 3, 4)]
    assert all(r.status == "fail" for r in reps), reps


@pytest.mark.parametrize("alpha_sq", [2, 3, 4])
def test_lattice_s_law(alpha_sq):
    rep = lattice_s_check(alpha_sq, U, TAU)
    assert rep["rel_err"] < 1e-11, (alpha_sq, rep)


def test_theta_eta_prefactor_matches_quotient():
    got = theta_eta_prefactor(U, TAU)
    want = theta1(U, TAU) / eta(TAU) ** 3
    assert abs(got - want) < 1e-13 * max(1.0, abs(want))


def test_regularized_requires_positive_epsilon():
    params = AlgebraParams(3, 1)
    with pytest.raises(InvalidParameter):
        chi_regularized(params, AtypicalWLabel(30.0, 0), 0.0, 0.2 + 0.1j, 0.1, 1j)
    with pytest.raises(InvalidParameter):
        chi_regularized(params, AtypicalWLabel(30.0, 0), -0.1, 0.2 + 0.1j, 0.1, 1j)


def test_regularized_vanishing_at_large_label():
    params = AlgebraParams(3, 1)
    for n_prime in (30.0, 31.0, 40.0):
        val = chi_regularized(
            params, AtypicalWLabel(n_prime, 0), 0.1, 0.2 + 0.1j, 0.1, 1j
        )
        assert abs(val) < 1e-12, (n_prime, abs(val))
