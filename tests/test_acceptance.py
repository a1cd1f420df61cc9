"""Acceptance gate: the fourteen numbered criteria, one test per criterion.

Each test prints a single "PASS criterion N: ..." or "FAIL criterion N: ..."
line with the worst observed error, then asserts.  Tolerances and sample
counts are part of the contract and are not adjustable here.
"""

import cmath
import math
from fractions import Fraction

import pytest

import mockchar.modular_verlinde as mv
from mockchar.appell import (
    a1,
    aK,
    aK_elliptic_rhs,
    aK_s_transform_rhs,
    aK_tau_plus_one,
    aK_via_rel1,
    aK_via_rel2,
)
from mockchar.characters import (
    chi_regularized,
    chi_via_appell,
    chi_w_atypical,
    chiunity_decompose,
    elliptic_shift_atypical,
    elliptic_shift_typical,
    lattice_s_check,
    lattice_structure_constant,
    chi_w_typical,
    verify_atyp_typ_difference,
    verify_atypical_periodicity,
    verify_typical_periodicity,
)
from mockchar.domain import AlgebraParams, AtypicalWLabel, RegulatorSpec, TypicalWLabel
from mockchar.kernel import (
    eta,
    gauss_identity_check,
    sqrt_principal,
    theta1,
    theta1_rescaling_check,
)
from mockchar.mordell import (
    mordell_h_s,
    verify_h1_reflection,
    verify_mordell_shift,
)
from mockchar.qseries import qexpand
from mockchar.suites import rand_arg, rand_arg_off_lattice, rand_tau, rng_for

PI_I = math.pi * 1j
TWO_PI_I = 2j * math.pi


def _rel(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def _finish(number, description, worst, tolerance):
    ok = worst <= tolerance
    print(
        "%s criterion %d: %s (worst %.3e, tol %.0e)"
        % ("PASS" if ok else "FAIL", number, description, worst, tolerance)
    )
    assert ok, (number, description, worst, tolerance)


def test_criterion_01_theta1_laws():
    rng = rng_for(1, "acceptance.theta1")
    worst = 0.0
    for _ in range(20):
        tau = rand_tau(rng, im_lo=0.8, im_hi=2.0)
        u = rand_arg(rng)
        t1 = theta1(u, tau)
        worst = max(worst, _rel(theta1(u + 1.0, tau), -t1))
        worst = max(
            worst,
            _rel(theta1(u + tau, tau), -cmath.exp(-PI_I * tau - TWO_PI_I * u) * t1),
        )
        worst = max(worst, _rel(theta1(u, tau + 1.0), cmath.exp(PI_I / 4.0) * t1))
        s_rhs = -1j * sqrt_principal(-1j * tau) * cmath.exp(PI_I * u * u / tau) * t1
        worst = max(worst, _rel(theta1(u / tau, -1.0 / tau), s_rhs))
    _finish(1, "theta1 transformation laws at 20 points", worst, 1e-10)


def test_criterion_02_a1_laws():
    rng = rng_for(2, "acceptance.a1")
    worst_ell, worst_t, worst_s = 0.0, 0.0, 0.0
    for _ in range(10):
        tau = rand_tau(rng, im_lo=0.9, im_hi=1.6)
        u = rand_arg_off_lattice(rng)
        v = rand_arg(rng, im_max=0.2)
        for which, du, dv in (
            ("u+1", 1.0, 0.0),
            ("v+1", 0.0, 1.0),
            ("u+tau", tau, 0.0),
            ("v+tau", 0.0, tau),
        ):
            lhs = a1(u + du, v + dv, tau)
            worst_ell = max(worst_ell, _rel(lhs, aK_elliptic_rhs(1, which, u, v, tau)))
        worst_t = max(worst_t, _rel(aK_tau_plus_one(1, u, v, tau), a1(u, v, tau)))
        s_lhs = a1(u / tau, v / tau, -1.0 / tau)
        worst_s = max(worst_s, _rel(s_lhs, aK_s_transform_rhs(1, u, v, tau, variant="AKS")))
    worst = max(worst_ell / 1e-9, worst_t / 1e-12, worst_s / 1e-6)
    _finish(
        2,
        "A_1 elliptic (%.2e<=1e-9), T (%.2e<=1e-12), S (%.2e<=1e-6)"
        % (worst_ell, worst_t, worst_s),
        worst,
        1.0,
    )


def test_criterion_03_level_relations():
    rng = rng_for(3, "acceptance.rel")
    worst = 0.0
    for level in (1, 2, 3, 5, 7):
        for _ in range(4):
            tau = rand_tau(rng, im_lo=0.9, im_hi=1.6)
            u = rand_arg_off_lattice(rng)
            v = rand_arg(rng, im_max=0.2)
            lhs = aK(level, u, v, tau)
            worst = max(worst, _rel(lhs, aK_via_rel1(level, u, v, tau)))
            worst = max(worst, _rel(lhs, aK_via_rel2(level, u, v, tau)))
    _finish(3, "A_K level relations rel1/rel2, K in {1,2,3,5,7}", worst, 1e-9)


def test_criterion_04_ak_transformations():
    rng = rng_for(4, "acceptance.aktrafo")
    worst_ell, worst_t, worst_s = 0.0, 0.0, 0.0
    for level in (1, 2, 3, 5):
        tau = rand_tau(rng, im_lo=0.9, im_hi=1.4)
        u = rand_arg_off_lattice(rng)
        v = rand_arg(rng, im_max=0.2)
        for which, du, dv in (
            ("u+1", 1.0, 0.0),
            ("v+1", 0.0, 1.0),
            ("u+tau", tau, 0.0),
            ("v+tau", 0.0, tau),
        ):
            lhs = aK(level, u + du, v + dv, tau)
            worst_ell = max(worst_ell, _rel(lhs, aK_elliptic_rhs(level, which, u, v, tau)))
        worst_t = max(
            worst_t, _rel(aK_tau_plus_one(level, u, v, tau), aK(level, u, v, tau))
        )
        s_lhs = aK(level, u / tau, v / tau, -1.0 / tau)
        rhs1 = aK_s_transform_rhs(level, u, v, tau, variant="AKS")
        rhs2 = aK_s_transform_rhs(level, u, v, tau, variant="AKS2")
        worst_s = max(worst_s, _rel(s_lhs, rhs1), _rel(s_lhs, rhs2), _rel(rhs1, rhs2))
    worst = max(worst_ell / 1e-9, worst_t / 1e-12, worst_s / 1e-6)
    _finish(
        4,
        "A_K laws, K in {1,2,3,5}: elliptic %.2e<=1e-9, T %.2e<=1e-12, S %.2e<=1e-6"
        % (worst_ell, worst_t, worst_s),
        worst,
        1.0,
    )


def test_criterion_05_mordell():
    rng = rng_for(5, "acceptance.mordell")
    worst_shift, worst_h1, worst_eps = 0.0, 0.0, 0.0
    for k in range(10):
        tau = rand_tau(rng, im_lo=0.9, im_hi=1.5)
        u = rand_arg(rng, im_max=0.2)
        s = (-0.5, -0.3, 0.0, 0.25, 0.49)[k % 5]
        worst_shift = max(worst_shift, verify_mordell_shift(s, u, tau)["rel_err"])
        worst_h1 = max(worst_h1, verify_h1_reflection(u, tau)["rel_err"])
    for s in (0.5, -0.5):
        v1 = mordell_h_s(s, 0.11 + 0.04j, 1.2j, eps=1e-3)
        v2 = mordell_h_s(s, 0.11 + 0.04j, 1.2j, eps=2e-3)
        worst_eps = max(worst_eps, abs(v1 - v2))
    worst = max(worst_shift / 1e-7, worst_h1 / 1e-8, worst_eps / 1e-8)
    _finish(
        5,
        "Mordell shifts %.2e<=1e-7, h1 reflection %.2e<=1e-8, contour eps %.2e<=1e-8"
        % (worst_shift, worst_h1, worst_eps),
        worst,
        1.0,
    )


GRID = ((0, 1), (1, 1), (2, 1), (2, 2), (3, 3))


def test_criterion_06_w_characters():
    rng = rng_for(6, "acceptance.chars")
    worst_routes, worst_per, worst_ladder, worst_appell = 0.0, 0.0, 0.0, 0.0
    for (n, l) in GRID:
        pr = AlgebraParams(n, l)
        for _ in range(4):
            tau = rand_tau(rng, im_lo=0.9, im_hi=1.5)
            u = rand_arg_off_lattice(rng)
            v = rand_arg(rng, im_max=0.2)
            label = TypicalWLabel(rng.uniform(-0.4, 0.4), rng.uniform(0.2, 0.8))
            sum_route = chi_w_typical(pr, label, u, v, tau, route="sum")
            theta_route = chi_w_typical(pr, label, u, v, tau, route="theta")
            worst_routes = max(worst_routes, _rel(sum_route, theta_route))
            worst_per = max(
                worst_per, verify_typical_periodicity(pr, label, u, v, tau)["rel_err"]
            )
            alabel = AtypicalWLabel(rng.uniform(-0.4, 0.4), 0)
            worst_per = max(
                worst_per, verify_atypical_periodicity(pr, alabel, u, v, tau)["rel_err"]
            )
            worst_ladder = max(
                worst_ladder, verify_atyp_typ_difference(pr, alabel, u, v, tau)["rel_err"]
            )
            if l == 1:
                n_prime = rng.choice((-1.0, 0.0, 1.0))
                lhs = chi_w_atypical(pr, AtypicalWLabel(n_prime, 0), u, v, tau)
                worst_appell = max(
                    worst_appell, _rel(lhs, chi_via_appell(pr, n_prime, u, v, tau))
                )
    worst = max(worst_routes / 1e-10, worst_per / 1e-12, worst_ladder / 1e-10, worst_appell / 1e-10)
    _finish(
        6,
        "W characters: routes %.2e<=1e-10, periodicity %.2e<=1e-12, ladder %.2e<=1e-10, Appell form %.2e<=1e-10"
        % (worst_routes, worst_per, worst_ladder, worst_appell),
        worst,
        1.0,
    )


def test_criterion_07_character_elliptic_laws():
    rng = rng_for(7, "acceptance.chars-elliptic")
    worst = 0.0
    for (n, l) in ((1, 1), (2, 2)):
        pr = AlgebraParams(n, l)
        tau = rand_tau(rng, im_lo=0.9, im_hi=1.4)
        u = rand_arg_off_lattice(rng)
        v = rand_arg(rng, im_max=0.2)
        alabel = AtypicalWLabel(0.0, 0)
        tlabel = TypicalWLabel(0.3, 0.45)
        for shift in ("u+1", "v+1", "u+tau", "v+tau"):
            worst = max(worst, elliptic_shift_atypical(pr, alabel, shift, u, v, tau)["rel_err"])
            worst = max(worst, elliptic_shift_typical(pr, tlabel, shift, u, v, tau)["rel_err"])
        for _ in range(5):
            alpha = rng.uniform(-1.5, 1.5)
            worst = max(
                worst,
                elliptic_shift_atypical(pr, alabel, "v+alpha*tau", u, v, tau, alpha=alpha)["rel_err"],
            )
            worst = max(
                worst,
                elliptic_shift_typical(pr, tlabel, "v+alpha*tau", u, v, tau, alpha=alpha)["rel_err"],
            )
    _finish(7, "character elliptic laws incl. general alpha flows", worst, 1e-10)


def test_criterion_08_chiunity():
    rng = rng_for(8, "acceptance.chiunity")
    worst = 0.0
    for ell in (1, 2, 3):
        pr = AlgebraParams(ell, ell)
        tau = rand_tau(rng, im_lo=0.9, im_hi=1.4)
        u = rand_arg_off_lattice(rng)
        v = rand_arg(rng, im_max=0.2)
        for direction in ("atyp-fwd", "atyp-bwd", "typ-fwd", "typ-bwd"):
            for index in range(pr.n, pr.n + pr.ell):
                rep = chiunity_decompose(pr, direction, index, u, v, tau)
                worst = max(worst, rep["rel_err"])
    _finish(8, "root-of-unity decompositions, all four directions, l in {1,2,3}", worst, 1e-10)


def test_criterion_09_theta_rescaling_and_gauss():
    rng = rng_for(9, "acceptance.thetascale")
    worst = 0.0
    for level in (1, 3, 5):
        tau = rand_tau(rng, im_lo=0.9, im_hi=1.6)
        u = rand_arg(rng, im_max=0.2)
        worst = max(worst, theta1_rescaling_check(level, u, tau)["rel_err"])
    for _ in range(5):
        alpha = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        beta = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))
        worst = max(worst, gauss_identity_check(alpha, beta)["rel_err"])
    _finish(9, "theta rescaling K in {1,3,5} and Gaussian integral identity", worst, 1e-10)


MODPROP_GRID = ((0, 1), (1, 1), (2, 1), (2, 2))


def _modprop_point(rng):
    tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.3))
    u = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.05, 0.2))
    v = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.15, 0.15))
    return u, v, tau


def test_criterion_10_modular_properties():
    rng = rng_for(10, "acceptance.modprop")
    worst_s, worst_t, worst_lemma = 0.0, 0.0, 0.0
    for (n, l) in MODPROP_GRID:
        pr = AlgebraParams(n, l)
        u, v, tau = _modprop_point(rng)
        sets = mv.index_sets(pr)
        row = (sets.s_values[0], sets.s_values[-1])
        worst_s = max(worst_s, mv.s_transform_atypical_check(pr, row, (u, v), tau)["rel_err"])
        r = 0 if pr.K == 1 else 1
        worst_s = max(
            worst_s,
            mv.s_transform_typical_check(pr, (r, rng.uniform(-0.3, 0.3)), (u, v), tau)["rel_err"],
        )
        worst_t = max(worst_t, mv.t_transform_check(pr, row, "atyp", (u, v), tau)["rel_err"])
        worst_t = max(
            worst_t, mv.t_transform_check(pr, (Fraction(r), 0.17), "typ", (u, v), tau)["rel_err"]
        )
    u, v, tau = _modprop_point(rng)
    for (a, ell, s, t) in ((1, 1, 0, 0), (1, 2, 0, -1), (1, 2, -1, 0)):
        worst_lemma = max(
            worst_lemma, mv.lemma_trafoatyp_check(a, ell, s, t, (u, v), tau)["rel_err"]
        )
    for (a, ell, m, s, t) in ((1, 1, 0, 0, 0), (1, 2, 1, 0, -1), (1, 2, 1, 0, 1)):
        worst_lemma = max(
            worst_lemma,
            mv.lemma_trafotypchar_check(a, ell, m, s, t, 0.13, (u, v), tau)["rel_err"],
        )
    errs = {
        variant: mv.lemma_trafotypchar_check(
            1, 2, 1, 0, -1, 0.13, (u, v), tau, phase_variant=variant
        )["rel_err"]
        for variant in mv.DEF_AM_VARIANTS
    }
    winners = [variant for variant, err in errs.items() if err < 1e-5]
    arbitration_ok = winners == [mv.DEF_AM_VARIANT]
    worst = max(worst_s / 1e-5, worst_t / 1e-12, worst_lemma / 1e-5)
    if not arbitration_ok:
        worst = math.inf
    _finish(
        10,
        "modular S %.2e<=1e-5, T %.2e<=1e-12, lemmas %.2e<=1e-5, unique def-Am winner %s"
        % (worst_s, worst_t, worst_lemma, winners),
        worst,
        1.0,
    )


def test_criterion_11_s_matrix_structure():
    worst_sym, worst_uni, worst_per, worst_weak = 0.0, 0.0, 0.0, 0.0
    for (n, l) in ((1, 1), (2, 2), (3, 3)):
        pr = AlgebraParams(n, l)
        sets = mv.index_sets(pr)
        row = (sets.s_values[0], sets.s_values[-1])
        col = (sets.s_values[-1], sets.s_values[0])
        worst_sym = max(
            worst_sym,
            abs(mv.s_entry_aa(pr, row, col) - mv.s_entry_aa(pr, col, row)),
        )
        m1, m2 = sets.m_values[1], sets.m_values[-1]
        worst_sym = max(
            worst_sym,
            abs(
                mv.s_entry_tt(pr, (m1, 0.37), (m2, 0.61))
                - mv.s_entry_tt(pr, (m2, 0.61), (m1, 0.37))
            ),
        )
    for (n, l) in ((0, 1), (1, 1), (2, 2), (3, 3), (0, 4)):
        worst_uni = max(worst_uni, mv.unitarity_aa_check(AlgebraParams(n, l))["max_abs_err"])
    for (n, l) in ((1, 1), (2, 2)):
        worst_per = max(
            worst_per, mv.s_periodicity_check(AlgebraParams(n, l), seed=11)["max_abs_err"]
        )
    pr = AlgebraParams(1, 1)
    worst_weak = max(worst_weak, mv.unitarity_tt_weak_check(pr, 0.37, 0, 0, test_width=0.05)["scaled_err"])
    worst_weak = max(worst_weak, mv.unitarity_tt_weak_check(pr, 0.37, 0, 1, test_width=0.05)["scaled_err"])
    worst = max(worst_sym / 1e-14, worst_uni / 1e-12, worst_per / 1e-13, worst_weak / 1e-3)
    _finish(
        11,
        "S symmetry %.2e<=1e-14, unitarity %.2e<=1e-12, periodicity %.2e<=1e-13, weak tt %.2e<=1e-3"
        % (worst_sym, worst_uni, worst_per, worst_weak),
        worst,
        1.0,
    )


def test_criterion_12_verlinde_products():
    args, tau = (0.07 + 0.11j, 0.13 + 0.05j), 0.1 + 1.1j
    worst_tel, worst_reg = 0.0, 0.0
    labels_ok = True
    for (n, l, eps) in ((1, 1, 0.2), (3, 1, 0.1), (2, 2, 0.2)):
        pr = AlgebraParams(n, l)
        sets = mv.index_sets(pr)
        row = (sets.s_values[0], sets.s_values[-1])
        row2 = (sets.s_values[-1], sets.s_values[0])
        rep = mv.verlinde_product_aa(pr, row, row2, RegulatorSpec(eps), 10, args, tau)
        worst_tel = max(worst_tel, rep["telescope_rel_err"], rep["label_rel_err"])
    pr = AlgebraParams(3, 1)
    for n_prime in (30.0, 31.0, 40.0):
        worst_reg = max(
            worst_reg,
            abs(chi_regularized(pr, AtypicalWLabel(n_prime, 0), 0.1, 0.2 + 0.1j, 0.1, 1j)),
        )
    for (n, l) in ((1, 1), (2, 2)):
        pr = AlgebraParams(n, l)
        sets = mv.index_sets(pr)
        row = (sets.s_values[0], sets.s_values[-1])
        col = (Fraction(1, 2) if l == 2 else Fraction(1), 0.37)
        rep = mv.verlinde_product_at(pr, row, col, args, tau)
        labels_ok = labels_ok and rep["rule_label_err"] == 0.0 and rep["kronecker_satisfied"]
    worst = max(worst_tel / 1e-9, worst_reg / 1e-12)
    if not labels_ok:
        worst = math.inf
    _finish(
        12,
        "telescoped aa product %.2e<=1e-9, regulated vanishing %.2e<=1e-12, rule labels exact %s"
        % (worst_tel, worst_reg, labels_ok),
        worst,
        1.0,
    )


def test_criterion_13_lattice():
    worst = 0.0
    exact_ok = True
    for alpha_sq in (2, 3, 4):
        for a in range(alpha_sq):
            for b in range(alpha_sq):
                for c in range(alpha_sq):
                    got = lattice_structure_constant(alpha_sq, a, b, c)
                    exact_ok = exact_ok and got == (1 if (a + b - c) % alpha_sq == 0 else 0)
        worst = max(worst, lattice_s_check(alpha_sq, 0.13 + 0.21j, 0.1 + 1.1j)["rel_err"])
    if not exact_ok:
        worst = math.inf
    _finish(13, "lattice structure constants exact, S law", worst, 1e-10)


def test_criterion_14_q_expansions():
    rng = rng_for(14, "acceptance.qexpand")
    worst = 0.0
    series_t = qexpand("theta1", Fraction(4))
    series_a1 = qexpand("ak", Fraction(4), level=1)
    series_a3 = qexpand("ak", Fraction(4), level=3)
    for _ in range(5):
        tau = rand_tau(rng, im_lo=1.2, im_hi=2.0)
        u = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.15, 0.35))
        v = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1))
        worst = max(worst, _rel(series_t.eval_at(u, 0.0, tau), theta1(u, tau)))
        worst = max(worst, _rel(series_a1.eval_at(u, v, tau), a1(u, v, tau)))
        worst = max(worst, _rel(series_a3.eval_at(u, v, tau), aK(3, u, v, tau)))
    vac = qexpand(
        "chi_atypical",
        Fraction(3),
        params=AlgebraParams(1, 1),
        label=AtypicalWLabel(0.0, 0),
    )
    integral_ok = len(vac) > 0
    for (_, _, _), coeff in vac.sorted_items():
        integral_ok = integral_ok and coeff.im == 0 and coeff.re.denominator == 1
    if not integral_ok:
        worst = math.inf
    _finish(14, "q-expansions vs numeric evaluation; vacuum coefficients integral", worst, 1e-9)
