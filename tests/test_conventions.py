"""Sign and phase arbitration tests.

Every sign or phase reading of a transformation law has one switch, so that
the resolved reading and its rejected alternative both stay computable: a
frozen constant in modular_verlinde (set to its losing value here with
monkeypatch), or a variant keyword of appell's right-hand sides and of
lemma_trafotypchar_check's phase_variant.  These tests freeze the
arbitration: the resolved reading passes at tight tolerance and each
alternative fails by a margin orders of magnitude above it, at points where
the compared values are O(1) so relative and absolute error agree.
"""

import math
from fractions import Fraction

import pytest

import mockchar.modular_verlinde as mv
from mockchar.appell import aK, aK_elliptic_rhs, aK_s_transform_rhs
from mockchar.domain import AlgebraParams

U, V, TAU = 0.19 + 0.11j, 0.27 + 0.03j, 0.13 + 1.1j
ARGS = (0.07 + 0.11j, 0.13 + 0.05j)
MTAU = 0.1 + 1.1j


def _rel(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


@pytest.mark.parametrize("which", ["u+tau", "v+tau"])
@pytest.mark.parametrize("K", [2, 4])
def test_appell_elliptic_correction_sign_even_level(which, K):
    # the two theta-coefficient readings differ only at even level; the
    # u+tau theta term decays like q^K, so keep Im tau low to resolve it
    tau = 0.13 + 0.5j
    du, dv = (tau, 0.0) if which == "u+tau" else (0.0, tau)
    lhs = aK(K, U + du, V + dv, tau)
    good = aK_elliptic_rhs(K, which, U, V, tau)
    bad = aK_elliptic_rhs(K, which, U, V, tau, coefficient_variant="printed")
    assert _rel(lhs, good) < 1e-12
    assert _rel(lhs, bad) > 1e-4, (which, K, _rel(lhs, bad))


@pytest.mark.parametrize("which", ["u+tau", "v+tau"])
@pytest.mark.parametrize("K", [1, 3])
def test_appell_elliptic_variants_coincide_odd_level(which, K):
    # i^{-K} equals -i^K for odd K, so both readings pass there
    du, dv = (TAU, 0.0) if which == "u+tau" else (0.0, TAU)
    lhs = aK(K, U + du, V + dv, TAU)
    good = aK_elliptic_rhs(K, which, U, V, TAU)
    bad = aK_elliptic_rhs(K, which, U, V, TAU, coefficient_variant="printed")
    assert _rel(lhs, good) < 1e-12
    assert _rel(good, bad) < 1e-15


@pytest.mark.parametrize("variant", ["AKS", "AKS2"])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_appell_s_transform_correction_sign(variant, K):
    lhs = aK(K, U / TAU, V / TAU, -1.0 / TAU)
    good = aK_s_transform_rhs(K, U, V, TAU, variant=variant)
    bad = aK_s_transform_rhs(K, U, V, TAU, variant=variant, sign_variant="printed")
    assert _rel(lhs, good) < 1e-6
    assert _rel(lhs, bad) > 1e-4, (variant, K, _rel(lhs, bad))


def test_s_transform_atypical_block_sign_and_parity(monkeypatch):
    pr = AlgebraParams(1, 1)
    good = mv.s_transform_atypical_check(pr, (0, 0), ARGS, MTAU)
    assert good["rel_err"] < 1e-5
    with monkeypatch.context() as m:
        m.setattr(mv, "AT_BLOCK_SIGN", -1.0)
        flipped = mv.s_transform_atypical_check(pr, (0, 0), ARGS, MTAU)
    assert flipped["rel_err"] > 1e-2, flipped["rel_err"]
    with monkeypatch.context() as m:
        m.setattr(mv, "S_AT_PARITY", False)
        unsigned = mv.s_transform_atypical_check(pr, (0, 0), ARGS, MTAU)
    assert unsigned["rel_err"] > 1e-2, unsigned["rel_err"]


@pytest.mark.parametrize("n,l,r,gate", [(2, 1, Fraction(1), 1e-3), (2, 2, Fraction(1, 2), 1e-4)])
def test_t_phase_variant_discrimination(n, l, r, gate, monkeypatch):
    # beta = a - r != 0 at these points, which is what separates the variants
    pr = AlgebraParams(n, l)
    assert pr.a != r
    good = mv.t_transform_check(pr, (r, 0.17), "typ", ARGS, MTAU)
    monkeypatch.setattr(mv, "T_PHASE_VARIANT", "K2")
    bad = mv.t_transform_check(pr, (r, 0.17), "typ", ARGS, MTAU)
    assert bad["variant"] == "K2"
    assert good["rel_err"] < 1e-13
    assert bad["rel_err"] > gate, bad["rel_err"]


def test_t_phase_variants_agree_at_beta_zero(monkeypatch):
    # r = a makes the quadratic term identical, so "K2" must NOT fail here;
    # a discriminating test point needs beta != 0
    pr = AlgebraParams(2, 2)
    good = mv.t_transform_check(pr, (Fraction(1), 0.17), "typ", ARGS, MTAU)
    monkeypatch.setattr(mv, "T_PHASE_VARIANT", "K2")
    bad = mv.t_transform_check(pr, (Fraction(1), 0.17), "typ", ARGS, MTAU)
    assert good["rel_err"] < 1e-13
    assert bad["rel_err"] < 1e-13


def test_lemma_trafoatyp_half_sign(monkeypatch):
    good = mv.lemma_trafoatyp_check(1, 1, 0, 0, ARGS, MTAU)
    monkeypatch.setattr(mv, "LEMMA_HALF_SIGN", -1.0)
    bad = mv.lemma_trafoatyp_check(1, 1, 0, 0, ARGS, MTAU)
    assert good["rel_err"] < 1e-5
    assert bad["rel_err"] > 1e-2, bad["rel_err"]


def test_lemma_trafoatyp_singular_contour_side(monkeypatch):
    cell = (1, 2, -1, 0)
    good = mv.lemma_trafoatyp_check(*cell, ARGS, MTAU)
    monkeypatch.setattr(mv, "SINGULAR_CONTOUR_SIDE", -1.0)
    below = mv.lemma_trafoatyp_check(*cell, ARGS, MTAU)
    monkeypatch.setattr(mv, "SINGULAR_CONTOUR_SIDE", 0.0)
    pv = mv.lemma_trafoatyp_check(*cell, ARGS, MTAU)
    assert good["rel_err"] < 1e-5
    assert below["rel_err"] > 1e-3, below["rel_err"]
    assert pv["rel_err"] > 1e-3, pv["rel_err"]


def test_lemma_trafotypchar_quarter_term(monkeypatch):
    good = mv.lemma_trafotypchar_check(1, 1, 0, 0, 0, 0.13, ARGS, MTAU)
    monkeypatch.setattr(mv, "S_TT_QUARTER_TERM", 0.25)
    bad = mv.lemma_trafotypchar_check(1, 1, 0, 0, 0, 0.13, ARGS, MTAU)
    assert good["rel_err"] < 1e-5
    assert bad["rel_err"] > 1e-2, bad["rel_err"]


def test_def_am_variant_unique_winner():
    # the resolved quadratic-term reading is the only one that passes, and the
    # arbitration point must involve nonzero flow to separate the variants
    errs = {}
    for variant in mv.DEF_AM_VARIANTS:
        rep = mv.lemma_trafotypchar_check(
            1, 2, 1, 0, -1, 0.13, ARGS, MTAU, phase_variant=variant
        )
        errs[variant] = rep["rel_err"]
    winners = [v for v, e in errs.items() if e < 1e-5]
    assert winners == [mv.DEF_AM_VARIANT], errs
    for v, e in errs.items():
        if v != mv.DEF_AM_VARIANT:
            assert e > 1e-3, (v, e)


def test_resolved_constants_frozen():
    # the library-level convention block is part of the contract
    assert mv.S_AT_PARITY is True
    assert mv.AT_BLOCK_SIGN == 1.0
    assert mv.LEMMA_HALF_SIGN == 1.0
    assert mv.SINGULAR_CONTOUR_SIDE == 1.0
    assert mv.T_PHASE_VARIANT == "K"
    assert mv.DEF_AM_VARIANT == "mp+1/2,m+1/2"
    assert mv.S_TT_QUARTER_TERM == -0.25
    assert mv.DEF_AM_VARIANT in mv.DEF_AM_VARIANTS
