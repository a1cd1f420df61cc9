"""Appell sum tests: definition cross-checks, level decompositions, the
elliptic shift table, and the S-transformation with its Mordell correction."""

import cmath
import math

import pytest

from mockchar.appell import (
    a1,
    aK,
    aK_elliptic_rhs,
    aK_s_transform_rhs,
    aK_tau_plus_one,
    aK_via_rel1,
    aK_via_rel2,
)
from mockchar.domain import TruncationSpec
from mockchar.errors import InvalidParameter, PoleProximity
from mockchar.suites import SuiteConfig, run_suites

POINTS = (
    (0.17 + 0.12j, 0.31 - 0.05j, 0.21 + 1.05j),
    (-0.28 + 0.09j, 0.11 + 0.14j, -0.33 + 1.45j),
    (0.05 - 0.21j, -0.42, 0.9j),
)


def _naive_a1(u, v, tau, n_max=60):
    # direct translation of the defining bilateral series, no clever cutoffs
    z = cmath.exp(2j * math.pi * u)
    y = cmath.exp(2j * math.pi * v)
    q = cmath.exp(2j * math.pi * tau)
    acc = 0.0j
    for n in range(-n_max, n_max + 1):
        acc += (-1.0) ** n * q ** (n * (n + 1) // 2) * y ** n / (1.0 - z * q ** n)
    return z ** 0.5 * acc


def test_a1_matches_naive_series():
    for u, v, tau in POINTS:
        assert abs(a1(u, v, tau) - _naive_a1(u, v, tau)) < 1e-12


def test_a1_is_level_one():
    u, v, tau = POINTS[0]
    assert a1(u, v, tau) == aK(1, u, v, tau)


@pytest.mark.parametrize("level", [1, 2, 3, 5, 7])
def test_rel1_decomposition(level):
    for u, v, tau in POINTS:
        lhs = aK(level, u, v, tau)
        rhs = aK_via_rel1(level, u, v, tau)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0), (level, u, v, tau)


@pytest.mark.parametrize("level", [1, 2, 3, 5, 7])
def test_rel2_decomposition(level):
    for u, v, tau in POINTS:
        lhs = aK(level, u, v, tau)
        rhs = aK_via_rel2(level, u, v, tau)
        assert abs(lhs - rhs) <= 5e-12 * max(abs(lhs), 1.0), (level, u, v, tau)


@pytest.mark.parametrize("which", ["u+1", "v+1", "u+tau", "v+tau"])
@pytest.mark.parametrize("level", [1, 2, 3, 5])
def test_elliptic_shifts(level, which):
    u, v, tau = POINTS[1]
    du = {"u+1": 1.0, "v+1": 0.0, "u+tau": tau, "v+tau": 0.0}[which]
    dv = {"u+1": 0.0, "v+1": 1.0, "u+tau": 0.0, "v+tau": tau}[which]
    lhs = aK(level, u + du, v + dv, tau)
    rhs = aK_elliptic_rhs(level, which, u, v, tau)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_tau_plus_one_invariance():
    for level in (1, 2, 3, 5):
        u, v, tau = POINTS[0]
        assert abs(aK_tau_plus_one(level, u, v, tau) - aK(level, u, v, tau)) < 1e-13


@pytest.mark.parametrize("level", [1, 2, 3, 5])
def test_s_transformation_both_forms(level):
    u, v, tau = 0.19 + 0.11j, 0.27 + 0.03j, 0.13 + 1.1j
    lhs = aK(level, u / tau, v / tau, -1.0 / tau)
    rhs1 = aK_s_transform_rhs(level, u, v, tau, variant="AKS")
    rhs2 = aK_s_transform_rhs(level, u, v, tau, variant="AKS2")
    scale = max(abs(lhs), 1.0)
    assert abs(lhs - rhs1) / scale < 1e-9
    assert abs(lhs - rhs2) / scale < 1e-9
    assert abs(rhs1 - rhs2) / scale < 1e-9


@pytest.mark.parametrize("seed", [0, 13, 16])
def test_s_law_k5_meets_its_tolerance(seed):
    # the AKS2 form multiplies the Mordell quadrature's error by theta
    # weights up to ~1e7; at these seeds the rounding of inexact nodes alone
    # pushes it past the 1e-6 tolerance
    failed = [r.check_id for r in run_suites(SuiteConfig(suites=("appell",), seed=seed))
              if r.status != "pass"]
    assert not [c for c in failed if c.startswith("appell.s-law.K5.")], failed


def test_level_must_be_positive_integer():
    with pytest.raises(InvalidParameter):
        aK(0, 0.1 + 0.1j, 0.2, 1j)
    with pytest.raises(InvalidParameter):
        aK(-3, 0.1 + 0.1j, 0.2, 1j)


def test_pole_lattice_rejected():
    with pytest.raises(PoleProximity):
        aK(3, 0.0, 0.2j, 1j)
    with pytest.raises(PoleProximity):
        aK(2, 1.0 + 1.2j, 0.2, 1.2j)  # u = 1 + tau


def test_unknown_variant_names():
    u, v, tau = POINTS[0]
    with pytest.raises(InvalidParameter):
        aK_elliptic_rhs(2, "u+2", u, v, tau)
    with pytest.raises(InvalidParameter):
        aK_s_transform_rhs(2, u, v, tau, variant="bogus")


def test_truncation_scales_with_spec():
    u, v, tau = POINTS[2]
    loose = aK(3, u, v, tau, TruncationSpec(max_terms=256, tail_tol=1e-10))
    tight = aK(3, u, v, tau, TruncationSpec(max_terms=512, tail_tol=1e-15))
    assert abs(loose - tight) < 1e-10
