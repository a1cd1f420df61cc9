"""Verification suite registry and runner.

Every identity the library implements is wrapped as a named check producing
VerificationReport records.  Checks are independent and pure; each gets its
own RNG derived from (seed, check_id) and reports are sorted by check id, so
the output depends only on the suites and the seed.  The runner executes the
checks one after another in the calling thread: they are pure-Python and hold
the GIL, so worker threads would only contend for it.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import kernel, mordell
from .appell import (
    aK,
    aK_elliptic_rhs,
    aK_s_transform_rhs,
    aK_tau_plus_one,
    aK_via_rel1,
    aK_via_rel2,
)
from .characters import (
    chi_regularized,
    chi_via_appell,
    chi_w_atypical,
    chi_w_typical,
    chiunity_decompose,
    elliptic_shift_atypical,
    elliptic_shift_typical,
    lattice_s_check,
    lattice_structure_constant,
    verify_atyp_typ_difference,
    verify_atypical_periodicity,
    verify_typical_periodicity,
)
from .domain import (
    AlgebraParams,
    AtypicalWLabel,
    RegulatorSpec,
    TWO_PI_I,
    TypicalWLabel,
    check_tolerance,
    rel_err,
    rng_for,
)
from .errors import ConvergenceError, InvalidParameter, PoleOnContour, PoleProximity, SingularEntry
from .kernel import eta, eta_pentagonal, theta1, theta3
from . import modular_verlinde as mv
from .qseries import qexpand
from .report import make_report, skip_report

DEFAULT_GRID = ((0, 1), (1, 1), (2, 1), (2, 2))

PI_I = 1j * math.pi


# ---------------------------------------------------------------------------
# deterministic sampling


def rand_tau(rng: random.Random, im_lo: float = 0.8, im_hi: float = 2.0) -> complex:
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(im_lo, im_hi))


def rand_arg(rng: random.Random, im_max: float = 0.3) -> complex:
    return complex(rng.uniform(-0.45, 0.45), rng.uniform(-im_max, im_max))


def rand_arg_off_lattice(rng: random.Random) -> complex:
    # keep a uniform margin from Z + tau*Z by bounding Im away from 0
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return complex(rng.uniform(-0.45, 0.45), sign * rng.uniform(0.08, 0.3))


# ---------------------------------------------------------------------------
# registry plumbing


@dataclass(frozen=True)
class SuiteConfig:
    suites: tuple = ("all",)
    samples: int = 5
    seed: int = 0
    tol_override: float | None = None
    params_grid: tuple | None = None

    def __post_init__(self) -> None:
        # no sample would drop every sampled check; a tolerance that is not
        # finite and positive fails every check: both are usage errors
        if self.samples < 1:
            raise InvalidParameter("samples must be >= 1, got %r" % (self.samples,))
        if self.tol_override is not None:
            check_tolerance(self.tol_override)


@dataclass
class RunContext:
    rng: random.Random
    samples: int
    tol: float
    grid: tuple
    reports: list = field(default_factory=list)

    def add(self, sub_id: str, anchor: str, err: float, **params) -> None:
        err = float(err)
        note = "" if math.isfinite(err) else "non-finite value"
        self.reports.append(make_report(sub_id, anchor, err, self.tol, params=params, note=note))

    def add_exact(self, sub_id: str, anchor: str, ok: bool, note: str = "", **params) -> None:
        self.reports.append(
            make_report(sub_id, anchor, 0.0 if ok else math.inf, self.tol, params=params, note=note)
        )


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    suite: str
    anchor: str
    tolerance: float
    fn: object


_REGISTRY: list = []


def _check(check_id: str, suite: str, anchor: str, tolerance: float):
    def deco(fn):
        _REGISTRY.append(CheckSpec(check_id, suite, anchor, tolerance, fn))
        return fn

    return deco


def registry() -> tuple:
    return tuple(_REGISTRY)


def suite_names() -> tuple:
    names = sorted({spec.suite for spec in _REGISTRY})
    return tuple(names) + ("all",)


# ---------------------------------------------------------------------------
# kernel suite


@_check("kernel.theta1-laws", "kernel", "four theta1 transformation laws", 1e-10)
def _theta1_laws(ctx: RunContext):
    for k in range(ctx.samples):
        tau = rand_tau(ctx.rng)
        u = rand_arg(ctx.rng)
        base = theta1(u, tau)
        checks = [
            ("u+1", theta1(u + 1.0, tau), -base),
            ("u+tau", theta1(u + tau, tau), -cmath.exp(-PI_I * tau - TWO_PI_I * u) * base),
            ("tau+1", theta1(u, tau + 1.0), cmath.exp(PI_I / 4.0) * base),
            (
                "s",
                theta1(u / tau, -1.0 / tau),
                -1j * kernel.sqrt_principal(-1j * tau) * cmath.exp(PI_I * u * u / tau) * base,
            ),
        ]
        for name, lhs, rhs in checks:
            err = rel_err(lhs, rhs)
            ctx.add("kernel.theta1-laws.%s.%d" % (name, k), "theta1 %s law" % name, err,
                    u=u, tau=tau)


@_check("kernel.eta-laws", "kernel", "eta S/T laws and the pentagonal oracle", 1e-10)
def _eta_laws(ctx: RunContext):
    for k in range(ctx.samples):
        tau = rand_tau(ctx.rng)
        e = eta(tau)
        ctx.add("kernel.eta-laws.pentagonal.%d" % k, "eta product vs pentagonal series",
                abs(e - eta_pentagonal(tau)) / max(abs(e), 1.0), tau=tau)
        ctx.add("kernel.eta-laws.t.%d" % k, "eta T law",
                abs(eta(tau + 1.0) - cmath.exp(PI_I / 12.0) * e) / max(abs(e), 1.0), tau=tau)
        ctx.add("kernel.eta-laws.s.%d" % k, "eta S law",
                abs(eta(-1.0 / tau) - kernel.sqrt_principal(-1j * tau) * e) / max(abs(e), 1.0),
                tau=tau)


@_check("kernel.theta3-half-period", "kernel", "theta3 half-period reduction to theta1", 1e-10)
def _theta3_half(ctx: RunContext):
    for k in range(ctx.samples):
        tau = rand_tau(ctx.rng)
        w = rand_arg(ctx.rng)
        lhs = theta3(w + 0.5 + tau / 2.0, tau)
        rhs = 1j * cmath.exp(-PI_I * tau / 4.0) * cmath.exp(-PI_I * w) * theta1(w, tau)
        ctx.add("kernel.theta3-half-period.%d" % k, "theta3 half-period shift",
                rel_err(lhs, rhs), w=w, tau=tau)


@_check("kernel.theta-rescaling", "kernel", "theta1 at tau/K as K thetas at K tau", 1e-10)
def _theta_rescaling(ctx: RunContext):
    for level in (1, 3, 5):
        tau = rand_tau(ctx.rng)
        u = rand_arg(ctx.rng, im_max=0.15)
        rep = kernel.theta1_rescaling_check(level, u, tau)
        ctx.add("kernel.theta-rescaling.K%d" % level, "theta1 rescaling", rep["rel_err"],
                level=level, u=u, tau=tau)


@_check("kernel.gauss", "kernel", "Gaussian integral closed form", 1e-10)
def _gauss(ctx: RunContext):
    for k in range(ctx.samples):
        alpha = complex(ctx.rng.uniform(0.5, 3.0), ctx.rng.uniform(-2.0, 2.0))
        beta = complex(ctx.rng.uniform(-1.5, 1.5), ctx.rng.uniform(-1.5, 1.5))
        rep = kernel.gauss_identity_check(alpha, beta)
        ctx.add("kernel.gauss.%d" % k, "Gaussian integral", rep["rel_err"],
                alpha=alpha, beta=beta)


# ---------------------------------------------------------------------------
# appell suite


@_check("appell.rel1", "appell", "level decomposition with rescaled first argument", 1e-9)
def _rel1(ctx: RunContext):
    for level in (1, 2, 3, 5, 7):
        for k in range(ctx.samples):
            tau = rand_tau(ctx.rng)
            u = rand_arg_off_lattice(ctx.rng)
            v = rand_arg(ctx.rng)
            lhs = aK(level, u, v, tau)
            rhs = aK_via_rel1(level, u, v, tau)
            ctx.add("appell.rel1.K%d.%d" % (level, k), "A_K via level-one sums",
                    rel_err(lhs, rhs), level=level, u=u, v=v, tau=tau)


@_check("appell.rel2", "appell", "level decomposition with rescaled second argument", 1e-9)
def _rel2(ctx: RunContext):
    for level in (1, 2, 3, 5, 7):
        for k in range(ctx.samples):
            tau = rand_tau(ctx.rng)
            u = rand_arg_off_lattice(ctx.rng)
            v = rand_arg(ctx.rng)
            lhs = aK(level, u, v, tau)
            rhs = aK_via_rel2(level, u, v, tau)
            ctx.add("appell.rel2.K%d.%d" % (level, k), "A_K via level-one sums, dual form",
                    rel_err(lhs, rhs), level=level, u=u, v=v, tau=tau)


@_check("appell.elliptic", "appell", "four elliptic shift laws of A_K", 1e-9)
def _ak_elliptic(ctx: RunContext):
    for level in (1, 2, 3, 5):
        for k in range(max(1, ctx.samples // 2)):
            tau = rand_tau(ctx.rng)
            u = rand_arg_off_lattice(ctx.rng)
            v = rand_arg(ctx.rng)
            for which, du, dv in (
                ("u+1", 1.0, 0.0),
                ("v+1", 0.0, 1.0),
                ("u+tau", tau, 0.0),
                ("v+tau", 0.0, tau),
            ):
                lhs = aK(level, u + du, v + dv, tau)
                rhs = aK_elliptic_rhs(level, which, u, v, tau)
                ctx.add("appell.elliptic.K%d.%s.%d" % (level, which, k),
                        "A_K elliptic shift %s" % which,
                        rel_err(lhs, rhs),
                        level=level, u=u, v=v, tau=tau)


@_check("appell.tau1", "appell", "A_K invariance under tau -> tau+1", 1e-12)
def _ak_tau1(ctx: RunContext):
    for level in (1, 2, 3, 5):
        tau = rand_tau(ctx.rng)
        u = rand_arg_off_lattice(ctx.rng)
        v = rand_arg(ctx.rng)
        lhs = aK_tau_plus_one(level, u, v, tau)
        rhs = aK(level, u, v, tau)
        ctx.add("appell.tau1.K%d" % level, "A_K T law",
                rel_err(lhs, rhs), level=level, u=u, v=v, tau=tau)


@_check("appell.s-law", "appell", "A_K S-transformation with Mordell corrections", 1e-6)
def _ak_s(ctx: RunContext):
    for level in (1, 2, 3, 5):
        tau = rand_tau(ctx.rng, im_lo=0.9, im_hi=1.6)
        u = rand_arg_off_lattice(ctx.rng)
        v = rand_arg(ctx.rng, im_max=0.2)
        lhs = aK(level, u / tau, v / tau, -1.0 / tau)
        rhs1 = aK_s_transform_rhs(level, u, v, tau, variant="AKS")
        rhs2 = aK_s_transform_rhs(level, u, v, tau, variant="AKS2")
        scale = max(abs(lhs), 1.0)
        ctx.add("appell.s-law.K%d.direct" % level, "A_K S law, per-level form",
                abs(lhs - rhs1) / scale, level=level, u=u, v=v, tau=tau)
        ctx.add("appell.s-law.K%d.alt" % level, "A_K S law, level-K theta form",
                abs(lhs - rhs2) / scale, level=level, u=u, v=v, tau=tau)
        ctx.add("appell.s-law.K%d.cross" % level, "two S forms agree",
                abs(rhs1 - rhs2) / scale, level=level, u=u, v=v, tau=tau)


# ---------------------------------------------------------------------------
# mordell suite


@_check("mordell.shift", "mordell", "h(u + s tau) through the shifted kernel", 1e-7)
def _mordell_shift(ctx: RunContext):
    for s in (-0.5, -0.3, 0.0, 0.25, 0.49):
        for k in range(max(1, ctx.samples // 2)):
            tau = rand_tau(ctx.rng, im_lo=0.9, im_hi=1.6)
            u = rand_arg(ctx.rng, im_max=0.2)
            rep = mordell.verify_mordell_shift(s, u, tau)
            ctx.add("mordell.shift.s%+0.2f.%d" % (s, k), "Mordell shift law",
                    rep["rel_err"], s=s, u=u, tau=tau)


@_check("mordell.h1-reflection", "mordell", "h at shift one is -h", 1e-8)
def _mordell_h1(ctx: RunContext):
    for k in range(ctx.samples):
        tau = rand_tau(ctx.rng, im_lo=0.9, im_hi=1.6)
        u = rand_arg(ctx.rng, im_max=0.2)
        rep = mordell.verify_h1_reflection(u, tau)
        ctx.add("mordell.h1-reflection.%d" % k, "h_1 = -h", rep["rel_err"], u=u, tau=tau)


@_check("mordell.eps-independence", "mordell", "half-integer shift contour stability", 1e-8)
def _mordell_eps(ctx: RunContext):
    # the default takes the principal value on R plus the half-residue;
    # eps = 1e-3 runs the trapezoid on R - 1e-3 i, so the two share no node
    for s in (0.5, -0.5):
        tau = rand_tau(ctx.rng, im_lo=0.9, im_hi=1.6)
        u = rand_arg(ctx.rng, im_max=0.2)
        v1 = mordell.mordell_h_s(s, u, tau)
        v2 = mordell.mordell_h_s(s, u, tau, eps=1e-3)
        ctx.add("mordell.eps-independence.s%+0.1f" % s, "contour epsilon independence",
                abs(v1 - v2) / max(abs(v1), 1.0), s=s, u=u, tau=tau)


@_check("mordell.contour", "mordell", "shifted-line integral equals shifted h", 1e-7)
def _mordell_contour(ctx: RunContext):
    for s in (-0.4, -0.15, 0.2, 0.45):
        tau = rand_tau(ctx.rng, im_lo=0.9, im_hi=1.6)
        u = rand_arg(ctx.rng, im_max=0.2)
        rep = mordell.verify_contour_identity(s, u, tau)
        ctx.add("mordell.contour.s%+0.2f" % s, "contour shift identity",
                rep["rel_err"], s=s, u=u, tau=tau)


# ---------------------------------------------------------------------------
# characters suite

CHACTER_GRID = ((0, 1), (1, 1), (2, 1), (2, 2), (3, 3))


@_check("characters.typ-routes", "characters", "typical character: sum route vs theta route", 1e-10)
def _typ_routes(ctx: RunContext):
    for (n, l) in CHACTER_GRID:
        pr = AlgebraParams(n, l)
        for k in range(max(1, ctx.samples // 2)):
            tau = rand_tau(ctx.rng)
            u = rand_arg_off_lattice(ctx.rng)
            v = rand_arg(ctx.rng)
            label = TypicalWLabel(
                complex(ctx.rng.uniform(-1.0, 1.0)), complex(ctx.rng.uniform(0.1, 0.9))
            )
            lhs = chi_w_typical(pr, label, u, v, tau, route="sum")
            rhs = chi_w_typical(pr, label, u, v, tau, route="theta")
            ctx.add("characters.typ-routes.n%d.l%d.%d" % (n, l, k), "two typical evaluations",
                    rel_err(lhs, rhs), n=n, ell=l)


@_check("characters.periodicity", "characters", "label periodicity of both families", 1e-12)
def _char_periodicity(ctx: RunContext):
    for (n, l) in CHACTER_GRID:
        pr = AlgebraParams(n, l)
        tau = rand_tau(ctx.rng)
        u = rand_arg_off_lattice(ctx.rng)
        v = rand_arg(ctx.rng)
        rep_a = verify_atypical_periodicity(pr, AtypicalWLabel(0.3, 1), u, v, tau)
        rep_t = verify_typical_periodicity(pr, TypicalWLabel(0.2 + 0.0j, 0.4 + 0.0j), u, v, tau)
        ctx.add("characters.periodicity.atyp.n%d.l%d" % (n, l), "atypical flow periodicity",
                rep_a["rel_err"], n=n, ell=l)
        ctx.add("characters.periodicity.typ.n%d.l%d" % (n, l), "typical label periodicity",
                rep_t["rel_err"], n=n, ell=l)


@_check("characters.atyp-typ-ladder", "characters", "atypical difference telescopes to a typical", 1e-10)
def _atyp_typ(ctx: RunContext):
    for (n, l) in CHACTER_GRID:
        pr = AlgebraParams(n, l)
        tau = rand_tau(ctx.rng)
        u = rand_arg_off_lattice(ctx.rng)
        v = rand_arg(ctx.rng)
        rep = verify_atyp_typ_difference(pr, AtypicalWLabel(0.15, 0), u, v, tau)
        ctx.add("characters.atyp-typ-ladder.n%d.l%d" % (n, l), "difference of atypicals",
                rep["rel_err"], n=n, ell=l)


@_check("characters.chi-as-appell", "characters", "rank-one atypical as a level-K Appell sum", 1e-10)
def _chi_as_appell(ctx: RunContext):
    for (n, l) in CHACTER_GRID:
        if l != 1:
            continue
        pr = AlgebraParams(n, l)
        for k in range(max(1, ctx.samples // 2)):
            tau = rand_tau(ctx.rng)
            u = rand_arg_off_lattice(ctx.rng)
            v = rand_arg(ctx.rng)
            npr = ctx.rng.uniform(-1.0, 1.0)
            lhs = chi_w_atypical(pr, AtypicalWLabel(npr, 0), u, v, tau)
            rhs = chi_via_appell(pr, npr, u, v, tau)
            ctx.add("characters.chi-as-appell.n%d.%d" % (n, k), "atypical through A_{2a+1}",
                    rel_err(lhs, rhs), n=n)


@_check("characters.elliptic", "characters", "elliptic shift laws of both families", 1e-10)
def _char_elliptic(ctx: RunContext):
    shifts = ("u+1", "v+1", "u+tau", "v+tau")
    for (n, l) in CHACTER_GRID:
        pr = AlgebraParams(n, l)
        tau = rand_tau(ctx.rng)
        u = rand_arg_off_lattice(ctx.rng)
        v = rand_arg(ctx.rng)
        la = AtypicalWLabel(0.23, 1 if l > 1 else 0)
        lt = TypicalWLabel(0.31 + 0.0j, 0.57 + 0.0j)
        for which in shifts:
            rep = elliptic_shift_atypical(pr, la, which, u, v, tau)
            ctx.add("characters.elliptic.atyp.%s.n%d.l%d" % (which, n, l),
                    "atypical %s shift" % which, rep["rel_err"], n=n, ell=l)
            rep = elliptic_shift_typical(pr, lt, which, u, v, tau)
            ctx.add("characters.elliptic.typ.%s.n%d.l%d" % (which, n, l),
                    "typical %s shift" % which, rep["rel_err"], n=n, ell=l)
        alpha = ctx.rng.uniform(-1.5, 1.5)
        rep = elliptic_shift_atypical(pr, la, "v+alpha*tau", u, v, tau, alpha=alpha)
        ctx.add("characters.elliptic.atyp.alpha.n%d.l%d" % (n, l),
                "atypical general flow shift", rep["rel_err"], n=n, ell=l, alpha=alpha)
        rep = elliptic_shift_typical(pr, lt, "v+alpha*tau", u, v, tau, alpha=alpha)
        ctx.add("characters.elliptic.typ.alpha.n%d.l%d" % (n, l),
                "typical general flow shift", rep["rel_err"], n=n, ell=l, alpha=alpha)


@_check("characters.chiunity", "characters", "root-of-unity decompositions", 1e-10)
def _chiunity(ctx: RunContext):
    for l in (1, 2, 3):
        pr = AlgebraParams(l, l)  # a = 1 family keeps the sums small
        tau = rand_tau(ctx.rng)
        u = rand_arg_off_lattice(ctx.rng)
        v = rand_arg(ctx.rng)
        window = range(pr.n, pr.n + pr.ell)
        for direction in ("atyp-fwd", "atyp-bwd", "typ-fwd", "typ-bwd"):
            idx = ctx.rng.choice(list(window))
            rep = chiunity_decompose(pr, direction, idx, u, v, tau,
                                     n_prime=0.21, e_prime=0.43)
            ctx.add("characters.chiunity.%s.l%d" % (direction, l),
                    "root-of-unity decomposition %s" % direction, rep["rel_err"],
                    ell=l, index=idx)


# ---------------------------------------------------------------------------
# lattice suite


@_check("lattice.structure-constants", "lattice", "free-boson fusion ring is cyclic", 0.0)
def _lattice_n(ctx: RunContext):
    for alpha_sq in (2, 3, 4):
        ok = True
        for aa in range(alpha_sq):
            for bb in range(alpha_sq):
                for cc in range(alpha_sq):
                    got = lattice_structure_constant(alpha_sq, aa, bb, cc)
                    want = 1 if (aa + bb - cc) % alpha_sq == 0 else 0
                    ok = ok and got == want
        ctx.add_exact("lattice.structure-constants.a%d" % alpha_sq,
                      "cyclic fusion rules", ok, alpha_sq=alpha_sq)


@_check("lattice.s-law", "lattice", "lattice character S-transformation", 1e-10)
def _lattice_s(ctx: RunContext):
    for alpha_sq in (2, 3, 4):
        tau = rand_tau(ctx.rng)
        u = rand_arg(ctx.rng, im_max=0.15)
        rep = lattice_s_check(alpha_sq, u, tau)
        ctx.add("lattice.s-law.a%d" % alpha_sq, "lattice S law", rep["rel_err"],
                alpha_sq=alpha_sq, u=u, tau=tau)


# ---------------------------------------------------------------------------
# thm-modprop suite


def _modprop_point(rng: random.Random):
    tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.3))
    u = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.05, 0.2))
    v = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.15, 0.15))
    return u, v, tau


@_check("thm-modprop.s-atypical", "thm-modprop", "atypical S-transform in the character basis", 1e-5)
def _modprop_s_atyp(ctx: RunContext):
    for (n, l) in ctx.grid:
        pr = AlgebraParams(n, l)
        u, v, tau = _modprop_point(ctx.rng)
        sets = mv.index_sets(pr)
        row = (sets.s_values[0], sets.s_values[-1])
        rep = mv.s_transform_atypical_check(pr, row, (u, v), tau)
        ctx.add("thm-modprop.s-atypical.n%d.l%d" % (n, l), "atypical S row",
                rep["rel_err"], n=n, ell=l, row=row,
                singular_rows=[str(r) for r in rep.get("singular_rows", ())])


@_check("thm-modprop.s-typical", "thm-modprop", "typical S-transform in the character basis", 1e-5)
def _modprop_s_typ(ctx: RunContext):
    for (n, l) in ctx.grid:
        pr = AlgebraParams(n, l)
        u, v, tau = _modprop_point(ctx.rng)
        r = 0 if pr.K == 1 else 1
        x = ctx.rng.uniform(-0.3, 0.3)
        rep = mv.s_transform_typical_check(pr, (r, x), (u, v), tau)
        ctx.add("thm-modprop.s-typical.n%d.l%d" % (n, l), "typical S row",
                rep["rel_err"], n=n, ell=l, r=r, x=x)


@_check("thm-modprop.t-law", "thm-modprop", "T-transformation phases of both families", 1e-12)
def _modprop_t(ctx: RunContext):
    for (n, l) in ctx.grid:
        pr = AlgebraParams(n, l)
        u, v, tau = _modprop_point(ctx.rng)
        sets = mv.index_sets(pr)
        row = (sets.s_values[-1], sets.s_values[0])
        rep = mv.t_transform_check(pr, row, "atyp", (u, v), tau)
        ctx.add("thm-modprop.t-law.atyp.n%d.l%d" % (n, l), "atypical T phase",
                rep["rel_err"], n=n, ell=l)
        r = 0 if pr.K == 1 else 1
        rep = mv.t_transform_check(pr, (r, 0.21), "typ", (u, v), tau)
        ctx.add("thm-modprop.t-law.typ.n%d.l%d" % (n, l), "typical T phase",
                rep["rel_err"], n=n, ell=l, r=r)


@_check("thm-modprop.lemma-flow-atyp", "thm-modprop", "rank-one atypical S with flow offsets", 1e-5)
def _lemma_atyp(ctx: RunContext):
    for (a, ell, s, t) in ((0, 1, 0, 0), (1, 1, 0, 0), (1, 2, 0, 0), (1, 2, 0, -1), (1, 2, -1, 0)):
        u, v, tau = _modprop_point(ctx.rng)
        rep = mv.lemma_trafoatyp_check(a, ell, s, t, (u, v), tau)
        ctx.add("thm-modprop.lemma-flow-atyp.a%d.l%d.s%+d.t%+d" % (a, ell, s, t),
                "atypical flow lemma", rep["rel_err"], a=a, ell=ell, s=s, t=t)


@_check("thm-modprop.lemma-flow-typ", "thm-modprop", "rank-one typical S with flow offsets", 1e-5)
def _lemma_typ(ctx: RunContext):
    for (a, ell, m, s, t) in (
        (0, 1, 0, 0, 0),
        (1, 1, 1, 0, 0),
        (1, 2, 1, -1, 1),
        (1, 2, 2, 1, 0),
        (2, 1, 2, 0, 0),
    ):
        u, v, tau = _modprop_point(ctx.rng)
        x = ctx.rng.uniform(-0.25, 0.25)
        rep = mv.lemma_trafotypchar_check(a, ell, m, s, t, x, (u, v), tau)
        ctx.add("thm-modprop.lemma-flow-typ.a%d.l%d.m%d.s%+d.t%+d" % (a, ell, m, s, t),
                "typical flow lemma", rep["rel_err"], a=a, ell=ell, m=m, s=s, t=t, x=x)


@_check("thm-modprop.def-am-variants", "thm-modprop", "exactly one quadratic phase variant works", 1e-5)
def _def_am(ctx: RunContext):
    u, v, tau = _modprop_point(ctx.rng)
    winners = []
    errs = {}
    for variant in mv.DEF_AM_VARIANTS:
        worst = 0.0
        for (a, ell, m) in ((1, 1, 1), (2, 1, 3)):
            rep = mv.lemma_trafotypchar_check(a, ell, m, 0, 0, 0.2, (u, v), tau,
                                              phase_variant=variant)
            worst = max(worst, rep["rel_err"])
        errs[variant] = worst
        if worst <= ctx.tol:
            winners.append(variant)
    ok = winners == [mv.DEF_AM_VARIANT]
    ctx.add_exact("thm-modprop.def-am-variants", "unique passing phase variant", ok,
                  note="; ".join("%s:%.2e" % (k, e) for k, e in errs.items()))


@_check("thm-modprop.s-compose", "thm-modprop", "double S-transform returns the parity image", 1e-4)
def _s_compose(ctx: RunContext):
    for (n, l) in ctx.grid:
        if l != 1:
            continue
        pr = AlgebraParams(n, l)
        u, v, tau = _modprop_point(ctx.rng)
        rep = mv.s_compose_check(pr, (0, 0), (u, v), tau)
        ctx.add("thm-modprop.s-compose.n%d.l%d" % (n, l), "S squared", rep["rel_err"], n=n, ell=l)


# ---------------------------------------------------------------------------
# smatrix suite


@_check("smatrix.symmetry", "smatrix", "S entries symmetric in row and column", 1e-14)
def _symmetry(ctx: RunContext):
    for (n, l) in ((1, 1), (2, 2)):
        pr = AlgebraParams(n, l)
        sets = mv.index_sets(pr)
        worst = 0.0
        for row in ((sets.s_values[0], sets.s_values[-1]), (sets.s_values[-1], sets.s_values[-1])):
            for col in ((sets.s_values[-1], sets.s_values[0]), (sets.s_values[0], sets.s_values[0])):
                worst = max(worst, abs(mv.s_entry_aa(pr, row, col) - mv.s_entry_aa(pr, col, row)))
        e1, e2 = 0.37, 0.61
        m1, m2 = (Fraction(1), Fraction(2)) if l == 1 else (Fraction(1, 2), Fraction(3, 2))
        worst = max(worst, abs(mv.s_entry_tt(pr, (m1, e1), (m2, e2)) - mv.s_entry_tt(pr, (m2, e2), (m1, e1))))
        ctx.add("smatrix.symmetry.n%d.l%d" % (n, l), "S symmetry", worst, n=n, ell=l)


@_check("smatrix.unitarity-aa", "smatrix", "atypical block unitarity", 1e-12)
def _unitarity_aa(ctx: RunContext):
    for (n, l) in ((0, 1), (1, 1), (2, 2), (3, 3), (0, 4)):
        pr = AlgebraParams(n, l)
        rep = mv.unitarity_aa_check(pr)
        ctx.add("smatrix.unitarity-aa.n%d.l%d" % (n, l), "aa unitarity",
                rep["max_abs_err"], n=n, ell=l)


@_check("smatrix.periodicity", "smatrix", "index periodicity of the S entries", 1e-13)
def _s_periodicity(ctx: RunContext):
    for (n, l) in ((1, 1), (2, 2)):
        pr = AlgebraParams(n, l)
        rep = mv.s_periodicity_check(pr, seed=ctx.rng.randrange(1 << 30))
        ctx.add("smatrix.periodicity.n%d.l%d" % (n, l), "entry periodicity",
                rep["max_abs_err"], n=n, ell=l)


@_check("smatrix.unitarity-tt-weak", "smatrix", "typical unitarity against a Gaussian probe", 1e-3)
def _unitarity_tt(ctx: RunContext):
    pr = AlgebraParams(1, 1)
    rep = mv.unitarity_tt_weak_check(pr, 0.37, 0, 0, test_width=0.05)
    ctx.add("smatrix.unitarity-tt-weak.diag", "tt unitarity, diagonal", rep["scaled_err"])
    rep = mv.unitarity_tt_weak_check(pr, 0.37, 0, 1, test_width=0.05)
    ctx.add("smatrix.unitarity-tt-weak.offdiag", "tt unitarity, off-diagonal", rep["scaled_err"])
    pr = AlgebraParams(2, 2)
    rep = mv.unitarity_tt_weak_check(pr, 0.41, Fraction(1, 2), Fraction(1, 2), test_width=0.05)
    ctx.add("smatrix.unitarity-tt-weak.l2", "tt unitarity at rank two", rep["scaled_err"])


@_check("smatrix.n-weak", "smatrix", "structure constants against a Gaussian probe", 1e-3)
def _n_weak(ctx: RunContext):
    pr = AlgebraParams(1, 1)
    rep = mv.structure_constant_weak_check(pr, (0, 0), (0, 0.37), 0, test_width=0.05)
    ctx.add("smatrix.n-weak.l1", "Verlinde integral, rank one", rep["scaled_err"],
            kron=rep["kronecker_satisfied"])
    pr = AlgebraParams(2, 2)
    rep = mv.structure_constant_weak_check(pr, (-1, 0), (Fraction(1, 2), 0.41), Fraction(0), 0.05)
    ctx.add("smatrix.n-weak.l2", "Verlinde integral, rank two", rep["scaled_err"],
            kron=rep["kronecker_satisfied"])


# ---------------------------------------------------------------------------
# verlinde suite


@_check("verlinde.product-at", "verlinde", "atypical x typical product labels", 1e-10)
def _product_at(ctx: RunContext):
    for (n, l) in ((1, 1), (2, 2), (3, 1)):
        pr = AlgebraParams(n, l)
        u, v, tau = _modprop_point(ctx.rng)
        sets = mv.index_sets(pr)
        row = (sets.s_values[0], sets.s_values[-1])
        col = (Fraction(1, 2) if l == 2 else Fraction(1), 0.37)
        rep = mv.verlinde_product_at(pr, row, col, (u, v), tau)
        sub_id = "verlinde.product-at.n%d.l%d" % (n, l)
        if rep["kronecker_satisfied"] and rep["idempotent"]:
            ctx.add(sub_id, "fusion with a typical",
                    max(rep["window_rel_err"], rep["rule_label_err"]), n=n, ell=l)
        else:
            ctx.add_exact(sub_id, "fusion with a typical", False,
                          note="Kronecker condition or idempotence fails", n=n, ell=l)


@_check("verlinde.product-aa", "verlinde", "atypical x atypical telescoping product", 1e-9)
def _product_aa(ctx: RunContext):
    for (n, l), eps in (((1, 1), 0.2), ((3, 1), 0.1), ((2, 2), 0.2)):
        pr = AlgebraParams(n, l)
        u, v, tau = _modprop_point(ctx.rng)
        sets = mv.index_sets(pr)
        row = (sets.s_values[0], sets.s_values[-1])
        row2 = (sets.s_values[-1], sets.s_values[0])
        rep = mv.verlinde_product_aa(pr, row, row2, RegulatorSpec(epsilon=eps), 10, (u, v), tau)
        err = max(rep["telescope_rel_err"], rep["label_rel_err"])
        ctx.add("verlinde.product-aa.n%d.l%d" % (n, l), "regularized fusion of atypicals",
                err, n=n, ell=l, regulator_tail=rep["regulator_tail"])


@_check("verlinde.regulator", "verlinde", "regularized character vanishes at large labels", 1e-12)
def _regulator(ctx: RunContext):
    pr = AlgebraParams(3, 1)
    worst = 0.0
    for npr in (30, 31, 40):
        val = abs(chi_regularized(pr, AtypicalWLabel(npr, 0), 0.1, 0.2 + 0.1j, 0.1, 1j))
        worst = max(worst, val)
    ctx.add("verlinde.regulator", "vanishing at infinity", worst, n=3, ell=1, epsilon=0.1)


# ---------------------------------------------------------------------------
# qexpand suite


@_check("qexpand.theta1", "qexpand", "theta1 series vs direct evaluation", 1e-9)
def _qexpand_theta1(ctx: RunContext):
    series = qexpand("theta1", Fraction(4))
    for k in range(ctx.samples):
        tau = rand_tau(ctx.rng, im_lo=1.2, im_hi=2.0)
        u = complex(ctx.rng.uniform(-0.3, 0.3), ctx.rng.uniform(0.15, 0.35))
        lhs = series.eval_at(u, 0.0, tau)
        rhs = theta1(u, tau)
        ctx.add("qexpand.theta1.%d" % k, "series oracle",
                abs(lhs - rhs) / max(abs(rhs), 1.0), u=u, tau=tau)


@_check("qexpand.appell", "qexpand", "Appell series vs direct evaluation", 1e-9)
def _qexpand_appell(ctx: RunContext):
    for level in (1, 3):
        series = qexpand("ak", Fraction(4), level=level)
        for k in range(ctx.samples):
            tau = rand_tau(ctx.rng, im_lo=1.2, im_hi=2.0)
            u = complex(ctx.rng.uniform(-0.3, 0.3), ctx.rng.uniform(0.15, 0.35))
            v = complex(ctx.rng.uniform(-0.3, 0.3), ctx.rng.uniform(-0.1, 0.1))
            lhs = series.eval_at(u, v, tau)
            rhs = aK(level, u, v, tau)
            ctx.add("qexpand.appell.K%d.%d" % (level, k), "series oracle",
                    abs(lhs - rhs) / max(abs(rhs), 1.0), level=level, u=u, v=v, tau=tau)


@_check("qexpand.vacuum", "qexpand", "vacuum character has integer coefficients", 0.0)
def _qexpand_vacuum(ctx: RunContext):
    pr = AlgebraParams(0, 1)
    series = qexpand("chi_atypical", Fraction(3), params=pr, label=AtypicalWLabel(0.0, 0))
    ok = len(series) > 0
    for (qe, zp, yp), coeff in series.sorted_items():
        if coeff.im != 0 or coeff.re.denominator != 1:
            ok = False
    ctx.add_exact("qexpand.vacuum", "integrality through order three", ok)


# ---------------------------------------------------------------------------
# runner


def resolve_checks(suites) -> list:
    wanted = set(suites)
    if "all" in wanted:
        return sorted(_REGISTRY, key=lambda s: s.check_id)
    unknown = wanted - set(suite_names())
    if unknown:
        raise InvalidParameter("unknown suite(s): %s" % ", ".join(sorted(unknown)))
    return sorted((s for s in _REGISTRY if s.suite in wanted), key=lambda s: s.check_id)


def _run_one(spec: CheckSpec, config: SuiteConfig) -> list:
    tol = config.tol_override if config.tol_override is not None else spec.tolerance
    ctx = RunContext(
        rng=rng_for(config.seed, spec.check_id),
        samples=config.samples,
        tol=tol,
        grid=config.params_grid or DEFAULT_GRID,
    )
    started = time.perf_counter()
    try:
        spec.fn(ctx)
    except (PoleOnContour, PoleProximity, SingularEntry) as exc:
        # documented singular configurations only; never masks a failure
        ctx.reports.append(
            skip_report(spec.check_id + ".singular", spec.anchor, str(exc), tol)
        )
    except ConvergenceError as exc:
        ctx.reports.append(
            make_report(spec.check_id + ".convergence", spec.anchor, math.inf, tol,
                        note="convergence failure: %s" % exc)
        )
    wall = (time.perf_counter() - started) * 1000.0
    share = wall / max(len(ctx.reports), 1)
    for r in ctx.reports:  # built by this check and held by no one else yet
        object.__setattr__(r, "wall_ms", share)
    return ctx.reports


def run_suites(config: SuiteConfig) -> list:
    reports: list = []
    for spec in resolve_checks(config.suites):
        reports.extend(_run_one(spec, config))
    reports.sort(key=lambda r: r.check_id)
    return reports


def exit_code(reports) -> int:
    if any("convergence failure" in r.note for r in reports):
        return 3
    if any(r.status == "fail" for r in reports):
        return 1
    return 0
