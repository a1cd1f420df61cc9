"""Core value types and argument checks: truncation and quadrature specs,
algebra parameters, module labels, and the coercion of u, v and tau.

Specs, parameters and labels are immutable and validated at construction.
Elliptic and modular arguments are validated at the boundary: a public entry
point (a package export, or a function the CLI or the suites call) passes u
and v through as_complex and tau through as_tau, which also rejects tau off
the upper half-plane, and hands plain complex numbers to private cores
(kernel._theta1, _theta3, _eta, appell._aK, the characters' cores), which
check nothing again.  A public call therefore validates each of its complex
arguments once, however many series it sums.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameter

TWO_PI_I = 2j * math.pi
PI_I = 1j * math.pi


def as_complex(x) -> complex:
    """x as a finite complex number.  A str or bytes is rejected, not parsed:
    the CLI parses its own literals (cli.parse_complex)."""
    if type(x) is complex:
        c = x
    elif isinstance(x, (str, bytes)):
        raise InvalidParameter("expected a number, got %r" % (x,))
    else:
        c = complex(x)
    if not cmath.isfinite(c):
        raise InvalidParameter("non-finite complex value %r" % (x,))
    return c


def as_tau(tau) -> complex:
    """tau as a finite complex number in the upper half-plane."""
    t = as_complex(tau)
    if not t.imag > 0.0:
        raise InvalidParameter("tau %s not in upper half-plane" % (t,))
    return t


def rng_for(seed: int, check_id: str) -> "random.Random":
    """random.Random seeded from (seed, check_id) alone, so every check and
    sweep point draws the same values in any order or process."""
    import hashlib
    import random

    digest = hashlib.sha256(("%d:%s" % (seed, check_id)).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def floor_re(e) -> int:
    """Largest integer smaller or equal to the real part of e."""
    return math.floor(complex(e).real)


def rel_err(lhs, rhs) -> float:
    """|lhs - rhs| / max(|lhs|, |rhs|, 1): relative for values above 1,
    absolute below."""
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def identity_report(check: str, lhs, rhs, **extra) -> dict:
    """The dict an identity check returns: both sides and both errors."""
    out = {"check": check, "lhs": lhs, "rhs": rhs, "abs_err": abs(lhs - rhs), "rel_err": rel_err(lhs, rhs)}
    out.update(extra)
    return out


@dataclass(frozen=True)
class TruncationSpec:
    """Symmetric series window n in [-N, N] with an a posteriori tail bound."""

    max_terms: int = 128
    tail_tol: float = 1e-13

    def __post_init__(self):
        if self.max_terms <= 0:
            raise InvalidParameter("max_terms must be positive")
        if not self.tail_tol > 0.0:
            raise InvalidParameter("tail_tol must be positive")

    def scaled(self, factor: float) -> "TruncationSpec":
        return TruncationSpec(max(8, int(math.ceil(self.max_terms * factor))), self.tail_tol)


DEFAULT_TRUNC = TruncationSpec()


def check_level(level: int) -> None:
    """A level K (of aK, or of theta1's rescaling) must be a positive integer."""
    if not isinstance(level, int) or level < 1:
        raise InvalidParameter("level must be a positive integer, got %r" % (level,))


def check_tolerance(tol: float) -> None:
    """A tolerance given by the user must be finite and positive."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidParameter("tolerance must be finite and > 0, got %r" % (tol,))


@dataclass(frozen=True)
class QuadratureSpec:
    """Trapezoid window [-L, L] with 2^k node refinement."""

    half_width: float = 8.0
    nodes: int = 64
    tail_tol: float = 1e-11
    max_nodes: int = 1 << 19

    def __post_init__(self):
        if not self.half_width > 0.0:
            raise InvalidParameter("half_width must be positive")
        if self.nodes < 4:
            raise InvalidParameter("nodes must be at least 4")


DEFAULT_QUAD = QuadratureSpec()

POLE_CLEARANCE = 1e-6


def contour_depth(depth) -> float:
    """depth, checked to lie in (0, 1): depth 0 runs through the on-axis pole
    and depth 1 or more reaches or crosses the next one, changing the value."""
    d = float(depth)
    if not 0.0 < d < 1.0:
        raise InvalidParameter("contour depth must lie in (0, 1), got %r" % (depth,))
    return d


def lattice_distance(w: complex, tau: complex) -> float:
    """Distance of w from the lattice Z + tau*Z (metric used for pole clearance)."""
    w = complex(w)
    tau = complex(tau)
    beta = w.imag / tau.imag
    alpha = w.real - beta * tau.real
    best = math.inf
    for db in (math.floor(beta), math.floor(beta) + 1):
        for da in (math.floor(alpha), math.floor(alpha) + 1):
            best = min(best, abs(w - (da + db * tau)))
    return best


@dataclass(frozen=True)
class AlgebraParams:
    """W-algebra data: ell > 0, n = a*ell with integer a >= 0, K = 2a + 1."""

    n: int
    ell: int

    def __post_init__(self):
        if not isinstance(self.ell, int) or not isinstance(self.n, int):
            raise InvalidParameter("n and ell must be integers")
        if self.ell <= 0:
            raise InvalidParameter("ell must be positive")
        if self.n % self.ell != 0:
            raise InvalidParameter("n must be divisible by ell")
        if self.n * self.ell + self.ell**2 <= 0:
            raise InvalidParameter("n*ell + ell^2 must be positive")

    @property
    def a(self) -> int:
        return self.n // self.ell

    @property
    def K(self) -> int:
        return 2 * self.a + 1


@dataclass(frozen=True)
class AtypicalWLabel:
    """Label (n', l') of an atypical W-module; n' may be complex, l' is an integer.

    A Fraction n' stays exact, so exact q-expansions can take any rational
    n'; every other n' is stored as a complex number."""

    n_prime: complex | Fraction
    ell_prime: int

    def __post_init__(self):
        if not isinstance(self.n_prime, Fraction):
            object.__setattr__(self, "n_prime", as_complex(self.n_prime))
        if not isinstance(self.ell_prime, int):
            raise InvalidParameter("ell_prime must be an integer")


@dataclass(frozen=True)
class TypicalWLabel:
    """Label (n', e') of a typical W-module; integer e' marks an indecomposable."""

    n_prime: complex
    e_prime: complex

    def __post_init__(self):
        object.__setattr__(self, "n_prime", as_complex(self.n_prime))
        object.__setattr__(self, "e_prime", as_complex(self.e_prime))


@dataclass(frozen=True)
class RegulatorSpec:
    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise InvalidParameter("epsilon must be positive")
