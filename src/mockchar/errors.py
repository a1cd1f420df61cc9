"""Exception hierarchy.

Domain errors map to CLI exit code 2, convergence errors to exit code 3.
"""


class MockcharError(Exception):
    """Base class for all library errors."""


class DomainError(MockcharError):
    """Invalid input: out-of-domain point, bad label, unsupported object."""


class ConvergenceError(MockcharError):
    """A numerical procedure could not reach the requested accuracy."""


class InvalidParameter(DomainError):
    pass


class PoleProximity(DomainError):
    """Evaluation point is within the pole-clearance distance of a pole."""


class PoleOnContour(DomainError):
    """An integrand pole lies on (or too close to) the integration contour."""


class SingularEntry(DomainError):
    """S-matrix entry is singular (sin(pi e) = 0 for integer e)."""


class IndexOutOfRange(DomainError):
    """Index not contained in the required index set."""


class UnsupportedObject(DomainError):
    """qexpand was asked for a series object it does not know."""


class NonRationalExponents(DomainError):
    """Labels would produce irrational exponents in an exact expansion."""


class TailBoundExceeded(ConvergenceError):
    """Series tail bound above tail_tol at the allowed max_terms."""


class QuadratureNoConvergence(ConvergenceError):
    """Adaptive quadrature exhausted its node budget above tolerance."""


class RangeExceeded(ConvergenceError, OverflowError):
    """A series term or pole factor left the double range.

    Still an OverflowError, so code that caught the builtin error keeps
    working; as a ConvergenceError it exits 3 from the CLI.
    """
