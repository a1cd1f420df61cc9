"""mockchar: Appell-Lerch sums, Mordell integrals, W-superalgebra characters,
and numerical verification of their modular transformation laws."""

__version__ = "0.1.0"

from .appell import a1, aK
from .characters import chi_lattice, chi_w_atypical, chi_w_typical
from .domain import (
    AlgebraParams,
    AtypicalWLabel,
    EllipticArgs,
    ModularPoint,
    QuadratureSpec,
    RegulatorSpec,
    TruncationSpec,
    TypicalWLabel,
)
from .kernel import eta, eta_pentagonal, integrate_line, theta1, theta3
from .mordell import mordell_h, mordell_h_s
from .qseries import qexpand
from .report import VerificationReport
from .suites import SuiteConfig, run_suites

__all__ = [
    "AlgebraParams",
    "AtypicalWLabel",
    "EllipticArgs",
    "ModularPoint",
    "QuadratureSpec",
    "RegulatorSpec",
    "SuiteConfig",
    "TruncationSpec",
    "TypicalWLabel",
    "VerificationReport",
    "a1",
    "aK",
    "chi_lattice",
    "chi_w_atypical",
    "chi_w_typical",
    "eta",
    "eta_pentagonal",
    "integrate_line",
    "mordell_h",
    "mordell_h_s",
    "qexpand",
    "run_suites",
    "theta1",
    "theta3",
    "__version__",
]
