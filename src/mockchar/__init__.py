"""mockchar: Appell-Lerch sums, Mordell integrals, W-superalgebra characters,
and numerical verification of their modular transformation laws.

The names in `__all__` are loaded on first access (PEP 562), so importing the
package costs only this module; `from mockchar import theta1` loads `kernel`,
and numpy stays unloaded until a quadrature runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it
_EXPORTS = {
    "a1": "appell",
    "aK": "appell",
    "chi_lattice": "characters",
    "chi_w_atypical": "characters",
    "chi_w_typical": "characters",
    "AlgebraParams": "domain",
    "AtypicalWLabel": "domain",
    "QuadratureSpec": "domain",
    "RegulatorSpec": "domain",
    "TruncationSpec": "domain",
    "TypicalWLabel": "domain",
    "eta": "kernel",
    "eta_pentagonal": "kernel",
    "integrate_line": "kernel",
    "theta1": "kernel",
    "theta3": "kernel",
    "mordell_h": "mordell",
    "mordell_h_s": "mordell",
    "qexpand": "qseries",
    "VerificationReport": "report",
    "SuiteConfig": "suites",
    "run_suites": "suites",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
