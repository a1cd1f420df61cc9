"""What each entry point loads: the package and the CLI import lazily, and
numpy arrives only with the first quadrature.

Every check that reads sys.modules runs in a fresh interpreter, since this
test process has long since loaded everything.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

import mockchar

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mockchar.__file__)))
PKG = os.path.join(SRC, "mockchar")
HEAVY = ("suites", "report", "modular_verlinde", "characters", "qseries", "appell", "mordell",
         "kernel")

# Runs the given statements, then prints which of numpy and the heavy
# submodules are loaded.
PROBE = """
import contextlib, io, json, sys
{body}
print(json.dumps({{
    "numpy": "numpy" in sys.modules,
    "mockchar": sorted(m[9:] for m in sys.modules if m.startswith("mockchar.")),
}}))
"""


def loaded_after(body: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE.format(body=body)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_runs(*argvs) -> str:
    lines = ["import mockchar.cli"]
    for argv in argvs:
        lines.append("with contextlib.redirect_stdout(io.StringIO()):")
        lines.append("    assert mockchar.cli.main(%r) == 0" % (list(argv),))
    return "\n".join(lines)


@pytest.mark.parametrize("body", ["import mockchar", "import mockchar.cli"])
def test_import_loads_no_numpy_and_no_layer(body):
    got = loaded_after(body)
    assert not got["numpy"]
    assert not set(got["mockchar"]) & set(HEAVY), got["mockchar"]


def test_series_commands_never_load_numpy():
    got = loaded_after(cli_runs(
        ["eval", "theta1", "--u", "0.1", "--tau", "i"],
        ["eval", "theta3", "--u", "0.1", "--tau", "i"],
        ["eval", "ak", "--K", "3", "--u", "0.17+0.05i", "--v", "0.31", "--tau", "2i"],
        ["eval", "chi_typical", "--n", "1", "--l", "1", "--nprime", "0.3", "--eprime", "0.41",
         "--u", "0.17+0.05i", "--v", "0.31", "--tau", "1.2i"],
        ["eval", "chi_atypical", "--n", "1", "--l", "1", "--nprime", "0.5", "--lprime", "0",
         "--u", "0.17+0.05i", "--v", "0.31", "--tau", "1.2i"],
        ["expand", "theta1", "--order", "4"],
        ["expand", "chi-A", "--n", "1", "--l", "1", "--nprime", "0.5", "--lprime", "0",
         "--order", "3"],
    ))
    assert not got["numpy"]
    assert not {"suites", "report", "modular_verlinde"} & set(got["mockchar"]), got["mockchar"]


def test_suites_and_qexpand_verify_load_no_numpy():
    # the suites import every layer, but numpy only with the first quadrature
    assert not loaded_after("import mockchar.suites")["numpy"]
    got = loaded_after(cli_runs(["verify", "--suite", "qexpand"]))
    assert not got["numpy"]
    assert "suites" in got["mockchar"]


def test_s_entries_without_quadrature_load_no_numpy():
    got = loaded_after("""
from fractions import Fraction
from mockchar.domain import AlgebraParams
from mockchar.modular_verlinde import s_entry_at, s_entry_consistency_check
pr = AlgebraParams(2, 2)
s_entry_at(pr, (0, 0), (Fraction(1, 2), 0.3 + 0.1j), label_kind="m")
s_entry_consistency_check(pr, Fraction(1, 2), 0.21, Fraction(-1, 2), 0.33)
""")
    assert not got["numpy"]
    assert "modular_verlinde" in got["mockchar"]


def test_sweep_loads_no_verify_stack():
    got = loaded_after(cli_runs(["sweep", "thetascale", "--K", "1..3"]))
    assert not got["numpy"]
    assert not {"suites", "report", "modular_verlinde"} & set(got["mockchar"]), got["mockchar"]


def test_eval_theta1_loads_only_domain_and_kernel():
    got = loaded_after(cli_runs(["eval", "theta1", "--u", "0.1", "--tau", "i"]))
    assert got["mockchar"] == ["cli", "domain", "errors", "kernel"]


def test_quadrature_loads_numpy():
    got = loaded_after(cli_runs(["eval", "h", "--u", "0", "--tau", "i"]))
    assert got["numpy"]
    assert "mordell" in got["mockchar"]


def test_every_export_resolves():
    for name in mockchar.__all__:
        assert getattr(mockchar, name) is not None, name
    assert set(mockchar.__all__) <= set(dir(mockchar))
    assert mockchar.theta1 is sys.modules["mockchar.kernel"].theta1
    assert mockchar.run_suites is sys.modules["mockchar.suites"].run_suites


def test_star_import_binds_all():
    namespace = {}
    exec("from mockchar import *", namespace)
    assert set(mockchar.__all__) <= set(namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        mockchar.no_such_name
    assert getattr(mockchar, "backend_name", None) is None


def module_trees():
    """(path relative to the package, parsed module) for every module under it."""
    for root, dirs, files in os.walk(PKG):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for fname in sorted(files):
            if fname.endswith(".py"):
                path = os.path.join(root, fname)
                with open(path) as f:
                    yield os.path.relpath(path, PKG), ast.parse(f.read())


def test_no_module_level_numpy_import():
    # numpy is imported inside the functions that use it, never at module level
    eager = []
    for fname, tree in module_trees():
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            eager += [(fname, name) for name in names if name.split(".")[0] == "numpy"]
    assert not eager, eager


def test_characters_never_import_numpy():
    # not even inside a function: every character is a scalar series
    tree = dict(module_trees())["characters.py"]
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
    assert not [name for name in names if name.split(".")[0] == "numpy"], names


def test_no_unused_module_level_import():
    unused = []
    for fname, tree in module_trees():
        bound = []
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {
            elt.value
            for n in tree.body
            if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in n.targets)
            for elt in ast.walk(n.value)
            if isinstance(elt, ast.Constant)
        }
        unused += [(fname, name) for name in bound if name not in used]
    assert not unused, unused
