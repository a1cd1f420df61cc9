"""Command-line front end.

Four commands: eval (single values with an error bound), expand (exact
q-expansions), verify (suite runner emitting JSON-lines reports), and sweep
(CSV error grids over a parameter range).

Exit codes: 0 pass, 1 verification failure, 2 usage or domain error,
3 convergence failure.

Only the standard library and `errors` load with this module.  Each command,
and each eval and sweep entry, imports what it computes with when it runs, so
`eval theta1` loads `domain` and `kernel` and no numpy, while `verify` loads
the suites.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import ConvergenceError, DomainError, InvalidParameter, UnsupportedObject

_VALUE_FLAGS = {
    "--u", "--v", "--tau", "--K", "--n", "--l", "--nprime", "--lprime",
    "--eprime", "--s", "--t", "--order", "--suite", "--params", "--tol",
    "--seed", "--samples", "--jobs", "--format", "--out",
}


# ---------------------------------------------------------------------------
# literal parsing


def parse_complex(text: str) -> complex:
    """Parse "a+bi" with optional scientific notation; accepts "i", "2i"."""
    t = str(text).strip().replace("−", "-").replace(" ", "")
    if not t:
        raise InvalidParameter("empty numeric literal")
    t = t.replace("I", "i").replace("j", "i").replace("i", "j")
    t = re.sub(r"(?<![0-9.])j", "1j", t)
    try:
        return complex(t)
    except ValueError:
        raise InvalidParameter("bad numeric literal %r" % (text,)) from None


def parse_real(text: str) -> float:
    z = parse_complex(text)
    if z.imag != 0.0:
        raise InvalidParameter("expected a real number, got %r" % (text,))
    return z.real


def parse_int(text: str, name: str) -> int:
    try:
        return int(str(text).strip())
    except ValueError:
        raise InvalidParameter("flag --%s needs an integer, got %r" % (name, text)) from None


def parse_fraction(text: str, name: str) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise InvalidParameter("flag --%s needs a rational, got %r" % (name, text)) from None


def parse_int_pair(text: str, name: str) -> tuple:
    parts = str(text).split(",")
    if len(parts) != 2:
        raise InvalidParameter("flag --%s needs a pair like '0,1', got %r" % (name, text))
    return parse_int(parts[0], name), parse_int(parts[1], name)


def parse_kv_bag(text: str) -> dict:
    """--params "n=1,l=1" or "m=1/2,e=0.37"; values become int/Fraction/float."""
    bag = {}
    if not text:
        return bag
    for item in str(text).split(","):
        if "=" not in item:
            raise InvalidParameter("bad --params entry %r (expected key=value)" % (item,))
        key, raw = item.split("=", 1)
        key = key.strip()
        raw = raw.strip().replace("−", "-")
        if re.fullmatch(r"[+-]?\d+", raw):
            bag[key] = int(raw)
        elif "/" in raw:
            bag[key] = parse_fraction(raw, key)
        else:
            try:
                bag[key] = float(raw)
            except ValueError:
                bag[key] = parse_complex(raw)
    return bag


def _require(args, flag: str):
    value = getattr(args, flag, None)
    if value is None:
        raise InvalidParameter("missing required flag --%s" % flag)
    return value


def format_value(z: complex) -> str:
    z = complex(z)
    return "%.15g%+.15g·i" % (z.real, z.imag)


# ---------------------------------------------------------------------------
# eval


def _algebra(args):
    from .domain import AlgebraParams

    return AlgebraParams(parse_int(_require(args, "n"), "n"), parse_int(_require(args, "l"), "l"))


def _eval_registry():
    """name -> callable(args, tol) -> (value, bound) or (value, bound, extra JSON fields).

    tol is the checked --tol or None for the library defaults: series entries,
    h among them, truncate at it and report it as their bound, h_s uses it as
    the quadrature tolerance and reports its node count, and the closed-form
    S-matrix entries ignore it.
    """
    from .domain import DEFAULT_QUAD, DEFAULT_TRUNC, AtypicalWLabel, TruncationSpec, TypicalWLabel

    def series(tol, fn, *xs):
        trunc = DEFAULT_TRUNC if tol is None else TruncationSpec(tail_tol=tol)
        return fn(*xs, trunc=trunc), trunc.tail_tol

    def uvt(args):
        return (
            parse_complex(_require(args, "u")),
            parse_complex(_require(args, "v")),
            parse_complex(_require(args, "tau")),
        )

    def ut(args):
        return parse_complex(_require(args, "u")), parse_complex(_require(args, "tau"))

    def do_eta(args, tol):
        from .kernel import eta

        return series(tol, eta, parse_complex(_require(args, "tau")))

    def do_theta1(args, tol):
        from .kernel import theta1

        return series(tol, theta1, *ut(args))

    def do_theta3(args, tol):
        from .kernel import theta3

        return series(tol, theta3, *ut(args))

    def do_a1(args, tol):
        from .appell import a1

        return series(tol, a1, *uvt(args))

    def do_ak(args, tol):
        from .appell import aK

        u, v, tau = uvt(args)
        return series(tol, aK, parse_int(_require(args, "K"), "K"), u, v, tau)

    def do_h(args, tol):
        from .mordell import mordell_h

        return series(tol, mordell_h, *ut(args))

    def do_h_s(args, tol):
        from .mordell import mordell_h_s_quad

        s = parse_real(_require(args, "s"))
        res = mordell_h_s_quad(s, *ut(args), tail_tol=DEFAULT_QUAD.tail_tol if tol is None else tol)
        return res.value, res.error, {"nodes": res.nodes}

    def do_chi_gl11_typical(args, tol):
        from .characters import chi_gl11_typical

        n = parse_int(_require(args, "n"), "n")
        e = parse_complex(_require(args, "eprime"))
        return series(tol, chi_gl11_typical, n, e, *uvt(args))

    def do_chi_gl11_atypical(args, tol):
        from .characters import chi_gl11_atypical

        n = parse_int(_require(args, "n"), "n")
        ell = parse_int(_require(args, "l"), "l")
        return series(tol, chi_gl11_atypical, n, ell, *uvt(args))

    def do_chi_a(args, tol):
        from .characters import chi_w_atypical

        pr = _algebra(args)
        label = AtypicalWLabel(
            parse_complex(_require(args, "nprime")), parse_int(_require(args, "lprime"), "lprime")
        )
        return series(tol, chi_w_atypical, pr, label, *uvt(args))

    def do_chi_t(args, tol):
        from .characters import chi_w_typical

        pr = _algebra(args)
        label = TypicalWLabel(
            parse_complex(_require(args, "nprime")), parse_complex(_require(args, "eprime"))
        )
        return series(tol, chi_w_typical, pr, label, *uvt(args))

    def do_chi_lattice(args, tol):
        from .characters import chi_lattice

        alpha_sq = parse_int(_require(args, "K"), "K")
        n = parse_int(_require(args, "n"), "n")
        u = parse_complex(_require(args, "u"))
        tau = parse_complex(_require(args, "tau"))
        return series(tol, chi_lattice, alpha_sq, n, u, tau)

    def do_s_entry_aa(args, tol):
        from .modular_verlinde import s_entry_aa

        pr = _algebra(args)
        row = parse_int_pair(_require(args, "t"), "t")
        col = parse_int_pair(_require(args, "s"), "s")
        return s_entry_aa(pr, row, col), 0.0

    def do_s_entry_at(args, tol):
        from .modular_verlinde import s_entry_at

        pr = _algebra(args)
        row = parse_int_pair(_require(args, "t"), "t")
        bag = parse_kv_bag(_require(args, "params"))
        if "r" not in bag or "x" not in bag:
            raise InvalidParameter("s_entry_at needs --params \"r=...,x=...\"")
        return s_entry_at(pr, row, (bag["r"], bag["x"]), label_kind="r"), 0.0

    def do_s_entry_tt(args, tol):
        from .modular_verlinde import s_entry_tt

        pr = _algebra(args)
        bag = parse_kv_bag(_require(args, "params"))
        for key in ("m", "e", "m2", "e2"):
            if key not in bag:
                raise InvalidParameter("s_entry_tt needs --params \"m=,e=,m2=,e2=\"")
        return s_entry_tt(pr, (bag["m"], bag["e"]), (bag["m2"], bag["e2"])), 0.0

    return {
        "eta": do_eta,
        "theta1": do_theta1,
        "theta3": do_theta3,
        "a1": do_a1,
        "ak": do_ak,
        "h": do_h,
        "h_s": do_h_s,
        "chi_gl11_typical": do_chi_gl11_typical,
        "chi_gl11_atypical": do_chi_gl11_atypical,
        "chi_a": do_chi_a,
        "chi_atypical": do_chi_a,
        "chi_w_atypical": do_chi_a,
        "chi_t": do_chi_t,
        "chi_typical": do_chi_t,
        "chi_w_typical": do_chi_t,
        "chi_lattice": do_chi_lattice,
        "s_entry_aa": do_s_entry_aa,
        "s_entry_at": do_s_entry_at,
        "s_entry_tt": do_s_entry_tt,
    }


def _normalize(name: str) -> str:
    return name.strip().lower().replace("-", "_")


def cmd_eval(args) -> int:
    registry = _eval_registry()
    key = _normalize(args.name)
    if key == "a_k":
        key = "ak"
    if key not in registry:
        raise InvalidParameter(
            "unknown function %r; known: %s" % (args.name, ", ".join(sorted(registry)))
        )
    if args.tol is not None:
        from .domain import check_tolerance

        check_tolerance(args.tol)
    value, bound, *extra = registry[key](args, args.tol)
    if args.format == "json":
        doc = {"name": key, "re": complex(value).real, "im": complex(value).imag, "bound": bound}
        for fields in extra:
            doc.update(fields)
        out = json.dumps(doc, sort_keys=True)
    else:
        out = "%s  (bound %.3e)" % (format_value(value), float(bound))
    _emit(args, out + "\n")
    return 0


# ---------------------------------------------------------------------------
# expand

_EXPAND_ALIASES = {
    "theta1": "theta1",
    "theta1_over_eta3": "theta1_over_eta3",
    "a_k": "ak",
    "ak": "ak",
    "appell": "ak",
    "chi_a": "chi_atypical",
    "chi_atypical": "chi_atypical",
    "chi_w_atypical": "chi_atypical",
}


def cmd_expand(args) -> int:
    key = _EXPAND_ALIASES.get(_normalize(args.name))
    if key is None:
        raise UnsupportedObject("no q-expansion for %r" % (args.name,))
    order = parse_fraction(_require(args, "order"), "order")
    kwargs = {}
    if key == "ak":
        kwargs["level"] = parse_int(_require(args, "K"), "K")
    if key == "chi_atypical":
        from .domain import AtypicalWLabel

        kwargs["params"] = _algebra(args)
        kwargs["label"] = AtypicalWLabel(
            parse_fraction(_require(args, "nprime"), "nprime"), parse_int(_require(args, "lprime"), "lprime")
        )
    from .qseries import qexpand

    series = qexpand(key, order, **kwargs)
    items = series.sorted_items()
    if args.format == "json":
        payload = {
            "object": key,
            "order": str(order),
            "terms": [
                {"q": str(qe), "z": str(zp), "y": str(yp), "coefficient": str(coeff)}
                for (qe, zp, yp), coeff in items
            ],
        }
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    else:
        lines = ["%s %s %s %s" % (qe, zp, yp, coeff) for (qe, zp, yp), coeff in items]
        _emit(args, "\n".join(lines) + ("\n" if lines else ""))
    return 0


# ---------------------------------------------------------------------------
# verify


def _grid_from_params(bag: dict):
    if not bag:
        return None
    extra = set(bag) - {"n", "l"}
    if extra:
        raise InvalidParameter("--params for verify takes n= and l= only, got %s" % sorted(extra))
    if "n" in bag and "l" in bag:
        return ((int(bag["n"]), int(bag["l"])),)
    from .suites import DEFAULT_GRID

    grid = [
        (n, l)
        for (n, l) in DEFAULT_GRID
        if ("n" not in bag or n == int(bag["n"])) and ("l" not in bag or l == int(bag["l"]))
    ]
    if not grid:
        raise InvalidParameter("--params %r matches no (n, l) cell" % (bag,))
    return tuple(grid)


def cmd_verify(args) -> int:
    from .report import summary_lines, write_jsonl
    from .suites import SuiteConfig, exit_code, run_suites

    suites = []
    for chunk in args.suite or ["all"]:
        suites.extend(s.strip() for s in chunk.split(",") if s.strip())
    config = SuiteConfig(
        suites=tuple(suites),
        samples=args.samples,
        seed=args.seed,
        tol_override=args.tol,
        params_grid=_grid_from_params(parse_kv_bag(args.params or "")),
    )
    reports = run_suites(config)

    if args.format == "csv":
        summary = ["check_id,status,rel_err,tolerance"] + [
            "%s,%s,%.6e,%.6e" % (r.check_id, r.status, r.rel_err or 0.0, r.tolerance)
            for r in reports
        ]
        summary_text = "\n".join(summary) + "\n"
    elif args.format == "json":
        summary_text = (
            json.dumps(
                {
                    "total": len(reports),
                    "pass": sum(r.status == "pass" for r in reports),
                    "fail": sum(r.status == "fail" for r in reports),
                    "skip-singular": sum(r.status == "skip-singular" for r in reports),
                    "exit": exit_code(reports),
                },
                sort_keys=True,
            )
            + "\n"
        )
    else:
        summary_text = "\n".join(summary_lines(reports)) + "\n"

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_jsonl(reports, fh)
        sys.stdout.write(summary_text)
    else:
        write_jsonl(reports, sys.stdout)
        sys.stderr.write(summary_text)
    return exit_code(reports)


# ---------------------------------------------------------------------------
# sweep


def _parse_range(text: str, samples: int):
    """"1..7" -> inclusive integers; float endpoints -> `samples` grid points."""
    t = str(text).strip().replace("−", "-")
    if ".." not in t:
        value = parse_real(t)
        return [int(value)] if value == int(value) and "." not in t else [value]
    lo_s, hi_s = t.split("..", 1)
    int_like = re.fullmatch(r"[+-]?\d+", lo_s.strip()) and re.fullmatch(r"[+-]?\d+", hi_s.strip())
    lo, hi = parse_real(lo_s), parse_real(hi_s)
    if lo > hi:
        raise InvalidParameter("empty range %r" % (text,))
    if int_like:
        return list(range(int(lo), int(hi) + 1))
    if samples < 2:
        raise InvalidParameter(
            "a real range like %r needs --samples >= 2, got %d" % (text, samples)
        )
    step = (hi - lo) / (samples - 1)
    return [lo + i * step for i in range(samples)]


def _sweep_point(seed: int, sweep_id: str):
    from .domain import rng_for

    rng = rng_for(seed, "sweep:" + sweep_id)
    tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.4))
    u = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.08, 0.25))
    v = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.15, 0.15))
    return u, v, tau


def _sweep_registry():
    """name -> (swept flag, callable(value, seed) -> abs_err); each entry
    imports the modules it checks."""

    def rel1(K, seed):
        from .appell import aK, aK_via_rel1

        u, v, tau = _sweep_point(seed, "rel1")
        return abs(aK(K, u, v, tau) - aK_via_rel1(K, u, v, tau))

    def rel2(K, seed):
        from .appell import aK, aK_via_rel2

        u, v, tau = _sweep_point(seed, "rel2")
        return abs(aK(K, u, v, tau) - aK_via_rel2(K, u, v, tau))

    def ak_s(K, seed):
        from .appell import aK, aK_s_transform_rhs

        u, v, tau = _sweep_point(seed, "ak-s")
        lhs = aK(K, u / tau, v / tau, -1.0 / tau)
        return abs(lhs - aK_s_transform_rhs(K, u, v, tau, variant="AKS"))

    def mordell_shift(s, seed):
        from .mordell import verify_mordell_shift

        u, _, tau = _sweep_point(seed, "mordell-shift")
        return verify_mordell_shift(float(s), u, tau)["abs_err"]

    def thetascale(K, seed):
        from .kernel import theta1_rescaling_check

        u, _, tau = _sweep_point(seed, "thetascale")
        return theta1_rescaling_check(K, u / 3.0, tau)["abs_err"]

    return {
        "rel1": ("K", rel1),
        "rel2": ("K", rel2),
        "ak-s": ("K", ak_s),
        "mordell-shift": ("s", mordell_shift),
        "thetascale": ("K", thetascale),
    }


def cmd_sweep(args) -> int:
    registry = _sweep_registry()
    key = args.name.strip().lower().replace("_", "-")
    if key not in registry:
        raise InvalidParameter(
            "unknown sweep %r; known: %s" % (args.name, ", ".join(sorted(registry)))
        )
    if args.tol is not None:
        raise InvalidParameter("sweep prints raw errors and takes no --tol")
    param, fn = registry[key]
    raw = getattr(args, "K" if param == "K" else "s", None)
    if raw is None:
        raise InvalidParameter("sweep %s needs --%s with a range like 1..7" % (key, param))
    values = _parse_range(raw, args.samples)
    if param == "K":
        for val in values:
            if val != int(val) or int(val) < 1:
                raise InvalidParameter("sweep %s needs positive integer K values" % key)
        values = [int(v) for v in values]
    lines = ["%s,abs_err" % param]
    for val in values:
        err = fn(val, args.seed)
        lines.append("%.6g,%.6e" % (float(val), err))
    _emit(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common_flags(sub) -> None:
    for flag in ("u", "v", "tau", "K", "n", "l", "nprime", "lprime", "eprime", "s", "t",
                 "order", "params"):
        sub.add_argument("--" + flag)
    sub.add_argument("--suite", action="append")
    sub.add_argument("--tol", type=float)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--samples", type=int, default=5)
    # Accepted so existing command lines keep working; checks run serially.
    sub.add_argument("--jobs", type=int)
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub.add_argument("--out")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared after it: parse_args
    makes a new namespace per call and changes no parser state."""
    parser = argparse.ArgumentParser(
        prog="mockchar",
        description="Evaluate, expand, and verify the character and Appell-sum identities.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate a registered function at a point")
    p_eval.add_argument("name", help="eta, theta1, theta3, a1, aK, h, h_s, chi_*, s_entry_*")
    _add_common_flags(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_expand = subs.add_parser("expand", help="print an exact q-expansion")
    p_expand.add_argument("name", help="theta1, theta1_over_eta3, A_K, chi-A")
    _add_common_flags(p_expand)
    p_expand.set_defaults(fn=cmd_expand)

    p_verify = subs.add_parser("verify", help="run verification suites, write JSONL reports")
    _add_common_flags(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_sweep = subs.add_parser("sweep", help="CSV of errors over a parameter range")
    p_sweep.add_argument("name", help="rel1, rel2, ak-s, mordell-shift, thetascale")
    _add_common_flags(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)
    return parser


def _merge_negative_values(argv: list) -> list:
    """Let `--s -0.5..0.49` pass through argparse by folding the value in."""
    merged = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            token in _VALUE_FLAGS
            and nxt is not None
            and nxt.startswith(("-", "−"))
            and re.match(r"^[-−][0-9.]", nxt)
        ):
            merged.append("%s=%s" % (token, nxt))
            skip = True
        else:
            merged.append(token)
    return merged


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_merge_negative_values(argv))
    try:
        return args.fn(args)
    except ConvergenceError as exc:
        sys.stderr.write("convergence failure: %s\n" % exc)
        return 3
    except DomainError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
