"""Command-line interface tests.

Everything goes through ``main(argv)`` so the tests exercise the same parsing,
dispatch, and exit-code paths as the installed console script.
"""

import json
import math

import pytest

from mockchar.cli import main, parse_complex
from mockchar.errors import InvalidParameter, QuadratureNoConvergence
from mockchar.domain import QuadratureSpec, TruncationSpec
from mockchar.kernel import theta1
from mockchar.mordell import mordell_h, mordell_h_quad
from mockchar.report import SCHEMA, strip_volatile


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# literal parsing


def test_parse_complex_forms():
    assert parse_complex("i") == 1j
    assert parse_complex("2i") == 2j
    assert parse_complex("-0.5+1.2i") == -0.5 + 1.2j
    assert parse_complex("1e-3i") == 1e-3j
    assert parse_complex("0.17+0.05i") == 0.17 + 0.05j
    assert parse_complex("3") == 3 + 0j
    assert parse_complex("−0.5") == -0.5 + 0j
    assert parse_complex("0.3 + 0.1i") == 0.3 + 0.1j


def test_parse_complex_rejects_garbage():
    for bad in ("", "woof", "1+2x", "--3"):
        with pytest.raises(InvalidParameter):
            parse_complex(bad)


# ---------------------------------------------------------------------------
# eval


def test_eval_theta1_at_zero(capsys):
    code, out, _ = run(capsys, "eval", "theta1", "--u", "0", "--tau", "i")
    assert code == 0
    assert out.startswith("0")


def test_eval_theta1_matches_library(capsys):
    code, out, _ = run(capsys, "eval", "theta1", "--u", "0.13+0.07i", "--tau", "1.1i")
    assert code == 0
    want = theta1(0.13 + 0.07j, 1.1j)
    got = complex(out.split()[0].replace("·i", "j").replace("i", "j"))
    assert abs(got - want) < 1e-12


def test_eval_h_uses_quadrature_oracle(capsys):
    code, out, _ = run(capsys, "eval", "h", "--u", "0", "--tau", "i")
    assert code == 0
    got = float(out.split()[0].split("+")[0])
    assert abs(got - mordell_h(0.0, 1j)) < 1e-12
    assert abs(got - 0.669063339135868) < 1e-10


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_eval_rejects_meaningless_tol(capsys, tol):
    code, out, err = run(capsys, "eval", "theta1", "--u", "0.1", "--tau", "i", "--tol", tol)
    assert code == 2
    assert out == ""
    assert err.startswith("error: tolerance must be finite and > 0")


def test_eval_series_truncates_at_tol(capsys):
    u, tau = 0.13 + 0.07j, 0.3 + 0.6j
    code, out, _ = run(capsys, "eval", "theta1", "--u", "0.13+0.07i", "--tau", "0.3+0.6i",
                       "--tol", "1e-4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 1e-4
    loose = TruncationSpec(tail_tol=1e-4)
    assert complex(doc["re"], doc["im"]) == theta1(u, tau, loose)
    assert theta1(u, tau, loose) != theta1(u, tau)  # a shorter sum really ran
    assert abs(complex(doc["re"], doc["im"]) - theta1(u, tau)) <= 1e-4


def test_eval_h_uses_tol_as_quadrature_tolerance(capsys):
    code, out, _ = run(capsys, "eval", "h", "--u", "0", "--tau", "i", "--tol", "1e-5",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    res = mordell_h_quad(0.0, 1j, QuadratureSpec(tail_tol=1e-5))
    assert (doc["re"], doc["im"], doc["bound"], doc["nodes"]) == (
        res.value.real, res.value.imag, res.error, res.nodes)
    assert doc["nodes"] < mordell_h_quad(0.0, 1j).nodes
    assert abs(complex(doc["re"], doc["im"]) - mordell_h(0.0, 1j)) <= 1e-5


def test_eval_json_format(capsys):
    code, out, _ = run(
        capsys, "eval", "ak", "--K", "3", "--u", "0.17+0.05i", "--v", "0.31",
        "--tau", "2i", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "ak"
    assert math.isfinite(doc["re"]) and math.isfinite(doc["im"])
    assert doc["bound"] < 1e-10


def test_eval_json_reports_quadrature_nodes(capsys):
    for args in (("h", "--u", "0", "--tau", "i"), ("h_s", "--s", "0.5", "--u", "0.1", "--tau", "i")):
        code, out, _ = run(capsys, "eval", *args, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert isinstance(doc["nodes"], int) and 64 < doc["nodes"] <= 1025, doc
    code, out, _ = run(capsys, "eval", "theta1", "--u", "0.1", "--tau", "i", "--format", "json")
    assert "nodes" not in json.loads(out)


def test_eval_h_s_at_large_im_tau_reports_a_tight_bound(capsys):
    # the pole at i/2 lies four Gaussian widths from R and is no longer subtracted
    code, out, _ = run(capsys, "eval", "h_s", "--s", "0", "--u", "0.1+0.05i", "--tau", "0.1+20i", "--format", "json")
    assert code == 0
    assert json.loads(out)["bound"] <= 1e-13, out


@pytest.mark.parametrize("s", ["0.5", "0.3"])
def test_eval_h_s_with_an_unresolvable_window_fails_at_once(capsys, monkeypatch, s):
    # at tau = 1e-20 i the window is 1e19 wide: no node count resolves the
    # kernel's poles there, on the axis (s = 1/2) or off it
    from mockchar import kernel

    passes = []
    real_eval_line = kernel._eval_line

    def counted(f, xs):
        passes.append(len(xs))
        return real_eval_line(f, xs)

    monkeypatch.setattr(kernel, "_eval_line", counted)
    code, _, err = run(capsys, "eval", "h_s", "--s", s, "--u", "0.1", "--tau", "1e-20i")
    assert code == 3, err
    assert len(passes) <= 1, passes


def test_eval_unknown_function_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "zeta", "--u", "0", "--tau", "i")
    assert code == 2
    assert "unknown function" in err


def test_eval_at_pole_is_domain_error(capsys):
    code, _, err = run(capsys, "eval", "ak", "--K", "2", "--u", "0", "--v", "0.3", "--tau", "i")
    assert code == 2
    assert "pole" in err.lower()


# ---------------------------------------------------------------------------
# expand


THETA1_LINES_9_8 = [
    "1/8 -1/2 0 1i",
    "1/8 1/2 0 -1i",
    "9/8 -3/2 0 -1i",
    "9/8 3/2 0 1i",
]


def test_expand_theta1_exact_lines(capsys):
    code, out, _ = run(capsys, "expand", "theta1", "--order", "9/8")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert sorted(lines) == sorted(THETA1_LINES_9_8)
    # q-exponents arrive sorted
    qs = [eval_fraction(ln.split()[0]) for ln in lines]
    assert qs == sorted(qs)


def eval_fraction(text):
    from fractions import Fraction

    return Fraction(text)


def test_expand_json(capsys):
    code, out, _ = run(
        capsys, "expand", "A_K", "--K", "1", "--order", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["object"] == "ak"
    assert doc["order"] == "2"
    assert len(doc["terms"]) > 4
    for term in doc["terms"]:
        assert set(term) == {"q", "z", "y", "coefficient"}


def test_expand_takes_a_rational_nprime(capsys):
    # --nprime 2/3 is read as the exact rational; the decimal form of a
    # dyadic n' gives the same expansion as its fraction
    from fractions import Fraction

    from mockchar.domain import AlgebraParams, AtypicalWLabel
    from mockchar.qseries import qexpand

    code, out, err = run(
        capsys, "expand", "chi-A", "--n", "1", "--l", "1",
        "--nprime", "2/3", "--lprime", "0", "--order", "2", "--format", "json",
    )
    assert code == 0, err
    want = qexpand("chi_atypical", Fraction(2), params=AlgebraParams(1, 1),
                   label=AtypicalWLabel(Fraction(2, 3), 0))
    assert [(t["q"], t["z"], t["y"], t["coefficient"]) for t in json.loads(out)["terms"]] == [
        (str(q), str(z), str(y), str(c)) for (q, z, y), c in want.sorted_items()
    ]
    texts = [run(capsys, "expand", "chi-A", "--n", "1", "--l", "1", "--nprime", nprime,
                 "--lprime", "1", "--order", "5/2")[1] for nprime in ("-1/2", "-0.5")]
    assert texts[0] == texts[1] and texts[0]


def test_expand_chi_integer_coefficients(capsys):
    code, out, _ = run(
        capsys, "expand", "chi-A", "--n", "0", "--l", "1",
        "--nprime", "0", "--lprime", "0", "--order", "2",
    )
    assert code == 0
    for line in out.splitlines():
        if not line.strip():
            continue
        coeff = line.split()[3]
        assert "/" not in coeff, line


def test_expand_unsupported_object(capsys):
    code, _, err = run(capsys, "expand", "eta", "--order", "2")
    assert code == 2
    assert "no q-expansion" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_kernel_to_file(tmp_path, capsys):
    out_file = tmp_path / "reports.jsonl"
    code, out, _ = run(
        capsys, "verify", "--suite", "kernel", "--seed", "3", "--out", str(out_file)
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines
    for line in lines:
        doc = json.loads(line)
        assert doc["schema"] == SCHEMA
        assert doc["status"] in ("pass", "fail", "skip")
    # check ids arrive in sorted order (single ordered sink)
    ids = [json.loads(ln)["check_id"] for ln in lines]
    assert ids == sorted(ids)
    assert "pass" in out


def test_verify_determinism_across_jobs(tmp_path, capsys):
    outs = []
    for jobs in ("1", "4"):
        f = tmp_path / ("r%s.jsonl" % jobs)
        code, _, _ = run(
            capsys, "verify", "--suite", "appell", "--seed", "7",
            "--jobs", jobs, "--out", str(f),
        )
        assert code == 0
        outs.append([strip_volatile(ln) for ln in f.read_text().strip().splitlines()])
    assert outs[0] == outs[1]


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize("flags", [
    ("--samples", "0"),
    ("--samples", "-3"),
    ("--tol", "0"),
    ("--tol", "-1"),
    ("--tol", "nan"),
])
def test_verify_rejects_meaningless_samples_and_tol(capsys, flags):
    code, out, err = run(capsys, "verify", "--suite", "kernel", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_params_filter(tmp_path, capsys):
    f = tmp_path / "r.jsonl"
    code, _, _ = run(
        capsys, "verify", "--suite", "thm-modprop", "--params", "n=1,l=1",
        "--tol", "1e-5", "--out", str(f),
    )
    assert code == 0
    lines = f.read_text().strip().splitlines()
    assert lines
    for line in lines:
        doc = json.loads(line)
        assert doc["status"] == "pass", doc


# ---------------------------------------------------------------------------
# sweep


def test_sweep_rel1(capsys):
    code, out, _ = run(capsys, "sweep", "rel1", "--K", "1..4", "--seed", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "K,abs_err"
    assert len(lines) == 5
    for row in lines[1:]:
        k_str, err_str = row.split(",")
        assert int(k_str) in (1, 2, 3, 4)
        assert float(err_str) < 1e-9


def test_sweep_mordell_negative_range(capsys):
    code, out, _ = run(
        capsys, "sweep", "mordell-shift", "--s", "-0.5..0.49", "--samples", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,abs_err"
    assert len(lines) == 5
    for row in lines[1:]:
        assert float(row.split(",")[1]) < 1e-7


@pytest.mark.parametrize("samples", ["0", "1"])
def test_sweep_rejects_too_few_samples_on_a_real_range(capsys, samples):
    code, out, err = run(
        capsys, "sweep", "mordell-shift", "--s", "-0.5..0.49", "--samples", samples
    )
    assert code == 2
    assert out == ""
    assert "--samples >= 2" in err


def test_sweep_integer_range_ignores_samples(capsys):
    code, out, _ = run(capsys, "sweep", "thetascale", "--K", "1..2", "--samples", "0")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_sweep_rejects_tol(capsys):
    code, out, err = run(capsys, "sweep", "rel1", "--K", "1..2", "--tol", "1e-6")
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_sweep_empty_range(capsys):
    code, _, err = run(capsys, "sweep", "rel1", "--K", "5..2")
    assert code == 2
    assert "empty range" in err


def test_sweep_unknown_name(capsys):
    code, _, err = run(capsys, "sweep", "eta-law", "--K", "1..3")
    assert code == 2
    assert "unknown sweep" in err


# ---------------------------------------------------------------------------
# exit code 3: convergence failure surfaces, never masked as a skip


def test_convergence_failure_exit_code():
    from mockchar.suites import CheckSpec, SuiteConfig, _run_one, exit_code

    def boom(ctx):
        raise QuadratureNoConvergence("synthetic quadrature stall")

    spec = CheckSpec("synthetic.boom", "synthetic", "synthetic blow-up", 1e-9, boom)
    reports = _run_one(spec, SuiteConfig(suites=("synthetic",)))
    assert len(reports) == 1
    assert reports[0].status == "fail"
    assert "convergence failure" in reports[0].note
    assert exit_code(reports) == 3


def test_reports_before_a_singular_cell_are_kept_and_share_the_wall_time():
    from mockchar.errors import SingularEntry
    from mockchar.suites import CheckSpec, SuiteConfig, _run_one

    def half(ctx):
        ctx.add("synthetic.half.ok", "anchor", 0.0, level=1)
        raise SingularEntry("synthetic singular entry")

    spec = CheckSpec("synthetic.half", "synthetic", "synthetic singular cell", 1e-9, half)
    reports = _run_one(spec, SuiteConfig(suites=("synthetic",)))
    assert [(r.check_id, r.status) for r in reports] == [
        ("synthetic.half.ok", "pass"),
        ("synthetic.half.singular", "skip-singular"),
    ]
    assert reports[0].params == {"level": 1}
    assert reports[1].note == "synthetic singular entry"
    assert reports[0].wall_ms == reports[1].wall_ms > 0.0


def test_eval_beyond_the_double_range_exits_3(capsys):
    code, out, err = run(
        capsys, "eval", "chi_atypical", "--n", "1", "--l", "1", "--nprime", "40", "--lprime", "-1",
        "--u", "0.19-0.29i", "--v", "0.14-0.42i", "--tau", "-0.3+1i",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("convergence failure: ") and "double range" in err


@pytest.mark.parametrize(
    "argv",
    [
        # the largest term of theta1, theta3 and of the characters built on them
        ("theta1", "--u", "0.1+80i", "--tau", "10i"),
        ("theta3", "--u", "0.1+80i", "--tau", "10i"),
        ("chi_lattice", "--K", "2", "--n", "1", "--u", "0.1+80i", "--tau", "10i"),
        # the n < 0 lead of aK
        ("ak", "--K", "3", "--u", "0.1+3i", "--v", "0.2+80i", "--tau", "i"),
        # the lead of the typical character's body sum
        ("chi_t", "--n", "1", "--l", "1", "--nprime", "40", "--eprime", "0.3",
         "--u", "0.19-0.29i", "--v", "0.14-0.42i", "--tau", "-0.3+1i"),
    ],
    ids=["theta1", "theta3", "chi_lattice", "ak", "chi_t"],
)
def test_eval_of_a_series_lead_beyond_the_double_range_exits_3(capsys, argv):
    code, out, err = run(capsys, "eval", *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("convergence failure: ") and "double range" in err


@pytest.mark.parametrize(
    "argv",
    [
        # the label lead y^e' z^n' q^{n'e' + e'^2/2} of the typical character
        ("chi_t", "--n", "1", "--l", "1", "--nprime", "0.5", "--eprime", "0.3+120i",
         "--u", "0.19", "--v", "0.14", "--tau", "i"),
        # the y^e z^n q^{h(n, e)} factor of the gl(1|1) typical character
        ("chi_gl11_typical", "--n", "1", "--eprime", "0.3+200i", "--u", "0.1", "--v", "0.1",
         "--tau", "i"),
        # the same factor of the gl(1|1) atypical character, at large negative n
        ("chi_gl11_atypical", "--n", "-1000", "--l", "1", "--u", "0.1", "--v", "0.1", "--tau", "i"),
        # z^{n/alpha} q^{n^2/(2 alpha^2)} of the lattice character
        ("chi_lattice", "--K", "2", "--n", "3", "--u", "0.1-80i", "--tau", "i"),
    ],
    ids=["chi_t", "chi_gl11_typical", "chi_gl11_atypical", "chi_lattice"],
)
def test_eval_of_a_label_lead_beyond_the_double_range_exits_3(capsys, argv):
    code, out, err = run(capsys, "eval", *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("convergence failure: ") and "label lead leaves the double range" in err
    assert "index" not in err


def test_eval_of_gl11_atypical_at_large_negative_ell_is_finite(capsys):
    # z q^ell and the case factor each leave the double range at ell = -300,
    # while the character itself is ~e^{-2.8e5}: it prints 0, not a traceback
    code, out, err = run(capsys, "eval", "chi_gl11_atypical", "--n", "1", "--l", "-300", "--u", "0.1",
                         "--v", "0.1", "--tau", "i", "--format", "json")
    assert (code, err) == (0, "")
    value = json.loads(out)
    assert (value["re"], value["im"]) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# one parser serves every call of main


def _suites_in(path) -> set:
    return {json.loads(ln)["check_id"].split(".", 1)[0] for ln in path.read_text().splitlines()}


def test_parser_is_built_once():
    from mockchar.cli import build_parser

    assert build_parser() is build_parser()


def test_reused_parser_does_not_keep_appended_suites(tmp_path, capsys):
    from mockchar.suites import suite_names

    few, every = tmp_path / "few.jsonl", tmp_path / "every.jsonl"
    code, _, _ = run(capsys, "verify", "--suite", "kernel", "--suite", "lattice", "--out", str(few))
    assert code == 0
    code, _, _ = run(capsys, "verify", "--jobs", "2", "--out", str(every))
    assert code == 0
    assert _suites_in(few) == {"kernel", "lattice"}
    assert _suites_in(every) == set(suite_names()) - {"all"}


def test_bad_flag_after_a_good_call_still_exits_2(capsys):
    argv = ["eval", "theta1", "--u", "0.1", "--tau", "i"]
    assert run(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit) as info:
        main(argv + ["--bogus", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert run(capsys, *argv)[0] == 0


def test_eval_after_verify_takes_no_verify_flags(tmp_path, capsys):
    f = tmp_path / "r.jsonl"
    code, _, _ = run(capsys, "verify", "--suite", "kernel", "--seed", "3", "--tol", "1e-5",
                     "--format", "json", "--out", str(f))
    assert code == 0
    code, out, _ = run(capsys, "eval", "theta1", "--u", "0.13+0.07i", "--tau", "1.1i")
    assert code == 0
    assert out.endswith("  (bound 1.000e-13)\n")


def test_verify_to_stdout_writes_the_lines_of_out(tmp_path, capsys):
    f = tmp_path / "r.jsonl"
    argv = ["verify", "--suite", "mordell", "--seed", "5"]
    code_file, summary_file, _ = run(capsys, *argv, "--out", str(f))
    code_std, out_std, summary_std = run(capsys, *argv)
    file_lines, std_lines = f.read_text().splitlines(), out_std.splitlines()
    assert code_file == code_std
    assert summary_file == summary_std
    assert [strip_volatile(ln) for ln in std_lines] == [strip_volatile(ln) for ln in file_lines]
    for lines in (file_lines, std_lines):
        # one timestamp per file: the time the sink wrote it
        assert len({json.loads(ln)["timestamp"] for ln in lines}) == 1


# ---------------------------------------------------------------------------
# the report sink writes strict JSON


def _strict_json(line: str) -> dict:
    def refuse(token):
        raise ValueError("non-JSON token %s" % token)

    return json.loads(line, parse_constant=refuse)


def test_report_lines_are_strict_json_with_non_finite_values():
    from mockchar.report import VerificationReport, make_report

    rep = make_report("synthetic.nan", "anchor", math.nan, 1e-9, params={"x": math.inf},
                      lhs=complex(math.nan, 1.0), rhs=complex(1.0, -math.inf), wall_ms=math.inf)
    rec = _strict_json(rep.to_json_line())
    assert rec["status"] == "fail"
    assert (rec["abs_err"], rec["rel_err"], rec["wall_ms"]) == ("nan", "nan", "inf")
    assert rec["lhs"] == ["nan", 1.0] and rec["rhs"] == [1.0, "-inf"]
    assert rec["params"] == {"x": "inf"}
    _strict_json(strip_volatile(rep.to_json_line()))
    exact = VerificationReport("synthetic.exact", "anchor", abs_err=math.inf, rel_err=math.inf,
                               tolerance=1e-9, status="fail")
    assert _strict_json(exact.to_json_line(volatile=False))["rel_err"] == "inf"


def test_report_line_with_finite_values_is_unchanged():
    from mockchar.report import make_report

    rep = make_report("synthetic.ok", "anchor", 1.5e-16, 1e-9, params={"level": 7, "u": 0.1 + 0.2j},
                      lhs=1.0 + 2.0j, rhs=1.0 + 2.0j)
    rec = rep.to_record(volatile=False)
    assert rep.to_json_line(volatile=False) == json.dumps(rec, sort_keys=True, separators=(",", ":"))


def test_non_finite_check_value_says_so():
    import random

    from mockchar.suites import RunContext

    ctx = RunContext(rng=random.Random(0), samples=1, tol=1e-9, grid=())
    ctx.add("synthetic.nan", "anchor", math.nan, level=7)
    ctx.add("synthetic.inf", "anchor", math.inf)
    ctx.add("synthetic.ok", "anchor", 0.0)
    assert [(r.check_id, r.status, r.note) for r in ctx.reports] == [
        ("synthetic.nan", "fail", "non-finite value"),
        ("synthetic.inf", "fail", "non-finite value"),
        ("synthetic.ok", "pass", ""),
    ]
    for rep in ctx.reports:
        _strict_json(rep.to_json_line())
