"""The report sink's one-pass encoder against the dict view it replaces.

REFERENCE is the encoder the sink used before: sorted keys, compact
separators, strict JSON, applied to `to_record()`.  `to_json_line()` must
write the same bytes for every report, with the timestamp fixed.
"""

import json
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from mockchar.report import VerificationReport, make_report, skip_report, write_jsonl
from mockchar.suites import SuiteConfig, run_suites

REFERENCE = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)
STAMP = "2026-01-02T03:04:05.678901+00:00"
NON_FINITE = (math.inf, -math.inf, math.nan)


def reference_line(rep: VerificationReport, volatile: bool = True, stamp: str = STAMP) -> str:
    rec = rep.to_record(volatile)
    if volatile:
        rec["timestamp"] = stamp
    return REFERENCE.encode(rec)


def assert_pinned(rep: VerificationReport) -> None:
    for volatile in (True, False):
        assert rep.to_json_line(volatile, timestamp=STAMP) == reference_line(rep, volatile)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_verify_report_is_pinned(seed):
    reports = run_suites(SuiteConfig(seed=seed))
    assert len(reports) > 300
    for rep in reports:
        assert_pinned(rep)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_numbers_are_pinned(bad):
    assert_pinned(make_report("edge.err", "anchor", bad, bad, abs_err=bad, wall_ms=bad))
    assert_pinned(make_report("edge.parts", "anchor", 0.0, 1e-9,
                              lhs=complex(bad, 1.0), rhs=complex(-2.5, bad)))
    assert_pinned(make_report("edge.params", "anchor", 0.0, 1e-9,
                              params={"x": bad, "z": complex(bad, bad), "w": [bad, 1.0]}))


def test_param_types_are_pinned():
    params = {
        "tau": 0.25 + 1.5j,
        "m": Fraction(-3, 7),
        "flag": True,
        "off": False,
        "level": 7,
        "big": 10 ** 30,
        "name": "theta1",
        "cell": (2, 1),
        "grid": [(0, 1), (1, 1)],
        "nested": {"b": 1.5, "a": {"d": None, "c": Fraction(1, 2)}, 3: "int key"},
        "none": None,
        "tiny": 5e-324,
        "neg_zero": -0.0,
        "decimal": Decimal("1.25"),
    }
    assert_pinned(make_report("edge.types", "anchor", 1e-17, 1e-9, params=params,
                              lhs=1.0 + 2.0j, rhs=-0.0 - 1e300j))


def test_subclassed_values_are_pinned():
    class Real(float):
        pass

    class Whole(int):
        pass

    class Text(str):
        pass

    params = {"r": Real(0.5), "w": Whole(3), "t": Text("x"), "nan": Real(math.nan)}
    assert_pinned(make_report("edge.sub", "anchor", Real(1e-3), Real(1e-2), params=params))


def test_text_lhs_none_and_skip_reports_are_pinned():
    assert_pinned(make_report("edge.text", "Verlinde — τ ↦ −1/τ", 0.0, 1e-9,
                              note="ñ ü   \"quoted\" \\ \t \x01", lhs=None))
    assert_pinned(skip_report("edge.skip", "anchor", "S entry singular: sin(π e) = 0", 1e-9,
                              params={"e": Fraction(2)}))
    assert_pinned(VerificationReport("edge.bare", "anchor"))
    assert_pinned(VerificationReport("edge.int-tolerance", "anchor", tolerance=0, wall_ms=3))


def test_sink_stamps_one_time_per_call_and_writes_once():
    class Sink:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    reports = run_suites(SuiteConfig(suites=("kernel",)))
    sink = Sink()
    write_jsonl(reports, sink)
    assert len(sink.writes) == 1
    lines = sink.writes[0].splitlines()
    assert sink.writes[0].endswith("\n") and len(lines) == len(reports)
    stamps = {json.loads(line)["timestamp"] for line in lines}
    assert len(stamps) == 1
    (stamp,) = stamps
    for rep, line in zip(reports, lines):
        assert line == reference_line(rep, stamp=stamp)
    quiet = Sink()
    write_jsonl(reports, quiet, volatile=False)
    assert quiet.writes[0].splitlines() == [rep.to_json_line(volatile=False) for rep in reports]
