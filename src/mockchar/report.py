"""Verification report records and the JSON-lines sink.

One record per check, schema versioned.  Two fields are volatile (timestamp,
wall_ms); everything else is deterministic for a fixed seed, so reports can be
diffed across runs and parallelism degrees after dropping the volatile keys.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

SCHEMA = "mockchar-report/1"

# stripped before byte-comparison in the determinism contract
VOLATILE_FIELDS = ("timestamp", "wall_ms")

# Strict JSON: _jsonable writes a non-finite float as the string "inf", "-inf"
# or "nan", and the encoder refuses the NaN and Infinity tokens, which strict
# parsers reject.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)

PASS = "pass"
FAIL = "fail"
SKIP_SINGULAR = "skip-singular"


def _jsonable(value):
    if isinstance(value, complex):
        return [_jsonable(value.real), _jsonable(value.imag)]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _json(value) -> str:
    """The text _ENCODER writes for _jsonable(value).

    The types that make up a report (finite floats and complex numbers, str,
    int, None and str-keyed params) are written directly; anything else, such
    as a non-finite number, a bool, a tuple or a Fraction, goes through
    _jsonable and the encoder.
    """
    kind = type(value)
    if kind is float and math.isfinite(value):
        return repr(value)
    if kind is str:
        return _quote(value)
    if kind is complex and cmath.isfinite(value):
        return "[%r,%r]" % (value.real, value.imag)
    if value is None:
        return "null"
    if kind is int:
        return repr(value)
    if kind is dict and all(type(k) is str for k in value):
        return "{%s}" % ",".join([_quote(k) + ":" + _json(v) for k, v in sorted(value.items())])
    return _ENCODER.encode(_jsonable(value))


# the record's keys in sorted order, as _ENCODER writes to_record()
_LINE = (
    '{"abs_err":%s,"anchor":%s,"check_id":%s,"lhs":%s,"note":%s,"params":%s,'
    '"rel_err":%s,"rhs":%s,"schema":' + _quote(SCHEMA) + ',"status":%s,'
)
_TAIL = '"tolerance":%s}'
_VOLATILE_TAIL = '"timestamp":%s,"tolerance":%s,"wall_ms":%s}'


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class VerificationReport:
    check_id: str
    anchor: str
    params: dict = field(default_factory=dict)
    lhs: complex | None = None
    rhs: complex | None = None
    abs_err: float | None = None
    rel_err: float | None = None
    tolerance: float = 0.0
    status: str = PASS
    wall_ms: float = 0.0
    note: str = ""

    def __post_init__(self):
        if self.status not in (PASS, FAIL, SKIP_SINGULAR):
            raise ValueError("bad status %r" % (self.status,))

    def to_record(self, volatile: bool = True) -> dict:
        rec = {
            "schema": SCHEMA,
            "check_id": self.check_id,
            "anchor": self.anchor,
            "params": _jsonable(self.params),
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
            "abs_err": _jsonable(self.abs_err),
            "rel_err": _jsonable(self.rel_err),
            "tolerance": _jsonable(self.tolerance),
            "status": self.status,
            "note": self.note,
        }
        if volatile:
            rec["wall_ms"] = _jsonable(self.wall_ms)
            rec["timestamp"] = _now()
        return rec

    def to_json_line(self, volatile: bool = True, timestamp: str | None = None) -> str:
        """to_record() as one line of sorted, compact, strict JSON."""
        head = _LINE % (
            _json(self.abs_err),
            _json(self.anchor),
            _json(self.check_id),
            _json(self.lhs),
            _json(self.note),
            _json(self.params),
            _json(self.rel_err),
            _json(self.rhs),
            _json(self.status),
        )
        if not volatile:
            return head + _TAIL % _json(self.tolerance)
        stamp = _now() if timestamp is None else timestamp
        return head + _VOLATILE_TAIL % (_json(stamp), _json(self.tolerance), _json(self.wall_ms))


def make_report(
    check_id: str,
    anchor: str,
    err: float,
    tolerance: float,
    params: dict | None = None,
    lhs: complex | None = None,
    rhs: complex | None = None,
    abs_err: float | None = None,
    wall_ms: float = 0.0,
    note: str = "",
) -> VerificationReport:
    """Report with status derived from err <= tolerance."""
    return VerificationReport(
        check_id=check_id,
        anchor=anchor,
        params=dict(params or {}),
        lhs=lhs,
        rhs=rhs,
        abs_err=abs_err if abs_err is not None else err,
        rel_err=err,
        tolerance=tolerance,
        status=PASS if err <= tolerance else FAIL,
        wall_ms=wall_ms,
        note=note,
    )


def skip_report(
    check_id: str,
    anchor: str,
    reason: str,
    tolerance: float,
    params: dict | None = None,
    wall_ms: float = 0.0,
) -> VerificationReport:
    """skip-singular record; only for documented pole/singular-entry conditions."""
    return VerificationReport(
        check_id=check_id,
        anchor=anchor,
        params=dict(params or {}),
        tolerance=tolerance,
        status=SKIP_SINGULAR,
        wall_ms=wall_ms,
        note=reason,
    )


def write_jsonl(reports, fh, volatile: bool = True) -> None:
    """One line per report, all stamped with the time of this call, in one write."""
    stamp = _now() if volatile else None
    fh.write("".join([rep.to_json_line(volatile, stamp) + "\n" for rep in reports]))


def strip_volatile(line: str) -> str:
    """Canonical form of a report line for byte-comparison across runs."""
    rec = json.loads(line)
    for key in VOLATILE_FIELDS:
        rec.pop(key, None)
    return _ENCODER.encode(rec)


def summary_lines(reports) -> list:
    """Human summary: one line per check plus a totals line."""
    lines = []
    n_pass = n_fail = n_skip = 0
    for rep in reports:
        if rep.status == PASS:
            n_pass += 1
        elif rep.status == FAIL:
            n_fail += 1
        else:
            n_skip += 1
        err = "-" if rep.rel_err is None else "%.3e" % rep.rel_err
        lines.append(
            "%-8s %-44s err=%-10s tol=%g" % (rep.status, rep.check_id, err, rep.tolerance)
        )
    lines.append("total: %d pass, %d fail, %d skip-singular" % (n_pass, n_fail, n_skip))
    return lines
