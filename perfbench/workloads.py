"""Seeded workloads of the mockchar benchmark.

Every workload turns a workload seed into a stream of operations.  The worker
runs them one at a time (a closed loop with one client), times each one, and
after the timed loop calls `check()`, which judges every kept output against
an oracle.  Inputs depend only on (workload seed, op index), so `check()` can
regenerate any op's inputs instead of keeping them in memory.

Failure vocabulary:
  * unit: one verification report (verify workloads), one function call
    (eval-series) or one expansion (expand).  A unit fails when the library
    reports a failed check, raises, returns a non-finite value, or misses its
    oracle by more than the bound the library reports.
  * known defect: a unit failure listed in KNOWN_DEFECTS.  It is counted, never
    filtered out, but it does not make the run incorrect.
  * unexpected failure: any other unit failure, a broken determinism check, or
    an op that raised.  It makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

# Unit failures the library is known to produce at the seed commit, measured
# over verify seeds 0-299 and 1000-1699, every eval-series row card from seed
# 500 on (every 8th call), the character rows at Im tau 0.04-0.11 over seeds
# 1000-1061 and 2000-2060, and every expand (object, order, label) combination.
# Each entry: (workload kind, regex on the unit id, note).  The ids carry the
# regime and the kind of failure (see `EvalSeriesWorkload.unit` and
# `expand_unit`), so an entry covers only what was measured; no entry covers
# an eval-series call or an expansion that raised or returned non-finite values.
KNOWN_DEFECTS = (
    ("verify", r"^appell\.s-law\.K5\.(alt|cross)$",
     "level-5 S law misses 1e-6 at ~9% of seeds (errors up to ~2.4e-3)"),
    ("verify", r"^appell\.s-law\.convergence$",
     "Mordell quadrature stalls at ~2% of seeds; the check's later samples are dropped"),
    ("verify", r"^appell\.rel1\.K7\.\d+$", "aK at level 7 returns NaN at ~1% of seeds"),
    ("verify", r"^smatrix\.periodicity\.n2\.l2$", "S-matrix periodicity misses at ~1.6% of seeds"),
    ("eval", r"^chi_w_atypical\.imtau0\.0\d*\.oracle$",
     "cancellation at Im tau < 0.1: relative error up to ~2e-4 against the "
     "1e-13 bound (ROADMAP item 4)"),
    ("eval", r"^chi_lattice\.imtau0\.0[2-4]\d*\.oracle$",
     "at Im tau < 0.05 series rounding is multiplied by 1/eta: errors up to ~3e-11 "
     "against the 1e-13 bound (ROADMAP item 4)"),
    ("eval", r"^chi_w_typical\.imtau0\.0[2-6]\d*\.oracle$",
     "at Im tau < 0.07 the two routes differ by up to ~6e-12 against twice the 1e-13 "
     "bound, where the body sums nearly cancel (ROADMAP item 4)"),
    ("expand", r"^chi_atypical\.n(1l1|2l1|2l2)\.lp-1\.order(2|5/2|3)\.empty$",
     "qexpand stops its j loop at the first m that places no term; with ell' = -1 "
     "some orders <= 3 come back empty"),
)


def known_defect(kind: str, unit_id: str) -> bool:
    return any(k == kind and re.search(rx, unit_id) for k, rx, _ in KNOWN_DEFECTS)


def op_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(("%s:%d:%d" % (workload, seed, index)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def op_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(op_seed(workload, seed, index))


@dataclass
class Verdict:
    """What `check()` found, plus per-layer facts only the outputs reveal."""

    units: int = 0
    units_failed: int = 0
    known_failed: dict = field(default_factory=dict)
    unexpected: list = field(default_factory=list)
    ops_failed: int = 0
    layer: dict = field(default_factory=dict)

    def fail_unit(self, kind: str, unit_id: str, detail: str) -> None:
        self.units_failed += 1
        if known_defect(kind, unit_id):
            family = re.sub(r"\.\d+$", "", unit_id)
            self.known_failed[family] = self.known_failed.get(family, 0) + 1
        else:
            self.unexpected.append("%s: %s" % (unit_id, detail))


class Deck:
    """Cycles through a fixed list of cards, reshuffled per pass from the seed.

    Every full pass runs each card once, so the op mix of a run does not
    depend on the seed; the seed only orders the cards and draws the inputs.
    """

    def __init__(self, cards: list, workload: str, seed: int):
        self.cards = cards
        self.workload = workload
        self.seed = seed
        self._pass = -1
        self._order: list = []

    def slot(self, index: int) -> int:
        """Position in `cards` of the card op `index` draws."""
        n = len(self.cards)
        deck_pass = index // n
        if deck_pass != self._pass:
            order = list(range(n))
            random.Random(op_seed(self.workload + ":deck", self.seed, deck_pass)).shuffle(order)
            self._pass, self._order = deck_pass, order
        return self._order[index % n]

    def card(self, index: int):
        return self.cards[self.slot(index)]


# ---------------------------------------------------------------------------
# verify-all / verify-jobs2


class VerifyWorkload:
    """`mockchar verify --suite all --seed <s> --jobs <j> --out <file>` in-process."""

    kind = "verify"

    def __init__(self, name: str, seed: int, jobs: int, mc, tmp_dir: str):
        self.name = name
        self.seed = seed
        self.jobs = jobs
        self.mc = mc
        self.tmp_dir = tmp_dir
        self.done: list = []  # (op seed, exit code or exception text, jsonl path)

    def _verify(self, seed: int, jobs: int, path: str):
        argv = ["verify", "--suite", "all", "--seed", str(seed), "--jobs", str(jobs), "--out", path]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.mc.cli.main(argv)

    def _path(self, tag) -> str:
        return os.path.join(self.tmp_dir, "%s-%s.jsonl" % (self.name, tag))

    def warmup(self) -> None:
        path = self._path("warmup")
        self._verify(op_seed(self.name + ":warmup", self.seed, 0), self.jobs, path)
        os.remove(path)

    def prepare(self, index: int):
        return op_seed(self.name, self.seed, index), self._path(index)

    def run(self, index: int, prepared):
        seed, path = prepared
        try:
            return self._verify(seed, self.jobs, path)
        except Exception as exc:  # noqa: BLE001 - an op that raises is recorded and judged
            return "raised %s: %s" % (type(exc).__name__, exc)

    def after(self, index: int, prepared, result) -> None:
        self.done.append(prepared[:1] + (result,) + prepared[1:])

    def _canonical(self, path: str) -> list:
        volatile = getattr(self.mc.report, "VOLATILE_FIELDS", ("timestamp", "wall_ms"))
        out = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                for key in volatile:
                    rec.pop(key, None)
                out.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        return out

    def check(self, op_wall_s: list) -> Verdict:
        v = Verdict()
        suite_ms: dict = {}
        busy_ms = 0.0
        report_bytes = 0
        for seed, rc, path in self.done:
            if not isinstance(rc, int) or not os.path.exists(path):
                v.ops_failed += 1
                v.unexpected.append("seed %d: verify did not complete (%s)" % (seed, rc))
                continue
            report_bytes += os.path.getsize(path)
            ids = set()
            failed = 0
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    cid = rec["check_id"]
                    if cid in ids:
                        v.unexpected.append("seed %d: duplicate report %s" % (seed, cid))
                    ids.add(cid)
                    suite = cid.split(".", 1)[0]
                    suite_ms[suite] = suite_ms.get(suite, 0.0) + float(rec.get("wall_ms") or 0.0)
                    busy_ms += float(rec.get("wall_ms") or 0.0)
                    v.units += 1
                    if rec["status"] not in ("pass", "skip-singular"):
                        failed += 1
                        v.fail_unit(self.kind, cid, "seed %d: %s rel_err=%s" % (
                            seed, rec["status"], rec.get("rel_err")))
            if not ids:
                v.unexpected.append("seed %d: no reports" % seed)
            if (rc == 0) != (failed == 0) or rc not in (0, 1, 3):
                v.unexpected.append("seed %d: exit code %d with %d failed reports" % (seed, rc, failed))
        ops = max(len(self.done), 1)
        v.layer["suites.busy_ratio"] = busy_ms / 1000.0 / max(sum(op_wall_s), 1e-12)
        v.layer["report.bytes"] = report_bytes / ops
        for suite, ms in suite_ms.items():
            v.layer["suites.%s_s" % suite] = ms / 1000.0 / ops
        self._check_determinism(v)
        for _, _, path in self.done:
            if os.path.exists(path):
                os.remove(path)
        return v

    def _check_determinism(self, v: Verdict) -> None:
        """Same seed at the other --jobs value must give the same canonical lines."""
        other = 2 if self.jobs == 1 else 1
        for seed, rc, path in self.done[:2]:
            if not isinstance(rc, int):
                continue
            alt = self._path("jobs%d" % other)
            self._verify(seed, other, alt)
            if self._canonical(path) != self._canonical(alt):
                v.unexpected.append("seed %d: reports differ between --jobs %d and --jobs %d"
                                    % (seed, self.jobs, other))
            os.remove(alt)


# ---------------------------------------------------------------------------
# eval-series

ROW_CALLS = 128
TAU_POOL = 32
IM_TAU_RANGE = (0.02, 2.0)
EVAL_FAMILIES = ("theta1", "theta3", "eta", "aK", "chi_w_atypical", "chi_w_typical", "chi_lattice")
CELLS = ((0, 1), (1, 1), (2, 1), (2, 2))  # suites.DEFAULT_GRID
ORACLE_STRIDE = 97  # coprime to the deck size, so consecutive passes check distant cards
ORACLE_CALL_STEP = 2  # every other call of an oracle row is checked


def tau_pool(seed: int) -> list:
    """Im tau on a log-uniform grid over IM_TAU_RANGE (one point per stratum), seeded Re tau.

    The grid is fixed so that the cost of the slowest rows, which set the tail,
    does not move with the seed; series length depends on Im tau only.
    """
    rng = random.Random(op_seed("eval-series:taus", seed, 0))
    lo, hi = (math.log(x) for x in IM_TAU_RANGE)
    return [
        complex(rng.uniform(-0.5, 0.5), math.exp(lo + (k + 0.5) / TAU_POOL * (hi - lo)))
        for k in range(TAU_POOL)
    ]


class EvalSeriesWorkload:
    """Point evaluations through the public functions, one plot row per op.

    An op evaluates one function at one tau from the pool along a row of
    ROW_CALLS points on the real u line, so u is new on every call.  Timing
    rows rather than single ~20 us calls keeps the tail percentile a property
    of the inputs instead of scheduler noise.
    """

    kind = "eval"

    def __init__(self, name: str, seed: int, mc):
        self.name = name
        self.seed = seed
        self.mc = mc
        self.taus = tau_pool(seed)
        self.deck = Deck([(f, t) for f in EVAL_FAMILIES for t in range(TAU_POOL)], name, seed)
        self.kept: dict = {}  # row index -> values, for rows picked for the oracle
        self.bad_calls: dict = {}  # (row, call) -> (kind, detail), for raised or non-finite calls

    def row_spec(self, index: int):
        family, t = self.deck.card(index)
        rng = op_rng(self.name, self.seed, index)
        tau = self.taus[t]
        step = 0.85 / ROW_CALLS  # u stays in [0.05, 0.92], clear of the poles at u in Z
        x0 = rng.uniform(0.05, 0.05 + step)
        us = [complex(x0 + j * step, 0.0) for j in range(ROW_CALLS)]
        v = complex(rng.uniform(-0.5, 0.5), 0.0)
        D = self.mc.domain
        if family == "theta1":
            fn, fixed = self.mc.kernel.theta1, ()
        elif family == "theta3":
            fn, fixed = self.mc.kernel.theta3, ()
        elif family == "eta":
            fn, fixed = None, ()
        elif family == "aK":
            fn, fixed = self.mc.appell.aK, (rng.randint(1, 7),)
        elif family == "chi_w_atypical":
            params = D.AlgebraParams(*rng.choice(CELLS))
            label = D.AtypicalWLabel(rng.choice((-0.5, 0.0, 0.5, 1.0)), rng.randint(-1, 1))
            fn, fixed = self.mc.characters.chi_w_atypical, (params, label)
        elif family == "chi_w_typical":
            params = D.AlgebraParams(*rng.choice(CELLS))
            label = D.TypicalWLabel(rng.uniform(-1.0, 1.0), rng.uniform(0.1, 0.9))
            fn, fixed = self.mc.characters.chi_w_typical, (params, label)
        else:
            alpha_sq = rng.randint(1, 4)
            fn, fixed = self.mc.characters.chi_lattice, (alpha_sq, rng.randrange(alpha_sq))
        return family, fn, fixed, us, v, tau

    def unit(self, index: int, kind: str) -> str:
        """chi_lattice.imtau0.0215.oracle: function, Im tau of the row, kind of failure."""
        family, t = self.deck.card(index)
        return "%s.imtau%.4f.%s" % (family, self.taus[t].imag, kind)

    def _calls(self, spec):
        family, fn, fixed, us, v, tau = spec
        if family == "eta":
            # eta takes no u: the row reads eta at pool taus, as characters do
            taus = [self.taus[(self.taus.index(tau) + j) % TAU_POOL] for j in range(ROW_CALLS)]
            eta = self.mc.kernel.eta
            return [(eta, (t,)) for t in taus]
        if family in ("theta1", "theta3", "chi_lattice"):
            return [(fn, fixed + (u, tau)) for u in us]
        return [(fn, fixed + (u, v, tau)) for u in us]

    def warmup(self) -> None:
        rng = random.Random(op_seed(self.name + ":warmup", self.seed, 0))
        for _ in range(2 * len(EVAL_FAMILIES)):
            self._run_calls(self._calls(self.row_spec(rng.randrange(1 << 30))))

    @staticmethod
    def _run_calls(calls) -> list:
        out = []
        for fn, args in calls:
            try:
                out.append(fn(*args))
            except Exception as exc:  # noqa: BLE001 - a call that raises is a failed unit
                out.append(exc)
        return out

    def prepare(self, index: int):
        return self._calls(self.row_spec(index))

    def run(self, index: int, prepared) -> list:
        return self._run_calls(prepared)

    def after(self, index: int, prepared, values) -> None:
        """Outside the timed region: screen every call, keep oracle rows."""
        for j, val in enumerate(values):
            if isinstance(val, Exception):
                self.bad_calls[index, j] = ("raised", "%s: %s" % (type(val).__name__, val))
            elif not (math.isfinite(val.real) and math.isfinite(val.imag)):
                self.bad_calls[index, j] = ("nonfinite", repr(val))
        if self._oracle_row(index):
            self.kept[index] = values

    def _oracle_row(self, index: int) -> bool:
        """One row per deck pass, walking the cards in a fixed scattered order so a
        run checks the same (function, tau) cards whatever the seed."""
        n = len(self.deck.cards)
        return self.deck.card(index) == self.deck.cards[(index // n) * ORACLE_STRIDE % n]

    def check(self, op_wall_s: list) -> Verdict:
        import oracles

        v = Verdict()
        bound = self.mc.domain.DEFAULT_TRUNC.tail_tol
        for (index, j), (kind, detail) in self.bad_calls.items():
            v.units += 1
            v.fail_unit(self.kind, self.unit(index, kind), "row %d call %d: %s" % (index, j, detail))
        for index in sorted(self.kept):
            spec = self.row_spec(index)
            for j, ((fn, args), got) in enumerate(zip(self._calls(spec), self.kept[index])):
                if j % ORACLE_CALL_STEP or (index, j) in self.bad_calls:
                    continue  # not sampled, or already counted above
                ref, tol = oracles.eval_reference(self.mc, spec[0], args, bound)
                v.units += 1
                err = oracles.scaled_err(got, ref)
                if not err <= tol:
                    v.fail_unit(self.kind, self.unit(index, "oracle"), "row %d args %r: error %.3g > %.3g"
                                % (index, args, err, tol))
        return v


# ---------------------------------------------------------------------------
# expand

EXPAND_ORDERS = tuple(Fraction(k, 2) for k in range(4, 17))  # 2, 5/2, ..., 8
EXPAND_OBJECTS = (
    [("theta1", None), ("theta1_over_eta3", None)]
    + [("ak", level) for level in range(1, 8)]
    + [("chi_atypical", cell) for cell in CELLS]
)
ATYPICAL_LABELS = tuple((Fraction(n2, 2), lp) for n2 in (-1, 0, 1, 2) for lp in (-1, 0, 1))


def expand_unit(obj: str, order, kwargs: dict, kind: str) -> str:
    """theta1.order8.exact or chi_atypical.n2l1.lp-1.order5/2.empty: the ids
    KNOWN_DEFECTS matches.  kind is raised, empty (qexpand returned no terms),
    exact or point (the check that failed)."""
    head = obj
    if obj == "ak":
        head = "ak.K%d" % kwargs["level"]
    elif obj == "chi_atypical":
        params, label = kwargs["params"], kwargs["label"]
        head = "chi_atypical.n%dl%d.lp%d" % (params.n, params.ell, label.ell_prime)
    return "%s.order%s.%s" % (head, order, kind)


class ExpandWorkload:
    """`qexpand` of theta1, theta1/eta^3, A_K and atypical characters.

    The deck holds every (object, order) pair once per pass, so the run's mix
    of cheap (theta1, ~0.2 ms) and expensive (chi-A at order 8, ~170 ms) ops
    is fixed.  Each character card walks the labels one step per pass from a
    seeded offset, so a run covers the labels evenly.  The seed draws the
    order of the deck, the label offsets and the points the point check
    evaluates at.  Only the series' value at that point and its length are
    kept; the exact check recomputes the first pass after the timed loop.
    """

    kind = "expand"

    def __init__(self, name: str, seed: int, mc):
        self.name = name
        self.seed = seed
        self.mc = mc
        self.deck = Deck([(obj, arg, order) for obj, arg in EXPAND_OBJECTS
                          for order in EXPAND_ORDERS], name, seed)
        self.done: list = []  # (index, series value at the oracle point or exception, terms)

    def spec(self, index: int):
        slot = self.deck.slot(index)
        obj, arg, order = self.deck.cards[slot]
        rng = op_rng(self.name, self.seed, index)
        kwargs = {}
        if obj == "ak":
            kwargs["level"] = arg
        elif obj == "chi_atypical":
            offset = op_seed(self.name + ":labels", self.seed, slot)
            step = index // len(self.deck.cards)
            n_prime, ell_prime = ATYPICAL_LABELS[(offset + step) % len(ATYPICAL_LABELS)]
            kwargs["params"] = self.mc.domain.AlgebraParams(*arg)
            kwargs["label"] = self.mc.domain.AtypicalWLabel(float(n_prime), ell_prime)
        # point-check point inside |q| < |z| < 1, deep enough that the q^order tail is tiny
        tau = complex(rng.uniform(-0.5, 0.5), max(1.2, 4.5 / float(order)))
        u = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.15, 0.35))
        v = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.1)) if obj in ("ak", "chi_atypical") else 0j
        return obj, order, kwargs, (u, v, tau)

    def warmup(self) -> None:
        self.mc.qseries.qexpand("ak", Fraction(2), level=1)

    def prepare(self, index: int):
        obj, order, kwargs, _ = self.spec(index)
        return obj, order, kwargs

    def run(self, index: int, prepared):
        obj, order, kwargs = prepared
        try:
            return self.mc.qseries.qexpand(obj, order, **kwargs)
        except Exception as exc:  # noqa: BLE001 - recorded and judged in check()
            return exc

    def after(self, index: int, prepared, series) -> None:
        if isinstance(series, Exception):
            self.done.append((index, series, 0))
        else:
            self.done.append((index, series.eval_at(*self.spec(index)[3]), len(series)))

    def _exact_failure(self, v: Verdict, index: int, got: complex):
        """Recompute a first-pass expansion and compare every coefficient with
        the independent exact expansion; a detail string if they differ."""
        import oracles

        obj, order, kwargs, point = self.spec(index)
        series = self.mc.qseries.qexpand(obj, order, **kwargs)
        if series.eval_at(*point) != got:
            v.unexpected.append("op %d: recomputed %s differs from the timed one" % (index, obj))
        first = oracles.first_difference(oracles.series_terms(series),
                                         oracles.exact_expansion(self.mc, obj, order, kwargs))
        if first is None:
            return None
        return "first wrong term q^%s z^%s y^%s" % tuple(first)

    def check(self, op_wall_s: list) -> Verdict:
        import oracles

        v = Verdict()
        exact_ops = len(self.deck.cards)
        for index, got, terms in self.done:
            obj, order, kwargs, point = self.spec(index)
            v.units += 1
            if isinstance(got, Exception):
                v.fail_unit(self.kind, expand_unit(obj, order, kwargs, "raised"), "raised %r" % (got,))
                continue
            kind = None
            detail = self._exact_failure(v, index, got) if index < exact_ops else None
            if detail is not None:
                kind = "exact"
            err = oracles.scaled_err(got, oracles.expand_reference(self.mc, obj, kwargs, point))
            if not err <= oracles.EXPAND_TOL:
                kind = kind or "point"
                detail = "%s; at %r error %.3g" % (detail, point, err) if detail else (
                    "at %r error %.3g" % (point, err))
            if kind is not None:
                if terms == 0:
                    kind = "empty"
                v.fail_unit(self.kind, expand_unit(obj, order, kwargs, kind),
                            "%r: %s" % (kwargs, detail))
        v.layer["qseries.terms"] = sum(t for _, _, t in self.done) / max(len(self.done), 1)
        return v


WORKLOADS = ("verify-all", "verify-jobs2", "eval-series", "expand")


def make(name: str, seed: int, mc, tmp_dir: str):
    if name == "verify-all":
        return VerifyWorkload(name, seed, 1, mc, tmp_dir)
    if name == "verify-jobs2":
        return VerifyWorkload(name, seed, 2, mc, tmp_dir)
    if name == "eval-series":
        return EvalSeriesWorkload(name, seed, mc)
    if name == "expand":
        return ExpandWorkload(name, seed, mc)
    raise ValueError("unknown workload %r; known: %s" % (name, ", ".join(WORKLOADS)))
