"""Quick self-test of the benchmark harness (about 10 s).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the tracer restores every attribute it wraps, that a wrapped call which
raises is counted and re-raised rather than swallowed, that the pool wait is
its own span, that the known-defect ledger covers only the measured regimes,
and that the exact expansion oracle agrees with qexpand and sees a corrupted
top-order term.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def mockchar_namespaces() -> dict:
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "mockchar" or name.startswith("mockchar."))}


class TracerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.mc = worker.load_mockchar(ROOT)

    def test_restores_every_wrapped_attribute(self):
        before = mockchar_namespaces()
        tr = Tracer(hooks=layers.HOOKS).install()
        try:
            wrapped = self.mc.kernel.integrate_line
            self.assertIsNot(wrapped, before["mockchar.kernel"]["integrate_line"])
            # the same function object is replaced in every namespace that binds it
            self.assertIs(self.mc.mordell.integrate_line, wrapped)
            self.assertIs(self.mc.modular_verlinde.integrate_line, wrapped)
        finally:
            tr.uninstall()
        after = mockchar_namespaces()
        self.assertEqual(before.keys(), after.keys())
        for name, attrs in before.items():
            for attr, obj in attrs.items():
                self.assertIs(after[name][attr], obj, "%s.%s not restored" % (name, attr))

    def test_raising_call_is_counted_and_reraised(self):
        spec = self.mc.domain.QuadratureSpec(nodes=4, tail_tol=1e-300, max_nodes=64)
        with Tracer(hooks=layers.HOOKS) as tr:
            with self.assertRaises(self.mc.package.errors.QuadratureNoConvergence):
                self.mc.mordell.integrate_line(lambda x: 1.0 / (1.0 + x * x), spec)
        st = tr.stats()["kernel.integrate_line"]
        self.assertEqual((st["calls"], st["raised"]), (1, 1))
        metrics = layers.layer_metrics(tr.stats(), tr.counters, 1, st["total_s"], st["total_s"],
                                       (0, 0), {})
        self.assertEqual(metrics["kernel.quad_failures"], 1)

    def test_self_time_and_hooks(self):
        with Tracer(hooks=layers.HOOKS) as tr:
            self.mc.mordell.mordell_h_s(0.5, 0.1 + 0.05j, 1.1j)
        stats = tr.stats()
        self.assertGreater(tr.counters["mordell.pole_contour_nodes"], 0)
        self.assertEqual(tr.counters["kernel.quad_nodes"], tr.counters["mordell.pole_contour_nodes"])
        for name, st in stats.items():
            self.assertLessEqual(st["self_s"], st["total_s"] + 1e-9, name)
        root = stats["mordell.mordell_h_s"]["total_s"]
        self.assertAlmostEqual(sum(st["self_s"] for st in stats.values()), root, delta=1e-6)
        parents = {sid: parent for sid, _, _, _, parent, _ in tr.spans}
        self.assertEqual(sum(1 for p in parents.values() if p == 0), 1)

    def test_pool_wait_is_its_own_span(self):
        config = self.mc.suites.SuiteConfig(suites=("kernel",), samples=2, jobs=2)
        pool = self.mc.suites.ThreadPoolExecutor
        with Tracer() as tr:
            t0 = time.perf_counter_ns()
            reports = self.mc.suites.run_suites(config)
            wall = (time.perf_counter_ns() - t0) / 1e9
        self.assertIs(self.mc.suites.ThreadPoolExecutor, pool)
        self.assertTrue(reports)
        stats = tr.stats()
        wait = stats[tracer.POOL_WAIT]
        self.assertGreater(wait["calls"], 0)
        run = stats["suites.run_suites"]
        # run_suites' self time excludes the wait; the op thread's self times add up to its wall
        self.assertLess(run["self_s"], run["total_s"] - wait["total_s"] + 1e-6)
        self.assertAlmostEqual(tr.thread_self_s(threading.get_ident()), wall, delta=0.05 * wall)


class HarnessTest(unittest.TestCase):
    def test_tail_percentile(self):
        value, pct = worker.tail([float(i) for i in range(100)])
        self.assertEqual((value, pct), (89.0, 90.0))

    def test_known_defect_ledger(self):
        known = workloads.known_defect
        self.assertTrue(known("verify", "appell.s-law.K5.alt"))
        self.assertTrue(known("verify", "appell.rel1.K7.3"))
        self.assertFalse(known("verify", "appell.rel1.K5.3"))
        self.assertTrue(known("eval", "chi_w_atypical.imtau0.0907.oracle"))
        self.assertFalse(known("eval", "chi_w_atypical.imtau0.1047.oracle"))
        self.assertFalse(known("eval", "chi_w_atypical.imtau0.0215.raised"))
        self.assertFalse(known("eval", "chi_w_atypical.imtau0.0215.nonfinite"))
        self.assertTrue(known("eval", "chi_lattice.imtau0.0441.oracle"))
        self.assertFalse(known("eval", "chi_lattice.imtau0.0510.oracle"))
        self.assertTrue(known("eval", "chi_w_typical.imtau0.0680.oracle"))
        self.assertFalse(known("eval", "chi_w_typical.imtau0.0785.oracle"))
        self.assertFalse(known("eval", "theta1.imtau0.0215.oracle"))
        self.assertTrue(known("expand", "chi_atypical.n2l1.lp-1.order5/2.empty"))
        self.assertFalse(known("expand", "chi_atypical.n2l1.lp-1.order7/2.empty"))
        self.assertFalse(known("expand", "chi_atypical.n2l1.lp-1.order2.exact"))
        self.assertFalse(known("expand", "chi_atypical.n0l1.lp-1.order2.empty"))
        self.assertFalse(known("expand", "chi_atypical.n2l1.lp1.order2.empty"))

    def test_exact_expansion_oracle(self):
        mc = worker.load_mockchar(ROOT)
        params = mc.domain.AlgebraParams(2, 1)
        for obj, kwargs in (("theta1", {}), ("theta1_over_eta3", {}), ("ak", {"level": 3}),
                            ("chi_atypical", {"params": params,
                                              "label": mc.domain.AtypicalWLabel(0.5, 1)})):
            order = Fraction(7, 2)
            got = oracles.series_terms(mc.qseries.qexpand(obj, order, **kwargs))
            want = oracles.exact_expansion(mc, obj, order, kwargs)
            self.assertIsNone(oracles.first_difference(got, want), obj)
            # a corrupted top-order coefficient is seen
            top = max(got)
            got[top] = (got[top][0] + 1, got[top][1])
            self.assertEqual(oracles.first_difference(got, want), top, obj)

    def test_every_metric_emitted_with_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", "eval-series",
                 "--seed", "0", "--seconds", "2", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, want)
            for name, m in result["metrics"].items():
                self.assertIsInstance(m["value"], (int, float), name)


if __name__ == "__main__":
    unittest.main()
