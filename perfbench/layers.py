"""Per-layer metrics of a traced run, computed from tracer spans and counters.

Every time is a self time (a span's duration minus its children's) summed per
op, and every count is per op, so runs of different lengths compare.  The
layers are mockchar's modules; `kernel` is split into line quadrature
(`integrate_line`) and the rest, the series kernels.
"""

from __future__ import annotations

import math

import numpy as np

from tracer import POOL_WAIT, bind

SUITES = ("kernel", "appell", "mordell", "characters", "lattice", "thm-modprop", "smatrix",
          "verlinde", "qexpand")
SERIES_ENTRY_POINTS = ("kernel.theta1", "kernel.theta3", "kernel.eta", "kernel.eta_pentagonal")
COMPLEX_BYTES = 16


class Hook:
    """Per-function tracer hook: may replace the call's arguments, sees its result."""

    def before(self, tracer, fn, args, kwargs):
        return args, kwargs

    def after(self, tracer, fn, args, kwargs, result):
        pass


class QuadNodes(Hook):
    """Adds QuadratureResult.nodes of each integrate_line call."""

    def after(self, tracer, fn, args, kwargs, result):
        tracer.count("kernel.quad_nodes", getattr(result, "nodes", 0))


class PoleContourNodes(Hook):
    """Nodes spent by mordell_h_s_quad on the |s| = 1/2 contour next to a pole."""

    def after(self, tracer, fn, args, kwargs, result):
        s = bind(fn, args, kwargs).get("s")
        if s is not None and abs(abs(complex(s).real) - 0.5) < 1e-12:
            tracer.count("mordell.pole_contour_nodes", getattr(result, "nodes", 0))


class FourierPoints(Hook):
    """Counts the points the Fourier integrand is evaluated at, by wrapping it.

    Bytes are computed, not measured: each evaluation point is multiplied
    against every frequency through a complex128 matrix entry.
    """

    def before(self, tracer, fn, args, kwargs):
        sig_args = bind(fn, args, kwargs)
        integrand = sig_args.get("kernel")
        freqs = np.size(sig_args.get("freqs", ()))
        if integrand is None:
            return args, kwargs

        def counted(ws):
            points = np.size(ws)
            tracer.count("modular_verlinde.fourier_points", points)
            tracer.count("modular_verlinde.fourier_bytes", points * freqs * COMPLEX_BYTES)
            return integrand(ws)

        sig_args["kernel"] = counted
        return (), dict(sig_args)


HOOKS = {
    "kernel.integrate_line": QuadNodes(),
    "mordell.mordell_h_s_quad": PoleContourNodes(),
    "modular_verlinde._fourier_on_line": FourierPoints(),
}


def lru_caches(mc) -> list:
    kernel = getattr(mc, "kernel", None)
    return [obj for obj in vars(kernel).values() if callable(getattr(obj, "cache_info", None))] if kernel else []


def cache_counts(mc) -> tuple:
    hits = misses = 0
    for cache in lru_caches(mc):
        info = cache.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def layer_metrics(stats: dict, counters: dict, ops: int, op_time_s: float, op_thread_self_s: float,
                  cache_delta: tuple, verdict_layer: dict) -> dict:
    n = max(ops, 1)

    def calls(*names):
        return sum(stats.get(name, {}).get("calls", 0) for name in names)

    def self_s(prefix):
        return sum(s["self_s"] for name, s in stats.items() if name.startswith(prefix))

    def calls_in(prefix):
        return sum(s["calls"] for name, s in stats.items() if name.startswith(prefix))

    quad = stats.get("kernel.integrate_line", {})
    fourier = stats.get("modular_verlinde._fourier_on_line", {})
    hits, misses = cache_delta
    out = {
        "kernel.quad_calls": quad.get("calls", 0) / n,
        "kernel.quad_nodes": counters.get("kernel.quad_nodes", 0) / n,
        "kernel.quad_s": quad.get("self_s", 0.0) / n,
        "kernel.quad_failures": quad.get("raised", 0) / n,
        "kernel.series_calls": calls(*SERIES_ENTRY_POINTS) / n,
        "kernel.series_s": (self_s("kernel.") - quad.get("self_s", 0.0)) / n,
        "kernel.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "mordell.pole_contour_nodes": counters.get("mordell.pole_contour_nodes", 0) / n,
        "modular_verlinde.fourier_calls": fourier.get("calls", 0) / n,
        "modular_verlinde.fourier_points": counters.get("modular_verlinde.fourier_points", 0) / n,
        "modular_verlinde.fourier_bytes": counters.get("modular_verlinde.fourier_bytes", 0) / n,
        "modular_verlinde.fourier_s": fourier.get("self_s", 0.0) / n,
        "cli.main_s": self_s("cli.") / n,
        "suites.pool_wait_s": stats.get(POOL_WAIT, {}).get("self_s", 0.0) / n,
        "report.write_s": stats.get("report.write_jsonl", {}).get("self_s", 0.0) / n,
        "report.bytes": verdict_layer.get("report.bytes", 0.0),
        "qseries.terms": verdict_layer.get("qseries.terms", 0.0),
        "suites.busy_ratio": verdict_layer.get("suites.busy_ratio", 0.0),
    }
    for layer in ("appell", "characters", "qseries", "mordell", "modular_verlinde"):
        out["%s.s" % layer] = self_s(layer + ".") / n
    for layer in ("appell", "characters", "qseries", "mordell"):
        out["%s.calls" % layer] = calls_in(layer + ".") / n
    for suite in SUITES:
        out["suites.%s_s" % suite] = verdict_layer.get("suites.%s_s" % suite, 0.0)
    out["trace.layer_share"] = op_thread_self_s / op_time_s if op_time_s > 0 else 0.0
    for key, value in out.items():
        if not math.isfinite(value):
            raise ValueError("per-layer metric %s is %r" % (key, value))
    return out
