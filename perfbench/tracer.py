"""Span tracer that wraps mockchar's module-level functions from outside.

`Tracer.install()` replaces every reference to a layer function, in every
loaded `mockchar.*` namespace, by a timing wrapper; `uninstall()` puts the
original objects back.  Each call records a span (id, name, start, end,
parent id, op id) and adds to per-name totals: calls, total time, self time
(duration minus the duration of the spans it directly caused) and raised
exceptions, which are counted and re-raised.  A function that does not exist
is simply not wrapped, so its counters read zero.

Spans are kept per thread: a thread's first span has parent 0 even when a
pool thread works for a span of another thread.  The time the submitting
thread spends waiting on `suites`' thread pool (`ThreadPoolExecutor.map`) is
its own span, `suites.pool_wait`, so it is not counted as `run_suites` self
time.  Self times summed over the thread that runs the ops therefore add up
to the op time; pool threads add their own work on top.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time

PACKAGE = "mockchar"
LAYERS = ("cli", "suites", "report", "kernel", "appell", "mordell", "characters",
          "modular_verlinde", "qseries")
# private functions that are layer boundaries the per-layer metrics need
PRIVATE_BOUNDARIES = {"modular_verlinde": ("_fourier_on_line",)}
POOL_WAIT = "suites.pool_wait"
_END = object()


class Tracer:
    def __init__(self, span_cap: int = 100_000, hooks: dict | None = None):
        self.span_cap = span_cap
        self.hooks = dict(hooks or {})
        self.spans: list = []
        self.counters: dict = {}
        self.op = -1
        self._replaced: list = []  # (namespace, attribute, original)
        self._tls = threading.local()
        self._thread_stats: list = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    # -- counters used by hooks; pool threads may call them concurrently
    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def _thread_state(self):
        stack, stats = [], {}
        self._tls.stack, self._tls.stats = stack, stats
        with self._lock:
            self._thread_stats.append((threading.get_ident(), stats))
        return stack, stats

    def _wrap(self, name: str, fn):
        tracer = self
        tls = self._tls
        spans = self.spans
        cap = self.span_cap
        ids = self._ids
        clock = time.perf_counter_ns
        hook = self.hooks.get(name)

        def wrapper(*args, **kwargs):
            try:
                stack, stats = tls.stack, tls.stats
            except AttributeError:
                stack, stats = tracer._thread_state()
            if hook is not None:
                args, kwargs = hook.before(tracer, fn, args, kwargs)
            children = [0]
            parent = stack[-1][1] if stack else 0
            sid = next(ids)
            stack.append((children, sid))
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0][0] += dur
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0, 0, 0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - children[0]
                st[3] += failed
                if len(spans) < cap:
                    spans.append((sid, name, start, end, parent, tracer.op))
            if hook is not None:
                hook.after(tracer, fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _targets(self) -> dict:
        """id(original) -> (qualified name, original) for every layer function."""
        out = {}
        for layer in LAYERS:
            mod = sys.modules.get("%s.%s" % (PACKAGE, layer))
            if mod is None:
                continue
            extra = PRIVATE_BOUNDARIES.get(layer, ())
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in extra)):
                    out[id(obj)] = ("%s.%s" % (layer, attr), obj)
        return out

    def _traced_pool(self, base):
        """A subclass of the pool class whose map() results are awaited inside a span."""
        timed_next = self._wrap(POOL_WAIT, lambda results: next(results, _END))

        class TracedPool(base):
            def map(self, fn, *iterables, **kwargs):
                results = super().map(fn, *iterables, **kwargs)

                def waited():
                    while True:
                        item = timed_next(results)
                        if item is _END:
                            return
                        yield item

                return waited()

        return TracedPool

    def install(self) -> "Tracer":
        suites = sys.modules.get("%s.suites" % PACKAGE)
        pool = getattr(suites, "ThreadPoolExecutor", None)
        if inspect.isclass(pool):
            setattr(suites, "ThreadPoolExecutor", self._traced_pool(pool))
            self._replaced.append((suites, "ThreadPoolExecutor", pool))
        targets = self._targets()
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                key = id(obj)
                if key in targets and targets[key][1] is obj:
                    setattr(mod, attr, wrappers[key])
                    self._replaced.append((mod, attr, obj))
        return self

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._replaced):
            setattr(mod, attr, obj)
        self._replaced = []

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def stats(self) -> dict:
        """name -> {"calls", "total_s", "self_s", "raised"} merged over threads."""
        merged: dict = {}
        with self._lock:
            per_thread = list(self._thread_stats)
        for _, stats in per_thread:
            for name, (calls, total, self_ns, raised) in list(stats.items()):
                m = merged.setdefault(name, [0, 0, 0, 0])
                m[0] += calls
                m[1] += total
                m[2] += self_ns
                m[3] += raised
        return {
            name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9, "raised": r}
            for name, (c, t, s, r) in merged.items()
        }


    def thread_self_s(self, ident: int) -> float:
        """Self time summed over every span of one thread."""
        with self._lock:
            per_thread = [stats for tid, stats in self._thread_stats if tid == ident]
        return sum(st[2] for stats in per_thread for st in list(stats.values())) / 1e9


def bind(fn, args, kwargs) -> dict:
    """Arguments of a call by parameter name."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    return bound.arguments
