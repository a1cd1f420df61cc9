"""One benchmark workload in a fresh process: warm up, time a closed loop,
then judge the outputs.  Prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload eval-series --seed 1 --seconds 20 \
        --trace 0 --root . --out perfbench/out

run.py starts it with BLAS threads pinned to 1; it is not meant to be run
by hand except for debugging.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import threading
import time
import types
from array import array

import workloads

MODULES = ("cli", "suites", "report", "kernel", "appell", "mordell", "characters",
           "modular_verlinde", "qseries", "domain")


def load_mockchar(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import mockchar

    where = os.path.realpath(os.path.dirname(mockchar.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit("mockchar was imported from %s, not from %s" % (where, src))
    mc = types.SimpleNamespace(package=mockchar)
    for name in MODULES:
        try:
            setattr(mc, name, importlib.import_module("mockchar." + name))
        except ImportError:
            setattr(mc, name, None)
    return mc


def tail(latencies: list) -> tuple:
    """The highest percentile with at least 10 samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_loop(wl, seconds: float, tracer=None):
    lat = array("d")
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    index = 0
    while clock() < deadline:
        prepared = wl.prepare(index)
        if tracer is not None:
            tracer.op = index
        t0 = clock()
        result = wl.run(index, prepared)
        t1 = clock()
        lat.append(t1 - t0)
        wl.after(index, prepared, result)
        index += 1
    return list(lat), clock() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    mc = load_mockchar(args.root)
    tmp_dir = os.path.join(args.out, "tmp-%d" % os.getpid())
    os.makedirs(tmp_dir, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, mc, tmp_dir)
    t0 = time.perf_counter()
    wl.warmup()
    warmup_s = time.perf_counter() - t0

    tr = None
    if args.trace:
        import layers
        from tracer import Tracer

        tr = Tracer(hooks=layers.HOOKS)
        cache0 = layers.cache_counts(mc)
        tr.install()
    try:
        lat, loop_s = timed_loop(wl, args.seconds, tr)
    finally:
        if tr is not None:
            tr.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux

    t0 = time.perf_counter()
    verdict = wl.check(lat)
    check_s = time.perf_counter() - t0
    os.rmdir(tmp_dir)
    tail_ms, tail_pct = tail(lat)
    out = {
        "ops": len(lat),
        "loop_s": loop_s,
        "warmup_s": warmup_s,
        "check_s": check_s,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_ms * 1e3,
        "tail_percentile": tail_pct,
        "ops_per_s": len(lat) / loop_s,
        "peak_rss_mb": rss_mb,
        "units": verdict.units,
        "units_failed": verdict.units_failed,
        "known_defects": verdict.known_failed,
        "unexpected": verdict.unexpected[:20],
        "unexpected_count": len(verdict.unexpected),
        "ops_failed": verdict.ops_failed,
        "backend": getattr(mc.package, "backend_name", lambda: "unknown")(),
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
    }
    if tr is not None:
        hits0, misses0 = cache0
        hits1, misses1 = layers.cache_counts(mc)
        stats = tr.stats()
        out["layers"] = layers.layer_metrics(
            stats, tr.counters, len(lat), sum(lat), tr.thread_self_s(threading.get_ident()),
            (hits1 - hits0, misses1 - misses0), verdict.layer)
        stem = os.path.join(args.out, "%s-seed%d" % (args.workload, args.seed))
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            t_origin = tr.spans[0][2] if tr.spans else 0
            for sid, name, start, end, parent, op in tr.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start - t_origin,
                                     "end_ns": end - t_origin, "parent": parent, "op": op}))
                fh.write("\n")
        with open(stem + "-layers.json", "w", encoding="utf-8") as fh:
            json.dump({"metrics": out["layers"], "functions": stats, "counters": tr.counters,
                       "spans_kept": len(tr.spans), "ops": len(lat)}, fh, indent=1, sort_keys=True)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
