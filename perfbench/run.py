"""mockchar benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 20 --trace 0

Workloads: verify-all, verify-jobs2, eval-series, expand (see NOTES.md).
Run from a checkout of the repository: the library is imported from ./src.

--trace 0 prints the end-to-end metrics: setup_s (median fresh-process import
of mockchar.cli), op_p50_ms, op_tail_ms, ops_per_s, pass_ratio, peak_rss_mb.
--trace 1 runs the workload untraced and then traced, each in a fresh worker,
and prints the per-layer metrics; spans and a per-function table are written
to perfbench/out/.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it holds the run's metadata.  Exit code 1 and "correct": false
mean an output broke a correctness check outside the known-defect ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 11  # the first warms the file cache and writes bytecode; it is dropped
IMPORTTIME_RUNS = 3
DEADLINE = time.monotonic() + 170  # every run must end within 180 s
IMPORT_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import mockchar.cli\n"
    "print(time.perf_counter() - t)\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def python(args: list) -> subprocess.CompletedProcess:
    """Run a child interpreter; on timeout it is killed and reaped before we fail."""
    try:
        return subprocess.run([sys.executable] + args, cwd=ROOT, env=child_env(),
                              timeout=max(1.0, DEADLINE - time.monotonic()),
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish before the run's deadline" % " ".join(args[:2]))


def fail(message: str) -> None:
    sys.stderr.write("perfbench: %s\n" % message)
    raise SystemExit(2)


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import mockchar.cli."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = python(["-c", IMPORT_SNIPPET])
        if proc.returncode != 0:
            fail("importing mockchar.cli failed:\n" + proc.stderr)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times[1:])


def import_times() -> dict:
    """setup.numpy_s and setup.mockchar_s from `python -X importtime`, medians."""
    numpy_s, mockchar_s = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = python(["-X", "importtime", "-c", "import mockchar.cli"])
        if proc.returncode != 0:
            fail("importing mockchar.cli failed:\n" + proc.stderr)
        numpy_us = mockchar_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|", 2)
            if not cumulative.strip().isdigit():
                continue  # header line
            top = name.strip()
            depth = len(name) - len(name.lstrip()) - 1
            if top == "numpy" and not numpy_us:
                numpy_us = int(cumulative)
            if depth == 0 and (top == "mockchar" or top.startswith("mockchar.")):
                mockchar_us += int(cumulative)
        numpy_s.append(numpy_us / 1e6)
        mockchar_s.append((mockchar_us - numpy_us) / 1e6)
    return {"setup.numpy_s": statistics.median(numpy_s),
            "setup.mockchar_s": statistics.median(mockchar_s)}


def run_worker(args, trace: int) -> dict:
    proc = python(
        [os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(trace), "--root", ROOT, "--out", OUT])
    if proc.returncode != 0 or not proc.stdout.strip():
        fail("worker exited with %d:\n%s" % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                          timeout=30)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mockchar", "__init__.py")):
        fail("no mockchar package under %s: run from a checkout of the repository" % SRC)
    os.makedirs(OUT, exist_ok=True)

    if args.trace:
        setup = import_times()
        plain = run_worker(args, 0)
        res = run_worker(args, 1)
        workers = (plain, res)
        metrics = dict(res["layers"])
        metrics.update(setup)
        metrics["trace.op_p50_ms"] = res["op_p50_ms"]
        metrics["trace.overhead_ms"] = res["op_p50_ms"] - plain["op_p50_ms"]
        metrics["units.fail_ratio"] = res["units_failed"] / max(res["units"], 1)
        metrics["units.attempted"] = res["units"] / max(res["ops"], 1)
    else:
        setup_s = setup_seconds()
        res = run_worker(args, 0)
        workers = (res,)
        metrics = {
            "setup_s": setup_s,
            "op_p50_ms": res["op_p50_ms"],
            "op_tail_ms": res["op_tail_ms"],
            "ops_per_s": res["ops_per_s"],
            "pass_ratio": 1.0 - res["units_failed"] / max(res["units"], 1),
            "peak_rss_mb": res["peak_rss_mb"],
        }

    unexpected = [u for w in workers for u in w["unexpected"]]
    correct = all(w["unexpected_count"] == 0 and w["ops_failed"] == 0 and w["units"] > 0
                  for w in workers)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "backend": res["backend"],
        "commit": git_commit(),
        "ops": res["ops"],
        "warmup_s": res["warmup_s"],
        "check_s": res["check_s"],
        "tail_percentile": res["tail_percentile"],
        "tail_samples": res["ops"],
        "units": res["units"],
        "units_failed": res["units_failed"],
        "known_defects": res["known_defects"],
        "unexpected": unexpected[:20],
    }
    expected = SPEC["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != set(expected):
        fail("metrics %s do not match BENCHMARK.json %s" % (sorted(metrics), sorted(expected)))
    result = {
        "correct": correct,
        "attempted": res["ops"],
        "failed": res["ops_failed"],
        "metrics": {name: {"value": value, "unit": expected[name]} for name, value in sorted(metrics.items())},
    }
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1, sort_keys=True)
    if unexpected:
        sys.stderr.write("perfbench: unexpected failures:\n  %s\n" % "\n  ".join(unexpected))
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def metric_units() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


SPEC = metric_units()

if __name__ == "__main__":
    raise SystemExit(main())
