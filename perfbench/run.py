"""Benchmark of the coamoeba library: one workload per run.

    python3 perfbench/run.py --workload fan|verify|member --seed N \
        --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.
Set-up (importing ``coamoeba``, generating and validating the inputs,
building cycles and prisms) is repeated SETUP_REPEATS times and its median
reported.  Then whole passes over the workload's items repeat, in a closed
loop on one thread, until the next pass would overrun ``--seconds``; at
least one pass runs.  Every item's output is checked against
``reference.json`` after its pass.  Item timings are scaled by a speed
probe (see ``PROBE_REF_S``); each item's median over the passes is its
latency, and ``pass_s`` is the sum of those.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` untraced passes fill half the time and passes with every
function listed in ``layers.json`` wrapped (``tracing.py``) the other half;
the last line carries the per-layer metrics, per traced pass, and the spans
go to ``perfbench/out/``.  Lines before the last one are a readable report.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy  # third-party import, kept out of setup_s

import inputs
import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
LIBRARY_MODULES = (
    "catalog", "cli", "configuration", "cycles", "discriminant", "errors",
    "harness", "intlinalg", "matroid", "polynomial", "serialize", "tropical",
)

clock = time.perf_counter

# On a shared 2-vCPU VM the same code ran at speeds up to 1.9x apart, in
# stretches of seconds to minutes: a fixed 0.8 s item took 0.56 to 1.13 s
# within 100 s, pinned to either vCPU, with almost no steal time.
# Every timing is therefore scaled by PROBE_REF_S over the time of a fixed
# exact-arithmetic kernel that does not use the library, measured just before
# and just after it (the mean of the two scales).  Timings read as seconds at the speed at which that kernel takes
# PROBE_REF_S (its fastest time on that VM); raw wall times are printed
# beside them.
PROBE_REF_S = 0.0021
PROBE_EVERY_S = 0.25


def _probe_kernel() -> None:
    """Fraction elimination on fixed 5 x 5 matrices, then a float loop."""
    for k in range(6):
        rows = [
            [Fraction((i * 7 + j * 13 + k) % 11 - 5, 1 + (i + j) % 3) for j in range(5)]
            for i in range(5)
        ]
        for c in range(5):
            p = next((r for r in range(c, 5) if rows[r][c]), None)
            if p is None:
                continue
            rows[c], rows[p] = rows[p], rows[c]
            inv = 1 / rows[c][c]
            rows[c] = [x * inv for x in rows[c]]
            for r in range(5):
                if r != c and rows[r][c]:
                    f = rows[r][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    total = 0.0
    for i in range(3000):
        x = (i % 97) * 0.013
        total += x * x - 0.5 * x


def probe_scale() -> float:
    """PROBE_REF_S over the kernel's best time of three runs now."""
    best = math.inf
    for _ in range(3):
        t0 = clock()
        _probe_kernel()
        best = min(best, clock() - t0)
    return PROBE_REF_S / best


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import ``coamoeba`` afresh; returns the package with its submodules."""
    for name in [n for n in sys.modules if n == "coamoeba" or n.startswith("coamoeba.")]:
        del sys.modules[name]
    lib = importlib.import_module("coamoeba")
    for name in LIBRARY_MODULES:
        importlib.import_module(f"coamoeba.{name}")
    return lib


def library_modules() -> dict:
    return {
        n: m for n, m in sys.modules.items() if n == "coamoeba" or n.startswith("coamoeba.")
    }


@dataclass
class Pass:
    wall_s: float  # raw
    latencies: list  # scaled seconds per item
    observations: list
    failures: list  # (label, reason) per failed item


def run_pass(items) -> Pass:
    """Time every item once, then check every output."""
    for item in items:
        for path in item.outputs:
            if os.path.exists(path):
                os.remove(path)
    latencies, raws = [], []
    # items timed since the last probe, as (seconds, scale of the probe before)
    pending: list[tuple[float, float]] = []
    start = probed = clock()
    scale = probe_scale()
    for item in items:
        t0 = clock()
        try:
            raw = item.run()
        except Exception as exc:  # an item that raises is counted as failed
            raw = exc
        pending.append((clock() - t0, scale))
        raws.append(raw)
        if clock() - probed > PROBE_EVERY_S or len(raws) == len(items):
            # each item is scaled by the mean of the probes around it
            scale = probe_scale()
            probed = clock()
            latencies.extend(t * (before + scale) / 2 for t, before in pending)
            pending.clear()
    wall_s = clock() - start
    observations, failures = [], []
    for item, raw in zip(items, raws):
        if isinstance(raw, Exception):
            observations.append(None)
            failures.append((item.label, f"raised {type(raw).__name__}: {raw}"))
            continue
        try:
            observed = item.observe(raw)
        except (OSError, ValueError, KeyError, TypeError) as exc:  # unreadable output
            observed = f"unreadable output: {type(exc).__name__}: {exc}"
        observations.append(observed)
        problem = workloads.compare(observed, item.expected)
        if problem:
            failures.append((item.label, problem))
    return Pass(wall_s, latencies, observations, failures)


def timed_passes(items, budget: float) -> list[Pass]:
    """Passes until the next one would overrun ``budget`` seconds (at least one)."""
    passes = []
    start = clock()
    while True:
        passes.append(run_pass(items))
        typical = statistics.median(p.wall_s for p in passes)
        if clock() - start + typical > budget:
            return passes


def item_medians(passes) -> list[float]:
    """Each item's median scaled time over the passes."""
    return [statistics.median(times) for times in zip(*(p.latencies for p in passes))]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "COAMOEBA_THREADS_set": "COAMOEBA_THREADS" in os.environ,
        "COAMOEBA_THREADS": os.environ.get("COAMOEBA_THREADS"),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, setup_times, passes):
    item_ms = [s * 1e3 for s in item_medians(passes)]
    pass_s = sum(item_ms) / 1e3
    p99 = statistics.quantiles(item_ms, n=100, method="inclusive")[98]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "pass_s": metric(pass_s, "s"),
        "item_ms_p50": metric(statistics.median(item_ms), "ms"),
        "item_ms_p99": metric(p99, "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    walls = [p.wall_s for p in passes]
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "pass_s": f"sum of item medians over {len(passes)} passes; "
        f"pass wall times {min(walls):.4g} to {max(walls):.4g} s",
        "item_ms_p50": f"over {len(item_ms)} items, each its median of {len(passes)}",
        "item_ms_p99": f"over {len(item_ms)} items, {sum(x > p99 for x in item_ms)} beyond",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    if workload == "verify":
        per_pass = sum(o["n_valid"] for o in passes[0].observations if isinstance(o, dict) and "n_valid" in o)
        metrics["samples_per_s"] = metric(per_pass / pass_s, "1/s")
        notes["samples_per_s"] = f"{per_pass} valid samples per pass, over pass_s"
    return metrics, notes


def per_layer(tracer, targets, n_items, traced, untraced):
    """Per traced pass: calls and self time per target, the yields, and the
    tracing overhead (traced minus untraced pass_s, as end_to_end defines it)."""
    calls, self_s = tracer.per_name()
    n = len(traced)
    metrics = {}
    for target, count, seconds in zip(targets, calls, self_s):
        metrics[f"{target['metric']}.calls"] = metric(count / n, "count")
        metrics[f"{target['metric']}.self_s"] = metric(seconds / n, "s")
    closure_calls = calls[tracer.names.index("matroid.closure")]
    flacets_calls = calls[tracer.names.index("matroid.flacets")]
    metrics["matroid.closure_yield"] = metric(
        len(tracer.distinct_closures) / closure_calls if closure_calls else 0.0, "ratio"
    )
    metrics["tropical.complete_flag_yield"] = metric(
        tracer.complete_flags / tracer.chains_enumerated if tracer.chains_enumerated else 0.0,
        "ratio",
    )
    metrics["matroid.flacets.calls_per_item"] = metric(flacets_calls / n / n_items, "1/item")
    traced_s, untraced_s = sum(item_medians(traced)), sum(item_medians(untraced))
    metrics["trace.traced_pass_s"] = metric(traced_s, "s")
    metrics["trace.overhead_s"] = metric(traced_s - untraced_s, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fan", "verify", "member"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coamoeba", "__init__.py")):
        fail(f"no library sources under {SRC}")
    sys.path.insert(0, SRC)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
        targets = json.load(fh)["targets"]

    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_times, setup_raw = [], []
        for _ in range(SETUP_REPEATS):
            rejections = inputs.Rejections()
            scale = probe_scale()
            t0 = clock()
            lib = import_library()
            items = workloads.SETUPS[args.workload](
                lib, args.seed, refs, workdir, rejections
            )
            setup_raw.append(clock() - t0)
            setup_times.append(setup_raw[-1] * scale)

        budget = args.seconds / 2 if args.trace else args.seconds
        passes = timed_passes(items, budget)
        traced = []
        if args.trace:
            tracer = Tracer(targets)
            tracer.install(library_modules())
            origin = clock()
            try:
                traced = timed_passes(items, budget)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_passes = passes + traced
    attempted = len(items) * len(all_passes)
    failed = sum(len(p.failures) for p in all_passes)
    env = environment()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "rejections": rejections.counts,
        "items_per_pass": len(items),
        "passes": len(passes),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "error_frac": failed / attempted,
        "first_failures": [f for p in all_passes for f in p.failures][:10],
        "item_item_ms": {
            item.label: s * 1e3 for item, s in zip(items, item_medians(all_passes))
        },
    }
    if args.trace:
        metrics = per_layer(tracer, targets, len(items), traced, passes)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
        tracer.write(spans_path, origin)
        report["spans"] = os.path.relpath(spans_path, ROOT)
        notes = {}
    else:
        metrics, notes = end_to_end(args.workload, setup_times, passes)
        notes["setup_s"] += f"; raw median {statistics.median(setup_raw):.4g} s"

    report["metrics"] = metrics
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  environment {json.dumps(env, sort_keys=True)}")
    print(f"  rejections per rung {json.dumps(rejections.counts, sort_keys=True)}")
    print(f"  items per pass {len(items)}, passes {len(passes)}, traced {len(traced)}")
    for key, m in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:<40} {m['value']:.6g} {m['unit']}{note}")
    print(f"  error_frac {failed / attempted:.6g} ({failed} of {attempted} items)")
    for label, problem in report["first_failures"]:
        print(f"  FAILED {label}: {problem}")

    final = {k: v for k, v in metrics.items() if k != "samples_per_s"}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": final}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
