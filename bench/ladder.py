"""Ladder benchmark of the matroid stages, one column per checkout.

    python3 bench/ladder.py --column change --out BENCH.json
    python3 bench/ladder.py --column parent --src ../parent/src --out BENCH.json

Times ``Matroid()``, ``flats``, ``flacets``, ``complete_flags``,
``non_splitting_flags``, ``maximal_cones`` and ``nondefective`` on the
catalog configurations and on seeded random zero-sum configurations at
fixed (n, d) rungs.  Each repeat builds a fresh matroid and runs the stages
in that order, so ``flats`` is timed on its first call and the later stages
find the flats and connectivity cached.  A run records each stage's median
over its REPEATS repeats.  A stage call that overruns TIMEOUT seconds is
recorded as a timeout, and the rung's remaining calls are skipped.

``--src`` picks the ``coamoeba`` sources to time, so a second checkout can
be timed into another column of the same file.  Naming a column again adds
a run to it, and the column's summary is each stage's median over its runs:
runs of the two columns in alternation even out a machine whose speed
drifts.  The file keeps each rung's seed and its counts (bases, flats,
complete and non-splitting flags, cones, nondefectivity); a run whose
counts differ from the file's is refused.  Only the stdlib and the library
are used.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import random
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNGS = ((8, 3), (9, 3), (10, 4), (10, 5), (12, 4), (12, 6))
REPEATS = 3
TIMEOUT = 30.0
STAGES = (
    "Matroid", "flats", "flacets", "complete_flags", "non_splitting_flags",
    "maximal_cones", "nondefective",
)
# the counts each rung records, besides its bases, and the stages giving them
COUNTED = (
    ("flats", "flats"), ("complete_flags", "complete_flags"),
    ("non_splitting_flags", "non_splitting_flags"), ("cones", "maximal_cones"),
)


class StageTimeout(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise StageTimeout in this thread once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise StageTimeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def random_zero_sum(rng: random.Random, n: int, d: int, lib):
    """A connected matroid of n - 1 rows with entries in [-2, 2] and minus
    their sum, redrawn until nonzero, spanning and connected."""
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n - 1)]
        rows.append([-sum(col) for col in zip(*rows)])
        if any(not any(r) for r in rows):
            continue
        config = lib.VectorConfiguration.from_rows(rows)
        try:
            m = lib.Matroid(config)
        except lib.NotSpanning:
            continue
        if m.is_connected():
            return config


def rungs(lib) -> list[dict]:
    out = [
        {"name": name, "seed": None, "config": make()}
        for name, make in (
            ("line_b", lib.line_b), ("plane_b", lib.plane_b), ("sixline_b", lib.sixline_b)
        )
    ]
    for n, d in RUNGS:
        seed = f"ladder/{n},{d}"
        config = random_zero_sum(random.Random(seed), n, d, lib)
        out.append({"name": f"({n},{d})", "seed": seed, "config": config})
    return out


def stage_calls(lib, config):
    """The stages in order, each a function of the matroid built so far."""
    return (
        ("Matroid", lambda m: lib.Matroid(config)),
        ("flats", lambda m: m.flats()),
        ("flacets", lambda m: m.flacets()),
        ("complete_flags", lambda m: lib.complete_flags(m)),
        ("non_splitting_flags", lambda m: lib.non_splitting_flags(m)),
        ("maximal_cones", lambda m: lib.maximal_cones(m)),
        ("nondefective", lambda m: lib.nondefective(m)),
    )


def time_rung(lib, config) -> tuple[dict, dict]:
    """Each stage's median seconds, or "timeout" or "skipped", and the counts
    the stages found."""
    times: dict[str, list[float]] = {name: [] for name in STAGES}
    results: dict[str, object] = {}
    timed_out = None
    for _ in range(REPEATS):
        m = None
        for name, call in stage_calls(lib, config):
            start = time.perf_counter()
            try:
                with deadline(TIMEOUT):
                    value = call(m)
            except StageTimeout:
                timed_out = name
                break
            times[name].append(time.perf_counter() - start)
            results[name] = value
            m = value if name == "Matroid" else m
        if timed_out:
            break
    stages = {}
    for name in STAGES:
        if name == timed_out:
            stages[name] = "timeout"
        else:
            stages[name] = statistics.median(times[name]) if times[name] else "skipped"
    m = results.get("Matroid")
    counts = {"bases": len(m.bases) if m else None}
    for key, name in COUNTED:
        counts[key] = len(results[name]) if name in results else None
    counts["nondefective"] = results.get("nondefective")
    return stages, counts


def summary(runs: list[dict]) -> dict:
    """Per rung and stage, the median over runs of the runs' medians, and how
    many runs timed out there."""
    out = {}
    for name, stages in runs[-1]["rungs"].items():
        out[name] = {}
        for stage in stages:
            values = [run["rungs"][name][stage] for run in runs]
            seconds = [v for v in values if isinstance(v, float)]
            out[name][stage] = {
                "median_s": statistics.median(seconds) if seconds else None,
                "runs": len(seconds),
                "timeouts": values.count("timeout"),
            }
    return out


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            names = [line.split(":", 1)[1].strip() for line in f if line.startswith("model name")]
        cpu = names[0] if names else cpu
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": importlib.metadata.version("numpy"),
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def load_library(src: str):
    sys.path.insert(0, os.path.abspath(src))
    import coamoeba.catalog as catalog
    import coamoeba.configuration as configuration
    import coamoeba.discriminant as discriminant
    import coamoeba.errors as errors
    import coamoeba.matroid as matroid
    import coamoeba.tropical as tropical

    if not os.path.abspath(matroid.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"coamoeba was imported from {matroid.__file__}, not from {src}")
    return argparse.Namespace(
        Matroid=matroid.Matroid,
        VectorConfiguration=configuration.VectorConfiguration,
        NotSpanning=errors.NotSpanning,
        line_b=catalog.line_b,
        plane_b=catalog.plane_b,
        sixline_b=catalog.sixline_b,
        complete_flags=tropical.complete_flags,
        maximal_cones=tropical.maximal_cones,
        non_splitting_flags=discriminant.non_splitting_flags,
        nondefective=discriminant.nondefective,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--column", required=True, help="name of this checkout's column")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="coamoeba sources")
    parser.add_argument("--out", required=True, help="JSON file to add the column to")
    args = parser.parse_args(argv)
    lib = load_library(args.src)
    try:
        with open(args.out) as f:
            report = json.load(f)
    except FileNotFoundError:
        report = {"script": "bench/ladder.py", "stages": list(STAGES), "rungs": {}, "columns": {}}
    run = {}
    for rung in rungs(lib):
        config = rung["config"]
        stages, counts = time_rung(lib, config)
        known = report["rungs"].setdefault(
            rung["name"], {"n": config.n, "d": config.d, "seed": rung["seed"], "counts": counts}
        )
        # a timed-out stage counts nothing (None); every other count must agree
        for key, value in counts.items():
            if value is None:
                continue
            if known["counts"].get(key) is None:
                known["counts"][key] = value
            elif known["counts"][key] != value:
                print(f"{rung['name']}: {key} {value} differs from {known['counts'][key]}",
                      file=sys.stderr)
                return 1
        run[rung["name"]] = stages
        line = ", ".join(
            f"{name} {v:.4f}" if isinstance(v, float) else f"{name} {v}"
            for name, v in stages.items()
        )
        print(f"{rung['name']}: {line}", file=sys.stderr)
    column = report["columns"].setdefault(args.column, {"runs": []})
    column["runs"].append(
        {"repeats": REPEATS, "timeout_s": TIMEOUT, "environment": environment(),
         "rungs": run}
    )
    column["rungs"] = summary(column["runs"])
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
