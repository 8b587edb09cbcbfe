"""Ladder benchmark of the matroid and prism stages, one column per checkout.

    python3 bench/ladder.py --column change --out BENCH.json
    python3 bench/ladder.py --column parent --src ../parent/src --out BENCH.json

Times the library stages of ``stage_calls``, in its order, on the catalog
configurations and on seeded random zero-sum configurations at fixed
(n, d) rungs; ``tdiscr_rays`` calls ``tdiscr_fan_d3`` on d = 3 rungs.  The
PRISM_STAGES, the d = 3 prism experiment (SAMPLES samples, seed 0,
distances at tolerance TOL), run only on the nondefective d = 3 rungs, and
``certify``, ``certify_discriminant`` of the six-line discriminant on
CERTIFY_GRID grid points (the exact certification of ``verify``), only on
``sixline_b``; other rungs record "n/a" for them.
Each repeat builds a fresh matroid and runs the stages in that order, so
the later stages find the flats and connectivity cached.  A stage is timed
over repeated calls until they take MIN_TIME seconds in all, and a repeat
records the seconds per call and the call count.  The stages in FRESH,
which cache their result on the matroid, call a fresh matroid each time
after the first, with the stages before them run untimed, so every call
sees the caches the first one saw; the others repeat on the same matroid.
A run records each stage's median over its REPEATS repeats, and its call
counts.  A stage whose calls overrun TIMEOUT seconds is recorded as a
timeout, and the rung's remaining calls are skipped.

The machine's speed drifts between and within runs, so perfbench's own
speed probe (``probe_scale`` and ``PROBE_REF_S``, imported from
``perfbench/run.py``) is run before a rung and after each of its stage
timings, and each stage time is also recorded scaled by the mean of the
probe's scales just before and just after it, as ``perfbench/run.py``
scales its items: a scaled time reads as seconds at the speed at which the
probe's fixed stdlib kernel takes PROBE_REF_S.  A run keeps the raw medians
under "rungs" and the scaled ones under "scaled".

``--src`` picks the ``coamoeba`` sources to time, so a second checkout can
be timed into another column of the same file.  Naming a column again adds
a run to it, and the column's summary is each stage's median over its runs:
runs of the two columns in alternation even out a machine whose speed
drifts.  The file keeps each rung's seed and its counts (bases, flats,
complete and non-splitting flags, cones, nondefectivity, tropical
discriminant rays, prisms, and the certification's residue, roundtrip and
singular-skip counts); a run whose counts differ from the file's is
refused.  Only the stdlib, the library and ``perfbench/run.py`` are used.
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
# perfbench's speed probe, so the scaled times of both read at one speed;
# run.py imports no coamoeba, so --src alone picks the sources timed
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import PROBE_REF_S, probe_scale  # noqa: E402

RUNGS = ((8, 3), (9, 3), (10, 4), (10, 5), (12, 4), (12, 6))
REPEATS = 3
MIN_TIME = 0.05
TIMEOUT = 30.0
SAMPLES = 150
TOL = 1e-6
CERTIFY_GRID = 100
# the stages whose calls each get a fresh matroid: they cache their result on it
FRESH = ("flats", "flacets")
# the counts each rung records, besides its bases, and the stages giving them
COUNTED = (
    ("flats", "flats"), ("complete_flags", "complete_flags"),
    ("non_splitting_flags", "non_splitting_flags"), ("cones", "maximal_cones"),
    ("rays", "tdiscr_rays"), ("prisms", "prisms_d3"),
)
# the counts of the certify stage's report
CERTIFY_COUNTS = ("residue_checked", "roundtrip_checked", "roundtrip_singular_skipped")


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
        except lib.errors.NotSpanning:
            continue
        if m.is_connected():
            return config


def rungs(lib) -> list[dict]:
    """Each rung's name, seed, configuration and the polynomial its certify
    stage certifies (None: no certify stage)."""
    out = [
        {"name": name, "seed": None, "config": make(), "poly": poly}
        for name, make, poly in (
            ("line_b", lib.catalog.line_b, None), ("plane_b", lib.catalog.plane_b, None),
            ("sixline_b", lib.catalog.sixline_b, lib.catalog.sixline_discriminant()),
        )
    ]
    for n, d in RUNGS:
        seed = f"ladder/{n},{d}"
        config = random_zero_sum(random.Random(seed), n, d, lib)
        out.append({"name": f"({n},{d})", "seed": seed, "config": config, "poly": None})
    return out


def stage_calls(lib, config, poly):
    """The stages in order, each a function of the earlier stages' results
    by name."""
    return (
        ("Matroid", lambda r: lib.Matroid(config)),
        ("flats", lambda r: r["Matroid"].flats()),
        ("flacets", lambda r: r["Matroid"].flacets()),
        ("complete_flags", lambda r: lib.complete_flags(r["Matroid"])),
        ("non_splitting_flags", lambda r: lib.non_splitting_flags(r["Matroid"])),
        ("maximal_cones", lambda r: lib.maximal_cones(r["Matroid"])),
        ("nondefective", lambda r: lib.nondefective(r["Matroid"])),
        ("tdiscr_rays", lambda r: (
            lib.tdiscr_fan_d3 if config.d == 3 else lib.tdiscr_rays)(r["Matroid"])),
        ("certify", lambda r: lib.certify_discriminant(poly, r["Matroid"], CERTIFY_GRID)),
        ("prisms_d3", lambda r: lib.prisms_d3(r["Matroid"])),
        ("sample_coamoeba", lambda r: lib.sample_coamoeba(r["Matroid"], SAMPLES, 0)),
        ("pls3_distances", lambda r: lib.cycles.pls3_distances(
            r["prisms_d3"], r["sample_coamoeba"], TOL)),
    )


# the stage names in order, read off the table
STAGES = tuple(name for name, _ in stage_calls(None, None, None))
# the stages that run only on nondefective d = 3 rungs
PRISM_STAGES = STAGES[-3:]


def time_stage(calls, k: int, run: dict) -> tuple[object, float, int]:
    """Stage k's result on ``run``, its seconds per call and the call count.

    Calls repeat until they take MIN_TIME seconds in all; after the first, a
    stage in FRESH calls a fresh matroid with the stages before it run
    untimed, and any other stage calls ``run`` again."""
    name, call = calls[k]
    args, total, count = run, 0.0, 0
    with deadline(TIMEOUT):
        while count == 0 or total < MIN_TIME:
            if count and name in FRESH:
                args = {}
                for earlier, setup in calls[:k]:
                    args[earlier] = setup(args)
            start = time.perf_counter()
            value = call(args)
            total += time.perf_counter() - start
            if not count:
                result = value
            count += 1
    return result, total / count, count


def time_rung(lib, config, poly) -> tuple[dict, dict, dict, dict]:
    """Each stage's median seconds per call, raw and scaled by the probe, or
    "timeout", "skipped" or "n/a"; the timed stages' median call counts; and
    the counts the stages found."""
    times: dict[str, list[float]] = {name: [] for name in STAGES}
    scaled: dict[str, list[float]] = {name: [] for name in STAGES}
    made: dict[str, list[int]] = {name: [] for name in STAGES}
    results: dict[str, object] = {}
    timed_out = None
    calls = stage_calls(lib, config, poly)
    scale = probe_scale()
    for _ in range(REPEATS):
        run: dict[str, object] = {}
        for k, (name, _) in enumerate(calls):
            if name == "certify" and poly is None:
                continue
            if name in PRISM_STAGES and (config.d != 3 or not run["nondefective"]):
                break
            try:
                run[name], seconds, count = time_stage(calls, k, run)
            except StageTimeout:
                timed_out = name
                break
            before, scale = scale, probe_scale()
            times[name].append(seconds)
            scaled[name].append(seconds * (before + scale) / 2)
            made[name].append(count)
        results.update(run)
        if timed_out:
            break
    no_prisms = config.d != 3 or results.get("nondefective") is False
    stages, scaled_stages = {}, {}
    for name in STAGES:
        if name == timed_out:
            stages[name] = scaled_stages[name] = "timeout"
        elif name in PRISM_STAGES and no_prisms or name == "certify" and poly is None:
            stages[name] = scaled_stages[name] = "n/a"
        elif not times[name]:
            stages[name] = scaled_stages[name] = "skipped"
        else:
            stages[name] = statistics.median(times[name])
            scaled_stages[name] = statistics.median(scaled[name])
    m = results.get("Matroid")
    counts = {"bases": len(m.bases) if m else None}
    for key, name in COUNTED:
        counts[key] = len(results[name]) if name in results else None
    counts["nondefective"] = results.get("nondefective")
    counts["prisms"] = "n/a" if stages["prisms_d3"] == "n/a" else counts["prisms"]
    report = results.get("certify", {})
    for key in CERTIFY_COUNTS:
        counts[key] = "n/a" if stages["certify"] == "n/a" else report.get(key)
    calls_made = {name: statistics.median_low(c) for name, c in made.items() if c}
    return stages, scaled_stages, calls_made, counts


def summary(runs: list[dict], key: str) -> dict:
    """Per rung and stage, the median over the runs holding ``key`` of their
    medians there, and how many of them timed out there."""
    runs = [run for run in runs if key in run]
    out = {}
    for name, stages in runs[-1][key].items():
        out[name] = {}
        for stage in stages:
            values = [run[key][name][stage] for run in runs]
            if set(values) == {"n/a"}:
                out[name][stage] = "n/a"
                continue
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
    """The ``coamoeba`` package imported from ``src``, its catalog loaded."""
    sys.path.insert(0, os.path.abspath(src))
    import coamoeba.catalog

    if not os.path.abspath(coamoeba.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"coamoeba was imported from {coamoeba.__file__}, not from {src}")
    return coamoeba


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
    run, scaled, calls_made = {}, {}, {}
    for rung in rungs(lib):
        config = rung["config"]
        stages, scaled[rung["name"]], calls_made[rung["name"]], counts = time_rung(
            lib, config, rung["poly"]
        )
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
            f"{name} {v:.4f}/{scaled[rung['name']][name]:.4f}" if isinstance(v, float)
            else f"{name} {v}"
            for name, v in stages.items()
        )
        print(f"{rung['name']}: {line}", file=sys.stderr)
    column = report["columns"].setdefault(args.column, {"runs": []})
    column["runs"].append(
        {"repeats": REPEATS, "min_time_s": MIN_TIME, "timeout_s": TIMEOUT,
         "probe_ref_s": PROBE_REF_S, "environment": environment(), "rungs": run,
         "scaled": scaled, "calls": calls_made}
    )
    column["rungs"] = summary(column["runs"], "rungs")
    column["scaled"] = summary(column["runs"], "scaled")
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
