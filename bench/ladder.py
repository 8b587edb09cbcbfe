"""Ladder benchmark of the matroid and prism stages, one column per checkout.

    python3 bench/ladder.py --column change --out BENCH.json
    python3 bench/ladder.py --column parent --src ../parent/src --out BENCH.json

Times ``Matroid()``, ``flats``, ``flacets``, ``complete_flags``,
``non_splitting_flags``, ``maximal_cones``, ``nondefective`` and
``tdiscr_rays`` (``tdiscr_fan_d3`` on d = 3 rungs, ``tdiscr_rays``
elsewhere) on the catalog configurations and on seeded random zero-sum
configurations at fixed (n, d) rungs, and on the nondefective d = 3 rungs
also ``prisms_d3``, ``sample_coamoeba`` (SAMPLES points, seed 0) and
``pls3_distances`` of those samples (tolerance TOL), the stages of the
d = 3 prism experiment; other rungs record "n/a" for these.  On ``sixline_b`` it also times ``certify``,
``certify_discriminant`` of the six-line discriminant on CERTIFY_GRID grid
points, the exact certification of ``verify``; other rungs record "n/a".
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

The machine's speed drifts between and within runs, so a fixed stdlib
kernel (``probe_kernel``) is timed before a rung and after each of its
stage timings, and each stage time is also recorded scaled by PROBE_REF_S
over the mean of the kernel's times just before and just after it, as
``perfbench/run.py`` scales its items: a scaled time reads as seconds at the
speed at which the kernel takes PROBE_REF_S.  A run keeps the raw medians
under "rungs" and the scaled ones under "scaled".

``--src`` picks the ``coamoeba`` sources to time, so a second checkout can
be timed into another column of the same file.  Naming a column again adds
a run to it, and the column's summary is each stage's median over its runs:
runs of the two columns in alternation even out a machine whose speed
drifts.  The file keeps each rung's seed and its counts (bases, flats,
complete and non-splitting flags, cones, nondefectivity, tropical
discriminant rays, prisms, and the certification's residue, roundtrip and
singular-skip counts); a run whose counts differ from the file's is
refused.  Only the stdlib and the library are used.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import math
import os
import platform
import random
import signal
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNGS = ((8, 3), (9, 3), (10, 4), (10, 5), (12, 4), (12, 6))
REPEATS = 3
MIN_TIME = 0.05
TIMEOUT = 30.0
SAMPLES = 150
TOL = 1e-6
CERTIFY_GRID = 100
# the kernel and its reference time are perfbench/run.py's, so the scaled
# times of both read at one speed; on a 2-vCPU Intel Xeon VM under Python
# 3.11 the kernel's best of three took 2.26 to 6.2 ms over 800 probes
PROBE_REF_S = 0.0021
STAGES = (
    "Matroid", "flats", "flacets", "complete_flags", "non_splitting_flags",
    "maximal_cones", "nondefective", "tdiscr_rays", "certify",
    "prisms_d3", "sample_coamoeba", "pls3_distances",
)
# the stages that run only on nondefective d = 3 rungs
PRISM_STAGES = STAGES[-3:]
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
        except lib.NotSpanning:
            continue
        if m.is_connected():
            return config


def rungs(lib) -> list[dict]:
    """Each rung's name, seed, configuration and the polynomial its certify
    stage certifies (None: no certify stage)."""
    out = [
        {"name": name, "seed": None, "config": make(), "poly": poly}
        for name, make, poly in (
            ("line_b", lib.line_b, None), ("plane_b", lib.plane_b, None),
            ("sixline_b", lib.sixline_b, lib.sixline_discriminant()),
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
        ("pls3_distances", lambda r: lib.pls3_distances(
            r["prisms_d3"], r["sample_coamoeba"], TOL)),
    )


def probe_kernel() -> None:
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
    """PROBE_REF_S over the probe kernel's best time of three runs now."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        probe_kernel()
        best = min(best, time.perf_counter() - start)
    return PROBE_REF_S / best


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
    sys.path.insert(0, os.path.abspath(src))
    import coamoeba.catalog as catalog
    import coamoeba.configuration as configuration
    import coamoeba.cycles as cycles
    import coamoeba.discriminant as discriminant
    import coamoeba.errors as errors
    import coamoeba.harness as harness
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
        sixline_discriminant=catalog.sixline_discriminant,
        certify_discriminant=harness.certify_discriminant,
        complete_flags=tropical.complete_flags,
        maximal_cones=tropical.maximal_cones,
        non_splitting_flags=discriminant.non_splitting_flags,
        nondefective=discriminant.nondefective,
        tdiscr_rays=discriminant.tdiscr_rays,
        tdiscr_fan_d3=discriminant.tdiscr_fan_d3,
        prisms_d3=cycles.prisms_d3,
        sample_coamoeba=harness.sample_coamoeba,
        pls3_distances=cycles.pls3_distances,
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
