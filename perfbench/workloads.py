"""The workloads: inputs chosen by the seed, timed items, and their checks.

An item is one timed call into the program.  ``run`` makes the call,
``observe`` turns its raw output into a small JSON-able record after the
pass, and the record is compared with the reference recorded at the seed
commit (``reference.json``).  Dict references are compared field by field
and extra observed fields are ignored, so additive output changes are not
errors.

fan     CLI matroid-info / fine-cones / tdiscr-rays / nondefective on the
        catalog and one random configuration per rung (7,4) and (7,5):
        the exact combinatorics (rank, closure, flats, flags, cones).  At
        the seed commit the four subcommands take about 25 s on one (9,5)
        configuration, too long to repeat within a run; n = 7 keeps a pass
        short enough for several repeats, and (7,5) keeps d = 5.
verify  CLI gale + verify on six-line and the plane, and
        conjecture_experiment_d3 on four random nondefective (9,3)
        configurations with nine prisms each, spread over the range of
        total cycle degree: sampling and float membership, plus exact
        certification.  The seed picks the sampling seed of the two CLI
        runs; each random configuration samples with its pool index.
member  one-point membership queries (contains2_exact, contains2,
        contains_pls3) on cycles and prisms built during set-up, at points
        the seed draws from fixed pools.

The random configurations of verify and member are fixed pool members, and
verify samples them with fixed seeds, so that only the seed's CLI samples
and query points vary between runs: at the seed commit the membership cost
per sample of a (9,3) configuration varies about threefold across the
candidates, and the cost of 150 samples varies visibly with their seed,
either of which would otherwise dominate the run-to-run spread.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import inputs

FAN_SUBCOMMANDS = ("matroid-info", "fine-cones", "tdiscr-rays", "nondefective")
FAN_RUNGS = ("n7d4", "n7d5")

VERIFY_GRID = 100  # exact certification points per configuration
VERIFY_SAMPLES = {"sixline": 400, "plane": 200}
D3_SAMPLES = 150  # samples per random (9,3) configuration
SAMPLE_TOL = 1e-6
SIXLINE_POLY = "p q r\n{}\n"
PLANE_POLY = "x y z\nx+y+z+1\n"

MEMBER_POINTS2 = 150  # rational points per planar cycle
MEMBER_POINTS3 = 600  # angle triples per prism set
FOUR_VECTOR_ROWS = [[3, 0], [0, 1], [-1, -2], [-2, 1]]  # criterion-7 cycle

SAMPLE_FIELDS = ("n_valid", "inside_fraction", "max_boundary_distance")
TOLERANCES = {"max_boundary_distance": 1e-9}


@dataclass
class Item:
    label: str
    run: Callable[[], Any]
    observe: Callable[[Any], Any]
    expected: Any = None
    outputs: tuple[str, ...] = field(default=())


def compare(observed, expected) -> str | None:
    """None when ``observed`` matches the reference, else what differs."""
    if expected is None:
        return "no reference recorded"
    if not isinstance(expected, dict):
        return None if observed == expected else f"{observed!r} != {expected!r}"
    if not isinstance(observed, dict):
        return f"got {observed!r}"
    for key, want in expected.items():
        if key not in observed:
            return f"missing field {key}"
        got = observed[key]
        if key in TOLERANCES:
            ok = isinstance(got, (int, float)) and abs(got - want) <= TOLERANCES[key]
        else:
            ok = got == want
        if not ok:
            return f"field {key}: {got!r} != {want!r}"
    return None


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def pool_rows(lib, rung, index, refs, rejections):
    """Generate pool member ``index`` and check it against its recorded digest."""
    rows = inputs.generate(lib, rung, index, rejections)
    key = f"{rung}/{index}"
    if refs is not None and refs["digests"].get(key) != inputs.rows_digest(rows):
        raise RuntimeError(f"generated input {key} differs from the recorded one")
    return rows


# -- fan --------------------------------------------------------------------------


def _cli_fields(rc: int, path: str) -> dict:
    """Field digests of a CLI JSON output, provenance.version left out."""
    if rc != 0:
        return {"exit_code": rc}
    observed = {"exit_code": rc}
    for key, value in _read_json(path).items():
        if key == "provenance":
            for pkey, pvalue in value.items():
                if pkey != "version":
                    observed[f"provenance.{pkey}"] = _digest(pvalue)
        else:
            observed[key] = _digest(value)
    return observed


def fan_items(lib, workdir, configs, refs) -> list[Item]:
    """Every fan subcommand on every (name, rows) configuration."""
    expected = refs["fan"] if refs is not None else {}
    items = []
    for name, rows, labels in configs:
        path = _write(
            os.path.join(workdir, name.replace("/", "_") + ".json"),
            inputs.config_json("B", rows, labels),
        )
        for sub in FAN_SUBCOMMANDS:
            label = f"{name}/{sub}"
            out = os.path.join(workdir, label.replace("/", "_") + ".out.json")
            argv = [sub, path, "-o", out]
            items.append(
                Item(
                    label=label,
                    run=lambda argv=argv: lib.cli.main(argv),
                    observe=lambda rc, out=out: _cli_fields(rc, out),
                    expected=expected.get(label),
                    outputs=(out,),
                )
            )
    return items


def fan_catalog(lib):
    cat = lib.catalog
    return [
        (name, [list(r) for r in b.matrix], list(b.labels))
        for name, b in (
            ("sixline_b", cat.sixline_b()),
            ("plane_b", cat.plane_b()),
            ("hyperplane_b4", cat.hyperplane_b(4)),
        )
    ]


def setup_fan(lib, seed, refs, workdir, rejections):
    rng = random.Random(seed)
    configs = fan_catalog(lib)
    for rung in FAN_RUNGS:
        index = rng.choice(refs["fan_pool"][rung])
        configs.append((f"{rung}/{index}", pool_rows(lib, rung, index, refs, rejections), None))
    return fan_items(lib, workdir, configs, refs)


# -- verify -------------------------------------------------------------------------


def _verify_fields(rcs, b_path, out_path) -> dict:
    rc_gale, rc_verify = rcs
    observed = {"exit_code": [rc_gale, rc_verify]}
    if rc_gale == 0:
        gale = _read_json(b_path)
        observed["gale.matrix"] = gale["matrix"]
        observed["gale.labels"] = gale["labels"]
    if rc_verify == 0:
        payload = _read_json(out_path)
        for key, value in payload["certification"].items():
            observed[f"certification.{key}"] = value
        experiment = payload.get("prism_experiment", {})
        observed.update({k: experiment[k] for k in SAMPLE_FIELDS if k in experiment})
    return observed


def _report_fields(report) -> dict:
    return {k: getattr(report, k) for k in SAMPLE_FIELDS}


def verify_items(lib, workdir, d3_configs, sample_seed, refs) -> list[Item]:
    """CLI verify on six-line and the plane, sampling with ``sample_seed``,
    and the prism experiment on each (name, rows, seed) random configuration,
    sampling with its own seed."""
    recorded = refs["verify"] if refs is not None else {}

    def expected(label, seed):
        return recorded.get(label, {}).get(str(seed))

    cat = lib.catalog
    catalog = (
        ("sixline", cat.sixline_a(), SIXLINE_POLY.format(cat.SIXLINE_DISCRIMINANT_TEXT)),
        ("plane", cat.hyperplane_a(3), PLANE_POLY),
    )
    items = []
    for name, a, poly in catalog:
        a_path = _write(
            os.path.join(workdir, f"{name}_A.json"),
            inputs.config_json("A", a.matrix, a.labels),
        )
        poly_path = _write(os.path.join(workdir, f"{name}.poly"), poly)
        b_path = os.path.join(workdir, f"{name}_B.json")
        out = os.path.join(workdir, f"{name}.verify.json")
        gale = ["gale", a_path, "-o", b_path]
        verify = [
            "verify", b_path, "--poly", poly_path, "-n", str(VERIFY_GRID),
            "--samples", str(VERIFY_SAMPLES[name]), "--seed", str(sample_seed),
            "-o", out,
        ]
        items.append(
            Item(
                label=name,
                run=lambda g=gale, v=verify: (lib.cli.main(g), lib.cli.main(v)),
                observe=lambda rcs, b=b_path, o=out: _verify_fields(rcs, b, o),
                expected=expected(name, sample_seed),
                outputs=(b_path, out),
            )
        )
    for name, rows, seed in d3_configs:
        config = lib.configuration.VectorConfiguration.from_rows(rows)

        def run(config=config, seed=seed):
            m = lib.matroid.Matroid(config)
            return lib.harness.conjecture_experiment_d3(
                m, D3_SAMPLES, tol=SAMPLE_TOL, seed=seed
            )

        items.append(
            Item(label=name, run=run, observe=_report_fields, expected=expected(name, seed))
        )
    return items


def setup_verify(lib, seed, refs, workdir, rejections):
    sample_seed = random.Random(seed).randrange(inputs.SAMPLE_SEEDS)
    configs = [
        (f"n9d3/{index}", pool_rows(lib, "n9d3", index, refs, rejections), index)
        for index in refs["verify_configs"]
    ]
    return verify_items(lib, workdir, configs, sample_seed, refs)


# -- member -------------------------------------------------------------------------


def flat_name(m, flat) -> str:
    return "-".join(m.labels_of(flat.forms))


def member_targets(lib, d3_configs):
    """Planar cycles and prism sets the queries run against.

    Returns (cycles, prism_sets) as lists of (name, object).
    """
    cycles_mod, vc = lib.cycles, lib.configuration.VectorConfiguration
    cycles = [
        ("line_b", cycles_mod.build_cycle(lib.catalog.line_b())),
        ("four_vector", cycles_mod.build_cycle(vc.from_rows(FOUR_VECTOR_ROWS))),
    ]
    prism_sets = [
        ("sixline_b", cycles_mod.prisms_d3(lib.matroid.Matroid(lib.catalog.sixline_b())))
    ]
    for name, rows in d3_configs:
        m = lib.matroid.Matroid(vc.from_rows(rows))
        prisms = cycles_mod.prisms_d3(m)
        for prism in prisms:
            cycles.append((f"{name}/{flat_name(m, prism.hyperplane_flat)}", prism.base))
        prism_sets.append((name, prisms))
    return cycles, prism_sets


def bit(hexbits: str | None, index: int):
    return None if hexbits is None else bool((int(hexbits, 16) >> index) & 1)


def member_items(lib, cycles, prism_sets, points2, points3, refs) -> list[Item]:
    """``points2``/``points3``: (pool index, point) pairs to query."""
    expected = refs["member"] if refs is not None else {}
    cy = lib.cycles
    items = []
    for name, cycle in cycles:
        exact_bits = expected.get(f"{name}/exact")
        float_bits = expected.get(f"{name}/float")
        for index, (u, v) in points2:
            radians = (float(u) * math.pi, float(v) * math.pi)
            items.append(
                Item(
                    label=f"{name}/exact/{index}",
                    run=lambda c=cycle, p=(u, v): cy.contains2_exact(c, p),
                    observe=bool,
                    expected=bit(exact_bits, index),
                )
            )
            items.append(
                Item(
                    label=f"{name}/float/{index}",
                    run=lambda c=cycle, p=radians: cy.contains2(c, p),
                    observe=bool,
                    expected=bit(float_bits, index),
                )
            )
    for name, prisms in prism_sets:
        bits = expected.get(f"{name}/pls3")
        for index, theta in points3:
            items.append(
                Item(
                    label=f"{name}/pls3/{index}",
                    run=lambda ps=prisms, t=theta: cy.contains_pls3(ps, t),
                    observe=lambda found_witness: bool(found_witness[0]),
                    expected=bit(bits, index),
                )
            )
    return items


def setup_member(lib, seed, refs, workdir, rejections):
    rng = random.Random(seed)
    index = refs["member_config"]
    rows = pool_rows(lib, "n9d3", index, refs, rejections)
    cycles, prism_sets = member_targets(lib, [(f"n9d3/{index}", rows)])
    pool2, pool3 = inputs.points2_pool(), inputs.points3_pool()
    points2 = [(i, pool2[i]) for i in sorted(rng.sample(range(len(pool2)), MEMBER_POINTS2))]
    points3 = [(i, pool3[i]) for i in sorted(rng.sample(range(len(pool3)), MEMBER_POINTS3))]
    return member_items(lib, cycles, prism_sets, points2, points3, refs)


SETUPS = {"fan": setup_fan, "verify": setup_verify, "member": setup_member}
