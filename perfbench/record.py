"""Record the reference outputs that run.py checks against.

    python3 perfbench/record.py

Run once, from the repository root, at the commit whose outputs are the
reference.  It runs every fan subcommand on every fan pool member, the
verify CLI items with every sampling seed, and every member query on the
whole point pools, and writes ``perfbench/reference.json``.  It also picks
each fan pool from the candidates with the median number of flats, and
from the (9,3) candidates with nine prisms, sorted by total cycle degree,
the four verify configurations (at the 1/8, 3/8, 5/8 and 7/8 positions)
and the member configuration (the median).
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import inputs
import run
import workloads


def member_bits(items, values) -> dict:
    """Answers packed per (target, query kind) as hex over the pool index."""
    packed: dict[str, int] = {}
    for item, value in zip(items, values):
        target, index = item.label.rsplit("/", 1)
        packed[target] = packed.get(target, 0) | (int(value) << int(index))
    return {k: format(v, "x") for k, v in packed.items()}


def observe_all(items) -> list:
    return [item.observe(item.run()) for item in items]


def main() -> int:
    sys.path.insert(0, run.SRC)
    lib = run.import_library()
    workdir = os.path.join(run.OUT, "record")
    os.makedirs(workdir, exist_ok=True)
    rejections = inputs.Rejections()
    refs = {"commit": run.git_commit(), "digests": {}}

    def pool(rung, size):
        out = {}
        for index in range(size):
            rows = inputs.generate(lib, rung, index, rejections)
            refs["digests"][f"{rung}/{index}"] = inputs.rows_digest(rows)
            out[index] = rows
        return out

    vc = lib.configuration.VectorConfiguration
    try:
        fan_configs = workloads.fan_catalog(lib)
        refs["fan_pool"] = {}
        for rung in workloads.FAN_RUNGS:
            candidates = pool(rung, inputs.FAN_CANDIDATES)
            flats = {
                index: len(lib.matroid.Matroid(vc.from_rows(rows)).flats())
                for index, rows in candidates.items()
            }
            order = sorted(candidates, key=lambda i: (flats[i], i))
            start = (len(order) - inputs.FAN_POOL) // 2
            refs["fan_pool"][rung] = sorted(order[start : start + inputs.FAN_POOL])
            refs[f"{rung}_flats"] = {str(i): flats[i] for i in order}
            for index in refs["fan_pool"][rung]:
                fan_configs.append((f"{rung}/{index}", candidates[index], None))
        items = workloads.fan_items(lib, workdir, fan_configs, None)
        refs["fan"] = {i.label: obs for i, obs in zip(items, observe_all(items))}
        print(f"fan: {len(items)} items", flush=True)

        d3 = pool("n9d3", inputs.D3_CANDIDATES)
        degrees = {
            index: [
                p.base.degree
                for p in lib.cycles.prisms_d3(lib.matroid.Matroid(vc.from_rows(rows)))
            ]
            for index, rows in d3.items()
        }
        refs["n9d3_degrees"] = {str(i): degrees[i] for i in d3}
        nine = sorted(
            (i for i in d3 if len(degrees[i]) == 9), key=lambda i: (sum(degrees[i]), i)
        )
        refs["verify_configs"] = [nine[(2 * k + 1) * len(nine) // 8] for k in range(4)]
        refs["member_config"] = nine[len(nine) // 2]

        configs = [(f"n9d3/{i}", d3[i], i) for i in refs["verify_configs"]]
        refs["verify"] = {}
        for sample_seed in range(inputs.SAMPLE_SEEDS):
            extra = configs if sample_seed == 0 else []
            items = workloads.verify_items(lib, workdir, extra, sample_seed, None)
            # catalog items come first, then the random configurations
            seeds = [sample_seed] * (len(items) - len(extra)) + [c[2] for c in extra]
            for item, seed, obs in zip(items, seeds, observe_all(items)):
                refs["verify"].setdefault(item.label, {})[str(seed)] = obs
        print(f"verify: {len(refs['verify'])} items", flush=True)

        cycles, prism_sets = workloads.member_targets(
            lib, [(f"n9d3/{refs['member_config']}", d3[refs["member_config"]])]
        )
        points2 = list(enumerate(inputs.points2_pool()))
        points3 = list(enumerate(inputs.points3_pool()))
        items = workloads.member_items(lib, cycles, prism_sets, points2, points3, None)
        refs["member"] = member_bits(items, observe_all(items))
        print(f"member: {len(items)} items", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    refs["rejections"] = rejections.counts
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
