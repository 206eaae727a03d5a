"""Summarize finished benchmark runs into a baseline file.

    for s in $(seq 101 110); do
        python3 perfbench/run.py --workload example1 --seed $s --seconds 30 --trace 0
    done
    python3 perfbench/run.py --workload example1 --seed 101 --seconds 30 --trace 1
    python3 perfbench/baseline.py --seeds 101-110 --out perfbench/baseline.json

Reads the records ``run.py`` left under ``.perfbench_work`` for each workload
of ``BENCHMARK.json`` and the given seeds.  For every end-to-end metric it
writes the ten run values, their median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread as
a share of the median; for every per-layer metric the values of the traced
runs found.  A later change is compared against these numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(workload: str, seed: int, trace: int):
    path = run.WORKDIR / f"{workload}-seed{seed}-trace{trace}" / "result.json"
    return json.loads(path.read_text()) if path.exists() else None


def summarize_workload(workload: str, seeds: list) -> dict:
    records = [r for r in (load(workload, s, 0) for s in seeds) if r]
    traced = [r for r in (load(workload, s, 1) for s in seeds) if r]
    e2e = {}
    for name, unit in {**run.END_TO_END, **run.END_TO_END_INFO}.items():
        vals = [r["metrics"][name]["value"] for r in records if name in r["metrics"]]
        if not vals:
            continue
        med = statistics.median(vals)
        entry = {"unit": unit, "values": vals, "median": med}
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
        e2e[name] = entry
    layers = {name: {"unit": unit, "values": [r["layers"][name]["value"] for r in traced
                                              if name in r["layers"]]}
              for name, unit in {**run.PER_LAYER, **run.PER_LAYER_INFO}.items()}
    env = records[0]["environment"] if records else None
    if env:
        env["config"].pop("out", None)  # a path of the machine that ran it
    return {
        "seeds": [r["seed"] for r in records],
        "traced_seeds": [r["seed"] for r in traced],
        "attempted": sum(r["attempted"] for r in records + traced),
        "failed": sum(r["failed"] for r in records + traced),
        "solution_sha256": sorted({o.get("solution_sha256") for r in records
                                   for o in r["outputs"]}),
        "end_to_end": e2e,
        "per_layer": layers,
        "environment": env,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 101-110")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    doc = {w["name"]: summarize_workload(w["name"], seeds) for w in bench["workloads"]}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for workload, summary in doc.items():
        print(f"{workload}: {len(summary['seeds'])} runs, {summary['failed']} failed")
        for name, entry in summary["end_to_end"].items():
            spread = entry.get("spread")
            print(f"  {name:14s} median {entry['median']:.6g} {entry['unit']:5s}"
                  f" spread {spread if spread is None else round(spread, 4)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
