"""Benchmark of the omcontrol pipeline: solve -> rollout -> verify.

    python3 perfbench/run.py --workload example1 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  One run:

1. times fresh interpreters that import ``omcontrol.cli`` and build the
   workload's problem and basis (``setup_s``, the median of all probes), a
   block before the first pipeline, a half block before each later one and
   a block after the last, so the probes span the run;
2. runs the pipeline ``solve -> rollout -> verify`` through
   ``omcontrol.cli.main``, one fresh interpreter per pipeline (a closed
   loop with one client), until ``--seconds`` are used up, at least once,
   and reports the median of each stage over the pipelines;
3. gates every pipeline: each stage's exit status, mu/(1-alpha) from
   ``solution.json`` and the rollout value from ``trajectory.csv`` against
   the workload's references, no ``FAIL`` line in ``report.txt``, and the
   primal value re-derived from the atoms against mu (strong duality);
4. prints every metric with its unit and sample count, writes the full
   record to ``.perfbench_work/<run>/result.json`` and prints, as its last
   line, the JSON summary: the end-to-end metrics with ``--trace 0``, the
   per-layer metrics of a traced pipeline with ``--trace 1``.

The workload configs under ``perfbench/workloads`` pin every field, so the
package's defaults cannot move a workload.  Every workload runs at its
pinned initial state whatever ``--seed`` is, because the work (rounds,
pivots, verify checks) changes several-fold with y0 and timings of
different seeds would not be comparable.  ``--y0 draw`` instead draws y0
from the workload's LP state grid with ``--seed`` and records it; shift's
mu/(1-alpha) is then gated against the closed form y0, example1 on exit
status and strong duality only, and verify's ``FAIL`` verdicts and the
rollout value are reported but not gated.

``example1-onelp`` (the base grid equal to the candidate lattice: one cold
LP and a degree-8 kappa re-solve) runs here by hand but is left out of
``BENCHMARK.json``: at about 45 s a pipeline, 22 runs of it on top of
example1's would not fit the benchmark's total time budget.

A run exits 2 without a summary when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import aggregate, ancestors  # noqa: E402

CHILD = HERE / "child.py"
WORKDIR = ROOT / ".perfbench_work"
SETUP_BLOCK = 8
RUN_DEADLINE_S = 170.0
STAGES = ("solve", "rollout", "verify")
DUALITY_TOL = 1e-6

# reference: mu/(1-alpha); rollout_reference: the truncated rollout value
# as trajectory.csv prints it (6 significant digits).  "y0" stands for the
# run's own initial state (shift's closed form).
WORKLOADS = {
    "example1": {"config": "example1.cfg",
                 "reference": -10.100523408586794, "tol": 1e-6,
                 "rollout_reference": -9.90325, "rollout_tol": 1e-6},
    "example1-onelp": {"config": "example1-onelp.cfg",
                       "reference": -10.100523408586794, "tol": 1e-6,
                       "rollout_reference": -9.90325, "rollout_tol": 1e-6},
    "shift-dense": {"config": "shift-dense.cfg", "reference": "y0", "tol": 1e-9,
                    "rollout_reference": "y0", "rollout_tol": 1e-9},
}

END_TO_END = {
    "setup_s": "s", "solve_s": "s", "rollout_s": "s", "verify_s": "s",
    "pipeline_s": "s", "peak_rss_mb": "MB",
}
# Reported by every run but left out of the summary line: they are 0 or
# fixed by the inputs, so a share of their median bounds nothing.
END_TO_END_INFO = {"gap": "1", "checks_failed": "count", "fail_rate": "1"}

PER_LAYER = {
    "simplex.calls": "count", "simplex.pivots": "count",
    "simplex.solve_pivots": "count", "simplex.kappa_pivots": "count",
    "simplex.self_s": "s", "simplex.pivots_per_s": "1/s",
    "simplex.columns_priced": "count",
    "silp.rounds": "count", "silp.columns": "count", "silp.columns_added": "count",
    "silp.scan.calls": "count", "silp.scan.self_s": "s",
    "silp.points_priced": "count", "silp.points_priced_per_s": "1/s",
    "silp.assemble.self_s": "s", "silp.solve.self_s": "s",
    "silp.scans_per_round": "ratio",
    "basis.evaluate.calls": "count", "basis.evaluate.points": "count",
    "basis.evaluate.self_s": "s", "basis.evaluate.points_per_s": "1/s",
    "basis.constraint_columns.self_s": "s",
    "synthesis.minimizer.calls": "count", "synthesis.minimizer.self_s": "s",
    "synthesis.controls_searched": "count", "synthesis.rollout.steps": "count",
    "verify.value_iteration.self_s": "s", "verify.value_iteration.sweeps": "count",
    "verify.value_iteration.backups": "count", "verify.optimality.self_s": "s",
    "verify.hamiltonian_min.calls": "count", "verify.shifted_inequality.self_s": "s",
    "verify.kappa.self_s": "s",
    "model.admissible_mask.calls": "count", "model.admissible_mask.points": "count",
    "model.admissible_mask.self_s": "s",
    "silp.extend.self_s": "s",
    "cli.solve.self_s": "s", "cli.rollout.self_s": "s", "cli.verify.self_s": "s",
    "trace.overhead_s": "s",
}
# Reported by traced runs but not summarized: facts about the tracer, not
# about a layer.
PER_LAYER_INFO = {"trace.pipeline_s": "s", "trace.wrapped_calls": "count"}


class HarnessError(Exception):
    """The benchmark cannot run here at all (no package, broken set-up)."""


def median(values):
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# Processes.

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_probe(config: Path, timeout: float) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(CHILD), "setup", "--config", str(config)],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise HarnessError(f"set-up probe exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - t0


def run_pipeline(config: Path, out: Path, trace: bool, y0_seed, timeout: float) -> dict:
    """One pipeline in a fresh interpreter; the child's result, or an error record."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = out.parent / f"{out.name}.result.json"
    cmd = [sys.executable, str(CHILD), "pipeline", "--config", str(config),
           "--out", str(out), "--result", str(result_path)]
    if trace:
        cmd.append("--trace")
    if y0_seed is not None:
        cmd += ["--y0-seed", str(y0_seed)]
    with open(out.parent / f"{out.name}.log", "w") as log:
        try:
            code = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return {"error": f"pipeline exceeded {timeout:.0f} s"}
    if code != 0 or not result_path.exists():
        return {"error": f"pipeline process exited {code}; see {out.name}.log"}
    return json.loads(result_path.read_text())


# ---------------------------------------------------------------------------
# Correctness gate.

def gate(result: dict, spec: dict) -> list:
    """Reasons this pipeline failed; empty when it passed.

    At the workload's pinned y0 every check of verify must pass.  With
    ``spec["gate_checks"]`` false (a drawn y0), verify exiting 1 with FAIL
    lines is its check verdict, reported as ``checks_failed``, not a failed
    run.
    """
    if "error" in result:
        return [result["error"]]
    reasons = []
    stages, found = result["stages"], result["outputs"]
    gate_checks = spec.get("gate_checks", True)
    for stage in STAGES:
        rec = stages.get(stage)
        if rec is None:
            reasons.append(f"{stage}: not run")
        elif rec["error"]:
            reasons.append(f"{stage} raised:\n{rec['error']}")
        elif stage == "verify" and rec["exit"] == 1 and found.get("checks_failed", 0) > 0 \
                and not gate_checks:
            continue
        elif rec["exit"] != 0:
            reasons.append(f"{stage} exited {rec['exit']}")
    if "checks_failed" not in found:
        reasons.append("no report.txt")
    elif gate_checks and found["checks_failed"] > 0:
        reasons.append(f"report.txt has {found['checks_failed']} FAIL lines")
    if "value_scaled" not in found:
        return reasons + ["no solution.json"]
    if found["duality_gap"] > DUALITY_TOL:
        reasons.append(f"strong duality: |sum w g - mu| = {found['duality_gap']:.3e}")
    checks = [("mu/(1-alpha)", found["value_scaled"], spec["reference"], spec["tol"])]
    if "rollout_value" not in found:
        reasons.append("no trajectory.csv")
    else:
        checks.append(("rollout value", found["rollout_value"],
                       spec.get("rollout_reference"), spec.get("rollout_tol")))
    for label, value, ref, tol in checks:
        if ref == "y0":
            ref = found["y0"][0]
        if ref is not None and abs(value - ref) > tol:
            reasons.append(f"{label} = {value!r}, reference {ref!r} +- {tol:g}")
    return reasons


# ---------------------------------------------------------------------------
# Metrics.

def pipeline_metrics(result: dict) -> dict:
    """End-to-end metrics of one pipeline that ran all three stages."""
    times = {f"{s}_s": result["stages"][s]["seconds"] for s in STAGES}
    times["pipeline_s"] = sum(times.values())
    times["peak_rss_mb"] = result["peak_rss_mb"]
    found = result["outputs"]
    if "gap" in found:
        times["gap"] = found["gap"]
    if "checks_failed" in found:
        times["checks_failed"] = found["checks_failed"]
    return times


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced pipeline, from its spans."""
    spans = trace["spans"]
    agg = aggregate(spans)

    def self_s(name):
        return agg.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def counter(name, key):
        return agg.get(name, {}).get("counters", {}).get(key, 0)

    def per_s(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    solve_pivots = kappa_pivots = priced = final_columns = solve_scans = 0
    for sid, span in enumerate(spans):
        up = set(ancestors(spans, sid))
        if span[0] == "simplex":
            pivots = span[4]["pivots"]
            priced += pivots * span[4]["columns"]
            if "verify.kappa" in up:
                kappa_pivots += pivots
            elif "cli.solve" in up:
                solve_pivots += pivots
        elif span[0] == "silp.solve" and "silp.solve_refined" in up:
            final_columns = span[4]["columns"]  # the last round's LP
        elif span[0] == "silp.scan" and "cli.solve" in up:
            solve_scans += 1
    rounds = counter("silp.solve_refined", "rounds")
    return {
        "simplex.calls": calls("simplex"),
        "simplex.pivots": counter("simplex", "pivots"),
        "simplex.solve_pivots": solve_pivots,
        "simplex.kappa_pivots": kappa_pivots,
        "simplex.self_s": self_s("simplex"),
        "simplex.pivots_per_s": per_s(counter("simplex", "pivots"), self_s("simplex")),
        "simplex.columns_priced": priced,
        "silp.rounds": rounds,
        "silp.columns": final_columns,
        "silp.columns_added": counter("silp.extend", "columns"),
        "silp.scan.calls": calls("silp.scan"),
        "silp.scan.self_s": self_s("silp.scan"),
        "silp.points_priced": counter("silp.reduced_costs", "points"),
        "silp.points_priced_per_s": per_s(counter("silp.reduced_costs", "points"),
                                          agg.get("silp.scan", {}).get("total_s", 0.0)),
        "silp.assemble.self_s": self_s("silp.assemble"),
        "silp.solve.self_s": self_s("silp.solve"),
        "silp.scans_per_round": solve_scans / rounds if rounds else 0.0,
        "basis.evaluate.calls": calls("basis.evaluate"),
        "basis.evaluate.points": counter("basis.evaluate", "points"),
        "basis.evaluate.self_s": self_s("basis.evaluate"),
        "basis.evaluate.points_per_s": per_s(counter("basis.evaluate", "points"),
                                             self_s("basis.evaluate")),
        "basis.constraint_columns.self_s": self_s("basis.constraint_columns"),
        "synthesis.minimizer.calls": calls("synthesis.minimizer"),
        "synthesis.minimizer.self_s": self_s("synthesis.minimizer"),
        "synthesis.controls_searched": counter("synthesis.minimizer", "controls"),
        "synthesis.rollout.steps": counter("synthesis.rollout", "steps"),
        "verify.value_iteration.self_s": self_s("verify.value_iteration"),
        "verify.value_iteration.sweeps": counter("verify.value_iteration", "sweeps"),
        "verify.value_iteration.backups": counter("verify.value_iteration", "backups"),
        "verify.optimality.self_s": self_s("verify.optimality"),
        "verify.hamiltonian_min.calls": calls("verify.hamiltonian_min"),
        "verify.shifted_inequality.self_s": self_s("verify.shifted_inequality"),
        "verify.kappa.self_s": self_s("verify.kappa"),
        "model.admissible_mask.calls": calls("model.admissible_mask"),
        "model.admissible_mask.points": counter("model.admissible_mask", "points"),
        "model.admissible_mask.self_s": self_s("model.admissible_mask"),
        "cli.solve.self_s": self_s("cli.solve"),
        "cli.rollout.self_s": self_s("cli.rollout"),
        "cli.verify.self_s": self_s("cli.verify"),
        "silp.extend.self_s": self_s("silp.extend"),
        "trace.overhead_s": trace["overhead_s"],
        "trace.pipeline_s": sum(s[3] - s[2] for s in spans if s[0].startswith("cli.")),
        "trace.wrapped_calls": trace["wrapped_calls"],
    }


def summarize(samples: list) -> dict:
    """name -> {value (median), min, max, n} over per-pipeline dicts."""
    names = sorted({k for s in samples for k in s})
    out = {}
    for name in names:
        vals = [s[name] for s in samples if name in s]
        out[name] = {"value": median(vals), "min": min(vals), "max": max(vals), "n": len(vals)}
    return out


# ---------------------------------------------------------------------------
# One run.

def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool,
                 draw_y0: bool = False) -> dict:
    start = time.perf_counter()
    config = HERE / "workloads" / spec["config"]
    if not (ROOT / "src" / "omcontrol" / "cli.py").exists():
        raise HarnessError(f"no omcontrol package under {ROOT / 'src'}")
    if not config.exists():
        raise HarnessError(f"no workload config {config}")
    work = WORKDIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if draw_y0:
        spec = dict(spec, reference=spec["reference"] if spec["reference"] == "y0" else None,
                    rollout_reference=None, gate_checks=False)

    setups = []

    def probe(n):
        try:
            setups.extend(setup_probe(config, RUN_DEADLINE_S) for _ in range(n))
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"set-up probe exceeded {exc.timeout:.0f} s") from None

    probe(SETUP_BLOCK)
    pipelines, durations = [], []
    measure_start = time.perf_counter()
    while True:
        if pipelines:
            probe(SETUP_BLOCK // 2)
        remaining = RUN_DEADLINE_S - (time.perf_counter() - start)
        t0 = time.perf_counter()
        result = run_pipeline(config, work / f"p{len(pipelines)}", trace,
                              seed if draw_y0 else None, max(remaining, 1.0))
        durations.append(time.perf_counter() - t0)
        reasons = gate(result, spec)
        pipelines.append({"result": result, "failed": reasons})
        used = time.perf_counter() - measure_start
        if used + median(durations) > seconds \
                or time.perf_counter() - start + max(durations) > RUN_DEADLINE_S:
            break
    probe(SETUP_BLOCK)

    complete = [p for p in pipelines if "stages" in p["result"]
                and all(s in p["result"]["stages"] for s in STAGES)]
    samples = [pipeline_metrics(p["result"]) for p in complete]
    failed = sum(1 for p in pipelines if p["failed"])
    metrics = summarize(samples)
    metrics["setup_s"] = {"value": median(setups), "min": min(setups), "max": max(setups),
                          "n": len(setups)}
    metrics["fail_rate"] = {"value": failed / len(pipelines), "min": None, "max": None,
                            "n": len(pipelines)}
    layers = {}
    if trace:
        traced = [p["result"]["trace"] for p in complete if p["result"].get("trace")]
        layers = summarize([layer_metrics(t) for t in traced])

    last = pipelines[-1]["result"]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "y0_mode": "draw" if draw_y0 else "paper",
        "attempted": len(pipelines), "failed": failed,
        "failures": [p["failed"] for p in pipelines if p["failed"]],
        "metrics": metrics, "layers": layers,
        "outputs": [p["result"].get("outputs", {}) for p in pipelines],
        "environment": last.get("environment"),
    }


def print_report(record: dict) -> None:
    env = record["environment"] or {}
    print(f"workload {record['workload']}  seed {record['seed']}  y0 mode {record['y0_mode']}"
          f"  trace {int(record['trace'])}")
    print(f"environment: python {env.get('python')}, numpy {env.get('numpy')}, "
          f"blas {env.get('blas')}, nproc {env.get('nproc')}, "
          f"pinned threads {env.get('pinned_threads', {}).get('OPENBLAS_NUM_THREADS')}")
    print(f"config: {json.dumps(env.get('config'))}")
    for out in record["outputs"]:
        print(f"outputs: y0 {out.get('y0')}  mu/(1-alpha) {out.get('value_scaled')!r}  "
              f"rounds {out.get('rounds')}  checks_failed {out.get('checks_failed')}  "
              f"solution.json sha256 {out.get('solution_sha256')}")
    for reasons in record["failures"]:
        print("FAILED RUN: " + "; ".join(reasons))
    title = "end-to-end (traced)" if record["trace"] else "end-to-end"
    rows = [(title, record["metrics"], {**END_TO_END, **END_TO_END_INFO}),
            ("per-layer", record["layers"], {**PER_LAYER, **PER_LAYER_INFO})]
    for title, metrics, units in rows:
        if not metrics:
            continue
        print(f"{title}:")
        for name, unit in units.items():
            if name in metrics:
                m = metrics[name]
                print(f"  {name:34s} {m['value']!r:>24} {unit:6s} n={m['n']}")


def summary_line(record: dict) -> dict:
    units = PER_LAYER if record["trace"] else END_TO_END
    source = record["layers"] if record["trace"] else record["metrics"]
    metrics = {name: {"value": source[name]["value"], "unit": unit}
               for name, unit in units.items() if name in source}
    correct = record["failed"] == 0 and len(metrics) == len(units)
    return {"correct": correct, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--y0", choices=("paper", "draw"), default="paper",
                        help="initial state: the workload's pinned one, or drawn from --seed")
    args = parser.parse_args(argv)
    try:
        record = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace), args.y0 == "draw")
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}" / "result.json") \
        .write_text(json.dumps(record, indent=1))
    print_report(record)
    print(json.dumps(summary_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
