"""Self-test of the benchmark harness on the CLI-default shift config.

    python3 perfbench/selftest.py

A pipeline of that config takes milliseconds, so the whole test takes about
half a minute.  It checks that

1. an untraced run reports every end-to-end metric, passes its gate and
   prints a summary line with exactly the declared metrics;
2. a deliberately wrong reference for mu/(1-alpha), and one for the rollout
   value, each register every pipeline as failed;
3. a FAIL verdict of verify fails a run at the pinned y0 and is only
   reported with a drawn y0;
4. a traced run reports every per-layer metric, its spans nest, each stage's
   spans hold the layers that stage calls, and each traced stage takes the
   untraced stage's time plus at most the reported tracing overhead, within
   the spread of the untraced samples;
5. ``--y0 draw`` records a y0 drawn from the LP state grid and gates it
   against the closed form.

It prints one PASS/FAIL line per check and exits 1 if any failed.
"""

from __future__ import annotations

import copy
import json
import statistics
import sys

import run
from tracer import ancestors

SMOKE = {"config": "shift-smoke.cfg", "reference": "y0", "tol": 1e-9,
         "rollout_reference": "y0", "rollout_tol": 1e-9}
SMOKE_GRID = 21  # the CLI default state grid of shift
# Layers each stage of the shift pipeline calls; a wrapper that is not
# installed, or a span filed under the wrong stage, leaves one out.
STAGE_LAYERS = {
    "cli.solve": {"silp.solve_refined", "silp.assemble", "silp.scan", "simplex",
                  "basis.evaluate", "basis.constraint_columns", "model.admissible_mask"},
    "cli.rollout": {"synthesis.rollout", "synthesis.minimizer", "basis.evaluate"},
    "cli.verify": {"verify.value_iteration", "verify.optimality", "verify.hamiltonian_min",
                   "verify.shifted_inequality", "verify.kappa", "simplex"},
}


def nesting_errors(spans) -> int:
    """Spans that start before or end after their parent."""
    bad = 0
    for name, parent, start, end, _ in spans:
        if parent >= 0 and not (spans[parent][2] <= start <= end <= spans[parent][3]):
            bad += 1
    return bad


def stage_layers(spans) -> dict:
    """Stage span name -> names of the spans below it."""
    out: dict = {}
    for sid, span in enumerate(spans):
        stage = [a for a in ancestors(spans, sid) if a.startswith("cli.")]
        if stage:
            out.setdefault(stage[-1], set()).add(span[0])
    return out


def stage_overheads(spans, per_call_s) -> dict:
    """Stage name -> calibrated cost of the wrapped calls below its span."""
    out = {s[0][len("cli."):]: 0.0 for s in spans if s[0].startswith("cli.")}
    for sid in range(len(spans)):
        stage = [a for a in ancestors(spans, sid) if a.startswith("cli.")]
        if stage:
            out[stage[-1][len("cli."):]] += per_call_s
    return out


def main() -> int:
    results = []
    run.SETUP_BLOCK = 2  # set-up is not under test here

    def check(name, ok, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")

    plain = run.run_workload("selftest-plain", SMOKE, seed=0, seconds=5.0, trace=False)
    line = run.summary_line(plain)
    missing = [n for n in {**run.END_TO_END, **run.END_TO_END_INFO} if n not in plain["metrics"]]
    check("end-to-end metric names present", not missing, f"missing {missing}" if missing else "")
    check("summary line holds exactly the end-to-end metrics",
          set(line["metrics"]) == set(run.END_TO_END))
    check("default run passes its gate",
          line["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1,
          f"{plain['attempted']} attempted, failures {plain['failures']}")

    for label, wrong_spec in (("mu/(1-alpha)", dict(SMOKE, reference=0.123)),
                              ("rollout", dict(SMOKE, rollout_reference=0.123))):
        wrong = run.run_workload("selftest-wrong", wrong_spec, seed=0, seconds=0.5, trace=False)
        check(f"wrong {label} reference counts as a failed run",
              wrong["failed"] == wrong["attempted"] >= 1
              and wrong["metrics"]["fail_rate"]["value"] == 1.0
              and not run.summary_line(wrong)["correct"],
              f"{wrong['failed']}/{wrong['attempted']} failed: {wrong['failures'][:1]}")

    result = json.loads((run.WORKDIR / "selftest-plain-seed0-trace0" / "p0.result.json")
                        .read_text())
    verdict = copy.deepcopy(result)
    verdict["stages"]["verify"]["exit"] = 1
    verdict["outputs"]["checks_failed"] = 2
    check("a FAIL verdict fails the pinned y0 and is only reported for a drawn one",
          not run.gate(result, SMOKE) and run.gate(verdict, SMOKE)
          and not run.gate(verdict, dict(SMOKE, gate_checks=False)),
          f"pinned: {run.gate(verdict, SMOKE)}")

    traced = run.run_workload("selftest-traced", SMOKE, seed=0, seconds=5.0, trace=True)
    tline = run.summary_line(traced)
    missing = [n for n in {**run.PER_LAYER, **run.PER_LAYER_INFO} if n not in traced["layers"]]
    check("per-layer metric names present", not missing and set(tline["metrics"]) == set(run.PER_LAYER),
          f"missing {missing}" if missing else "")
    check("traced run passes its gate", tline["correct"], f"failures {traced['failures']}")

    span_files = sorted((run.WORKDIR / "selftest-traced-seed0-trace1").glob("p*.result.json"))
    traces = [json.loads(p.read_text())["trace"] for p in span_files]
    nested = sum(nesting_errors(t["spans"]) for t in traces)
    check("spans nest inside their parents", nested == 0 and bool(traces),
          f"{nested} misplaced spans")
    absent = sorted({f"{stage}/{layer}" for t in traces
                     for stage, layers in STAGE_LAYERS.items()
                     for layer in layers - stage_layers(t["spans"]).get(stage, set())})
    check("each stage's spans hold the layers it calls", not absent and bool(traces),
          f"absent {absent}" if absent else "")

    # Summed over a stage's subtree the self times give the traced stage
    # time; it must match the untraced stage time plus the calibrated cost
    # of the stage's wrapped calls, within the untraced samples' spread.
    overheads = [stage_overheads(t["spans"], t["per_call_s"]) for t in traces]
    for stage in run.STAGES:
        untraced, with_trace = plain["metrics"][f"{stage}_s"], traced["metrics"][f"{stage}_s"]
        overhead = statistics.median(o[stage] for o in overheads)
        noise = untraced["max"] - untraced["min"]
        excess = with_trace["value"] - untraced["value"]
        check(f"traced {stage} time is the untraced one plus the tracing overhead",
              -noise <= excess <= overhead + noise,
              f"traced minus untraced {excess * 1e3:.2f} ms, calibrated overhead "
              f"{overhead * 1e3:.2f} ms, untraced spread {noise * 1e3:.2f} ms")
    direct = traced["metrics"]["pipeline_s"]["value"] - plain["metrics"]["pipeline_s"]["value"]
    print(f"INFO tracing overhead: traced minus untraced pipeline_s {direct:.4e} s, "
          f"calibrated estimate {traced['layers']['trace.overhead_s']['value']:.4e} s")

    drawn = run.run_workload("selftest-draw", SMOKE, seed=3, seconds=0.5, trace=False,
                             draw_y0=True)
    y0 = drawn["outputs"][0].get("y0", [None])[0]
    on_grid = y0 is not None and abs(y0 * (SMOKE_GRID - 1) - round(y0 * (SMOKE_GRID - 1))) < 1e-12
    check("draw mode records a grid y0 and gates it", on_grid and drawn["y0_mode"] == "draw",
          f"y0 {y0}, {drawn['failed']}/{drawn['attempted']} failed, "
          f"checks_failed {drawn['outputs'][0].get('checks_failed')}")

    print(f"{sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
