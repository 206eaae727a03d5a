"""One fresh interpreter of the benchmark: a set-up probe or one pipeline.

    python3 perfbench/child.py setup --config CFG
    python3 perfbench/child.py pipeline --config CFG --out DIR --result FILE
                                        [--trace] [--y0-seed N]

``setup`` imports ``omcontrol.cli``, resolves the config and builds the
problem and basis, then prints the monotonic clock reading at which it was
ready; the parent subtracts its spawn time.  ``pipeline`` runs
``solve -> rollout -> verify`` through ``omcontrol.cli.main`` in this
process, timing each stage, then reads the outputs back (untimed) and
writes one JSON result: stage times and exit codes, peak RSS, the values
the correctness gate needs, the environment and, with ``--trace``, every
span.  BLAS/OpenMP thread counts are pinned before numpy is imported.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PINNED_THREADS = "1"
for _var in THREAD_VARS:
    os.environ[_var] = PINNED_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import asdict, replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

STAGES = ("solve", "rollout", "verify")


def _import_cli():
    from omcontrol import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"omcontrol imported from {cli.__file__}, not from {SRC}")
    return cli


def cmd_setup(args) -> int:
    cli = _import_cli()
    cfg = cli.read_config_file(args.config).resolved()
    cli._build(cfg)
    print(json.dumps({"ready": time.perf_counter()}))
    return 0


def draw_y0(cli, cfg, seed: int) -> list:
    """A node of the workload's LP state grid, drawn from ``seed``."""
    problem, _ = cli._build(cfg)
    rng = random.Random(seed)
    return [float(rng.choice(list(ax))) for ax in problem.state_region.axes(cfg.state_grid)]


def environment(cfg) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(cfg).items()},
    }


def run_stages(cli, argv_tail, tracer) -> dict:
    stages = {}
    for stage in STAGES:
        span = tracer.span(f"cli.{stage}") if tracer else nullcontext()
        error = None
        t0 = time.perf_counter()
        try:
            with span:
                code = cli.main([stage] + argv_tail)
        except Exception:  # boundary: the gate reports it as a failed run
            code, error = None, traceback.format_exc()
        stages[stage] = {"seconds": time.perf_counter() - t0, "exit": code, "error": error}
        if code != 0 and stage != "verify":
            break
    return stages


def inspect_outputs(out: Path) -> dict:
    """Values the correctness gate needs, re-derived from the output files."""
    import numpy as np
    from omcontrol import synthesis
    from omcontrol.model import builtin_problem

    found: dict = {}
    sol = out / "solution.json"
    if sol.exists():
        raw = sol.read_bytes()
        doc = json.loads(raw)
        problem = builtin_problem(doc["problem"], alpha=doc["alpha"], y0=doc["y0"])
        atoms = doc["atoms"]
        states = np.array([a[0] for a in atoms], dtype=float)
        controls = np.array([a[1] for a in atoms], dtype=float)
        weights = np.array([a[2] for a in atoms], dtype=float)
        primal = float(weights @ problem.g(states, controls))
        found.update(
            solution_sha256=hashlib.sha256(raw).hexdigest(),
            y0=doc["y0"], mu=doc["mu"], alpha=doc["alpha"], rounds=doc["rounds"],
            atoms=len(atoms), value_scaled=doc["mu"] / (1.0 - doc["alpha"]),
            duality_gap=abs(primal - doc["mu"]))
    traj = out / "trajectory.csv"
    if traj.exists() and "value_scaled" in found:
        _, _, meta = synthesis.read_trajectory_csv(traj)
        found["rollout_value"] = meta["truncated_value"]
        found["gap"] = abs(meta["truncated_value"] - found["value_scaled"])
    report = out / "report.txt"
    if report.exists():
        lines = report.read_text().splitlines()
        found["report"] = lines
        found["checks_failed"] = sum(1 for line in lines if line.startswith("FAIL"))
    return found


def cmd_pipeline(args) -> int:
    cli = _import_cli()
    cfg = cli.read_config_file(args.config).resolved()
    out = Path(args.out)
    argv_tail = ["--config", args.config, "--out", str(out)]
    if args.y0_seed is not None:
        y0 = draw_y0(cli, cfg, args.y0_seed)
        cfg = replace(cfg, y0=tuple(y0))
        argv_tail.append("--y0=" + ",".join(repr(v) for v in y0))
    cfg = replace(cfg, out=str(out))

    tracer = trace_info = None
    if args.trace:
        from tracer import Tracer, calibrate_overhead
        per_call = calibrate_overhead()
        tracer = Tracer()
        tracer.install()
    try:
        stages = run_stages(cli, argv_tail, tracer)
    finally:
        if tracer:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        calls = tracer.wrapped_calls()
        trace_info = {"per_call_s": per_call, "wrapped_calls": calls,
                      "overhead_s": calls * per_call, "spans": tracer.spans}

    result = {"stages": stages, "peak_rss_mb": peak_rss_mb,
              "outputs": inspect_outputs(out), "environment": environment(cfg),
              "trace": trace_info}
    Path(args.result).write_text(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--config", required=True)
    pipe = sub.add_parser("pipeline")
    pipe.add_argument("--config", required=True)
    pipe.add_argument("--out", required=True)
    pipe.add_argument("--result", required=True)
    pipe.add_argument("--trace", action="store_true")
    pipe.add_argument("--y0-seed", type=int)
    args = parser.parse_args(argv)
    return cmd_setup(args) if args.mode == "setup" else cmd_pipeline(args)


if __name__ == "__main__":
    sys.exit(main())
