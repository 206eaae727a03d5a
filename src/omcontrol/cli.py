"""Command-line driver: solve, rollout, verify.

Configuration comes from an optional key=value text file overridden by
flags.  All outputs land under the configured output directory: solution
JSON, human-readable summary, trajectory CSV and SVG, and a PASS/FAIL
verification report.  The pipeline is fully deterministic, so repeated
runs with the same configuration produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Literal, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import silp, synthesis, verify
from .basis import MonomialBasis
from .errors import (LpInfeasible, LpUnbounded, NonConverged, NotConverged, RolloutAborted,
                     SolverError, SolverStalled)
from .model import builtin_problem
from .silp import CandidateSpec, GridSpec

_PROBLEM_DEFAULTS = {
    "example1": dict(degree=7, state_grid=(9,), control_grid=(9,),
                     candidate_state=(33,), candidate_control=(9,),
                     rollout_control_grid=(201,), vi_state_grid=(41,), vi_control_grid=(21,),
                     steps=50, slack=0.25, psi_slack=0.2, gap_slack=0.35),
    "shift": dict(degree=3, state_grid=(21,), control_grid=(21,),
                  candidate_state=(41,), candidate_control=(41,),
                  rollout_control_grid=(21,), vi_state_grid=(21,), vi_control_grid=(21,),
                  steps=50, slack=1e-6, psi_slack=1e-6, gap_slack=1e-6),
}


@dataclass
class RunConfig:
    """The config keys, each annotated with the type its value parses to; None is unset."""

    problem: str = "example1"
    alpha: Optional[float] = None
    y0: Optional[tuple[float, ...]] = None
    degree: Optional[int] = None
    state_grid: Optional[tuple[int, ...]] = None
    control_grid: Optional[tuple[int, ...]] = None
    candidate_state: Optional[tuple[int, ...]] = None
    candidate_control: Optional[tuple[int, ...]] = None
    rollout_control_grid: Optional[tuple[int, ...]] = None
    vi_state_grid: Optional[tuple[int, ...]] = None
    vi_control_grid: Optional[tuple[int, ...]] = None
    tol: float = 1e-6
    pivot_tol: float = 1e-9
    epsilon: Optional[float] = None
    steps: Optional[int] = None
    policy: Literal["minimizer", "heuristic"] = "minimizer"
    discard: float = 1e-2
    batch: int = 8
    max_rounds: int = 80
    slack: Optional[float] = None
    psi_slack: Optional[float] = None
    gap_slack: Optional[float] = None
    out: str = "out"

    def resolved(self) -> "RunConfig":
        """Fill unset fields from the per-problem defaults.

        With ``epsilon`` set and ``steps`` unset, ``steps`` stays unset so
        that the rollout horizon follows ``epsilon``.
        """
        defaults = dict(_PROBLEM_DEFAULTS.get(self.problem, _PROBLEM_DEFAULTS["example1"]))
        if self.epsilon is not None:
            del defaults["steps"]
        return replace(self, **{key: val for key, val in defaults.items()
                                if getattr(self, key) is None})


def _parser(hint):
    """Text -> value for one annotated field: a scalar type, one of a ``Literal``'s
    values or a comma-separated tuple."""
    if get_origin(hint) is Union:
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    if get_origin(hint) is Literal:
        def choice(text, choices=get_args(hint)):
            if text not in choices:
                raise ValueError(f"expected one of {', '.join(choices)}: {text!r}")
            return text
        return choice
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        return lambda text: tuple(item(v) for v in text.split(","))
    return hint


_PARSERS = {key: _parser(hint) for key, hint in get_type_hints(RunConfig).items()}


def _parse(key: str, text, where: str):
    """``text`` as the value of config key ``key``; a failure names ``where`` it came from."""
    try:
        return _PARSERS[key](text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def read_config_file(path) -> RunConfig:
    cfg = RunConfig()
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        cfg = replace(cfg, **{key: _parse(key, val.strip(), f"{path}:{lineno}: {key}")})
    return cfg


def _apply_flags(cfg: RunConfig, args) -> RunConfig:
    """Override config fields with the flags given on the command line.

    ``--control-grid`` sets the policy's search grid under ``rollout``, and
    ``--candidate-grid STATE[:CONTROL]`` sets one or both candidate grids.
    """
    updates = {}
    for flag, val in vars(args).items():
        if val is None or flag not in _PARSERS:
            continue
        key = flag
        if key == "control_grid" and args.command == "rollout":
            key = "rollout_control_grid"
        updates[key] = _parse(key, val, "--" + flag.replace("_", "-"))
    if args.candidate_grid is not None:
        state, sep, control = args.candidate_grid.partition(":")
        updates["candidate_state"] = _parse("candidate_state", state, "--candidate-grid")
        if sep:
            updates["candidate_control"] = _parse("candidate_control", control, "--candidate-grid")
    return replace(cfg, **updates)


def _build(cfg: RunConfig):
    problem = builtin_problem(cfg.problem, alpha=cfg.alpha, y0=cfg.y0)
    basis = MonomialBasis(problem.state_dim, cfg.degree)
    return problem, basis


def _grid_specs(cfg: RunConfig):
    grid = GridSpec(state=cfg.state_grid, control=cfg.control_grid)
    cand = CandidateSpec(state=cfg.candidate_state, control=cfg.candidate_control,
                         max_new_columns=cfg.batch)
    return grid, cand


def _run_stamp(problem, basis) -> dict:
    """The fields that tie an output file to the run that wrote it."""
    return {"problem": problem.name, "alpha": problem.discount,
            "y0": [float(v) for v in problem.initial_state], "degree": basis.max_degree}


def _check_stamp(path, stamp: dict, run: dict, made: str, command: str) -> None:
    """Refuse the file at ``path`` if its ``stamp`` is not an object or differs from ``run``'s."""
    if not isinstance(stamp, dict):
        raise ValueError(f"{path}'s run stamp is not an object; run {command} again")
    for key, value in run.items():
        if key in stamp and stamp[key] != value:
            raise ValueError(f"{path} was {made} for {key} = {stamp[key]}, this run has "
                             f"{key} = {value}; run {command} again")


def cmd_solve(cfg: RunConfig) -> int:
    cfg = cfg.resolved()
    problem, basis = _build(cfg)
    grid, cand = _grid_specs(cfg)
    out = Path(cfg.out)
    lines = [
        f"problem            {problem.name}",
        f"discount           {problem.discount:.6g}",
        f"initial state      {tuple(float(v) for v in problem.initial_state)}",
        f"basis functions    {basis.count} (degree cap {basis.max_degree})",
    ]
    history: list = []
    try:
        measure, certificate, rounds = silp.solve_refined(
            problem, basis, grid, cand, tol=cfg.tol, max_rounds=cfg.max_rounds,
            pivot_tol=cfg.pivot_tol, history=history)
        failure = None
    except NonConverged as exc:
        measure, certificate, rounds = exc.measure, exc.certificate, exc.rounds
        failure = exc
    except (LpInfeasible, LpUnbounded, SolverStalled) as exc:  # round 1 failed: no result
        out.mkdir(parents=True, exist_ok=True)
        # an earlier run's solution would pass for this one's: rollout says "run solve first"
        (out / "solution.json").unlink(missing_ok=True)
        lines.append(f"converged          no (round 1 failed: {type(exc).__name__}: {exc})")
        _write_summary(out, lines)
        raise
    value = measure.value(problem)
    violation = history[-1]["max_violation"]
    margin = history[-1]["margin"]
    pivots = sum(record["pivots"] + record["selection_pivots"] for record in history)

    out.mkdir(parents=True, exist_ok=True)
    meta = _run_stamp(problem, basis)
    if failure is not None:
        meta["converged"] = False
    (out / "solution.json").write_text(
        silp.solution_to_json(measure, certificate, value, rounds, violation, meta) + "\n")

    scale = 1.0 / (1.0 - problem.discount)
    lines += [
        f"lp columns         {history[-1]['columns']}",
        f"refinement rounds  {rounds}",
        f"primal value       {value:.6f}",
        f"dual value         {certificate.mu:.6f}",
        f"value / (1-alpha)  {value * scale:.6f}",
        f"atoms              {len(measure)}",
        f"max dual violation {violation:.3e}",
        f"lp pivots          {pivots}",
        "certificate margin " + ("n/a (unique dual)" if margin is None else f"{margin:.3e}"),
    ]
    if failure is not None:
        cause = failure.__cause__
        lines.append("converged          no (" + (
            f"round limit of {rounds} reached" if cause is None
            else f"round {rounds + 1} failed: {type(cause).__name__}: {cause}") + ")")
    _write_summary(out, lines)
    if failure is not None:
        raise failure
    return 0


def _write_summary(out: Path, lines: list) -> None:
    """``summary.txt`` under ``out``, echoed to stdout."""
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))


def _load_solution(cfg: RunConfig, run: dict, problem, basis):
    """The solution under ``cfg.out``, refused if its stamp differs from ``run``'s or its
    atoms and lambda do not fit ``problem`` and ``basis``."""
    path = Path(cfg.out) / "solution.json"
    if not path.exists():
        raise FileNotFoundError(f"no solution file at {path}; run solve first")
    try:
        measure, certificate, doc = silp.solution_from_json(path.read_text())
    except KeyError as exc:
        raise ValueError(f"{path} has no field {exc}; run solve again") from None
    _check_stamp(path, doc, run, "solved", "solve")
    for name, size, needed in (("atom states", measure.states.shape[1], problem.state_dim),
                               ("atom controls", measure.controls.shape[1], problem.control_dim),
                               ("lambda", len(certificate.lam), basis.count)):
        if size != needed:
            raise ValueError(f"{path} holds {name} of length {size}, this run needs {needed}; "
                             "run solve again")
    return measure, certificate


def cmd_rollout(cfg: RunConfig) -> int:
    cfg = cfg.resolved()
    problem, basis = _build(cfg)
    run = _run_stamp(problem, basis)
    measure, certificate = _load_solution(cfg, run, problem, basis)
    trimmed = silp.discard_small_atoms(measure, cfg.discard)  # refused before a file is written

    policy = (synthesis.minimizer_policy(problem, basis, certificate, cfg.rollout_control_grid)
              if cfg.policy == "minimizer" else synthesis.heuristic_policy(trimmed))

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        roll = synthesis.rollout(problem, policy, epsilon=cfg.epsilon, steps=cfg.steps)
    except RolloutAborted as exc:  # the steps taken before the failure, marked by NaN values
        synthesis.write_trajectory_csv(out / "trajectory.csv", exc.rollout, run)
        raise

    synthesis.gap_certificate(roll, certificate)
    synthesis.write_trajectory_csv(out / "trajectory.csv", roll, run)
    synthesis.write_trajectory_svg(out / "trajectory.svg", roll, trimmed)
    print(f"policy {cfg.policy}: horizon {roll.horizon}, "
          f"value {roll.truncated_value:.6f}, gap {roll.gap:.6f}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    cfg = cfg.resolved()
    problem, basis = _build(cfg)
    run = _run_stamp(problem, basis)
    measure, certificate = _load_solution(cfg, run, problem, basis)
    path = Path(cfg.out) / "trajectory.csv"
    states, controls, meta = synthesis.read_trajectory_csv(path)
    _check_stamp(path, meta.get("run", {}), run, "rolled out", "rollout")
    if not len(states):
        raise ValueError("trajectory.csv has no steps: the rollout aborted at t = 0")
    try:
        roll = synthesis.Rollout(states=states, controls=controls,
                                 truncated_value=meta["truncated_value"],
                                 truncation_bound=meta["truncation_bound"],
                                 discount=problem.discount)
    except KeyError as exc:
        raise ValueError(f"{path} has no field {exc}; run rollout again") from None

    scaled_mu = certificate.mu / (1.0 - problem.discount)
    checks = []

    gap_duality = abs(measure.value(problem) - certificate.mu)
    checks.append(("strong duality |value - mu|", gap_duality, 1e-6))

    support_ok = len(measure) <= basis.count + 1
    checks.append(("support size <= N+1", 0.0 if support_ok else float(len(measure)),
                   float(basis.count + 1)))

    residuals = verify.measure_residuals(measure, basis, problem)
    checks.append(("measure residuals", float(np.abs(residuals).max()), 1e-9))

    try:
        oracle = verify.value_iteration(problem, cfg.vi_state_grid, cfg.vi_control_grid)
    except NotConverged as exc:  # check against the last iterate, and say so
        oracle = exc.grid
        checks.append(("value iteration converged", oracle.sweep_diffs[-1], oracle.threshold))
    report = verify.check_optimality_conditions(problem, roll, certificate, oracle, basis)
    checks.append(("stationarity residual", float(report.stationarity.max()), cfg.slack))
    checks.append(("value agreement spread", report.value_agreement_std, cfg.slack))
    checks.append(("one-step identity residual", float(report.hamiltonian.max()), cfg.slack))

    psi_violation = verify.check_psi_bound(certificate, oracle, problem, basis)
    checks.append(("surrogate bound violation", psi_violation, cfg.psi_slack))

    shifted = verify.check_shifted_inequality(report, certificate, scaled_mu, problem)
    checks.append(("shifted inequality violation", shifted, cfg.psi_slack))
    checks.append(("gap certificate", synthesis.gap_certificate(roll, certificate),
                   cfg.gap_slack))

    oracle_y0 = oracle(problem.initial_state)
    del oracle  # its pair lattice is freed before the kappa re-solve asks for room
    grid, _ = _grid_specs(cfg)
    try:
        kappa = verify.estimate_kappa(problem, basis, grid, certificate, oracle_y0,
                                      pivot_tol=cfg.pivot_tol)
        kappa_text = f"{kappa:.3e}"
    except SolverError as exc:  # the estimate is INFO only: the checks set the exit status
        kappa_text = f"n/a ({exc})"

    passed = [residual <= threshold for _, residual, threshold in checks]
    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {residual:.3e} (tol {threshold:.3e})"
             for ok, (name, residual, threshold) in zip(passed, checks)]
    lines.append(f"INFO truncation bound: {roll.truncation_bound:.3e}")
    lines.append(f"INFO kappa estimate: {kappa_text}")
    lines.append(f"INFO oracle value at y0: {oracle_y0:.6f}")
    lines.append(f"INFO mu/(1-alpha): {scaled_mu:.6f}")
    text = "\n".join(lines) + "\n"
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(text)
    print(text, end="")
    return 0 if all(passed) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omcontrol",
        description="Occupational-measure LP solver for discounted optimal control.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--problem", help="built-in problem name")
        p.add_argument("--alpha", help="discount factor override")
        p.add_argument("--y0", help="initial state, comma separated")
        p.add_argument("--degree", help="per-coordinate monomial degree cap")
        p.add_argument("--state-grid", help="state grid points per axis")
        p.add_argument("--control-grid", help="control grid points per axis "
                       "(rollout: the policy's search grid)")
        p.add_argument("--candidate-grid", help="refinement candidates, STATE[:CONTROL]")
        p.add_argument("--tol", help="dual feasibility tolerance")
        p.add_argument("--epsilon", help="truncation error target")
        p.add_argument("--steps", help="fixed rollout horizon")
        p.add_argument("--policy", help="rollout feedback rule: minimizer or heuristic")
        p.add_argument("--discard", help="atom discard threshold")
        p.add_argument("--batch", help="columns added per refinement pass")
        p.add_argument("--max-rounds", help="refinement round limit")
        p.add_argument("--out", help="output directory")

    for name in ("solve", "rollout", "verify"):
        common(sub.add_parser(name))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = read_config_file(args.config) if args.config else RunConfig()
        cfg = _apply_flags(cfg, args)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "rollout":
            return cmd_rollout(cfg)
        return cmd_verify(cfg)
    except (SolverError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
