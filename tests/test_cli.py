import collections
import dataclasses
import functools
import json
import typing
from pathlib import Path

import numpy as np
import pytest

from omcontrol import (LpInfeasible, NotConverged, SolverStalled, cli, model, silp, synthesis,
                       verify)


def shift_config(tmp_path, out, extra=""):
    path = tmp_path / "shift.cfg"
    path.write_text(
        "problem = shift\n"
        "alpha = 0.5\n"
        "y0 = 0.4\n"
        "degree = 3\n"
        "state_grid = 21\n"
        "control_grid = 21\n"
        "candidate_state = 41\n"
        "candidate_control = 41\n"
        "tol = 1e-9\n"
        "pivot_tol = 1e-12\n"
        "steps = 20\n"
        f"out = {out}\n" + extra
    )
    return str(path)


class TestConfigParsing:
    def test_round_trip_keys(self, tmp_path):
        cfg = cli.read_config_file(shift_config(tmp_path, tmp_path / "o"))
        assert cfg.problem == "shift"
        assert cfg.alpha == 0.5
        assert cfg.y0 == (0.4,)
        assert cfg.degree == 3
        assert cfg.state_grid == (21,)
        assert cfg.steps == 20

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# a comment\n\nproblem = shift  # trailing\n")
        assert cli.read_config_file(p).problem == "shift"

    def test_unparsable_value_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("problem = shift\ndegree = x\n")
        assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:2: degree: invalid literal for int() with base 10: 'x'\n")

    def test_config_policy_outside_its_choices_is_refused_by_solve(self, tmp_path, capsys):
        # solve does not use the policy, and still refuses it before it writes a file
        out = tmp_path / "o"
        path = tmp_path / "bad.cfg"
        path.write_text(f"problem = shift\npolicy = foo\nout = {out}\n")
        assert cli.main(["solve", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:2: policy: expected one of minimizer, heuristic: 'foo'\n")
        assert not out.exists()

    @pytest.mark.parametrize("stage,flag,value,bad", [
        ("solve", "--state-grid", "2.5", "2.5"),
        ("rollout", "--control-grid", "2.5", "2.5"),  # sets rollout_control_grid
        ("solve", "--candidate-grid", "33:x", "x"),
        # parsed once, as a config file's value is, not by argparse, which exited with 2
        ("solve", "--degree", "x", "x"),
        ("rollout", "--steps", "2.5", "2.5"),
        ("solve", "--batch", "x", "x"),
        ("solve", "--max-rounds", "1e3", "1e3"),
        ("solve", "--alpha", "abc", "abc"),
        ("rollout", "--policy", "foo", "foo"),
    ])
    def test_unparsable_flag_names_the_flag(self, tmp_path, capsys, stage, flag, value, bad):
        assert cli.main([stage, flag, value, "--out", str(tmp_path / "o")]) == 1
        failure = {"--alpha": "could not convert string to float",
                   "--policy": "expected one of minimizer, heuristic"}.get(
            flag, "invalid literal for int() with base 10")
        assert capsys.readouterr().err == f"error: {flag}: {failure}: '{bad}'\n"

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("nonsense = 1\n")
        with pytest.raises(ValueError):
            cli.read_config_file(p)

    @pytest.mark.parametrize("field", dataclasses.fields(cli.RunConfig), ids=lambda f: f.name)
    def test_every_field_is_a_config_key(self, tmp_path, field):
        hint = typing.get_type_hints(cli.RunConfig)[field.name]
        scalar = {int: "7", float: "0.5", str: "shift"}
        kind = (next(t for t in typing.get_args(hint) if t is not type(None))
                if typing.get_origin(hint) is typing.Union else hint)
        if typing.get_origin(kind) is typing.Literal:
            text = expected = typing.get_args(kind)[-1]
        elif typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            text, expected = f"{scalar[item]}, {scalar[item]}", (item(scalar[item]),) * 2
        else:
            text, expected = scalar[kind], kind(scalar[kind])
        p = tmp_path / "c.cfg"
        p.write_text(f"{field.name} = {text}\n")
        value = getattr(cli.read_config_file(p), field.name)
        assert repr(value) == repr(expected)  # repr tells 7 from 7.0 and tuple from list

    def test_every_flag_is_a_field(self):
        fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        dests = {a.dest for a in parser._actions if a.dest != "help"}
        for sub in commands.values():
            dests |= {a.dest for a in sub._actions if a.dest != "help"}
        assert dests - fields == {"config", "command", "candidate_grid"}

    def test_seed_is_not_a_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("seed = 0\n")
        with pytest.raises(ValueError, match="unknown key"):
            cli.read_config_file(p)

    def test_defaults_resolved_per_problem(self):
        cfg = cli.RunConfig(problem="example1").resolved()
        assert cfg.degree == 7
        assert cfg.state_grid == (9,)
        cfg = cli.RunConfig(problem="shift").resolved()
        assert cfg.degree == 3


class TestPipeline:
    def test_shift_end_to_end(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = shift_config(tmp_path, out)
        assert cli.main(["solve", "--config", cfg_path]) == 0

        sol = json.loads((out / "solution.json").read_text())
        for key in ("atoms", "lambda", "mu", "value", "rounds", "max_dual_violation"):
            assert key in sol
        assert sol["value"] == pytest.approx(0.2, abs=1e-9)
        assert abs(sol["value"] - sol["mu"]) <= 1e-6
        assert "value / (1-alpha)" in (out / "summary.txt").read_text()

        assert cli.main(["rollout", "--config", cfg_path, "--policy", "minimizer"]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,y1,u1"
        assert lines[1] == "0,0.4,0"
        assert (out / "trajectory.svg").exists()

        assert cli.main(["verify", "--config", cfg_path]) == 0
        report = (out / "report.txt").read_text()
        assert "FAIL" not in report
        assert "PASS strong duality" in report
        assert "kappa estimate" in report

    def test_solve_outputs_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cli.main(["solve", "--config", shift_config(tmp_path, out1)])
        cli.main(["solve", "--config", shift_config(tmp_path, out2)])
        assert (out1 / "solution.json").read_bytes() == (out2 / "solution.json").read_bytes()

    def test_recorded_violation_matches_fresh_scan(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["solve", "--problem", "shift", "--out", str(out)]) == 0
        cfg = cli.RunConfig(problem="shift").resolved()
        problem, basis = cli._build(cfg)
        _, cand = cli._grid_specs(cfg)
        _, certificate, doc = silp.solution_from_json((out / "solution.json").read_text())
        lattice = model.pair_lattice(problem, model.state_grid_points(problem, cand.state),
                                     model.control_grid_points(problem, cand.control))
        min_rc, _, _ = silp.scan_candidates(problem, basis, certificate, lattice,
                                             cand.max_new_columns, cfg.tol)
        assert doc["max_dual_violation"] == max(0.0, -min_rc)

    def test_epsilon_sets_horizon_unless_steps_given(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        base = ["--problem", "shift", "--out", out]
        assert cli.main(["solve"] + base) == 0
        assert cli.main(["rollout"] + base + ["--epsilon", "1e-12"]) == 0
        assert "horizon 40," in capsys.readouterr().out
        assert cli.main(["rollout"] + base + ["--epsilon", "1e-12", "--steps", "7"]) == 0
        assert "horizon 7," in capsys.readouterr().out

    def test_strong_duality_rederived_from_atoms(self, tmp_path):
        out = tmp_path / "run"
        base = ["--problem", "shift", "--out", str(out)]
        assert cli.main(["solve"] + base) == 0
        assert cli.main(["rollout"] + base) == 0
        sol = json.loads((out / "solution.json").read_text())
        for atom in sol["atoms"]:
            if atom[0][0] > 0:
                atom[2] *= 1.5
        (out / "solution.json").write_text(json.dumps(sol))
        assert cli.main(["verify"] + base) == 1
        report = (out / "report.txt").read_text()
        assert "FAIL strong duality" in report

    def test_heuristic_rollout(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = shift_config(tmp_path, out)
        cli.main(["solve", "--config", cfg_path])
        assert cli.main(["rollout", "--config", cfg_path, "--policy", "heuristic"]) == 0
        _, controls, meta = __import__("omcontrol").synthesis.read_trajectory_csv(
            out / "trajectory.csv")
        np.testing.assert_allclose(controls, 0.0, atol=1e-12)
        assert meta["truncated_value"] == pytest.approx(0.4, abs=1e-6)

    def test_report_gives_the_truncation_bound_after_the_gap(self, tmp_path):
        # at alpha = 0.999, 50 steps leave a discounted tail of up to 0.999^51 / 0.001 * 2:
        # the gap FAIL is within the truncation bound, and the report shows both
        out = tmp_path / "run"
        cfg_path = tmp_path / "a999.cfg"
        cfg_path.write_text(
            "problem = example1\nalpha = 0.999\ndegree = 3\nstate_grid = 7\n"
            "control_grid = 7\ncandidate_state = 9\ncandidate_control = 7\n"
            "rollout_control_grid = 21\nvi_state_grid = 11\nvi_control_grid = 5\n"
            f"steps = 50\nout = {out}\n")
        for stage, code in (("solve", 0), ("rollout", 0), ("verify", 1)):
            assert cli.main([stage, "--config", str(cfg_path)]) == code
        _, _, meta = synthesis.read_trajectory_csv(out / "trajectory.csv")
        assert meta["truncation_bound"] == pytest.approx(0.999 ** 51 / 0.001 * 2.0, rel=1e-5)
        lines = (out / "report.txt").read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("FAIL gap certificate: "))
        assert lines[at + 1] == f"INFO truncation bound: {meta['truncation_bound']:.3e}"
        gap = float(lines[at].split(": ")[1].split(" ")[0])
        assert 0.35 < gap < meta["truncation_bound"]


class TestVerifyLattice:
    def test_verify_masks_each_oracle_pair_once(self, tmp_path, monkeypatch):
        # the oracle's node x control lattice is built once, by value iteration, and
        # priced once, for stationarity and the shifted inequality alike; only the one-step
        # identity evaluates f at the oracle's controls again, once per visited state.
        # Every f evaluation is counted per (y, u) pair: besides those, f runs once per
        # rollout pair (its one-step value) and once per atom (the measure residuals)
        out = tmp_path / "run"
        base = ["--problem", "shift", "--out", str(out)]
        assert cli.main(["solve"] + base) == 0
        assert cli.main(["rollout"] + base) == 0
        seen, paused = collections.Counter(), []
        factory, kappa = model.PROBLEM_REGISTRY["shift"], verify.estimate_kappa

        def counted_problem(**kwargs):
            problem = factory(**kwargs)

            def counted_f(states, controls):
                if not paused:
                    seen.update((y.tobytes(), u.tobytes())
                                for y, u in zip(np.atleast_2d(states), np.atleast_2d(controls)))
                return problem.dynamics(states, controls)
            return dataclasses.replace(problem, dynamics=counted_f)

        def uncounted_kappa(*args, **kwargs):
            # its LP grid is the solve's base grid, which here has the oracle's points
            paused.append(None)
            try:
                return kappa(*args, **kwargs)
            finally:
                paused.pop()

        monkeypatch.setitem(model.PROBLEM_REGISTRY, "shift", counted_problem)
        monkeypatch.setattr(verify, "estimate_kappa", uncounted_kappa)
        assert cli.main(["verify"] + base) == 0

        cfg = cli.RunConfig(problem="shift").resolved()
        problem, _ = cli._build(cfg)
        nodes = model.state_grid_points(problem, cfg.vi_state_grid)
        controls = model.control_grid_points(problem, cfg.vi_control_grid)
        states, moves, _ = synthesis.read_trajectory_csv(out / "trajectory.csv")
        measure, _, _ = silp.solution_from_json((out / "solution.json").read_text())
        visits = collections.Counter(y.tobytes() for y in states)
        assert visits[nodes[0].tobytes()] == cfg.steps  # y = 0 after the first step
        expected = collections.Counter()
        for y in nodes:
            for u in controls:
                expected[(y.tobytes(), u.tobytes())] = 1  # the lattice
        for y in states:
            for u in controls:
                expected[(y.tobytes(), u.tobytes())] += 1  # the one-step identity
        for ys, us in ((states, moves), (measure.states, measure.controls)):
            expected.update((y.tobytes(), u.tobytes()) for y, u in zip(ys, us))
        assert seen == expected

    def test_verify_prices_the_oracle_lattice_once(self, tmp_path, monkeypatch):
        # stationarity and the shifted inequality read one minimum reduced cost
        out = tmp_path / "run"
        base = ["--problem", "shift", "--out", str(out)]
        assert cli.main(["solve"] + base) == 0
        assert cli.main(["rollout"] + base) == 0
        scan, scans = model.PairLattice.scan, []

        def counted_scan(lattice, psi):
            scans.append(len(lattice.states))
            return scan(lattice, psi)

        monkeypatch.setattr(model.PairLattice, "scan", counted_scan)
        assert cli.main(["verify"] + base) == 0
        cfg = cli.RunConfig(problem="shift").resolved()
        problem, _ = cli._build(cfg)
        assert scans == [len(model.state_grid_points(problem, cfg.vi_state_grid))]


class TestVertexChoice:
    """Shift at degree 8 has a degenerate dual: the optimal vertex the simplex
    reaches decides the certificate unless one is selected on the optimal face.
    Without selection the minimizer rollout read 1.313 (cold rounds) or 1.159
    (warm-started rounds) against the exact 0.4, and verify failed 4 checks.
    """

    def config(self, tmp_path, out):
        return shift_config(tmp_path, out, "degree = 8\n"
                            "rollout_control_grid = 1001\n"
                            "vi_state_grid = 21\n"
                            "vi_control_grid = 21\n"
                            "tol = 1e-6\n"
                            "pivot_tol = 1e-9\n"
                            "steps = 50\n"
                            "slack = 1e-6\n"
                            "psi_slack = 1e-6\n"
                            "gap_slack = 1e-6\n")

    def run_pipeline(self, tmp_path, monkeypatch):
        margins = []
        select = silp.select_certificate

        def counting(*args, **kwargs):
            out = select(*args, **kwargs)
            margins.append(out[1])
            return out

        monkeypatch.setattr(silp, "select_certificate", counting)
        out = tmp_path / "run"
        cfg_path = self.config(tmp_path, out)
        assert cli.main(["solve", "--config", cfg_path]) == 0
        assert cli.main(["rollout", "--config", cfg_path]) == 0
        _, _, meta = synthesis.read_trajectory_csv(out / "trajectory.csv")
        assert meta["truncated_value"] == pytest.approx(0.4, abs=1e-9)
        assert cli.main(["verify", "--config", cfg_path]) == 0
        assert "FAIL" not in (out / "report.txt").read_text()
        summary = (out / "summary.txt").read_text()
        assert "lp pivots" in summary and "certificate margin" in summary
        return margins

    def test_warm_started_vertex_passes_verify(self, tmp_path, monkeypatch):
        margins = self.run_pipeline(tmp_path, monkeypatch)
        assert margins and all(m > 0.0 for m in margins)

    def test_cold_vertex_passes_verify(self, tmp_path, monkeypatch):
        # every round solved cold: its vertex needs more than one select-and-rescan pass
        solve = silp.solve
        monkeypatch.setattr(silp, "solve", lambda lp, **kw: solve(lp, **{**kw, "start": None}))
        margins = self.run_pipeline(tmp_path, monkeypatch)
        assert len(margins) >= 2 and all(m > 0.0 for m in margins)


class TestExample1Pipeline:
    def test_full_pipeline_all_pass(self, tmp_path):
        out = tmp_path / "e1"
        base = ["--problem", "example1", "--out", str(out), "--batch", "32"]
        assert cli.main(["solve"] + base) == 0
        sol = json.loads((out / "solution.json").read_text())
        assert -10.35 <= sol["mu"] / 0.1 <= -9.95
        assert sol["max_dual_violation"] <= 1e-6

        assert cli.main(["rollout"] + base + ["--policy", "heuristic"]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,y1,y2,u1,u2"
        assert lines[1] == "0,0.5,0.25,-1,1"
        assert (out / "trajectory.svg").read_text().count("<circle") >= 20

        assert cli.main(["verify"] + base) == 0
        report = (out / "report.txt").read_text()
        assert "FAIL" not in report


class TestErrorPaths:
    def test_missing_config_file(self, capsys):
        assert cli.main(["solve", "--config", "/nonexistent/path.cfg"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_problem(self, capsys, tmp_path):
        assert cli.main(["solve", "--problem", "bogus", "--out", str(tmp_path / "o")]) == 1
        assert "unknown problem" in capsys.readouterr().err

    def test_rollout_requires_solution(self, tmp_path, capsys):
        cfg_path = shift_config(tmp_path, tmp_path / "empty")
        assert cli.main(["rollout", "--config", cfg_path]) == 1
        assert "run solve first" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,field,solved,run", [("--y0=0.2", "y0", "[0.2]", "[0.4]"),
                                                      ("--degree=2", "degree", "2", "3")])
    def test_solution_for_another_problem_is_refused(self, tmp_path, capsys, flag, field,
                                                      solved, run):
        out = tmp_path / "run"
        cfg_path = shift_config(tmp_path, out)
        assert cli.main(["solve", "--config", cfg_path]) == 0
        assert cli.main(["rollout", "--config", cfg_path]) == 0
        assert cli.main(["solve", "--config", cfg_path, flag]) == 0
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        for stage in ("rollout", "verify"):
            assert cli.main([stage, "--config", cfg_path]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"solved for {field} = {solved}, this run has {field} = {run}" in err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == files
        assert "report.txt" not in files

    def test_trajectory_for_another_run_is_refused(self, tmp_path, capsys):
        # the solution matches the run at y0 = 0.2, but the trajectory was rolled out from 0.4
        out = tmp_path / "run"
        base = ["--problem", "shift", "--out", str(out)]
        assert cli.main(["solve", *base]) == 0
        assert cli.main(["rollout", *base]) == 0
        assert cli.main(["solve", *base, "--y0=0.2"]) == 0
        capsys.readouterr()
        assert cli.main(["verify", *base, "--y0=0.2"]) == 1
        assert capsys.readouterr().err == (
            f"error: {out / 'trajectory.csv'} was rolled out for y0 = [0.4], this run has "
            "y0 = [0.2]; run rollout again\n")
        assert not (out / "report.txt").exists()

    def test_unstamped_trajectory_is_still_read(self, tmp_path):
        out = tmp_path / "run"
        base = ["--problem", "shift", "--out", str(out)]
        assert cli.main(["solve", *base]) == 0
        assert cli.main(["rollout", *base]) == 0
        code = cli.main(["verify", *base])
        report = (out / "report.txt").read_bytes()
        traj = out / "trajectory.csv"
        lines = traj.read_text().splitlines(keepends=True)
        assert lines[-1].startswith("# run,")
        traj.write_text("".join(lines[:-1]))
        (out / "report.txt").unlink()
        assert cli.main(["verify", *base]) == code
        assert (out / "report.txt").read_bytes() == report

    @pytest.mark.parametrize("stage", [["rollout"], ["rollout", "--policy", "heuristic"],
                                       ["verify"]], ids=["minimizer", "heuristic", "verify"])
    def test_solution_without_atoms_is_refused(self, tmp_path, capsys, stage):
        out = tmp_path / "run"
        base = ["--problem", "shift", "--out", str(out)]
        assert cli.main(["solve", *base]) == 0
        assert cli.main(["rollout", *base]) == 0
        doc = json.loads((out / "solution.json").read_text())
        doc["atoms"] = []
        (out / "solution.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main([*stage, *base]) == 1
        assert capsys.readouterr().err == "error: the solution has no atoms; run solve again\n"
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("stage", [["rollout"], ["rollout", "--policy", "heuristic"],
                                       ["verify"]], ids=["minimizer", "heuristic", "verify"])
    @pytest.mark.parametrize("key, value", [("lambda", "nan"), ("mu", "inf"), ("atoms", "nan")])
    def test_non_finite_solution_is_refused(self, tmp_path, capsys, stage, key, value):
        # a NaN lambda left the minimizer's tie set empty (an IndexError) and an infinite
        # mu printed gap inf; now each stage refuses the file and writes nothing
        out = tmp_path / "run"
        base = ["--problem", "shift", "--out", str(out)]
        assert cli.main(["solve", *base]) == 0
        assert cli.main(["rollout", *base]) == 0
        doc = json.loads((out / "solution.json").read_text())
        if key == "lambda":
            doc["lambda"][1] = float(value)
        elif key == "mu":
            doc["mu"] = float(value)
        else:
            doc["atoms"][0][2] = float(value)
        (out / "solution.json").write_text(json.dumps(doc))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert cli.main([*stage, *base]) == 1
        assert capsys.readouterr().err == (
            f"error: the solution's {key} is not finite; run solve again\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("problem, field, length, message", [
        ("example1", 0, 1, "atom states of length 1, this run needs 2"),
        ("shift", 0, 2, "atom states of length 2, this run needs 1"),
        ("shift", 1, 2, "atom controls of length 2, this run needs 1"),
        ("shift", "lambda", 3, "lambda of length 3, this run needs 4"),
    ], ids=["example1-state-cut", "shift-state-doubled", "shift-control-doubled",
            "shift-lambda-cut"])
    def test_solution_of_the_wrong_dimension_is_refused(self, tmp_path, capsys, problem, field,
                                                        length, message):
        # verify ended example1's cut atoms with an IndexError traceback in g, a cut lambda
        # with "coefficient vector of shape ...", and rollout read either without a word
        out = tmp_path / "run"
        if problem == "example1":  # a small example1 run: the refusal needs no large solve
            cfg = tmp_path / "e1.cfg"
            cfg.write_text("problem = example1\ndegree = 3\nstate_grid = 7\ncontrol_grid = 7\n"
                           "candidate_state = 9\ncandidate_control = 7\n"
                           f"rollout_control_grid = 21\nsteps = 10\nout = {out}\n")
            base = ["--config", str(cfg)]
        else:
            base = ["--problem", "shift", "--out", str(out)]
        assert cli.main(["solve", *base]) == 0
        assert cli.main(["rollout", *base]) == 0
        doc = json.loads((out / "solution.json").read_text())
        if field == "lambda":
            doc["lambda"] = doc["lambda"][:length]
        else:  # every atom's state (0) or control (1), cut or repeated to ``length``
            for atom in doc["atoms"]:
                atom[field] = (atom[field] * 2)[:length]
        (out / "solution.json").write_text(json.dumps(doc))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        for stage in (["rollout"], ["rollout", "--policy", "heuristic"], ["verify"]):
            assert cli.main([*stage, *base]) == 1
            assert capsys.readouterr().err == (
                f"error: {out / 'solution.json'} holds {message}; run solve again\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("field, part", [(0, "state"), (1, "control")])
    def test_ragged_atoms_are_refused(self, tmp_path, capsys, field, part):
        # the last atom's state or control doubled: rollout ended with numpy's
        # "inhomogeneous shape" error; now every stage names the atom and writes nothing
        out = tmp_path / "run"
        base = ["--problem", "shift", "--out", str(out)]
        assert cli.main(["solve", *base]) == 0
        assert cli.main(["rollout", *base]) == 0
        doc = json.loads((out / "solution.json").read_text())
        k = len(doc["atoms"]) - 1
        assert k >= 1
        doc["atoms"][k][field] *= 2
        (out / "solution.json").write_text(json.dumps(doc))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        for stage in (["rollout"], ["rollout", "--policy", "heuristic"], ["verify"]):
            assert cli.main([*stage, *base]) == 1
            assert capsys.readouterr().err == (
                f"error: the solution's atom {k} has a {part} of length 2, atom 0 one of "
                "length 1; run solve again\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("discard, message", [
        ("1.5", "threshold must lie in [0, 1)"),
        ("0.999", "every atom weighs less than 0.999"),
    ], ids=["out-of-range", "every-atom-dropped"])
    def test_refused_discard_writes_no_trajectory(self, tmp_path, capsys, discard, message):
        # the threshold is checked before the rollout, so a fresh directory holding the
        # solution only gets no trajectory file, nor an SVG
        solved, out = tmp_path / "solved", tmp_path / "fresh"
        assert cli.main(["solve", "--problem", "shift", "--out", str(solved)]) == 0
        out.mkdir()
        (out / "solution.json").write_bytes((solved / "solution.json").read_bytes())
        capsys.readouterr()
        assert cli.main(["rollout", "--problem", "shift", "--out", str(out),
                         "--discard", discard]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [path.name for path in out.iterdir()] == ["solution.json"]

    @pytest.mark.parametrize("key, value, message", [
        ("tol", "-1", "tol must be nonnegative, got -1.0"),
        ("tol", "nan", "tol must be nonnegative, got nan"),
        ("pivot_tol", "0", "pivot_tol must be positive and finite, got 0.0"),
        ("pivot_tol", "-1", "pivot_tol must be positive and finite, got -1.0"),
        ("pivot_tol", "inf", "pivot_tol must be positive and finite, got inf"),
    ], ids=["tol-negative", "tol-nan", "pivot-tol-zero", "pivot-tol-negative",
            "pivot-tol-inf"])
    def test_refused_tolerance_writes_nothing(self, tmp_path, capsys, key, value, message):
        out = tmp_path / "run"
        cfg_path = shift_config(tmp_path, out, f"{key} = {value}\n")
        assert cli.main(["solve", "--config", cfg_path]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("field", ["atoms", "lambda", "mu"])
    def test_solution_missing_a_field_names_file_and_field(self, tmp_path, capsys, field):
        out = tmp_path / "run"
        base = ["--problem", "shift", "--out", str(out)]
        assert cli.main(["solve", *base]) == 0
        assert cli.main(["rollout", *base]) == 0
        doc = json.loads((out / "solution.json").read_text())
        del doc[field]
        (out / "solution.json").write_text(json.dumps(doc))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        for stage in ("rollout", "verify"):
            assert cli.main([stage, *base]) == 1
            assert capsys.readouterr().err == (
                f"error: {out / 'solution.json'} has no field '{field}'; run solve again\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("field", ["truncated_value", "truncation_bound"])
    def test_trajectory_missing_a_footer_names_file_and_field(self, tmp_path, capsys, field):
        out = tmp_path / "run"
        base = ["--problem", "shift", "--out", str(out)]
        assert cli.main(["solve", *base]) == 0
        assert cli.main(["rollout", *base]) == 0
        traj = out / "trajectory.csv"
        lines = traj.read_text().splitlines(keepends=True)
        traj.write_text("".join(line for line in lines if not line.startswith(f"# {field},")))
        capsys.readouterr()
        assert cli.main(["verify", *base]) == 1
        assert capsys.readouterr().err == (
            f"error: {traj} has no field '{field}'; run rollout again\n")
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("stage", [["rollout"], ["verify"]], ids=["rollout", "verify"])
    @pytest.mark.parametrize("doc, message", [
        ([], "the solution is not a JSON object"),
        ({"atoms": 3, "lambda": [0.0, 1.0], "mu": 0.2}, "the solution's atoms is not a list"),
        ({"atoms": [1, 2], "lambda": [0.0, 1.0], "mu": 0.2},
         "the solution's atom 0 is not a [state, control, weight] triple"),
        ({"atoms": [[[0.4], [0.0], 1.0], [[0.4], 0.0, 1.0]], "lambda": [0.0, 1.0], "mu": 0.2},
         "the solution's atom 1 is not a [state, control, weight] triple"),
        ({"atoms": [[[0.4], [0.0], 1.0]], "lambda": [0.0, 1.0], "mu": [1]},
         "the solution's mu is not a number"),
        ({"atoms": [[[0.4], [0.0], 1.0]], "lambda": [0.0, 1.0], "mu": "0.4"},
         "the solution's mu is not a number"),
        ({"atoms": [[[0.4], [0.0], 1.0]], "lambda": [0.0, 1.0], "mu": True},
         "the solution's mu is not a number"),
        ({"atoms": [[[0.4], [0.0], 1.0]], "lambda": {"a": 1}, "mu": 0.2},
         "the solution's lambda is not a list of numbers"),
        ({"atoms": [[[0.4], [0.0], 1.0]], "lambda": [0.0, "1"], "mu": 0.2},
         "the solution's lambda is not a list of numbers"),
        ({"atoms": [[[0.4], [0.0], 0.5], [["0.0"], [0.0], 0.5]], "lambda": [0.0, 1.0],
          "mu": 0.2}, "the solution's atom 1 holds a value that is not a number"),
        ({"atoms": [[[0.4], ["0.0"], 1.0]], "lambda": [0.0, 1.0], "mu": 0.2},
         "the solution's atom 0 holds a value that is not a number"),
        ({"atoms": [[[0.4], [0.0], True]], "lambda": [0.0, 1.0], "mu": 0.2},
         "the solution's atom 0 holds a value that is not a number"),
    ], ids=["top-level-list", "atoms-int", "atom-int", "control-scalar", "mu-list",
            "mu-string", "mu-bool", "lambda-dict", "lambda-string", "state-string",
            "control-string", "weight-bool"])
    def test_malformed_solution_is_refused(self, tmp_path, capsys, stage, doc, message):
        # the first three, mu-list and lambda-dict ended rollout and verify with a TypeError
        # traceback; the strings and the bools were read as numbers
        out = tmp_path / "run"
        base = ["--problem", "shift", "--out", str(out)]
        assert cli.main(["solve", *base]) == 0
        (out / "solution.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main([*stage, *base]) == 1
        assert capsys.readouterr().err == f"error: {message}; run solve again\n"
        assert not (out / "trajectory.csv").exists()
        assert not (out / "report.txt").exists()

    def test_trajectory_stamp_not_an_object_is_refused(self, tmp_path, capsys):
        # verify read a stamp that is not an object as one, and ended with a TypeError
        out = tmp_path / "run"
        base = ["--problem", "shift", "--out", str(out)]
        assert cli.main(["solve", *base]) == 0
        assert cli.main(["rollout", *base]) == 0
        traj = out / "trajectory.csv"
        lines = traj.read_text().splitlines(keepends=True)
        traj.write_text("".join('# run,"problem"\n' if line.startswith("# run,") else line
                                for line in lines))
        capsys.readouterr()
        assert cli.main(["verify", *base]) == 1
        assert capsys.readouterr().err == (
            f"error: {traj}'s run stamp is not an object; run rollout again\n")
        assert not (out / "report.txt").exists()

    def test_corrupted_solution_json(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg_path = shift_config(tmp_path, out)
        cli.main(["solve", "--config", cfg_path])
        (out / "solution.json").write_text("{not json")
        assert cli.main(["rollout", "--config", cfg_path]) == 1

    def test_policy_failure_writes_partial_csv(self, tmp_path, capsys):
        # plant duplicate atoms at the initial state so the heuristic policy
        # is ill-defined immediately; the partial trajectory is still written
        out = tmp_path / "run"
        cfg_path = shift_config(tmp_path, out)
        cli.main(["solve", "--config", cfg_path])
        sol = json.loads((out / "solution.json").read_text())
        sol["atoms"] = [[[0.4], [0.1], 0.5], [[0.4], [0.9], 0.5]]
        (out / "solution.json").write_text(json.dumps(sol))
        assert cli.main(["rollout", "--config", cfg_path, "--policy", "heuristic",
                         "--discard", "0"]) == 1
        assert "share state" in capsys.readouterr().err
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,y1,u1"
        assert all(l.startswith("#") for l in lines[1:])  # aborted before any step

    def test_policy_failure_at_t0_writes_header_only_csv(self, tmp_path, capsys):
        # two-dimensional states and controls: the aborted rollout has no step, and the
        # trajectory file holds the header and the NaN-marked footer only
        out = tmp_path / "run"
        out.mkdir()
        doc = {"atoms": [[[0.5, 0.25], [0.1, 0.1], 0.5], [[0.5, 0.25], [0.9, 0.9], 0.5]],
               "lambda": [0.0] * 64, "mu": 0.0}
        (out / "solution.json").write_text(json.dumps(doc))
        assert cli.main(["rollout", "--problem", "example1", "--out", str(out),
                         "--policy", "heuristic", "--discard", "0"]) == 1
        assert "rollout aborted after 0 steps" in capsys.readouterr().err
        assert (out / "trajectory.csv").read_text() == (
            "t,y1,y2,u1,u2\n# truncated_value,nan\n# truncation_bound,nan\n"
            '# run,{"problem": "example1", "alpha": 0.9, "y0": [0.5, 0.25], "degree": 7}\n')

    def test_verify_rejects_a_trajectory_without_steps(self, tmp_path, capsys):
        # the policy fails at t = 0, so trajectory.csv holds the header and footer only
        out = tmp_path / "run"
        cfg_path = shift_config(tmp_path, out)
        assert cli.main(["solve", "--config", cfg_path]) == 0
        sol = json.loads((out / "solution.json").read_text())
        sol["atoms"] = [[[0.4], [0.1], 0.5], [[0.4], [0.9], 0.5]]
        (out / "solution.json").write_text(json.dumps(sol))
        assert cli.main(["rollout", "--config", cfg_path, "--policy", "heuristic",
                         "--discard", "0"]) == 1
        capsys.readouterr()
        assert cli.main(["verify", "--config", cfg_path]) == 1
        assert "error: trajectory.csv has no steps" in capsys.readouterr().err
        assert not (out / "report.txt").exists()

    def test_nonconverged_solve_writes_marked_solution(self, tmp_path, capsys):
        # the 5-point base grid leaves violators after one round
        out = tmp_path / "run"
        cfg_path = shift_config(tmp_path, out)
        assert cli.main(["solve", "--config", cfg_path, "--state-grid", "5",
                         "--control-grid", "5", "--max-rounds", "1"]) == 1
        assert "not converged after 1 rounds" in capsys.readouterr().err
        doc = json.loads((out / "solution.json").read_text())
        assert doc["converged"] is False
        assert doc["rounds"] == 1 and doc["max_dual_violation"] > 1e-9
        summary = (out / "summary.txt").read_text()
        assert "converged          no (round limit of 1 reached)" in summary
        # the marked solution still feeds the rest of the pipeline
        assert cli.main(["rollout", "--config", cfg_path]) == 0
        # a converged run carries no converged key
        assert cli.main(["solve", "--config", cfg_path]) == 0
        assert "converged" not in json.loads((out / "solution.json").read_text())
        assert "converged" not in (out / "summary.txt").read_text()

    def test_lp_failure_mid_refinement_writes_marked_solution(self, tmp_path, capsys,
                                                              monkeypatch):
        # the 5-point base grid takes several rounds; from the third LP on, every solve
        # stalls: round 3's warm solve and its cold retry
        out, ref = tmp_path / "run", tmp_path / "ref"
        cfg_path = shift_config(tmp_path, out)
        flags = ["--state-grid", "5", "--control-grid", "5", "--batch", "2"]
        assert cli.main(["solve", "--config", cfg_path, *flags, "--max-rounds", "2",
                         "--out", str(ref)]) == 1
        lp_solve, calls = silp.solve_equality_lp, []

        def stalls_from_third(*args, **kwargs):
            calls.append(None)
            if len(calls) >= 3:
                raise SolverStalled("pivot budget 7 exhausted")
            return lp_solve(*args, **kwargs)

        monkeypatch.setattr(silp, "solve_equality_lp", stalls_from_third)
        capsys.readouterr()
        assert cli.main(["solve", "--config", cfg_path, *flags]) == 1
        assert len(calls) == 4
        assert "round 3: SolverStalled: pivot budget 7 exhausted" in capsys.readouterr().err
        doc = json.loads((out / "solution.json").read_text())
        assert doc["converged"] is False and doc["rounds"] == 2
        # round 2's result, as a run stopped by a limit of 2 rounds writes it
        assert doc == json.loads((ref / "solution.json").read_text())
        summary = (out / "summary.txt").read_text()
        assert summary.endswith(
            "converged          no (round 3 failed: SolverStalled: pivot budget 7 exhausted)\n")
        assert "round limit" not in summary
        assert (summary.splitlines()[:-1]
                == (ref / "summary.txt").read_text().splitlines()[:-1])

    def test_lp_failure_in_round_one_writes_marked_summary(self, tmp_path, capsys):
        # example1's degree-8 base LP is infeasible at (0.91, 0.9): round 1 has no result, so
        # the summary says why and an earlier run's solution is removed
        out = tmp_path / "run"
        out.mkdir()
        (out / "solution.json").write_text("{}\n")
        config = str(Path(__file__).resolve().parent.parent / "perfbench" / "workloads"
                     / "example1.cfg")
        assert cli.main(["solve", "--config", config, "--y0=0.91,0.9", "--degree", "8",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: phase-I residual ") and err.count("\n") == 1
        assert not (out / "solution.json").exists()
        summary = (out / "summary.txt").read_text().splitlines()
        assert summary[:4] == ["problem            example1", "discount           0.9",
                               "initial state      (0.91, 0.9)",
                               "basis functions    81 (degree cap 8)"]
        assert summary[4].startswith(
            "converged          no (round 1 failed: LpInfeasible: phase-I residual ")
        assert len(summary) == 5
        assert cli.main(["rollout", "--config", config, "--y0=0.91,0.9", "--degree", "8",
                         "--out", str(out)]) == 1
        assert "run solve first" in capsys.readouterr().err

    def test_failed_kappa_resolve_keeps_report(self, tmp_path, monkeypatch):
        def infeasible(*args, **kwargs):
            raise LpInfeasible("phase-I residual 9.172e-03")

        out = tmp_path / "run"
        cfg_path = shift_config(tmp_path, out)
        assert cli.main(["solve", "--config", cfg_path]) == 0
        assert cli.main(["rollout", "--config", cfg_path]) == 0
        monkeypatch.setattr(verify, "estimate_kappa", infeasible)
        assert cli.main(["verify", "--config", cfg_path]) == 0
        report = (out / "report.txt").read_text()
        assert "INFO kappa estimate: n/a (phase-I residual 9.172e-03)\n" in report
        assert "FAIL" not in report

    def test_nonconverged_oracle_writes_marked_report(self, tmp_path, capsys, monkeypatch):
        # three full backups leave the alpha = 0.999 oracle far from its fixed point
        plain = verify.value_iteration
        monkeypatch.setattr(verify, "value_iteration", functools.partial(plain, max_iter=3))
        out = tmp_path / "run"
        cfg_path = tmp_path / "slow.cfg"
        cfg_path.write_text(
            "problem = example1\nalpha = 0.999\ndegree = 3\nstate_grid = 7\n"
            "control_grid = 7\ncandidate_state = 9\ncandidate_control = 7\n"
            "rollout_control_grid = 21\nvi_state_grid = 11\nvi_control_grid = 5\n"
            f"steps = 50\nout = {out}\n")
        assert cli.main(["solve", "--config", str(cfg_path)]) == 0
        assert cli.main(["rollout", "--config", str(cfg_path)]) == 0
        assert cli.main(["verify", "--config", str(cfg_path)]) == 1
        assert "error:" not in capsys.readouterr().err
        lines = (out / "report.txt").read_text().splitlines()
        prefix = "FAIL value iteration converged: "
        failed = [line for line in lines if line.startswith(prefix)]
        assert len(failed) == 1
        diff, tol = (float(v) for v in failed[0][len(prefix):].rstrip(")").split(" (tol "))
        assert tol == pytest.approx(1e-8 * (1 - 0.999) / 0.999, rel=1e-3)  # 4 digits printed
        assert diff > tol
        with pytest.raises(NotConverged) as err:
            plain(model.builtin_problem("example1", alpha=0.999), (11, 11), (5, 5),
                  tol=1e-8, max_iter=3)
        assert diff == float(f"{err.value.grid.sweep_diffs[-1]:.3e}")
        # the other checks still ran, against the last iterate
        assert any(line.startswith("PASS stationarity residual") for line in lines)
        assert lines[-2].startswith("INFO oracle value at y0: ")

    def test_zero_steps_rejected(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg_path = shift_config(tmp_path, out)
        cli.main(["solve", "--config", cfg_path])
        assert cli.main(["rollout", "--config", cfg_path, "--steps", "0"]) == 1
        assert "at least 1" in capsys.readouterr().err

    def test_horizon_zero_from_epsilon_rejected(self, tmp_path, capsys):
        # epsilon large enough for a zero truncation horizon meets the same floor as --steps
        out = str(tmp_path / "run")
        base = ["--problem", "shift", "--out", out]
        assert cli.main(["solve"] + base) == 0
        assert cli.main(["rollout"] + base + ["--epsilon", "10"]) == 1
        assert "at least 1" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = shift_config(tmp_path, out)
        cfg = cli.read_config_file(cfg_path)
        args = cli.build_parser().parse_args(
            ["solve", "--config", cfg_path, "--alpha", "0.6", "--degree", "2"])
        merged = cli._apply_flags(cfg, args)
        assert merged.alpha == 0.6
        assert merged.degree == 2
        assert merged.state_grid == (21,)  # untouched keys survive

    def test_candidate_grid_flag_forms(self):
        cfg = cli.RunConfig()
        args = cli.build_parser().parse_args(["solve", "--candidate-grid", "65:17"])
        merged = cli._apply_flags(cfg, args)
        assert merged.candidate_state == (65,) and merged.candidate_control == (17,)
        args = cli.build_parser().parse_args(["solve", "--candidate-grid", "33"])
        merged = cli._apply_flags(cfg, args)
        assert merged.candidate_state == (33,)

    def test_control_grid_flag_is_stage_local(self):
        cfg = cli.RunConfig()
        solve_args = cli.build_parser().parse_args(["solve", "--control-grid", "13"])
        assert cli._apply_flags(cfg, solve_args).control_grid == (13,)
        roll_args = cli.build_parser().parse_args(["rollout", "--control-grid", "13"])
        merged = cli._apply_flags(cfg, roll_args)
        assert merged.rollout_control_grid == (13,)
        assert merged.control_grid is None
