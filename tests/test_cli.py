"""End-to-end runs of the command-line front end.

Everything goes through ``main(argv)`` in-process so exit codes, stdout
and emitted CSVs can all be checked without spawning subprocesses.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from wpomdp import cli, filtering, value_iteration
from wpomdp.cli import main
from wpomdp.kalman import KalmanSpec, start_belief
from wpomdp.measures import EXPLICIT_TABLE, StateGrid
from wpomdp.model import certify
from wpomdp.sampling import reachability_tree
from wpomdp.serialize import load_model, save_model
from wpomdp.synthetic import pbvi_toy, random_finite_model, revealing_toy


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def coarse_spec(directory):
    """A spec file for the reference model on a grid of step 1.0 (17 states)."""
    p = directory / "coarse_spec.json"
    p.write_text('{"grid_step": 1.0}')
    return p


@pytest.fixture(scope="module")
def toy_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("models") / "toy.json"
    save_model(pbvi_toy(), p)
    return p


@pytest.fixture(scope="module")
def revealing_file(tmp_path_factory):
    # its reachability sample closes after one step, so both solver
    # routes are exact on it and `compare` must come back clean
    p = tmp_path_factory.mktemp("models") / "revealing.json"
    save_model(revealing_toy(), p)
    return p


@pytest.fixture(scope="module")
def kalman_file(tmp_path_factory):
    # coarse state grid keeps every CLI test fast; the default 33
    # observation nodes are kept because fewer cannot resolve the
    # likelihood and the load-time mass gate rejects the model
    d = tmp_path_factory.mktemp("models")
    p = d / "kalman.json"
    rc = main(["example", "kalman", "--out", str(p), "--spec", str(coarse_spec(d))])
    assert rc == 0
    return p


class TestExample:
    def test_writes_loadable_model_with_start_belief(self, kalman_file, capsys):
        model, init = load_model(kalman_file)
        assert model.n_states == 17 and model.n_actions == 3 and model.n_obs == 33
        assert init is not None
        # bell-shaped start: peaked at the middle of the grid
        assert int(np.argmax(init)) == model.n_states // 2
        assert init.tobytes() == start_belief(model).weights.tobytes()

    def test_reports_shape(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        main(["example", "kalman", "--out", str(out), "--spec", str(coarse_spec(tmp_path))])
        assert "17 states, 3 actions, 33 nodes" in capsys.readouterr().out

    def test_no_spec_is_the_empty_spec(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        assert main(["example", "kalman", "--out", str(tmp_path / "a.json")]) == 0
        assert main(["example", "kalman", "--out", str(tmp_path / "b.json"),
                     "--spec", str(empty)]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_spec_file_overrides_flags(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"grid_lo": -4.0, "grid_hi": 4.0, "grid_step": 1.0, "n_obs_nodes": 21}')
        out = tmp_path / "m.json"
        assert main(["example", "kalman", "--out", str(out), "--spec", str(spec)]) == 0
        model, _ = load_model(out)
        assert model.n_states == 9 and model.n_obs == 21

    @pytest.mark.parametrize(
        "text", [None, "{not json", '{"gainz": [-0.5, 0.5]}'],
        ids=["missing", "malformed", "unknown_field"],
    )
    def test_bad_spec_file_is_a_one_line_error(self, text, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        if text is not None:
            spec.write_text(text)
        rc = main(["example", "kalman", "--out", str(tmp_path / "m.json"), "--spec", str(spec)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ModelValidationError") and err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "text",
        [
            '{"reward_fn": 3}', '{"obs_mean": "x"}', '{"n_obs_nodes": 2.5}',
            '{"n_obs_nodes": 33.0}', '{"drift": "x"}', '{"drift": 1%s}' % ("0" * 400),
            # grids that cannot be built: 160,001 states, and no finite count
            '{"grid_step": 1e-4}', '{"grid_step": 1e-320}',
        ],
        ids=[
            "reward_fn_int", "obs_mean", "n_obs_nodes_fraction", "n_obs_nodes_float", "drift_str",
            "drift_401_digits", "grid_step_1e-4", "grid_step_1e-320",
        ],
    )
    def test_mistyped_spec_field_is_a_one_line_error(self, text, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        rc = main(["example", "kalman", "--out", str(tmp_path / "m.json"), "--spec", str(spec)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "text",
        [
            '{"gains": [NaN, 0.5]}', '{"gains": [false, 0.5]}', '{"gains": ["x", 0.5]}',
            '{"gains": [1%s, 0.1]}' % ("0" * 400),
        ],
        ids=["nan", "bool", "str", "401_digits"],
    )
    def test_mistyped_gain_is_a_one_line_error(self, text, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(text)  # json reads NaN
        rc = main(["example", "kalman", "--out", str(tmp_path / "m.json"), "--spec", str(spec)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ModelValidationError: ") and err.count("\n") == 1
        assert "gains" in err
        assert not (tmp_path / "m.json").exists()


COMMON = {"--model", "--out-dir", "--depth", "--cap", "--epsilon", "--max-iters"}


class TestOptionInventory:
    """Every subcommand's flags, so that a deleted option cannot come back unnoticed."""

    EXPECTED = {
        "validate": {"--model"},
        "solve-vi": COMMON | {"--parallel"},
        "solve-sets": COMMON | {"--algorithm"},
        "filter": {"--model", "--out-dir", "--steps", "--seed"},
        "rollout": COMMON | {"--parallel", "--horizon", "--n-paths", "--seed"},
        "compare": COMMON | {"--parallel", "--algorithm"},
        "example": {"which", "--out", "--out-dir", "--spec"},
    }

    def test_flags_of_every_subcommand(self):
        ap = cli.build_parser()
        (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: {
                flag
                for action in p._actions
                if not isinstance(action, argparse._HelpAction)
                for flag in (action.option_strings or [action.dest])
            }
            for name, p in sub.choices.items()
        }
        assert got == self.EXPECTED


def readme_cli_section():
    """README's ``## CLI`` section: (its first code block, the prose around it)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index("\n## CLI\n")
    section = text[start:text.index("\n## ", start + 1)]
    before, block, after = section.split("```", 2)
    return block, before + after


class TestReadmeCli:
    """The README's CLI section names only what the parser accepts."""

    def test_every_command_line_parses(self):
        ap = cli.build_parser()
        lines = [line.split("#")[0].split() for line in readme_cli_section()[0].splitlines()
                 if line.startswith("wpomdp ")]
        assert lines
        for words in lines:
            try:
                ap.parse_args(words[1:])
            except SystemExit:
                pytest.fail(f"README line does not parse: {' '.join(words)}")

    def test_every_backticked_flag_exists(self):
        ap = cli.build_parser()
        (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
        known = {f for p in sub.choices.values() for a in p._actions for f in a.option_strings}
        spans = re.findall(r"`([^`]+)`", readme_cli_section()[1])
        named = {f for span in spans for f in re.findall(r"--[a-z][a-z-]*", span)}
        assert named and named - known == set()

    def test_spec_fields_are_the_json_settable_ones(self):
        # every field is data, so the README lists them all
        prose = " ".join(readme_cli_section()[1].split())
        listed = prose.split("`KalmanSpec` fields (", 1)[1].split(")", 1)[0]
        assert re.findall(r"`(\w+)`", listed) == [f.name for f in dataclasses.fields(KalmanSpec)]


class TestValidate:
    def test_prints_certificate(self, toy_file, capsys):
        assert main(["validate", "--model", str(toy_file)]) == 0
        out = capsys.readouterr().out
        assert "gamma" in out and "r_bar" in out

    def test_missing_model_is_a_clean_failure(self, tmp_path, capsys):
        rc = main(["validate", "--model", str(tmp_path / "nope.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ModelValidationError")

    def test_garbled_model_is_a_clean_failure(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["validate", "--model", str(p)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_start_belief_is_a_one_line_error(self, tmp_path, capsys):
        # make_measure would clamp -0.5 to 0 and solve from the Dirac at state 1
        p = tmp_path / "revealing.json"
        save_model(revealing_toy(), p)
        p.write_text(json.dumps({**json.loads(p.read_text()), "init_belief": [-0.5, 1.5]}))
        rc = main(["solve-vi", "--model", str(p), "--out-dir", str(tmp_path / "out"),
                   "--depth", "1", "--cap", "10"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ModelValidationError: ") and err.count("\n") == 1
        assert "init_belief" in err


    def test_overflowing_start_belief_is_a_one_line_error(self, tmp_path, capsys):
        # each weight is finite, but their total is not
        p = tmp_path / "revealing.json"
        save_model(revealing_toy(), p)
        p.write_text(json.dumps({**json.loads(p.read_text()), "init_belief": [1e308, 1e308]}))
        rc = main(["solve-vi", "--model", str(p), "--out-dir", str(tmp_path / "out"),
                   "--depth", "1", "--cap", "10"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ModelValidationError: ") and err.count("\n") == 1
        assert "init_belief" in err

    @pytest.mark.parametrize("command", ["validate", "solve-vi"])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["weight"].update(x0=float("inf")),
            lambda doc: doc["weight"].update(x0=float("nan")),
            lambda doc: doc["states"]["points"].__setitem__(-1, float("inf")),
        ],
        ids=["anchor_inf", "anchor_nan", "grid_point_inf"],
    )
    def test_non_finite_model_number_is_a_one_line_error(
        self, edit, command, kalman_file, tmp_path, capsys
    ):
        # json reads and writes Infinity and NaN
        doc = json.loads(kalman_file.read_text())
        edit(doc)
        p = tmp_path / "model.json"
        p.write_text(json.dumps(doc))
        argv = [command, "--model", str(p)]
        if command == "solve-vi":
            argv += ["--out-dir", str(tmp_path / "out"), "--depth", "1", "--cap", "5"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err

    def test_infinite_table_entry_is_a_one_line_error(self, tmp_path, capsys):
        # a 3-point explicit table, saved, with one entry set to Infinity
        model = random_finite_model(0, n_states=3, n_actions=2, n_obs=2)
        table = np.abs(np.arange(3.0)[:, None] - np.arange(3.0)[None, :])
        grid = StateGrid(np.arange(3.0), EXPLICIT_TABLE, table)
        p = tmp_path / "table.json"
        save_model(dataclasses.replace(model, state_grid=grid), p)
        doc = json.loads(p.read_text())
        doc["states"]["distance_table"][0][2] = float("inf")
        p.write_text(json.dumps(doc))
        assert main(["validate", "--model", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: DimensionMismatch: distance table entries must be finite\n"

    def test_asymmetric_table_is_a_one_line_error(self, tmp_path, capsys):
        # a 3-point explicit table, saved, with d(1, 0) moved 5e-6 off d(0, 1)
        model = random_finite_model(0, n_states=3, n_actions=2, n_obs=2)
        table = np.abs(np.arange(3.0)[:, None] - np.arange(3.0)[None, :])
        grid = StateGrid(np.arange(3.0), EXPLICIT_TABLE, table)
        p = tmp_path / "table.json"
        save_model(dataclasses.replace(model, state_grid=grid), p)
        doc = json.loads(p.read_text())
        doc["states"]["distance_table"][1][0] = 1.000005
        p.write_text(json.dumps(doc))
        assert main(["validate", "--model", str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: MetricKindMismatch: table must be symmetric with zero diagonal\n"


class TestUsageErrors:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_algorithm_choice(self, toy_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve-sets", "--model", str(toy_file), "--algorithm", "bogus"])
        assert exc.value.code == 2

    def test_rollout_has_no_coarse_dim(self, toy_file):
        # the rolled-out policy is always the exact nearest-anchor selector
        with pytest.raises(SystemExit) as exc:
            main(["rollout", "--model", str(toy_file), "--coarse-dim", "24"])
        assert exc.value.code == 2


class TestSolveVi:
    def test_huge_epsilon_means_one_sweep(self, toy_file, tmp_path, capsys):
        rc = main(
            ["solve-vi", "--model", str(toy_file), "--out-dir", str(tmp_path),
             "--depth", "2", "--epsilon", "1e10"]
        )
        assert rc == 0
        assert "1 iterations" in capsys.readouterr().out
        header, rows = read_csv(tmp_path / "convergence.csv")
        assert header == ["iter", "sup_diff", "bound"]
        assert len(rows) == 1 and rows[0][0] == "1"

    def test_values_cover_the_sample(self, toy_file, tmp_path):
        main(
            ["solve-vi", "--model", str(toy_file), "--out-dir", str(tmp_path),
             "--depth", "2", "--epsilon", "0.05"]
        )
        header, vrows = read_csv(tmp_path / "values.csv")
        assert header == ["belief_id", "value", "action"]
        assert [r[0] for r in vrows] == [str(i) for i in range(len(vrows))]
        assert all(r[2] in ("0", "1") for r in vrows)
        _, crows = read_csv(tmp_path / "convergence.csv")
        # bound column is the a-priori schedule: monotone decreasing
        bounds = [float(r[2]) for r in crows]
        assert bounds == sorted(bounds, reverse=True)
        assert bounds[-1] <= 0.05

    def test_sample_too_large_for_memory_is_a_one_line_error(
        self, toy_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(value_iteration, "_physical_memory", lambda: 4096)
        rc = main(["solve-vi", "--model", str(toy_file), "--out-dir", str(tmp_path), "--depth", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SolverFailure: the VI precompute needs about")
        assert err.count("\n") == 1 and "MB" in err
        assert not (tmp_path / "values.csv").exists()

    def test_out_dir_env_fallback(self, toy_file, tmp_path, monkeypatch):
        monkeypatch.setenv("WPOMDP_OUT_DIR", str(tmp_path / "artifacts"))
        main(["solve-vi", "--model", str(toy_file), "--depth", "1", "--epsilon", "1"])
        assert (tmp_path / "artifacts" / "values.csv").exists()

    def test_flag_beats_env(self, toy_file, tmp_path, monkeypatch):
        monkeypatch.setenv("WPOMDP_OUT_DIR", str(tmp_path / "ignored"))
        main(
            ["solve-vi", "--model", str(toy_file), "--out-dir", str(tmp_path / "flag"),
             "--depth", "1", "--epsilon", "1"]
        )
        assert (tmp_path / "flag" / "values.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestSolveSets:
    def test_artifacts(self, toy_file, tmp_path):
        rc = main(
            ["solve-sets", "--model", str(toy_file), "--out-dir", str(tmp_path),
             "--depth", "2", "--epsilon", "0.05"]
        )
        assert rc == 0
        header, arows = read_csv(tmp_path / "alphas.csv")
        assert header == ["fn_id", "grid_point", "value", "lip_const"]
        assert len(arows) >= 2  # at least one function over two grid points
        theader, trows = read_csv(tmp_path / "argmax_trace.csv")
        assert theader == ["belief_id", "winning_fn", "action"]
        n_fns = len({r[0] for r in arows})
        assert all(0 <= int(r[1]) < n_fns for r in trows)

    def test_alg2_runs(self, toy_file, tmp_path):
        rc = main(
            ["solve-sets", "--model", str(toy_file), "--out-dir", str(tmp_path),
             "--depth", "1", "--epsilon", "0.5", "--algorithm", "alg2"]
        )
        assert rc == 0

    @pytest.mark.parametrize("cmd", ["solve-vi", "solve-sets"])
    def test_max_iters_cuts_short_in_both_solvers(self, cmd, toy_file, tmp_path, capsys):
        flags = ["--model", str(toy_file), "--out-dir", str(tmp_path), "--depth", "1",
                 "--epsilon", "1e-6"]
        assert main([cmd, *flags, "--max-iters", "2"]) == 0
        assert "2 iterations" in capsys.readouterr().out.split("converged=False")[0]
        assert len(read_csv(tmp_path / "convergence.csv")[1]) == 2
        assert main([cmd, *flags]) == 0
        assert "converged=True" in capsys.readouterr().out


class TestRefusedFlags:
    @pytest.mark.parametrize("cmd", ["solve-vi", "solve-sets", "rollout", "compare"])
    @pytest.mark.parametrize(
        "flag, value, error",
        [("--max-iters", "-3", "SolverFailure"), ("--cap", "0", "DimensionMismatch")],
    )
    def test_is_a_one_line_error(self, cmd, flag, value, error, toy_file, tmp_path, capsys):
        rc = main(
            [cmd, "--model", str(toy_file), "--out-dir", str(tmp_path), "--depth", "1",
             flag, value]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cmd", ["solve-vi", "rollout", "compare"])
    @pytest.mark.parametrize("value", ["0", "-50"])
    def test_parallel_below_one(self, cmd, value, toy_file, tmp_path, capsys):
        rc = main(
            [cmd, "--model", str(toy_file), "--out-dir", str(tmp_path), "--depth", "1",
             "--parallel", value]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: SolverFailure: parallel must be >= 1, got {value}\n"
        assert list(tmp_path.iterdir()) == []


class TestFlagsRefusedBeforeTheTree:
    @pytest.fixture(autouse=True)
    def no_tree(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the reachability tree was built")

        monkeypatch.setattr(cli, "reachability_tree", fail)

    @pytest.mark.parametrize("cmd", ["solve-vi", "solve-sets", "rollout", "compare"])
    @pytest.mark.parametrize(
        "flag, value", [("--max-iters", "-3"), ("--epsilon", "0"), ("--epsilon", "-0.5")]
    )
    def test_solver_flags(self, cmd, flag, value, toy_file, tmp_path, capsys):
        rc = main([cmd, "--model", str(toy_file), "--out-dir", str(tmp_path), flag, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SolverFailure: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cmd", ["solve-vi", "rollout", "compare"])
    @pytest.mark.parametrize("value", ["0", "-50"])
    def test_parallel_flag(self, cmd, value, toy_file, tmp_path, capsys):
        rc = main([cmd, "--model", str(toy_file), "--out-dir", str(tmp_path), "--parallel", value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SolverFailure: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, value", [("--n-paths", "0"), ("--horizon", "-1"), ("--seed", "-1")]
    )
    def test_rollout_flags(self, flag, value, toy_file, tmp_path, capsys):
        rc = main(["rollout", "--model", str(toy_file), "--out-dir", str(tmp_path), flag, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DimensionMismatch: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cmd", ["solve-vi", "solve-sets", "rollout", "compare", "filter"])
    def test_out_dir_under_a_file(self, cmd, toy_file, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [cmd, "--model", str(toy_file), "--out-dir", str(blocker / "sub")]
        if cmd != "filter":
            argv += ["--depth", "1", "--cap", "5"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_example_into_a_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "m.json"
        assert main(["example", "kalman", "--out", str(target)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not target.parent.exists()


class TestOneSetUp:
    @pytest.mark.parametrize(
        "cmd, solvers",
        [
            ("solve-vi", ["solve_vi"]),
            ("solve-sets", ["solve_sets"]),
            ("rollout", ["solve_vi"]),
            ("compare", ["solve_vi", "solve_sets"]),
        ],
    )
    def test_one_tree_feeds_every_solver(self, cmd, solvers, revealing_file, tmp_path, monkeypatch):
        trees, solved = [], []

        def tree(*args, **kwargs):
            trees.append(reachability_tree(*args, **kwargs))
            return trees[-1]

        def recorded(solver):
            def solve(model, sample, **kwargs):
                solved.append((solver.__name__, sample))
                return solver(model, sample, **kwargs)

            return solve

        monkeypatch.setattr(cli, "reachability_tree", tree)
        monkeypatch.setattr(cli, "solve_vi", recorded(cli.solve_vi))
        monkeypatch.setattr(cli, "solve_sets", recorded(cli.solve_sets))
        argv = [cmd, "--model", str(revealing_file), "--out-dir", str(tmp_path),
                "--depth", "2", "--epsilon", "0.05"]
        if cmd == "rollout":
            argv += ["--horizon", "3", "--n-paths", "20"]
        assert main(argv) == 0
        assert len(trees) == 1
        assert [name for name, _ in solved] == solvers
        assert all(sample is trees[0] for _, sample in solved)


class TestFilter:
    def test_trace_layout(self, kalman_file, tmp_path):
        rc = main(
            ["filter", "--model", str(kalman_file), "--out-dir", str(tmp_path),
             "--steps", "6", "--seed", "3"]
        )
        assert rc == 0
        header, rows = read_csv(tmp_path / "filter.csv")
        assert header == ["step", "action", "node", "node_prob", "mean", "std"]
        assert len(rows) == 6
        assert all(0.0 <= float(r[3]) <= 1.0 for r in rows)
        assert all(float(r[5]) >= 0.0 for r in rows)

    def test_seed_reproducibility(self, kalman_file, tmp_path):
        for d in ("a", "b"):
            main(
                ["filter", "--model", str(kalman_file), "--out-dir", str(tmp_path / d),
                 "--steps", "4", "--seed", "11"]
            )
        assert (tmp_path / "a" / "filter.csv").read_bytes() == (
            tmp_path / "b" / "filter.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "need steps >= 0 and seed >= 0, got 20 and -1"),
            (["--steps", "-2"], "need steps >= 0 and seed >= 0, got -2 and 0"),
        ],
        ids=["seed", "steps"],
    )
    def test_negative_flag_is_a_one_line_error(
        self, flags, message, kalman_file, tmp_path, capsys, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise AssertionError("a transition was sampled")

        monkeypatch.setattr(cli, "sample_transition", fail)
        out = tmp_path / "out"
        assert main(["filter", "--model", str(kalman_file), "--out-dir", str(out), *flags]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == f"error: DimensionMismatch: {message}\n"
        assert list(out.iterdir()) == []  # the directory comes first, no filter.csv

    def test_negative_flag_comes_after_the_model(self, tmp_path, capsys):
        argv = ["filter", "--model", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path),
                "--seed", "-1"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ModelValidationError")

    def test_one_prediction_per_step(self, kalman_file, tmp_path, monkeypatch):
        calls = mock.Mock(wraps=filtering.predict)
        monkeypatch.setattr(filtering, "predict", calls)
        argv = ["filter", "--model", str(kalman_file), "--out-dir", str(tmp_path), "--steps", "5"]
        assert main(argv) == 0
        assert calls.call_count == 5


class TestRollout:
    def test_short_run(self, toy_file, tmp_path, capsys):
        rc = main(
            ["rollout", "--model", str(toy_file), "--out-dir", str(tmp_path),
             "--depth", "2", "--epsilon", "0.05", "--horizon", "5",
             "--n-paths", "200"]
        )
        assert rc == 0
        header, rows = read_csv(tmp_path / "rollout.csv")
        assert header == ["mean", "stderr", "n_paths", "horizon"]
        assert rows[0][2] == "200" and rows[0][3] == "5"
        # per-step reward in [-1, 2], discount 0.7: crude sanity envelope
        assert abs(float(rows[0][0])) <= 2.0 / (1.0 - 0.7) + 1e-9

    def test_default_horizon_comes_from_the_certificate(self, kalman_file, tmp_path, capsys):
        rc = main(
            ["rollout", "--model", str(kalman_file), "--out-dir", str(tmp_path),
             "--depth", "1", "--cap", "20", "--n-paths", "20", "--epsilon", "0.05",
             "--parallel", "1"]
        )
        assert rc == 0
        _, rows = read_csv(tmp_path / "rollout.csv")
        # the tail past the horizon is below epsilon / 10
        want = certify(load_model(kalman_file)[0]).iterations_for(0.005)
        assert rows[0][3] == str(want)


class TestCompare:
    def test_routes_agree_within_bounds(self, revealing_file, tmp_path, capsys):
        rc = main(
            ["compare", "--model", str(revealing_file), "--out-dir", str(tmp_path),
             "--depth", "3", "--epsilon", "0.01"]
        )
        assert rc == 0
        header, rows = read_csv(tmp_path / "diff.csv")
        assert header == ["belief_id", "vi_value", "sets_value", "abs_diff", "combined_bound"]
        for r in rows:
            assert float(r[3]) <= float(r[4])

    def test_disagreement_is_an_exit_code(self, toy_file, tmp_path, capsys):
        # a shallow, non-closed sample generalizes differently under the
        # two routes; `compare` flags that instead of hiding it
        rc = main(
            ["compare", "--model", str(toy_file), "--out-dir", str(tmp_path),
             "--depth", "2", "--epsilon", "0.01"]
        )
        assert rc == 1
        assert (tmp_path / "diff.csv").exists()

    def test_parallelism_never_changes_bytes(self, revealing_file, tmp_path):
        for d, par in (("p1", "1"), ("p2", "2"), ("p1b", "1")):
            rc = main(
                ["compare", "--model", str(revealing_file), "--out-dir", str(tmp_path / d),
                 "--depth", "3", "--epsilon", "0.01", "--parallel", par]
            )
            assert rc == 0
        ref = (tmp_path / "p1" / "diff.csv").read_bytes()
        assert (tmp_path / "p2" / "diff.csv").read_bytes() == ref
        assert (tmp_path / "p1b" / "diff.csv").read_bytes() == ref
