"""Smoke runs of the experiment scripts at toy sizes, in a subprocess each."""

import os
import re
import subprocess
import sys
from pathlib import Path

from wpomdp import cli
from wpomdp.kalman import start_belief
from wpomdp.serialize import load_model

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_run_kalman_reference(tmp_path):
    out = tmp_path / "out"
    proc = run_script(
        "run_kalman_reference.py",
        "--grid-step", 1.0,
        "--cap", 20,
        "--n-paths", 20,
        "--parallel", 1,
        "--out-dir", out,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.search(
        r"^sample: \d+ beliefs \(.*\), load and tree \d+\.\d\ds$", proc.stdout, re.M
    )
    peak = re.search(r"^peak RSS: (\d+\.\d) MB$", proc.stdout, re.M)
    assert peak and 0.0 < float(peak.group(1)) < 4096.0
    headers = {
        "convergence.csv": "iter,sup_diff,bound",
        "values.csv": "belief_id,value,action",
        "diff.csv": "belief_id,vi_value,sets_value,abs_diff,combined_bound",
        "rollout.csv": "mean,stderr,n_paths,horizon",
    }
    lines = {name: (out / name).read_text().splitlines() for name in headers}
    for name, header in headers.items():
        assert lines[name][0] == header and len(lines[name]) >= 2, name
    # one row per sampled belief in both per-belief tables, and the cross-solver
    # check reads the one VI table the script solves
    values = [row.split(",")[1] for row in lines["values.csv"][1:]]
    assert [row.split(",")[1] for row in lines["diff.csv"][1:]] == values
    # the model file carries the start belief, so `wpomdp compare --model`
    # grows the same tree
    model, init = load_model(out / "model.json")
    assert init.tobytes() == start_belief(model).weights.tobytes()
    # the script solves that file, so the CLI on it writes the script's bytes
    common = ["--model", str(out / "model.json"), "--depth", "2", "--cap", "20"]
    assert cli.main(["solve-vi", *common, "--out-dir", str(tmp_path / "vi")]) == 0
    assert cli.main(
        ["rollout", *common, "--n-paths", "20", "--out-dir", str(tmp_path / "rollout")]
    ) == 0
    for name, cmd in [("values.csv", "vi"), ("convergence.csv", "vi"), ("rollout.csv", "rollout")]:
        assert (tmp_path / cmd / name).read_bytes() == (out / name).read_bytes(), name


def test_run_kalman_reference_out_dir_under_a_file(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = run_script(
        "run_kalman_reference.py", "--grid-step", 1.0, "--cap", 20, "--out-dir", blocker / "sub"
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_run_kalman_reference_refuses_flags_before_any_work(tmp_path):
    out = tmp_path / "out"
    for flags, error in [
        (("--cap", 20, "--parallel", 0), "error: SolverFailure"),
        (("--cap", 0), "error: DimensionMismatch: cap must be >= 1\n"),
        (("--cap", 20, "--seed", -1), "error: DimensionMismatch: seed must be >= 0, got -1\n"),
    ]:
        proc = run_script(
            "run_kalman_reference.py", "--grid-step", 1.0, *flags, "--out-dir", out
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(error) and proc.stderr.count("\n") == 1
        assert not out.exists()
