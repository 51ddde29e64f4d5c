"""Smoke runs of the experiment scripts at toy sizes, in a subprocess each."""

import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_toy_convergence_study():
    proc = run_script("toy_convergence_study.py", "--depth", 2, "--epsilon", 1e-2)
    assert proc.returncode == 0, proc.stderr
    for toy in ("revealing", "absorbing", "pbvi"):
        assert f"== {toy}:" in proc.stdout
    assert proc.stdout.count("   sets: sizes") == 3


def test_run_kalman_reference(tmp_path):
    out = tmp_path / "out"
    proc = run_script(
        "run_kalman_reference.py",
        "--grid-step", 1.0,
        "--beliefs", 20,
        "--n-paths", 20,
        "--parallel", 1,
        "--out-dir", out,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^sample: \d+ beliefs \(.*\), tree \d+\.\d\ds$", proc.stdout, re.M)
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
    # one row per sampled belief in both per-belief tables
    assert len(lines["values.csv"]) == len(lines["diff.csv"])
    assert (out / "model.json").is_file()


def test_run_kalman_reference_refuses_flags_before_any_work(tmp_path):
    out = tmp_path / "out"
    proc = run_script(
        "run_kalman_reference.py", "--grid-step", 1.0, "--beliefs", 20, "--parallel", 0,
        "--out-dir", out,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: SolverFailure") and proc.stderr.count("\n") == 1
    assert not out.exists()
