"""No output byte depends on the BLAS thread count.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, at load, so each count runs
the CLI in its own subprocess.  The benchmark's pinned fingerprints were
recorded with two BLAS threads; a change that splits a kernel's work by
thread would move bits here first.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from wpomdp.cli import main

ROOT = Path(__file__).resolve().parents[1]

COMMON = ["--depth", "2", "--cap", "200", "--epsilon", "0.05"]
RUNS = {
    "solve-sets": (["--algorithm", "alg2"], ["alphas.csv", "argmax_trace.csv", "convergence.csv"]),
    "solve-vi": ([], ["values.csv", "convergence.csv"]),
    "rollout": (["--n-paths", "200"], ["rollout.csv"]),
}


def run_cli(threads, *args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "wpomdp.cli", *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def coarse_model(tmp_path_factory):
    # the 17-state reference model of `{"grid_step": 1.0}`
    d = tmp_path_factory.mktemp("blas")
    (d / "spec.json").write_text('{"grid_step": 1.0}')
    assert main(["example", "kalman", "--out", str(d / "m.json"), "--spec", str(d / "spec.json")]) == 0
    return d / "m.json"


@pytest.mark.parametrize("cmd", list(RUNS))
def test_one_and_two_threads_write_the_same_bytes(cmd, coarse_model, tmp_path):
    flags, files = RUNS[cmd]
    for threads in (1, 2):
        proc = run_cli(threads, cmd, "--model", coarse_model, "--out-dir", tmp_path / str(threads),
                       *COMMON, *flags)
        assert proc.returncode == 0, proc.stderr
    for name in files:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
