"""Full pipeline on the scalar-feedback reference model.

Prints the weight derivation and the TV probes, writes the model file
``wpomdp example kalman`` writes, and runs the CLI's own steps on it: one
VI solve, the set route against it, and a Monte Carlo check of the
extracted policy, printing the intermediate numbers.  Its CSVs land in
the output directory; ``values.csv``, ``convergence.csv`` and
``rollout.csv`` are the bytes ``wpomdp solve-vi`` and ``wpomdp rollout``
write on ``OUT/model.json`` at the same flags.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

import numpy as np

from wpomdp import cli
from wpomdp.kalman import choose_weight, reference_spec, tv_continuity_report
from wpomdp.model import certify


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out_kalman")
    ap.add_argument("--grid-step", type=float, default=0.1)
    ap.add_argument("--epsilon", type=float, default=1e-3)
    ap.add_argument("--compare-epsilon", type=float, default=0.05,
                    help="looser tolerance for the set route of the cross-solver check")
    ap.add_argument("--cap", type=int, default=600)
    ap.add_argument("--depth", type=int, default=2)
    ap.add_argument("--n-paths", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0, help="seed of the rollout's paths")
    ap.add_argument("--parallel", type=int, default=4)
    # what the CLI's steps read and the script offers no flag for: the
    # solvers' default stop, the certificate's horizon, the first set algorithm
    ap.set_defaults(max_iters=1000, horizon=None, algorithm="alg1")
    return ap.parse_args()


def peak_rss_mb() -> float:
    """This process's peak resident set size (ru_maxrss: bytes on macOS, KiB elsewhere)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def run(args) -> int:
    # the set route runs as `wpomdp solve-sets --epsilon <compare-epsilon>` would
    sets_args = argparse.Namespace(**{**vars(args), "epsilon": args.compare_epsilon})
    cli.check_flags(args)
    cli.check_flags(sets_args)
    args.model = cli.out_dir(args) / "model.json"

    spec = reference_spec(grid_step=args.grid_step)
    k, beta, big_k = choose_weight(spec)
    print(f"weight derivation: k = {k:.6g}, admissible beta = {beta:.6g}, K = {big_k:.6g}")
    cli.write_example(spec, args.model)
    for report in tv_continuity_report(spec):
        gaps = np.array2string(np.asarray(report.tv_gaps), precision=3)
        print(f"tv probe: gaps {gaps} monotone={report.is_monotone_decreasing()}")

    t0 = time.perf_counter()
    out, model, mu0, sample = cli.setup(args)
    print(f"certificate:\n{certify(model)}")
    print(f"sample: {sample.n} beliefs ({sample.provenance}), "
          f"load and tree {time.perf_counter() - t0:.2f}s")

    t0 = time.perf_counter()
    vi = cli.vi_step(model, sample, args)
    print(f"value iteration: {vi.iterations} sweeps, bound {vi.error_bound:.3g}, "
          f"{time.perf_counter() - t0:.1f}s")
    cli.write_vi(out, vi)

    # the set route against the VI table above, at a looser tolerance so it stays cheap
    t0 = time.perf_counter()
    st = cli.sets_step(model, sample, sets_args)
    gap, combined = cli.write_diff(out, vi, st)
    print(f"cross-solver: max gap {gap:.3g} vs combined bound {combined:.3g} "
          f"({st.final_set_size} functions, {time.perf_counter() - t0:.1f}s)")

    t0 = time.perf_counter()
    mean, err, horizon = cli.rollout_step(out, model, mu0, vi, args)
    print(f"rollout: {mean:.5f} +- {err:.5f} over {args.n_paths} paths, horizon {horizon}, "
          f"{time.perf_counter() - t0:.1f}s; solver value at start {vi.value.values[0]:.5f}")

    print(f"artifacts in {out}/")
    print(f"peak RSS: {peak_rss_mb():.1f} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(cli.report_errors(run, parse_args()))
