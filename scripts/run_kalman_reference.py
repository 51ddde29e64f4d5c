"""Full pipeline on the scalar-feedback reference model.

Builds the model, prints its contraction certificate and the weight
derivation, runs both solvers on a shared reachability sample, Monte
Carlo-checks the extracted policy, and leaves every artifact as CSV in
the output directory.  This is the long-form version of

    wpomdp example kalman --out model.json
    wpomdp compare --model model.json ...

with the intermediate numbers printed along the way.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

import numpy as np

from wpomdp import serialize
from wpomdp.conjugate import solve_sets
from wpomdp.errors import BeliefSpaceError
from wpomdp.kalman import build_model, choose_weight, reference_spec, tv_continuity_report
from wpomdp.measures import make_measure
from wpomdp.model import certify, check_stop_rule
from wpomdp.sampling import check_tree_size, reachability_tree
from wpomdp.value_iteration import (
    check_parallel,
    check_rollout_size,
    rollout_estimate,
    selector_policy,
    solve_vi,
)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out_kalman")
    ap.add_argument("--grid-step", type=float, default=0.1)
    ap.add_argument("--epsilon", type=float, default=1e-3)
    ap.add_argument("--compare-epsilon", type=float, default=0.05,
                    help="looser tolerance for the cross-solver run")
    ap.add_argument("--beliefs", type=int, default=600)
    ap.add_argument("--depth", type=int, default=2)
    ap.add_argument("--n-paths", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0, help="seed of the rollout's paths")
    ap.add_argument("--parallel", type=int, default=4)
    return ap.parse_args()


def peak_rss_mb() -> float:
    """This process's peak resident set size (ru_maxrss: bytes on macOS, KiB elsewhere)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def check_args(args) -> None:
    """Refuse, before any work, every flag value a later step would refuse."""
    for epsilon in (args.epsilon, args.compare_epsilon):
        check_stop_rule(epsilon, 0)  # max_iters is no flag here: the solvers keep their default
    check_parallel(args.parallel)
    check_rollout_size(0, args.n_paths)  # the horizon comes from the certificate
    check_tree_size(args.depth, args.beliefs)


def run(args) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    spec = reference_spec(grid_step=args.grid_step)
    k, beta, big_k = choose_weight(spec)
    print(f"weight derivation: k = {k:.6g}, admissible beta = {beta:.6g}, K = {big_k:.6g}")

    model = build_model(spec)
    consts = certify(model)
    print(f"certificate:\n{consts}")
    serialize.save_model(model, out / "model.json")

    for report in tv_continuity_report(spec):
        gaps = np.array2string(np.asarray(report.tv_gaps), precision=3)
        print(f"tv probe: gaps {gaps} monotone={report.is_monotone_decreasing()}")

    pts = model.state_grid.points
    mu0 = make_measure(model.state_grid, np.exp(-0.5 * (pts / 2.0) ** 2))
    t0 = time.perf_counter()
    sample = reachability_tree(model, mu0, depth=args.depth, cap=args.beliefs)
    print(f"sample: {sample.n} beliefs ({sample.provenance}), "
          f"tree {time.perf_counter() - t0:.2f}s")

    t0 = time.perf_counter()
    vi = solve_vi(model, sample, epsilon=args.epsilon, parallel=args.parallel)
    print(f"value iteration: {vi.iterations} sweeps, bound {vi.error_bound:.3g}, "
          f"{time.perf_counter() - t0:.1f}s")
    serialize.write_convergence_csv(
        out / "convergence.csv", vi.sup_diffs,
        [vi.constants.apriori_bound(t + 1) for t in range(vi.iterations)],
    )
    serialize.write_values_csv(out / "values.csv", vi.value.values, vi.selector.actions)

    # cross-solver check at a looser tolerance so the set route stays cheap
    t0 = time.perf_counter()
    vi_c = solve_vi(model, sample, epsilon=args.compare_epsilon, parallel=args.parallel)
    st = solve_sets(model, sample, epsilon=args.compare_epsilon)
    gap = float(np.abs(vi_c.value.values - st.table.values).max())
    combined = vi_c.error_bound + st.error_bound
    print(f"cross-solver: max gap {gap:.3g} vs combined bound {combined:.3g} "
          f"({st.final_set_size} functions, {time.perf_counter() - t0:.1f}s)")
    serialize.write_diff_csv(out / "diff.csv", vi_c.value.values, st.table.values, combined)

    horizon = vi.constants.iterations_for(args.epsilon / 10.0)
    t0 = time.perf_counter()
    mean, err = rollout_estimate(
        model, selector_policy(vi), mu0, horizon, args.n_paths, seed=args.seed
    )
    print(f"rollout: {mean:.5f} +- {err:.5f} over {args.n_paths} paths, horizon {horizon}, "
          f"{time.perf_counter() - t0:.1f}s; solver value at start {vi.value.values[0]:.5f}")
    serialize.write_rollout_csv(out / "rollout.csv", mean, err, args.n_paths, horizon)

    print(f"artifacts in {out}/")
    print(f"peak RSS: {peak_rss_mb():.1f} MB")
    return 0


def main() -> int:
    """Run the pipeline; a package error is one ``error:`` line and exit code 1."""
    args = parse_args()
    try:
        check_args(args)
        return run(args)
    except BeliefSpaceError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
