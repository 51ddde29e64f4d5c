"""Command-line front end: build, validate, solve, replay, compare.

Every subcommand reads a model JSON (or builds one, for ``example``),
writes CSV artifacts into an output directory, and is deterministic
given its flags -- including the parallelism degree, which never changes
any emitted byte.

Every subcommand creates its output directory before any other work; a
solving one, or ``filter``, then reads the model and refuses every bad
flag value before it builds or draws a sample.  Exit codes: 0 success, 1
model or assumption failure or unusable path (one machine-readable
``error:`` line on stderr), 2 usage error.

The steps in ``__all__`` are public: the reference script composes them
on the model file it writes, so its CSVs are the bytes these subcommands
write on that file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .conjugate import solve_sets
from .errors import BeliefSpaceError, DimensionMismatch, ModelValidationError
from .filtering import sample_transition
from .kalman import KalmanSpec, build_model, start_belief
from .measures import make_measure
from .model import certify, check_stop_rule
from .sampling import check_tree_size, reachability_tree
from .synthetic import uniform_belief
from .value_iteration import (
    check_parallel,
    check_rollout_size,
    rollout_estimate,
    selector_policy,
    solve_vi,
)

__all__ = ["check_flags", "out_dir", "write_example", "setup", "vi_step", "sets_step",
           "write_vi", "write_diff", "rollout_step", "report_errors", "main"]


def check_flags(args) -> None:
    """Refuse every flag value a later step refuses; the solvers, the rollout
    and the tree check them too, but only once they run.  ``parallel`` and
    the rollout's flags are checked where the caller's parser has them."""
    check_stop_rule(args.epsilon, args.max_iters)
    if "parallel" in args:
        check_parallel(args.parallel)
    if "n_paths" in args:  # a missing horizon is the certificate's, never negative
        check_rollout_size(args.horizon or 0, args.n_paths, args.seed)
    check_tree_size(args.depth, args.cap)


def out_dir(args) -> Path:
    # flag wins; the environment override covers the directory only
    p = Path(args.out_dir or os.environ.get("WPOMDP_OUT_DIR") or ".")
    p.mkdir(parents=True, exist_ok=True)
    return p


def _load(args):
    model, init = serialize.load_model(args.model)
    return model, uniform_belief(model) if init is None else make_measure(model.state_grid, init)


def write_example(spec: KalmanSpec, path):
    """The model file ``example`` writes: the built model and its start belief."""
    model = build_model(spec)
    serialize.save_model(model, path, init_belief=start_belief(model))
    return model


def setup(args):
    """Output directory, model and start belief, flag checks, then the tree: the refusal order."""
    out = out_dir(args)
    model, mu0 = _load(args)
    check_flags(args)
    return out, model, mu0, reachability_tree(model, mu0, depth=args.depth, cap=args.cap)


def vi_step(model, sample, args):
    return solve_vi(
        model, sample, epsilon=args.epsilon, max_iters=args.max_iters, parallel=args.parallel
    )


def sets_step(model, sample, args):
    return solve_sets(
        model, sample, epsilon=args.epsilon, max_iters=args.max_iters, algorithm=args.algorithm
    )


def _write_convergence(out, res):
    bounds = [res.constants.apriori_bound(t + 1) for t in range(res.iterations)]
    serialize.write_convergence_csv(out / "convergence.csv", res.sup_diffs, bounds)


def write_vi(out, res) -> None:
    """``convergence.csv`` (each sweep's sup-difference and a-priori bound) and ``values.csv``."""
    _write_convergence(out, res)
    serialize.write_values_csv(out / "values.csv", res.value.values, res.selector.actions)


def write_diff(out, vi, st) -> tuple[float, float]:
    """``diff.csv`` of the two routes' tables; returns the largest gap and the combined bound."""
    combined = vi.error_bound + st.error_bound
    serialize.write_diff_csv(out / "diff.csv", vi.value.values, st.table.values, combined)
    return float(np.abs(vi.value.values - st.table.values).max()), combined


def rollout_step(out, model, mu0, vi, args) -> tuple[float, float, int]:
    """``rollout.csv`` of the VI policy from ``mu0``; returns mean, stderr and horizon."""
    horizon = args.horizon
    if horizon is None:
        horizon = vi.constants.iterations_for(args.epsilon / 10.0)  # tail below eps/10
    mean, err = rollout_estimate(
        model, selector_policy(vi), mu0, horizon, args.n_paths, seed=args.seed
    )
    serialize.write_rollout_csv(out / "rollout.csv", mean, err, args.n_paths, horizon)
    return mean, err, horizon


def cmd_validate(args) -> int:
    model, _ = _load(args)
    print(certify(model))
    return 0


def cmd_solve_vi(args) -> int:
    out, model, _, sample = setup(args)
    res = vi_step(model, sample, args)
    write_vi(out, res)
    print(
        f"solve-vi: {sample.n} beliefs, {res.iterations} iterations, "
        f"bound {res.error_bound:.6g}, converged={res.converged}"
    )
    return 0


def cmd_solve_sets(args) -> int:
    out, model, _, sample = setup(args)
    res = sets_step(model, sample, args)
    serialize.write_alphas_csv(out / "alphas.csv", res.sets)
    _write_convergence(out, res)
    # winner ids index the flattened union in emitted (alphas.csv) order
    scores = np.hstack(
        [sample.weight_matrix() @ aset.values.T for aset in res.sets]
    )  # (B, total_fns)
    winners = scores.argmax(axis=1)
    serialize.write_argmax_trace_csv(out / "argmax_trace.csv", winners, res.chosen_action)
    print(
        f"solve-sets[{res.algorithm}]: {sample.n} beliefs, {res.iterations} "
        f"iterations, {res.final_set_size} functions, bound {res.error_bound:.6g}, "
        f"converged={res.converged}"
    )
    return 0


def cmd_filter(args) -> int:
    out = out_dir(args)
    model, mu = _load(args)
    if args.steps < 0 or args.seed < 0:
        raise DimensionMismatch(f"need steps >= 0 and seed >= 0, got {args.steps} and {args.seed}")
    rng = np.random.default_rng(args.seed)
    records = []
    pts = model.state_grid.points
    for t in range(args.steps):
        a = int(rng.integers(model.n_actions))
        j, p, mu = sample_transition(model, mu, a, rng_seed=int(rng.integers(2**31)))
        mean = float(pts @ mu.weights)
        std = float(np.sqrt(max(pts**2 @ mu.weights - mean**2, 0.0)))
        records.append((t, a, j, p, mean, std))
    serialize.write_filter_csv(out / "filter.csv", records)
    print(f"filter: {args.steps} steps replayed")
    return 0


def cmd_rollout(args) -> int:
    out, model, mu0, sample = setup(args)
    res = vi_step(model, sample, args)
    mean, err, _ = rollout_step(out, model, mu0, res, args)
    print(
        f"rollout: {mean:.6g} +- {err:.2g} over {args.n_paths} paths "
        f"(value at start {res.value.values[0]:.6g}, bound {res.error_bound:.3g})"
    )
    return 0


def cmd_compare(args) -> int:
    out, model, _, sample = setup(args)
    worst, combined = write_diff(out, vi_step(model, sample, args), sets_step(model, sample, args))
    print(f"compare: max |vi - sets| = {worst:.6g}, combined bound {combined:.6g}")
    return 0 if worst <= combined else 1


def cmd_example(args) -> int:
    out = Path(args.out) if args.out else out_dir(args) / "kalman_model.json"
    try:  # no spec file is the empty spec
        spec = KalmanSpec(**({} if args.spec is None else json.loads(Path(args.spec).read_text())))
    except (OSError, ValueError, TypeError) as e:
        # unreadable file, malformed JSON, unknown or mistyped field
        raise ModelValidationError(f"cannot use spec file {args.spec}: {e}") from e
    model = write_example(spec, out)
    print(f"example kalman: wrote {out} ({model.n_states} states, "
          f"{model.n_actions} actions, {model.n_obs} nodes)")
    return 0


def _add_common(p):
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--out-dir", default=None, help="artifact directory")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--cap", type=int, default=5000)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--max-iters", type=int, default=1000)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wpomdp", description="belief-space planning over metric state spaces"
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", help="print the contraction certificate")
    p.add_argument("--model", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("solve-vi", help="tabulated value iteration")
    _add_common(p)
    p.add_argument("--parallel", type=int, default=os.cpu_count() or 1)
    p.set_defaults(fn=cmd_solve_vi)

    p = sub.add_parser("solve-sets", help="Lipschitz-set iteration")
    _add_common(p)
    p.add_argument("--algorithm", choices=("alg1", "alg2"), default="alg1")
    p.set_defaults(fn=cmd_solve_sets)

    p = sub.add_parser("filter", help="replay a sampled filtering trajectory")
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_filter)

    p = sub.add_parser("rollout", help="Monte Carlo value of the greedy policy")
    _add_common(p)
    p.add_argument("--parallel", type=int, default=os.cpu_count() or 1)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--n-paths", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_rollout)

    p = sub.add_parser("compare", help="run both solvers and diff the values")
    _add_common(p)
    p.add_argument("--parallel", type=int, default=os.cpu_count() or 1)
    p.add_argument("--algorithm", choices=("alg1", "alg2"), default="alg1")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("example", help="emit a bundled reference model")
    p.add_argument("which", choices=("kalman",))
    p.add_argument("--out", default=None, help="model file to write")
    p.add_argument("--out-dir", default=None)
    p.add_argument(
        "--spec", default=None, help="JSON file of KalmanSpec fields (default: KalmanSpec())"
    )
    p.set_defaults(fn=cmd_example)

    return ap


def report_errors(fn, args) -> int:
    """``fn(args)``; a package error or an unusable file path is one ``error:`` line and exit 1."""
    try:
        return fn(args)
    except (BeliefSpaceError, OSError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return report_errors(args.fn, args)


if __name__ == "__main__":
    sys.exit(main())
