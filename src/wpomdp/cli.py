"""Command-line front end: build, validate, solve, replay, compare.

Every subcommand reads a model JSON (or builds one, for ``example``),
writes CSV artifacts into an output directory, and is deterministic
given its flags -- including the parallelism degree, which never changes
any emitted byte.

Exit codes: 0 success, 1 model or assumption failure (one machine-
readable ``error:`` line on stderr), 2 usage error.
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
from .errors import BeliefSpaceError, ModelValidationError
from .filtering import obs_marginal, sample_transition
from .kalman import KalmanSpec, build_model
from .measures import make_measure
from .model import certify, check_stop_rule
from .sampling import reachability_tree
from .value_iteration import (
    check_parallel,
    check_rollout_size,
    rollout_estimate,
    selector_policy,
    solve_vi,
)

__all__ = ["main"]


def _out_dir(args) -> Path:
    # flag wins; the environment override covers the directory only
    d = args.out_dir or os.environ.get("WPOMDP_OUT_DIR") or "."
    p = Path(d)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _initial_belief(model, init_weights):
    if init_weights is None:
        return make_measure(model.state_grid, np.ones(model.n_states))
    return make_measure(model.state_grid, init_weights)


def _load(args):
    model, init = serialize.load_model(args.model)
    return model, _initial_belief(model, init)


def _sample(model, mu0, args):
    # the solvers refuse these too, but only after the tree is built
    check_stop_rule(args.epsilon, args.max_iters)
    if "parallel" in args:
        check_parallel(args.parallel)
    return reachability_tree(model, mu0, depth=args.depth, cap=args.cap)


def _bounds_column(constants, n_iters):
    return [constants.apriori_bound(t + 1) for t in range(n_iters)]


def cmd_validate(args) -> int:
    model, _ = _load(args)
    print(certify(model))
    return 0


def cmd_solve_vi(args) -> int:
    model, mu0 = _load(args)
    sample = _sample(model, mu0, args)
    res = solve_vi(
        model,
        sample,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        parallel=args.parallel,
    )
    out = _out_dir(args)
    serialize.write_convergence_csv(
        out / "convergence.csv", res.sup_diffs, _bounds_column(res.constants, res.iterations)
    )
    serialize.write_values_csv(out / "values.csv", res.value.values, res.selector.actions)
    print(
        f"solve-vi: {sample.n} beliefs, {res.iterations} iterations, "
        f"bound {res.error_bound:.6g}, converged={res.converged}"
    )
    return 0


def cmd_solve_sets(args) -> int:
    model, mu0 = _load(args)
    sample = _sample(model, mu0, args)
    res = solve_sets(
        model,
        sample,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        algorithm=args.algorithm,
    )
    out = _out_dir(args)
    serialize.write_alphas_csv(out / "alphas.csv", res.sets)
    serialize.write_convergence_csv(
        out / "convergence.csv", res.sup_diffs, _bounds_column(res.constants, res.iterations)
    )
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
    model, mu0 = _load(args)
    rng = np.random.default_rng(args.seed)
    mu = mu0
    records = []
    pts = model.state_grid.points
    for t in range(args.steps):
        a = int(rng.integers(model.n_actions))
        probs = obs_marginal(model, mu, a).node_probs
        step = sample_transition(model, mu, a, rng_seed=int(rng.integers(2**31)))
        mu = step.posterior
        mean = float(pts @ mu.weights)
        std = float(np.sqrt(max(pts**2 @ mu.weights - mean**2, 0.0)))
        records.append((t, a, step.node_index, probs[step.node_index], mean, std))
    serialize.write_filter_csv(_out_dir(args) / "filter.csv", records)
    print(f"filter: {args.steps} steps replayed")
    return 0


def cmd_rollout(args) -> int:
    # the horizon defaults to one the certificate picks, never negative
    check_rollout_size(args.horizon or 0, args.n_paths)
    model, mu0 = _load(args)
    sample = _sample(model, mu0, args)
    res = solve_vi(
        model,
        sample,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        parallel=args.parallel,
    )
    c = res.constants
    horizon = args.horizon
    if horizon is None:
        horizon = c.iterations_for(args.epsilon / 10.0)  # tail below eps/10
    mean, err = rollout_estimate(
        model,
        selector_policy(res),
        mu0,
        horizon,
        args.n_paths,
        seed=args.seed,
    )
    serialize.write_rollout_csv(_out_dir(args) / "rollout.csv", mean, err, args.n_paths, horizon)
    print(
        f"rollout: {mean:.6g} +- {err:.2g} over {args.n_paths} paths "
        f"(value at start {res.value.values[0]:.6g}, bound {res.error_bound:.3g})"
    )
    return 0


def cmd_compare(args) -> int:
    model, mu0 = _load(args)
    sample = _sample(model, mu0, args)
    vi = solve_vi(
        model,
        sample,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        parallel=args.parallel,
    )
    st = solve_sets(
        model,
        sample,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        algorithm=args.algorithm,
    )
    combined = vi.error_bound + st.error_bound
    serialize.write_diff_csv(
        _out_dir(args) / "diff.csv", vi.value.values, st.table.values, combined
    )
    worst = float(np.abs(vi.value.values - st.table.values).max())
    print(f"compare: max |vi - sets| = {worst:.6g}, combined bound {combined:.6g}")
    return 0 if worst <= combined else 1


def cmd_example(args) -> int:
    if args.which != "kalman":
        raise BeliefSpaceError(f"unknown example {args.which!r}")
    if args.spec is None:
        spec = KalmanSpec()
    else:
        try:
            spec = KalmanSpec(**json.loads(Path(args.spec).read_text()))
        except (OSError, ValueError, TypeError) as e:
            # unreadable file, malformed JSON, unknown or mistyped field
            raise ModelValidationError(f"cannot use spec file {args.spec}: {e}") from e
    model = build_model(spec)
    pts = model.state_grid.points
    init = make_measure(model.state_grid, np.exp(-0.5 * (pts / 2.0) ** 2))
    out = Path(args.out) if args.out else _out_dir(args) / "kalman_model.json"
    serialize.save_model(model, out, init_belief=init)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BeliefSpaceError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
