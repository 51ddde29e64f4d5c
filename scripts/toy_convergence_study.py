"""Convergence behaviour of both solvers on the bundled finite toys.

For each toy model: print the certificate, measure the per-sweep
contraction ratio of value iteration against the certified gamma, and
track how the (pruned) function count of the set iteration grows.
Useful when changing the backup internals -- the ratios should hug
gamma and the sets should stay small.
"""

from __future__ import annotations

import argparse

import numpy as np

from wpomdp.conjugate import solve_sets
from wpomdp.model import certify
from wpomdp.sampling import reachability_tree
from wpomdp.synthetic import absorbing_unit_reward_toy, pbvi_toy, revealing_toy, uniform_belief
from wpomdp.value_iteration import solve_vi

TOYS = {
    "revealing": revealing_toy,
    "absorbing": absorbing_unit_reward_toy,
    "pbvi": pbvi_toy,
}


def contraction_ratios(sup_diffs, burn_in=3):
    d = np.asarray(sup_diffs)
    keep = d[burn_in:][d[burn_in:] > 1e-13]
    prev = d[burn_in - 1:-1][d[burn_in:] > 1e-13]
    return keep / prev


def study(name, make, *, epsilon, depth):
    model = make()
    consts = certify(model)
    sample = reachability_tree(model, uniform_belief(model), depth=depth)
    print(f"== {name}: {sample.n} beliefs, gamma = {consts.gamma:.4f}")

    vi = solve_vi(model, sample, epsilon=epsilon)
    ratios = contraction_ratios(vi.sup_diffs)
    print(f"   vi: {vi.iterations} sweeps, bound {vi.error_bound:.3g}, "
          f"ratio max {ratios.max():.4f} mean {ratios.mean():.4f}")

    st = solve_sets(model, sample, epsilon=epsilon)
    print(f"   sets: sizes {st.set_sizes[:4]}... final {st.final_set_size}")

    # on a non-closed sample the two routes generalise differently, so
    # the gap can exceed the iteration bounds; that excess is the
    # sample-coverage bias, worth watching when tuning depth
    gap = float(np.abs(vi.value.values - st.table.values).max())
    print(f"   cross-solver gap {gap:.3g} (iteration bounds alone {2 * vi.error_bound:.3g})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=1e-4)
    ap.add_argument("--depth", type=int, default=3)
    ap.add_argument("--toys", nargs="*", default=list(TOYS), choices=list(TOYS))
    args = ap.parse_args()
    for name in args.toys:
        study(name, TOYS[name], epsilon=args.epsilon, depth=args.depth)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
