"""The benchmark's workloads: seeded inputs, one unit of solver work, checks.

Every workload drives the public API the CLI subcommands call, with the
CLI's arguments, and always through the module attribute (for example
``value_iteration.solve_vi``) so that a traced run's wrappers see the
call.  A *unit* is the tree plus every solver call of the workload; its
timed phases add up to ``solve_s``.  CSV artifacts are written with
``serialize`` after the timed phases and fingerprinted by sha256.

Why these three workloads (the reference sizes, except that the
explicit-table solve runs at cap 10):

* ``vi_kalman600`` -- the acceptance-size reference solve; the posterior
  nearest-neighbour precompute dominates.  A small seeded explicit-table
  solve rides along: it is the only input that reaches the transportation
  simplex, so it guards the LP fallback.  On its own it was too unsteady
  to be a workload (pure-Python LP time swung 20-40% between runs on the
  two-core machine the benchmark was tuned on).
* ``sets_drift1`` -- ``compare`` with alg1 and alg2 sharing one VI solve on
  the belief-dependent drift instance, where the sets actually grow; the
  set backups dominate.
* ``rollout_drift1`` -- Monte Carlo evaluation of the exact selector
  policy; nearest-anchor lookups dominate, with a different shape
  (many queries against few anchors) from ``vi_kalman600``.
"""

from __future__ import annotations

import hashlib
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wpomdp import conjugate, kalman, sampling, serialize, value_iteration
from wpomdp import model as model_mod
from wpomdp.kalman import KalmanSpec, reference_spec
from wpomdp.measures import EUCLIDEAN_1D, EXPLICIT_TABLE, StateGrid, WeightFunction, make_measure
from wpomdp.model import PomdpModel
from wpomdp.synthetic import finite_obs_quadrature

# one process, two k-NN workers: the machine the sizes were chosen on has
# two cores, and the BLAS calls never overlap the worker pool
PARALLEL = 2
MAX_ITERS = 1000  # the CLI default


@dataclass(frozen=True)
class Sizes:
    ref_spec: KalmanSpec
    drift_spec: KalmanSpec
    ref_cap: int
    drift_cap: int
    n_paths: int
    lattice_side: int
    table_cap: int


FULL = Sizes(
    ref_spec=reference_spec(),  # 161 states x 3 actions x 33 nodes
    drift_spec=KalmanSpec(drift=1.0, grid_step=0.2),  # 81 states
    ref_cap=600,
    drift_cap=300,
    n_paths=500,
    lattice_side=4,
    table_cap=10,  # 1.4k LP solves, 2-3 s; cap 20 makes 5.4k, 9-12 s
)
# keeps the harness from rotting; the same code paths at desk size
SMOKE = Sizes(
    ref_spec=reference_spec(1.0),
    drift_spec=KalmanSpec(drift=1.0, grid_step=1.0),
    ref_cap=20,
    drift_cap=20,
    n_paths=20,
    lattice_side=3,
    table_cap=10,
)


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

def gaussian_belief(model: PomdpModel, seed: int):
    """Seeded Gaussian initial belief near the CLI example's N(0, 2^2)."""
    rng = np.random.default_rng([seed, 0])
    mean = rng.uniform(-0.5, 0.5)
    std = rng.uniform(1.75, 2.25)
    pts = model.state_grid.points
    return make_measure(model.state_grid, np.exp(-0.5 * ((pts - mean) / std) ** 2))


def lattice_model(side: int, seed: int) -> PomdpModel:
    """Seeded side x side lattice with the Manhattan explicit-table metric.

    3 actions and 4 observations; Dirichlet kernels drawn from the seed,
    observation rows kept away from zero so every posterior exists.
    """
    rng = np.random.default_rng([seed, 1])
    n, n_actions, n_obs = side * side, 3, 4
    cells = np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)
    table = np.abs(cells[:, None, :] - cells[None, :, :]).sum(axis=2)
    trans = rng.dirichlet(np.ones(n), size=(n_actions, n))
    obs = 0.9 * rng.dirichlet(np.ones(n_obs), size=(n_actions, n)) + 0.1 / n_obs
    return PomdpModel(
        state_grid=StateGrid(np.arange(n, dtype=float), EXPLICIT_TABLE, table),
        actions=tuple(f"a{i}" for i in range(n_actions)),
        obs_quadrature=finite_obs_quadrature(n_obs),
        trans=trans,
        obs_density=obs,
        reward=rng.uniform(-2.0, 2.0, size=(n_actions, n)),
        discount=0.8,
        weight=WeightFunction(0.0, 0.03),
    )


# --------------------------------------------------------------------------
# set-up: build, save/load round trip, certify
# --------------------------------------------------------------------------

@dataclass
class Setup:
    models: dict[str, tuple[PomdpModel, object]]  # name -> (model, initial belief)
    phases: dict[str, float]

    @property
    def seconds(self) -> float:
        return sum(self.phases.values())


def _built(workload: str, seed: int, sizes: Sizes) -> dict:
    if workload == "vi_kalman600":
        ref = kalman.build_model(sizes.ref_spec)
        table = lattice_model(sizes.lattice_side, seed)
        return {"kalman": (ref, gaussian_belief(ref, seed)),
                "table": (table, make_measure(table.state_grid, np.ones(table.n_states)))}
    drift = kalman.build_model(sizes.drift_spec)
    return {"kalman": (drift, gaussian_belief(drift, seed))}


def set_up(workload: str, seed: int, sizes: Sizes, out: Path) -> Setup:
    """What a CLI user pays before solving: build, save, load, certify."""
    phases = dict.fromkeys(("build", "save", "load", "certify"), 0.0)
    t = time.perf_counter()
    built = _built(workload, seed, sizes)
    phases["build"] = time.perf_counter() - t
    models = {}
    for name, (model, init) in built.items():
        path = out / f"{name}.json"
        t = time.perf_counter()
        serialize.save_model(model, path, init_belief=init)
        phases["save"] += time.perf_counter() - t

        t = time.perf_counter()
        loaded, init_w = serialize.load_model(path)
        models[name] = (loaded, make_measure(loaded.state_grid, init_w))
        phases["load"] += time.perf_counter() - t

        t = time.perf_counter()
        model_mod.certify(loaded)
        phases["certify"] += time.perf_counter() - t
    return Setup(models, phases)


# --------------------------------------------------------------------------
# one unit of work
# --------------------------------------------------------------------------

@dataclass
class Outcome:
    phases: dict[str, float] = field(default_factory=dict)
    # user / system CPU seconds and minor page faults over the timed phases
    rusage: dict[str, float] = field(default_factory=lambda: dict.fromkeys(
        ("user_s", "sys_s", "minor_faults"), 0.0))
    windows: list[tuple[float, float]] = field(default_factory=list)
    sha256: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    measured: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def solve_s(self) -> float:
        return sum(self.phases.values())

    @contextmanager
    def timed(self, phase: str):
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            self.windows.append((t, end))
            self.phases[phase] = self.phases.get(phase, 0.0) + end - t
            self.rusage["user_s"] += r1.ru_utime - r0.ru_utime
            self.rusage["sys_s"] += r1.ru_stime - r0.ru_stime
            self.rusage["minor_faults"] += r1.ru_minflt - r0.ru_minflt


def _check_certificate(out: Outcome, label: str, res, epsilon: float) -> None:
    """The stop is honest: bound <= epsilon and the last sweep below it."""
    c, t = res.constants, res.iterations
    if getattr(res, "converged", True) is not True:
        out.problems.append(f"{label}: not converged after {t} iterations")
    if not c.apriori_bound(t) <= epsilon:
        out.problems.append(f"{label}: apriori_bound({t}) = {c.apriori_bound(t):.3g} > {epsilon:g}")
    if res.error_bound != c.apriori_bound(t):
        out.problems.append(f"{label}: reported bound differs from apriori_bound({t})")
    if not res.sup_diffs or not res.sup_diffs[-1] <= res.error_bound:
        out.problems.append(f"{label}: last sup-diff exceeds the bound")


def _tree(out: Outcome, model, mu0, cap: int, seed: int, tag: str = ""):
    with out.timed(tag + "tree"):
        sample = sampling.reachability_tree(model, mu0, depth=2, cap=cap, seed=seed)
    out.counts[tag + "tree_beliefs"] = sample.n
    return sample


def _vi(out: Outcome, model, sample, epsilon: float, probe, tag: str = "") -> object:
    if probe is not None:
        probe(model, sample, epsilon)
    with out.timed(tag + "vi"):
        res = value_iteration.solve_vi(
            model, sample, epsilon=epsilon, max_iters=MAX_ITERS, parallel=PARALLEL
        )
    _check_certificate(out, tag + "solve_vi", res, epsilon)
    B, A, J = sample.n, model.n_actions, model.n_obs
    queries = B * A * J
    emb_dim = model.n_states - 1 if model.state_grid.metric_kind == EUCLIDEAN_1D else 0
    out.counts[tag + "vi_sweeps"] = res.iterations
    out.counts[tag + "knn_queries"] = queries
    # brute force: every posterior and every sample point against the sample
    out.counts[tag + "knn_pair_evals"] = (queries + B) * B
    out.counts[tag + "knn_bytes_computed"] = (queries + B) * B * emb_dim * 8
    return res


def _write(out: Outcome, d: Path, name: str, writer, *args) -> None:
    path = d / name.replace("/", "_")
    writer(path, *args)
    out.sha256[name] = hashlib.sha256(path.read_bytes()).hexdigest()


def _bounds(constants, n: int) -> list[float]:
    return [constants.apriori_bound(t + 1) for t in range(n)]


def _write_vi(out: Outcome, d: Path, res, tag: str = "") -> None:
    _write(out, d, tag + "convergence.csv", serialize.write_convergence_csv,
           res.sup_diffs, _bounds(res.constants, res.iterations))
    _write(out, d, tag + "values.csv", serialize.write_values_csv,
           res.value.values, res.selector.actions)


def unit(workload: str, setup: Setup, seed: int, sizes: Sizes, d: Path, probe=None) -> Outcome:
    """Run one unit of ``workload``; exceptions propagate to the caller."""
    out = Outcome()
    model, mu0 = setup.models["kalman"]
    if workload == "vi_kalman600":
        sample = _tree(out, model, mu0, sizes.ref_cap, seed)
        vi = _vi(out, model, sample, 1e-3, probe)
        _write_vi(out, d, vi)
        # the explicit-table solve: the only route into the LP fallback
        table, table_mu0 = setup.models["table"]
        sample = _tree(out, table, table_mu0, sizes.table_cap, seed, "table/")
        vi = _vi(out, table, sample, 1e-2, None, "table/")
        _write_vi(out, d, vi, "table/")
    elif workload == "sets_drift1":
        epsilon = 0.05
        sample = _tree(out, model, mu0, sizes.drift_cap, seed)
        vi = _vi(out, model, sample, epsilon, probe)
        _write_vi(out, d, vi)
        for alg in ("alg1", "alg2"):
            with out.timed(alg):
                st = conjugate.solve_sets(
                    model, sample, epsilon=epsilon, max_iters=MAX_ITERS, algorithm=alg
                )
            _check_certificate(out, f"solve_sets[{alg}]", st, epsilon)
            sets = st.sets if isinstance(st.sets, tuple) else (st.sets,)
            combined = vi.error_bound + st.error_bound
            _write(out, d, f"{alg}/alphas.csv", serialize.write_alphas_csv, sets)
            _write(out, d, f"{alg}/convergence.csv", serialize.write_convergence_csv,
                   st.sup_diffs, _bounds(st.constants, st.iterations))
            _write(out, d, f"{alg}/diff.csv", serialize.write_diff_csv,
                   vi.value.values, st.table.values, combined)
            worst = float(np.abs(vi.value.values - st.table.values).max())
            # known non-closure (README): measured, never a failure
            out.measured[f"compare_gap_ratio_{alg}"] = worst / combined
            out.counts[f"{alg}_iterations"] = st.iterations
            out.counts[f"{alg}_set_size_final"] = st.final_set_size
            out.counts[f"{alg}_set_size_max"] = max(st.set_sizes)
            out.counts[f"{alg}_set_size_sum"] = sum(st.set_sizes)
    elif workload == "rollout_drift1":
        epsilon = 1e-3
        sample = _tree(out, model, mu0, sizes.drift_cap, seed)
        vi = _vi(out, model, sample, epsilon, probe)
        horizon = vi.constants.iterations_for(epsilon / 10.0)  # as `wpomdp rollout`
        with out.timed("rollout"):
            mean, err = value_iteration.rollout_estimate(
                model, value_iteration.selector_policy(vi), mu0, horizon, sizes.n_paths,
                seed=seed,
            )
        if not (np.isfinite(mean) and np.isfinite(err) and err > 0):
            out.problems.append(f"rollout: mean {mean!r}, stderr {err!r}")
        _write_vi(out, d, vi)
        _write(out, d, "rollout.csv", serialize.write_rollout_csv,
               mean, err, sizes.n_paths, horizon)
        steps = sizes.n_paths * (horizon + 1)
        out.counts["rollout_path_steps"] = steps
        out.counts["act_batch_pair_evals"] = steps * sample.n
        out.measured["rollout_path_steps_per_s"] = steps / out.phases["rollout"]
        # known non-closure (README): measured, never a failure
        out.measured["rollout_gap_stderr"] = abs(mean - vi.value.values[0]) / err
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


WORKLOADS = ("vi_kalman600", "sets_drift1", "rollout_drift1")
