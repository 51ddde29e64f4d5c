"""Tabulated value iteration with certified stopping, greedy selectors,
and Monte Carlo policy evaluation.

Values live on a fixed :class:`~wpomdp.sampling.BeliefSample`.  Posteriors
of sampled beliefs generally leave the sample, so backups need a
generalizer; two are provided:

* exact-sample lookup, valid when the sample is closed under filtering
  (every posterior coincides with a sample point), and
* a nearest-neighbour rule with Lipschitz correction,
  max_i (v_i - L * W1(mu, b_i)), the McShane-style lower extension of the
  table.

``solve_vi`` precomputes all posterior geometry once, takes the exact
lookup exactly when the sample turns out closed, and runs a sweep as a few
fused array operations.  The per-belief reference form of the same
operator lives with the test oracles.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteValue,
    SolverFailure,
)
from .filtering import bayes_step
from .measures import DiscreteMeasure, make_measure
from .model import CertifiedConstants, PomdpModel, certify
from .sampling import BeliefDistances, BeliefSample

__all__ = [
    "TabulatedValue",
    "Selector",
    "VIResult",
    "solve_vi",
    "rollout_estimate",
    "NearestAnchorPolicy",
    "selector_policy",
]

# distances below this are "the same belief" for exact-sample lookup
_EXACT_MATCH_TOL = 1e-9

# fixed k-NN work-unit size; results are assembled by index, so outputs
# are identical for any worker count
_CHUNK = 256

# sample points the McShane extension maximises over, per posterior
_K_NEIGHBORS = 16

# simulated paths per seeded generator in rollouts
_PATH_CHUNK = 4096

# Explicit-table metrics solve one pure-Python transportation LP per
# (posterior or sample point, sample point) pair, at a measured median of
# about 2.3 ms each: 100k solves is about four minutes, so past this a
# solve fails up front instead of running for hours.
_MAX_TABLE_LP_SOLVES = 100_000
_LP_SOLVE_S = 2.3e-3


@dataclass(eq=False)
class TabulatedValue:
    """Finite value table over a belief sample."""

    sample: BeliefSample
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.sample.n,):
            raise DimensionMismatch("one value per sampled belief required")
        if not np.isfinite(self.values).all():
            raise NonFiniteValue("value table contains non-finite entries")

    @classmethod
    def zeros(cls, sample: BeliefSample) -> "TabulatedValue":
        return cls(sample, np.zeros(sample.n))


@dataclass(frozen=True)
class Selector:
    """Greedy action per sampled belief (ties -> lowest action index)."""

    sample: BeliefSample
    actions: tuple[int, ...]

    def action_at(self, i: int) -> int:
        return self.actions[i]


@dataclass(eq=False)
class VIResult:
    value: TabulatedValue
    selector: Selector
    iterations: int
    error_bound: float
    sup_diffs: tuple[float, ...]
    converged: bool
    constants: CertifiedConstants
    lip_estimate: float


# --------------------------------------------------------------------------
# solver
# --------------------------------------------------------------------------

def _separated_pairs(pair_d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample pairs i < j more than 1e-9 apart: (i, j, distance).

    Each pair carries the smaller of its two separated ordered entries, so
    the quotient max in :func:`_table_lip_estimate` equals the max over
    every separated ordered pair even for a block that is not bitwise
    symmetric (division is monotone in the denominator).
    """
    i, j = np.triu_indices(len(pair_d), 1)
    d = np.where(pair_d > 1e-9, pair_d, np.inf)
    d = np.minimum(d[i, j], d[j, i])
    keep = np.isfinite(d)
    return i[keep], j[keep], d[keep]


def _table_lip_estimate(values: np.ndarray, pairs) -> float:
    """Largest |dv| / W1 over separated sample pairs (0 when there are none)."""
    i, j, d = pairs
    if not len(d):
        return 0.0
    return float((np.abs(values[i] - values[j]) / d).max())


def _nearest_in_sample(
    geom: BeliefDistances, rows: np.ndarray, which: np.ndarray, k: int, parallel: int
) -> tuple[np.ndarray, np.ndarray]:
    """k nearest sample points of ``rows[which]`` by (distance, index): (m, k).

    Work is split into fixed chunks that gather their own rows; each chunk
    is row-independent, so the result is byte-identical for every worker
    count.  Equal distances are ordered by index (an unordered partition
    would leave them in any order); the solve reads nothing that depends
    on that order: McShane takes the max over all k, and the exact lookup
    reads only the nearest point, whose distance is at most
    ``_EXACT_MATCH_TOL`` and so cannot tie with a second point under the
    sample's dedup tolerance.
    """
    m, big = len(which), len(geom)
    k = min(k, big)
    idx = np.empty((m, k), dtype=np.int32)
    dst = np.empty((m, k))
    spans = [(s, min(s + _CHUNK, m)) for s in range(0, m, _CHUNK)]

    def work(span):
        s, e = span
        idx[s:e], dst[s:e] = geom.knn(rows[which[s:e]], k)

    if parallel > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            list(pool.map(work, spans))
    else:
        for span in spans:
            work(span)
    return idx, dst


class _Precomputed:
    """Everything a sweep needs, gathered in one pass over (belief, action).

    Shapes: B sampled beliefs, A actions, J nodes, K kept neighbours.
    ``nn_idx``/``nn_dist`` give, for each (b, a, j) posterior, its nearest
    sample points; nodes of zero likelihood have no posterior, so they are
    never queried, carry zeros and are masked by ``node_probs`` anyway.
    ``pairs`` lists the separated sample pairs for the McShane slope
    estimate.
    """

    def __init__(self, model: PomdpModel, sample: BeliefSample, parallel: int):
        B, A = sample.n, model.n_actions
        J, n = model.n_obs, model.n_states
        K = min(_K_NEIGHBORS, B)
        W = sample.weight_matrix()
        geom = BeliefDistances(sample.grid, W, sample.beliefs)
        if geom.emb is None:
            solves = (B * A * J + B) * B
            if solves > _MAX_TABLE_LP_SOLVES:
                raise SolverFailure(
                    f"the explicit-table metric needs {solves:,} transport solves "
                    f"(about {solves * _LP_SOLVE_S / 60:,.0f} min at {_LP_SOLVE_S * 1e3:.1f} ms "
                    f"each); the limit is {_MAX_TABLE_LP_SOLVES:,}: use a smaller sample"
                )

        self.tilde_w = W @ model.weight.values_on(model.state_grid)
        self.reward = W @ model.reward.T  # (B, A)
        self.node_probs = np.empty((B, A, J))
        self.nn_idx = np.zeros((B, A, J, K), dtype=np.int32)
        self.nn_dist = np.zeros((B, A, J, K))
        self.pairs = _separated_pairs(geom.pairwise())

        phi = model.obs_quadrature.weights
        for a in range(A):
            pred = W @ model.trans[a]  # (B, n)
            lam = pred @ model.obs_density[a]  # (B, J)
            self.node_probs[:, a, :] = phi[None, :] * lam
            # posterior rows for all (b, j) of this action at once
            post = pred[:, None, :] * model.obs_density[a].T[None, :, :]
            valid = lam > 0.0
            post /= np.where(valid, lam, 1.0)[:, :, None]
            flat = np.flatnonzero(valid)
            b, j = np.divmod(flat, J)
            self.nn_idx[b, a, j], self.nn_dist[b, a, j] = _nearest_in_sample(
                geom, post.reshape(B * J, n), flat, K, parallel
            )

        self.closed = bool(
            (np.where(self.node_probs > 0, self.nn_dist[..., 0], 0.0) <= _EXACT_MATCH_TOL).all()
        )


def solve_vi(
    model: PomdpModel,
    sample: BeliefSample,
    epsilon: float = 1e-3,
    max_iters: int = 1000,
    *,
    parallel: int = 1,
) -> VIResult:
    """Value iteration from the zero table with a certified stop.

    Runs exactly the number of sweeps the a-priori geometric bound
    r_bar * gamma^t / (1 - gamma) needs to fall below ``epsilon`` (the
    empirical sup-difference is reported alongside, and is typically far
    smaller).  If ``max_iters`` cuts the run short the result is returned
    with ``converged=False`` rather than raised; ``max_iters=0`` returns
    the zero table with the greedy actions of the expected reward.

    Posteriors read the value of their sample point when every posterior
    lies in the sample (a closed sample), and the McShane extension over
    their ``_K_NEIGHBORS`` nearest sample points otherwise.
    """
    constants = certify(model)
    if epsilon <= 0:
        raise SolverFailure("epsilon must be positive")
    pre = _Precomputed(model, sample, parallel)

    t_star = constants.iterations_for(epsilon)
    v = np.zeros(sample.n)
    lip_hat = 0.0
    sup_diffs = []
    q = pre.reward  # the zero-sweep greedy actions, if we never iterate
    t = 0
    while t < min(t_star, max_iters):
        if pre.closed:
            post_vals = v[pre.nn_idx[..., 0]]
        else:
            post_vals = (v[pre.nn_idx] - lip_hat * pre.nn_dist).max(axis=-1)
        q = pre.reward + model.discount * (pre.node_probs * post_vals).sum(axis=-1)
        v_new = q.max(axis=1)
        sup_diffs.append(float((np.abs(v_new - v) / pre.tilde_w).max()))
        v = v_new
        t += 1
        if not pre.closed:
            # never let the correction slope shrink between sweeps: keeps
            # the effective operator stationary once the estimate settles
            lip_hat = max(lip_hat, _table_lip_estimate(v, pre.pairs))

    table = TabulatedValue(sample, v)
    selector = Selector(sample, tuple(int(i) for i in q.argmax(axis=1)))
    return VIResult(
        value=table,
        selector=selector,
        iterations=t,
        error_bound=constants.apriori_bound(t),
        sup_diffs=tuple(sup_diffs),
        converged=(t >= t_star),
        constants=constants,
        lip_estimate=lip_hat,
    )


# --------------------------------------------------------------------------
# Monte Carlo policy evaluation
# --------------------------------------------------------------------------

class NearestAnchorPolicy:
    """Vectorised belief->action map: copy the action of the nearest anchor.

    The nearest anchor is exact in W1, with ties going to the lowest
    anchor index.
    """

    def __init__(self, grid, anchor_rows: np.ndarray, actions):
        self.anchors = BeliefDistances(grid, anchor_rows)
        if self.anchors.emb is None:
            raise DimensionMismatch("anchor policies need an embeddable metric")
        self.emb = self.anchors.emb
        self.actions = np.asarray(actions, dtype=np.int64)
        if len(self.actions) != len(self.emb):
            raise DimensionMismatch("one action per anchor required")

    def act_batch(self, rows: np.ndarray) -> np.ndarray:
        return self.actions[self.anchors.knn(rows, 1)[0][:, 0]]

    def __call__(self, mu: DiscreteMeasure) -> int:
        return int(self.act_batch(mu.weights[None, :])[0])


def selector_policy(result: VIResult) -> NearestAnchorPolicy:
    sample = result.selector.sample
    return NearestAnchorPolicy(sample.grid, sample.weight_matrix(), result.selector.actions)


def rollout_estimate(
    model: PomdpModel,
    policy,
    mu0: DiscreteMeasure,
    horizon: int,
    n_paths: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Discounted reward of ``policy`` over simulated hidden trajectories.

    Each path samples a hidden start from mu0 and runs ``horizon + 1``
    decision steps; the policy only ever sees the belief filtered by
    :func:`~wpomdp.filtering.bayes_step`, as ``bayes_update`` would.
    Paths are simulated in fixed-size chunks with per-chunk seeded
    generators, so results do not depend on how workers are scheduled.
    ``policy`` is either a plain callable on beliefs or an object with a
    vectorised ``act_batch`` (weights-matrix in, action vector out).
    Returns (mean, standard error).
    """
    model.check_belief(mu0)
    if horizon < 0 or n_paths <= 0:
        raise DimensionMismatch("need horizon >= 0 and n_paths > 0")
    batched = hasattr(policy, "act_batch")
    n, A, J = model.n_states, model.n_actions, model.n_obs
    trans_cum = np.cumsum(model.trans, axis=2)  # (A, n, n)
    # node draw for a path in state x' under action a: phi_j q(y_j|x',a)
    node_cum = np.cumsum(
        model.obs_density * model.obs_quadrature.weights[None, None, :], axis=2
    )  # (A, n, J)

    totals = np.empty(n_paths)
    for c, start in enumerate(range(0, n_paths, _PATH_CHUNK)):
        p = min(_PATH_CHUNK, n_paths - start)
        rng = np.random.default_rng([seed, c])
        x = rng.choice(n, size=p, p=mu0.weights)
        beliefs = np.broadcast_to(mu0.weights, (p, n)).copy()
        disc = 1.0
        acc = np.zeros(p)
        for t in range(horizon + 1):
            if batched:
                acts = policy.act_batch(beliefs)
            else:
                acts = np.fromiter(
                    (policy(make_measure(model.state_grid, b)) for b in beliefs),
                    dtype=np.int64,
                    count=p,
                )
            acc += disc * model.reward[acts, x]
            disc *= model.discount
            if t == horizon:
                break
            u = rng.random(p)
            x = np.minimum((trans_cum[acts, x] < u[:, None]).sum(axis=1), n - 1)
            u = rng.random(p)
            nodes = np.minimum((node_cum[acts, x] < u[:, None]).sum(axis=1), J - 1)
            pred = np.empty_like(beliefs)
            for a in range(A):  # grouped GEMMs, one per action in use
                sel = acts == a
                if sel.any():
                    pred[sel] = beliefs[sel] @ model.trans[a]
            beliefs = bayes_step(model, pred, acts, nodes)
        totals[start:start + p] = acc
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return mean, stderr
