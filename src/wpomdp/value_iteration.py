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
contiguous element-wise passes per neighbour rank.  The per-belief reference form of the same
operator lives with the test oracles.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteValue,
    SolverFailure,
)
from .filtering import bayes_step, possible_nodes
from .measures import DISCRETE, DiscreteMeasure
from .model import CertifiedConstants, PomdpModel, certify, check_stop_rule
from .sampling import (
    _GATHER_BYTES,
    _KNN_CHUNK,
    _L1_BLOCK_BYTES,
    BeliefDistances,
    BeliefSample,
    check_lp_budget,
)

__all__ = [
    "TabulatedValue",
    "Selector",
    "VIResult",
    "solve_vi",
    "rollout_estimate",
    "check_rollout_size",
    "check_parallel",
    "NearestAnchorPolicy",
    "selector_policy",
]

# distances below this are "the same belief" for exact-sample lookup
_EXACT_MATCH_TOL = 1e-9

# sample points the McShane extension maximises over, per posterior
_K_NEIGHBORS = 16

# bytes of one row block of the McShane slope's pair distances: a sweep
# reduces each block while it is in cache (larger blocks, which also divide
# more of the lower triangle, ran slower at 600 beliefs)
_SLOPE_BLOCK_BYTES = 1 << 20

# simulated paths per seeded generator in rollouts
_PATH_CHUNK = 4096


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

def _row_blocks(B: int):
    """Row spans [s, e) of the slope blocks D[s:e, s:] of B sample points.

    Each block holds as many rows as keep it within ``_SLOPE_BLOCK_BYTES``
    (one row at least).
    """
    s = 0
    while s < B:
        e = min(B, s + max(1, _SLOPE_BLOCK_BYTES // (8 * (B - s))))
        yield s, e
        s = e


def _separated_pairs(block, B: int) -> list[tuple[int, np.ndarray]]:
    """Row blocks (s, D[s:e, s:]) of the separated sample pairs i < j.

    ``block(rows, cols)`` gives a new array of the W1 block between the
    sample points ``rows`` and ``cols`` (slices).  Entry (i, j), i < j,
    holds the smaller of its two ordered distances that exceed 1e-9, and
    inf where neither does; the diagonal and below hold inf, so the quotient
    max of :func:`_table_lip_estimate` is the max over every separated
    ordered pair.  Each block is masked in place, and its square
    D[s:e, s:e] takes the minimum with its transpose.  That changes no bit
    on an embedded metric, whose blocks are bitwise symmetric, and an
    explicit table's sample is one block (its LP budget admits fewer
    beliefs than the first block's rows), whose square is all of D.  No
    (B, B) array is ever held beyond that.
    """
    out = []
    for s, e in _row_blocks(B):
        up = block(slice(s, e), slice(s, B))
        np.putmask(up, up <= 1e-9, np.inf)
        sq = up[:, :e - s]
        np.minimum(sq, sq.T.copy(), out=sq)
        sq[np.tri(e - s, dtype=bool)] = np.inf
        out.append((s, up))
    return out


def _table_lip_estimate(values: np.ndarray, blocks) -> float:
    """Largest |dv| / W1 over separated sample pairs (0 when there are none).

    ``blocks`` are the row blocks of :func:`_separated_pairs`.  Each
    separated pair makes the subtraction and division of the pair-by-pair
    form |v_i - v_j| / d_ij, every other entry gives 0, and the max is
    exact, so the result has the bits of that form.
    """
    best = np.empty(len(blocks))
    for t, (s, d) in enumerate(blocks):
        q = np.subtract(values[s:s + len(d), None], values[None, s:])
        best[t] = np.divide(np.abs(q, out=q), d, out=q).max()
    return float(best.max())


def _nearest_in_sample(
    geom: BeliefDistances,
    pred: np.ndarray,
    dens: np.ndarray,
    lam: np.ndarray,
    b: np.ndarray,
    j: np.ndarray,
    idx_out: np.ndarray,
    dist_out: np.ndarray,
    pool: ThreadPoolExecutor | None,
) -> None:
    """k nearest sample points of each (b, j) posterior of one action.

    The posterior of (b, j) is ``pred[b] * dens.T[j] / lam[b, j]``, built
    one chunk of ``_KNN_CHUNK`` posteriors at a time inside the chunk's worker,
    so no (B * J, n) block of every posterior is ever held.  The first k
    by (distance, index) go to ``idx_out[:, b, j]`` and
    ``dist_out[:, b, j]``, K-major, with k = ``len(idx_out)``.  Each chunk
    is row-independent and writes its own entries, so the result is
    byte-identical for every worker count; ``pool`` runs the chunks when
    there are several (None: this thread does).  Equal distances are
    ordered by index (an unordered partition would leave them in any
    order); the solve reads nothing that depends on that order: McShane takes the max
    over all k, and the exact lookup reads only the nearest point, whose
    distance is at most ``_EXACT_MATCH_TOL`` and so cannot tie with a
    second point under the sample's dedup tolerance.
    """
    dens_t = np.ascontiguousarray(dens.T)
    spans = range(0, len(b), _KNN_CHUNK)

    def work(s):
        bs, js = b[s:s + _KNN_CHUNK], j[s:s + _KNN_CHUNK]
        rows = pred[bs] * dens_t[js]
        rows /= lam[bs, js][:, None]
        idx, dist = geom.knn(rows, len(idx_out))
        idx_out[:, bs, js] = idx.T
        dist_out[:, bs, js] = dist.T

    if pool is not None and len(spans) > 1:
        list(pool.map(work, spans))
    else:
        for s in spans:
            work(s)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _precompute_bytes(
    B: int, A: int, J: int, K: int, n: int, workers: int, discrete: bool
) -> int:
    """Leading terms of the bytes :class:`_Precomputed` holds at its peak.

    The (B, A, J) arrays (K-major neighbour indices in the narrowest
    unsigned dtype that holds B - 1, their distances, node probabilities),
    two (B, n) row blocks (embedding, one action's predictions), one
    action's likelihoods and (b, j) indices, the slope's row blocks (about
    4 * B^2), one slope block's mask or square copy, one L1 step, and per
    k-NN worker three (_KNN_CHUNK, n) blocks (rows and their gathers, or rows,
    embedding and index arrays) and the exact step's gather buffers.  On
    the ``discrete`` metric each worker's search step also holds a
    (_KNN_CHUNK, B) float bound, and where that bound prunes nothing every
    (query, kept) pair is a candidate: two indices, a distance, their
    three concatenations and the sort order, 64 bytes a pair in all.
    """
    idx = np.min_scalar_type(B - 1).itemsize
    kept = B * A * J * (K * (idx + 8) + 8) + 16 * B * n + 24 * B * J
    blocks = sum(8 * (e - s) * (B - s) for s, e in _row_blocks(B))
    step = max(_SLOPE_BLOCK_BYTES, 8 * B) + max(_L1_BLOCK_BYTES, 8 * B * n)
    search = 64 * _KNN_CHUNK * B if discrete else 0
    return kept + blocks + step + workers * (24 * _KNN_CHUNK * n + _GATHER_BYTES + search)


class _Precomputed:
    """Everything a sweep needs, gathered in one pass over (belief, action).

    Shapes: B sampled beliefs, A actions, J nodes, K kept neighbours.
    ``nn_idx`` and ``nn_dist`` are K-major, (K, B, A, J): slice k
    holds every (b, a, j) posterior's k-th nearest sample point and its
    distance, so a sweep reads one contiguous (B, A, J) slice per k.
    ``nn_idx`` has the narrowest unsigned dtype that holds B - 1 (uint16,
    a quarter of the bytes of ``intp``, up to 65,536 beliefs).  Only the
    nodes :func:`~wpomdp.filtering.possible_nodes` admits have a
    posterior: the others are never queried, and their ``node_probs``,
    ``nn_idx`` and ``nn_dist`` entries are 0.  ``pairs`` holds
    the separated sample pairs for the McShane slope estimate as row
    blocks of their upper triangle (:func:`_separated_pairs`), about
    4 * B^2 bytes, computed block by block so no (B, B) array is held.

    A sample whose arrays would not fit in physical memory, or whose
    explicit-table metric would need more than ``MAX_TABLE_LP_SOLVES``
    transport solves, raises :class:`~wpomdp.errors.SolverFailure` before
    any distance is computed.
    """

    def __init__(self, model: PomdpModel, sample: BeliefSample, parallel: int):
        B, A, J = sample.n, model.n_actions, model.n_obs
        K = min(_K_NEIGHBORS, B)
        W = sample.weight_matrix()
        geom = BeliefDistances(sample.grid, W, sample.beliefs)
        if geom.emb is None:
            check_lp_budget((B * A * J + B) * B, sample.grid.n)
        discrete = sample.grid.metric_kind == DISCRETE
        need = _precompute_bytes(B, A, J, K, model.n_states, parallel, discrete)
        have = _physical_memory()
        if have is not None and need > have:
            raise SolverFailure(
                f"the VI precompute needs about {need / 2**20:,.1f} MB for {B:,} beliefs; "
                f"physical memory is {have / 2**20:,.1f} MB: use a smaller sample"
            )

        self.tilde_w = W @ model.weight_values
        self.reward = W @ model.reward.T  # (B, A)
        self.node_probs = np.empty((B, A, J))
        self.nn_idx = np.zeros((K, B, A, J), dtype=np.min_scalar_type(B - 1))
        self.nn_dist = np.zeros((K, B, A, J))
        self.pairs = _separated_pairs(geom.block, B)

        phi = model.obs_quadrature.weights
        # One pool for every action.  A new pool's threads can start before
        # the last pool's threads have handed back their malloc arenas, and
        # then open one more arena, which stays resident: three 2-worker
        # pools in a row did so in 6 of 40 processes, one pool in none.
        with (ThreadPoolExecutor(parallel) if parallel > 1 else nullcontext()) as pool:
            for a in range(A):
                pred = W @ model.trans[a]  # (B, n)
                lam = pred @ model.obs_density[a]  # (B, J)
                live = possible_nodes(lam)
                self.node_probs[:, a, :] = np.where(live, phi[None, :] * lam, 0.0)
                b, j = np.nonzero(live)
                _nearest_in_sample(
                    geom, pred, model.obs_density[a], lam, b, j,
                    self.nn_idx[:, :, a], self.nn_dist[:, :, a], pool,
                )

        self.closed = bool(
            (np.where(self.node_probs > 0, self.nn_dist[0], 0.0) <= _EXACT_MATCH_TOL).all()
        )


def _mcshane(
    v: np.ndarray,
    lip: float,
    nn_idx: np.ndarray,
    nn_dist: np.ndarray,
    out: np.ndarray,
    tmp: np.ndarray,
    scaled: np.ndarray,
) -> None:
    """``out`` = max over k of v[nn_idx[k]] - lip * nn_dist[k], K-major.

    ``out``, ``tmp`` and ``scaled`` are float buffers of one slice's shape;
    each step is a contiguous element-wise pass.  Every candidate has the
    bits of the broadcast ``(v[idx] - lip * dist).max(axis=-1)`` over a
    trailing K axis, and so does the max, up to the sign of a zero max:
    where +0.0 and -0.0 tie, the later k's is kept.  The indices come from
    the k-NN and are in range, so ``take`` clips (never raises) and writes
    straight into its buffer.
    """
    v.take(nn_idx[0], out=out, mode="clip")
    np.subtract(out, np.multiply(lip, nn_dist[0], out=scaled), out=out)
    for k in range(1, len(nn_idx)):
        v.take(nn_idx[k], out=tmp, mode="clip")
        np.subtract(tmp, np.multiply(lip, nn_dist[k], out=scaled), out=tmp)
        np.maximum(out, tmp, out=out)


def check_parallel(parallel: int) -> None:
    """Refuse a VI precompute worker count below one.

    Raises :class:`~wpomdp.errors.SolverFailure`; :func:`solve_vi` calls
    it, and the CLI before it builds a sample.
    """
    if parallel < 1:
        raise SolverFailure(f"parallel must be >= 1, got {parallel}")


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
    the zero table with the greedy actions of the expected reward; a
    negative ``max_iters`` or a ``parallel`` below 1 raises
    :class:`~wpomdp.errors.SolverFailure`.  ``parallel`` k-NN workers
    never change a result bit.

    Posteriors read the value of their sample point when every posterior
    lies in the sample (a closed sample), and the McShane extension over
    their ``_K_NEIGHBORS`` nearest sample points otherwise.
    """
    check_stop_rule(epsilon, max_iters)
    check_parallel(parallel)
    constants = certify(model)
    pre = _Precomputed(model, sample, parallel)

    t_star = constants.iterations_for(epsilon)
    v = np.zeros(sample.n)
    lip_hat = 0.0
    sup_diffs = []
    q = pre.reward  # the zero-sweep greedy actions, if we never iterate
    post_vals, tmp, scaled = np.empty((3,) + pre.node_probs.shape)
    t = 0
    while t < min(t_star, max_iters):
        if pre.closed:
            v.take(pre.nn_idx[0], out=post_vals, mode="clip")
        else:
            _mcshane(v, lip_hat, pre.nn_idx, pre.nn_dist, post_vals, tmp, scaled)
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


def selector_policy(result: VIResult) -> NearestAnchorPolicy:
    sample = result.selector.sample
    return NearestAnchorPolicy(sample.grid, sample.weight_matrix(), result.selector.actions)


def check_rollout_size(horizon: int, n_paths: int) -> None:
    """Refuse a negative ``horizon`` or fewer than one path.

    Raises :class:`~wpomdp.errors.DimensionMismatch`;
    :func:`rollout_estimate` calls it, and the CLI before it builds a
    sample.
    """
    if horizon < 0 or n_paths <= 0:
        raise DimensionMismatch("need horizon >= 0 and n_paths > 0")


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
    Paths are simulated in chunks of ``_PATH_CHUNK`` with per-chunk seeded
    generators, which bound the memory of a step.
    ``policy`` has a vectorised ``act_batch``: a (paths, n_states) matrix
    of belief weights in, one action index per row out.
    Returns (mean, standard error).
    """
    model.check_belief(mu0)
    check_rollout_size(horizon, n_paths)
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
            acts = policy.act_batch(beliefs)
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
