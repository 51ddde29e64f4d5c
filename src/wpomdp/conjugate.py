"""Conjugate duality and set iteration on Lipschitz alpha-functions.

A convex lower-semicontinuous value function over beliefs is represented
as the upper envelope of belief integrals of a finite function set,
``value(mu) = max_f integral f dmu``.  This module provides

* envelope evaluation and pruning,
* the empirical Fenchel conjugate ``rho`` with its translation /
  monotonicity structure and the second conjugate (both over finite
  belief samples, hence lower bounds of the measure-space suprema),
* the set-iteration backup: per quadrature node, pick the best member
  function against the unnormalised posterior functional and assemble a
  backed-up alpha-function per (belief, action),
* plain and per-action solver loops with the same certified stopping
  rule as value iteration, and
* a measured Lipschitz-growth diagnostic for the backed-up functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySample, SolverFailure
from .measures import EUCLIDEAN_1D, DiscreteMeasure, LipschitzFn, integrate, lipschitz_constants
from .model import CertifiedConstants, PomdpModel, certify
from .sampling import BeliefSample
from .value_iteration import TabulatedValue

__all__ = [
    "AlphaSet",
    "SetBackupResult",
    "QSetBackupResult",
    "SetSolveResult",
    "eval_sup",
    "eval_sup_table",
    "conjugate_rho",
    "second_conjugate",
    "normalize_null_level",
    "set_backup",
    "q_set_backup",
    "prune",
    "solve_sets",
    "zero_alpha_set",
    "lip_growth_constants",
]

# backed-up functions closer than this in sup norm are merged
_DUP_TOL = 1e-10


@dataclass(eq=False)
class AlphaSet:
    """Finite set of Lipschitz functions evaluated as an upper envelope."""

    fns: tuple[LipschitzFn, ...]
    tag: str = "plain"
    _matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.fns = tuple(self.fns)
        if len(self.fns) == 0:
            raise EmptySample("an alpha set needs at least one function")
        g = self.fns[0].grid
        for f in self.fns[1:]:
            if not f.grid.same_points(g):
                raise EmptySample("alpha-set functions live on different grids")

    @property
    def n_fns(self) -> int:
        return len(self.fns)

    @property
    def grid(self):
        return self.fns[0].grid

    @property
    def max_lip(self) -> float:
        return max(f.lip_const for f in self.fns)

    def matrix(self) -> np.ndarray:
        """(n_fns, n_states) stack of the function values (cached)."""
        if self._matrix is None:
            self._matrix = np.stack([f.values for f in self.fns])
        return self._matrix


def zero_alpha_set(model: PomdpModel, tag: str = "plain") -> AlphaSet:
    return AlphaSet((LipschitzFn(model.state_grid, np.zeros(model.n_states)),), tag)


def eval_sup(alpha_set: AlphaSet, mu: DiscreteMeasure) -> tuple[float, int]:
    """Envelope value and winning index at one belief (ties -> lowest)."""
    vals = alpha_set.matrix() @ mu.weights if alpha_set.grid.same_points(mu.grid) else (
        np.array([integrate(f, mu) for f in alpha_set.fns])
    )
    i = int(vals.argmax())
    return float(vals[i]), i


def eval_sup_table(alpha_set: AlphaSet, sample: BeliefSample) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised envelope over a sample: (values, argmax indices)."""
    scores = sample.weight_matrix() @ alpha_set.matrix().T  # (B, nf)
    return scores.max(axis=1), scores.argmax(axis=1)


def conjugate_rho(f: LipschitzFn, value_eval, sample: BeliefSample) -> float:
    """Empirical conjugate: max over sampled mu of int f dmu - value(mu).

    A lower bound of the measure-space supremum; exact whenever the
    supremum is attained inside the sample (e.g. envelopes evaluated on
    their own defining sample).
    """
    best = -np.inf
    for mu in sample.beliefs:
        best = max(best, integrate(f, mu) - value_eval(mu))
    return float(best)


def second_conjugate(
    mu: DiscreteMeasure,
    candidate_fns,
    value_eval,
    sample: BeliefSample,
) -> float:
    """max over candidates of int f dmu - rho(f), the biconjugate at mu."""
    candidate_fns = tuple(candidate_fns)
    if len(candidate_fns) == 0:
        raise EmptySample("second conjugate needs candidate functions")
    return max(
        integrate(f, mu) - conjugate_rho(f, value_eval, sample) for f in candidate_fns
    )


def normalize_null_level(f: LipschitzFn, value_eval, sample: BeliefSample) -> LipschitzFn:
    """Shift ``f`` down by its conjugate so the shifted conjugate is zero."""
    rho = conjugate_rho(f, value_eval, sample)
    if not np.isfinite(rho):
        raise SolverFailure("conjugate is not finite over the sample")
    return LipschitzFn(f.grid, f.values - rho)


# --------------------------------------------------------------------------
# set-iteration backup
# --------------------------------------------------------------------------

@dataclass(eq=False)
class SetBackupResult:
    """One plain backup step.

    ``backed`` holds g_{mu,a} for every sampled belief and action;
    ``backed_matrix`` the per-belief row for the winning action (aligned
    with the sample, before duplicate merging); ``node_winners[a, b, j]``
    the member-function index chosen at each quadrature node.
    """

    new_set: AlphaSet
    table: TabulatedValue
    action_values: np.ndarray  # (B, A)
    chosen_action: np.ndarray  # (B,)
    node_winners: np.ndarray  # (A, B, J)
    backed: np.ndarray  # (A, B, n)

    @property
    def backed_matrix(self) -> np.ndarray:
        return self.backed[self.chosen_action, np.arange(len(self.chosen_action))]


@dataclass(eq=False)
class QSetBackupResult:
    new_sets: tuple[AlphaSet, ...]
    table: TabulatedValue
    action_values: np.ndarray
    chosen_action: np.ndarray
    node_winners: np.ndarray  # indices into the concatenated union
    backed: np.ndarray


def _merge_duplicate_rows(rows: np.ndarray) -> np.ndarray:
    """Drop rows within _DUP_TOL (sup norm) of an earlier row."""
    keep: list[int] = []
    for i, row in enumerate(rows):
        if all(np.abs(row - rows[j]).max() >= _DUP_TOL for j in keep):
            keep.append(i)
    return rows[keep]


def _rows_to_set(grid, rows: np.ndarray, tag: str) -> AlphaSet:
    return AlphaSet(tuple(LipschitzFn(grid, row) for row in rows), tag)


def _backup_against(model: PomdpModel, fn_matrix: np.ndarray, sample: BeliefSample):
    """Core backup of every (belief, action) against a fixed function stack.

    Returns (action_values (B,A), node_winners (A,B,J), backed (A,B,n)).
    The per-node argmax uses the unnormalised posterior functional
    sum_x' f(x') pred(x') q(y_j|x',a): positive scalars commute with sup,
    so normalising by the node likelihood is unnecessary, and nodes with
    zero likelihood contribute exactly zero either way.
    """
    W = sample.weight_matrix()
    B, n = W.shape
    A, J = model.n_actions, model.n_obs
    nf = len(fn_matrix)
    phi = model.obs_quadrature.weights

    action_values = np.empty((B, A))
    node_winners = np.empty((A, B, J), dtype=np.int32)
    backed = np.empty((A, B, n))
    for a in range(A):
        pred = W @ model.trans[a]  # (B, n)
        q = model.obs_density[a]  # (n, J)
        win = np.empty((B, J), dtype=np.int64)
        contrib = np.zeros((B, n))
        for j in range(J):
            scores = (pred * q[:, j][None, :]) @ fn_matrix.T  # (B, nf)
            win[:, j] = scores.argmax(axis=1)
            # C[f, x] = sum_x' f(x') p(x'|x,a) phi_j q(y_j|x',a)
            c = fn_matrix @ (model.trans[a] * (phi[j] * q[:, j])[None, :]).T
            contrib += c[win[:, j]]
        g = model.reward[a][None, :] + model.discount * contrib  # (B, n)
        node_winners[a] = win
        backed[a] = g
        action_values[:, a] = (g * W).sum(axis=1)
    return action_values, node_winners, backed


def set_backup(model: PomdpModel, alpha_set: AlphaSet, sample: BeliefSample) -> SetBackupResult:
    """Plain backup: per belief keep the best action's backed-up function.

    The returned table satisfies value(mu) = integral of the kept function
    against mu = max_a of the one-action backup of the envelope.
    """
    certify(model)
    action_values, node_winners, backed = _backup_against(
        model, alpha_set.matrix(), sample
    )
    chosen = action_values.argmax(axis=1)
    rows = backed[chosen, np.arange(sample.n)]
    new_set = _rows_to_set(model.state_grid, _merge_duplicate_rows(rows), "plain")
    return SetBackupResult(
        new_set=new_set,
        table=TabulatedValue(sample, action_values.max(axis=1)),
        action_values=action_values,
        chosen_action=chosen,
        node_winners=node_winners,
        backed=backed,
    )


def q_set_backup(model: PomdpModel, qsets, sample: BeliefSample) -> QSetBackupResult:
    """Per-action variant: inner sup over the union, no outer max stored.

    ``qsets`` is one AlphaSet per action; the backed-up function of action
    ``a`` at each belief is filed under action ``a`` regardless of which
    action wins the value.  Reported values are the outer max.
    """
    certify(model)
    qsets = tuple(qsets)
    if len(qsets) != model.n_actions:
        raise SolverFailure("need one alpha set per action")
    union = np.vstack([s.matrix() for s in qsets])
    action_values, node_winners, backed = _backup_against(model, union, sample)
    new_sets = tuple(
        _rows_to_set(
            model.state_grid, _merge_duplicate_rows(backed[a]), f"action:{a}"
        )
        for a in range(model.n_actions)
    )
    return QSetBackupResult(
        new_sets=new_sets,
        table=TabulatedValue(sample, action_values.max(axis=1)),
        action_values=action_values,
        chosen_action=action_values.argmax(axis=1),
        node_winners=node_winners,
        backed=backed,
    )


def prune(alpha_set: AlphaSet, sample: BeliefSample) -> AlphaSet:
    """Keep exactly the functions that win the envelope somewhere.

    Envelope values over the sample are unchanged; the set is never
    emptied (the best function at the first belief always survives).
    """
    _, winners = eval_sup_table(alpha_set, sample)
    keep = np.unique(winners)
    return AlphaSet(tuple(alpha_set.fns[int(i)] for i in keep), alpha_set.tag)


# --------------------------------------------------------------------------
# Lipschitz-growth diagnostic
# --------------------------------------------------------------------------

def _anchor_index(model: PomdpModel) -> int:
    """Grid index of (the point nearest to) the weight anchor."""
    grid = model.state_grid
    if grid.metric_kind == EUCLIDEAN_1D:
        return int(np.abs(grid.points - model.weight.x0).argmin())
    return grid.index_of(model.weight.x0)


def lip_growth_constants(model: PomdpModel) -> tuple[np.ndarray, np.ndarray]:
    """Per-action kernel-variation constants (c1, c0) for the growth bound.

    For state pairs (x, xt) let D(x') = sum_j phi_j |p(x'|x,a)q_j(x') -
    p(x'|xt,a)q_j(x')| summed as written below; then

        lip(g_a)  <=  lip(r(., a)) + alpha * (L * c1[a] + s * c0[a])

    where L is the set's largest Lipschitz constant, s the spread of the
    member functions at the anchor grid point, c1 carries a d(x', anchor)
    factor inside the x'-sum and c0 does not.  The bound follows by
    splitting each chosen function as (f - f(anchor)) + (f(anchor) - min)
    + min: the constant part cancels exactly because the
    quadrature-normalised kernels integrate to one for every x.  Pairs
    range over adjacent grid points in 1-D and all pairs otherwise — the
    same pairs that define Lipschitz constants on the grid.
    """
    grid = model.state_grid
    pw = grid.pairwise()
    n = model.n_states
    if grid.metric_kind == "euclidean_1d":
        pairs = [(i, i + 1) for i in range(n - 1)]
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    d_anchor = pw[_anchor_index(model)]
    phi = model.obs_quadrature.weights
    c1 = np.zeros(model.n_actions)
    c0 = np.zeros(model.n_actions)
    for a in range(model.n_actions):
        # per x: K[x, x', j] = p(x'|x,a) q(y_j|x',a) phi_j
        k = model.trans[a][:, :, None] * (model.obs_density[a] * phi[None, :])[None, :, :]
        for i, j in pairs:
            diff = np.abs(k[i] - k[j]).sum(axis=1)  # (n',) after the j-sum
            dij = pw[i, j]
            c1[a] = max(c1[a], float((diff * d_anchor).sum() / dij))
            c0[a] = max(c0[a], float(diff.sum() / dij))
    return c1, c0


# --------------------------------------------------------------------------
# solver loop
# --------------------------------------------------------------------------

@dataclass(eq=False)
class SetSolveResult:
    """Set iteration (plain or per-action), converged unless cut short."""

    sets: AlphaSet | tuple[AlphaSet, ...]
    table: TabulatedValue
    iterations: int
    error_bound: float
    sup_diffs: tuple[float, ...]
    converged: bool
    constants: CertifiedConstants
    algorithm: str
    chosen_action: np.ndarray
    set_sizes: tuple[int, ...]
    lip_growth: tuple[tuple[float, float], ...]  # (measured, bound) per iter

    @property
    def final_set_size(self) -> int:
        s = self.sets
        return s.n_fns if isinstance(s, AlphaSet) else sum(x.n_fns for x in s)


def solve_sets(
    model: PomdpModel,
    sample: BeliefSample,
    epsilon: float = 1e-3,
    max_iters: int = 1000,
    algorithm: str = "alg1",
    *,
    prune_sets: bool = True,
    track_lip_growth: bool = False,
) -> SetSolveResult:
    """Iterate the set backup until the a-priori bound certifies epsilon.

    ``alg1`` carries one plain set; ``alg2`` one set per action with the
    inner sup over their union.  Both start from the zero singleton, so
    the value bound r_bar * gamma^t / (1 - gamma) applies verbatim and
    fixes the iteration count.  As in :func:`solve_vi`, ``max_iters`` cuts
    the run short with ``converged=False``; ``max_iters=0`` returns the
    zero start with the greedy actions of the expected reward.
    """
    constants = certify(model)
    if epsilon <= 0:
        raise SolverFailure("epsilon must be positive")
    if algorithm not in ("alg1", "alg2"):
        raise SolverFailure(f"unknown algorithm {algorithm!r}")
    t_star = constants.iterations_for(epsilon)
    t = min(t_star, max_iters)

    growth_consts = lip_growth_constants(model) if track_lip_growth else None
    W = sample.weight_matrix()
    tilde_w = W @ model.weight.values_on(model.state_grid)
    table = TabulatedValue.zeros(sample)
    chosen = (W @ model.reward.T).argmax(axis=1)
    sup_diffs: list[float] = []
    set_sizes: list[int] = []
    lip_growth: list[tuple[float, float]] = []

    if algorithm == "alg1":
        sets = (zero_alpha_set(model),)
    else:
        sets = tuple(zero_alpha_set(model, f"action:{a}") for a in range(model.n_actions))
    for _ in range(t):
        if algorithm == "alg1":
            result = set_backup(model, sets[0], sample)
            new_sets = (result.new_set,)
        else:
            result = q_set_backup(model, sets, sample)
            new_sets = result.new_sets
        if track_lip_growth:
            union = AlphaSet(tuple(f for s in sets for f in s.fns), "plain")
            lip_growth.append(_measure_growth(model, union, result, growth_consts))
        sets = tuple(prune(s, sample) if prune_sets else s for s in new_sets)
        sup_diffs.append(float((np.abs(result.table.values - table.values) / tilde_w).max()))
        table, chosen = result.table, result.chosen_action
        set_sizes.append(sum(s.n_fns for s in sets))

    return SetSolveResult(
        sets=sets[0] if algorithm == "alg1" else sets,
        table=table,
        iterations=t,
        error_bound=constants.apriori_bound(t),
        sup_diffs=tuple(sup_diffs),
        converged=(t >= t_star),
        constants=constants,
        algorithm=algorithm,
        chosen_action=np.asarray(chosen),
        set_sizes=tuple(set_sizes),
        lip_growth=tuple(lip_growth),
    )


def _measure_growth(model, current_set, result, growth_consts):
    """(measured max lip of backed fns, certified growth bound)."""
    c1, c0 = growth_consts
    fmat = current_set.matrix()
    anchor = _anchor_index(model)
    spread = float(fmat[:, anchor].max() - fmat[:, anchor].min())
    l_set = float(lipschitz_constants(model.state_grid, fmat).max())
    lip_r = lipschitz_constants(model.state_grid, model.reward)
    bound = float(
        (lip_r + model.discount * (l_set * c1 + spread * c0)).max()
    )
    measured = float(
        lipschitz_constants(model.state_grid, result.backed.reshape(-1, model.n_states)).max()
    )
    return measured, bound
