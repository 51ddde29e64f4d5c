"""Conjugate duality and set iteration on Lipschitz alpha-functions.

A convex lower-semicontinuous value function over beliefs is represented
as the upper envelope of belief integrals of a finite function set,
``value(mu) = max_f integral f dmu``.  A set is one (n_fns, n_states)
matrix on a state grid, so every envelope read is a matrix product.  This
module provides

* envelope evaluation and pruning,
* the empirical Fenchel conjugate ``rho`` of each row of a function
  matrix, with its translation / monotonicity structure, and the second
  conjugate (both over finite belief samples, hence lower bounds of the
  measure-space suprema),
* the set-iteration backup: per quadrature node, pick the best member
  function against the unnormalised posterior functional and assemble a
  backed-up alpha-function per (belief, action),
* plain and per-action solver loops with the same certified stopping
  rule as value iteration, and
* a measured Lipschitz-growth diagnostic for the backed-up functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySample, SolverFailure
from .measures import EUCLIDEAN_1D, DiscreteMeasure, StateGrid, lipschitz_constants
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
# bytes of one block of row differences in the duplicate merge
_MERGE_BLOCK_BYTES = 1 << 20


class AlphaSet:
    """Finite function set on one grid, evaluated as an upper envelope.

    ``values`` is a read-only, finite (n_fns, n_states) matrix holding
    one member function per row; the set owns a copy of it.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: StateGrid, values):
        v = np.array(values, dtype=float)
        if v.ndim != 2 or v.shape[1] != grid.n:
            raise DimensionMismatch(f"{v.shape} function matrix on a {grid.n}-point grid")
        if len(v) == 0:
            raise EmptySample("an alpha set needs at least one function")
        if not np.isfinite(v).all():
            raise DimensionMismatch("function values must be finite")
        v.flags.writeable = False
        self.grid = grid
        self.values = v

    @property
    def n_fns(self) -> int:
        return len(self.values)

    def lip_consts(self) -> np.ndarray:
        """Grid Lipschitz constant of every member function, one per row."""
        return lipschitz_constants(self.grid, self.values)

    @property
    def max_lip(self) -> float:
        return float(self.lip_consts().max())


def zero_alpha_set(model: PomdpModel) -> AlphaSet:
    return AlphaSet(model.state_grid, np.zeros((1, model.n_states)))


def eval_sup(alpha_set: AlphaSet, mu: DiscreteMeasure) -> tuple[float, int]:
    """Envelope value and winning index at one belief (ties -> lowest)."""
    if not alpha_set.grid.same_points(mu.grid):
        raise DimensionMismatch("the belief lives on another grid than the alpha set")
    vals = alpha_set.values @ mu.weights
    i = int(vals.argmax())
    return float(vals[i]), i


def eval_sup_table(alpha_set: AlphaSet, sample: BeliefSample) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised envelope over a sample: (values, argmax indices)."""
    scores = sample.weight_matrix() @ alpha_set.values.T  # (B, nf)
    return scores.max(axis=1), scores.argmax(axis=1)


def conjugate_rho(fns: np.ndarray, values: np.ndarray, sample: BeliefSample) -> np.ndarray:
    """Empirical conjugate of each row f of ``fns``: the max over sampled
    mu of int f dmu - value(mu), with ``values`` the value at each
    sampled belief.

    A lower bound of the measure-space supremum; exact whenever the
    supremum is attained inside the sample (e.g. envelopes evaluated on
    their own defining sample).
    """
    fns, values = np.asarray(fns, dtype=float), np.asarray(values, dtype=float)
    if fns.ndim != 2 or fns.shape[1] != sample.grid.n or values.shape != (sample.n,):
        raise DimensionMismatch(
            f"{fns.shape} function matrix and {values.shape} values against "
            f"{sample.n} beliefs on {sample.grid.n} states"
        )
    return (sample.weight_matrix() @ fns.T - values[:, None]).max(axis=0)


def second_conjugate(
    mu: DiscreteMeasure,
    fns: np.ndarray,
    values: np.ndarray,
    sample: BeliefSample,
) -> float:
    """max over the rows f of ``fns`` of int f dmu - rho(f), the
    biconjugate at mu."""
    if len(fns) == 0:
        raise EmptySample("second conjugate needs candidate functions")
    rho = conjugate_rho(fns, values, sample)
    return float((np.asarray(fns, dtype=float) @ mu.weights - rho).max())


def normalize_null_level(fns: np.ndarray, values: np.ndarray, sample: BeliefSample) -> np.ndarray:
    """Shift each row of ``fns`` down by its conjugate, so its shifted
    conjugate is zero."""
    rho = conjugate_rho(fns, values, sample)
    if not np.isfinite(rho).all():
        raise SolverFailure("conjugate is not finite over the sample")
    return np.asarray(fns, dtype=float) - rho[:, None]


# --------------------------------------------------------------------------
# set-iteration backup
# --------------------------------------------------------------------------

@dataclass(eq=False)
class SetBackupResult:
    """One plain backup step.

    ``backed`` holds g_{mu,a} for every sampled belief and action;
    ``backed_matrix`` the per-belief row for the winning action (aligned
    with the sample, before duplicate merging).
    """

    new_set: AlphaSet
    table: TabulatedValue
    chosen_action: np.ndarray  # (B,)
    backed: np.ndarray  # (A, B, n)

    @property
    def backed_matrix(self) -> np.ndarray:
        return self.backed[self.chosen_action, np.arange(len(self.chosen_action))]


@dataclass(eq=False)
class QSetBackupResult:
    new_sets: tuple[AlphaSet, ...]
    table: TabulatedValue
    chosen_action: np.ndarray
    backed: np.ndarray


def _merge_duplicate_rows(rows: np.ndarray) -> np.ndarray:
    """Drop rows within _DUP_TOL (sup norm) of an earlier kept row.

    Greedy in row order, over the first occurrence of each bitwise-distinct
    row only.  A later bitwise repeat is always dropped: if its first copy
    was kept, the repeat is at distance 0 from it; if not, the kept row
    that dropped the first copy is within _DUP_TOL of the repeat too.
    Rows are finite.
    """
    first: dict[bytes, int] = {}
    for i, row in enumerate(rows):
        first.setdefault(row.tobytes(), i)
    cand = rows[list(first.values())]
    # |a_0 - b_0| <= max_x |a_x - b_x|, so only pairs within _DUP_TOL in
    # column 0 need the full check.  Rounding is monotone and _DUP_TOL is a
    # float, so a computed difference below _DUP_TOL is one whose exact
    # value is below it too; and a bound x -+ _DUP_TOL rounded to nearest
    # keeps every float y with exact |x - y| <= _DUP_TOL in the window.
    order = np.argsort(cand[:, 0], kind="stable")
    key = cand[order, 0]
    lo = np.searchsorted(key, key - _DUP_TOL, "left")
    width = np.searchsorted(key, key + _DUP_TOL, "right") - lo
    p = np.repeat(np.arange(len(key)), width)
    q = np.arange(len(p)) + np.repeat(lo - (np.cumsum(width) - width), width)
    i, j = order[p], order[q]
    i, j = i[j < i], j[j < i]
    near = np.empty(len(i), dtype=bool)
    step = max(1, _MERGE_BLOCK_BYTES // (8 * cand.shape[1]))
    for s in range(0, len(i), step):
        d = cand[i[s:s + step]] - cand[j[s:s + step]]
        np.less(np.abs(d, out=d).max(axis=1), _DUP_TOL, out=near[s:s + step])
    # Greedy pass over the near pairs (later row, earlier row) in row order:
    # every earlier row's fate is settled before a later row reads it.
    keep = [True] * len(cand)
    for a, b in sorted(zip(i[near].tolist(), j[near].tolist())):
        if keep[b]:
            keep[a] = False
    return cand[np.flatnonzero(keep)]


def _backup_against(model: PomdpModel, fn_matrix: np.ndarray, sample: BeliefSample):
    """Core backup of every (belief, action) against a fixed function stack.

    Returns (action_values (B,A), backed (A,B,n)).
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
    backed = np.empty((A, B, n))
    for a in range(A):
        pred = W @ model.trans[a]  # (B, n)
        q = model.obs_density[a]  # (n, J)
        contrib = np.zeros((B, n))
        for j in range(J):
            scores = (pred * q[:, j][None, :]) @ fn_matrix.T  # (B, nf)
            # C[f, x] = sum_x' f(x') p(x'|x,a) phi_j q(y_j|x',a)
            c = fn_matrix @ (model.trans[a] * (phi[j] * q[:, j])[None, :]).T
            contrib += c[scores.argmax(axis=1)]
        g = model.reward[a][None, :] + model.discount * contrib  # (B, n)
        backed[a] = g
        action_values[:, a] = (g * W).sum(axis=1)
    return action_values, backed


def set_backup(model: PomdpModel, alpha_set: AlphaSet, sample: BeliefSample) -> SetBackupResult:
    """Plain backup: per belief keep the best action's backed-up function.

    The returned table satisfies value(mu) = integral of the kept function
    against mu = max_a of the one-action backup of the envelope.
    """
    certify(model)
    action_values, backed = _backup_against(model, alpha_set.values, sample)
    chosen = action_values.argmax(axis=1)
    rows = backed[chosen, np.arange(sample.n)]
    return SetBackupResult(
        new_set=AlphaSet(model.state_grid, _merge_duplicate_rows(rows)),
        table=TabulatedValue(sample, action_values.max(axis=1)),
        chosen_action=chosen,
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
    union = np.vstack([s.values for s in qsets])
    action_values, backed = _backup_against(model, union, sample)
    new_sets = tuple(
        AlphaSet(model.state_grid, _merge_duplicate_rows(backed[a]))
        for a in range(model.n_actions)
    )
    return QSetBackupResult(
        new_sets=new_sets,
        table=TabulatedValue(sample, action_values.max(axis=1)),
        chosen_action=action_values.argmax(axis=1),
        backed=backed,
    )


def prune(alpha_set: AlphaSet, sample: BeliefSample) -> AlphaSet:
    """Keep exactly the functions that win the envelope somewhere.

    Envelope values over the sample are unchanged; the set is never
    emptied (the best function at the first belief always survives).
    """
    _, winners = eval_sup_table(alpha_set, sample)
    keep = np.unique(winners)
    return AlphaSet(alpha_set.grid, alpha_set.values[keep])


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
    if grid.metric_kind == EUCLIDEAN_1D:
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
    """Set iteration (plain or per-action), converged unless cut short.

    ``sets`` holds one set for ``alg1`` and one per action for ``alg2``.
    """

    sets: tuple[AlphaSet, ...]
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
        return sum(s.n_fns for s in self.sets)


def solve_sets(
    model: PomdpModel,
    sample: BeliefSample,
    epsilon: float = 1e-3,
    max_iters: int = 1000,
    algorithm: str = "alg1",
    *,
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

    sets = (zero_alpha_set(model),) * (1 if algorithm == "alg1" else model.n_actions)
    for _ in range(t):
        if algorithm == "alg1":
            result = set_backup(model, sets[0], sample)
            new_sets = (result.new_set,)
        else:
            result = q_set_backup(model, sets, sample)
            new_sets = result.new_sets
        if track_lip_growth:
            union = np.vstack([s.values for s in sets])
            lip_growth.append(_measure_growth(model, union, result, growth_consts))
        sets = tuple(prune(s, sample) for s in new_sets)
        sup_diffs.append(float((np.abs(result.table.values - table.values) / tilde_w).max()))
        table, chosen = result.table, result.chosen_action
        set_sizes.append(sum(s.n_fns for s in sets))

    return SetSolveResult(
        sets=sets,
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


def _measure_growth(model, fmat, result, growth_consts):
    """(measured max lip of backed fns, certified growth bound)."""
    c1, c0 = growth_consts
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
