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
  rule as value iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptySample, SolverFailure
from .measures import DiscreteMeasure, StateGrid, lipschitz_constants
from .model import CertifiedConstants, PomdpModel, certify, check_stop_rule
from .sampling import BeliefSample, _window
from .value_iteration import TabulatedValue

__all__ = [
    "AlphaSet",
    "BackupResult",
    "SetSolveResult",
    "eval_sup_table",
    "conjugate_rho",
    "second_conjugate",
    "normalize_null_level",
    "set_backup",
    "q_set_backup",
    "prune",
    "solve_sets",
    "zero_alpha_set",
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
class BackupResult:
    """One backup step, plain or per action.

    ``new_sets`` holds the merged backed-up set: one for the plain backup,
    one per action for the per-action backup.  ``backed`` holds g_{mu,a}
    for every sampled belief and action; ``backed_matrix`` the per-belief
    row for the winning action (aligned with the sample, before duplicate
    merging).
    """

    new_sets: tuple[AlphaSet, ...]
    table: TabulatedValue
    chosen_action: np.ndarray  # (B,)
    backed: np.ndarray  # (A, B, n)

    @property
    def backed_matrix(self) -> np.ndarray:
        return self.backed[self.chosen_action, np.arange(len(self.chosen_action))]


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
    p, q = _window(key, key - _DUP_TOL, key + _DUP_TOL)
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


def _backup_against(model: PomdpModel, sets, sample: BeliefSample) -> BackupResult:
    """Core backup of every (belief, action) against the union of ``sets``.

    The per-node argmax uses the unnormalised posterior functional
    sum_x' f(x') pred(x') q(y_j|x',a): positive scalars commute with sup,
    so normalising by the node likelihood is unnecessary, and nodes with
    zero likelihood contribute exactly zero either way.  From one set the
    new set keeps each belief's function for its winning action; from one
    set per action, new set ``a`` keeps every belief's function for action
    ``a``.  On a one-action model the two coincide.
    """
    model.check_belief(sample)
    certify(model)
    fn_matrix = np.vstack([s.values for s in sets])
    W = sample.weight_matrix()
    B, n = W.shape
    A, J = model.n_actions, model.n_obs
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
    chosen = action_values.argmax(axis=1)
    rows = backed if len(sets) > 1 else backed[chosen, np.arange(B)][None]
    return BackupResult(
        new_sets=tuple(AlphaSet(model.state_grid, _merge_duplicate_rows(r)) for r in rows),
        table=TabulatedValue(sample, action_values.max(axis=1)),
        chosen_action=chosen,
        backed=backed,
    )


def set_backup(model: PomdpModel, alpha_set: AlphaSet, sample: BeliefSample) -> BackupResult:
    """Plain backup: per belief keep the best action's backed-up function.

    The returned table satisfies value(mu) = integral of the kept function
    against mu = max_a of the one-action backup of the envelope.
    """
    return _backup_against(model, (alpha_set,), sample)


def q_set_backup(model: PomdpModel, qsets, sample: BeliefSample) -> BackupResult:
    """Per-action variant: inner sup over the union, no outer max stored.

    ``qsets`` is one AlphaSet per action; the backed-up function of action
    ``a`` at each belief is filed under action ``a`` regardless of which
    action wins the value.  Reported values are the outer max.
    """
    qsets = tuple(qsets)
    if len(qsets) != model.n_actions:
        raise SolverFailure("need one alpha set per action")
    return _backup_against(model, qsets, sample)


def prune(alpha_set: AlphaSet, sample: BeliefSample) -> AlphaSet:
    """Keep exactly the functions that win the envelope somewhere.

    Envelope values over the sample are unchanged; the set is never
    emptied (the best function at the first belief always survives).
    """
    _, winners = eval_sup_table(alpha_set, sample)
    keep = np.unique(winners)
    return AlphaSet(alpha_set.grid, alpha_set.values[keep])


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

    @property
    def final_set_size(self) -> int:
        return sum(s.n_fns for s in self.sets)


def solve_sets(
    model: PomdpModel,
    sample: BeliefSample,
    epsilon: float = 1e-3,
    max_iters: int = 1000,
    algorithm: str = "alg1",
) -> SetSolveResult:
    """Iterate the set backup until the a-priori bound certifies epsilon.

    ``alg1`` carries one plain set; ``alg2`` one set per action with the
    inner sup over their union.  Both start from the zero singleton, so
    the value bound r_bar * gamma^t / (1 - gamma) applies verbatim and
    fixes the iteration count.  As in :func:`solve_vi`, ``max_iters`` cuts
    the run short with ``converged=False``; ``max_iters=0`` returns the
    zero start with the greedy actions of the expected reward; a negative
    ``max_iters`` raises :class:`~wpomdp.errors.SolverFailure`, and a sample
    on another grid :class:`~wpomdp.errors.DimensionMismatch`.
    """
    check_stop_rule(epsilon, max_iters)
    model.check_belief(sample)
    constants = certify(model)
    if algorithm not in ("alg1", "alg2"):
        raise SolverFailure(f"unknown algorithm {algorithm!r}")
    t_star = constants.iterations_for(epsilon)
    t = min(t_star, max_iters)

    W = sample.weight_matrix()
    tilde_w = W @ model.weight_values
    table = TabulatedValue.zeros(sample)
    chosen = (W @ model.reward.T).argmax(axis=1)
    sup_diffs: list[float] = []
    set_sizes: list[int] = []

    sets = (zero_alpha_set(model),) * (1 if algorithm == "alg1" else model.n_actions)
    for _ in range(t):
        if algorithm == "alg1":
            result = set_backup(model, sets[0], sample)
        else:
            result = q_set_backup(model, sets, sample)
        sets = tuple(prune(s, sample) for s in result.new_sets)
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
    )

