"""Independent brute-force reference implementations for the test suite.

Nothing in here imports solver internals beyond plain data containers and
the per-belief building blocks (filter steps, pairwise W1); each oracle
recomputes its target quantity by the most literal method available
(vertex enumeration, exhaustive recursion, dense matrix algebra, one W1 per
pair) so that agreement with the package is evidence, not tautology.
"""

from __future__ import annotations

import itertools

import numpy as np

from wpomdp.errors import NonFiniteValue, SolverFailure
from wpomdp.filtering import bayes_update, expected_reward, obs_marginal
from wpomdp.measures import w1
from wpomdp.model import certify
from wpomdp.value_iteration import Selector, TabulatedValue


# --------------------------------------------------------------------------
# optimal transport by transportation-polytope vertex enumeration
# --------------------------------------------------------------------------

def _vertex_from_cells(cells, supply, demand):
    """Solve the coupling restricted to ``cells`` by leaf elimination.

    Returns the plan if the cell pattern is a (degenerate-allowed) basis
    yielding a nonnegative solution, else None.
    """
    m, n = len(supply), len(demand)
    plan = np.zeros((m, n))
    a = supply.astype(float).copy()
    b = demand.astype(float).copy()
    remaining = set(cells)
    while remaining:
        row_count = {}
        col_count = {}
        for i, j in remaining:
            row_count[i] = row_count.get(i, 0) + 1
            col_count[j] = col_count.get(j, 0) + 1
        leaf = None
        for i, j in sorted(remaining):
            if row_count[i] == 1:
                leaf = (i, j, "row")
                break
            if col_count[j] == 1:
                leaf = (i, j, "col")
                break
        if leaf is None:
            return None  # cycle -> not a tree pattern
        i, j, kind = leaf
        val = a[i] if kind == "row" else b[j]
        if val < -1e-12:
            return None
        val = max(val, 0.0)
        plan[i, j] = val
        a[i] -= val
        b[j] -= val
        remaining.discard((i, j))
    if np.abs(a).max() > 1e-9 or np.abs(b).max() > 1e-9:
        return None
    return plan


def transport_cost_by_vertex_enumeration(supply, demand, cost):
    """Exact minimal transport cost over all basis vertices (sizes <= 4x4)."""
    supply = np.asarray(supply, dtype=float)
    demand = np.asarray(demand, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    cells = list(itertools.product(range(m), range(n)))
    best = np.inf
    for pattern in itertools.combinations(cells, m + n - 1):
        plan = _vertex_from_cells(pattern, supply, demand)
        if plan is not None:
            best = min(best, float((plan * cost).sum()))
    return best


def tv_distance(weights_a, weights_b):
    return 0.5 * float(np.abs(np.asarray(weights_a) - np.asarray(weights_b)).sum())


# --------------------------------------------------------------------------
# best piecewise-linear 1-Lipschitz dual candidate on the line
# --------------------------------------------------------------------------

def best_pl_dual_value(atoms_mu, weights_mu, atoms_nu, weights_nu):
    """max over slope patterns in {-1,+1} of int f dmu - int f dnu.

    Candidates are piecewise linear with breakpoints at the merged support
    atoms, f(z_0) = 0 (the gap is shift invariant).  On the line one of
    these candidates is a maximiser of the dual problem.
    """
    z = np.union1d(atoms_mu, atoms_nu)
    if len(z) == 1:
        return 0.0
    gaps = np.diff(z)
    best = -np.inf
    for pattern in itertools.product((-1.0, 1.0), repeat=len(gaps)):
        f = np.concatenate(([0.0], np.cumsum(np.asarray(pattern) * gaps)))
        fm = np.interp(atoms_mu, z, f)
        fn = np.interp(atoms_nu, z, f)
        best = max(best, float(np.dot(fm, weights_mu) - np.dot(fn, weights_nu)))
    return best


# --------------------------------------------------------------------------
# exhaustive belief-tree expectations for finite models
# --------------------------------------------------------------------------

def backup_value_bruteforce(trans, obs, reward, quad_w, alpha, mu, a, value_fn):
    """One-action backup by literal enumeration of (x', node) pairs."""
    n = trans.shape[1]
    n_obs = obs.shape[2]
    pred = np.zeros(n)
    for x in range(n):
        for x2 in range(n):
            pred[x2] += mu[x] * trans[a, x, x2]
    total = float(np.dot(reward[a], mu))
    for j in range(n_obs):
        lam = 0.0
        unnorm = np.zeros(n)
        for x2 in range(n):
            joint = pred[x2] * obs[a, x2, j]
            lam += joint
            unnorm[x2] = joint
        if lam <= 0.0:
            continue
        total += alpha * quad_w[j] * lam * value_fn(unnorm / lam)
    return total


def finite_horizon_value_bruteforce(trans, obs, reward, quad_w, alpha, mu, depth):
    """Optimal ``depth``-stage value from belief ``mu`` by tree recursion."""
    if depth == 0:
        return 0.0

    def cont(post):
        return finite_horizon_value_bruteforce(
            trans, obs, reward, quad_w, alpha, post, depth - 1
        )

    n_actions = trans.shape[0]
    return max(
        backup_value_bruteforce(trans, obs, reward, quad_w, alpha, mu, a, cont)
        for a in range(n_actions)
    )


# --------------------------------------------------------------------------
# classical alpha-vector point-based backup (dense matrix style)
# --------------------------------------------------------------------------

def classical_pbvi_backup(trans, obs, reward, alpha, vectors, beliefs):
    """One synchronous point-based backup; returns one vector per belief.

    ``vectors`` has shape (n_vec, n_states); ``beliefs`` (n_b, n_states);
    unit observation weights are assumed (finite observation alphabet).
    Projection: g_{a,o,v}(s) = sum_s' T[a,s,s'] O[a,s',o] v(s'); per belief
    pick the best projection per observation, add the reward row, discount,
    and keep the best action's vector (first maximiser on ties).
    """
    n_actions = trans.shape[0]
    n_obs = obs.shape[2]
    vectors = np.asarray(vectors, dtype=float)
    out = []
    for b in np.asarray(beliefs, dtype=float):
        best_vec, best_val = None, -np.inf
        for a in range(n_actions):
            g = reward[a].astype(float).copy()
            for o in range(n_obs):
                # proj[s, v] = sum_s' T[a,s,s'] O[a,s',o] v(s')
                proj = (trans[a] * obs[a, :, o][None, :]) @ vectors.T
                scores = b @ proj
                g = g + alpha * proj[:, int(np.argmax(scores))]
            val = float(b @ g)
            if val > best_val:
                best_val, best_vec = val, g
        out.append(best_vec)
    return np.asarray(out)


# --------------------------------------------------------------------------
# per-belief Bellman operator on tabulated values
# --------------------------------------------------------------------------

# distances below this are "the same belief" for exact-sample lookup
EXACT_MATCH_TOL = 1e-9


def sample_distances(sample, mu):
    """W1 from ``mu`` to every sampled belief, one solve per pair."""
    return np.array([w1(mu, b) for b in sample.beliefs])


def table_lip_estimate(table):
    """Largest |dv| / W1 over separated sample pairs (0 when none are)."""
    beliefs, v = table.sample.beliefs, table.values
    best = 0.0
    for i, j in itertools.combinations(range(len(beliefs)), 2):
        d = w1(beliefs[i], beliefs[j])
        if d > 1e-9:
            best = max(best, abs(v[i] - v[j]) / d)
    return best


def exact_sample_evaluator(table, *, atol=EXACT_MATCH_TOL):
    """Value lookup for samples closed under filtering; off-sample raises."""

    def evaluate(mu):
        d = sample_distances(table.sample, mu)
        i = int(d.argmin())
        if d[i] > atol:
            raise SolverFailure(
                f"belief is {d[i]:.3e} away from the sample; "
                "exact-sample evaluation needs a filtering-closed sample"
            )
        return float(table.values[i])

    return evaluate


def mcshane_evaluator(table, *, lip_bound=None, k_neighbors=None):
    """Lower-bound extension max_i (v_i - L * W1(mu, b_i)).

    ``lip_bound`` defaults to the largest difference quotient measured on
    the table itself; ``k_neighbors`` restricts the max to that many
    nearest sample points.
    """
    if lip_bound is None:
        lip_bound = table_lip_estimate(table)

    def evaluate(mu):
        d = sample_distances(table.sample, mu)
        keep = np.arange(len(d))
        if k_neighbors is not None and k_neighbors < len(d):
            keep = np.argsort(d, kind="stable")[:k_neighbors]
        return float((table.values[keep] - lip_bound * d[keep]).max())

    return evaluate


def bellman_backup_point(model, value_eval, mu, a):
    """One-action backup r~(mu,a) + alpha * E_nodes[ value(posterior) ].

    Nodes with zero marginal probability contribute nothing and are
    skipped (conditioning on them is undefined).
    """
    marg = obs_marginal(model, mu, a)
    acc = 0.0
    for j, p in enumerate(marg.node_probs):
        if p <= 0.0:
            continue
        v = value_eval(bayes_update(model, mu, a, j))
        if not np.isfinite(v):
            raise NonFiniteValue(f"generalizer returned {v!r} at node {j}")
        acc += p * v
    return expected_reward(model, mu, a) + model.discount * acc


def _backup_all_actions(model, value_eval, mu):
    return [bellman_backup_point(model, value_eval, mu, a) for a in range(model.n_actions)]


def bellman_backup(model, value, value_eval):
    """Full Jacobi sweep: max_a backup of every sampled belief.

    ``value_eval`` is the generalizer for the *current* table; the new
    table is written only after all reads, matching the operator
    semantics.
    """
    certify(model)
    out = np.array(
        [max(_backup_all_actions(model, value_eval, mu)) for mu in value.sample.beliefs]
    )
    return TabulatedValue(value.sample, out)


def greedy_selector(model, value, value_eval):
    """Greedy action per sampled belief (ties -> lowest action index)."""
    acts = [
        int(np.argmax(_backup_all_actions(model, value_eval, mu)))
        for mu in value.sample.beliefs
    ]
    return Selector(value.sample, tuple(acts))
