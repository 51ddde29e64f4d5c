"""Independent brute-force reference implementations for the test suite.

Nothing in here imports solver internals beyond plain data containers and
the per-belief building blocks (filter steps, pairwise W1, including the
``BeliefDistances.dists`` block); each oracle
recomputes its target quantity by the most literal method available
(vertex enumeration, exhaustive recursion, dense matrix algebra, one W1 per
pair) so that agreement with the package is evidence, not tautology.
"""

from __future__ import annotations

import itertools

import numpy as np

from wpomdp.errors import (
    DimensionMismatch,
    EmptySample,
    NonFiniteValue,
    NonPositiveMass,
    SolverFailure,
)
from wpomdp.filtering import bayes_update, expected_reward, obs_marginal, possible_nodes
from wpomdp.measures import (
    EUCLIDEAN_1D,
    LipschitzFn,
    integrate,
    lipschitz_constants,
    w1,
)
from wpomdp.model import certify
from wpomdp.sampling import DEDUP_W1_TOL, BeliefDistances
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


# --------------------------------------------------------------------------
# transportation simplex that rebuilds the basis tree every pivot
# --------------------------------------------------------------------------

_RC_TOL = 1e-12


def _northwest_corner(supply: np.ndarray, demand: np.ndarray):
    """Initial basic feasible plan with exactly m + n - 1 basic cells."""
    m, n = len(supply), len(demand)
    plan = np.zeros((m, n))
    basis: list[tuple[int, int]] = []
    a = supply.copy()
    b = demand.copy()
    i = j = 0
    while True:
        take = min(a[i], b[j])
        plan[i, j] = take
        basis.append((i, j))
        a[i] -= take
        b[j] -= take
        if i == m - 1 and j == n - 1:
            break
        # On simultaneous exhaustion advance only one index so a zero
        # (degenerate) cell enters the basis and the count stays m + n - 1.
        # Totals that agree only up to rounding can leave a residue in row i
        # when the last column is exhausted; the rows still advance.
        if i < m - 1 and (a[i] <= b[j] or j == n - 1):
            i += 1
        else:
            j += 1
    return plan, basis


def _duals(basis, cost, m, n):
    """Solve u_i + v_j = c_ij over the spanning basis tree (u_0 = 0)."""
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    adj: dict[int, list[int]] = {}
    for k, (i, j) in enumerate(basis):
        adj.setdefault(i, []).append(k)
        adj.setdefault(m + j, []).append(k)
    u[0] = 0.0
    stack = [0]
    seen = {0}
    while stack:
        node = stack.pop()
        for k in adj.get(node, ()):
            i, j = basis[k]
            other = m + j if node == i else i
            if other in seen:
                continue
            if other >= m:
                v[other - m] = cost[i, j] - u[i]
            else:
                u[other] = cost[i, j] - v[j]
            seen.add(other)
            stack.append(other)
    if np.isnan(u).any() or np.isnan(v).any():
        raise SolverFailure("basis is not a spanning tree")
    return u, v


def _find_cycle(basis, enter, m):
    """Path through the basis tree closing the cycle created by ``enter``."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for k, (i, j) in enumerate(basis):
        adj.setdefault(i, []).append((m + j, k))
        adj.setdefault(m + j, []).append((i, k))
    start, goal = enter[0], m + enter[1]
    parent: dict[int, tuple[int, int]] = {start: (-1, -1)}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for other, k in adj.get(node, ()):
            if other not in parent:
                parent[other] = (node, k)
                stack.append(other)
    if goal not in parent:
        raise SolverFailure("entering cell does not close a cycle")
    path = []
    node = goal
    while node != start:
        prev, k = parent[node]
        path.append(k)
        node = prev
    return path  # basis edge indices from goal back to start


def solve_transport_reference(supply, demand, cost, *, max_pivots: int | None = None):
    """The primal simplex of ``solve_transport`` with no state between pivots.

    Every pivot rebuilds the basis tree's adjacency and walks the whole
    tree twice: once for the duals, once for the cycle.  The north-west
    corner is the package's.  ``solve_transport`` must take the same
    pivots and return the same bits.

    Parameters
    ----------
    supply, demand : 1-D arrays of nonnegative masses with equal totals
        (up to 1e-9 relative; demand is rescaled to match exactly).
    cost : (m, n) array of transport costs.

    Returns
    -------
    plan : (m, n) optimal coupling (a polytope vertex).
    value : float, the optimal cost.
    """
    supply = np.asarray(supply, dtype=float)
    demand = np.asarray(demand, dtype=float)
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (len(supply), len(demand)):
        raise DimensionMismatch(
            f"cost shape {cost.shape} vs supports {len(supply)}/{len(demand)}"
        )
    if (supply < 0).any() or (demand < 0).any():
        raise NonPositiveMass("negative mass in transport marginals")
    total = supply.sum()
    if total <= 0 or demand.sum() <= 0:
        raise NonPositiveMass("transport marginals must carry positive mass")
    if abs(total - demand.sum()) > 1e-9 * max(total, demand.sum()):
        raise DimensionMismatch("supply and demand totals differ")
    demand = demand * (total / demand.sum())

    m, n = len(supply), len(demand)
    plan, basis = _northwest_corner(supply, demand)
    if max_pivots is None:
        max_pivots = 200 * (m + n) + 1000

    for _ in range(max_pivots):
        u, v = _duals(basis, cost, m, n)
        reduced = cost - u[:, None] - v[None, :]
        for i, j in basis:
            reduced[i, j] = 0.0
        enter = np.unravel_index(np.argmin(reduced), reduced.shape)
        if reduced[enter] >= -_RC_TOL:
            return plan, float(np.dot(plan.ravel(), cost.ravel()))
        path = _find_cycle(basis, enter, m)
        # Walking from the entering cell's column end back to its row end the
        # basis edges alternate -, +, -, ...; theta is the min flow on minus
        # edges and the first minimiser leaves the basis.
        minus = path[0::2]
        theta_idx = min(minus, key=lambda k: (plan[basis[k]], k))
        theta = plan[basis[theta_idx]]
        plan[enter] += theta
        for k in path[0::2]:
            plan[basis[k]] -= theta
        for k in path[1::2]:
            plan[basis[k]] += theta
        plan[basis[theta_idx]] = 0.0  # kill rounding residue exactly
        basis[theta_idx] = (int(enter[0]), int(enter[1]))
    raise SolverFailure(f"no convergence after {max_pivots} pivots")


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
# duplicate merging of backed-up functions, one (row, kept row) pair at a time
# --------------------------------------------------------------------------

def merge_duplicate_rows_greedy(rows, tol):
    """Drop rows within ``tol`` (sup norm) of an earlier kept row."""
    keep: list[int] = []
    for i, row in enumerate(rows):
        if all(np.abs(row - rows[j]).max() >= tol for j in keep):
            keep.append(i)
    return rows[keep]


# --------------------------------------------------------------------------
# per-belief Bellman operator on tabulated values
# --------------------------------------------------------------------------

# distances below this are "the same belief" for exact-sample lookup
EXACT_MATCH_TOL = 1e-9


def reachability_tree_dense(model, mu0, depth, *, cap):
    """Weight rows of the breadth-first reachability tree, dense dedup.

    The same expansion and cap as the package tree, but each candidate is
    compared with every kept belief through one full
    ``BeliefDistances.dists`` row; returns the (n, n_states) kept rows.
    """
    rows = [mu0.weights]
    kept = BeliefDistances(model.state_grid, mu0.weights[None, :])
    frontier = [mu0]
    for _ in range(depth):
        next_frontier = []
        for mu in frontier:
            for a in range(model.n_actions):
                for j in np.flatnonzero(possible_nodes(obs_marginal(model, mu, a).lam)):
                    post = bayes_update(model, mu, a, int(j))
                    if kept.dists(post.weights[None, :]).min() < DEDUP_W1_TOL:
                        continue
                    if len(rows) >= cap:
                        return np.stack(rows)
                    next_frontier.append(post)
                    rows.append(post.weights)
                    kept.add(post.weights)
        frontier = next_frontier
    return np.stack(rows)


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


def table_lip_estimate_dense(values, pair_d):
    """Largest |dv| / d over the separated ordered pairs of a full block."""
    gaps = np.abs(values[:, None] - values[None, :])
    mask = pair_d > 1e-9
    if not mask.any():
        return 0.0
    return float((gaps[mask] / pair_d[mask]).max())


def l1_broadcast(q, emb):
    """L1 block from embedded query rows by 64-row broadcast chunks."""
    out = np.empty((len(q), len(emb)))
    for s in range(0, len(q), 64):
        out[s:s + 64] = np.abs(q[s:s + 64, None, :] - emb[None, :, :]).sum(axis=2)
    return out


def knn_bruteforce(geom, rows, k):
    """k nearest kept beliefs by a stable sort of the full distance block."""
    d = geom.dists(rows)
    idx = np.argsort(d, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(d, idx, axis=1)


def posterior_knn_bruteforce(model, sample, k):
    """Nearest sample points of every (b, a, j) posterior: (B, A, J, k) each.

    Builds each action's full (B * J, n) posterior block at once and sorts
    every distance row; nodes ``possible_nodes`` refuses have no posterior
    and keep zeros.
    """
    B, A, J, n = sample.n, model.n_actions, model.n_obs, model.n_states
    W = sample.weight_matrix()
    geom = BeliefDistances(sample.grid, W, sample.beliefs)
    k = min(k, B)
    idx = np.zeros((B, A, J, k), dtype=np.intp)
    dist = np.zeros((B, A, J, k))
    for a in range(A):
        pred = W @ model.trans[a]
        lam = pred @ model.obs_density[a]
        post = pred[:, None, :] * model.obs_density[a].T[None, :, :]
        valid = possible_nodes(lam)
        post /= np.where(valid, lam, 1.0)[:, :, None]
        b, j = np.nonzero(valid)
        idx[b, a, j], dist[b, a, j] = knn_bruteforce(geom, post[b, j], k)
    return idx, dist


def mcshane_broadcast(v, lip, nn_idx, nn_dist, closed):
    """Every posterior's value read, with neighbours on a trailing K axis.

    The exact lookup reads the nearest point; otherwise the McShane
    extension is one broadcast expression reduced over K.
    """
    if closed:
        return v[nn_idx[..., 0]]
    return (v[nn_idx] - lip * nn_dist).max(axis=-1)


def solve_vi_broadcast(model, sample, epsilon, k):
    """Value iteration by :func:`mcshane_broadcast` over brute-force k-NN.

    Returns (values, sup_diffs, slope) after the a-priori number of
    sweeps; the slope never shrinks and is the dense-block estimate.
    """
    W = sample.weight_matrix()
    geom = BeliefDistances(sample.grid, W, sample.beliefs)
    pair_d = geom.dists(W)
    B, A, J = sample.n, model.n_actions, model.n_obs
    node_probs = np.empty((B, A, J))
    for a in range(A):
        lam = (W @ model.trans[a]) @ model.obs_density[a]
        node_probs[:, a, :] = np.where(
            possible_nodes(lam), model.obs_quadrature.weights[None, :] * lam, 0.0
        )
    nn_idx, nn_dist = posterior_knn_bruteforce(model, sample, k)
    closed = bool((np.where(node_probs > 0, nn_dist[..., 0], 0.0) <= EXACT_MATCH_TOL).all())
    reward = W @ model.reward.T
    tilde_w = W @ model.weight.values_on(model.state_grid)
    v, lip, sup_diffs = np.zeros(B), 0.0, []
    for _ in range(certify(model).iterations_for(epsilon)):
        post_vals = mcshane_broadcast(v, lip, nn_idx, nn_dist, closed)
        q = reward + model.discount * (node_probs * post_vals).sum(axis=-1)
        v_new = q.max(axis=1)
        sup_diffs.append(float((np.abs(v_new - v) / tilde_w).max()))
        v = v_new
        if not closed:
            lip = max(lip, table_lip_estimate_dense(v, pair_d))
    return v, tuple(sup_diffs), lip


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

    Nodes ``possible_nodes`` refuses contribute nothing and are skipped
    (conditioning on them is undefined).
    """
    marg = obs_marginal(model, mu, a)
    acc = 0.0
    for j in np.flatnonzero(possible_nodes(marg.lam)):
        p = marg.node_probs[j]
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


# --------------------------------------------------------------------------
# per-belief Fenchel conjugates of single functions
# --------------------------------------------------------------------------

def conjugate_rho_loop(f, value_eval, sample):
    """Empirical conjugate: max over sampled mu of int f dmu - value(mu)."""
    best = -np.inf
    for mu in sample.beliefs:
        best = max(best, integrate(f, mu) - value_eval(mu))
    return float(best)


def second_conjugate_loop(mu, candidate_fns, value_eval, sample):
    """max over candidates of int f dmu - rho(f), the biconjugate at mu."""
    candidate_fns = tuple(candidate_fns)
    if len(candidate_fns) == 0:
        raise EmptySample("second conjugate needs candidate functions")
    return max(
        integrate(f, mu) - conjugate_rho_loop(f, value_eval, sample) for f in candidate_fns
    )


def normalize_null_level_loop(f, value_eval, sample):
    """Shift ``f`` down by its conjugate so the shifted conjugate is zero."""
    rho = conjugate_rho_loop(f, value_eval, sample)
    if not np.isfinite(rho):
        raise SolverFailure("conjugate is not finite over the sample")
    return LipschitzFn(f.grid, f.values - rho)


# --------------------------------------------------------------------------
# one-belief envelope and the Lipschitz growth of one set backup
# --------------------------------------------------------------------------

def eval_sup(alpha_set, mu):
    """Envelope value and winning index at one belief (ties -> lowest)."""
    if not alpha_set.grid.same_points(mu.grid):
        raise DimensionMismatch("the belief lives on another grid than the alpha set")
    vals = alpha_set.values @ mu.weights
    i = int(vals.argmax())
    return float(vals[i]), i


def _anchor_index(model):
    """Grid index of (the point nearest to) the weight anchor."""
    grid = model.state_grid
    if grid.metric_kind == EUCLIDEAN_1D:
        return int(np.abs(grid.points - model.weight.x0).argmin())
    return grid.index_of(model.weight.x0)


def lip_growth_constants(model):
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
    range over adjacent grid points in 1-D and all pairs otherwise -- the
    same pairs that define Lipschitz constants on the grid.  The per-step
    bound does not compose into a certified W1 slope of the fixed point.
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


def measured_growth(model, fmat, backed, growth_consts):
    """(measured max lip of the backed functions, growth bound) of one
    backup of the function stack ``fmat`` that produced ``backed``."""
    c1, c0 = growth_consts
    anchor = _anchor_index(model)
    spread = float(fmat[:, anchor].max() - fmat[:, anchor].min())
    l_set = float(lipschitz_constants(model.state_grid, fmat).max())
    lip_r = lipschitz_constants(model.state_grid, model.reward)
    bound = float((lip_r + model.discount * (l_set * c1 + spread * c0)).max())
    measured = float(
        lipschitz_constants(model.state_grid, backed.reshape(-1, model.n_states)).max()
    )
    return measured, bound
