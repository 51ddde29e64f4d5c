"""Self-contained transportation solver for discrete optimal transport.

Classic primal transportation simplex: north-west-corner initial basis,
most-negative reduced cost entering rule (first minimiser in row-major
order), and the pivot on the unique cycle the entering cell closes in the
basis tree.  Degenerate zero-flow basic cells are kept, so the basis always
stays a spanning tree of the bipartite supply/demand graph.

The tree is kept between pivots as network-simplex labels (Ahuja, Magnanti
& Orlin, *Network Flows*, 1993, ch. 11): every node's parent, the basis
slot of the edge to it, its depth and its dual potential (u for rows, v for
columns; the root is row 0 with u = 0).  The cycle is the two walks up from
the entering cell's ends to their lowest common ancestor.  A pivot re-hangs
only the subtree cut off by the leaving edge, and every node in it gets its
potential afresh from its new parent as ``cost - parent potential``.  A
potential is thus the same chain of subtractions along the node's unique
path to the root as a full walk of the tree would do, never a sum of
updates, so the reduced costs, the pivot sequence, the plan and the value
are the same bits whichever nodes a pivot relabels.  Sizes here are belief
supports; callers route 1-D problems to the closed form instead.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonPositiveMass, SolverFailure

__all__ = ["solve_transport"]

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


def solve_transport(supply, demand, cost, *, max_pivots: int | None = None):
    """Minimise sum(plan * cost) over couplings of ``supply`` and ``demand``.

    Parameters
    ----------
    supply, demand : 1-D arrays of finite nonnegative masses with equal
        totals (up to 1e-9 relative; demand is rescaled to match exactly).
    cost : (m, n) array of finite transport costs.

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
    if not (np.isfinite(supply).all() and np.isfinite(demand).all()):
        raise NonPositiveMass("transport marginals must be finite")
    if not np.isfinite(cost).all():
        raise DimensionMismatch("transport costs must be finite")
    if (supply < 0).any() or (demand < 0).any():
        raise NonPositiveMass("negative mass in transport marginals")
    total = supply.sum()
    if total <= 0 or demand.sum() <= 0:
        raise NonPositiveMass("transport marginals must carry positive mass")
    if abs(total - demand.sum()) > 1e-9 * max(total, demand.sum()):
        raise DimensionMismatch("supply and demand totals differ")
    demand = demand * (total / demand.sum())

    m, n = len(supply), len(demand)
    start, basis = _northwest_corner(supply, demand)
    if max_pivots is None:
        max_pivots = 200 * (m + n) + 1000

    # Nodes are rows 0..m-1 and columns m..m+n-1; slot k of ``basis`` is the
    # tree edge between row basis[k][0] and column m + basis[k][1].
    plan = start.tolist()
    c = cost.tolist()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(m + n)]
    for k, (i, j) in enumerate(basis):
        adj[i].append((m + j, k))
        adj[m + j].append((i, k))
    parent = [-1] * (m + n)
    slot = [-1] * (m + n)
    depth = [0] * (m + n)
    pot = [0.0] * (m + n)

    def hang(node: int, par: int, k: int) -> None:
        """Label the subtree that ``node`` roots below ``par`` (edge ``k``)."""
        stack = [(node, par, k)]
        while stack:
            node, par, k = stack.pop()
            parent[node], slot[node] = par, k
            if par >= 0:
                i, j = basis[k]
                depth[node] = depth[par] + 1
                pot[node] = c[i][j] - pot[par]
            for other, k2 in adj[node]:
                if other != par:
                    stack.append((other, node, k2))

    hang(0, -1, -1)
    cells = np.array([i * n + j for i, j in basis])
    reduced = np.empty((m, n))
    flat = reduced.reshape(-1)
    for _ in range(max_pivots):
        p = np.array(pot)
        np.subtract(cost, p[:m, None], out=reduced)
        np.subtract(reduced, p[None, m:], out=reduced)
        flat[cells] = 0.0
        e = int(np.argmin(flat))
        if flat[e] >= -_RC_TOL:
            result = np.array(plan)
            return result, float(np.dot(result.ravel(), cost.ravel()))
        ei, ej = divmod(e, n)
        # The tree path from the column end back to the row end, as slots.
        a, b = m + ej, ei
        up_a: list[int] = []
        up_b: list[int] = []
        while depth[a] > depth[b]:
            up_a.append(slot[a])
            a = parent[a]
        while depth[b] > depth[a]:
            up_b.append(slot[b])
            b = parent[b]
        while a != b:
            up_a.append(slot[a])
            a = parent[a]
            up_b.append(slot[b])
            b = parent[b]
        path = up_a + up_b[::-1]
        # Walking from the entering cell's column end back to its row end the
        # basis edges alternate -, +, -, ...; theta is the min flow on minus
        # edges and the first minimiser leaves the basis.
        minus = path[0::2]
        leave = min(minus, key=lambda k: (plan[basis[k][0]][basis[k][1]], k))
        li, lj = basis[leave]
        theta = plan[li][lj]
        plan[ei][ej] += theta
        for k in minus:
            i, j = basis[k]
            plan[i][j] -= theta
        for k in path[1::2]:
            i, j = basis[k]
            plan[i][j] += theta
        plan[li][lj] = 0.0  # kill rounding residue exactly
        # The leaving edge cuts off the subtree holding the entering cell's
        # column end if it lies on that end's walk, else its row end; the
        # entering edge hangs that subtree from the other end.
        adj[li].remove((m + lj, leave))
        adj[m + lj].remove((li, leave))
        adj[ei].append((m + ej, leave))
        adj[m + ej].append((ei, leave))
        basis[leave] = (ei, ej)
        cells[leave] = e
        if leave in up_a:
            hang(m + ej, ei, leave)
        else:
            hang(ei, m + ej, leave)
    raise SolverFailure(f"no convergence after {max_pivots} pivots")
