"""Self-contained transportation solver for discrete optimal transport.

Classic primal transportation simplex: north-west-corner initial basis,
most-negative reduced cost entering rule (first minimiser in row-major
order), and the pivot on the unique cycle the entering cell closes in the
basis tree.  Degenerate zero-flow basic cells are kept, so the basis always
stays a spanning tree of the bipartite supply/demand graph.

The basis is m + n - 1 slots.  Slot k holds one basic cell ``i * n + j``
of the row-major flattened plan, with its flow and its cost; a pivot gives
the leaving slot to the entering cell, and every other cell carries
exactly +0.0.  The north-west corner runs on Python floats with the same
``min``, subtraction and ``<=`` as on arrays.

The tree is kept between pivots as network-simplex labels (Ahuja, Magnanti
& Orlin, *Network Flows*, 1993, ch. 11): every node's parent, the basis
slot of the edge to it, its depth and its dual potential (u for rows, v for
columns; the root is row 0 with u = 0).  The cycle is the two walks up from
the entering cell's ends to their lowest common ancestor.  Along the cycle
path the minus edges are the even positions of both walks, counted from
each end, so the leaving edge is chosen from the walks as they stand.  A
pivot re-hangs only the subtree cut off by the leaving edge, and every node
in it gets its potential afresh from its new parent as ``cost - parent
potential``.  A potential is thus the same chain of subtractions along the
node's unique path to the root as a full walk of the tree would do, never a
sum of updates, so the reduced costs, the pivot sequence, the plan and the
value are the same bits whichever nodes a pivot relabels.

Pricing subtracts the potentials from a copy of the costs that holds
+inf at the basic cells, kept by two scalar writes per pivot.  A basic cell
has reduced cost 0, which can never be a strictly negative minimum, so the
mask changes neither the entering cell nor the stopping test.  The
potentials live in one C double array that numpy reads without a copy.
Sizes here are belief supports; callers route 1-D problems to the closed
form instead.
"""

from __future__ import annotations

from array import array

import numpy as np

from .errors import DimensionMismatch, NonPositiveMass, SolverFailure

__all__ = ["solve_transport"]

_RC_TOL = 1e-12


def _northwest_corner(supply: list[float], demand: list[float]):
    """Initial basic feasible plan with exactly m + n - 1 basic cells.

    Returns the basic cells ``i * n + j`` in the order the corner rule
    takes them and the flow on each.
    """
    m, n = len(supply), len(demand)
    cells: list[int] = []
    flow: list[float] = []
    i = j = 0
    # Rows and columns only advance, so only the current row's and column's
    # remaining masses are ever read again.
    a, b = supply[0], demand[0]
    while True:
        take = min(a, b)
        cells.append(i * n + j)
        flow.append(take)
        a -= take
        b -= take
        if i == m - 1 and j == n - 1:
            break
        # On simultaneous exhaustion advance only one index so a zero
        # (degenerate) cell enters the basis and the count stays m + n - 1.
        # Totals that agree only up to rounding can leave a residue in row i
        # when the last column is exhausted; the rows still advance.
        if i < m - 1 and (a <= b or j == n - 1):
            i += 1
            a = supply[i]
        else:
            j += 1
            b = demand[j]
    return cells, flow


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
    dsum = demand.sum()
    if total <= 0 or dsum <= 0:
        raise NonPositiveMass("transport marginals must carry positive mass")
    if abs(total - dsum) > 1e-9 * max(total, dsum):
        raise DimensionMismatch("supply and demand totals differ")
    demand = demand * (total / dsum)

    m, n = len(supply), len(demand)
    where, flow = _northwest_corner(supply.tolist(), demand.tolist())
    if max_pivots is None:
        max_pivots = 200 * (m + n) + 1000

    # Nodes are rows 0..m-1 and columns m..m+n-1.  Slot k of the basis is
    # the tree edge between row i and column m + j of its cell
    # where[k] = i*n + j, which carries flow[k] at cost ck[k].
    ck = cost.ravel()[where].tolist()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(m + n)]
    for k, cell in enumerate(where):
        i, j = divmod(cell, n)
        adj[i].append((m + j, k))
        adj[m + j].append((i, k))
    parent = [-1] * (m + n)
    slot = [-1] * (m + n)
    depth = [0] * (m + n)
    pot = array("d", [0.0]) * (m + n)
    # the costs with +inf at the basic cells; ``masked`` is its flat view
    priced = cost.copy()
    masked = priced.reshape(-1)
    masked[where] = np.inf
    reduced = np.empty((m, n))
    flat = reduced.reshape(-1)
    p = np.frombuffer(pot)
    u, v = p[:m, None], p[None, m:]
    # Each round first labels the subtree below ``top``: the whole tree in
    # the first round, then the subtree the last pivot re-hung.
    top = 0
    for _ in range(max_pivots):
        order = [top]
        for node in order:  # breadth first: the list grows as it is read
            par, below, up = parent[node], depth[node] + 1, pot[node]
            for other, k in adj[node]:
                if other != par:
                    parent[other], slot[other] = node, k
                    depth[other] = below
                    pot[other] = ck[k] - up
                    order.append(other)
        np.subtract(priced, u, out=reduced)
        np.subtract(reduced, v, out=reduced)
        e = int(flat.argmin())
        if flat[e] >= -_RC_TOL:
            # every non-basic cell carries exactly +0.0
            result = np.zeros(m * n)
            result[where] = flow
            result = result.reshape(m, n)
            return result, float(np.dot(result.ravel(), cost.ravel()))
        ei, ej = divmod(e, n)
        # The cycle is the tree path from the column end back to the row end:
        # the walk up from each end to their common ancestor.  Along the path
        # the basis edges alternate -, +, -, ...; it has odd length, so the
        # minus edges are the even positions of both walks.  theta is the min
        # flow on minus edges and the first minimiser by (flow, slot) leaves.
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
        minus_a, minus_b = up_a[0::2], up_b[0::2]
        leave, theta = -1, np.inf
        for k in minus_a:
            f = flow[k]
            if f < theta or (f == theta and k < leave):
                leave, theta = k, f
        on_a = True
        for k in minus_b:
            f = flow[k]
            if f < theta or (f == theta and k < leave):
                leave, theta, on_a = k, f, False
        for k in minus_a:
            flow[k] -= theta
        for k in minus_b:
            flow[k] -= theta
        for k in up_a[1::2]:
            flow[k] += theta
        for k in up_b[1::2]:
            flow[k] += theta
        # The entering cell takes the leaving slot, its flow 0.0 + theta.
        flow[leave] = 0.0 + theta
        # The leaving edge cuts off the subtree holding the entering cell's
        # column end if it lies on that end's walk, else its row end; the
        # entering edge hangs that subtree from the other end.
        out = where[leave]
        li, lj = divmod(out, n)
        adj[li].remove((m + lj, leave))
        adj[m + lj].remove((li, leave))
        adj[ei].append((m + ej, leave))
        adj[m + ej].append((ei, leave))
        masked[out] = ck[leave]
        masked[e] = np.inf
        where[leave] = e
        ck[leave] = cost.item(e)
        top, par = (m + ej, ei) if on_a else (ei, m + ej)
        parent[top], slot[top] = par, leave
        depth[top] = depth[par] + 1
        pot[top] = ck[leave] - pot[par]
    raise SolverFailure(f"no convergence after {max_pivots} pivots")
