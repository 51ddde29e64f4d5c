"""Finite belief samples: user-supplied sets and reachability trees.

The solvers tabulate values over a finite set of beliefs.  The standard
point-based recipe applies: expand every Bayes posterior of the initial
belief up to a fixed depth, deduplicate near-identical measures, and cap the
total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptySample, SolverFailure
from .filtering import bayes_update, obs_marginal, possible_nodes
from .measures import DISCRETE, EUCLIDEAN_1D, DiscreteMeasure, cdf_embedding, make_measure, w1_lp
from .model import PomdpModel

__all__ = [
    "BeliefSample",
    "BeliefDistances",
    "user_sample",
    "reachability_tree",
    "check_tree_size",
    "check_lp_budget",
    "DEDUP_W1_TOL",
    "MAX_TABLE_LP_SOLVES",
]

# beliefs closer than this in W1 are treated as the same sample point
DEDUP_W1_TOL = 1e-6

# bytes of the (rows x kept x cols) difference block of one l1 step: the
# query rows per step are as many as fit, and at least one
_L1_BLOCK_BYTES = 4 << 20

# contiguous column blocks of the discrete k-NN lower bound (fewer when
# the embedding has fewer columns), and query rows per k-NN search step:
# bounds the discrete search's (rows x kept) bound block; larger blocks
# ran slower on 300 anchors
_KNN_BLOCKS = 4
_KNN_CHUNK = 256

# bytes of the two gather buffers of one exact-distance step
_GATHER_BYTES = 1 << 20

# Explicit-table metrics solve one pure-Python transportation LP per
# (belief, kept belief) pair.  The 1,355 solves of the benchmark's
# explicit-table VI (supports of up to 16 states on its 4 x 4 lattice),
# timed one by one with perf_counter on a shared 2-core x86-64 VM, took a
# median of 0.26 ms each when the host was quiet and 0.66 ms when it ran
# everything about 2.5x slower.  The estimate uses the slower figure: 100k
# solves is about a minute at that size.  A solve grows about with the
# square of the state count: on full supports over 4 x 4, 6 x 6 and 9 x 9
# Manhattan lattices the medians were 0.44, 2.5 and 14.4 ms (20 solves
# each, one host state), and 0.66 ms * (n_states / 16)^2 is within 1.5x of
# all three.  Past this the tree and the VI precompute fail up front
# instead of running for hours on a large sample.
MAX_TABLE_LP_SOLVES = 100_000
_LP_SOLVE_S = 0.66e-3


@dataclass(eq=False)
class BeliefSample:
    """Ordered, deduplicated belief set.

    ``provenance`` names the construction; ``truncated`` marks that the
    cap cut the expansion off.
    """

    beliefs: tuple[DiscreteMeasure, ...]
    provenance: str
    truncated: bool = False
    _weight_matrix: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.beliefs = tuple(self.beliefs)
        if len(self.beliefs) == 0:
            raise EmptySample("a belief sample needs at least one belief")
        g = self.beliefs[0].grid
        for b in self.beliefs[1:]:
            if not b.grid.same_points(g):
                raise DimensionMismatch("sample beliefs live on different grids")

    @property
    def n(self) -> int:
        return len(self.beliefs)

    @property
    def grid(self):
        return self.beliefs[0].grid

    def weight_matrix(self) -> np.ndarray:
        """(n_beliefs, n_states) stack of the belief weights (cached)."""
        if self._weight_matrix is None:
            self._weight_matrix = np.stack([b.weights for b in self.beliefs])
        return self._weight_matrix


def user_sample(beliefs) -> BeliefSample:
    return BeliefSample(tuple(beliefs), provenance="user_supplied")


def _embed_rows(grid, weight_rows: np.ndarray) -> np.ndarray | None:
    """Rows whose pairwise L1 distance equals W1, if the metric allows it.

    1-D: :func:`~wpomdp.measures.cdf_embedding`.  Discrete: half the
    weights (L1 becomes total variation, which is W1 under the discrete
    metric).  Explicit tables have no such embedding -> None, callers fall
    back to the LP.
    """
    if grid.metric_kind == EUCLIDEAN_1D:
        return cdf_embedding(grid.points, weight_rows)
    if grid.metric_kind == DISCRETE:
        return 0.5 * weight_rows
    return None


class BeliefDistances:
    """W1 from belief weight rows to a growing set of kept beliefs.

    Where the metric embeds isometrically into L1 (1-D, discrete) each kept
    belief is embedded once, on construction or by :meth:`add`, and a
    distance block is an L1 reduction over steps of as many query rows as
    keep the difference block within ``_L1_BLOCK_BYTES`` (one row at
    least).  :meth:`knn` and :meth:`within` compute exact distances only
    where a lower bound on W1 allows: on the 1-D metric the gap of
    embedding row sums, inside a window of the kept beliefs sorted by sum
    (built on construction, and kept current by :meth:`add` with one
    sorted insert); on the discrete metric a sum over column
    blocks, whose kept sums are computed with the embedding and extended
    by :meth:`add`, so a search reduces only its query rows.  Explicit
    tables have no embedding (``emb`` is None) and fall back to one
    transportation solve per pair: exact, but only meant for desk-size
    models.  ``beliefs`` supplies the kept measures for that fallback; by
    default they are rebuilt from ``rows``.
    """

    def __init__(self, grid, rows: np.ndarray, beliefs=None):
        rows = np.asarray(rows, dtype=float)
        self.grid = grid
        self.emb = _embed_rows(grid, rows)
        self.beliefs = None
        if self.emb is None:
            self.beliefs = list(beliefs) if beliefs is not None else [
                make_measure(grid, r) for r in rows
            ]
            return
        self._buf = self.emb  # spare rows for add(); emb is its live prefix
        # (largest |e|_1, sorted 1-D keys, kept index of each key rank); keys
        # and ranks are None off the 1-D metric
        keys = order = None
        if grid.metric_kind == EUCLIDEAN_1D:
            keys = self.emb.sum(axis=1)
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
        self._index = (np.abs(self.emb).sum(axis=1).max(initial=0.0), keys, order)
        # discrete: (blocks, kept) column-block sums of emb, one row per block
        self._sums = _block_sums(self.emb).T.copy() if grid.metric_kind == DISCRETE else None

    def __len__(self) -> int:
        return len(self.beliefs) if self.emb is None else len(self.emb)

    def add(self, row: np.ndarray) -> None:
        """Keep one more belief, given by its weight row."""
        if self.emb is None:
            self.beliefs.append(make_measure(self.grid, row))
            return
        k = len(self.emb)
        if k == len(self._buf):  # full: double the capacity
            self._buf = np.concatenate([self.emb, np.empty((max(k, 1), self.emb.shape[1]))])
        e = self._buf[k] = _embed_rows(self.grid, row[None, :])[0]
        self.emb = self._buf[:k + 1]
        if self._sums is not None:
            self._sums = np.concatenate((self._sums, _block_sums(e[None, :]).T), axis=1)
        norm, keys, order = self._index
        norm = max(norm, np.abs(e).sum())
        if keys is not None:
            # after any equal keys: they are kept earlier, as a stable
            # argsort of every key orders them
            key = e.sum()
            p = np.searchsorted(keys, key, side="right")
            keys = np.concatenate((keys[:p], [key], keys[p:]))
            order = np.concatenate((order[:p], [k], order[p:]))
        self._index = (norm, keys, order)

    def l1(self, q: np.ndarray) -> np.ndarray:
        """(len(q), len(self)) L1 block from embedded query rows."""
        return _l1_block(q, self.emb)

    def dists(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), len(self)) W1 block from belief weight rows."""
        if self.emb is not None:
            return self.l1(_embed_rows(self.grid, rows))
        return _lp_block(self.grid, rows, self.beliefs)

    def block(self, rows: slice, cols: slice) -> np.ndarray:
        """W1 from the kept beliefs ``rows`` to the kept beliefs ``cols``.

        Each entry has the bits of the matching entry of ``dists(W)``, W
        the stacked weight rows of the kept beliefs: the same L1 reduction
        on an embedding, and on an explicit table the same
        ``w1_lp(make_measure(grid, w_i), belief_j)`` solve.
        """
        if self.emb is not None:
            return _l1_block(self.emb[rows], self.emb[cols])
        return _lp_block(self.grid, [b.weights for b in self.beliefs[rows]], self.beliefs[cols])

    def knn(self, rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest kept beliefs of each weight row: (idx, dist), (m, k).

        Exact: each row lists the first k kept beliefs in (distance, index)
        order, so ties go to the lowest index, and every distance has the
        bits of the matching :meth:`dists` entry.  On an embedded metric
        each step of ``_KNN_CHUNK`` rows computes exact distances to k seed
        beliefs per row, whose largest, tau, is at least the k-th nearest
        distance, then to every other kept belief whose lower bound is
        within tau (:meth:`_bound`).  Explicit tables solve every pair by LP.
        """
        m, k = len(rows), min(k, len(self))
        if self.emb is None:
            d = self.dists(rows)
            r, j = np.indices(d.shape)
            return _first_k(m, k, r.ravel(), d.ravel(), j.ravel())
        idx = np.empty((m, k), dtype=np.intp)
        dist = np.empty((m, k))
        for s in range(0, m, _KNN_CHUNK):
            q = _embed_rows(self.grid, rows[s:s + _KNN_CHUNK])
            bound = self._bound(q)
            r, j = bound.seeds(k)
            d = self._exact(q, r, j)
            r2, j2 = bound.near(d.reshape(len(q), k).max(axis=1))
            idx[s:s + _KNN_CHUNK], dist[s:s + _KNN_CHUNK] = _first_k(
                len(q), k, np.concatenate([r, r2]), np.concatenate([d, self._exact(q, r2, j2)]),
                np.concatenate([j, j2]),
            )
        return idx, dist

    def within(self, row: np.ndarray, tol: float) -> bool:
        """Whether a kept belief lies closer than ``tol`` in W1 to a weight row.

        Always ``dists(row[None, :]).min() < tol``.  On an embedded metric
        only the kept beliefs whose lower bound (:meth:`_bound`) is within
        ``tol`` get an exact distance, with the bits of the matching
        :meth:`dists` entry; explicit tables solve one LP per pair.
        """
        if self.emb is None:
            return bool(self.dists(row[None, :]).min() < tol)
        q = _embed_rows(self.grid, row[None, :])
        r, j = self._bound(q).near(tol)
        return bool(len(j) and self._exact(q, r, j).min() < tol)

    def _bound(self, q: np.ndarray):
        """The search bound of embedded query rows ``q`` on this metric."""
        index = self._index
        if index[1] is not None:
            return _KeyBound(q, index)
        return _BlockBound(q, self._sums, index[0])

    def _exact(self, q: np.ndarray, r: np.ndarray, j: np.ndarray) -> np.ndarray:
        """L1 from embedded query row ``q[r[i]]`` to kept belief ``j[i]``.

        Every exact distance of :meth:`knn` and :meth:`within` comes from
        here.  Rows are gathered into two buffers of ``_GATHER_BYTES`` in
        all, and each distance has the bits of the matching :meth:`l1`
        entry: the same differences, reduced along one contiguous row.
        """
        cols = self.emb.shape[1]
        out = np.empty(len(j))
        step = max(1, _GATHER_BYTES // max(1, 16 * cols))
        g = np.empty((min(step, len(j)), cols))
        h = np.empty_like(g)
        for s in range(0, len(j), step):
            js = j[s:s + step]
            gs, hs = g[:len(js)], h[:len(js)]
            # indices are in range: "clip" writes straight into the buffer
            np.take(self.emb, js, axis=0, out=gs, mode="clip")
            np.take(q, r[s:s + step], axis=0, out=hs, mode="clip")
            np.subtract(hs, gs, out=gs)
            np.abs(gs, out=gs).sum(axis=1, out=out[s:s + step])
        return out


class _KeyBound:
    """1-D search bound: the gap of embedding row sums (keys, x_max - mean).

    Two beliefs' key gap never exceeds their W1.  Rounding slack: with
    S >= |q|_1 + |e|_1 for every pair (``norm`` the largest kept |e|_1), a
    computed sum is within cols*eps*|x|_1 of the exact one and a computed
    distance within (cols + 1)*eps*S of the exact L1, so a kept belief whose
    computed distance is at most tau has a computed key gap of at most
    tau + (2*cols + 1)*eps*S; the window ends kq -/+ (tau + slack) round by
    at most 2*eps*S each.  4*(cols + 2)*eps*S covers that with room for
    second-order terms.
    """

    def __init__(self, q: np.ndarray, index):
        norm, self.keys, self.order = index
        self.kq = q.sum(axis=1)
        scale = np.abs(q).sum(axis=1).max(initial=0.0) + norm
        self.slack = 4 * (q.shape[1] + 2) * np.finfo(float).eps * scale
        self.seed = None  # key ranks [lo, hi) of the seeds

    def seeds(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k key-nearest kept beliefs of each query, 1 <= k <= kept."""
        keys, kq, n = self.keys, self.kq, len(self.keys)
        # they are the key ranks [lo, lo + k): a binary search over the
        # start, moving right while the key below the window is further
        # from the query's key than the key above it
        p = np.searchsorted(keys, kq)
        lo, hi = np.maximum(p - k, 0), np.minimum(p, n - k)
        while (live := lo < hi).any():
            mid = (lo + hi) // 2
            right = kq - keys[mid] > keys[np.minimum(mid + k, n - 1)] - kq
            lo = np.where(live & right, mid + 1, lo)
            hi = np.where(live & ~right, mid, hi)
        self.seed = (lo, lo + k)
        return np.repeat(np.arange(len(kq)), k), self.order[(lo[:, None] + np.arange(k)).ravel()]

    def near(self, reach) -> tuple[np.ndarray, np.ndarray]:
        """(query, kept) of each non-seed key within ``reach`` (array or scalar) + slack."""
        reach = reach + self.slack
        i, rank = _window(self.keys, self.kq - reach, self.kq + reach)
        if self.seed is not None:
            lo, hi = self.seed
            new = (rank < lo[i]) | (rank >= hi[i])
            i, rank = i[new], rank[new]
        return i, self.order[rank]


class _BlockBound:
    """Discrete search bound: L1 between sums over contiguous column blocks.

    Every discrete row sums to 1/2, so a key would have to be another
    projection; on 2 to 40 states and about 300 beliefs this bound left as
    few exact distances per query as a ramp projection key, or up to 145
    times fewer.  Block sums map L1 to L1 with Lipschitz constant 1; the
    kept beliefs' sums, ``sums`` (blocks, kept), are the search's own
    (:func:`_block_sums`), so only the query rows are reduced here.
    Rounding slack: with S as in :class:`_KeyBound`, a computed bound is
    within (cols + blocks)*eps*S of its exact value, so a computed distance
    <= tau has a computed bound <= tau + (2*cols + blocks + 1)*eps*S, which
    4*(cols + blocks)*eps*S covers.
    """

    def __init__(self, q: np.ndarray, sums: np.ndarray, norm: float):
        self.lb = np.zeros((len(q), sums.shape[1]))
        tmp = np.empty_like(self.lb)
        for qc, ec in zip(_block_sums(q).T[:, :, None], sums):  # (m, 1) - (kept,)
            np.subtract(qc, ec, out=tmp)
            self.lb += np.abs(tmp, out=tmp)
        scale = np.abs(q).sum(axis=1).max(initial=0.0) + norm
        self.slack = 4 * (q.shape[1] + len(sums)) * np.finfo(float).eps * scale
        self.seed = None  # (query, kept) of the seeds

    def seeds(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k lowest bounds of each query, 1 <= k <= kept."""
        # argmin: a partition costs ~30x more for k = 1
        if k == 1:
            cand = self.lb.argmin(axis=1)[:, None]
        else:
            cand = np.argpartition(self.lb, k - 1, axis=1)[:, :k]
        self.seed = (np.repeat(np.arange(len(self.lb)), k), cand.ravel())
        return self.seed

    def near(self, reach) -> tuple[np.ndarray, np.ndarray]:
        """(query, kept) of each non-seed bound within ``reach`` (array or scalar) + slack."""
        keep = self.lb <= (reach + self.slack)[..., None]
        if self.seed is not None:
            keep[self.seed] = False
        return np.nonzero(keep)


def _block_sums(emb: np.ndarray) -> np.ndarray:
    """(rows, blocks) sums of ``emb`` over the discrete bound's column blocks.

    A row's sums have the same bits whether it is reduced alone or in a
    block.  Edges must be distinct: reduceat returns a whole column at a
    repeated edge.
    """
    cols = emb.shape[1]
    edges = sorted({b * cols // _KNN_BLOCKS for b in range(_KNN_BLOCKS)})
    return np.add.reduceat(emb, edges, axis=1)


def _window(keys: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every rank t of sorted ``keys`` with lo[i] <= keys[t] <= hi[i]: (i, t).

    Query-major, ranks ascending within each query; lo[i] <= hi[i].
    """
    start = keys.searchsorted(lo, "left")  # methods: the tree calls this per posterior
    count = keys.searchsorted(hi, "right") - start
    i = np.arange(len(start)).repeat(count)
    if not len(i):  # all empty, as for each new posterior of the tree's dedup
        return i, i
    return i, np.arange(len(i)) + (start - count.cumsum() + count).repeat(count)


def _l1_block(q: np.ndarray, emb: np.ndarray) -> np.ndarray:
    """(len(q), len(emb)) L1 block between embedded rows.

    Reduced over steps of as many query rows as keep the difference block
    within ``_L1_BLOCK_BYTES`` (one row at least).
    """
    kept, cols = emb.shape
    out = np.empty((len(q), kept))
    step = max(1, _L1_BLOCK_BYTES // max(1, 8 * kept * cols))
    buf = np.empty((min(step, len(q)), kept, cols))
    for s in range(0, len(q), step):
        qc = q[s:s + step]
        t = buf[:len(qc)]
        np.subtract(qc[:, None, :], emb[None, :, :], out=t)
        np.abs(t, out=t).sum(axis=2, out=out[s:s + step])
    return out


def _lp_block(grid, rows, kept) -> np.ndarray:
    """(len(rows), len(kept)) W1 block by one transport solve per pair."""
    out = np.empty((len(rows), len(kept)))
    for i, r in enumerate(rows):
        mu = make_measure(grid, r)
        out[i] = [w1_lp(mu, b) for b in kept]
    return out


def check_lp_budget(solves: int, n_states: int) -> None:
    """Refuse explicit-table work that would take ``solves`` transport solves.

    The time estimate scales the per-solve figure by (n_states / 16)^2.
    """
    if solves > MAX_TABLE_LP_SOLVES:
        per_solve = _LP_SOLVE_S * (n_states / 16) ** 2
        raise SolverFailure(
            f"the explicit-table metric needs {solves:,} transport solves "
            f"(about {solves * per_solve / 60:,.1f} min at {per_solve * 1e3:.2f} ms "
            f"each); the limit is {MAX_TABLE_LP_SOLVES:,}: use a smaller sample"
        )


def _first_k(m: int, k: int, rows, dist, idx) -> tuple[np.ndarray, np.ndarray]:
    """The first k (distance, index)-ordered triples of each of m rows.

    Every row must have at least k triples.
    """
    order = np.lexsort((idx, dist, rows))
    first = np.searchsorted(rows[order], np.arange(m))
    take = order[first[:, None] + np.arange(k)]
    return idx[take], dist[take]


def check_tree_size(depth: int, cap: int) -> None:
    """Refuse a negative ``depth`` or a ``cap`` below 1.

    Raises :class:`~wpomdp.errors.DimensionMismatch`;
    :func:`reachability_tree` calls it before any other work.
    """
    if depth < 0:
        raise DimensionMismatch("depth must be >= 0")
    if cap < 1:
        raise DimensionMismatch("cap must be >= 1")


def reachability_tree(
    model: PomdpModel,
    mu0: DiscreteMeasure,
    depth: int = 3,
    *,
    cap: int = 5000,
    seed: int | None = None,
) -> BeliefSample:
    """Breadth-first posterior expansion of ``mu0``.

    Every action/observation-node pair that
    :func:`~wpomdp.filtering.possible_nodes` admits spawns a child
    posterior; children closer than ``DEDUP_W1_TOL`` in W1 to an existing
    sample point (:meth:`BeliefDistances.within`) are dropped.  The first
    new child past ``cap`` ends the tree with ``truncated=True``.  The
    construction is deterministic: ``seed`` is ignored, and goes once
    ``bench/workloads.py`` stops passing it.  On an explicit-table metric
    every dedup check solves one LP per kept belief; the tree raises
    :class:`~wpomdp.errors.SolverFailure` before its count of them would
    pass ``MAX_TABLE_LP_SOLVES``.  :func:`check_tree_size` refuses a
    negative ``depth`` or a ``cap`` below 1.
    """
    model.check_belief(mu0)
    check_tree_size(depth, cap)
    provenance = f"reachability_tree(depth={depth})"
    beliefs = [mu0]
    kept = BeliefDistances(model.state_grid, mu0.weights[None, :])
    solves = 0
    frontier = [mu0]
    for _ in range(depth):
        next_frontier = []
        for mu in frontier:
            for a in range(model.n_actions):
                for j in np.flatnonzero(possible_nodes(obs_marginal(model, mu, a).lam)):
                    post = bayes_update(model, mu, a, int(j))
                    if kept.emb is None:
                        solves += len(kept)
                        check_lp_budget(solves, kept.grid.n)
                    if kept.within(post.weights, DEDUP_W1_TOL):
                        continue
                    if len(beliefs) >= cap:
                        return BeliefSample(tuple(beliefs), provenance, truncated=True)
                    next_frontier.append(post)
                    beliefs.append(post)
                    kept.add(post.weights)
        frontier = next_frontier
    return BeliefSample(tuple(beliefs), provenance)
