"""Finite belief samples: user-supplied sets and reachability trees.

The solvers tabulate values over a finite set of beliefs.  The standard
point-based recipe applies: expand every Bayes posterior of the initial
belief up to a fixed depth, deduplicate near-identical measures, cap the
total, and optionally pad with random mixtures of what was found.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptySample, SolverFailure
from .filtering import bayes_update, obs_marginal
from .measures import DISCRETE, EUCLIDEAN_1D, DiscreteMeasure, make_measure, w1_lp
from .model import PomdpModel

__all__ = [
    "BeliefSample",
    "BeliefDistances",
    "user_sample",
    "reachability_tree",
    "check_lp_budget",
    "DEDUP_W1_TOL",
    "MAX_TABLE_LP_SOLVES",
]

# beliefs closer than this in W1 are treated as the same sample point
DEDUP_W1_TOL = 1e-6

# bytes of the (rows x kept x cols) difference block of one l1 step: the
# query rows per step are as many as fit, and at least one
_L1_BLOCK_BYTES = 4 << 20

# contiguous column blocks of the k-NN lower bound (fewer when the
# embedding has fewer columns), and query rows per pruned search: bounds
# the (rows x kept) bound block; larger blocks ran slower on 300 anchors
_KNN_BLOCKS = 4
_KNN_CHUNK = 256

# Explicit-table metrics solve one pure-Python transportation LP per
# (belief, kept belief) pair, at a measured median of about 2.3 ms each:
# 100k solves is about four minutes, so past this the tree and the VI
# precompute fail up front instead of running for hours.
MAX_TABLE_LP_SOLVES = 100_000
_LP_SOLVE_S = 2.3e-3


@dataclass(eq=False)
class BeliefSample:
    """Ordered, deduplicated belief set with its construction record.

    ``edges`` lists (parent index, action, node, child index) for every
    tree expansion that produced a new sample point; mixture-padded points
    have no edge.  ``truncated`` marks that the cap cut the expansion off.
    """

    beliefs: tuple[DiscreteMeasure, ...]
    provenance: str
    edges: tuple[tuple[int, int, int, int], ...] = ()
    truncated: bool = False
    _weight_matrix: np.ndarray | None = field(default=None, repr=False)

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

    1-D: cell-width-scaled CDFs.  Discrete: half the weights (L1 becomes
    total variation, which is W1 under the discrete metric).  Explicit
    tables have no such embedding -> None, callers fall back to the LP.
    """
    if grid.metric_kind == EUCLIDEAN_1D:
        return np.cumsum(weight_rows, axis=1)[:, :-1] * np.diff(grid.points)[None, :]
    if grid.metric_kind == DISCRETE:
        return 0.5 * weight_rows
    return None


class BeliefDistances:
    """W1 from belief weight rows to a growing set of kept beliefs.

    Where the metric embeds isometrically into L1 (1-D, discrete) each kept
    belief is embedded once, on construction or by :meth:`add`, and a
    distance block is an L1 reduction over steps of as many query rows as
    keep the difference block within ``_L1_BLOCK_BYTES`` (one row at
    least), and :meth:`knn` prunes with a block lower bound before
    computing any exact distance.  Explicit tables have no embedding
    (``emb`` is None) and fall back to one transportation solve per pair:
    exact, but only meant for desk-size models.  ``beliefs`` supplies the
    kept measures for that fallback; by default they are rebuilt from
    ``rows``.
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
        self._buf = self.emb  # spare rows for add(); emb is its live prefix

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
        self._buf[k] = _embed_rows(self.grid, row[None, :])[0]
        self.emb = self._buf[:k + 1]

    def l1(self, q: np.ndarray) -> np.ndarray:
        """(len(q), len(self)) L1 block from embedded query rows."""
        kept, cols = self.emb.shape
        out = np.empty((len(q), kept))
        step = max(1, _L1_BLOCK_BYTES // max(1, 8 * kept * cols))
        buf = np.empty((min(step, len(q)), kept, cols))
        for s in range(0, len(q), step):
            qc = q[s:s + step]
            t = buf[:len(qc)]
            np.subtract(qc[:, None, :], self.emb[None, :, :], out=t)
            np.abs(t, out=t).sum(axis=2, out=out[s:s + step])
        return out

    def dists(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), len(self)) W1 block from belief weight rows."""
        if self.emb is not None:
            return self.l1(_embed_rows(self.grid, rows))
        out = np.empty((len(rows), len(self.beliefs)))
        for i, r in enumerate(rows):
            mu = make_measure(self.grid, r)
            out[i] = [w1_lp(mu, b) for b in self.beliefs]
        return out

    def pairwise(self) -> np.ndarray:
        """W1 between every ordered pair of kept beliefs."""
        if self.emb is not None:
            return self.l1(self.emb)
        return self.dists(np.stack([b.weights for b in self.beliefs]))

    def knn(self, rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest kept beliefs of each weight row: (idx, dist), (m, k).

        Exact: each row lists the first k kept beliefs in (distance, index)
        order, so ties go to the lowest index, and every distance has the
        bits of the matching :meth:`dists` entry.  Where the metric embeds,
        a block lower bound skips the beliefs that cannot be among the k
        nearest; explicit tables solve every pair by LP.
        """
        m, k = len(rows), min(k, len(self))
        if self.emb is None:
            d = self.dists(rows)
            r, j = np.indices(d.shape)
            return _first_k(m, k, r.ravel(), d.ravel(), j.ravel())
        idx = np.empty((m, k), dtype=np.intp)
        dist = np.empty((m, k))
        for s in range(0, m, _KNN_CHUNK):
            idx[s:s + _KNN_CHUNK], dist[s:s + _KNN_CHUNK] = self._pruned_knn(
                _embed_rows(self.grid, rows[s:s + _KNN_CHUNK]), k
            )
        return idx, dist

    def _pruned_knn(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`knn` for embedded query rows ``q``, 1 <= k <= len(self)."""
        m, e = len(q), self.emb
        cols = e.shape[1]
        # Summing the embedding over contiguous column blocks maps L1 to
        # L1 with Lipschitz constant 1, so the block-summed distance never
        # exceeds the exact one.  Edges must be distinct: reduceat returns
        # a whole column at a repeated edge, which would count it twice.
        edges = np.unique(np.arange(_KNN_BLOCKS) * cols // _KNN_BLOCKS)
        qb, eb = (np.add.reduceat(x, edges, axis=1) if cols else x for x in (q, e))
        lb = np.zeros((m, len(e)))
        tmp = np.empty_like(lb)
        for qc, ec in zip(qb.T, np.ascontiguousarray(eb.T)):
            np.subtract(qc[:, None], ec[None, :], out=tmp)
            lb += np.abs(tmp, out=tmp)

        # exact distances to the k lowest bounds; their largest, tau, is at
        # least the k-th nearest distance (argmin: a partition costs ~30x
        # more for the anchor policy's k = 1)
        if k == 1:
            cand = lb.argmin(axis=1)[:, None]
        else:
            cand = np.argpartition(lb, k - 1, axis=1)[:, :k]
        g = e[cand]
        d = np.abs(np.subtract(q[:, None, :], g, out=g), out=g).sum(axis=2)
        tau = d.max(axis=1)
        # Rounding slack.  With S >= |q|_1 + |e|_1 for every pair, each
        # computed distance is within cols*eps*S of the exact L1, and each
        # computed bound within (cols + blocks)*eps*S of its exact value
        # (block sums, then the sum over blocks).  A computed distance
        # <= tau thus has a computed bound <= tau + (2*cols + blocks + 1)
        # *eps*S; the slack below covers that with room for second-order
        # terms.  It only lets a few more pairs reach the exact step.
        scale = np.abs(q).sum(axis=1).max(initial=0.0) + np.abs(e).sum(axis=1).max(initial=0.0)
        slack = 4 * (cols + len(edges)) * np.finfo(float).eps * scale
        keep = lb <= (tau + slack)[:, None]
        r = np.repeat(np.arange(m), k)
        keep[r, cand.ravel()] = False  # already exact
        r2, j2 = np.nonzero(keep)
        d2 = np.abs(q[r2] - e[j2]).sum(axis=1)
        return _first_k(
            m, k, np.concatenate([r, r2]), np.concatenate([d.ravel(), d2]),
            np.concatenate([cand.ravel(), j2]),
        )


def check_lp_budget(solves: int) -> None:
    """Refuse explicit-table work that would take ``solves`` transport solves."""
    if solves > MAX_TABLE_LP_SOLVES:
        raise SolverFailure(
            f"the explicit-table metric needs {solves:,} transport solves "
            f"(about {solves * _LP_SOLVE_S / 60:,.0f} min at {_LP_SOLVE_S * 1e3:.1f} ms "
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


def reachability_tree(
    model: PomdpModel,
    mu0: DiscreteMeasure,
    depth: int = 3,
    *,
    cap: int = 5000,
    dedup_tol: float = DEDUP_W1_TOL,
    mixtures: int = 0,
    seed: int = 0,
) -> BeliefSample:
    """Breadth-first posterior expansion of ``mu0``.

    Every action/observation-node pair with positive marginal probability
    spawns a child posterior; children within ``dedup_tol`` in W1 of an
    existing sample point are dropped.  After the tree (or the cap) is
    exhausted, up to ``mixtures`` random pairwise mixtures of collected
    beliefs are appended, drawn from a generator seeded with ``seed`` —
    the whole construction is deterministic.  On an explicit-table metric
    every dedup check solves one LP per kept belief; the tree raises
    :class:`~wpomdp.errors.SolverFailure` before its count of them would
    pass ``MAX_TABLE_LP_SOLVES``.
    """
    model.check_belief(mu0)
    if depth < 0:
        raise DimensionMismatch("depth must be >= 0")
    beliefs = [mu0]
    kept = BeliefDistances(model.state_grid, mu0.weights[None, :])
    edges: list[tuple[int, int, int, int]] = []
    truncated = False
    solves = 0

    def nearest(row: np.ndarray) -> float:
        nonlocal solves
        if kept.emb is None:
            solves += len(kept)
            check_lp_budget(solves)
        return kept.dists(row[None, :]).min()

    frontier = [0]
    for _ in range(depth):
        if truncated or not frontier:
            break
        next_frontier: list[int] = []
        for parent in frontier:
            if truncated:
                break
            for a in range(model.n_actions):
                probs = obs_marginal(model, beliefs[parent], a).node_probs
                for j in np.flatnonzero(probs > 0):
                    post = bayes_update(model, beliefs[parent], a, int(j))
                    if nearest(post.weights) < dedup_tol:
                        continue
                    if len(beliefs) >= cap:
                        truncated = True
                        break
                    edges.append((parent, a, int(j), len(beliefs)))
                    next_frontier.append(len(beliefs))
                    beliefs.append(post)
                    kept.add(post.weights)
                if truncated:
                    break
        frontier = next_frontier

    rng = np.random.default_rng(seed)
    attempts = 0
    added = 0
    while added < mixtures and not truncated and attempts < 20 * max(mixtures, 1):
        attempts += 1
        i, j = rng.integers(0, len(beliefs), size=2)
        kappa = rng.uniform(0.1, 0.9)
        mix = make_measure(
            model.state_grid,
            kappa * beliefs[i].weights + (1.0 - kappa) * beliefs[j].weights,
        )
        if nearest(mix.weights) < dedup_tol:
            continue
        if len(beliefs) >= cap:
            truncated = True
            break
        beliefs.append(mix)
        kept.add(mix.weights)
        added += 1

    return BeliefSample(
        tuple(beliefs),
        provenance=f"reachability_tree(depth={depth}, seed={seed})",
        edges=tuple(edges),
        truncated=truncated,
    )
