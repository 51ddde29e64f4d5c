"""Finite belief samples: user-supplied sets and reachability trees.

The solvers tabulate values over a finite set of beliefs.  The standard
point-based recipe applies: expand every Bayes posterior of the initial
belief up to a fixed depth, deduplicate near-identical measures, cap the
total, and optionally pad with random mixtures of what was found.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptySample
from .filtering import bayes_update, obs_marginal
from .measures import DISCRETE, EUCLIDEAN_1D, DiscreteMeasure, make_measure, w1_lp
from .model import PomdpModel

__all__ = ["BeliefSample", "BeliefDistances", "user_sample", "reachability_tree", "DEDUP_W1_TOL"]

# beliefs closer than this in W1 are treated as the same sample point
DEDUP_W1_TOL = 1e-6

# query rows per distance block: bounds the (rows x kept x states)
# broadcast temporary
_DIST_CHUNK = 64


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
    distance block is an L1 reduction over chunks of ``_DIST_CHUNK`` query
    rows.  Explicit tables have no embedding (``emb`` is None) and fall
    back to one transportation solve per pair: exact, but only meant for
    desk-size models.  ``beliefs`` supplies the kept measures for that
    fallback; by default they are rebuilt from ``rows``.
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
        out = np.empty((len(q), len(self.emb)))
        for s in range(0, len(q), _DIST_CHUNK):
            out[s:s + _DIST_CHUNK] = np.abs(
                q[s:s + _DIST_CHUNK, None, :] - self.emb[None, :, :]
            ).sum(axis=2)
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
    the whole construction is deterministic.
    """
    model.check_belief(mu0)
    if depth < 0:
        raise DimensionMismatch("depth must be >= 0")
    beliefs = [mu0]
    kept = BeliefDistances(model.state_grid, mu0.weights[None, :])
    edges: list[tuple[int, int, int, int]] = []
    truncated = False

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
                    if kept.dists(post.weights[None, :]).min() < dedup_tol:
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
        if kept.dists(mix.weights[None, :]).min() < dedup_tol:
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
