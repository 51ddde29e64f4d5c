"""Finitely supported measures on metric state grids, and their W1 parts.

Beliefs are probability measures whose atoms sit on a fixed ``StateGrid``.
Three metric modes are supported: points on the real line with d(x,y)=|x-y|,
the 0/1 discrete metric, and an explicit symmetric distance table.  On top
of that the module provides

* affine weight functions w(x) = 1 + k*d(x0, x); their lift
  ``int w dmu`` to belief space is the denominator of the weighted
  supremum norm behind every convergence certificate, and the solvers
  compute it for a sample's weight rows W as ``W @ weight_values``,
* the Lipschitz constants of grid functions (:func:`lipschitz_constants`),
* the pieces of the order-1 Wasserstein distance: the CDF embedding on the
  line (:func:`cdf_embedding`), whose L1 distance is W1, and the
  transportation simplex (:func:`w1_lp`), which the explicit-table metric
  solves.  The one W1 entry point, :func:`wpomdp.sampling.w1`, runs the
  package's distance kernel, ``BeliefDistances``.

Measures are deliberately dense (one weight per grid point); the support is
simply the set of strictly positive entries.  Arrays are treated as
immutable once a measure is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, MetricKindMismatch, NonPositiveMass
from .transport import solve_transport

__all__ = [
    "StateGrid",
    "DiscreteMeasure",
    "WeightFunction",
    "lipschitz_constants",
    "make_measure",
    "dirac",
    "cdf_embedding",
    "w1_lp",
]

EUCLIDEAN_1D = "euclidean_1d"
DISCRETE = "discrete"
EXPLICIT_TABLE = "explicit_table"

_METRIC_KINDS = (EUCLIDEAN_1D, DISCRETE, EXPLICIT_TABLE)


@dataclass(eq=False)
class StateGrid:
    """Fixed finite state space with one of three metric structures.

    Parameters
    ----------
    points : 1-D array of real point labels.  In ``euclidean_1d`` mode they
        must be strictly increasing and carry the metric; in the other two
        modes they are only identifiers.
    metric_kind : one of ``euclidean_1d``, ``discrete``, ``explicit_table``.
    distance_table : required (n, n) symmetric matrix when
        ``metric_kind == "explicit_table"``; validated for finite entries,
        zero diagonal, positive off-diagonal entries, symmetry and the
        triangle inequality on construction.
    """

    points: np.ndarray
    metric_kind: str = EUCLIDEAN_1D
    distance_table: np.ndarray | None = None
    _pairwise: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 1 or len(self.points) == 0:
            raise DimensionMismatch("grid needs a nonempty 1-D point array")
        if not np.isfinite(self.points).all():
            raise DimensionMismatch("grid points must be finite")
        if self.metric_kind not in _METRIC_KINDS:
            raise MetricKindMismatch(f"unknown metric kind {self.metric_kind!r}")
        if self.metric_kind == EUCLIDEAN_1D:
            if len(self.points) > 1 and not (np.diff(self.points) > 0).all():
                raise DimensionMismatch("1-D grid points must strictly increase")
            if self.distance_table is not None:
                raise MetricKindMismatch("distance table not allowed in 1-D mode")
        elif self.metric_kind == EXPLICIT_TABLE:
            if self.distance_table is None:
                raise MetricKindMismatch("explicit_table mode needs a table")
            t = np.asarray(self.distance_table, dtype=float)
            n = len(self.points)
            if t.shape != (n, n):
                raise DimensionMismatch("distance table shape mismatch")
            if not np.isfinite(t).all():
                raise DimensionMismatch("distance table entries must be finite")
            if not np.allclose(t, t.T, atol=1e-12) or (np.diag(t) != 0).any():
                raise MetricKindMismatch("table must be symmetric with zero diagonal")
            if (t < 0).any():
                raise MetricKindMismatch("distances must be nonnegative")
            if (t[~np.eye(n, dtype=bool)] == 0).any():
                raise MetricKindMismatch("distinct points need a positive distance")
            # triangle inequality, one middle point k at a time so only
            # (n, n) arrays are held: min_k t[i,k] + t[k,j] must not
            # undercut t[i,j]
            shortest = t[:, :1] + t[:1, :]
            for k in range(1, n):
                np.minimum(shortest, t[:, k, None] + t[None, k, :], out=shortest)
            if (shortest < t - 1e-12).any():
                raise MetricKindMismatch("table violates the triangle inequality")
            self.distance_table = t
        else:  # discrete
            if self.distance_table is not None:
                raise MetricKindMismatch("distance table not allowed in discrete mode")
            if len(np.unique(self.points)) != len(self.points):
                raise DimensionMismatch("discrete grid points must be distinct")

    @property
    def n(self) -> int:
        return len(self.points)

    def index_of(self, x: float) -> int:
        """Index of an exact grid point (used for anchors in finite modes)."""
        hits = np.flatnonzero(np.isclose(self.points, x, rtol=0.0, atol=1e-12))
        if len(hits) != 1:
            raise DimensionMismatch(f"{x!r} is not a unique grid point")
        return int(hits[0])

    def pairwise(self) -> np.ndarray:
        """Full (n, n) distance matrix (cached)."""
        if self._pairwise is None:
            if self.metric_kind == EUCLIDEAN_1D:
                self._pairwise = np.abs(self.points[:, None] - self.points[None, :])
            elif self.metric_kind == DISCRETE:
                self._pairwise = 1.0 - np.eye(self.n)
            else:
                self._pairwise = self.distance_table
        return self._pairwise

    def distance_to(self, x0: float) -> np.ndarray:
        """Vector of distances d(x0, x_i); x0 may be off-grid in 1-D mode."""
        if self.metric_kind == EUCLIDEAN_1D:
            return np.abs(self.points - x0)
        return self.pairwise()[self.index_of(x0)]

    def same_points(self, other: "StateGrid") -> bool:
        return self is other or (
            self.metric_kind == other.metric_kind
            and len(self.points) == len(other.points)
            and bool(np.array_equal(self.points, other.points))
        )


@dataclass(eq=False)
class DiscreteMeasure:
    """Probability measure with one (possibly zero) weight per grid point."""

    grid: StateGrid
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (self.grid.n,):
            raise DimensionMismatch(
                f"{len(self.weights)} weights for a grid of {self.grid.n} points"
            )

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0)


def make_measure(grid: StateGrid, weights: Sequence[float]) -> DiscreteMeasure:
    """Normalise raw weights into a probability measure on ``grid``.

    Negative entries are clamped to zero (rounding noise from filtering is
    the expected source, at the -1e-15 scale); a total after clamping that
    is not positive, or that overflows, raises :class:`NonPositiveMass`.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (grid.n,):
        raise DimensionMismatch(f"{w.shape} weights on a {grid.n}-point grid")
    if not np.isfinite(w).all():
        raise NonPositiveMass("weights must be finite")
    w = np.where(w < 0, 0.0, w)
    with np.errstate(over="ignore"):
        total = w.sum()
    if not 0 < total < np.inf:
        raise NonPositiveMass("total mass is not positive and finite")
    out = DiscreteMeasure(grid, w / total)
    out.weights.flags.writeable = False
    return out


def dirac(grid: StateGrid, index: int) -> DiscreteMeasure:
    w = np.zeros(grid.n)
    w[index] = 1.0
    return make_measure(grid, w)


@dataclass(frozen=True)
class WeightFunction:
    """Affine weight w(x) = 1 + k * d(x0, x) with w(x0) = 1 and k > 0."""

    x0: float
    k: float

    def __post_init__(self):
        if not (self.k > 0 and np.isfinite(self.k) and np.isfinite(self.x0)):
            raise NonPositiveMass("weight slope k must be positive and finite, anchor x0 finite")

    def values_on(self, grid: StateGrid) -> np.ndarray:
        return 1.0 + self.k * grid.distance_to(self.x0)


def lipschitz_constants(grid: StateGrid, rows: np.ndarray) -> np.ndarray:
    """Lipschitz constants of grid functions, one per row (last axis: states).

    1-D: adjacent pairs are enough for the piecewise-linear interpolant.
    Discrete: every pair is at distance one, so the constant is the spread.
    Explicit table: every pair of distinct points, each divided by the
    smaller of its two table entries (symmetry is only checked to 1e-12).
    """
    rows = np.asarray(rows, dtype=float)
    if grid.n == 1:
        return np.zeros(rows.shape[:-1])
    if grid.metric_kind == EUCLIDEAN_1D:
        return (np.abs(np.diff(rows, axis=-1)) / np.diff(grid.points)).max(axis=-1)
    if grid.metric_kind == DISCRETE:
        return rows.max(axis=-1) - rows.min(axis=-1)
    pw = grid.pairwise()
    iu = np.triu_indices(grid.n, 1)
    gaps = np.abs(rows[..., iu[0]] - rows[..., iu[1]])
    return (gaps / np.minimum(pw, pw.T)[iu]).max(axis=-1)


# --------------------------------------------------------------------------
# Wasserstein-1 distances
# --------------------------------------------------------------------------

def cdf_embedding(points: np.ndarray, weight_rows: np.ndarray) -> np.ndarray:
    """Cell-width-scaled CDFs of weight rows (last axis) on increasing 1-D
    ``points``: the L1 distance of two embedded rows is their W1."""
    return np.cumsum(weight_rows, axis=-1)[..., :-1] * np.diff(points)


def w1_lp(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """W1 via the transportation simplex over the support atoms.

    Works for every metric kind; both measures must live on one grid.  The
    cost is the grid's :meth:`StateGrid.pairwise` block between the two
    supports.
    """
    if mu.grid.metric_kind != nu.grid.metric_kind:
        raise MetricKindMismatch(
            f"{mu.grid.metric_kind} vs {nu.grid.metric_kind}"
        )
    if not mu.grid.same_points(nu.grid):
        raise MetricKindMismatch("measures must share a grid")
    im, jn = mu.support, nu.support
    cost = mu.grid.pairwise()[np.ix_(im, jn)]
    _, value = solve_transport(mu.weights[im], nu.weights[jn], cost)
    return value
