"""Finitely supported measures on metric state grids and W1 machinery.

Beliefs are probability measures whose atoms sit on a fixed ``StateGrid``.
Three metric modes are supported: points on the real line with d(x,y)=|x-y|,
the 0/1 discrete metric, and an explicit symmetric distance table.  On top
of that the module provides

* the order-1 Wasserstein distance -- closed form on the line via the CDF
  area formula, transportation simplex otherwise,
* dual gaps ``int f dmu - int f dnu`` for (approximately) 1-Lipschitz test
  functions, giving the sup-side of Kantorovich-Rubinstein duality,
* affine weight functions w(x) = 1 + k*d(x0, x), their lifts
  ``tilde_w(mu) = int w dmu`` to belief space, and the induced weighted
  supremum norm used by every convergence certificate in the package.

Measures are deliberately dense (one weight per grid point); the support is
simply the set of strictly positive entries.  Arrays are treated as
immutable once a measure is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySample,
    MetricKindMismatch,
    NonPositiveMass,
    NotOneLipschitz,
)
from .transport import solve_transport

__all__ = [
    "StateGrid",
    "DiscreteMeasure",
    "WeightFunction",
    "LipschitzFn",
    "lipschitz_constants",
    "make_measure",
    "dirac",
    "w1_1d",
    "w1_lp",
    "w1",
    "kr_dual_gap",
    "tilde_w",
    "weighted_norm",
    "integrate",
]

EUCLIDEAN_1D = "euclidean_1d"
DISCRETE = "discrete"
EXPLICIT_TABLE = "explicit_table"

_METRIC_KINDS = (EUCLIDEAN_1D, DISCRETE, EXPLICIT_TABLE)

# Lipschitz budget slack for dual test functions
_LIP_SLACK = 1e-9


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
        ``metric_kind == "explicit_table"``; validated for zero diagonal,
        positive off-diagonal entries, symmetry and the triangle inequality
        on construction.
    """

    points: np.ndarray
    metric_kind: str = EUCLIDEAN_1D
    distance_table: np.ndarray | None = None
    _pairwise: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 1 or len(self.points) == 0:
            raise DimensionMismatch("grid needs a nonempty 1-D point array")
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
            if not np.allclose(t, t.T, atol=1e-12) or (np.diag(t) != 0).any():
                raise MetricKindMismatch("table must be symmetric with zero diagonal")
            if (t < 0).any():
                raise MetricKindMismatch("distances must be nonnegative")
            if (t[~np.eye(n, dtype=bool)] == 0).any():
                raise MetricKindMismatch("distinct points need a positive distance")
            # triangle inequality, vectorised over the middle point:
            # min_k t[i,k] + t[k,j] must not undercut t[i,j]
            if ((t[:, None, :] + t.T[None, :, :]).min(axis=2) < t - 1e-12).any():
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

    def mean(self) -> float:
        return float(np.dot(self.grid.points, self.weights))

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot((self.grid.points - m) ** 2, self.weights))


def make_measure(grid: StateGrid, weights: Sequence[float]) -> DiscreteMeasure:
    """Normalise raw weights into a probability measure on ``grid``.

    Negative entries are clamped to zero (rounding noise from filtering is
    the expected source, at the -1e-15 scale); a nonpositive total after
    clamping raises :class:`NonPositiveMass`.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (grid.n,):
        raise DimensionMismatch(f"{w.shape} weights on a {grid.n}-point grid")
    if not np.isfinite(w).all():
        raise NonPositiveMass("weights must be finite")
    w = np.where(w < 0, 0.0, w)
    total = w.sum()
    if total <= 0:
        raise NonPositiveMass("total mass is not positive")
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
        if not (self.k > 0 and np.isfinite(self.k)):
            raise NonPositiveMass("weight slope k must be positive and finite")

    def values_on(self, grid: StateGrid) -> np.ndarray:
        return 1.0 + self.k * grid.distance_to(self.x0)

    def __call__(self, x: float, grid: StateGrid | None = None) -> float:
        if grid is None or grid.metric_kind == EUCLIDEAN_1D:
            return 1.0 + self.k * abs(x - self.x0)
        return float(self.values_on(grid)[grid.index_of(x)])


class LipschitzFn:
    """Grid-sampled test function with its certified Lipschitz constant.

    In 1-D mode off-grid evaluation is linear interpolation with constant
    extrapolation beyond the ends, which never increases the Lipschitz
    constant.  In the finite-metric modes only exact grid points can be
    evaluated.
    """

    __slots__ = ("grid", "values", "lip_const")

    def __init__(self, grid: StateGrid, values: Sequence[float]):
        self.grid = grid
        v = np.asarray(values, dtype=float)
        if v.shape != (grid.n,):
            raise DimensionMismatch(f"{v.shape} values on a {grid.n}-point grid")
        if not np.isfinite(v).all():
            raise DimensionMismatch("function values must be finite")
        self.values = v
        self.values.flags.writeable = False
        self.lip_const = float(lipschitz_constants(grid, v))

    def eval_at(self, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if self.grid.metric_kind == EUCLIDEAN_1D:
            return np.interp(xs, self.grid.points, self.values)
        # finite-metric grids may be unsorted, so match points exactly
        hits = np.isclose(xs[:, None], self.grid.points[None, :], rtol=0, atol=1e-12)
        if not hits.any(axis=1).all():
            raise DimensionMismatch("off-grid evaluation needs the 1-D metric")
        return self.values[np.argmax(hits, axis=1)]

    def __call__(self, x: float) -> float:
        return float(self.eval_at([x])[0])

    @classmethod
    def from_callable(cls, grid: StateGrid, fn: Callable[[float], float]) -> "LipschitzFn":
        return cls(grid, [fn(x) for x in grid.points])


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

def _support_atoms(mu: DiscreteMeasure):
    idx = mu.support
    return mu.grid.points[idx], mu.weights[idx], idx


def w1_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Closed-form W1 on the line: area between the two CDFs.

    The grids may differ as long as both are ``euclidean_1d``; the CDFs are
    compared over the merged support.
    """
    if mu.grid.metric_kind != EUCLIDEAN_1D or nu.grid.metric_kind != EUCLIDEAN_1D:
        raise MetricKindMismatch("w1_1d needs the 1-D euclidean metric")
    xs_m, wm, _ = _support_atoms(mu)
    xs_n, wn, _ = _support_atoms(nu)
    z = np.union1d(xs_m, xs_n)
    if len(z) == 1:
        return 0.0
    fm = np.cumsum(wm)[np.searchsorted(xs_m, z, side="right") - 1]
    fm = np.where(np.searchsorted(xs_m, z, side="right") == 0, 0.0, fm)
    fn = np.cumsum(wn)[np.searchsorted(xs_n, z, side="right") - 1]
    fn = np.where(np.searchsorted(xs_n, z, side="right") == 0, 0.0, fn)
    return float(np.dot(np.abs(fm - fn)[:-1], np.diff(z)))


def w1_lp(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """W1 via the transportation simplex over the support atoms.

    Works for every metric kind.  For the finite metrics both measures must
    live on the same grid; in 1-D mode cross-grid pairs are allowed because
    |x - y| is defined between arbitrary atoms.
    """
    if mu.grid.metric_kind != nu.grid.metric_kind:
        raise MetricKindMismatch(
            f"{mu.grid.metric_kind} vs {nu.grid.metric_kind}"
        )
    xs_m, wm, im = _support_atoms(mu)
    xs_n, wn, jn = _support_atoms(nu)
    if mu.grid.metric_kind == EUCLIDEAN_1D:
        cost = np.abs(xs_m[:, None] - xs_n[None, :])
    else:
        if not mu.grid.same_points(nu.grid):
            raise MetricKindMismatch("finite-metric measures must share a grid")
        cost = mu.grid.pairwise()[np.ix_(im, jn)]
    _, value = solve_transport(wm, wn, cost)
    return value


def w1(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Dispatcher: closed form on the line, transportation solver otherwise."""
    if mu.grid.metric_kind == EUCLIDEAN_1D and nu.grid.metric_kind == EUCLIDEAN_1D:
        return w1_1d(mu, nu)
    return w1_lp(mu, nu)


def kr_dual_gap(mu: DiscreteMeasure, nu: DiscreteMeasure, f: LipschitzFn) -> float:
    """``int f dmu - int f dnu`` for a 1-Lipschitz candidate.

    Raises :class:`NotOneLipschitz` when the certified constant exceeds
    1 + 1e-9.  By duality the result is a lower bound on W1(mu, nu).
    """
    if f.lip_const > 1.0 + _LIP_SLACK:
        raise NotOneLipschitz(f"lip const {f.lip_const:.12g} exceeds 1")
    return integrate(f, mu) - integrate(f, nu)


# --------------------------------------------------------------------------
# weighted norms and integrals
# --------------------------------------------------------------------------

def tilde_w(wf: WeightFunction, mu: DiscreteMeasure) -> float:
    """Lift of the state weight to belief space: int w dmu (always >= 1)."""
    return float(np.dot(wf.values_on(mu.grid), mu.weights))


def weighted_norm(
    values: Sequence[float],
    beliefs: Sequence[DiscreteMeasure],
    wf: WeightFunction,
) -> float:
    """sup_i |values_i| / tilde_w(beliefs_i) over a belief sample."""
    values = np.asarray(values, dtype=float)
    beliefs = list(beliefs)
    if len(beliefs) == 0:
        raise EmptySample("weighted norm over an empty belief sample")
    if values.shape != (len(beliefs),):
        raise DimensionMismatch("one value per belief required")
    denom = np.array([tilde_w(wf, b) for b in beliefs])
    return float(np.max(np.abs(values) / denom))


def integrate(f: LipschitzFn, mu: DiscreteMeasure) -> float:
    """``int f dmu``; cross-grid integration interpolates in 1-D mode."""
    if f.grid.same_points(mu.grid):
        return float(np.dot(f.values, mu.weights))
    if f.grid.metric_kind == EUCLIDEAN_1D and mu.grid.metric_kind == EUCLIDEAN_1D:
        xs, w, _ = _support_atoms(mu)
        return float(np.dot(f.eval_at(xs), w))
    raise DimensionMismatch("cross-grid integration needs the 1-D metric")

