"""Controlled linear-Gaussian reference model on a truncated 1-D grid.

The running example: state drifts as x' = drift + gain(a) * x + noise,
observations are Gaussian around the state, and the reward -|x| is
unbounded in the state.  Everything the general machinery needs -- grid
transition rows, an observation quadrature, and a weight function
certifying the drift condition -- is derived here from the handful of
scalar parameters.

Truncating the line to a finite grid is what makes the model a
``PomdpModel``; the certificate constants are then established on the
truncated model itself, so the convergence guarantees hold verbatim for
what the code actually solves.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import DriftDerivationFailed, GridTooCoarse, ModelValidationError
from .measures import DiscreteMeasure, StateGrid, WeightFunction, make_measure
from .model import ObservationQuadrature, PomdpModel, _physical_memory, estimate_drift_beta

__all__ = [
    "KalmanSpec",
    "TvProbeReport",
    "build_model",
    "choose_weight",
    "tv_continuity_report",
    "reference_spec",
    "start_belief",
]

# raw transition-row mass may deviate from 1 by at most this much before
# renormalization; worse means the grid misses real probability mass
_ROW_MASS_TOL = 1e-2

# slack allowed between the measured drift factor and the chosen target
_DRIFT_SLACK = 1e-6

# observation-continuity probes: anchors x0, and separations halving from
# _TV_START_DELTA down to _TV_FLOOR
_TV_ANCHORS = (0.0, 1.0, -2.0)
_TV_START_DELTA = 0.5
_TV_FLOOR = 1e-3

# peak bytes of build_model plus save_model per (action, state, state or
# node) entry: the growth of peak RSS measured 97-108 bytes an entry at
# 321-1,281 states with 33 nodes, and 99-105 at 1,000-2,000 nodes
_BYTES_PER_ENTRY = 100

# the number each scalar spec field must hold, by annotation (finite, no bool)
_NUMBER_TYPES = {"float": numbers.Real, "int": numbers.Integral}


def _is_finite(v, kind) -> bool:
    """Whether ``v`` is a non-bool ``kind`` number that a float holds finitely."""
    try:
        return not isinstance(v, bool) and isinstance(v, kind) and math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True)
class KalmanSpec:
    """Scalar description of the linear-Gaussian control problem.

    ``gains`` is the per-action feedback coefficient table; its largest
    magnitude must stay strictly below one, which is what makes a
    sub-unit drift factor attainable at all.  Observations are centred on
    the state, and the reward is -|x| under every action.  Every field is
    data, so a ``--spec`` JSON file can set each one; another reward goes on
    the built model, ``dataclasses.replace(build_model(spec), reward=...)``.
    """

    drift: float = 0.0
    gains: tuple[float, ...] = (-0.5, 0.0, 0.5)
    process_std: float = 1.0
    obs_std: float = 0.5
    discount: float = 0.9
    grid_lo: float = -8.0
    grid_hi: float = 8.0
    grid_step: float = 0.1
    n_obs_nodes: int = 33
    obs_pad_stds: float = 5.0

    def __post_init__(self):
        for f in fields(self):
            v, kind = getattr(self, f.name), _NUMBER_TYPES.get(f.type)
            if kind and not _is_finite(v, kind):
                raise ModelValidationError(f"{f.name} must be a finite {f.type}, not {v!r}")
        if not all(_is_finite(g, numbers.Real) for g in self.gains):
            raise ModelValidationError(f"gains must all be finite floats, not {self.gains!r}")
        if len(self.gains) == 0:
            raise ModelValidationError("need at least one action gain")
        if self.feedback_sup >= 1.0:
            raise ModelValidationError(
                f"max |gain| = {self.feedback_sup} must be strictly below 1"
            )
        if self.process_std <= 0 or self.obs_std <= 0:
            raise ModelValidationError("noise scales must be positive")
        if not 0.0 < self.discount < 1.0:
            raise ModelValidationError("discount must lie in (0, 1)")
        if self.grid_lo >= self.grid_hi or self.grid_step <= 0:
            raise ModelValidationError("grid range must be increasing with step > 0")
        if self.n_obs_nodes < 2:
            raise ModelValidationError("need at least two observation nodes")
        if not math.isfinite((self.grid_hi - self.grid_lo) / self.grid_step):
            raise ModelValidationError(
                f"grid_step {self.grid_step!r} gives no finite state count on "
                f"[{self.grid_lo!r}, {self.grid_hi!r}]"
            )
        n = self.n_states
        need = _BYTES_PER_ENTRY * self.n_actions * n * (n + self.n_obs_nodes)
        have = _physical_memory()
        if have is not None and need > have:
            raise ModelValidationError(
                f"building and saving {n:,} states and {self.n_obs_nodes:,} nodes needs "
                f"about {need / 2**20:,.1f} MB; physical memory is {have / 2**20:,.1f} MB: "
                "use a coarser grid_step or fewer n_obs_nodes"
            )

    @property
    def feedback_sup(self) -> float:
        return max(abs(g) for g in self.gains)

    @property
    def n_actions(self) -> int:
        return len(self.gains)

    @property
    def n_states(self) -> int:
        return int(round((self.grid_hi - self.grid_lo) / self.grid_step)) + 1

    def state_points(self) -> np.ndarray:
        return np.linspace(self.grid_lo, self.grid_hi, self.n_states)

    def mean_after(self, x, a: int) -> np.ndarray:
        """Next-state mean drift + gain(a) * x, vectorised over x."""
        return self.drift + self.gains[a] * np.asarray(x, dtype=float)


def reference_spec(grid_step: float = 0.1) -> KalmanSpec:
    """The default desk-scale instance; only the resolution varies."""
    return KalmanSpec(grid_step=grid_step)


def start_belief(model: PomdpModel) -> DiscreteMeasure:
    """The N(0, 2^2) belief on the model's line grid, the one ``wpomdp example`` writes."""
    return make_measure(model.state_grid, np.exp(-0.5 * (model.state_grid.points / 2.0) ** 2))


def _gaussian_density(y: np.ndarray, mean: np.ndarray, std: float) -> np.ndarray:
    z = (y - mean) / std
    return np.exp(-0.5 * z * z) / (std * math.sqrt(2.0 * math.pi))


def _transition_rows(spec: KalmanSpec, points: np.ndarray) -> np.ndarray:
    """Raw midpoint-rule rows (A, n, n); caller checks and renormalizes."""
    rows = np.empty((spec.n_actions, len(points), len(points)))
    for a in range(spec.n_actions):
        means = spec.mean_after(points, a)
        rows[a] = _gaussian_density(points[None, :], means[:, None], spec.process_std)
    return rows * spec.grid_step


def _observations(spec: KalmanSpec, points: np.ndarray) -> tuple[ObservationQuadrature, np.ndarray]:
    """Quadrature and (n, n_obs) densities of observations centred on the state.

    Composite midpoint nodes over the state range padded by ``obs_pad_stds``
    deviations: uniform spacing keeps Gaussian mass errors orders of magnitude
    below the model-load tolerance, which clustered high-order nodes do not at
    this node count."""
    pad = spec.obs_pad_stds * spec.obs_std
    lo, hi, n = float(points.min()) - pad, float(points.max()) + pad, spec.n_obs_nodes
    h = (hi - lo) / n
    nodes = lo + h * (np.arange(n) + 0.5)
    quad = ObservationQuadrature(nodes, np.full(n, h))
    return quad, _gaussian_density(nodes[None, :], points[:, None], spec.obs_std)


def choose_weight(spec: KalmanSpec) -> tuple[float, float, float]:
    """Derive the weight slope from the drift inequality: (k, beta, K).

    The one-step mean-distance bound E|x'| <= sqrt(sigma^2 + mean^2) is
    dominated by beta_tilde * |x| + K with beta_tilde = (1 + max|gain|)/2
    and K the largest slack of that bound over the grid.
    Scaling the distance by k = (beta - 1) / K, with beta halfway into
    (1, 1/alpha) for alpha the spec's discount, turns this into the
    weighted-drift certificate the solver needs.  This is the closed form
    alone: :func:`build_model` checks beta on the model it returns.
    """
    points = spec.state_points()
    beta_tilde = 0.5 * (1.0 + spec.feedback_sup)
    slack = np.stack(
        [
            np.sqrt(spec.process_std**2 + spec.mean_after(points, a) ** 2)
            - beta_tilde * np.abs(points)
            for a in range(spec.n_actions)
        ]
    )
    big_k = float(slack.max())
    if big_k <= 0:
        raise DriftDerivationFailed("drift slack collapsed to zero on the grid")
    beta = 0.5 * (1.0 + 1.0 / spec.discount)
    k = (beta - 1.0) / big_k
    return k, beta, big_k


def build_model(spec: KalmanSpec) -> PomdpModel:
    """Discretize the Gaussian kernels onto the grid and certify the weight:
    :class:`DriftDerivationFailed` where the model's ``estimate_drift_beta``
    exceeds :func:`choose_weight`'s beta by more than ``_DRIFT_SLACK``."""
    points = spec.state_points()
    raw = _transition_rows(spec, points)
    mass_err = np.abs(raw.sum(axis=2) - 1.0)
    if mass_err.max() > _ROW_MASS_TOL:
        a, x = np.unravel_index(mass_err.argmax(), mass_err.shape)
        raise GridTooCoarse(
            f"transition row (action {a}, state {points[x]:.3f}) has "
            f"{mass_err.max():.2%} mass error before renormalization; "
            "widen the range or refine the step"
        )
    trans = raw / raw.sum(axis=2, keepdims=True)

    k, beta, _ = choose_weight(spec)

    quad, dens = _observations(spec, points)  # the same under every action
    obs = np.repeat(dens[None, :, :], spec.n_actions, axis=0)

    reward = np.tile(-np.abs(points), (spec.n_actions, 1))

    model = PomdpModel(
        state_grid=StateGrid(points),
        actions=tuple(f"gain={g:+g}" for g in spec.gains),
        obs_quadrature=quad,
        trans=trans,
        obs_density=obs,
        reward=reward,
        discount=spec.discount,
        weight=WeightFunction(x0=0.0, k=k),
    )
    measured = estimate_drift_beta(model)
    if measured > beta + _DRIFT_SLACK:
        raise DriftDerivationFailed(
            f"measured drift factor {measured:.8f} exceeds target {beta:.8f}; "
            "the grid likely truncates reachable mass"
        )
    return model


@dataclass(frozen=True)
class TvProbeReport:
    """Distances |x - x0| paired with total-variation gaps of q-rows."""

    distances: tuple[float, ...]
    tv_gaps: tuple[float, ...]

    def is_monotone_decreasing(self) -> bool:
        gaps = self.tv_gaps
        return all(gaps[i + 1] <= gaps[i] for i in range(len(gaps) - 1))


def tv_continuity_report(spec: KalmanSpec) -> tuple[TvProbeReport, ...]:
    """Observation-kernel continuity at state separations halving to 1e-3.

    For each anchor x0 in (0, 1, -2) a ladder of probe states x0 + delta,
    delta = 0.5 / 2^n, gets its own observation quadrature, and the
    quadrature total-variation gap ``0.5 * sum_j phi_j |q(y_j|x0+delta) -
    q(y_j|x0)|`` is recorded per rung, largest separation first, until
    delta is at most 1e-3.  The density rows are quadrature-normalised
    first, as at model load.  The Gaussian kernel makes the gaps shrink
    with delta; the reports carry the evidence.
    """
    n_rungs = int(math.ceil(math.log2(_TV_START_DELTA / _TV_FLOOR))) + 1
    deltas = _TV_START_DELTA / 2.0 ** np.arange(n_rungs)  # descending

    reports = []
    for x0 in _TV_ANCHORS:
        points = np.concatenate([[x0], x0 + deltas[::-1]])  # ascending
        quad, dens = _observations(spec, points)
        q = dens / (dens @ quad.weights)[:, None]
        rungs = range(n_rungs, 0, -1)
        reports.append(TvProbeReport(
            tuple(float(abs(points[i] - x0)) for i in rungs),
            tuple(0.5 * float(np.dot(quad.weights, np.abs(q[i] - q[0]))) for i in rungs),
        ))
    return tuple(reports)
