"""Model container for discounted partially observed control problems.

A model bundles the state grid, a finite action set, a transition table
p(x'|x,a), an observation density q(y|x',a) sampled at fixed quadrature
nodes, a reward table r(x,a), the discount factor, and the weight function
whose lift defines the norm every certificate lives in.

The certification helpers compute the two constants the convergence theory
runs on: the reward envelope ``r_bar = max |r|/w`` and the weighted drift
``beta = max int w dP / w``.  Solvers refuse models whose product
``gamma = alpha * beta`` is not strictly below one.

Quadrature convention: the observation integral of any function ``v`` is
``sum_j phi_j * v(y_j)``.  At load time each q-row is renormalised so that
``sum_j phi_j q(y_j|x',a) = 1`` holds bit-exactly, provided the raw sum is
already within 1e-3 of one; larger deviations mean the node set does not
resolve the density and the model is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DriftViolation,
    ModelValidationError,
    NonFiniteReward,
)
from .measures import DiscreteMeasure, StateGrid, WeightFunction

__all__ = [
    "ObservationQuadrature",
    "PomdpModel",
    "CertifiedConstants",
    "validate_reward_bound",
    "estimate_drift_beta",
    "certify",
    "probe_q_tv_continuity",
    "TvProbeReport",
]

_TRANS_TOL = 1e-10
_QUAD_TOL = 1e-3


@dataclass(eq=False)
class ObservationQuadrature:
    """Observation nodes y_j and positive weights phi_j.

    The weights play the role of a reference measure on the observation
    space: integrals against the observation marginal become plain weighted
    sums over the nodes.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise DimensionMismatch("quadrature nodes/weights must be equal-length 1-D")
        if len(self.nodes) == 0:
            raise DimensionMismatch("quadrature needs at least one node")
        if not (np.isfinite(self.weights).all() and (self.weights > 0).all()):
            raise ModelValidationError("quadrature weights must be positive and finite")
        if not np.isfinite(self.nodes).all():
            raise ModelValidationError("quadrature nodes must be finite")

    @property
    def n(self) -> int:
        return len(self.nodes)


@dataclass(eq=False)
class PomdpModel:
    """Validated, immutable model.

    Array layouts (A = actions, n = states, J = quadrature nodes):

    * ``trans[a, x, x']``   transition probability, rows normalised,
    * ``obs_density[a, x', j]``  q(y_j | x', a), rows quadrature-normalised,
    * ``reward[a, x]``      two-sided bounded only through the weight.
    """

    state_grid: StateGrid
    actions: Sequence[str]
    obs_quadrature: ObservationQuadrature
    trans: np.ndarray
    obs_density: np.ndarray
    reward: np.ndarray
    discount: float
    weight: WeightFunction
    weight_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.state_grid.n
        a = len(self.actions)
        j = self.obs_quadrature.n
        if a == 0:
            raise DimensionMismatch("need at least one action")
        self.actions = tuple(str(lbl) for lbl in self.actions)
        self.trans = np.asarray(self.trans, dtype=float)
        self.obs_density = np.asarray(self.obs_density, dtype=float)
        self.reward = np.asarray(self.reward, dtype=float)
        if self.trans.shape != (a, n, n):
            raise DimensionMismatch(f"transition shape {self.trans.shape} != {(a, n, n)}")
        if self.obs_density.shape != (a, n, j):
            raise DimensionMismatch(
                f"observation density shape {self.obs_density.shape} != {(a, n, j)}"
            )
        if self.reward.shape != (a, n):
            raise DimensionMismatch(f"reward shape {self.reward.shape} != {(a, n)}")
        if not np.isfinite(self.reward).all():
            raise NonFiniteReward("reward table contains non-finite entries")
        if not (0.0 < self.discount < 1.0):
            raise ModelValidationError(f"discount {self.discount} outside (0,1)")

        if not np.isfinite(self.trans).all() or (self.trans < 0).any():
            raise ModelValidationError("transition entries must be finite and >= 0")
        row_sums = self.trans.sum(axis=2)
        if np.abs(row_sums - 1.0).max() > _TRANS_TOL:
            raise ModelValidationError(
                f"transition rows deviate from 1 by {np.abs(row_sums - 1.0).max():.3e}"
            )
        self.trans = self.trans / row_sums[:, :, None]

        if not np.isfinite(self.obs_density).all() or (self.obs_density < 0).any():
            raise ModelValidationError("observation density must be finite and >= 0")
        q_mass = self.obs_density @ self.obs_quadrature.weights  # (a, n)
        if np.abs(q_mass - 1.0).max() > _QUAD_TOL:
            raise ModelValidationError(
                "quadrature does not resolve the observation density: "
                f"max |sum phi_j q - 1| = {np.abs(q_mass - 1.0).max():.3e}"
            )
        self.obs_density = self.obs_density / q_mass[:, :, None]

        self.weight_values = self.weight.values_on(self.state_grid)
        for arr in (self.trans, self.obs_density, self.reward, self.weight_values):
            arr.flags.writeable = False

    @property
    def n_states(self) -> int:
        return self.state_grid.n

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @property
    def n_obs(self) -> int:
        return self.obs_quadrature.n

    def check_belief(self, mu: DiscreteMeasure) -> None:
        if not mu.grid.same_points(self.state_grid):
            raise DimensionMismatch("belief lives on a different grid than the model")


@dataclass(frozen=True)
class CertifiedConstants:
    """Constants backing every convergence certificate in the package."""

    r_bar: float
    beta: float
    gamma: float
    k: float

    @property
    def degenerate(self) -> bool:
        """True when the reward is identically zero (value function is 0)."""
        return self.r_bar == 0.0

    def apriori_bound(self, t: int) -> float:
        """Value-error certificate after t sweeps from the zero start."""
        return self.r_bar * self.gamma**t / (1.0 - self.gamma)

    def iterations_for(self, epsilon: float) -> int:
        """Smallest t >= 1 with apriori_bound(t) <= epsilon."""
        if epsilon <= 0:
            raise ModelValidationError("epsilon must be positive")
        if self.r_bar == 0.0:
            return 1
        t = int(np.ceil(np.log(epsilon * (1.0 - self.gamma) / self.r_bar)
                        / np.log(self.gamma)))
        return max(t, 1)

    def __str__(self) -> str:
        lines = [
            f"r_bar = {self.r_bar:.12g}",
            f"beta  = {self.beta:.12g}",
            f"gamma = {self.gamma:.12g}",
            f"k     = {self.k:.12g}",
        ]
        if self.degenerate:
            lines.append("note  : reward identically zero (degenerate model)")
        return "\n".join(lines)


def validate_reward_bound(model: PomdpModel) -> float:
    """Minimal reward envelope r_bar = max over (x,a) of |r(x,a)| / w(x)."""
    if not np.isfinite(model.reward).all():
        raise NonFiniteReward("reward table contains non-finite entries")
    return float((np.abs(model.reward) / model.weight_values[None, :]).max())


def estimate_drift_beta(model: PomdpModel) -> float:
    """Measured weighted drift beta_hat = max over (x,a) of int w dP / w(x).

    Raises :class:`DriftViolation` when beta_hat >= 1/alpha, in which case
    no geometric contraction certificate exists for this model.
    """
    ratios = (model.trans @ model.weight_values) / model.weight_values[None, :]
    beta_hat = float(ratios.max())
    if beta_hat >= 1.0 / model.discount:
        raise DriftViolation(
            f"drift {beta_hat:.6g} >= 1/alpha = {1.0 / model.discount:.6g}"
        )
    return beta_hat


def certify(model: PomdpModel) -> CertifiedConstants:
    """Full certificate; every solver entry point calls this first."""
    r_bar = validate_reward_bound(model)
    beta = estimate_drift_beta(model)
    return CertifiedConstants(
        r_bar=r_bar,
        beta=beta,
        gamma=model.discount * beta,
        k=model.weight.k,
    )


@dataclass(frozen=True)
class TvProbeReport:
    """Distances d(x, x') paired with total-variation gaps of q-rows."""

    distances: tuple[float, ...]
    tv_gaps: tuple[float, ...]

    def is_monotone_decreasing(self, tol: float = 0.0) -> bool:
        gaps = self.tv_gaps
        return all(gaps[i + 1] <= gaps[i] + tol for i in range(len(gaps) - 1))


def probe_q_tv_continuity(model: PomdpModel, x_pairs, a_pairs) -> TvProbeReport:
    """Quadrature total-variation gap of the observation density.

    For each probe ((x_i, a_i), (x_i', a_i')) computes
    ``0.5 * sum_j phi_j |q(y_j|x,a) - q(y_j|x',a')|`` together with
    d(x, x').  Diagnostic only: small TV gaps at small state distances are
    the numeric evidence for observation-kernel continuity.
    """
    x_pairs = list(x_pairs)
    a_pairs = list(a_pairs)
    if len(x_pairs) == 0 or len(x_pairs) != len(a_pairs):
        raise DimensionMismatch("need matching, nonempty probe pair lists")
    phi = model.obs_quadrature.weights
    dists, gaps = [], []
    for (i, i2), (a, a2) in zip(x_pairs, a_pairs):
        diff = model.obs_density[a, i] - model.obs_density[a2, i2]
        gaps.append(0.5 * float(np.dot(phi, np.abs(diff))))
        dists.append(float(model.state_grid.pairwise()[i, i2]))
    return TvProbeReport(tuple(dists), tuple(gaps))
