"""Belief-space reduction: expected reward, prediction, Bayes update.

The hidden-state problem is driven entirely through four maps on beliefs:

* ``expected_reward``  -- mean reward under the current belief,
* ``predict``          -- push the belief through the transition kernel,
* ``obs_marginal``     -- likelihood of each observation node under the
                          predicted belief (the observation marginal),
* ``bayes_update``     -- condition the predicted belief on one node.

``bayes_step`` is the one Bayes step behind ``bayes_update``: it conditions
a batch of prediction rows at once, which is how rollouts filter.
``possible_nodes`` is the one rule for which nodes a belief can produce:
the reachability tree expands, the VI precompute queries and
``sample_transition`` draws exactly the nodes it admits, and ``bayes_step``
refuses exactly the others.

Together they realise the belief recursion: observing node j after playing
action a moves belief mu to the normalised product of its prediction with
the j-th likelihood column.  The node marginals ``phi_j * lam_j`` are
exactly the mixture weights that glue the posteriors back into the
prediction, which is what the consistency tests exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroLikelihood
from .measures import DiscreteMeasure, make_measure
from .model import PomdpModel

__all__ = [
    "ObservationMarginal",
    "SampledTransition",
    "expected_reward",
    "predict",
    "obs_marginal",
    "possible_nodes",
    "bayes_step",
    "bayes_update",
    "sample_transition",
]

# posterior atoms below this (normalised) weight are dropped and the rest
# renormalised; keeps deep filtering supports tidy without moving W1 beyond
# rounding scale
POSTERIOR_PRUNE_TOL = 1e-15

# a node whose likelihood is at most this has no posterior
_ZERO_LIKELIHOOD_TOL = 1e-300


@dataclass(frozen=True)
class ObservationMarginal:
    """Per-node likelihoods lam_j of the predicted belief.

    ``node_probs`` (phi_j * lam_j) are the actual probabilities of the
    nodes; they sum to one because the density rows are quadrature
    normalised at model load.
    """

    lam: np.ndarray
    quad_weights: np.ndarray

    @property
    def node_probs(self) -> np.ndarray:
        return self.quad_weights * self.lam


@dataclass(frozen=True)
class SampledTransition:
    node_index: int
    node_value: float
    posterior: DiscreteMeasure


def expected_reward(model: PomdpModel, mu: DiscreteMeasure, a: int) -> float:
    model.check_belief(mu)
    return float(np.dot(model.reward[a], mu.weights))


def predict(model: PomdpModel, mu: DiscreteMeasure, a: int) -> DiscreteMeasure:
    """Belief pushed through the transition kernel of action ``a``."""
    model.check_belief(mu)
    return make_measure(model.state_grid, mu.weights @ model.trans[a])


def obs_marginal(model: PomdpModel, mu: DiscreteMeasure, a: int) -> ObservationMarginal:
    lam = predict(model, mu, a).weights @ model.obs_density[a]
    return ObservationMarginal(lam=lam, quad_weights=model.obs_quadrature.weights)


def possible_nodes(lam: np.ndarray) -> np.ndarray:
    """Mask of the observation nodes that can occur, given their likelihoods.

    True where ``lam`` exceeds ``_ZERO_LIKELIHOOD_TOL``: those nodes have a
    posterior, and :func:`bayes_step` refuses every other one.  A subnormal
    likelihood is not possible, although its node probability is positive.
    """
    return lam > _ZERO_LIKELIHOOD_TOL


def bayes_step(model: PomdpModel, pred_rows: np.ndarray, actions, nodes) -> np.ndarray:
    """Posterior weight rows of (prediction row, action, node) triples.

    Row i conditions ``pred_rows[i]``, a prediction under ``actions[i]`` (up
    to a positive factor), on quadrature node ``nodes[i]``: the product with
    the node's likelihood column is normalised, atoms below
    ``POSTERIOR_PRUNE_TOL`` are dropped and the rest renormalised.  Rows are
    independent, so a batched row has the bits of its own one-row call.
    Raises :class:`ZeroLikelihood` where :func:`possible_nodes` refuses a
    row's likelihood.
    """
    unnorm = pred_rows * model.obs_density[actions, :, nodes]
    lam = unnorm.sum(axis=1)
    bad = np.flatnonzero(~possible_nodes(lam))
    if len(bad):
        i = bad[0]
        raise ZeroLikelihood(
            f"node {nodes[i]} has marginal likelihood {lam[i]:.3e} under the prior"
        )
    post = unnorm / lam[:, None]
    post = np.where(post < POSTERIOR_PRUNE_TOL, 0.0, post)
    return post / post.sum(axis=1, keepdims=True)


def bayes_update(model: PomdpModel, mu: DiscreteMeasure, a: int, j: int) -> DiscreteMeasure:
    """Posterior after playing ``a`` and observing quadrature node ``j``."""
    if not 0 <= j < model.n_obs:
        raise IndexError(f"observation node {j} out of range")
    pred = predict(model, mu, a).weights
    # already a probability row: make_measure would normalise it twice
    post = DiscreteMeasure(model.state_grid, bayes_step(model, pred[None, :], [a], [j])[0])
    post.weights.flags.writeable = False
    return post


def sample_transition(
    model: PomdpModel, mu: DiscreteMeasure, a: int, rng_seed: int
) -> SampledTransition:
    """Draw a possible observation node with probability phi_j*lam_j and condition.

    Nodes :func:`possible_nodes` refuses get probability 0.  The per-call
    seed (no shared generator state) keeps parallel rollouts reproducible.
    """
    marg = obs_marginal(model, mu, a)
    probs = np.where(possible_nodes(marg.lam), marg.node_probs, 0.0)
    rng = np.random.default_rng(rng_seed)
    j = int(rng.choice(len(probs), p=probs / probs.sum()))
    return SampledTransition(
        node_index=j,
        node_value=float(model.obs_quadrature.nodes[j]),
        posterior=bayes_update(model, mu, a, j),
    )
