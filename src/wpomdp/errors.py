"""Exception hierarchy shared across the package.

Everything derives from :class:`BeliefSpaceError` so callers (and the CLI,
which reports each as one ``error:`` line and exit code 1) can distinguish
our semantic failures from programming errors.  Model validation problems
share an intermediate base so that callers can catch them as one kind.
"""

from __future__ import annotations


class BeliefSpaceError(Exception):
    """Base class for all errors raised by this package."""


# --- measures / distances -------------------------------------------------

class DimensionMismatch(BeliefSpaceError):
    """Array lengths or grids do not line up."""


class MetricKindMismatch(BeliefSpaceError):
    """Operation requires measures living on compatible metric structures."""


class NonPositiveMass(BeliefSpaceError):
    """Weights sum to zero/negative, or an atom is significantly negative."""


class EmptySample(BeliefSpaceError):
    """A belief collection that must be nonempty is empty."""


class SolverFailure(BeliefSpaceError):
    """A refused solver setting (``max_iters``, ``epsilon``, ``parallel``,
    ``algorithm``, the q-set count), an exceeded LP or memory budget, a
    non-finite conjugate, or a transport solve that did not terminate (a bug)."""


# --- model construction / certification -----------------------------------

class ModelValidationError(BeliefSpaceError):
    """Base class for violations of model-level invariants."""


class NonFiniteReward(ModelValidationError):
    """Reward table contains NaN or infinities."""


class DriftViolation(ModelValidationError):
    """Weighted transition drift is incompatible with the discount factor."""


class GridTooCoarse(ModelValidationError):
    """Discretisation loses too much probability mass off the grid."""


class DriftDerivationFailed(ModelValidationError):
    """Closed-form weight constants do not certify the discretised model."""


# --- filtering / solving --------------------------------------------------

class ZeroLikelihood(BeliefSpaceError):
    """Conditioning on an observation node whose marginal likelihood is ~0."""


class NonFiniteValue(BeliefSpaceError):
    """A value iterate became NaN or infinite."""
