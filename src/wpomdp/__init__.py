"""Point-based solving of partially observed control problems on
Wasserstein belief spaces, with weighted-norm convergence certificates."""

from . import errors
from .measures import (
    DISCRETE,
    EUCLIDEAN_1D,
    EXPLICIT_TABLE,
    DiscreteMeasure,
    StateGrid,
    WeightFunction,
    dirac,
    make_measure,
    w1_lp,
)
from .model import (
    CertifiedConstants,
    ObservationQuadrature,
    PomdpModel,
    certify,
    estimate_drift_beta,
    validate_reward_bound,
)
from .filtering import (
    bayes_update,
    obs_marginal,
    predict,
    sample_transition,
)
from .sampling import BeliefSample, reachability_tree, user_sample, w1
from .value_iteration import (
    Selector,
    TabulatedValue,
    VIResult,
    rollout_estimate,
    selector_policy,
    solve_vi,
)
from .conjugate import (
    AlphaSet,
    conjugate_rho,
    eval_sup_table,
    normalize_null_level,
    prune,
    q_set_backup,
    second_conjugate,
    set_backup,
    solve_sets,
    zero_alpha_set,
)
from .kalman import KalmanSpec, build_model, choose_weight, reference_spec, tv_continuity_report
from .serialize import load_model, save_model

__version__ = "0.1.0"
