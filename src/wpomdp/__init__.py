"""Point-based solving of partially observed control problems on
Wasserstein belief spaces, with weighted-norm convergence certificates."""

from . import errors
from .measures import (
    DISCRETE,
    EUCLIDEAN_1D,
    EXPLICIT_TABLE,
    DiscreteMeasure,
    LipschitzFn,
    StateGrid,
    WeightFunction,
    dirac,
    integrate,
    kr_dual_gap,
    make_measure,
    tilde_w,
    w1,
    w1_1d,
    w1_lp,
    weighted_norm,
)
from .model import (
    CertifiedConstants,
    ObservationQuadrature,
    PomdpModel,
    certify,
    estimate_drift_beta,
    probe_q_tv_continuity,
    validate_reward_bound,
)
from .filtering import (
    ObservationMarginal,
    SampledTransition,
    bayes_update,
    expected_reward,
    obs_marginal,
    predict,
    sample_transition,
)
from .sampling import BeliefSample, reachability_tree, user_sample
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
    eval_sup,
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
