"""Model container validation and the contraction certificate."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from oracles import expected_reward, tilde_w
from wpomdp.errors import (
    DimensionMismatch,
    DriftViolation,
    ModelValidationError,
    NonFiniteReward,
)
from wpomdp.filtering import bayes_update, obs_marginal
from wpomdp.measures import StateGrid, WeightFunction, dirac, make_measure
from wpomdp.model import (
    CertifiedConstants,
    ObservationQuadrature,
    PomdpModel,
    certify,
    estimate_drift_beta,
    validate_reward_bound,
)
from wpomdp.synthetic import (
    absorbing_unit_reward_toy,
    finite_obs_quadrature,
    random_finite_model,
    revealing_toy,
    uniform_belief,
)


def tiny_model(**overrides):
    """Valid two-state 1-D model; keyword overrides poke at single fields."""
    fields = dict(
        state_grid=StateGrid(np.array([0.0, 1.0])),
        actions=("go",),
        obs_quadrature=finite_obs_quadrature(1),
        trans=np.array([[[1.0, 0.0], [1.0, 0.0]]]),
        obs_density=np.ones((1, 2, 1)),
        reward=np.array([[0.0, -1.0]]),
        discount=0.9,
        weight=WeightFunction(x0=0.0, k=1.0),
    )
    fields.update(overrides)
    return PomdpModel(**fields)


class TestQuadrature:
    def test_positive_weights_required(self):
        with pytest.raises(ModelValidationError):
            ObservationQuadrature(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_shape_must_match(self):
        with pytest.raises(DimensionMismatch):
            ObservationQuadrature(np.array([0.0, 1.0]), np.array([1.0]))


@pytest.mark.parametrize(
    "make, error, fragment",
    [
        (lambda: ObservationQuadrature([], []), DimensionMismatch, "at least one node"),
        (
            lambda: ObservationQuadrature([0.0, np.nan], [1.0, 1.0]),
            ModelValidationError,
            "nodes must be finite",
        ),
        (lambda: tiny_model(actions=()), DimensionMismatch, "at least one action"),
        (lambda: tiny_model(trans=np.full((1, 3, 3), 1 / 3)), DimensionMismatch, "transition"),
        (
            lambda: tiny_model(obs_density=np.array([[[-1.0], [1.0]]])),
            ModelValidationError,
            "observation density",
        ),
    ],
    ids=["quadrature-empty", "quadrature-nan", "no-actions", "trans-shape", "negative-density"],
)
def test_refuses_malformed_model(make, error, fragment):
    with pytest.raises(error, match=fragment):
        make()


class TestModelValidation:
    def test_valid_model_loads(self):
        m = tiny_model()
        assert m.n_states == 2 and m.n_actions == 1 and m.n_obs == 1

    def test_transition_rows_renormalized_exactly(self):
        # a 1e-11 wobble passes the 1e-10 gate and is scrubbed to exactly 1
        t = np.array([[[0.5 + 5e-12, 0.5], [1.0, 1e-11]]])
        m = tiny_model(trans=t)
        assert_allclose(m.trans.sum(axis=2), 1.0, atol=1e-15)

    def test_transition_row_tolerance_enforced(self):
        with pytest.raises(ModelValidationError):
            tiny_model(trans=np.array([[[0.6, 0.6], [1.0, 0.0]]]))

    def test_negative_transition_rejected(self):
        with pytest.raises(ModelValidationError):
            tiny_model(trans=np.array([[[1.1, -0.1], [1.0, 0.0]]]))

    def test_quadrature_mass_renormalized_exactly(self):
        m = tiny_model(obs_density=np.full((1, 2, 1), 1.0005))
        assert_allclose(m.obs_density @ m.obs_quadrature.weights, 1.0, atol=1e-15)

    def test_quadrature_mass_tolerance_enforced(self):
        with pytest.raises(ModelValidationError):
            tiny_model(obs_density=np.full((1, 2, 1), 1.01))

    def test_nonfinite_reward_rejected(self):
        with pytest.raises(NonFiniteReward):
            tiny_model(reward=np.array([[np.inf, 0.0]]))

    def test_discount_outside_unit_interval(self):
        for bad in (0.0, 1.0, 1.3):
            with pytest.raises(ModelValidationError):
                tiny_model(discount=bad)

    def test_shape_mismatches(self):
        with pytest.raises(DimensionMismatch):
            tiny_model(reward=np.zeros((1, 3)))
        with pytest.raises(DimensionMismatch):
            tiny_model(obs_density=np.ones((1, 2, 4)))

    def test_tables_frozen_after_load(self):
        m = tiny_model()
        with pytest.raises(ValueError):
            m.trans[0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            m.reward[0, 0] = 2.0

    def test_check_belief_rejects_foreign_grid(self):
        m = tiny_model()
        other = make_measure(StateGrid(np.array([0.0, 2.0])), [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            m.check_belief(other)


class TestRewardBound:
    def test_zero_reward_is_degenerate(self):
        m = tiny_model(reward=np.zeros((1, 2)))
        assert validate_reward_bound(m) == 0.0
        assert certify(m).degenerate

    def test_negative_abs_reward_on_line(self):
        # r(x,a) = -|x| against w(x) = 1 + |x|: the ratio |x|/(1+|x|)
        # grows along the grid, so the max sits at the far end
        g = StateGrid(np.array([0.0, 1.0, 3.0]))
        m = tiny_model(
            state_grid=g,
            trans=np.array([[[1, 0, 0], [1, 0, 0], [1, 0, 0]]], dtype=float),
            obs_density=np.ones((1, 3, 1)),
            reward=-np.abs(g.points)[None, :],
        )
        assert_allclose(validate_reward_bound(m), 3.0 / 4.0)

    def test_reward_equal_weight_gives_one(self):
        m = tiny_model(reward=np.array([[1.0, 2.0]]))  # w = (1, 2)
        assert_allclose(validate_reward_bound(m), 1.0)


class TestDriftBeta:
    def test_absorbing_at_anchor(self):
        assert_allclose(estimate_drift_beta(absorbing_unit_reward_toy()), 1.0)

    def test_identity_kernel(self):
        m = tiny_model(trans=np.array([[np.eye(2)[0], np.eye(2)[1]]]))
        assert_allclose(estimate_drift_beta(m), 1.0)

    def test_violation_raises(self):
        # all mass pushed away from the anchor: drift 1+k = 1.5 >= 1/0.8
        m = tiny_model(
            trans=np.array([[[0.0, 1.0], [0.0, 1.0]]]),
            weight=WeightFunction(0.0, 0.5),
            discount=0.8,
        )
        with pytest.raises(DriftViolation):
            estimate_drift_beta(m)

    def test_matches_direct_summation(self):
        m = random_finite_model(5)
        w = m.weight_values
        best = max(
            sum(w[x2] * m.trans[a, x, x2] for x2 in range(m.n_states)) / w[x]
            for a in range(m.n_actions)
            for x in range(m.n_states)
        )
        assert_allclose(estimate_drift_beta(m), best, atol=1e-12)


class TestCertify:
    def test_revealing_toy_constants(self):
        c = certify(revealing_toy())
        assert_allclose(c.beta, 1.2)
        assert_allclose(c.gamma, 0.9)
        assert c.k == 0.5

    def test_gamma_strictly_below_one(self):
        for seed in range(8):
            assert certify(random_finite_model(seed)).gamma < 1.0

    def test_apriori_bound_decreases_geometrically(self):
        c = CertifiedConstants(r_bar=2.0, beta=1.1, gamma=0.88, k=0.5)
        bounds = [c.apriori_bound(t) for t in range(1, 6)]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert_allclose(bounds[0], 2.0 * 0.88 / 0.12)

    def test_iterations_for_is_tight(self):
        c = CertifiedConstants(r_bar=1.5, beta=1.2, gamma=0.9, k=1.0)
        for eps in (0.5, 0.05, 1e-3):
            t = c.iterations_for(eps)
            assert c.apriori_bound(t) <= eps
            if t > 1:
                assert c.apriori_bound(t - 1) > eps

    def test_iterations_for_rejects_bad_epsilon(self):
        c = certify(revealing_toy())
        with pytest.raises(ModelValidationError):
            c.iterations_for(0.0)

    def test_degenerate_model_needs_one_sweep(self):
        c = CertifiedConstants(r_bar=0.0, beta=1.0, gamma=0.9, k=1.0)
        assert c.iterations_for(1e-9) == 1

    def test_str_lists_all_constants(self):
        text = str(certify(revealing_toy()))
        for token in ("r_bar", "beta", "gamma", "k"):
            assert token in text


def gaussian_obs_model():
    """1-D states, q(y|x) = N(x, 0.5^2) density on a midpoint node set."""
    sigma = 0.5
    pts = np.array([0.0, 0.125, 0.25, 0.5, 1.0])
    lo, hi = pts.min() - 5 * sigma, pts.max() + 5 * sigma
    n_nodes = 64
    h = (hi - lo) / n_nodes
    nodes = lo + h * (np.arange(n_nodes) + 0.5)
    dens = np.exp(-0.5 * ((nodes[None, :] - pts[:, None]) / sigma) ** 2)
    dens /= sigma * np.sqrt(2 * np.pi)
    return PomdpModel(
        state_grid=StateGrid(pts),
        actions=("a",),
        obs_quadrature=ObservationQuadrature(nodes, np.full(n_nodes, h)),
        trans=np.eye(5)[None, :, :],
        obs_density=dens[None, :, :],
        reward=np.zeros((1, 5)),
        discount=0.9,
        weight=WeightFunction(0.0, 1.0),
    )


class TestTvProbe:
    def test_gaussian_shift_sequence(self):
        """TV between N(0,s^2) and N(d,s^2) is erf(d / (2 s sqrt(2)))."""
        m = gaussian_obs_model()
        i0 = m.state_grid.index_of(0.0)
        rungs = [oracles.q_tv_gap(m, m.state_grid.index_of(d), i0) for d in (0.5, 0.25, 0.125)]
        dists, gaps = zip(*rungs)
        assert dists == (0.5, 0.25, 0.125)
        assert gaps[0] > gaps[1] > gaps[2]
        for d, gap in rungs:
            assert_allclose(gap, math.erf(d / (2 * 0.5 * math.sqrt(2))), atol=1e-3)


class TestWeightSurrogates:
    """Reward / drift bounds lifted from states to randomized beliefs."""

    def test_expected_reward_bounded_by_rbar_tilde_w(self):
        rng = np.random.default_rng(41)
        for seed in range(4):
            m = random_finite_model(seed)
            c = certify(m)
            for _ in range(20):
                mu = make_measure(m.state_grid, rng.dirichlet(np.ones(m.n_states)))
                for a in range(m.n_actions):
                    assert abs(expected_reward(m, mu, a)) <= (
                        c.r_bar * tilde_w(m.weight, mu) + 1e-12
                    )

    def test_belief_drift_bounded_by_beta(self):
        rng = np.random.default_rng(43)
        for seed in range(4):
            m = random_finite_model(seed)
            c = certify(m)
            for _ in range(10):
                mu = make_measure(m.state_grid, rng.dirichlet(np.ones(m.n_states)))
                for a in range(m.n_actions):
                    probs = m.obs_quadrature.weights * obs_marginal(m, mu, a)
                    lifted = sum(
                        p * tilde_w(m.weight, bayes_update(m, mu, a, j))
                        for j, p in enumerate(probs)
                        if p > 0
                    )
                    assert lifted <= c.beta * tilde_w(m.weight, mu) + 1e-9


class TestSyntheticFactories:
    def test_all_toys_certify(self):
        for m in (revealing_toy(), absorbing_unit_reward_toy()):
            assert certify(m).gamma < 1.0

    def test_random_model_rejects_impossible_constants(self):
        with pytest.raises(ValueError):
            random_finite_model(0, alpha=0.9, k=0.5)

    def test_uniform_belief(self):
        m = revealing_toy()
        assert_allclose(uniform_belief(m).weights, [0.5, 0.5])
