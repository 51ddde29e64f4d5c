"""Belief-MDP reduction: prediction, observation marginal, Bayes updates."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wpomdp.errors import ZeroLikelihood
from wpomdp.filtering import (
    POSTERIOR_PRUNE_TOL,
    SampledTransition,
    bayes_step,
    bayes_update,
    expected_reward,
    obs_marginal,
    possible_nodes,
    predict,
    sample_transition,
)
from wpomdp.measures import (
    DISCRETE,
    EXPLICIT_TABLE,
    StateGrid,
    WeightFunction,
    dirac,
    make_measure,
)
from wpomdp import sampling, value_iteration
from wpomdp.model import PomdpModel
from wpomdp.sampling import reachability_tree, user_sample
from wpomdp.synthetic import (
    finite_obs_quadrature,
    pbvi_toy,
    random_finite_model,
    revealing_toy,
    uniform_belief,
)


def line_model():
    """Two states {0, 1} on the line with r(x, a) = -|x|, identity kernel."""
    return PomdpModel(
        state_grid=StateGrid(np.array([0.0, 1.0])),
        actions=("hold",),
        obs_quadrature=finite_obs_quadrature(1),
        trans=np.eye(2)[None, :, :],
        obs_density=np.ones((1, 2, 1)),
        reward=np.array([[0.0, -1.0]]),
        discount=0.9,
        weight=WeightFunction(0.0, 1.0),
    )


class TestExpectedReward:
    def test_dirac_reads_the_table(self):
        m = pbvi_toy()
        for a in range(m.n_actions):
            for x in range(m.n_states):
                assert expected_reward(m, dirac(m.state_grid, x), a) == m.reward[a, x]

    def test_constant_reward(self):
        m = revealing_toy()
        flat = PomdpModel(
            state_grid=m.state_grid,
            actions=m.actions,
            obs_quadrature=m.obs_quadrature,
            trans=m.trans,
            obs_density=m.obs_density,
            reward=np.full((2, 2), 0.7),
            discount=m.discount,
            weight=m.weight,
        )
        assert_allclose(expected_reward(flat, uniform_belief(flat), 1), 0.7)

    def test_uniform_average_of_abs_reward(self):
        m = line_model()
        assert_allclose(expected_reward(m, uniform_belief(m), 0), -0.5)


class TestPredict:
    def test_identity_kernel_fixes_belief(self):
        m = line_model()
        mu = make_measure(m.state_grid, [0.3, 0.7])
        assert_allclose(predict(m, mu, 0).weights, mu.weights)

    def test_absorbing_kernel_maps_to_dirac(self):
        m = line_model()
        absorbing = PomdpModel(
            state_grid=m.state_grid,
            actions=m.actions,
            obs_quadrature=m.obs_quadrature,
            trans=np.array([[[1.0, 0.0], [1.0, 0.0]]]),
            obs_density=m.obs_density,
            reward=m.reward,
            discount=m.discount,
            weight=m.weight,
        )
        out = predict(absorbing, uniform_belief(absorbing), 0)
        assert_allclose(out.weights, [1.0, 0.0])

    def test_swap_kernel_reverses_weights(self):
        m = line_model()
        swap = PomdpModel(
            state_grid=m.state_grid,
            actions=m.actions,
            obs_quadrature=m.obs_quadrature,
            trans=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
            obs_density=m.obs_density,
            reward=m.reward,
            discount=m.discount,
            weight=m.weight,
        )
        mu = make_measure(m.state_grid, [0.2, 0.8])
        assert_allclose(predict(swap, mu, 0).weights, [0.8, 0.2])

    def test_affine_in_the_prior(self):
        m = random_finite_model(2)
        rng = np.random.default_rng(0)
        mu = make_measure(m.state_grid, rng.dirichlet(np.ones(m.n_states)))
        nu = make_measure(m.state_grid, rng.dirichlet(np.ones(m.n_states)))
        mix = make_measure(m.state_grid, 0.3 * mu.weights + 0.7 * nu.weights)
        for a in range(m.n_actions):
            assert_allclose(
                predict(m, mix, a).weights,
                0.3 * predict(m, mu, a).weights
                + 0.7 * predict(m, nu, a).weights,
                atol=1e-12,
            )


class TestObsMarginal:
    def test_state_independent_density(self):
        m = pbvi_toy()
        col = np.array([0.45, 0.55])
        flat_obs = PomdpModel(
            state_grid=m.state_grid,
            actions=m.actions,
            obs_quadrature=m.obs_quadrature,
            trans=m.trans,
            obs_density=np.broadcast_to(col, (2, 2, 2)).copy(),
            reward=m.reward,
            discount=m.discount,
            weight=m.weight,
        )
        marg = obs_marginal(flat_obs, uniform_belief(flat_obs), 0)
        assert_allclose(marg.lam, col)

    def test_deterministic_chain_reads_single_row(self):
        m = pbvi_toy()
        det = PomdpModel(
            state_grid=m.state_grid,
            actions=m.actions,
            obs_quadrature=m.obs_quadrature,
            trans=np.array([[[0.0, 1.0], [0.0, 1.0]], m.trans[1]]),
            obs_density=m.obs_density,
            reward=m.reward,
            discount=m.discount,
            weight=m.weight,
        )
        marg = obs_marginal(det, dirac(det.state_grid, 0), 0)
        assert_allclose(marg.lam, det.obs_density[0, 1])

    def test_uniform_belief_averages_columns(self):
        m = revealing_toy()
        mu = uniform_belief(m)
        pred = predict(m, mu, 0).weights
        marg = obs_marginal(m, mu, 0)
        assert_allclose(marg.lam, pred @ m.obs_density[0])

    def test_node_probs_sum_to_one(self):
        rng = np.random.default_rng(17)
        for seed in range(5):
            m = random_finite_model(seed)
            mu = make_measure(m.state_grid, rng.dirichlet(np.ones(m.n_states)))
            for a in range(m.n_actions):
                assert_allclose(obs_marginal(m, mu, a).node_probs.sum(), 1.0, atol=1e-9)


class TestBayesUpdate:
    def test_uninformative_observation_returns_prediction(self):
        m = line_model()  # single flat node
        mu = make_measure(m.state_grid, [0.25, 0.75])
        assert_allclose(bayes_update(m, mu, 0, 0).weights, mu.weights)

    def test_revealing_observation_returns_dirac(self):
        m = revealing_toy()
        post = bayes_update(m, uniform_belief(m), 0, 1)
        assert_allclose(post.weights, [0.0, 1.0])

    def test_three_to_one_likelihood_ratio(self):
        m = line_model()
        ratio = PomdpModel(
            state_grid=m.state_grid,
            actions=m.actions,
            obs_quadrature=finite_obs_quadrature(2),
            trans=m.trans,
            obs_density=np.array([[[0.75, 0.25], [0.25, 0.75]]]),
            reward=m.reward,
            discount=m.discount,
            weight=m.weight,
        )
        post = bayes_update(ratio, uniform_belief(ratio), 0, 0)
        assert_allclose(post.weights, [0.75, 0.25])

    def test_zero_likelihood_raises(self):
        m = line_model()
        dead_node = PomdpModel(
            state_grid=m.state_grid,
            actions=m.actions,
            obs_quadrature=finite_obs_quadrature(2),
            trans=m.trans,
            obs_density=np.array([[[1.0, 0.0], [1.0, 0.0]]]),
            reward=m.reward,
            discount=m.discount,
            weight=m.weight,
        )
        with pytest.raises(ZeroLikelihood):
            bayes_update(dead_node, uniform_belief(dead_node), 0, 1)

    def test_node_index_out_of_range(self):
        m = revealing_toy()
        with pytest.raises(IndexError):
            bayes_update(m, uniform_belief(m), 0, 5)


def sparse_model(kind, n, rng):
    """Two actions, three nodes; zeros in both kernels, atoms down to 1e-20.

    Node 0 is possible from every state, the others may not be, so some
    (belief, action, node) triples have zero likelihood.
    """
    if kind == "line":
        grid = StateGrid(np.cumsum(rng.uniform(0.1, 2.0, n)))
    elif kind == "discrete":
        grid = StateGrid(np.arange(float(n)), DISCRETE)
    else:
        grid = StateGrid(np.arange(float(n)), EXPLICIT_TABLE, 1.0 - np.eye(n))

    def kernel(shape):
        k = rng.dirichlet(np.ones(shape[-1]), shape[:-1]) * (rng.uniform(size=shape) < 0.6)
        k *= 10.0 ** -rng.integers(0, 20, shape)
        k[..., 0] += 1e-3
        return k / k.sum(axis=-1, keepdims=True)

    return PomdpModel(
        state_grid=grid,
        actions=("a", "b"),
        obs_quadrature=finite_obs_quadrature(3),
        trans=kernel((2, n, n)),
        obs_density=kernel((2, n, 3)),
        reward=np.zeros((2, n)),
        discount=0.9,
        weight=WeightFunction(0.0, 0.1),
    )


class TestBayesStep:
    """The one Bayes step: one-row calls are ``bayes_update``, batches are rows."""

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        st.sampled_from(["line", "discrete", "table"]),
        st.integers(1, 12),
        st.integers(1, 10),
        st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_bayes_update(self, kind, n, m, seed):
        rng = np.random.default_rng(seed)
        model = sparse_model(kind, n, rng)
        tiny = lambda: rng.dirichlet(np.ones(n)) * 10.0 ** -rng.integers(0, 20, n)
        mus = [make_measure(model.state_grid, tiny()) for _ in range(m)]
        acts, nodes = rng.integers(0, 2, m), rng.integers(0, 3, m)
        preds = np.stack([predict(model, mu, a).weights for mu, a in zip(mus, acts)])
        possible = np.array([(p * model.obs_density[a, :, j]).sum() > 0
                             for p, a, j in zip(preds, acts, nodes)])

        def one(i):
            return bayes_step(model, preds[i:i + 1], acts[i:i + 1], nodes[i:i + 1])[0]

        for i in np.flatnonzero(possible):
            got = bayes_update(model, mus[i], int(acts[i]), int(nodes[i])).weights
            # the arithmetic bayes_update has always used, written out
            post = preds[i] * model.obs_density[acts[i], :, nodes[i]]
            post = post / post.sum()
            want = make_measure(model.state_grid, np.where(post < POSTERIOR_PRUNE_TOL, 0.0, post))
            np.testing.assert_array_equal(got.view(np.int64), want.weights.view(np.int64))
            np.testing.assert_array_equal(one(i).view(np.int64), got.view(np.int64))
            assert ((got == 0.0) | (got >= POSTERIOR_PRUNE_TOL)).all()
        for i in np.flatnonzero(~possible):
            with pytest.raises(ZeroLikelihood):
                one(i)
            with pytest.raises(ZeroLikelihood):
                bayes_update(model, mus[i], int(acts[i]), int(nodes[i]))

        ok = np.flatnonzero(possible)
        batch = bayes_step(model, preds[ok], acts[ok], nodes[ok])
        for row, i in zip(batch, ok):
            np.testing.assert_array_equal(row.view(np.int64), one(i).view(np.int64))
        if not possible.all():
            with pytest.raises(ZeroLikelihood):
                bayes_step(model, preds, acts, nodes)


class TestOneLikelihoodRule:
    """The tree, the VI precompute and the Bayes step agree on which nodes exist.

    Each likelihood column has one of five scales.  A column scaled by at
    most 1e-310 gives likelihoods below 1e-300 at every belief, and one
    scaled by 1e-290 or more gives likelihoods above it, by many orders of
    magnitude more than the rounding in which the sites' sums differ.
    """

    SCALES = (0.0, 5e-321, 1e-310, 1e-290, 1.0)  # exactly 0, subnormal, ..., O(1)

    @staticmethod
    def model(kind, n, scales, rng):
        grid = (StateGrid(np.cumsum(rng.uniform(0.1, 2.0, n))) if kind == "line"
                else StateGrid(np.arange(float(n)), DISCRETE))
        A, J = scales.shape
        dens = scales[:, None, :] * rng.uniform(0.5, 1.0, (A, n, J))
        return PomdpModel(
            state_grid=grid,
            actions=tuple(f"a{i}" for i in range(A)),
            obs_quadrature=finite_obs_quadrature(J),
            trans=rng.dirichlet(np.ones(n), (A, n)),
            obs_density=dens / dens.sum(axis=2, keepdims=True),
            reward=np.zeros((A, n)),
            discount=0.9,
            weight=WeightFunction(0.0, 0.1),
        )

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(
        st.sampled_from(["line", "discrete"]),
        st.integers(1, 6),
        st.integers(1, 2),
        st.integers(1, 6),
        st.data(),
    )
    def test_every_site_reads_possible_nodes(self, kind, n, A, J, data):
        scales = np.array(data.draw(st.lists(st.sampled_from(self.SCALES),
                                             min_size=A * J, max_size=A * J))).reshape(A, J)
        for a in range(A):  # each density row needs an O(1) node to normalise
            scales[a, data.draw(st.integers(0, J - 1))] = 1.0
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = self.model(kind, n, scales, rng)
        mu0 = make_measure(m.state_grid, rng.dirichlet(np.ones(n)))
        want = scales >= 1e-290

        got = np.stack([possible_nodes(obs_marginal(m, mu0, a).lam) for a in range(A)])
        np.testing.assert_array_equal(got, want)

        with mock.patch.object(sampling, "bayes_update", wraps=bayes_update) as spy:
            reachability_tree(m, mu0, depth=1)
        assert sorted((c.args[2], c.args[3]) for c in spy.call_args_list) == (
            [tuple(aj) for aj in np.argwhere(want)]
        )

        for a in range(A):
            pred = predict(m, mu0, a).weights[None, :]
            for j in range(J):
                if want[a, j]:
                    bayes_step(m, pred, [a], [j])
                else:
                    with pytest.raises(ZeroLikelihood):
                        bayes_step(m, pred, [a], [j])

        query = value_iteration._nearest_in_sample
        with mock.patch.object(value_iteration, "_nearest_in_sample", wraps=query) as spy:
            pre = value_iteration._Precomputed(m, user_sample([mu0]), 1)
        queried = np.zeros_like(want)
        for a, c in enumerate(spy.call_args_list):
            b, j = c.args[4], c.args[5]
            assert (b == 0).all()
            queried[a, j] = True
        np.testing.assert_array_equal(queried, want)
        assert (pre.node_probs[0][~want] == 0.0).all()
        assert (pre.node_probs[0][want] > 0.0).all()


class TestReductionIdentities:
    """Joint-measure consistency of marginal and posterior."""

    def test_posterior_mixture_recovers_prediction(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            m = random_finite_model(seed)
            mu = make_measure(m.state_grid, rng.dirichlet(np.ones(m.n_states)))
            for a in range(m.n_actions):
                marg = obs_marginal(m, mu, a)
                mixed = sum(
                    p * bayes_update(m, mu, a, j).weights
                    for j, p in enumerate(marg.node_probs)
                )
                assert_allclose(mixed, predict(m, mu, a).weights, atol=1e-9)

    def test_cell_by_node_consistency(self):
        # For every state cell and node subset the two ways of computing the
        # joint mass (condition-then-mix vs integrate the density) agree.
        m = random_finite_model(3)
        rng = np.random.default_rng(11)
        mu = make_measure(m.state_grid, rng.dirichlet(np.ones(m.n_states)))
        phi = m.obs_quadrature.weights
        for a in range(m.n_actions):
            pred = predict(m, mu, a).weights
            marg = obs_marginal(m, mu, a)
            posts = [bayes_update(m, mu, a, j).weights for j in range(m.n_obs)]
            for subset in ([0], [1], [2], [0, 2], list(range(m.n_obs))):
                lhs = sum(marg.node_probs[j] * posts[j] for j in subset)
                rhs = pred * sum(phi[j] * m.obs_density[a, :, j] for j in subset)
                assert_allclose(lhs, rhs, atol=1e-9)

    def test_marginal_affine_in_prior(self):
        m = random_finite_model(4)
        rng = np.random.default_rng(13)
        mu = make_measure(m.state_grid, rng.dirichlet(np.ones(m.n_states)))
        nu = make_measure(m.state_grid, rng.dirichlet(np.ones(m.n_states)))
        mix = make_measure(m.state_grid, 0.6 * mu.weights + 0.4 * nu.weights)
        for a in range(m.n_actions):
            assert_allclose(
                obs_marginal(m, mix, a).lam,
                0.6 * obs_marginal(m, mu, a).lam + 0.4 * obs_marginal(m, nu, a).lam,
                atol=1e-12,
            )


class TestSampleTransition:
    def test_single_node_always_drawn(self):
        m = line_model()
        out = sample_transition(m, uniform_belief(m), 0, rng_seed=0)
        assert isinstance(out, SampledTransition)
        assert out.node_index == 0
        assert out.node_value == m.obs_quadrature.nodes[0]

    def test_fixed_seed_reproduces(self):
        m = pbvi_toy()
        mu = uniform_belief(m)
        a = sample_transition(m, mu, 1, rng_seed=123)
        b = sample_transition(m, mu, 1, rng_seed=123)
        assert a.node_index == b.node_index
        assert_allclose(a.posterior.weights, b.posterior.weights)

    def test_posterior_matches_bayes_update(self):
        m = pbvi_toy()
        mu = uniform_belief(m)
        out = sample_transition(m, mu, 0, rng_seed=99)
        assert_allclose(
            out.posterior.weights, bayes_update(m, mu, 0, out.node_index).weights
        )

    def test_empirical_node_frequencies(self):
        """10^5 seeded draws stay inside 3-sigma binomial bands."""
        m = pbvi_toy()
        mu = uniform_belief(m)
        probs = obs_marginal(m, mu, 0).node_probs
        n = 100_000
        counts = np.zeros(m.n_obs)
        for s in range(n):
            counts[sample_transition(m, mu, 0, rng_seed=s).node_index] += 1
        for j in range(m.n_obs):
            sigma = np.sqrt(probs[j] * (1 - probs[j]) / n)
            assert abs(counts[j] / n - probs[j]) < 3 * sigma
