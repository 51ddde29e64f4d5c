"""Bellman backups, the certified fixed-point solver, and rollouts."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import (
    backup_value_bruteforce,
    bellman_backup,
    bellman_backup_point,
    exact_sample_evaluator,
    finite_horizon_value_bruteforce,
    greedy_selector,
    mcshane_evaluator,
    table_lip_estimate_dense,
)
from wpomdp import sampling
from wpomdp.errors import DimensionMismatch, NonFiniteValue, SolverFailure
from wpomdp.filtering import POSTERIOR_PRUNE_TOL, bayes_update, expected_reward
from wpomdp.measures import (
    DISCRETE,
    EXPLICIT_TABLE,
    LipschitzFn,
    StateGrid,
    WeightFunction,
    make_measure,
    weighted_norm,
)
from wpomdp.model import PomdpModel, certify
from wpomdp.sampling import BeliefDistances, reachability_tree, user_sample
from wpomdp.synthetic import (
    absorbing_unit_reward_toy,
    finite_obs_quadrature,
    pbvi_toy,
    random_finite_model,
    revealing_toy,
    uniform_belief,
)
from wpomdp.value_iteration import (
    NearestAnchorPolicy,
    Selector,
    TabulatedValue,
    _separated_pairs,
    _table_lip_estimate,
    rollout_estimate,
    selector_policy,
    solve_vi,
)


def belief(model, p):
    return make_measure(model.state_grid, [p, 1.0 - p])


def zero_reward(model):
    return dataclasses.replace(model, reward=np.zeros_like(model.reward))


def toy_sample(model, ps=(1.0, 0.75, 0.5, 0.25, 0.0)):
    return user_sample([belief(model, p) for p in ps])


class TestTypes:
    def test_tabulated_value_checks(self):
        s = toy_sample(pbvi_toy(), ps=(0.5, 0.2))
        assert TabulatedValue.zeros(s).values.tolist() == [0.0, 0.0]
        with pytest.raises(DimensionMismatch):
            TabulatedValue(s, np.zeros(3))
        with pytest.raises(NonFiniteValue):
            TabulatedValue(s, np.array([0.0, np.nan]))

    def test_selector_lookup(self):
        s = toy_sample(pbvi_toy(), ps=(0.5, 0.2))
        sel = Selector(s, (1, 0))
        assert sel.action_at(0) == 1


class TestEvaluators:
    def test_exact_on_sample(self):
        s = toy_sample(pbvi_toy(), ps=(1.0, 0.0))
        ev = exact_sample_evaluator(TabulatedValue(s, np.array([2.0, -1.0])))
        assert ev(belief(pbvi_toy(), 1.0)) == 2.0
        assert ev(belief(pbvi_toy(), 0.0)) == -1.0

    def test_exact_off_sample_raises(self):
        s = toy_sample(pbvi_toy(), ps=(1.0, 0.0))
        ev = exact_sample_evaluator(TabulatedValue(s, np.zeros(2)))
        with pytest.raises(SolverFailure):
            ev(belief(pbvi_toy(), 0.5))

    def test_mcshane_reproduces_table_and_interpolates(self):
        # discrete metric: W1(delta_0, delta_1) = 1, lip estimate = 1, so
        # the midpoint value is max(0 - 1/2, 1 - 1/2) = 1/2
        m = pbvi_toy()
        s = toy_sample(m, ps=(1.0, 0.0))
        ev = mcshane_evaluator(TabulatedValue(s, np.array([0.0, 1.0])))
        assert ev(belief(m, 1.0)) == 0.0
        assert ev(belief(m, 0.0)) == 1.0
        assert_allclose(ev(belief(m, 0.5)), 0.5, atol=1e-12)

    def test_mcshane_flat_extension_with_zero_slope(self):
        m = pbvi_toy()
        s = toy_sample(m, ps=(1.0, 0.0))
        ev = mcshane_evaluator(TabulatedValue(s, np.array([0.0, 1.0])), lip_bound=0.0)
        assert ev(belief(m, 0.7)) == 1.0

    def test_mcshane_neighbor_restriction_is_a_lower_bound(self):
        m = pbvi_toy()
        s = toy_sample(m)
        vals = np.array([0.3, -0.2, 0.9, 0.1, 0.4])
        full = mcshane_evaluator(TabulatedValue(s, vals))
        near = mcshane_evaluator(TabulatedValue(s, vals), k_neighbors=2)
        for p in (0.9, 0.6, 0.1):
            assert near(belief(m, p)) <= full(belief(m, p)) + 1e-12


class TestBackupPoint:
    def test_zero_value_gives_expected_reward(self):
        m = pbvi_toy()
        for p in (1.0, 0.6, 0.0):
            for a in range(m.n_actions):
                got = bellman_backup_point(m, lambda mu: 0.0, belief(m, p), a)
                assert_allclose(got, expected_reward(m, belief(m, p), a), atol=1e-12)

    def test_constant_passes_through_marginal(self):
        m = zero_reward(pbvi_toy())
        got = bellman_backup_point(m, lambda mu: 3.0, belief(m, 0.4), 1)
        assert_allclose(got, m.discount * 3.0, atol=1e-12)

    def test_matches_bruteforce_enumeration(self):
        m = pbvi_toy()
        rng = np.random.default_rng(4)
        fn = lambda mu: float(np.dot([0.7, -1.3], mu.weights))
        raw = lambda w: float(np.dot([0.7, -1.3], w))
        for _ in range(20):
            p = rng.uniform()
            for a in range(m.n_actions):
                want = backup_value_bruteforce(
                    m.trans,
                    m.obs_density,
                    m.reward,
                    m.obs_quadrature.weights,
                    m.discount,
                    np.array([p, 1 - p]),
                    a,
                    raw,
                )
                got = bellman_backup_point(m, fn, belief(m, p), a)
                assert_allclose(got, want, atol=1e-12)

    def test_nonfinite_generalizer_rejected(self):
        m = pbvi_toy()
        with pytest.raises(NonFiniteValue):
            bellman_backup_point(m, lambda mu: float("nan"), belief(m, 0.5), 0)


class TestBackup:
    def test_single_action_reduces_to_point_backup(self):
        m = pbvi_toy()
        one = dataclasses.replace(
            m,
            actions=("only",),
            trans=m.trans[:1],
            obs_density=m.obs_density[:1],
            reward=m.reward[:1],
        )
        s = toy_sample(one)
        ev = lambda mu: float(mu.weights[0])
        out = bellman_backup(one, TabulatedValue.zeros(s), ev)
        want = [bellman_backup_point(one, ev, mu, 0) for mu in s.beliefs]
        assert_allclose(out.values, want, atol=1e-12)

    def test_dominated_action_never_chosen(self):
        m = pbvi_toy()
        worse = m.reward.copy()
        worse[1] = worse[0] - 1.0  # action 1: same kernels, strictly less reward
        dom = dataclasses.replace(
            m, trans=np.stack([m.trans[0]] * 2), obs_density=np.stack([m.obs_density[0]] * 2), reward=worse
        )
        s = toy_sample(dom)
        sel = greedy_selector(dom, TabulatedValue.zeros(s), lambda mu: 0.0)
        assert set(sel.actions) == {0}

    def test_three_sweeps_match_finite_horizon_tree(self):
        # the revealing model's sample is filtering-closed, so exact
        # sweeps from zero reproduce the t-stage values on every point
        m = revealing_toy()
        s = reachability_tree(m, uniform_belief(m), depth=2)
        table = TabulatedValue.zeros(s)
        for _ in range(3):
            table = bellman_backup(m, table, exact_sample_evaluator(table))
        want = [
            finite_horizon_value_bruteforce(
                m.trans,
                m.obs_density,
                m.reward,
                m.obs_quadrature.weights,
                m.discount,
                mu.weights,
                3,
            )
            for mu in s.beliefs
        ]
        assert_allclose(table.values, want, atol=1e-10)


class TestOperatorProperties:
    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
        st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    )
    def test_contraction_in_weighted_norm(self, xs, ys):
        m = revealing_toy()
        s = reachability_tree(m, uniform_belief(m), depth=1)
        phi = TabulatedValue(s, np.array(xs))
        psi = TabulatedValue(s, np.array(ys))
        t_phi = bellman_backup(m, phi, exact_sample_evaluator(phi))
        t_psi = bellman_backup(m, psi, exact_sample_evaluator(psi))
        gamma = certify(m).gamma
        before = weighted_norm(phi.values - psi.values, s.beliefs, m.weight)
        after = weighted_norm(t_phi.values - t_psi.values, s.beliefs, m.weight)
        assert after <= gamma * before + 1e-9

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(st.floats(-3, 3), min_size=3, max_size=3),
        st.lists(st.floats(0, 2), min_size=3, max_size=3),
    )
    def test_monotonicity(self, xs, bump):
        m = revealing_toy()
        s = reachability_tree(m, uniform_belief(m), depth=1)
        phi = TabulatedValue(s, np.array(xs))
        psi = TabulatedValue(s, np.array(xs) + np.array(bump))
        t_phi = bellman_backup(m, phi, exact_sample_evaluator(phi))
        t_psi = bellman_backup(m, psi, exact_sample_evaluator(psi))
        assert (t_phi.values <= t_psi.values + 1e-12).all()

    def test_convexity_preserved_for_envelope_inputs(self):
        # phi given as a sup of Lipschitz functions is convex in the
        # belief, and one backup keeps it that way at sample level
        m = pbvi_toy()
        fns = [
            LipschitzFn(m.state_grid, [1.0, -0.5]),
            LipschitzFn(m.state_grid, [-0.2, 0.8]),
        ]
        phi = lambda mu: max(float(np.dot(f.values, mu.weights)) for f in fns)
        backed = lambda mu: max(
            bellman_backup_point(m, phi, mu, a) for a in range(m.n_actions)
        )
        for p1, p2 in [(1.0, 0.0), (0.9, 0.3), (0.6, 0.2)]:
            for kappa in (0.25, 0.5, 0.75):
                mid = belief(m, kappa * p1 + (1 - kappa) * p2)
                combo = kappa * backed(belief(m, p1)) + (1 - kappa) * backed(belief(m, p2))
                assert backed(mid) <= combo + 1e-8


class TestFastOperatorMatchesReference:
    """t sweeps of ``solve_vi`` equal t sweeps of the per-belief oracle.

    With this in place the operator properties above, checked on the
    oracle, also vouch for the precomputed solver.
    """

    @pytest.mark.parametrize("t", range(1, 6))
    def test_exact_on_closed_tree(self, t):
        m = revealing_toy()
        s = reachability_tree(m, uniform_belief(m), depth=2)
        res = solve_vi(m, s, epsilon=1e-9, max_iters=t)
        table = TabulatedValue.zeros(s)
        for _ in range(t):
            ev = exact_sample_evaluator(table)
            sel = greedy_selector(m, table, ev)
            table = bellman_backup(m, table, ev)
        assert res.iterations == t
        assert res.lip_estimate == 0.0  # the closed sample takes the exact lookup
        assert_allclose(res.value.values, table.values, rtol=0, atol=1e-10)
        assert res.selector.actions == sel.actions

    @pytest.mark.parametrize("t", range(1, 6))
    def test_mcshane_on_open_tree(self, t):
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=2)
        res = solve_vi(m, s, epsilon=1e-9, max_iters=t)
        table = TabulatedValue.zeros(s)
        for i in range(t):
            # the slope of sweep i+1 is the estimate after sweep i
            slope = solve_vi(m, s, epsilon=1e-9, max_iters=i).lip_estimate
            ev = mcshane_evaluator(table, lip_bound=slope, k_neighbors=16)
            sel = greedy_selector(m, table, ev)
            table = bellman_backup(m, table, ev)
        assert res.iterations == t
        assert res.lip_estimate > 0.0
        assert_allclose(res.value.values, table.values, rtol=0, atol=1e-10)
        assert res.selector.actions == sel.actions


class TestTableLipEstimate:
    @settings(deadline=None, max_examples=50, derandomize=True)
    @given(st.integers(1, 12), st.booleans(), st.integers(0, 2**32 - 1))
    def test_separated_pairs_equal_the_dense_form(self, n, symmetric, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=n).round(1)  # repeated values: zero gaps
        d = rng.uniform(0.0, 2.0, (n, n))
        d[rng.uniform(size=(n, n)) < 0.2] = 0.0
        d[rng.uniform(size=(n, n)) < 0.1] = 5e-10  # not separated
        if symmetric:
            d = np.triu(d, 1) + np.triu(d, 1).T
        got = _table_lip_estimate(values, _separated_pairs(d))
        assert got == table_lip_estimate_dense(values, d)

    def test_equals_the_dense_form_on_a_solved_tree(self):
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=3)
        d = BeliefDistances(s.grid, s.weight_matrix()).pairwise()
        v = solve_vi(m, s, epsilon=1e-2).value.values
        got = _table_lip_estimate(v, _separated_pairs(d))
        assert got == table_lip_estimate_dense(v, d) > 0.0


class TestExplicitTableSolve:
    @staticmethod
    def models():
        """One finite model under the discrete metric and as a table."""
        m = random_finite_model(4, n_states=3, n_actions=2, n_obs=3)
        grid = StateGrid(np.arange(3.0), metric_kind=EXPLICIT_TABLE, distance_table=1 - np.eye(3))
        return m, dataclasses.replace(m, state_grid=grid)

    @staticmethod
    def sample(model, n):
        rng = np.random.default_rng(1)
        return user_sample(
            [make_measure(model.state_grid, w) for w in rng.dirichlet(np.ones(3), n)]
        )

    def test_lp_route_matches_the_embedding(self, monkeypatch):
        disc, tab = self.models()
        calls = []
        lp = sampling.w1_lp

        def counted(mu, nu):
            calls.append(1)
            return lp(mu, nu)

        monkeypatch.setattr(sampling, "w1_lp", counted)
        want = solve_vi(disc, self.sample(disc, 6), epsilon=1e-2)
        got = solve_vi(tab, self.sample(tab, 6), epsilon=1e-2)
        assert len(calls) == (6 * 2 * 3 + 6) * 6  # the up-front estimate is exact
        assert_allclose(got.value.values, want.value.values, rtol=0, atol=1e-9)
        assert got.selector.actions == want.selector.actions

    def test_zero_likelihood_node_on_a_table_grid(self):
        # node 1 is only ever emitted from state 0, which action 1 never
        # reaches: that node has no posterior and must not be queried
        trans = np.array([[[0.5, 0.5, 0.0]] * 3, [[0.0, 1.0, 0.0]] * 3])
        obs = np.array([[[0.5, 0.5], [1.0, 0.0], [1.0, 0.0]]] * 2)
        disc = PomdpModel(
            state_grid=StateGrid(np.arange(3.0), DISCRETE),
            actions=("a", "b"),
            obs_quadrature=finite_obs_quadrature(2),
            trans=trans,
            obs_density=obs,
            reward=np.array([[1.0, -0.5, 0.2], [0.3, 0.8, -1.0]]),
            discount=0.7,
            weight=WeightFunction(0.0, 0.3),
        )
        tab = dataclasses.replace(
            disc, state_grid=StateGrid(np.arange(3.0), EXPLICIT_TABLE, 1.0 - np.eye(3))
        )
        tree = reachability_tree(disc, uniform_belief(disc), depth=2)
        want = solve_vi(disc, tree, epsilon=1e-2)
        got = solve_vi(tab, user_sample(
            [make_measure(tab.state_grid, w) for w in tree.weight_matrix()]
        ), epsilon=1e-2)
        assert_allclose(got.value.values, want.value.values, rtol=0, atol=1e-9)
        assert got.selector.actions == want.selector.actions

    def test_oversized_sample_fails_before_any_lp(self, monkeypatch):
        _, tab = self.models()
        s = self.sample(tab, 200)

        def no_lp(mu, nu):
            raise AssertionError("a transport LP was solved")

        monkeypatch.setattr(sampling, "w1_lp", no_lp)
        with pytest.raises(SolverFailure, match="280,000 transport solves"):
            solve_vi(tab, s, epsilon=1e-2)


class TestSolveVi:
    def test_zero_reward_converges_immediately(self):
        m = zero_reward(pbvi_toy())
        res = solve_vi(m, toy_sample(m), epsilon=1e-3)
        assert res.iterations == 1
        assert res.converged
        assert res.error_bound == 0.0
        np.testing.assert_array_equal(res.value.values, np.zeros(5))
        assert set(res.selector.actions) == {0}  # ties -> lowest index

    def test_unit_reward_geometric_series(self):
        m = absorbing_unit_reward_toy()
        s = reachability_tree(m, uniform_belief(m), depth=2)
        res = solve_vi(m, s, epsilon=1e-4)
        assert res.converged
        target = 1.0 / (1.0 - m.discount)
        assert np.abs(res.value.values - target).max() <= res.error_bound + 1e-12

    def test_apriori_stopping_rule(self):
        m = revealing_toy()
        s = reachability_tree(m, uniform_belief(m), depth=1)
        eps = 1e-3
        res = solve_vi(m, s, epsilon=eps)
        c = res.constants
        assert res.iterations == c.iterations_for(eps)
        assert c.apriori_bound(res.iterations) <= eps
        assert c.apriori_bound(res.iterations - 1) > eps
        assert res.error_bound == c.apriori_bound(res.iterations)

    def test_final_sup_diff_below_bound(self):
        m = revealing_toy()
        s = reachability_tree(m, uniform_belief(m), depth=1)
        res = solve_vi(m, s, epsilon=1e-3)
        assert res.sup_diffs[-1] <= res.error_bound

    def test_max_iters_cuts_short_without_raising(self):
        m = revealing_toy()
        s = reachability_tree(m, uniform_belief(m), depth=1)
        res = solve_vi(m, s, epsilon=1e-6, max_iters=5)
        assert not res.converged
        assert res.iterations == 5

    def test_epsilon_must_be_positive(self):
        m = revealing_toy()
        s = reachability_tree(m, uniform_belief(m), depth=1)
        with pytest.raises(SolverFailure):
            solve_vi(m, s, epsilon=0.0)

    def test_auto_picks_exact_on_closed_sample(self):
        m = revealing_toy()
        s = reachability_tree(m, uniform_belief(m), depth=1)
        auto = solve_vi(m, s, epsilon=1e-3)
        table = TabulatedValue.zeros(s)
        for _ in range(auto.iterations):
            table = bellman_backup(m, table, exact_sample_evaluator(table))
        assert_allclose(auto.value.values, table.values, rtol=0, atol=1e-10)
        assert auto.lip_estimate == 0.0  # mcshane slope never engaged

    def test_zero_iterations_return_the_zero_start(self):
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=2)
        res = solve_vi(m, s, epsilon=1e-3, max_iters=0)
        assert res.iterations == 0 and not res.converged and res.sup_diffs == ()
        np.testing.assert_array_equal(res.value.values, np.zeros(s.n))
        greedy = (s.weight_matrix() @ m.reward.T).argmax(axis=1)
        assert res.selector.actions == tuple(int(a) for a in greedy)
        assert res.error_bound == res.constants.apriori_bound(0)

    def test_worker_count_does_not_change_bits(self):
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=3)
        one = solve_vi(m, s, epsilon=1e-2, parallel=1)
        two = solve_vi(m, s, epsilon=1e-2, parallel=2)
        np.testing.assert_array_equal(one.value.values, two.value.values)
        assert one.selector.actions == two.selector.actions


class TestRollout:
    def test_zero_reward_is_exactly_zero(self):
        m = zero_reward(pbvi_toy())
        mean, err = rollout_estimate(m, lambda mu: 0, uniform_belief(m), 5, 200, seed=1)
        assert mean == 0.0
        assert err == 0.0

    def test_one_step_expectation(self):
        m = pbvi_toy()
        mu0 = belief(m, 0.3)
        mean, err = rollout_estimate(m, lambda mu: 1, mu0, 0, 4000, seed=2)
        exact = expected_reward(m, mu0, 1)
        assert abs(mean - exact) <= 3 * err

    def test_seed_reproducibility(self):
        m = pbvi_toy()
        a = rollout_estimate(m, lambda mu: 0, uniform_belief(m), 4, 500, seed=9)
        b = rollout_estimate(m, lambda mu: 0, uniform_belief(m), 4, 500, seed=9)
        c = rollout_estimate(m, lambda mu: 0, uniform_belief(m), 4, 500, seed=10)
        assert a == b
        assert a != c

    def test_batched_and_scalar_policies_agree(self):
        m = pbvi_toy()

        class Const:
            def act_batch(self, rows):
                return np.ones(len(rows), dtype=np.int64)

        a = rollout_estimate(m, Const(), uniform_belief(m), 3, 800, seed=3)
        b = rollout_estimate(m, lambda mu: 1, uniform_belief(m), 3, 800, seed=3)
        assert a == b

    def test_optimal_selector_meets_value_with_tail_allowance(self):
        m = revealing_toy()
        s = reachability_tree(m, uniform_belief(m), depth=1)
        res = solve_vi(m, s, epsilon=1e-4)
        pol = selector_policy(res)
        horizon = 150  # tail r_bar * gamma^(T+1) / (1-gamma) ~ 1e-7
        c = res.constants
        tail = c.r_bar * c.gamma ** (horizon + 1) / (1.0 - c.gamma)
        mean, err = rollout_estimate(m, pol, uniform_belief(m), horizon, 10_000, seed=5)
        assert abs(mean - res.value.values[0]) <= 3 * err + tail + res.error_bound

    def test_policy_sees_bayes_updates(self):
        # identity dynamics and informative nodes: the belief concentrates
        # on the hidden state, so the other atoms fall below the prune level
        q = np.full((3, 3), 0.1) + 0.7 * np.eye(3)
        m = PomdpModel(
            state_grid=StateGrid(np.arange(3.0), DISCRETE),
            actions=("a", "b"),
            obs_quadrature=finite_obs_quadrature(3),
            trans=np.array([np.eye(3), [[0.9, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]),
            obs_density=np.array([q, q]),
            reward=np.array([[1.0, 0.0, -1.0], [0.5, 0.5, 0.5]]),
            discount=0.7,
            weight=WeightFunction(0.0, 0.3),
        )
        seen = []

        class Recording:
            def act_batch(self, rows):
                acts = (rows.argmax(axis=1) == 0).astype(np.int64)
                seen.append((rows.copy(), acts))
                return acts

        mu0 = make_measure(m.state_grid, [0.5, 0.3, 0.2])
        rollout_estimate(m, Recording(), mu0, 40, 8, seed=4)
        np.testing.assert_array_equal(seen[0][0], np.tile(mu0.weights, (8, 1)))
        for (prev, acts), (rows, _) in zip(seen, seen[1:]):
            for p, a, row in zip(prev, acts, rows):
                mu = make_measure(m.state_grid, p)
                gaps = [np.abs(bayes_update(m, mu, int(a), j).weights - row).max()
                        for j in range(m.n_obs)]
                assert min(gaps) <= 1e-12
        rows = np.concatenate([r for r, _ in seen])
        assert ((rows == 0.0) | (rows >= POSTERIOR_PRUNE_TOL)).all()
        assert (rows == 0.0).any()  # the prune did drop atoms

    def test_bad_arguments_rejected(self):
        m = pbvi_toy()
        with pytest.raises(DimensionMismatch):
            rollout_estimate(m, lambda mu: 0, uniform_belief(m), -1, 10)
        with pytest.raises(DimensionMismatch):
            rollout_estimate(m, lambda mu: 0, uniform_belief(m), 1, 0)


class TestAnchorPolicy:
    def test_copies_action_of_nearest_anchor(self):
        m = pbvi_toy()
        s = toy_sample(m, ps=(1.0, 0.0))
        pol = NearestAnchorPolicy(m.state_grid, s.weight_matrix(), [0, 1])
        assert pol(belief(m, 0.9)) == 0
        assert pol(belief(m, 0.1)) == 1

    def test_selector_roundtrip(self):
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=2)
        res = solve_vi(m, s, epsilon=1e-2)
        pol = selector_policy(res)
        for i, mu in enumerate(s.beliefs):
            assert pol(mu) == res.selector.actions[i]

    def test_action_count_must_match(self):
        m = pbvi_toy()
        s = toy_sample(m, ps=(1.0, 0.0))
        with pytest.raises(DimensionMismatch):
            NearestAnchorPolicy(m.state_grid, s.weight_matrix(), [0])
