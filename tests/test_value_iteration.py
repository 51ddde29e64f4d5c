"""Bellman backups, the certified fixed-point solver, and rollouts."""

import dataclasses
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import (
    backup_value_bruteforce,
    bellman_backup,
    bellman_backup_point,
    dense_dists,
    exact_sample_evaluator,
    expected_reward,
    finite_horizon_value_bruteforce,
    greedy_selector,
    mcshane_broadcast,
    mcshane_evaluator,
    posterior_knn_bruteforce,
    solve_vi_broadcast,
    table_lip_estimate_dense,
    weighted_norm,
)
from wpomdp import sampling, value_iteration
from wpomdp.errors import DimensionMismatch, NonFiniteValue, SolverFailure
from wpomdp.filtering import POSTERIOR_PRUNE_TOL, bayes_update, obs_marginal, possible_nodes
from wpomdp.kalman import KalmanSpec, build_model, reference_spec, start_belief
from wpomdp.measures import (
    DISCRETE,
    EUCLIDEAN_1D,
    EXPLICIT_TABLE,
    StateGrid,
    WeightFunction,
    make_measure,
)
from wpomdp.model import PomdpModel, certify
from wpomdp.sampling import (
    _KNN_CHUNK,
    BeliefDistances,
    check_lp_budget,
    reachability_tree,
    user_sample,
)
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
    _K_NEIGHBORS,
    _mcshane,
    _pool,
    _precompute_bytes,
    _Precomputed,
    _row_blocks,
    _slope_parts,
    _table_lip_estimate,
    rollout_estimate,
    selector_policy,
    solve_vi,
)


def precompute(model, sample, parallel):
    """``_Precomputed`` on the pool ``solve_vi`` opens for ``parallel``."""
    with _pool(parallel) as pool:
        return _Precomputed(model, sample, parallel, pool)


def belief(model, p):
    return make_measure(model.state_grid, [p, 1.0 - p])


def zero_reward(model):
    return dataclasses.replace(model, reward=np.zeros_like(model.reward))


def toy_sample(model, ps=(1.0, 0.75, 0.5, 0.25, 0.0)):
    return user_sample([belief(model, p) for p in ps])


class Constant:
    """Rollout policy that takes one action at every belief."""

    def __init__(self, action):
        self.action = action

    def act_batch(self, rows):
        return np.full(len(rows), self.action, dtype=np.int64)


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
        fns = [np.array([1.0, -0.5]), np.array([-0.2, 0.8])]
        phi = lambda mu: max(float(np.dot(f, mu.weights)) for f in fns)
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
        got = _table_lip_estimate(values, _slope_parts(lambda r, c: d[r, c].copy(), n, 1)[0])
        assert got == table_lip_estimate_dense(values, d)

    def test_equals_the_dense_form_on_a_solved_tree(self):
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=3)
        geom = BeliefDistances(s.grid, s.weight_matrix())
        d = dense_dists(geom, s.weight_matrix())
        v = solve_vi(m, s, epsilon=1e-2).value.values
        got = _table_lip_estimate(v, _slope_parts(geom.block, s.n, 1)[0])
        assert got == table_lip_estimate_dense(v, d) > 0.0

    @pytest.mark.parametrize("rows", ["one", "few", "default"])
    @pytest.mark.parametrize("name", ["line", "discrete"])
    def test_one_orientation_blocks_on_a_solved_tree(self, name, rows):
        # embedded metrics build each block from D[s:e, s:] alone
        m, s = drift_tree() if name == "line" else TestPrecompute.case("discrete")
        W = s.weight_matrix()
        geom = BeliefDistances(s.grid, W)
        res = solve_vi(m, s, epsilon=1e-2)
        nbytes = {"one": 1, "few": 8 * 3 * s.n, "default": value_iteration._SLOPE_BLOCK_BYTES}
        with mock.patch.object(value_iteration, "_SLOPE_BLOCK_BYTES", nbytes[rows]):
            one = _slope_parts(geom.block, s.n, 1)[0]
        v = res.value.values
        want = table_lip_estimate_dense(v, dense_dists(geom, W))
        assert want > 0.0
        assert np.float64(_table_lip_estimate(v, one)).tobytes() == np.float64(want).tobytes()
        # the solve's slope: the dense estimate's running max over every sweep
        lip = solve_vi_broadcast(m, s, 1e-2, _K_NEIGHBORS)[2]
        assert np.float64(res.lip_estimate).tobytes() == np.float64(lip).tobytes()

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(st.integers(1, 40), st.sampled_from(["one", "few", "all"]), st.integers(0, 2**32 - 1))
    def test_row_blocks_equal_the_dense_form(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=n).round(1)
        d = rng.uniform(0.0, 2.0, (n, n))
        d[rng.uniform(size=(n, n)) < 0.2] = 0.0
        d[rng.uniform(size=(n, n)) < 0.1] = 5e-10  # not separated
        d[rng.uniform(size=(n, n)) < 0.1] = 2e-9  # barely separated
        if rows != "all":  # as on the embedded metrics, the only ones that split
            d = np.triu(d, 1) + np.triu(d, 1).T
        # 1 row per block, 3 rows in the first block, or one block
        nbytes = {"one": 1, "few": 8 * 3 * n, "all": 8 * n * n}[rows]
        with mock.patch.object(value_iteration, "_SLOPE_BLOCK_BYTES", nbytes):
            blocks = _slope_parts(lambda r, c: d[r, c].copy(), n, 1)[0]
        covered = 0
        for start, block in blocks:  # consecutive rows, each block to the last column
            assert start == covered and block.shape[1] == n - start
            covered += len(block)
        assert covered == n
        if rows == "one":
            assert len(blocks) == n
        if rows == "all":
            assert len(blocks) == 1
        got = _table_lip_estimate(values, blocks)
        assert np.float64(got).tobytes() == np.float64(table_lip_estimate_dense(values, d)).tobytes()

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(st.integers(1, 4), st.integers(1, 40), st.sampled_from(["one", "few", "all"]),
           st.integers(0, 2**32 - 1))
    def test_parts_deal_out_every_row_of_every_block(self, parts, n, rows, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=n).round(1)
        d = rng.uniform(0.0, 2.0, (n, n))
        d[rng.uniform(size=(n, n)) < 0.2] = 0.0
        if rows != "all":  # as on the embedded metrics, the only ones that split
            d = np.triu(d, 1) + np.triu(d, 1).T
        nbytes = {"one": 1, "few": 8 * 3 * n, "all": 8 * n * n}[rows]
        with mock.patch.object(value_iteration, "_SLOPE_BLOCK_BYTES", nbytes):
            whole = _slope_parts(lambda r, c: d[r, c].copy(), n, 1)[0]
            dealt = _slope_parts(lambda r, c: d[r, c].copy(), n, parts)
        assert 1 <= len(dealt) <= parts and all(dealt)  # no part is empty
        runs = sorted((run for part in dealt for run in part), key=lambda run: run[0])
        at = 0
        for start, block in whole:  # each block's runs: consecutive, disjoint, covering
            covered = start
            while covered < start + len(block):
                r, x = runs[at]
                assert r == covered and x.shape == (len(x), n - r)
                assert x.tobytes() == block[r - start:r - start + len(x), r - start:].tobytes()
                covered += len(x)
                at += 1
            assert covered == start + len(block)
        assert at == len(runs)
        got = max(_table_lip_estimate(values, part) for part in dealt)
        assert np.float64(got).tobytes() == np.float64(table_lip_estimate_dense(values, d)).tobytes()

    def test_an_explicit_table_sample_is_one_block(self):
        # only a one-block sample sees both orientations of every pair, and
        # an explicit table's blocks need not be symmetric: the LP budget
        # (A = J = 1 admits the most beliefs) must stay below the first split
        grid = StateGrid(np.arange(16.0), EXPLICIT_TABLE, 1.0 - np.eye(16))

        def admitted(B):
            try:
                check_lp_budget(grid, (B * 1 * 1 + B) * B)
            except SolverFailure:
                return False
            return True

        B = max(b for b in range(1, 2000) if admitted(b))
        assert list(_row_blocks(B)) == [(0, B)]


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

    @staticmethod
    def zero_node_models():
        """A model with a zero-likelihood node, discrete and as a table.

        Node 1 is only ever emitted from state 0, which action 1 never
        reaches: that node has no posterior and must not be queried.
        """
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
        tab_tree = user_sample([make_measure(tab.state_grid, w) for w in tree.weight_matrix()])
        return (disc, tree), (tab, tab_tree)

    def test_zero_likelihood_node_on_a_table_grid(self):
        (disc, tree), (tab, tab_tree) = self.zero_node_models()
        want = solve_vi(disc, tree, epsilon=1e-2)
        got = solve_vi(tab, tab_tree, epsilon=1e-2)
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

    def test_slope_blocks_have_the_bits_of_dists(self, monkeypatch):
        _, tab = self.models()
        s = self.sample(tab, 7)
        calls = []
        lp = sampling.w1_lp

        def counted(mu, nu):
            calls.append(1)
            return lp(mu, nu)

        monkeypatch.setattr(sampling, "w1_lp", counted)
        pre = precompute(tab, s, 1)
        B, A, J = pre.node_probs.shape
        assert len(calls) == (B * A * J + B) * B  # each ordered pair solved once
        assert [start for start, _ in pre.slopes[0]] == [0]  # one block: both orientations

        W = s.weight_matrix()
        geom = BeliefDistances(s.grid, W)
        d = dense_dists(geom, W)
        assert geom.block(slice(2, 4), slice(1, None)).tobytes() == d[2:4, 1:].tobytes()
        assert geom.block(slice(4, None), slice(0, 3)).tobytes() == d[4:, :3].tobytes()
        sep = np.where(d > 1e-9, d, np.inf)
        want = np.minimum(sep, sep.T)
        want[np.tri(B, dtype=bool)] = np.inf
        for start, block in pre.slopes[0]:
            assert block.tobytes() == want[start:start + len(block), start:].tobytes()

    def test_budget_error_prices_solves_by_the_state_count(self, monkeypatch):
        m = random_finite_model(2, n_states=81, n_actions=1, n_obs=2)
        grid = StateGrid(np.arange(81.0), EXPLICIT_TABLE, 1.0 - np.eye(81))
        tab = dataclasses.replace(m, state_grid=grid)
        rng = np.random.default_rng(3)
        s = user_sample([make_measure(grid, w) for w in rng.dirichlet(np.ones(81), 200)])

        def no_lp(mu, nu):
            raise AssertionError("a transport LP was solved")

        monkeypatch.setattr(sampling, "w1_lp", no_lp)
        with pytest.raises(SolverFailure, match="120,000 transport solves") as err:
            solve_vi(tab, s, epsilon=1e-2)
        # one solve on 81 states took a median of 8.7 to 11.9 ms; the
        # estimate prices it at 0.46 ms * (81 / 16)^2 = 11.8 ms
        assert float(re.search(r"at ([\d.]+) ms each", str(err.value)).group(1)) >= 10.0

    def test_tree_stops_at_the_lp_budget(self, monkeypatch):
        _, tab = self.models()
        mu0 = uniform_belief(tab)
        calls = []
        lp = sampling.w1_lp

        def counted(mu, nu):
            calls.append(1)
            return lp(mu, nu)

        monkeypatch.setattr(sampling, "w1_lp", counted)
        full = reachability_tree(tab, mu0, depth=2)
        need = len(calls)
        monkeypatch.setattr(sampling, "MAX_TABLE_LP_SOLVES", need)
        at_budget = reachability_tree(tab, mu0, depth=2)
        assert at_budget.weight_matrix().tobytes() == full.weight_matrix().tobytes()
        assert len(calls) == 2 * need  # counting never changes what is solved

        calls.clear()
        monkeypatch.setattr(sampling, "MAX_TABLE_LP_SOLVES", need - 1)
        with pytest.raises(SolverFailure, match=f"needs {need:,} transport solves"):
            reachability_tree(tab, mu0, depth=2)
        assert len(calls) <= need - 1  # refused before the budget is passed


def centred_tree(model, cap):
    """Depth-2 tree from an N(0, 2^2) belief on a line grid."""
    return reachability_tree(model, start_belief(model), depth=2, cap=cap)


def drift_tree():
    """A small tree on the drift instance (81 states), whose sample is open."""
    m = build_model(KalmanSpec(drift=1.0, grid_step=0.2))
    return m, centred_tree(m, 60)


def dirichlet_sample():
    """300 beliefs on 40 discrete states, so far apart that the block
    bound of the k-NN prunes almost no (query, kept) pair."""
    m = random_finite_model(5, n_states=40)
    rng = np.random.default_rng(0)
    return m, user_sample([make_measure(m.state_grid, w) for w in rng.dirichlet(np.ones(40), 300)])


def lattice_tree():
    """A cap-10 tree on a 4 x 4 lattice under the Manhattan table metric."""
    cells = np.array([(i, j) for i in range(4) for j in range(4)], dtype=float)
    table = np.abs(cells[:, None, :] - cells[None, :, :]).sum(axis=2)
    m = random_finite_model(6, n_states=16, n_actions=2, n_obs=2)
    m = dataclasses.replace(m, state_grid=StateGrid(np.arange(16.0), EXPLICIT_TABLE, table))
    return m, reachability_tree(m, uniform_belief(m), depth=2, cap=10)


def k_major(a):
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


class TestSweepKernel:
    """The K-major McShane kernel against the broadcast formula."""

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(
        st.integers(1, 6),
        st.sampled_from([(1, 1, 1), (2, 3, 4), (3, 1, 5), (7, 3, 33)]),
        st.sampled_from([1, 2, 5, 16, 17]),
        st.sampled_from([0.0, 0.5, 1.0, 3.25]),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_the_broadcast_formula(self, n, shape, k, lip, seed):
        rng = np.random.default_rng(seed)
        # few distinct entries: repeated indices, equal and zero distances,
        # negative values, and +0.0 next to -0.0
        v = rng.choice([0.0, -0.0, -1.5, 2.0, 0.25, -0.25], size=n)
        idx = rng.integers(0, n, size=shape + (k,))
        dist = rng.choice([0.0, 0.5, 1.0, 2.0], size=shape + (k,))
        want = mcshane_broadcast(v, lip, idx, dist, closed=False)
        out, tmp, scaled = np.empty((3,) + shape)
        _mcshane(v, lip, k_major(idx), k_major(dist), out, tmp, scaled)
        # Equal floats other than zero have equal bits.  Where +0.0 and
        # -0.0 tie for the max, numpy's vectorised reduction over the
        # trailing axis picks one in an order set by the CPU's vector
        # width, so only the zero's sign may differ.
        assert (out == want).all()

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(
        st.integers(1, 6),
        st.sampled_from([(1, 1, 1), (2, 3, 4), (7, 3, 33)]),
        st.integers(0, 2**32 - 1),
    )
    def test_one_neighbour_at_slope_zero_is_the_lookup(self, n, shape, seed):
        # the closed-sample backup: v - 0.0 * d keeps every bit of v, the
        # sign of -0.0 included, which == cannot see
        rng = np.random.default_rng(seed)
        v = rng.choice([0.0, -0.0, -1.5, 2.0, 0.25, -0.25], size=n)
        idx = rng.integers(0, n, size=(1,) + shape)
        dist = rng.choice([0.0, 1e-10, 0.5, 2.0], size=(1,) + shape)
        out, tmp, scaled = np.empty((3,) + shape)
        _mcshane(v, 0.0, idx, dist, out, tmp, scaled)
        np.testing.assert_array_equal(out.view(np.int64), v.take(idx[0]).view(np.int64))

    @pytest.mark.parametrize("case", ["pbvi_open", "revealing_closed", "drift_open"])
    def test_solve_has_the_bits_of_the_broadcast_loop(self, case):
        if case == "drift_open":
            m, s = drift_tree()
        else:
            m = pbvi_toy() if case == "pbvi_open" else revealing_toy()
            s = reachability_tree(m, uniform_belief(m), depth=2)
        res = solve_vi(m, s, epsilon=1e-3)
        values, sup_diffs, lip = solve_vi_broadcast(m, s, 1e-3, _K_NEIGHBORS)
        assert res.value.values.tobytes() == values.tobytes()
        assert np.array(res.sup_diffs).tobytes() == np.array(sup_diffs).tobytes()
        assert np.float64(res.lip_estimate).tobytes() == np.float64(lip).tobytes()
        assert (lip > 0.0) == (case != "revealing_closed")


class TestPrecompute:
    @staticmethod
    def case(name):
        if name == "line":  # 17 states, 33 nodes: six chunks per action
            m = build_model(reference_spec(1.0))
            return m, centred_tree(m, 40)
        if name.startswith("discrete"):
            m = random_finite_model(2, n_states=5, n_actions=2, n_obs=4)
            rng = np.random.default_rng(3)
            # 100 beliefs: 400 posteriors per action, two chunks; 300: the
            # indices need two bytes
            n = 300 if name == "discrete_300" else 100
            return m, user_sample(
                [make_measure(m.state_grid, w) for w in rng.dirichlet(np.ones(5), n)]
            )
        if name == "table":
            _, tab = TestExplicitTableSolve.models()
            return tab, TestExplicitTableSolve.sample(tab, 6)
        return TestExplicitTableSolve.zero_node_models()[1]

    @pytest.mark.parametrize("parallel", [1, 2])
    @pytest.mark.parametrize(
        "name", ["line", "discrete", "table", "table_zero_node", "discrete_300"]
    )
    def test_neighbours_equal_the_full_block_bruteforce(self, name, parallel):
        m, s = self.case(name)
        pre = precompute(m, s, parallel)
        idx, dist = posterior_knn_bruteforce(m, s, _K_NEIGHBORS)
        assert pre.nn_idx.dtype == np.min_scalar_type(s.n - 1)
        assert pre.nn_idx.shape == (min(_K_NEIGHBORS, s.n), s.n, m.n_actions, m.n_obs)
        np.testing.assert_array_equal(pre.nn_idx, k_major(idx))
        assert pre.nn_dist.tobytes() == k_major(dist).tobytes()
        if name == "table_zero_node":
            assert (pre.node_probs == 0.0).any()

    def test_more_workers_than_cores_lose_no_write(self):
        # the workers write disjoint entries of the shared neighbour arrays
        m, s = self.case("line")
        want = precompute(m, s, 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = precompute(m, s, 8)
        finally:
            sys.setswitchinterval(interval)
        assert got.nn_idx.tobytes() == want.nn_idx.tobytes()
        assert got.nn_dist.tobytes() == want.nn_dist.tobytes()

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_transient_memory_stays_below_one_posterior_block(self, parallel):
        # 16 beliefs x 4,096 nodes x 40 states: one action's (B * J, n)
        # posterior block is 21 MB, several times what the chunks hold (a
        # 256-posterior chunk's rows and k-NN gather take about 1.4 MB;
        # the whole transient peak measured 4.6 MB, and 56 MB when every
        # posterior is built before the k-NN)
        m = random_finite_model(5, n_states=40, n_actions=1, n_obs=4096)
        rng = np.random.default_rng(0)
        s = user_sample([make_measure(m.state_grid, w) for w in rng.dirichlet(np.ones(40), 16)])
        s.weight_matrix()
        block = s.n * m.n_obs * m.n_states * 8
        tracemalloc.start()
        try:
            pre = precompute(m, s, parallel)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pre.nn_dist.nbytes < block
        assert peak - held < block


class TestMemoryCheck:
    def test_oversized_precompute_fails_before_any_distance(self, monkeypatch):
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=2)

        def no_distances(*args):
            raise AssertionError("a distance block was computed")

        monkeypatch.setattr(value_iteration, "_physical_memory", lambda: 4096)
        monkeypatch.setattr(BeliefDistances, "block", no_distances)
        monkeypatch.setattr(BeliefDistances, "knn", no_distances)
        with pytest.raises(SolverFailure, match=r"needs about [\d.,]+ MB for [\d,]+ beliefs"):
            solve_vi(m, s, epsilon=1e-2)

    def test_unknown_memory_is_not_checked(self, monkeypatch):
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=2)
        monkeypatch.setattr(value_iteration, "_physical_memory", lambda: None)
        assert solve_vi(m, s, epsilon=1e-2).converged

    @pytest.mark.parametrize(
        "case, parallel",
        [(drift_tree, 1), (drift_tree, 2), (dirichlet_sample, 2), (lattice_tree, 2)],
        ids=["1", "2", "discrete", "table"],
    )
    def test_estimate_covers_the_arrays_kept(self, case, parallel):
        m, s = case()
        s.weight_matrix()
        tracemalloc.start()
        try:
            pre = precompute(m, s, parallel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        B, A, J = pre.node_probs.shape
        dense = m.state_grid.metric_kind != EUCLIDEAN_1D
        assert _precompute_bytes(B, A, J, len(pre.nn_idx), m.n_states, parallel, dense) >= peak

    def test_a_table_is_charged_the_dense_search_step(self, monkeypatch):
        """An explicit table searches with the dense bound, so the estimate
        charges each worker's (_KNN_CHUNK, B) search step at 64 bytes a pair.
        The estimate stops the precompute before any LP."""
        m, s = lattice_tree()
        calls = []

        class Charged(Exception):
            pass

        def charge(*args):
            calls.append(args)
            raise Charged

        monkeypatch.setattr(value_iteration, "_precompute_bytes", charge)
        with pytest.raises(Charged):
            precompute(m, s, 2)
        [(B, A, J, K, n, workers, dense)] = calls
        assert (B, A, J, n, workers, dense) == (s.n, 2, 2, 16, 2, True)
        step = _precompute_bytes(B, A, J, K, n, workers, True) - _precompute_bytes(
            B, A, J, K, n, workers, False
        )
        assert step == workers * 64 * _KNN_CHUNK * B


class TestSolveVi:
    def test_a_wide_coarse_grid_skips_subnormal_nodes(self):
        # on +-32 at step 1.0 some tree beliefs give nodes a subnormal
        # likelihood; the tree and the precompute skip them instead of the
        # Bayes step refusing them
        m = build_model(KalmanSpec(grid_lo=-32, grid_hi=32, grid_step=1.0, n_obs_nodes=129))
        s = centred_tree(m, 300)
        lam = np.array([[obs_marginal(m, mu, a) for a in range(m.n_actions)]
                        for mu in s.beliefs])
        assert ((lam > 0.0) & ~possible_nodes(lam)).any()
        res = solve_vi(m, s, parallel=1)
        assert s.n == 300 and res.converged

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

    @pytest.mark.parametrize("parallel", [0, -50])
    def test_parallel_below_one_is_refused(self, parallel, monkeypatch):
        m = revealing_toy()
        s = reachability_tree(m, uniform_belief(m), depth=1)
        monkeypatch.setattr(value_iteration, "_Precomputed", None)  # refused before it
        with pytest.raises(SolverFailure, match=f"parallel must be >= 1, got {parallel}"):
            solve_vi(m, s, epsilon=1e-2, parallel=parallel)

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

    def test_worker_count_does_not_change_bits(self, monkeypatch):
        # the pbvi toy, and an open sample of 131 beliefs: neither 2 nor 3
        # workers split its beliefs evenly, 9 slope blocks of 9 to 25 rows
        # give every worker rows of several blocks, and 8 workers on a
        # short switch interval would expose a lost write
        monkeypatch.setattr(value_iteration, "_SLOPE_BLOCK_BYTES", 8 * 131 * 9)
        toy = pbvi_toy()
        drift = build_model(KalmanSpec(drift=1.0, grid_step=0.2))
        open_sample = centred_tree(drift, 131)
        assert open_sample.n == 131 and len(list(_row_blocks(131))) == 9

        def bits(res):
            return (res.value.values.tobytes(), np.array(res.sup_diffs).tobytes(),
                    np.float64(res.lip_estimate).tobytes(), res.selector.actions)

        for m, s in [(toy, reachability_tree(toy, uniform_belief(toy), depth=3)),
                     (drift, open_sample)]:
            one = solve_vi(m, s, epsilon=1e-2, parallel=1)
            runs = [solve_vi(m, s, epsilon=1e-2, parallel=p) for p in (2, 3)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                runs.append(solve_vi(m, s, epsilon=1e-2, parallel=8))
            finally:
                sys.setswitchinterval(interval)
            assert [bits(got) for got in runs] == [bits(one)] * 3
        assert one.lip_estimate > 0.0  # the drift sample is open: the McShane path ran


class TestRollout:
    def test_zero_reward_is_exactly_zero(self):
        m = zero_reward(pbvi_toy())
        mean, err = rollout_estimate(m, Constant(0), uniform_belief(m), 5, 200, seed=1)
        assert mean == 0.0
        assert err == 0.0

    def test_one_step_expectation(self):
        m = pbvi_toy()
        mu0 = belief(m, 0.3)
        mean, err = rollout_estimate(m, Constant(1), mu0, 0, 4000, seed=2)
        exact = expected_reward(m, mu0, 1)
        assert abs(mean - exact) <= 3 * err

    def test_seed_reproducibility(self):
        m = pbvi_toy()
        a = rollout_estimate(m, Constant(0), uniform_belief(m), 4, 500, seed=9)
        b = rollout_estimate(m, Constant(0), uniform_belief(m), 4, 500, seed=9)
        c = rollout_estimate(m, Constant(0), uniform_belief(m), 4, 500, seed=10)
        assert a == b
        assert a != c

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
            rollout_estimate(m, Constant(0), uniform_belief(m), -1, 10)
        with pytest.raises(DimensionMismatch):
            rollout_estimate(m, Constant(0), uniform_belief(m), 1, 0)


class TestAnchorPolicy:
    def test_copies_action_of_nearest_anchor(self):
        m = pbvi_toy()
        s = toy_sample(m, ps=(1.0, 0.0))
        pol = NearestAnchorPolicy(m.state_grid, s.weight_matrix(), [0, 1])
        rows = np.stack([belief(m, 0.9).weights, belief(m, 0.1).weights])
        np.testing.assert_array_equal(pol.act_batch(rows), [0, 1])

    def test_selector_roundtrip(self):
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=2)
        res = solve_vi(m, s, epsilon=1e-2)
        pol = selector_policy(res)
        np.testing.assert_array_equal(pol.act_batch(s.weight_matrix()), res.selector.actions)

    def test_action_count_must_match(self):
        m = pbvi_toy()
        s = toy_sample(m, ps=(1.0, 0.0))
        with pytest.raises(DimensionMismatch):
            NearestAnchorPolicy(m.state_grid, s.weight_matrix(), [0])

    def test_refuses_an_explicit_table(self):
        grid = StateGrid(np.arange(2.0), EXPLICIT_TABLE, 1.0 - np.eye(2))
        with pytest.raises(DimensionMismatch, match="embeddable metric"):
            NearestAnchorPolicy(grid, np.eye(2), [0, 1])
