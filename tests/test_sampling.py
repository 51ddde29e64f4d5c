"""Belief-sample construction: user sets and reachability trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpomdp.errors import DimensionMismatch, EmptySample
from wpomdp.filtering import bayes_update
from wpomdp.measures import DISCRETE, EXPLICIT_TABLE, StateGrid, make_measure, w1
from wpomdp.sampling import (
    DEDUP_W1_TOL,
    BeliefDistances,
    BeliefSample,
    reachability_tree,
    user_sample,
)
from wpomdp.synthetic import pbvi_toy, revealing_toy, uniform_belief
from wpomdp.value_iteration import NearestAnchorPolicy


class TestUserSample:
    def test_basic_fields(self):
        m = pbvi_toy()
        bs = [make_measure(m.state_grid, [p, 1 - p]) for p in (0.2, 0.9)]
        s = user_sample(bs)
        assert s.n == 2
        assert s.provenance == "user_supplied"
        assert s.edges == ()
        assert not s.truncated
        np.testing.assert_allclose(s.weight_matrix(), [[0.2, 0.8], [0.9, 0.1]], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            user_sample([])

    def test_mixed_grids_rejected(self):
        g1 = StateGrid(np.array([0.0, 1.0]))
        g2 = StateGrid(np.array([0.0, 2.0]))
        with pytest.raises(DimensionMismatch):
            user_sample([make_measure(g1, [1, 0]), make_measure(g2, [1, 0])])

    def test_weight_matrix_cached(self):
        m = pbvi_toy()
        s = user_sample([uniform_belief(m)])
        assert s.weight_matrix() is s.weight_matrix()


class TestReachabilityTree:
    def test_depth_zero_is_just_the_root(self):
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=0)
        assert s.n == 1
        assert s.edges == ()

    def test_revealing_model_collapses_to_three_points(self):
        # one step reveals the state, so deeper expansion finds nothing new:
        # the root plus one Dirac per state, at any depth >= 1
        m = revealing_toy()
        s1 = reachability_tree(m, uniform_belief(m), depth=1)
        s4 = reachability_tree(m, uniform_belief(m), depth=4)
        assert s1.n == s4.n == 1 + m.n_states

    def test_root_comes_first(self):
        m = pbvi_toy()
        mu0 = make_measure(m.state_grid, [0.3, 0.7])
        s = reachability_tree(m, mu0, depth=2)
        np.testing.assert_array_equal(s.beliefs[0].weights, mu0.weights)

    def test_edges_replay_the_expansion(self):
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=3)
        assert len(s.edges) == s.n - 1  # no mixtures requested
        for parent, a, j, child in s.edges:
            assert parent < child
            post = bayes_update(m, s.beliefs[parent], a, j)
            assert w1(post, s.beliefs[child]) < 1e-12

    def test_dedup_drops_near_duplicates(self):
        # a huge tolerance collapses the whole tree onto the root
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=3, dedup_tol=10.0)
        assert s.n == 1
        tight = reachability_tree(m, uniform_belief(m), depth=3, dedup_tol=DEDUP_W1_TOL)
        assert tight.n > 1

    def test_cap_truncates(self):
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=4, cap=4)
        assert s.truncated
        assert s.n == 4
        full = reachability_tree(m, uniform_belief(m), depth=4, cap=5000)
        assert not full.truncated

    def test_negative_depth_rejected(self):
        m = pbvi_toy()
        with pytest.raises(DimensionMismatch):
            reachability_tree(m, uniform_belief(m), depth=-1)

    def test_mixtures_are_padded_and_seeded(self):
        m = pbvi_toy()
        a = reachability_tree(m, uniform_belief(m), depth=2, mixtures=5, seed=7)
        b = reachability_tree(m, uniform_belief(m), depth=2, mixtures=5, seed=7)
        c = reachability_tree(m, uniform_belief(m), depth=2, mixtures=5, seed=8)
        base = reachability_tree(m, uniform_belief(m), depth=2)
        assert a.n == base.n + 5
        np.testing.assert_array_equal(a.weight_matrix(), b.weight_matrix())
        assert not np.array_equal(a.weight_matrix(), c.weight_matrix())
        # padded points carry no edge record
        assert len(a.edges) == len(base.edges)

    def test_mixtures_live_in_the_convex_hull(self):
        m = pbvi_toy()
        base = reachability_tree(m, uniform_belief(m), depth=2)
        s = reachability_tree(m, uniform_belief(m), depth=2, mixtures=4, seed=3)
        lo = base.weight_matrix()[:, 0].min()
        hi = base.weight_matrix()[:, 0].max()
        for b in s.beliefs[base.n :]:
            assert lo - 1e-12 <= b.weights[0] <= hi + 1e-12

    def test_provenance_records_the_recipe(self):
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=2, seed=5)
        assert s.provenance == "reachability_tree(depth=2, seed=5)"

    def test_belief_off_grid_rejected(self):
        m = pbvi_toy()
        other = StateGrid(np.array([0.0, 0.5, 1.0]))
        with pytest.raises(DimensionMismatch):
            reachability_tree(m, make_measure(other, [1, 0, 0]), depth=1)


class TestSampleValidation:
    def test_direct_construction_checks_grids(self):
        m = pbvi_toy()
        with pytest.raises(EmptySample):
            BeliefSample((), provenance="user_supplied")
        s = BeliefSample((uniform_belief(m),), provenance="user_supplied")
        assert s.grid is m.state_grid


def random_grid(kind, n, rng):
    if kind == "line":
        return StateGrid(np.cumsum(rng.uniform(0.1, 2.0, n)))
    if kind == "discrete":
        return StateGrid(np.arange(float(n)), metric_kind=DISCRETE)
    # Euclidean distances between distinct planar points form a metric
    xy = rng.uniform(-1.0, 1.0, (n, 2))
    table = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2))
    return StateGrid(np.arange(float(n)), metric_kind=EXPLICIT_TABLE, distance_table=table)


def random_rows(grid, m, rng):
    # sparse supports too, so the LP sees degenerate couplings
    w = rng.dirichlet(np.ones(grid.n), size=m) * (rng.uniform(size=(m, grid.n)) < 0.7)
    w[:, 0] += 1e-3
    return np.stack([make_measure(grid, r).weights for r in w])


class TestBeliefDistances:
    @settings(deadline=None, max_examples=25)
    @given(st.sampled_from(["line", "discrete", "table"]), st.integers(0, 2**32 - 1))
    def test_block_equals_pairwise_w1(self, kind, seed):
        rng = np.random.default_rng(seed)
        g = random_grid(kind, int(rng.integers(2, 6)), rng)
        kept = random_rows(g, int(rng.integers(1, 5)), rng)
        # past one _DIST_CHUNK of queries, except on the slow LP path
        queries = random_rows(g, int(rng.integers(1, 5 if kind == "table" else 150)), rng)
        block = BeliefDistances(g, kept).dists(queries)
        want = [
            [w1(make_measure(g, q), make_measure(g, k)) for k in kept] for q in queries
        ]
        np.testing.assert_allclose(block, want, rtol=0, atol=1e-9 if kind == "table" else 1e-12)

    @settings(deadline=None, max_examples=25)
    @given(st.sampled_from(["line", "discrete", "table"]), st.integers(0, 2**32 - 1))
    def test_incremental_add_matches_stacked_build(self, kind, seed):
        rng = np.random.default_rng(seed)
        g = random_grid(kind, int(rng.integers(2, 8)), rng)
        rows = random_rows(g, int(rng.integers(2, 12)), rng)
        queries = random_rows(g, 3, rng)
        stacked = BeliefDistances(g, rows)
        grown = BeliefDistances(g, rows[:1])
        for r in rows[1:]:
            grown.add(r)
        assert len(grown) == len(stacked) == len(rows)
        if stacked.emb is not None:
            np.testing.assert_array_equal(grown.emb, stacked.emb)
        np.testing.assert_array_equal(grown.dists(queries), stacked.dists(queries))
        np.testing.assert_array_equal(grown.pairwise(), stacked.pairwise())

    @pytest.mark.parametrize("kind", ["line", "discrete"])
    def test_anchor_ties_go_to_the_lowest_index(self, kind):
        rng = np.random.default_rng(11)
        g = random_grid(kind, 5, rng)
        a, b = random_rows(g, 2, rng)
        pol = NearestAnchorPolicy(g, np.stack([b, a, a, b]), [3, 2, 0, 1])
        np.testing.assert_array_equal(pol.act_batch(np.stack([a, b, a])), [2, 3, 2])
