"""Belief-sample construction: user sets and reachability trees."""

import dataclasses
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    dense_dists,
    first_k_lexsort,
    knn_bruteforce,
    l1_broadcast,
    reachability_tree_dense,
    w1,
)
from wpomdp import sampling
from wpomdp.errors import DimensionMismatch, EmptySample
from wpomdp.filtering import bayes_update, obs_marginal
from wpomdp.kalman import KalmanSpec, build_model, reference_spec, start_belief
from wpomdp.measures import (
    DISCRETE,
    EXPLICIT_TABLE,
    DiscreteMeasure,
    StateGrid,
    make_measure,
    w1_lp,
)
from wpomdp.sampling import (
    _GATHER_BYTES,
    DEDUP_W1_TOL,
    BeliefDistances,
    BeliefSample,
    _first_k,
    reachability_tree,
    user_sample,
)
from wpomdp.synthetic import pbvi_toy, revealing_toy, uniform_belief
from wpomdp.value_iteration import (
    _K_NEIGHBORS,
    NearestAnchorPolicy,
    rollout_estimate,
    selector_policy,
    solve_vi,
)


class TestUserSample:
    def test_basic_fields(self):
        m = pbvi_toy()
        bs = [make_measure(m.state_grid, [p, 1 - p]) for p in (0.2, 0.9)]
        s = user_sample(bs)
        assert s.n == 2
        assert s.provenance == "user_supplied"
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

    def test_the_cache_is_not_a_field(self):
        m = pbvi_toy()
        s = user_sample([uniform_belief(m)])
        s.weight_matrix()
        other = dataclasses.replace(s, beliefs=(make_measure(m.state_grid, [1.0, 0.0]),))
        np.testing.assert_array_equal(other.weight_matrix(), [[1.0, 0.0]])
        with pytest.raises(TypeError):
            BeliefSample((uniform_belief(m),), "user_supplied", _weight_matrix=np.zeros((1, 2)))


class TestReachabilityTree:
    def test_depth_zero_is_just_the_root(self):
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=0)
        assert s.n == 1

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
        # every non-root belief is a posterior of an earlier sample point
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=3)
        assert s.n > 1
        posteriors = [
            [
                bayes_update(m, mu, a, int(j))
                for a in range(m.n_actions)
                for j in np.flatnonzero(m.obs_quadrature.weights * obs_marginal(m, mu, a) > 0)
            ]
            for mu in s.beliefs
        ]
        for child in range(1, s.n):
            assert any(
                w1(post, s.beliefs[child]) < 1e-12
                for parent in range(child)
                for post in posteriors[parent]
            )

    def test_dedup_drops_near_duplicates(self):
        # the revealing toy's sample closes after one step, so every
        # deeper posterior duplicates a kept belief
        m = revealing_toy()
        assert reachability_tree(m, uniform_belief(m), depth=3).n == (
            reachability_tree(m, uniform_belief(m), depth=1).n
        )
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=3)
        d = dense_dists(BeliefDistances(s.grid, s.weight_matrix()), s.weight_matrix())
        assert s.n > 1 and (d[~np.eye(s.n, dtype=bool)] >= DEDUP_W1_TOL).all()

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

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_rejected(self, cap):
        m = pbvi_toy()
        with pytest.raises(DimensionMismatch, match="cap"):
            reachability_tree(m, uniform_belief(m), depth=1, cap=cap)

    def test_provenance_records_the_recipe(self):
        # the tree is deterministic: the seed it still accepts changes nothing
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=2, seed=5)
        assert s.provenance == "reachability_tree(depth=2)"
        plain = reachability_tree(m, uniform_belief(m), depth=2)
        assert s.weight_matrix().tobytes() == plain.weight_matrix().tobytes()

    def test_belief_off_grid_rejected(self):
        m = pbvi_toy()
        other = StateGrid(np.array([0.0, 0.5, 1.0]))
        with pytest.raises(DimensionMismatch):
            reachability_tree(m, make_measure(other, [1, 0, 0]), depth=1)

    # depth 3 truncates at every cap; the drift instance's depth-1 tree
    # closes below its cap
    @pytest.mark.parametrize(
        "instance, depth, cap",
        [(i, 3, c) for i in ("reference", "drift") for c in (20, 75, 300)] + [("drift", 1, 300)],
        ids=[f"{i}-{c}" for i in ("reference", "drift") for c in (20, 75, 300)]
        + ["drift-depth1-300"],
    )
    def test_equals_the_dense_dedup_oracle(self, instance, depth, cap):
        drift = KalmanSpec(drift=1.0, grid_step=0.2)
        m = build_model(reference_spec() if instance == "reference" else drift)
        mu0 = start_belief(m)
        got = reachability_tree(m, mu0, depth=depth, cap=cap)
        want = reachability_tree_dense(m, mu0, depth, cap=cap)
        assert got.truncated == (depth == 3)
        assert got.weight_matrix().tobytes() == want.tobytes()


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
        # many queries, except on the slow LP path
        queries = random_rows(g, int(rng.integers(1, 5 if kind == "table" else 150)), rng)
        block = BeliefDistances(g, np.concatenate([queries, kept])).block(
            slice(0, len(queries)), slice(len(queries), None)
        )
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
        np.testing.assert_array_equal(grown.emb, stacked.emb)
        for q in (queries, rows):
            idx, dist = stacked.knn(q, len(rows))
            got_idx, got_dist = grown.knn(q, len(rows))
            np.testing.assert_array_equal(got_idx, idx)
            assert got_dist.tobytes() == dist.tobytes()
        everything = slice(None)
        assert grown.block(everything, everything).tobytes() == (
            stacked.block(everything, everything).tobytes()
        )

    @pytest.mark.parametrize("kind", ["line", "discrete"])
    def test_anchor_ties_go_to_the_lowest_index(self, kind):
        rng = np.random.default_rng(11)
        g = random_grid(kind, 5, rng)
        a, b = random_rows(g, 2, rng)
        pol = NearestAnchorPolicy(g, np.stack([b, a, a, b]), [3, 2, 0, 1])
        np.testing.assert_array_equal(pol.act_batch(np.stack([a, b, a])), [2, 3, 2])


class TestEmbeddedBlockSymmetry:
    """An embedded distance block is bitwise the transpose of its mirror.

    The McShane slope builds each separated-pair block in one orientation
    on embedded metrics and relies on this.
    """

    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(
        st.sampled_from(["line", "discrete"]),
        st.sampled_from([1, 2, 7, 40, 161]),  # states
        st.integers(1, 60),  # kept beliefs
        st.sampled_from([None, 1, 3]),  # pairs per gather step: default, one, a few
        st.integers(0, 2**32 - 1),
    )
    def test_block_equals_the_transpose_of_its_mirror(self, kind, n, kept, pairs, seed):
        rng = np.random.default_rng(seed)
        g = random_grid(kind, n, rng)
        base = random_rows(g, kept, rng)
        geom = BeliefDistances(g, base[rng.integers(0, kept, kept)])  # repeats: zero blocks
        a, b = np.sort(rng.integers(0, kept + 1, 2))
        c, d = np.sort(rng.integers(0, kept + 1, 2))
        budget = 16 * geom.emb.shape[1] * pairs if pairs else _GATHER_BYTES
        with mock.patch.object(sampling, "_GATHER_BYTES", budget):
            rc = geom.block(slice(a, b), slice(c, d))
            cr = geom.block(slice(c, d), slice(a, b))
        assert rc.view(np.int64).tolist() == cr.T.view(np.int64).tolist()


class TestWithin:
    """``BeliefDistances.within`` against the dense row it replaces."""

    @staticmethod
    def shifted(rows, mass):
        """Each row with ``mass`` (at most its first atom) moved to the next point."""
        out = rows.copy()
        moved = np.minimum(out[:, 0], mass)
        out[:, 0] -= moved
        out[:, 1] += moved
        return out

    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(
        st.sampled_from(["line", "mirror", "discrete", "table"]),
        st.integers(3, 24),  # states
        st.integers(1, 12),  # distinct kept beliefs
        st.integers(0, 2**32 - 1),
    )
    def test_equals_the_dense_row(self, kind, n, kept, seed):
        rng = np.random.default_rng(seed)
        table = kind == "table"  # one LP per pair: keep it small
        if kind == "mirror":  # mean-0 beliefs and their mirror images: every key ties
            g = StateGrid(np.linspace(-1.0, 1.0, n))
            zero = TestSortedKnn.mean_zero(g, random_rows(g, kept, rng))
            base = np.concatenate([zero, zero[:, ::-1]])
        else:
            g = random_grid(kind, min(n, 4) if table else n, rng)
            base = random_rows(g, min(kept, 3) if table else kept, rng)
        rows = base[rng.integers(0, len(base), len(base) + 3)]  # repeats: equal keys
        queries = np.concatenate([
            random_rows(g, 2 if table else 6, rng),
            rows[:4],
            self.shifted(rows[:4], DEDUP_W1_TOL),  # about dedup_tol away
        ])
        grown = BeliefDistances(g, rows[:1])
        grown.within(rows[0], DEDUP_W1_TOL)  # build the index before the adds
        for r in rows[1:]:
            grown.add(r)
        stacked = BeliefDistances(g, rows)
        for q in queries:
            d = dense_dists(stacked, q[None, :]).min()
            # the tolerance exactly at the nearest distance, either side of
            # it, and the tree's default
            for tol in (d, np.nextafter(d, np.inf), np.nextafter(d, -np.inf), DEDUP_W1_TOL, 0.0):
                assert grown.within(q, tol) == stacked.within(q, tol) == (d < tol)

    @pytest.mark.parametrize("kind", ["line", "discrete"])
    def test_add_keeps_the_index_current(self, kind):
        rng = np.random.default_rng(8)
        g = random_grid(kind, 30, rng)
        base = random_rows(g, 20, rng)
        rows = base[rng.integers(0, 20, 60)]  # repeats: equal keys in kept order
        geom = BeliefDistances(g, rows[:1])
        geom.knn(rows[:1], 1)  # build the index
        for i in range(1, len(rows)):
            geom.add(rows[i])
            norm, keys, order = geom._index
            emb = geom.emb
            assert norm == np.abs(emb).sum(axis=1).max()
            if kind == "discrete":
                assert keys is None and order is None
                continue
            want = emb.sum(axis=1)
            want_order = np.argsort(want, kind="stable")
            np.testing.assert_array_equal(order, want_order)
            assert keys.tobytes() == want[want_order].tobytes()


class TestBlockSums:
    """The discrete search's kept column-block sums, grown by ``add``."""

    @pytest.mark.parametrize(
        "n, edges", [(3, [0, 1, 2]), (39, [0, 9, 19, 29]), (200, [0, 50, 100, 150])]
    )
    def test_add_matches_a_fresh_reduceat(self, n, edges):
        rng = np.random.default_rng(n)
        g = random_grid("discrete", n, rng)
        rows = random_rows(g, 70, rng)
        geom = BeliefDistances(g, rows[:1])
        for i in range(1, len(rows)):
            geom.add(rows[i])
            if i % 5 == 0:  # searches between adds read, but never rebuild, the sums
                geom.within(rows[i], DEDUP_W1_TOL)
        want = np.add.reduceat(geom.emb, edges, axis=1)
        assert geom._sums.shape == (len(edges), len(rows))
        assert geom._sums.T.tobytes() == want.tobytes()
        assert BeliefDistances(g, rows)._sums.T.tobytes() == want.tobytes()


class TestWindow:
    """``sampling._window`` against a double loop over queries and keys."""

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(
        st.lists(st.integers(-4, 4), max_size=12),  # keys, often equal
        # (lo, width) in halves: empty, zero-width and past either end
        st.lists(st.tuples(st.integers(-12, 12), st.integers(0, 12)), max_size=6),
    )
    @example(keys=[1, 1, 1, 2], windows=[(2, 0), (4, 0), (0, 2), (3, 6), (-4, 1), (5, 0)])
    @example(keys=[], windows=[(0, 2)])
    @example(keys=[0, 3], windows=[])
    def test_equals_a_double_loop(self, keys, windows):
        keys = np.sort(np.array(keys, dtype=float))
        lo = np.array([a / 2 for a, _ in windows])
        hi = np.array([(a + w) / 2 for a, w in windows])
        i, rank = sampling._window(keys, lo, hi)
        want = [
            (q, t) for q in range(len(lo)) for t in range(len(keys)) if lo[q] <= keys[t] <= hi[q]
        ]
        assert list(zip(i.tolist(), rank.tolist())) == want
        assert i.dtype.kind == rank.dtype.kind == "i"


class TestL1Block:
    """``BeliefDistances.block`` on the embedded metrics: the one kernel's L1 block."""

    @pytest.mark.parametrize("kind", ["line", "discrete"])
    @pytest.mark.parametrize("kept, queries", [(300, 70), (4000, 3)])
    def test_equals_the_broadcast_formula(self, kind, kept, queries):
        rng = np.random.default_rng(kept)
        g = random_grid(kind, 161, rng)
        geom = BeliefDistances(g, random_rows(g, kept, rng))
        rows, cols = slice(kept // 2, kept // 2 + queries), slice(kept // 4, None)
        want = l1_broadcast(geom.emb[rows], geom.emb[cols])
        # pairs per gather step: the default, one, a few
        for pairs in (None, 1, 7):
            budget = 16 * geom.emb.shape[1] * pairs if pairs else _GATHER_BYTES
            with mock.patch.object(sampling, "_GATHER_BYTES", budget):
                got = geom.block(rows, cols)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_peak_memory_stays_within_the_budget(self):
        # the block, its (row, column) index pairs and the gather buffers
        rng = np.random.default_rng(2)
        g = random_grid("line", 161, rng)
        geom = BeliefDistances(g, random_rows(g, 600, rng))
        tracemalloc.start()
        try:
            d = geom.block(slice(None), slice(None))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - d.nbytes < 2 * d.nbytes + 2 * _GATHER_BYTES


class TestTableSearch:
    """Explicit tables: the zero bound leaves exactly one LP per pair."""

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(
        st.integers(1, 5),  # states
        st.integers(1, 6),  # kept beliefs
        st.integers(1, 4),  # queries
        st.integers(1, 8),  # k: often at least the kept count
        st.integers(0, 2**32 - 1),
    )
    def test_every_search_equals_per_pair_w1_lp(self, n, kept, queries, k, seed):
        rng = np.random.default_rng(seed)
        g = random_grid("table", n, rng)
        rows = random_rows(g, kept, rng)
        rows = rows[rng.integers(0, kept, kept)]  # repeats: ties
        q = np.concatenate([random_rows(g, queries, rng), rows[:1]])
        geom = BeliefDistances(g, rows)
        kept_mu = [DiscreteMeasure(g, b) for b in rows]
        want = np.array([[w1_lp(make_measure(g, a), b) for b in kept_mu] for a in q])
        want_kept = np.array([[w1_lp(make_measure(g, b), c) for c in kept_mu] for b in rows])
        calls = []

        def counted(mu, nu):
            calls.append(1)
            return w1_lp(mu, nu)

        with mock.patch.object(sampling, "w1_lp", counted):
            idx, dist = geom.knn(q, k)
            assert len(calls) == len(q) * kept
            calls.clear()
            near = [geom.within(r, tol) for r in q for tol in (DEDUP_W1_TOL, 0.1)]
            assert len(calls) == 2 * len(q) * kept
            calls.clear()
            block = geom.block(slice(1, None), slice(None))
            assert len(calls) == (kept - 1) * kept
        order = np.argsort(want, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(idx, order)
        assert dist.tobytes() == np.take_along_axis(want, order, axis=1).tobytes()
        assert near == [bool(d.min() < tol) for d in want for tol in (DEDUP_W1_TOL, 0.1)]
        assert block.tobytes() == want_kept[1:].tobytes()

    def test_a_kept_row_is_read_as_it_was_added(self):
        # a kept row is not renormalised: one whose float sum is not
        # exactly 1 keeps its bits, and every search reads it as kept
        rng = np.random.default_rng(11)
        g = random_grid("table", 4, rng)
        rows = random_rows(g, 3, rng)
        rows[1] *= 1 + 1e-12
        assert rows[1].sum() != 1.0
        geom = BeliefDistances(g, rows[:1])
        for r in rows[1:]:
            geom.add(r)
        assert geom.emb.tobytes() == rows.tobytes()
        q = np.concatenate([random_rows(g, 3, rng), rows])
        kept_mu = [DiscreteMeasure(g, b) for b in rows]
        want = np.array([[w1_lp(make_measure(g, a), b) for b in kept_mu] for a in q])
        idx, dist = geom.knn(q, 3)
        order = np.argsort(want, axis=1, kind="stable")
        np.testing.assert_array_equal(idx, order)
        assert dist.tobytes() == np.take_along_axis(want, order, axis=1).tobytes()
        assert geom.block(slice(None), slice(None)).tobytes() == want[3:].tobytes()
        assert [geom.within(a, 0.1) for a in q] == [bool(d.min() < 0.1) for d in want]


class TestTableQueries:
    """Explicit tables: a search normalises each query row once per exact step."""

    @pytest.mark.parametrize("k", [2, 5])
    def test_one_query_measure_per_row(self, k):
        rng = np.random.default_rng(4)
        g = random_grid("table", 4, rng)
        rows = random_rows(g, 5, rng)
        q = random_rows(g, 3, rng)
        geom = BeliefDistances(g, rows)
        calls = []

        def counted(grid, w):
            calls.append(1)
            return make_measure(grid, w)

        with mock.patch.object(sampling, "make_measure", counted):
            geom.knn(q, k)
            # with k < kept the zero bound leaves every row a second
            # exact step, over its non-seed pairs
            assert len(calls) == len(q) * (1 if k >= len(rows) else 2)
            calls.clear()
            geom.within(q[0], 0.1)
            assert len(calls) == 1
            calls.clear()
            geom.block(slice(1, 4), slice(None))
            assert len(calls) == 3


class TestKnn:
    """``BeliefDistances.knn`` against a stable sort of the full block."""

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        st.sampled_from(["line", "discrete", "table"]),
        st.integers(1, 40),  # states: often fewer embedding columns than blocks
        st.integers(1, 40),  # k: often at least the kept count
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_brute_force(self, kind, n, k, zero_rows, seed):
        rng = np.random.default_rng(seed)
        table = kind == "table"  # one LP per pair: keep it small
        g = random_grid(kind, min(n, 4) if table else n, rng)
        base = random_rows(g, int(rng.integers(1, 4 if table else 12)), rng)
        # repeated beliefs tie exactly, inside the top k and at its boundary
        picks = rng.integers(0, len(base), int(rng.integers(1, 6 if table else 30)))
        sample = user_sample([make_measure(g, base[i]) for i in picks])
        geom = BeliefDistances(g, sample.weight_matrix())
        queries = np.concatenate([
            random_rows(g, int(rng.integers(1, 3 if table else 40)), rng),
            sample.weight_matrix()[:4],
        ])
        if zero_rows and not table:  # as _Precomputed passes for zero-likelihood nodes
            queries = np.concatenate([queries, np.zeros((2, g.n))])

        idx, dist = geom.knn(queries, k)
        want_idx, want_dist = knn_bruteforce(geom, queries, k)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(dist.view(np.int64), want_dist.view(np.int64))
        for q, row_idx, row_d in zip(queries, want_idx, want_dist):
            if q.sum() > 0:
                mu = make_measure(g, q)
                per_pair = [w1(mu, sample.beliefs[i]) for i in row_idx]
                np.testing.assert_allclose(row_d, per_pair, rtol=0, atol=1e-12)
        if not table:
            pol = NearestAnchorPolicy(g, sample.weight_matrix(), np.arange(sample.n))
            np.testing.assert_array_equal(pol.act_batch(queries), want_idx[:, 0])

    @pytest.mark.parametrize("kind", ["line", "discrete", "table"])
    def test_ties_go_to_the_lowest_index(self, kind):
        rng = np.random.default_rng(5)
        g = random_grid(kind, 4, rng)
        a, b = random_rows(g, 2, rng)
        geom = BeliefDistances(g, np.stack([b, a, b, a, b]))
        # the two copies of a tie at 0; three copies of b tie across k = 3
        idx, dist = geom.knn(a[None, :], 3)
        np.testing.assert_array_equal(idx, [[1, 3, 0]])
        assert dist[0, 0] == dist[0, 1] == 0.0 < dist[0, 2]

    def test_concurrent_first_searches_see_the_whole_index(self):
        # the VI precompute's workers share one BeliefDistances and search
        # it at once; four threads make an overlap likely within a few
        # repetitions
        rng = np.random.default_rng(11)
        g = random_grid("line", 81, rng)
        rows = random_rows(g, 3000, rng)
        queries = random_rows(g, 4, rng)
        want_idx, want_dist = knn_bruteforce(BeliefDistances(g, rows), queries, 4)

        def search(geom, start):
            start.wait()
            return geom.knn(queries, 4)

        with ThreadPoolExecutor(4) as pool:
            for _ in range(100):
                geom, start = BeliefDistances(g, rows), threading.Barrier(4)
                for f in [pool.submit(search, geom, start) for _ in range(4)]:
                    idx, dist = f.result()
                    np.testing.assert_array_equal(idx, want_idx)
                    np.testing.assert_array_equal(
                        dist.view(np.int64), want_dist.view(np.int64)
                    )


class TestFirstK:
    """``_first_k``'s seed-block fast path against one lexsort of every triple."""

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(
        st.integers(1, 10),  # rows
        st.integers(1, 8).flatmap(lambda kept: st.tuples(st.just(kept), st.integers(1, kept))),
        st.integers(1, 12),  # distinct distances: few make ties, in and past the seeds
        st.integers(0, 2**32 - 1),
    )
    @example(4, (6, 1), 12, 0)  # k = 1
    @example(4, (6, 6), 12, 0)  # k = kept: no extras
    @example(4, (6, 3), 1, 0)  # every distance tied
    def test_equals_one_lexsort(self, m, kept_k, levels, seed):
        kept, k = kept_k
        rng = np.random.default_rng(seed)
        dists = rng.random(levels)
        seed_idx, seed_dist, rows, idx, dist = [], [], [], [], []
        for i in range(m):
            cand = rng.permutation(kept)[:rng.integers(k, kept + 1)]
            d = rng.choice(dists, len(cand))
            seed_idx.append(cand[:k])
            seed_dist.append(d[:k])
            rows += [i] * (len(cand) - k)
            idx += list(cand[k:])
            dist += list(d[k:])
        seed_idx, seed_dist, dist = np.array(seed_idx), np.array(seed_dist), np.array(dist)
        rows, idx = np.array(rows, dtype=np.intp), np.array(idx, dtype=np.intp)
        shuffle = rng.permutation(len(rows))  # extras come in any row order
        got = _first_k(seed_idx, seed_dist, rows[shuffle], idx[shuffle], dist[shuffle])
        want = first_k_lexsort(
            m, k, np.concatenate([np.repeat(np.arange(m), k), rows]),
            np.concatenate([seed_dist.ravel(), dist]), np.concatenate([seed_idx.ravel(), idx]),
        )
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()


class TestSortedKnn:
    """The 1-D sorted-key search where the row-sum keys tie or mislead.

    The key is x_max - mean, so beliefs with equal means tie in it however
    far apart they are in W1.
    """

    @staticmethod
    def mean_zero(grid, rows):
        """Each row mixed with the end point opposite its mean: mean 0."""
        pts = grid.points
        out = []
        for r in rows:
            mu = r @ pts
            x = pts[0] if mu > 0 else pts[-1]
            lam = x / (x - mu)
            w = lam * r
            w[0 if mu > 0 else -1] += 1.0 - lam
            out.append(make_measure(grid, w).weights)
        return np.stack(out)

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        st.sampled_from(["mirror", "outside", "equal"]),
        st.integers(3, 12),  # states
        st.integers(1, 12),  # k: often at least the kept count
        st.integers(0, 2**32 - 1),
    )
    def test_grown_index_equals_brute_force(self, case, n, k, seed):
        rng = np.random.default_rng(seed)
        g = StateGrid(np.linspace(-1.0, 1.0, n))  # symmetric: a mirror image keeps mean 0
        base = random_rows(g, int(rng.integers(1, 10)), rng)
        if case == "mirror":  # pairs of mirror images, every mean 0
            zero = self.mean_zero(g, base)
            kept = np.concatenate([zero, zero[:, ::-1]])
            queries = np.concatenate([zero[:, ::-1], self.mean_zero(g, random_rows(g, 3, rng))])
        elif case == "outside":  # queries keyed below and above every kept belief
            inner = base.copy()
            inner[:, [0, -1]] = 0.0
            inner[:, 1] += 1e-3
            kept = np.stack([make_measure(g, r).weights for r in inner])
            queries = np.concatenate([np.eye(n)[[0, -1]], np.zeros((1, n)), base])
        else:  # one belief kept over and over
            kept = np.repeat(base[:1], int(rng.integers(1, 8)), axis=0)
            queries = np.concatenate([base, kept[:1]])

        grown = BeliefDistances(g, kept[:1])
        for i in range(1, len(kept) + 1):
            if i > 1:
                grown.add(kept[i - 1])
            stacked = BeliefDistances(g, kept[:i])
            want_idx, want_dist = knn_bruteforce(stacked, queries, k)
            for geom in (grown, stacked):
                idx, dist = geom.knn(queries, k)
                np.testing.assert_array_equal(idx, want_idx)
                np.testing.assert_array_equal(dist.view(np.int64), want_dist.view(np.int64))


class TestKnnWork:
    """Exact distances per query on the drift instance, counted, not timed.

    Every exact distance of the search goes through
    ``BeliefDistances._exact``, so a search that decays towards brute force
    (300 per query here) fails this test rather than only the benchmark.
    """

    def test_mean_exact_distances_per_query(self, monkeypatch):
        model = build_model(KalmanSpec(drift=1.0, grid_step=0.2))
        mu0 = start_belief(model)
        sample = reachability_tree(model, mu0, depth=2, cap=300)
        work = {"queries": 0, "exact": 0}
        knn, exact = BeliefDistances.knn, BeliefDistances._exact

        def counted_knn(self, rows, k):
            work["queries"] += len(rows)
            return knn(self, rows, k)

        def counted_exact(self, q, r, j):
            work["exact"] += len(j)
            return exact(self, q, r, j)

        monkeypatch.setattr(BeliefDistances, "knn", counted_knn)
        monkeypatch.setattr(BeliefDistances, "_exact", counted_exact)
        vi = solve_vi(model, sample, epsilon=1e-2)  # k = _K_NEIGHBORS per posterior
        assert sample.n == 300 and _K_NEIGHBORS == 16
        per_posterior = work["exact"] / work["queries"]
        work.update(queries=0, exact=0)
        rollout_estimate(model, selector_policy(vi), mu0, 60, 200, seed=0)  # k = 1
        per_belief = work["exact"] / work["queries"]
        assert 16 <= per_posterior <= 21
        assert 1 <= per_belief <= 4
