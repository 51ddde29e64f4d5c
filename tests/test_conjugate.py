"""Conjugate machinery: envelopes, duality, and the set-iteration solver."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import (
    bellman_backup_point,
    classical_pbvi_backup,
    conjugate_rho_loop,
    eval_sup,
    expected_reward,
    lip_const_bruteforce,
    lip_growth_constants,
    measured_growth,
    merge_duplicate_rows_greedy,
    normalize_null_level_loop,
    second_conjugate_loop,
)
from wpomdp import conjugate, value_iteration
from wpomdp.conjugate import (
    _DUP_TOL,
    AlphaSet,
    _merge_duplicate_rows,
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
from wpomdp.errors import DimensionMismatch, EmptySample, SolverFailure
from wpomdp.measures import (
    DISCRETE,
    EUCLIDEAN_1D,
    EXPLICIT_TABLE,
    StateGrid,
    make_measure,
)
from wpomdp.model import certify
from wpomdp.sampling import reachability_tree, user_sample, w1
from wpomdp.synthetic import (
    absorbing_unit_reward_toy,
    pbvi_toy,
    random_finite_model,
    revealing_toy,
    uniform_belief,
)
from wpomdp.value_iteration import solve_vi


def belief(model, p):
    return make_measure(model.state_grid, [p, 1.0 - p])


def toy_sample(model, ps=(1.0, 0.75, 0.5, 0.25, 0.0)):
    return user_sample([belief(model, p) for p in ps])


def fns(model, *rows):
    return np.array(rows, dtype=float).reshape(-1, model.n_states)


def aset(model, *rows):
    return AlphaSet(model.state_grid, fns(model, *rows))


def random_envelope(model, n_fns, seed):
    rng = np.random.default_rng(seed)
    return AlphaSet(model.state_grid, rng.uniform(-2, 2, (n_fns, model.n_states)))


def envelope_values(env, samp):
    return eval_sup_table(env, samp)[0]


@st.composite
def grids(draw):
    """A 1-D, discrete or explicit-table grid of 1 to 6 points."""
    kind = draw(st.sampled_from((EUCLIDEAN_1D, DISCRETE, EXPLICIT_TABLE)))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == EUCLIDEAN_1D:
        return StateGrid(np.cumsum(rng.uniform(0.1, 2.0, n)))
    if kind == DISCRETE:
        return StateGrid(np.arange(float(n)), metric_kind=DISCRETE)
    # Euclidean distances between distinct planar points form a metric
    xy = rng.uniform(-1.0, 1.0, (n, 2))
    table = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2))
    return StateGrid(np.arange(float(n)), metric_kind=EXPLICIT_TABLE, distance_table=table)


class TestAlphaSet:
    def test_needs_at_least_one_fn(self):
        m = pbvi_toy()
        with pytest.raises(EmptySample):
            AlphaSet(m.state_grid, np.empty((0, 2)))

    @pytest.mark.parametrize("values", [[[0.0, 1.0, 2.0]], [0.0, 1.0], [[[0.0, 1.0]]]])
    def test_rejects_a_wrong_shape(self, values):
        with pytest.raises(DimensionMismatch):
            AlphaSet(pbvi_toy().state_grid, values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(DimensionMismatch):
            AlphaSet(pbvi_toy().state_grid, [[0.0, 1.0], [bad, 0.0]])

    def test_values_are_a_read_only_copy(self):
        m = pbvi_toy()
        rows = np.array([[0.0, 1.0], [2.0, -1.0]])
        s = AlphaSet(m.state_grid, rows)
        rows[0, 0] = 5.0
        np.testing.assert_array_equal(s.values, [[0, 1], [2, -1]])
        with pytest.raises(ValueError):
            s.values[0, 0] = 5.0

    def test_matrix_and_max_lip(self):
        m = pbvi_toy()
        s = aset(m, [0.0, 1.0], [2.0, -1.0])
        np.testing.assert_array_equal(s.values, [[0, 1], [2, -1]])
        assert s.n_fns == 2
        assert s.max_lip == 3.0  # discrete metric: max - min

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(grids(), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_lip_consts_equal_the_all_pairs_maximum(self, grid, n_fns, seed):
        """The finite metrics give the bits of the all-pairs oracle.  On the
        line the kernel reads adjacent pairs only: every chord's slope is
        theirs up to rounding."""
        rows = np.random.default_rng(seed).uniform(-3.0, 3.0, (n_fns, grid.n))
        got = AlphaSet(grid, rows).lip_consts()
        want = np.array([lip_const_bruteforce(grid, row) for row in rows])
        if grid.metric_kind == EUCLIDEAN_1D:
            assert (got <= want).all() and (want <= got * (1 + 1e-12)).all()
        else:
            assert_same_bits(got, want)

    def test_zero_set(self):
        m = pbvi_toy()
        z = zero_alpha_set(m)
        assert z.n_fns == 1
        np.testing.assert_array_equal(z.values, [[0.0, 0.0]])


class TestEvalSup:
    def test_singleton_is_plain_integral(self):
        m = pbvi_toy()
        s = aset(m, [1.0, -1.0])
        v, i = eval_sup(s, belief(m, 0.25))
        assert_allclose(v, 0.25 - 0.75, atol=1e-15)
        assert i == 0

    def test_translation_always_wins(self):
        m = pbvi_toy()
        s = aset(m, [1.0, -1.0], [2.0, 0.0])
        for p in (0.0, 0.3, 1.0):
            v, i = eval_sup(s, belief(m, p))
            assert i == 1

    def test_ties_go_to_lowest_index(self):
        m = pbvi_toy()
        s = aset(m, [0.5, 0.5], [0.5, 0.5])
        assert eval_sup(s, belief(m, 0.4))[1] == 0

    def test_crossing_linear_envelope(self):
        # int f1 dmu = p and int f2 dmu = 2(1-p) cross at p = 2/3: the
        # envelope is the piecewise-linear max with a kink right there
        m = pbvi_toy()
        s = aset(m, [1.0, 0.0], [0.0, 2.0])
        for p in (0.9, 0.75):
            v, i = eval_sup(s, belief(m, p))
            assert i == 0 and np.isclose(v, p)
        for p in (0.5, 0.1):
            v, i = eval_sup(s, belief(m, p))
            assert i == 1 and np.isclose(v, 2 * (1 - p))
        v, _ = eval_sup(s, belief(m, 2.0 / 3.0))
        assert_allclose(v, 2.0 / 3.0, atol=1e-12)

    def test_belief_on_another_grid_rejected(self):
        m = pbvi_toy()
        other = StateGrid(np.arange(2.0) + 1.0, metric_kind=DISCRETE)
        with pytest.raises(DimensionMismatch):
            eval_sup(aset(m, [1.0, 0.0]), make_measure(other, [0.5, 0.5]))

    def test_table_form_matches_loop(self):
        m = pbvi_toy()
        s = random_envelope(m, 6, seed=0)
        samp = toy_sample(m)
        vals, idx = eval_sup_table(s, samp)
        for b, mu in enumerate(samp.beliefs):
            v, i = eval_sup(s, mu)
            assert_allclose(vals[b], v, rtol=1e-14)
            assert idx[b] == i


class TestConjugateRho:
    def test_zero_fn_against_nonnegative_value(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        vals = [0.3, 0.1, 0.0, 0.2, 0.5]  # at p = 1, 0.75, 0.5, 0.25, 0
        np.testing.assert_array_equal(conjugate_rho(fns(m, [0.0, 0.0]), vals, samp), [0.0])

    def test_translation_shifts_exactly(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        vals = envelope_values(random_envelope(m, 3, seed=1), samp)
        f = fns(m, [0.4, -0.7])
        base = conjugate_rho(f, vals, samp)
        for c in (-2.0, 0.5, 3.25):
            shifted = conjugate_rho(f + c, vals, samp)
            assert_allclose(shifted, base + c, atol=1e-12)

    def test_envelope_member_never_positive(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        env = random_envelope(m, 4, seed=2)
        assert (conjugate_rho(env.values, envelope_values(env, samp), samp) <= 1e-12).all()

    def test_monotone_in_the_function(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        vals = envelope_values(random_envelope(m, 3, seed=3), samp)
        rng = np.random.default_rng(4)
        f = rng.uniform(-2, 2, (25, 2))
        g = f + rng.uniform(0, 1, (25, 2))
        assert (conjugate_rho(f, vals, samp) <= conjugate_rho(g, vals, samp) + 1e-12).all()

    @pytest.mark.parametrize(
        "shape_f, shape_v", [((2,), (5,)), ((1, 3), (5,)), ((1, 2), (1,)), ((1, 2), (5, 1))]
    )
    def test_shapes_checked(self, shape_f, shape_v):
        m = pbvi_toy()
        with pytest.raises(DimensionMismatch):
            conjugate_rho(np.zeros(shape_f), np.zeros(shape_v), toy_sample(m))


class TestSecondConjugate:
    def test_linear_self_duality(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        f = fns(m, [0.8, -0.4])
        vals = samp.weight_matrix() @ f[0]
        for p in (1.0, 0.5, 0.0):
            got = second_conjugate(belief(m, p), f, vals, samp)
            assert_allclose(got, f[0] @ belief(m, p).weights, atol=1e-12)

    def test_weak_duality_on_sample(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        env = random_envelope(m, 5, seed=5)
        vals = envelope_values(env, samp)
        cands = random_envelope(m, 7, seed=6).values
        for b, mu in enumerate(samp.beliefs):
            assert second_conjugate(mu, cands, vals, samp) <= vals[b] + 1e-9

    def test_envelope_self_duality(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        env = random_envelope(m, 3, seed=7)
        vals = envelope_values(env, samp)
        for b, mu in enumerate(samp.beliefs):
            got = second_conjugate(mu, env.values, vals, samp)
            assert_allclose(got, vals[b], atol=1e-9)

    def test_empty_candidates_rejected(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        with pytest.raises(EmptySample):
            second_conjugate(belief(m, 0.5), np.empty((0, 2)), np.zeros(5), samp)


class TestNormalizeNullLevel:
    def test_already_normalized_is_unchanged(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        env = random_envelope(m, 3, seed=8)
        vals = envelope_values(env, samp)
        f = env.values[:1]
        rho = conjugate_rho(f, vals, samp)
        g = normalize_null_level(f, vals, samp)
        np.testing.assert_allclose(g, f - rho[:, None], atol=1e-15)
        h = normalize_null_level(g, vals, samp)
        np.testing.assert_array_equal(h, g)

    def test_translation_comes_back(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        env = random_envelope(m, 3, seed=9)
        vals = envelope_values(env, samp)
        base = normalize_null_level(env.values[1:2], vals, samp)
        back = normalize_null_level(base + 5.0, vals, samp)
        assert_allclose(back, base, atol=1e-12)

    def test_shifted_fn_touches_envelope_from_below(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        vals = envelope_values(random_envelope(m, 4, seed=10), samp)
        rng = np.random.default_rng(11)
        g = normalize_null_level(rng.uniform(-3, 3, (10, 2)), vals, samp)
        assert (np.abs(conjugate_rho(g, vals, samp)) <= 1e-12).all()
        gaps = vals[:, None] - samp.weight_matrix() @ g.T  # (B, 10)
        assert (gaps.min(axis=0) >= -1e-12).all()  # below everywhere on the sample
        assert (gaps.min(axis=0) <= 1e-12).all()  # and touching at the argmax

    def test_non_finite_value_rejected(self):
        m = pbvi_toy()
        with pytest.raises(SolverFailure):
            normalize_null_level(fns(m, [0.0, 0.0]), np.full(5, -np.inf), toy_sample(m))


class TestConjugatesEqualThePerBeliefLoops:
    """The matrix conjugates against the per-belief loops of ``oracles``."""

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(grids(), st.integers(1, 6), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_equal_within_roundoff(self, grid, n_fns, n_beliefs, seed):
        rng = np.random.default_rng(seed)
        F = rng.uniform(-3.0, 3.0, (n_fns, grid.n))
        weights = rng.dirichlet(np.ones(grid.n), size=n_beliefs)
        weights *= rng.uniform(size=weights.shape) < 0.7  # sparse supports too
        weights[:, 0] += 1e-3
        samp = user_sample([make_measure(grid, w) for w in weights])
        vals = rng.uniform(-3.0, 3.0, samp.n)
        by_belief = {id(mu): v for mu, v in zip(samp.beliefs, vals)}
        value_eval = lambda mu: by_belief[id(mu)]
        want = [conjugate_rho_loop(f, value_eval, samp) for f in F]
        assert_allclose(conjugate_rho(F, vals, samp), want, rtol=0, atol=1e-12)
        for mu in samp.beliefs:
            got = second_conjugate(mu, F, vals, samp)
            want = second_conjugate_loop(mu, F, value_eval, samp)
            assert abs(got - want) <= 1e-12
        want = np.array([normalize_null_level_loop(f, value_eval, samp) for f in F])
        assert_allclose(normalize_null_level(F, vals, samp), want, rtol=0, atol=1e-12)


class TestSetBackup:
    def test_first_backup_is_reward_pbvi(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        res = set_backup(m, zero_alpha_set(m), samp)
        want = [
            max(expected_reward(m, mu, a) for a in range(m.n_actions))
            for mu in samp.beliefs
        ]
        assert_allclose(res.table.values, want, atol=1e-12)
        np.testing.assert_array_equal(res.chosen_action, [0, 0, 1, 1, 1])
        # the backed-up functions are exactly the chosen reward rows
        np.testing.assert_array_equal(res.backed_matrix, m.reward[res.chosen_action])
        assert res.new_sets[0].n_fns == 2  # five rows merge to the two distinct ones

    def test_exchange_identity(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        cur = zero_alpha_set(m)
        for _ in range(3):
            res = set_backup(m, cur, samp)
            ev = lambda mu: eval_sup(cur, mu)[0]
            for b, mu in enumerate(samp.beliefs):
                for a in range(m.n_actions):
                    lhs = float(res.backed[a, b] @ mu.weights)
                    rhs = bellman_backup_point(m, ev, mu, a)
                    assert_allclose(lhs, rhs, atol=1e-9)
                assert_allclose(
                    res.table.values[b],
                    res.backed[res.chosen_action[b], b] @ mu.weights,
                    atol=1e-12,
                )
            cur = res.new_sets[0]

    def test_matches_classical_alpha_vector_backup(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        rows = samp.weight_matrix()
        vectors = np.zeros((1, m.n_states))
        cur = zero_alpha_set(m)
        for _ in range(5):
            res = set_backup(m, cur, samp)
            want = classical_pbvi_backup(
                m.trans, m.obs_density, m.reward, m.discount, vectors, rows
            )
            assert np.abs(res.backed_matrix - want).max() <= 1e-10
            vectors = want
            cur = res.new_sets[0]


class TestQSetBackup:
    def test_single_action_collapses_to_plain_backup(self):
        m = pbvi_toy()
        one = dataclasses.replace(
            m,
            actions=("only",),
            trans=m.trans[:1],
            obs_density=m.obs_density[:1],
            reward=m.reward[:1],
        )
        samp = toy_sample(one)
        plain = set_backup(one, zero_alpha_set(one), samp)
        per = q_set_backup(one, (zero_alpha_set(one),), samp)
        np.testing.assert_array_equal(plain.table.values, per.table.values)
        np.testing.assert_array_equal(plain.new_sets[0].values, per.new_sets[0].values)

    @pytest.mark.parametrize(
        "run, fragment",
        [
            (
                lambda m, s: q_set_backup(m, (zero_alpha_set(m),) * (m.n_actions + 1), s),
                "one alpha set per action",
            ),
            (lambda m, s: solve_sets(m, s, algorithm="alg3"), "unknown algorithm 'alg3'"),
        ],
        ids=["wrong-set-count", "unknown-algorithm"],
    )
    def test_refuses_bad_arguments(self, run, fragment):
        m = pbvi_toy()
        with pytest.raises(SolverFailure, match=fragment):
            run(m, toy_sample(m))

    def test_agrees_with_plain_backup_for_three_sweeps(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        cur1 = zero_alpha_set(m)
        cur2 = (zero_alpha_set(m),) * m.n_actions
        for _ in range(3):
            r1 = set_backup(m, cur1, samp)
            r2 = q_set_backup(m, cur2, samp)
            assert np.abs(r1.table.values - r2.table.values).max() <= 1e-12
            cur1, cur2 = r1.new_sets[0], r2.new_sets

    def test_dominated_action_never_supplies_the_max(self):
        m = pbvi_toy()
        worse = m.reward.copy()
        worse[1] = worse[0] - 1.0
        dom = dataclasses.replace(
            m,
            trans=np.stack([m.trans[0]] * 2),
            obs_density=np.stack([m.obs_density[0]] * 2),
            reward=worse,
        )
        samp = toy_sample(dom)
        cur = (zero_alpha_set(dom),) * 2
        for _ in range(3):
            res = q_set_backup(dom, cur, samp)
            assert set(res.chosen_action) == {0}
            cur = res.new_sets


def assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestMergeDuplicateRows:
    """``_merge_duplicate_rows`` against the greedy pairwise loop."""

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(
        st.integers(1, 6),
        st.lists(
            st.tuples(
                st.integers(0, 3),  # pool row; row 0 is all zeros
                st.booleans(),  # negate the pool row: 0.0 becomes -0.0
                st.sampled_from((0.0, 0.4, 0.6, 1.5)),  # perturbation / tol
                st.integers(0, 5),  # perturbed column
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_equals_the_greedy_loop(self, n, specs):
        pool = np.random.default_rng(n).uniform(-1.0, 1.0, (4, n))
        pool[0] = 0.0
        rows = np.empty((len(specs), n))
        for row, (p, neg, step, col) in zip(rows, specs):
            row[:] = -pool[p] if neg else pool[p]
            if step:
                row[col % n] += step * _DUP_TOL
        assert_same_bits(_merge_duplicate_rows(rows), merge_duplicate_rows_greedy(rows, _DUP_TOL))

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(
        st.integers(1, 5),
        st.lists(
            st.tuples(
                st.integers(0, 3),  # pool row: zeros, ones, 1e7, random
                st.booleans(),  # negate the pool row: 0.0 becomes -0.0
                st.integers(-3, 3),  # column-0 shift in units of tol
                st.integers(-2, 2),  # shift of one more column in tol / 2
                st.integers(0, 4),  # that column
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_column_zero_window_equals_the_greedy_loop(self, n, specs):
        # On the zero row the column-0 shifts put rows exactly tol, 2 tol,
        # ... apart; at 1e7 one ulp (1.9e-9) exceeds tol.
        pool = np.zeros((4, n))
        pool[1] = 1.0
        pool[2] = 1e7
        pool[3] = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        rows = np.empty((len(specs), n))
        for row, (p, neg, k0, k1, col) in zip(rows, specs):
            row[:] = -pool[p] if neg else pool[p]
            if k0:
                row[0] += k0 * _DUP_TOL
            if k1:
                row[col % n] += k1 * 0.5 * _DUP_TOL
        assert_same_bits(_merge_duplicate_rows(rows), merge_duplicate_rows_greedy(rows, _DUP_TOL))

    @pytest.mark.parametrize("m", [1, 7])
    def test_equal_rows_keep_the_first(self, m):
        rows = np.tile([0.5, -0.0, 2.0], (m, 1))
        assert_same_bits(_merge_duplicate_rows(rows), rows[:1])

    def test_chain_keeps_rows_near_a_dropped_row(self):
        # row 2 is within tol of the dropped row 1, but not of the kept row 0
        a = np.array([0.25, -1.0, 3.0])
        rows = np.stack([a, a + 0.6 * _DUP_TOL, a + 1.2 * _DUP_TOL])
        assert_same_bits(_merge_duplicate_rows(rows), rows[[0, 2]])

    @pytest.mark.parametrize("make", [pbvi_toy, lambda: random_finite_model(3, n_states=4)])
    def test_set_backup_merges_like_the_greedy_loop(self, make):
        m = make()
        if m.n_states == 2:
            samp = toy_sample(m)
        else:
            samp = reachability_tree(m, uniform_belief(m), depth=2)
        cur = zero_alpha_set(m)
        for _ in range(4):
            res = set_backup(m, cur, samp)
            want = merge_duplicate_rows_greedy(res.backed_matrix, _DUP_TOL)
            assert_same_bits(res.new_sets[0].values, want)
            cur = res.new_sets[0]


class TestPrune:
    def test_translated_copy_dropped(self):
        m = pbvi_toy()
        s = aset(m, [1.0, 1.0], [0.0, 0.0])
        kept = prune(s, toy_sample(m))
        assert kept.n_fns == 1
        np.testing.assert_array_equal(kept.values, [[1.0, 1.0]])

    def test_everything_useful_is_kept(self):
        m = pbvi_toy()
        s = aset(m, [1.0, 0.0], [0.0, 2.0])
        kept = prune(s, toy_sample(m))
        assert kept.n_fns == 2

    def test_envelope_unchanged_on_sample(self):
        m = pbvi_toy()
        rng = np.random.default_rng(12)
        samp = user_sample(
            [belief(m, p) for p in rng.uniform(0, 1, 50)]
        )
        s = random_envelope(m, 10, seed=13)
        kept = prune(s, samp)
        before, _ = eval_sup_table(s, samp)
        after, _ = eval_sup_table(kept, samp)
        assert np.abs(before - after).max() <= 1e-12

    def test_never_empties(self):
        m = pbvi_toy()
        s = aset(m, [0.0, 0.0])
        assert prune(s, toy_sample(m)).n_fns == 1


class TestSolveSets:
    def test_zero_reward_stays_zero(self):
        m = dataclasses.replace(pbvi_toy(), reward=np.zeros((2, 2)))
        res = solve_sets(m, toy_sample(m), epsilon=1e-3)
        assert res.iterations == 1
        assert res.final_set_size == 1
        assert len(res.sets) == 1
        np.testing.assert_array_equal(res.sets[0].values, [[0.0, 0.0]])
        np.testing.assert_array_equal(res.table.values, np.zeros(5))

    def test_termination_iteration_formula(self):
        m = revealing_toy()
        s = reachability_tree(m, uniform_belief(m), depth=1)
        eps = 1e-3
        res = solve_sets(m, s, epsilon=eps)
        c = certify(m)
        want = int(np.ceil(np.log(eps * (1 - c.gamma) / c.r_bar) / np.log(c.gamma)))
        assert res.iterations == max(want, 1)
        assert res.error_bound == c.apriori_bound(res.iterations)

    def test_cross_solver_agreement(self):
        m = revealing_toy()
        s = reachability_tree(m, uniform_belief(m), depth=1)
        vi = solve_vi(m, s, epsilon=1e-3)
        st = solve_sets(m, s, epsilon=1e-3)
        gap = np.abs(vi.value.values - st.table.values).max()
        assert gap <= 2 * (vi.error_bound + st.error_bound)

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_max_iters_cuts_short_without_raising(self, algorithm):
        m = revealing_toy()
        s = reachability_tree(m, uniform_belief(m), depth=1)
        res = solve_sets(m, s, epsilon=1e-6, max_iters=3, algorithm=algorithm)
        assert not res.converged
        assert res.iterations == len(res.sup_diffs) == len(res.set_sizes) == 3
        assert res.error_bound == res.constants.apriori_bound(3)
        assert solve_sets(m, s, epsilon=1e-6, algorithm=algorithm).converged

    @pytest.mark.parametrize("solver", ["vi", "alg1", "alg2"])
    def test_negative_max_iters_rejected_before_any_work(self, solver, monkeypatch):
        m = revealing_toy()
        s = reachability_tree(m, uniform_belief(m), depth=1)

        def no_work(model):
            raise AssertionError("the solver started before checking max_iters")

        monkeypatch.setattr(conjugate, "certify", no_work)
        monkeypatch.setattr(value_iteration, "certify", no_work)
        with pytest.raises(SolverFailure, match="max_iters"):
            if solver == "vi":
                solve_vi(m, s, max_iters=-3)
            else:
                solve_sets(m, s, max_iters=-3, algorithm=solver)

    @pytest.mark.parametrize("algorithm", ["alg1", "alg2"])
    def test_zero_iterations_return_the_zero_start(self, algorithm):
        m = pbvi_toy()
        s = reachability_tree(m, uniform_belief(m), depth=2)
        res = solve_sets(m, s, epsilon=1e-3, max_iters=0, algorithm=algorithm)
        vi = solve_vi(m, s, epsilon=1e-3, max_iters=0)
        assert res.iterations == 0 and not res.converged and res.sup_diffs == ()
        np.testing.assert_array_equal(res.table.values, vi.value.values)
        assert tuple(int(a) for a in res.chosen_action) == vi.selector.actions
        assert res.final_set_size == (1 if algorithm == "alg1" else m.n_actions)

    def test_alg2_stays_within_certificates(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        r1 = solve_sets(m, samp, epsilon=1e-2, algorithm="alg1")
        r2 = solve_sets(m, samp, epsilon=1e-2, algorithm="alg2")
        assert r1.algorithm == "alg1" and r2.algorithm == "alg2"
        assert np.abs(r1.table.values - r2.table.values).max() <= (
            r1.error_bound + r2.error_bound
        )
        assert len(r2.sets) == m.n_actions

    def test_set_sizes_and_sup_diffs_are_recorded(self):
        m = pbvi_toy()
        res = solve_sets(m, toy_sample(m), epsilon=1e-2)
        assert len(res.set_sizes) == res.iterations
        assert len(res.sup_diffs) == res.iterations
        assert res.sup_diffs[-1] <= res.error_bound


class TestEnvelopeProperties:
    def test_convex_in_the_belief(self):
        m = pbvi_toy()
        env = random_envelope(m, 5, seed=14)
        rng = np.random.default_rng(15)
        for _ in range(200):
            p1, p2 = rng.uniform(0, 1, 2)
            for kappa in (0.25, 0.5, 0.75):
                mid, _ = eval_sup(env, belief(m, kappa * p1 + (1 - kappa) * p2))
                combo = kappa * eval_sup(env, belief(m, p1))[0] + (1 - kappa) * eval_sup(
                    env, belief(m, p2)
                )[0]
                assert mid <= combo + 1e-12

    def test_lipschitz_in_the_belief(self):
        m = pbvi_toy()
        env = random_envelope(m, 5, seed=16)
        rng = np.random.default_rng(17)
        for _ in range(200):
            mu, nu = belief(m, rng.uniform()), belief(m, rng.uniform())
            gap = abs(eval_sup(env, mu)[0] - eval_sup(env, nu)[0])
            assert gap <= env.max_lip * w1(mu, nu) + 1e-9

    def test_values_monotone_when_rewards_nonnegative(self):
        m = absorbing_unit_reward_toy()
        samp = reachability_tree(m, uniform_belief(m), depth=2)
        cur = zero_alpha_set(m)
        prev = np.zeros(samp.n)
        for _ in range(8):
            res = set_backup(m, cur, samp)
            assert (res.table.values >= prev - 1e-12).all()
            prev = res.table.values
            cur = res.new_sets[0]

    def test_returned_fns_certified_below_vi_value(self):
        m = revealing_toy()
        s = reachability_tree(m, uniform_belief(m), depth=1)
        vi = solve_vi(m, s, epsilon=1e-3)
        st = solve_sets(m, s, epsilon=1e-3)
        for fn_set in st.sets:
            for f in fn_set.values:
                for b, mu in enumerate(s.beliefs):
                    lhs = float(np.dot(f, mu.weights)) - st.error_bound
                    assert lhs <= vi.value.values[b] + vi.error_bound + 1e-12


class TestLipschitzGrowth:
    def test_kernel_constants_shapes(self):
        m = pbvi_toy()
        c1, c0 = lip_growth_constants(m)
        assert c1.shape == c0.shape == (m.n_actions,)
        assert (c1 >= 0).all() and (c0 >= 0).all()

    def test_measured_growth_within_bound(self):
        for model, samp in (
            (pbvi_toy(), toy_sample(pbvi_toy())),
            (revealing_toy(), None),
        ):
            if samp is None:
                samp = reachability_tree(model, uniform_belief(model), depth=1)
            consts = lip_growth_constants(model)
            cur = zero_alpha_set(model)
            for _ in range(certify(model).iterations_for(1e-2)):
                res = set_backup(model, cur, samp)
                measured, bound = measured_growth(model, cur.values, res.backed, consts)
                assert measured <= bound + 1e-9
                cur = prune(res.new_sets[0], samp)
