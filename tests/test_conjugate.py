"""Conjugate machinery: envelopes, duality, and the set-iteration solver."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import bellman_backup_point, classical_pbvi_backup
from wpomdp.conjugate import (
    AlphaSet,
    conjugate_rho,
    eval_sup,
    eval_sup_table,
    lip_growth_constants,
    normalize_null_level,
    prune,
    q_set_backup,
    second_conjugate,
    set_backup,
    solve_sets,
    zero_alpha_set,
)
from wpomdp.errors import EmptySample
from wpomdp.filtering import expected_reward
from wpomdp.measures import LipschitzFn, make_measure, w1
from wpomdp.model import certify
from wpomdp.sampling import reachability_tree, user_sample
from wpomdp.synthetic import (
    absorbing_unit_reward_toy,
    pbvi_toy,
    revealing_toy,
    uniform_belief,
)
from wpomdp.value_iteration import solve_vi


def belief(model, p):
    return make_measure(model.state_grid, [p, 1.0 - p])


def toy_sample(model, ps=(1.0, 0.75, 0.5, 0.25, 0.0)):
    return user_sample([belief(model, p) for p in ps])


def fn(model, values):
    return LipschitzFn(model.state_grid, values)


def random_envelope(model, n_fns, seed):
    rng = np.random.default_rng(seed)
    return AlphaSet(tuple(fn(model, rng.uniform(-2, 2, model.n_states)) for _ in range(n_fns)))


class TestAlphaSet:
    def test_needs_at_least_one_fn(self):
        with pytest.raises(EmptySample):
            AlphaSet(())

    def test_matrix_and_max_lip(self):
        m = pbvi_toy()
        s = AlphaSet((fn(m, [0.0, 1.0]), fn(m, [2.0, -1.0])))
        np.testing.assert_array_equal(s.matrix(), [[0, 1], [2, -1]])
        assert s.max_lip == 3.0  # discrete metric: max - min

    def test_zero_set(self):
        m = pbvi_toy()
        z = zero_alpha_set(m, tag="per_action(0)")
        assert z.n_fns == 1
        assert z.tag == "per_action(0)"
        np.testing.assert_array_equal(z.matrix(), [[0.0, 0.0]])


class TestEvalSup:
    def test_singleton_is_plain_integral(self):
        m = pbvi_toy()
        s = AlphaSet((fn(m, [1.0, -1.0]),))
        v, i = eval_sup(s, belief(m, 0.25))
        assert_allclose(v, 0.25 - 0.75, atol=1e-15)
        assert i == 0

    def test_translation_always_wins(self):
        m = pbvi_toy()
        s = AlphaSet((fn(m, [1.0, -1.0]), fn(m, [2.0, 0.0])))
        for p in (0.0, 0.3, 1.0):
            v, i = eval_sup(s, belief(m, p))
            assert i == 1

    def test_ties_go_to_lowest_index(self):
        m = pbvi_toy()
        s = AlphaSet((fn(m, [0.5, 0.5]), fn(m, [0.5, 0.5])))
        assert eval_sup(s, belief(m, 0.4))[1] == 0

    def test_crossing_linear_envelope(self):
        # int f1 dmu = p and int f2 dmu = 2(1-p) cross at p = 2/3: the
        # envelope is the piecewise-linear max with a kink right there
        m = pbvi_toy()
        s = AlphaSet((fn(m, [1.0, 0.0]), fn(m, [0.0, 2.0])))
        for p in (0.9, 0.75):
            v, i = eval_sup(s, belief(m, p))
            assert i == 0 and np.isclose(v, p)
        for p in (0.5, 0.1):
            v, i = eval_sup(s, belief(m, p))
            assert i == 1 and np.isclose(v, 2 * (1 - p))
        v, _ = eval_sup(s, belief(m, 2.0 / 3.0))
        assert_allclose(v, 2.0 / 3.0, atol=1e-12)

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
        vals = {1.0: 0.3, 0.75: 0.1, 0.5: 0.0, 0.25: 0.2, 0.0: 0.5}
        ev = lambda mu: vals[round(float(mu.weights[0]), 2)]
        assert conjugate_rho(fn(m, [0.0, 0.0]), ev, samp) == 0.0

    def test_translation_shifts_exactly(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        env = random_envelope(m, 3, seed=1)
        ev = lambda mu: eval_sup(env, mu)[0]
        f = fn(m, [0.4, -0.7])
        base = conjugate_rho(f, ev, samp)
        for c in (-2.0, 0.5, 3.25):
            shifted = conjugate_rho(fn(m, f.values + c), ev, samp)
            assert_allclose(shifted, base + c, atol=1e-12)

    def test_envelope_member_never_positive(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        env = random_envelope(m, 4, seed=2)
        ev = lambda mu: eval_sup(env, mu)[0]
        for f in env.fns:
            assert conjugate_rho(f, ev, samp) <= 1e-12

    def test_monotone_in_the_function(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        env = random_envelope(m, 3, seed=3)
        ev = lambda mu: eval_sup(env, mu)[0]
        rng = np.random.default_rng(4)
        for _ in range(25):
            f = rng.uniform(-2, 2, 2)
            g = f + rng.uniform(0, 1, 2)
            assert conjugate_rho(fn(m, f), ev, samp) <= conjugate_rho(fn(m, g), ev, samp) + 1e-12


class TestSecondConjugate:
    def test_linear_self_duality(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        f = fn(m, [0.8, -0.4])
        ev = lambda mu: float(np.dot(f.values, mu.weights))
        for p in (1.0, 0.5, 0.0):
            got = second_conjugate(belief(m, p), (f,), ev, samp)
            assert_allclose(got, ev(belief(m, p)), atol=1e-12)

    def test_weak_duality_on_sample(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        env = random_envelope(m, 5, seed=5)
        ev = lambda mu: eval_sup(env, mu)[0]
        cands = random_envelope(m, 7, seed=6).fns
        for mu in samp.beliefs:
            assert second_conjugate(mu, cands, ev, samp) <= ev(mu) + 1e-9

    def test_envelope_self_duality(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        env = random_envelope(m, 3, seed=7)
        ev = lambda mu: eval_sup(env, mu)[0]
        for mu in samp.beliefs:
            got = second_conjugate(mu, env.fns, ev, samp)
            assert_allclose(got, ev(mu), atol=1e-9)

    def test_empty_candidates_rejected(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        with pytest.raises(EmptySample):
            second_conjugate(belief(m, 0.5), (), lambda mu: 0.0, samp)


class TestNormalizeNullLevel:
    def test_already_normalized_is_unchanged(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        env = random_envelope(m, 3, seed=8)
        ev = lambda mu: eval_sup(env, mu)[0]
        f = env.fns[0]
        rho = conjugate_rho(f, ev, samp)
        g = normalize_null_level(f, ev, samp)
        np.testing.assert_allclose(g.values, f.values - rho, atol=1e-15)
        h = normalize_null_level(g, ev, samp)
        np.testing.assert_array_equal(h.values, g.values)

    def test_translation_comes_back(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        env = random_envelope(m, 3, seed=9)
        ev = lambda mu: eval_sup(env, mu)[0]
        base = normalize_null_level(env.fns[1], ev, samp)
        lifted = fn(m, base.values + 5.0)
        back = normalize_null_level(lifted, ev, samp)
        assert_allclose(back.values, base.values, atol=1e-12)

    def test_shifted_fn_touches_envelope_from_below(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        env = random_envelope(m, 4, seed=10)
        ev = lambda mu: eval_sup(env, mu)[0]
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = fn(m, rng.uniform(-3, 3, 2))
            g = normalize_null_level(f, ev, samp)
            assert abs(conjugate_rho(g, ev, samp)) <= 1e-12
            gaps = [ev(mu) - float(np.dot(g.values, mu.weights)) for mu in samp.beliefs]
            assert min(gaps) >= -1e-12  # below everywhere on the sample
            assert min(gaps) <= 1e-12  # and touching at the argmax


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
        assert res.new_set.n_fns == 2  # five rows merge to the two distinct ones

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
            cur = res.new_set

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
            cur = res.new_set


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
        per = q_set_backup(one, (zero_alpha_set(one, tag="per_action(0)"),), samp)
        np.testing.assert_array_equal(plain.table.values, per.table.values)
        np.testing.assert_array_equal(plain.new_set.matrix(), per.new_sets[0].matrix())

    def test_agrees_with_plain_backup_for_three_sweeps(self):
        m = pbvi_toy()
        samp = toy_sample(m)
        cur1 = zero_alpha_set(m)
        cur2 = tuple(
            zero_alpha_set(m, tag=f"per_action({a})") for a in range(m.n_actions)
        )
        for _ in range(3):
            r1 = set_backup(m, cur1, samp)
            r2 = q_set_backup(m, cur2, samp)
            assert np.abs(r1.table.values - r2.table.values).max() <= 1e-12
            cur1, cur2 = r1.new_set, r2.new_sets

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
        cur = tuple(zero_alpha_set(dom, tag=f"per_action({a})") for a in range(2))
        for _ in range(3):
            res = q_set_backup(dom, cur, samp)
            assert set(res.chosen_action) == {0}
            cur = res.new_sets


class TestPrune:
    def test_translated_copy_dropped(self):
        m = pbvi_toy()
        s = AlphaSet((fn(m, [1.0, 1.0]), fn(m, [0.0, 0.0])))
        kept = prune(s, toy_sample(m))
        assert kept.n_fns == 1
        np.testing.assert_array_equal(kept.matrix(), [[1.0, 1.0]])

    def test_everything_useful_is_kept(self):
        m = pbvi_toy()
        s = AlphaSet((fn(m, [1.0, 0.0]), fn(m, [0.0, 2.0])))
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
        s = AlphaSet((fn(m, [0.0, 0.0]),))
        assert prune(s, toy_sample(m)).n_fns == 1


class TestSolveSets:
    def test_zero_reward_stays_zero(self):
        m = dataclasses.replace(pbvi_toy(), reward=np.zeros((2, 2)))
        res = solve_sets(m, toy_sample(m), epsilon=1e-3)
        assert res.iterations == 1
        assert res.final_set_size == 1
        np.testing.assert_array_equal(res.sets.matrix(), [[0.0, 0.0]])
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
            cur = res.new_set

    def test_returned_fns_certified_below_vi_value(self):
        m = revealing_toy()
        s = reachability_tree(m, uniform_belief(m), depth=1)
        vi = solve_vi(m, s, epsilon=1e-3)
        st = solve_sets(m, s, epsilon=1e-3)
        sets = st.sets if isinstance(st.sets, tuple) else (st.sets,)
        for aset in sets:
            for f in aset.fns:
                for b, mu in enumerate(s.beliefs):
                    lhs = float(np.dot(f.values, mu.weights)) - st.error_bound
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
            res = solve_sets(
                model, samp, epsilon=1e-2, max_iters=500, track_lip_growth=True
            )
            assert len(res.lip_growth) == res.iterations
            for measured, bound in res.lip_growth:
                assert measured <= bound + 1e-9
