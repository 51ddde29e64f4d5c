"""Linear-Gaussian reference model: construction and certification."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from wpomdp import kalman
from wpomdp.errors import DriftDerivationFailed, GridTooCoarse, ModelValidationError
from wpomdp.filtering import bayes_update
from wpomdp.kalman import (
    KalmanSpec,
    build_model,
    choose_weight,
    reference_spec,
    start_belief,
    tv_continuity_report,
)
from wpomdp.measures import make_measure
from wpomdp.model import certify, estimate_drift_beta, validate_reward_bound
from wpomdp.sampling import reachability_tree
from wpomdp.value_iteration import solve_vi


class TestSpecValidation:
    def test_reference_shape(self):
        spec = reference_spec()
        assert spec.n_actions == 3
        assert spec.feedback_sup == 0.5
        assert len(spec.state_points()) == 161

    def test_unit_gain_rejected(self):
        with pytest.raises(ModelValidationError):
            KalmanSpec(gains=(1.0,))
        with pytest.raises(ModelValidationError):
            KalmanSpec(gains=(0.3, -1.2))

    def test_positive_noise_scales(self):
        with pytest.raises(ModelValidationError):
            KalmanSpec(process_std=0.0)
        with pytest.raises(ModelValidationError):
            KalmanSpec(obs_std=-1.0)

    @pytest.mark.parametrize(
        "fields",
        [{"grid_step": 1e-320}, {"grid_lo": -1e308, "grid_hi": 1e308}],
        ids=["tiny_step", "huge_range"],
    )
    def test_no_finite_state_count_refused(self, fields):
        with pytest.raises(ModelValidationError, match="no finite state count"):
            KalmanSpec(**fields)

    @pytest.mark.parametrize(
        "fields",
        [{"grid_step": 1e-4}, {"grid_step": 1e-3}, {"n_obs_nodes": 10**7}],
        ids=["160001_states", "16001_states", "ten_million_nodes"],
    )
    def test_grid_beyond_physical_memory_refused(self, fields, monkeypatch):
        # the spec is refused on construction, before any (A, n, n) array
        monkeypatch.setattr(kalman, "_physical_memory", lambda: 8 * 2**30)
        with pytest.raises(ModelValidationError, match="physical memory"):
            KalmanSpec(**fields)

    @pytest.mark.parametrize(
        "fields", [{}, {"drift": 1.0, "grid_step": 0.2}, {"grid_step": 0.05}],
        ids=["reference", "drift", "step_0.05"],
    )
    def test_acceptance_specs_fit_in_8_gib(self, fields, monkeypatch):
        monkeypatch.setattr(kalman, "_physical_memory", lambda: 8 * 2**30)
        KalmanSpec(**fields)

    def test_grid_and_discount_bounds(self):
        with pytest.raises(ModelValidationError):
            KalmanSpec(discount=1.0)
        with pytest.raises(ModelValidationError):
            KalmanSpec(grid_lo=2.0, grid_hi=-2.0)
        with pytest.raises(ModelValidationError):
            KalmanSpec(grid_step=0.0)
        with pytest.raises(ModelValidationError):
            KalmanSpec(n_obs_nodes=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_obs_nodes", 2.5), ("n_obs_nodes", 33.0), ("n_obs_nodes", True),
            ("process_std", "1"), ("drift", "x"), ("grid_lo", None), ("obs_pad_stds", "5"),
            ("drift", float("nan")), ("obs_std", float("inf")),
            # each gain is checked like a scalar field
            ("gains", (float("nan"), 0.5)), ("gains", (float("inf"),)), ("gains", (False, 0.5)),
            ("gains", (True,)), ("gains", ("x", 0.5)), ("gains", (None,)), ("gains", "ab"),
            # an int too large for a float is not finite
            pytest.param("drift", 10**400, id="drift-401-digits"),
            pytest.param("gains", (10**400, 0.1), id="gains-401-digits"),
        ],
    )
    def test_mistyped_fields(self, field, value):
        with pytest.raises(ModelValidationError, match=field):
            KalmanSpec(**{field: value})

    def test_integer_gains_accepted(self):
        assert KalmanSpec(gains=[0, 0.5]).feedback_sup == 0.5

    def test_default_tables(self):
        spec = reference_spec(grid_step=1.0)
        xs = spec.state_points()
        np.testing.assert_array_equal(build_model(spec).reward, [-np.abs(xs)] * 3)
        np.testing.assert_array_equal(spec.mean_after(xs, 2), 0.5 * xs)


class TestChooseWeight:
    def test_state_free_dynamics(self):
        # no feedback: the slack peaks at the origin, so K is exactly sigma
        spec = KalmanSpec(gains=(0.0,), process_std=0.7, grid_step=0.5)
        k, beta, big_k = choose_weight(spec)
        assert_allclose(big_k, 0.7, atol=1e-12)
        assert_allclose(k, (beta - 1.0) / 0.7, atol=1e-15)

    def test_beta_strictly_inside_the_admissible_interval(self):
        k, beta, _ = choose_weight(reference_spec())
        assert_allclose(beta, 0.5 * (1.0 + 1.0 / 0.9), atol=1e-15)
        assert 1.0 < beta < 1.0 / 0.9

    def test_reference_constants(self):
        k, beta, big_k = choose_weight(reference_spec())
        assert_allclose(big_k, 1.0, atol=1e-12)
        assert_allclose(k, 1.0 / 18.0, atol=1e-12)

    def test_built_model_drift_stays_below_target(self):
        spec = reference_spec()
        k, beta, _ = choose_weight(spec)
        model = build_model(spec)
        assert estimate_drift_beta(model) <= beta + 1e-6

    def test_degenerate_slack_is_caught(self):
        # grid far from the anchor: the slack is negative everywhere
        spec = KalmanSpec(gains=(1e-6,), process_std=0.1, grid_lo=5.0, grid_hi=8.0, grid_step=0.5)
        with pytest.raises(DriftDerivationFailed):
            choose_weight(spec)


class TestBuildModel:
    def test_state_free_rows_identical(self):
        m = build_model(KalmanSpec(gains=(0.0,), grid_step=0.5))
        assert np.abs(m.trans[0] - m.trans[0][0]).max() < 1e-15

    def test_small_noise_rows_peak_at_the_pushed_mean(self):
        spec = KalmanSpec(gains=(-0.5, 0.5), process_std=0.6, grid_step=0.5)
        m = build_model(spec)
        pts = spec.state_points()
        for a in range(2):
            nearest = np.abs(pts[None, :] - spec.mean_after(pts, a)[:, None]).argmin(axis=1)
            np.testing.assert_array_equal(m.trans[a].argmax(axis=1), nearest)

    def test_truncated_range_rejected(self):
        with pytest.raises(GridTooCoarse):
            build_model(KalmanSpec(grid_lo=-3.0, grid_hi=3.0))

    def test_underflowing_rows_are_caught(self):
        # rows whose mass underflows miss all of it: the one row-mass rule
        spec = KalmanSpec(gains=(0.5,), process_std=1e-3, grid_step=1.0)
        with pytest.raises(GridTooCoarse):
            build_model(spec)

    def test_discretises_once(self, monkeypatch):
        calls = mock.Mock(wraps=kalman._transition_rows)
        monkeypatch.setattr(kalman, "_transition_rows", calls)
        choose_weight(reference_spec())
        assert calls.call_count == 0
        build_model(reference_spec())
        assert calls.call_count == 1

    def test_drift_above_the_target_is_refused(self, monkeypatch):
        # the check runs on the built model: a target below its drift fails
        k, _, big_k = choose_weight(reference_spec())
        monkeypatch.setattr(kalman, "choose_weight", lambda spec: (k, 1.0, big_k))
        with pytest.raises(DriftDerivationFailed, match="measured drift"):
            build_model(reference_spec())

    @pytest.mark.parametrize("drift", [0.0, 1.0])
    @pytest.mark.parametrize("hi", [8, 16, 32])
    def test_truncation_widths_keep_the_certificate(self, hi, drift):
        spec = KalmanSpec(drift=drift, grid_lo=-hi, grid_hi=hi, grid_step=0.5,
                          n_obs_nodes=1 + 4 * hi)
        k, beta, _ = choose_weight(spec)
        c = certify(build_model(spec))
        assert c.r_bar < 1.0 / k
        assert c.gamma <= spec.discount * (beta + kalman._DRIFT_SLACK)

    def test_reference_model_passes_the_validators(self):
        m = build_model(reference_spec())
        r_bar = validate_reward_bound(m)
        assert np.isfinite(r_bar)
        c = certify(m)
        assert c.gamma < 1.0
        assert m.n_states == 161 and m.n_actions == 3 and m.n_obs == 33

    def test_quadrature_spans_the_padded_range(self):
        m = build_model(reference_spec())
        nodes = m.obs_quadrature.nodes
        assert nodes.min() > -10.5 and nodes.max() < 10.5
        assert_allclose(np.diff(nodes), nodes[1] - nodes[0], atol=1e-12)

    @pytest.mark.parametrize("step", [0.1, 1.0])
    def test_start_belief_is_the_centred_normal(self, step):
        m = build_model(reference_spec(grid_step=step))
        pts = m.state_grid.points
        want = make_measure(m.state_grid, np.exp(-0.5 * (pts / 2.0) ** 2))
        assert start_belief(m).weights.tobytes() == want.weights.tobytes()

    def test_certificate_across_resolutions(self):
        for step in (0.2, 0.1, 0.05):
            spec = reference_spec(grid_step=step)
            _, beta, _ = choose_weight(spec)
            assert estimate_drift_beta(build_model(spec)) <= beta + 1e-6


class TestTvContinuity:
    def test_three_ladders_decay_below_threshold(self):
        reports = tv_continuity_report(reference_spec())
        assert len(reports) == 3
        for rep in reports:
            assert rep.is_monotone_decreasing()
            assert rep.tv_gaps[0] > 0.1
            assert rep.tv_gaps[-1] < 1e-3
            ratios = np.diff(np.log(np.asarray(rep.distances)))
            assert_allclose(ratios, -np.log(2.0), atol=1e-12)

    @pytest.mark.parametrize(
        "spec", [reference_spec(), KalmanSpec(drift=1.0, grid_step=0.2)], ids=["reference", "drift"]
    )
    def test_matches_the_probe_model_oracle_bit_for_bit(self, spec):
        got = [(rep.distances, rep.tv_gaps) for rep in tv_continuity_report(spec)]
        want = oracles.tv_ladders(spec)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_gaps_track_the_closed_form(self):
        import math

        # 33 midpoint nodes track the closed-form Gaussian TV to a few
        # parts in a thousand; the kink in |Δdensity| caps the accuracy
        rep = tv_continuity_report(reference_spec())[0]  # anchor 0
        for d, g in zip(rep.distances, rep.tv_gaps):
            want = math.erf(d / (2.0 * 0.5 * math.sqrt(2.0)))
            assert abs(g - want) < 5e-3


class TestFilterConcentration:
    def test_posterior_spread_shrinks_to_steady_state(self):
        m = build_model(reference_spec())
        pts = m.state_grid.points
        mu = make_measure(m.state_grid, np.ones(m.n_states))
        node0 = int(np.abs(m.obs_quadrature.nodes).argmin())
        stds = []
        for _ in range(6):
            mean = float(pts @ mu.weights)
            stds.append(float(np.sqrt(pts**2 @ mu.weights - mean**2)))
            mu = bayes_update(m, mu, 2, node0)
        assert all(stds[i + 1] < stds[i] for i in range(5))
        # reaches the classical steady-state posterior spread for
        # gain 0.5, process std 1, observation std 0.5
        assert abs(stds[-1] - 0.4494) < 5e-3


class TestTwoSidedReward:
    def test_a_replaced_reward_is_certified_and_solved(self):
        # -|x| + 3 g_a x: unbounded on both sides as the grid widens
        spec = KalmanSpec(grid_step=0.2)
        m = build_model(spec)
        pts = m.state_grid.points
        reward = -np.abs(pts) + 3.0 * np.array(spec.gains)[:, None] * pts
        m = dataclasses.replace(m, reward=reward)
        assert m.reward.tobytes() == reward.tobytes()
        assert (m.reward.min(), m.reward.max()) == (-20.0, 4.0)
        assert certify(m).gamma < 1.0
        res = solve_vi(m, reachability_tree(m, start_belief(m), depth=1, cap=60), epsilon=0.05)
        assert res.converged
        assert len(set(res.selector.actions)) > 1
