"""Measure layer: W1 distances, duality, weights, Lipschitz integration."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from wpomdp.errors import (
    DimensionMismatch,
    EmptySample,
    MetricKindMismatch,
    NonPositiveMass,
    NotOneLipschitz,
)
from wpomdp.measures import (
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
from wpomdp.sampling import _embed_rows
from wpomdp.transport import solve_transport


def line_grid(*points):
    return StateGrid(np.asarray(points, dtype=float))


@pytest.fixture
def grid02():
    return line_grid(0.0, 1.0, 2.0)


# --------------------------------------------------------------------------
# construction and validation
# --------------------------------------------------------------------------

class TestStateGrid:
    def test_points_must_increase(self):
        with pytest.raises(DimensionMismatch):
            line_grid(0.0, 0.0, 1.0)
        with pytest.raises(DimensionMismatch):
            line_grid(1.0, 0.0)

    def test_unknown_metric_kind(self):
        with pytest.raises(MetricKindMismatch):
            StateGrid(np.arange(3.0), metric_kind="hamming")

    def test_table_requires_symmetry(self):
        t = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(MetricKindMismatch):
            StateGrid(np.arange(2.0), metric_kind=EXPLICIT_TABLE, distance_table=t)

    def test_table_requires_triangle_inequality(self):
        # d(0,2)=5 but the path through 1 costs 2
        t = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(MetricKindMismatch):
            StateGrid(np.arange(3.0), metric_kind=EXPLICIT_TABLE, distance_table=t)

    def test_table_requires_positive_distances_between_distinct_points(self):
        # a metric table, except that points 0 and 1 sit at distance zero
        t = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(MetricKindMismatch):
            StateGrid(np.arange(3.0), metric_kind=EXPLICIT_TABLE, distance_table=t)

    def test_valid_table_accepted(self):
        t = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        g = StateGrid(np.arange(3.0), metric_kind=EXPLICIT_TABLE, distance_table=t)
        assert_allclose(g.pairwise(), t)

    def test_discrete_pairwise_is_zero_one(self):
        g = StateGrid(np.arange(4.0), metric_kind=DISCRETE)
        assert_allclose(g.pairwise(), 1.0 - np.eye(4))

    def test_index_of_requires_exact_point(self):
        g = line_grid(0.0, 0.5, 1.0)
        assert g.index_of(0.5) == 1
        with pytest.raises(DimensionMismatch):
            g.index_of(0.25)


class TestMakeMeasure:
    def test_normalizes(self, grid02):
        mu = make_measure(line_grid(0.0, 1.0), [2.0, 2.0])
        assert_allclose(mu.weights, [0.5, 0.5])

    def test_single_atom(self):
        mu = make_measure(line_grid(0.0), [5.0])
        assert_allclose(mu.weights, [1.0])

    def test_negative_entries_clamped(self):
        mu = make_measure(line_grid(0.0, 1.0), [1.0, -1.0])
        assert_allclose(mu.weights, [1.0, 0.0])

    def test_nonpositive_total_rejected(self, grid02):
        with pytest.raises(NonPositiveMass):
            make_measure(grid02, [0.0, 0.0, 0.0])
        with pytest.raises(NonPositiveMass):
            make_measure(grid02, [-1.0, -2.0, 0.0])

    def test_nonfinite_rejected(self, grid02):
        with pytest.raises(NonPositiveMass):
            make_measure(grid02, [1.0, np.nan, 0.0])

    def test_length_mismatch(self, grid02):
        with pytest.raises(DimensionMismatch):
            make_measure(grid02, [1.0, 1.0])

    def test_weights_frozen(self, grid02):
        mu = make_measure(grid02, [1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            mu.weights[0] = 0.3

    def test_moments(self):
        mu = make_measure(line_grid(0.0, 2.0), [0.5, 0.5])
        assert_allclose(mu.mean(), 1.0)
        assert_allclose(mu.variance(), 1.0)


# --------------------------------------------------------------------------
# Wasserstein-1
# --------------------------------------------------------------------------

class TestW1OneD:
    def test_dirac_pair(self, grid02):
        assert_allclose(w1_1d(dirac(grid02, 0), dirac(grid02, 1)), 1.0)

    def test_identity(self, grid02):
        mu = make_measure(grid02, [0.2, 0.3, 0.5])
        assert w1_1d(mu, mu) == 0.0

    def test_split_pair_against_middle_dirac(self, grid02):
        # frozen from the brute-force 2x1 transportation LP: both half-masses
        # travel distance 1
        mu = make_measure(grid02, [0.5, 0.0, 0.5])
        assert_allclose(w1_1d(mu, dirac(grid02, 1)), 1.0)

    def test_cross_grid_supports(self):
        mu = dirac(line_grid(0.0), 0)
        nu = dirac(line_grid(2.5), 0)
        assert_allclose(w1_1d(mu, nu), 2.5)

    def test_rejects_finite_metric(self):
        g = StateGrid(np.arange(2.0), metric_kind=DISCRETE)
        with pytest.raises(MetricKindMismatch):
            w1_1d(dirac(g, 0), dirac(g, 1))


class TestW1Lp:
    def test_discrete_dirac_pair(self):
        g = StateGrid(np.arange(3.0), metric_kind=DISCRETE)
        assert_allclose(w1_lp(dirac(g, 0), dirac(g, 2)), 1.0)

    def test_identity(self, grid02):
        mu = make_measure(grid02, [0.1, 0.6, 0.3])
        assert_allclose(w1_lp(mu, mu), 0.0, atol=1e-12)

    def test_matches_vertex_enumeration(self):
        """Optimality oracle: enumerate all transportation-polytope vertices."""
        rng = np.random.default_rng(7)
        pts = np.array([-1.0, 0.0, 0.5, 2.0])
        g = line_grid(*pts)
        for _ in range(25):
            mu = make_measure(g, rng.dirichlet(np.ones(4)))
            nu = make_measure(g, rng.dirichlet(np.ones(4)))
            xs_m = pts[mu.support]
            xs_n = pts[nu.support]
            cost = np.abs(xs_m[:, None] - xs_n[None, :])
            want = oracles.transport_cost_by_vertex_enumeration(
                mu.weights[mu.support], nu.weights[nu.support], cost
            )
            assert_allclose(w1_lp(mu, nu), want, atol=1e-9)

    def test_matches_vertex_enumeration_on_table_metric(self):
        t = np.array(
            [[0.0, 1.0, 1.5], [1.0, 0.0, 1.0], [1.5, 1.0, 0.0]]
        )
        g = StateGrid(np.arange(3.0), metric_kind=EXPLICIT_TABLE, distance_table=t)
        rng = np.random.default_rng(11)
        for _ in range(25):
            mu = make_measure(g, rng.dirichlet(np.ones(3)))
            nu = make_measure(g, rng.dirichlet(np.ones(3)))
            cost = t[np.ix_(mu.support, nu.support)]
            want = oracles.transport_cost_by_vertex_enumeration(
                mu.weights[mu.support], nu.weights[nu.support], cost
            )
            assert_allclose(w1_lp(mu, nu), want, atol=1e-9)

    def test_discrete_metric_equals_total_variation(self):
        rng = np.random.default_rng(3)
        g = StateGrid(np.arange(5.0), metric_kind=DISCRETE)
        for _ in range(25):
            mu = make_measure(g, rng.dirichlet(np.ones(5)))
            nu = make_measure(g, rng.dirichlet(np.ones(5)))
            assert_allclose(
                w1_lp(mu, nu), oracles.tv_distance(mu.weights, nu.weights), atol=1e-9
            )

    def test_finite_metrics_need_shared_grid(self):
        a = StateGrid(np.arange(2.0), metric_kind=DISCRETE)
        b = StateGrid(np.arange(3.0), metric_kind=DISCRETE)
        with pytest.raises(MetricKindMismatch):
            w1_lp(dirac(a, 0), dirac(b, 1))

    def test_dispatcher_routes_by_metric(self, grid02):
        mu = make_measure(grid02, [0.5, 0.0, 0.5])
        assert_allclose(w1(mu, dirac(grid02, 1)), 1.0)
        g = StateGrid(np.arange(2.0), metric_kind=DISCRETE)
        assert_allclose(w1(dirac(g, 0), dirac(g, 1)), 1.0)


class TestTransportSimplex:
    """Direct checks of the LP core, independent of the measure wrappers."""

    def test_rectangular_problem(self):
        cost = np.array([[1.0, 3.0, 5.0], [4.0, 1.0, 0.5]])
        plan, value = solve_transport([0.6, 0.4], [0.3, 0.3, 0.4], cost)
        want = oracles.transport_cost_by_vertex_enumeration(
            [0.6, 0.4], [0.3, 0.3, 0.4], cost
        )
        assert_allclose(value, want, atol=1e-12)
        assert_allclose(plan.sum(axis=1), [0.6, 0.4])
        assert_allclose(plan.sum(axis=0), [0.3, 0.3, 0.4])

    def test_degenerate_equal_masses(self):
        # northwest corner exhausts row and column simultaneously
        cost = np.array([[0.0, 2.0], [2.0, 0.0]])
        _, value = solve_transport([0.5, 0.5], [0.5, 0.5], cost)
        assert_allclose(value, 0.0, atol=1e-12)

    def test_mass_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            solve_transport([1.0], [0.5], np.zeros((1, 1)))

    def test_random_problems_match_enumeration(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            a = rng.dirichlet(np.ones(m))
            b = rng.dirichlet(np.ones(n))
            cost = rng.uniform(0.0, 3.0, (m, n))
            want = oracles.transport_cost_by_vertex_enumeration(a, b, cost)
            _, got = solve_transport(a, b, cost)
            assert_allclose(got, want, atol=1e-9)


# --------------------------------------------------------------------------
# Kantorovich-Rubinstein duality
# --------------------------------------------------------------------------

class TestKrDualGap:
    def test_constant_function_gives_zero(self, grid02):
        f = LipschitzFn(grid02, [2.0, 2.0, 2.0])
        mu = make_measure(grid02, [0.2, 0.5, 0.3])
        assert_allclose(kr_dual_gap(mu, dirac(grid02, 0), f), 0.0, atol=1e-15)

    def test_identity_function_attains_dirac_distance(self, grid02):
        f = LipschitzFn(grid02, grid02.points)
        assert_allclose(kr_dual_gap(dirac(grid02, 1), dirac(grid02, 0), f), 1.0)

    def test_rejects_steep_function(self, grid02):
        f = LipschitzFn(grid02, [0.0, 2.0, 0.0])
        with pytest.raises(NotOneLipschitz):
            kr_dual_gap(dirac(grid02, 0), dirac(grid02, 1), f)

    def test_weak_duality_random(self):
        rng = np.random.default_rng(23)
        g = line_grid(-2.0, -0.5, 0.0, 1.0, 3.0)
        for _ in range(40):
            mu = make_measure(g, rng.dirichlet(np.ones(5)))
            nu = make_measure(g, rng.dirichlet(np.ones(5)))
            vals = rng.uniform(-3.0, 3.0, 5)
            f = LipschitzFn(g, vals / max(LipschitzFn(g, vals).lip_const, 1.0))
            assert kr_dual_gap(mu, nu, f) <= w1_lp(mu, nu) + 1e-9

    def test_piecewise_linear_candidates_attain_optimum(self):
        """Strong duality on small supports.

        The optimal dual potential in 1-D can be taken piecewise linear with
        slopes +-1 and breakpoints at the support atoms, so enumerating those
        candidates must reach the LP value.
        """
        rng = np.random.default_rng(29)
        g = line_grid(-1.0, 0.5, 2.0)
        for _ in range(30):
            mu = make_measure(g, rng.dirichlet(np.ones(3)))
            nu = make_measure(g, rng.dirichlet(np.ones(3)))
            best = oracles.best_pl_dual_value(
                g.points[mu.support],
                mu.weights[mu.support],
                g.points[nu.support],
                nu.weights[nu.support],
            )
            assert_allclose(best, w1_lp(mu, nu), atol=1e-6)


# --------------------------------------------------------------------------
# weight functions and norms
# --------------------------------------------------------------------------

class TestWeighting:
    def test_anchor_has_unit_weight(self):
        g = line_grid(-1.0, 0.0, 3.0)
        wf = WeightFunction(x0=0.0, k=2.0)
        assert_allclose(tilde_w(wf, dirac(g, 1)), 1.0)

    def test_dirac_away_from_anchor(self):
        g = line_grid(0.0, 2.0)
        assert_allclose(tilde_w(WeightFunction(0.0, 1.0), dirac(g, 1)), 3.0)

    def test_mixture_is_linear(self):
        g = line_grid(0.0, 4.0)
        mu = make_measure(g, [0.5, 0.5])
        assert_allclose(tilde_w(WeightFunction(0.0, 0.5), mu), 2.0)

    def test_slope_must_be_positive(self):
        with pytest.raises(NonPositiveMass):
            WeightFunction(0.0, 0.0)
        with pytest.raises(NonPositiveMass):
            WeightFunction(0.0, -1.0)

    def test_weighted_norm_examples(self):
        g = line_grid(0.0, 2.0)
        wf = WeightFunction(0.0, 1.0)
        beliefs = [dirac(g, 0), dirac(g, 1)]  # tilde_w = 1, 3
        assert_allclose(weighted_norm([0.0, 0.0], beliefs, wf), 0.0)
        assert_allclose(weighted_norm([3.0], [dirac(g, 0)], wf), 3.0)
        assert_allclose(weighted_norm([2.0, 6.0], beliefs, wf), 2.0)

    def test_weighted_norm_empty_sample(self):
        with pytest.raises(EmptySample):
            weighted_norm([], [], WeightFunction(0.0, 1.0))


# --------------------------------------------------------------------------
# Lipschitz functions and integration
# --------------------------------------------------------------------------

class TestLipschitzFn:
    def test_lip_const_1d_uses_adjacent_gaps(self):
        g = line_grid(0.0, 1.0, 3.0)
        f = LipschitzFn(g, [0.0, 2.0, 2.5])
        assert_allclose(f.lip_const, 2.0)

    def test_lip_const_discrete(self):
        g = StateGrid(np.arange(3.0), metric_kind=DISCRETE)
        f = LipschitzFn(g, [0.0, 5.0, 1.0])
        assert_allclose(f.lip_const, 5.0)

    def test_lip_const_table(self):
        t = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        g = StateGrid(np.arange(3.0), metric_kind=EXPLICIT_TABLE, distance_table=t)
        f = LipschitzFn(g, [0.0, 0.5, 3.0])
        assert_allclose(f.lip_const, 2.5)  # |3-0.5| / d(1,2)

    def test_interpolation_and_extrapolation(self):
        g = line_grid(0.0, 2.0)
        f = LipschitzFn(g, [0.0, 4.0])
        assert_allclose(f.eval_at([1.0]), [2.0])
        # constant beyond the grid ends
        assert_allclose(f.eval_at([-5.0, 7.0]), [0.0, 4.0])

    def test_finite_metric_requires_exact_points(self):
        g = StateGrid(np.arange(3.0), metric_kind=DISCRETE)
        f = LipschitzFn(g, [1.0, 2.0, 3.0])
        assert_allclose(f.eval_at([2.0, 0.0]), [3.0, 1.0])
        with pytest.raises(DimensionMismatch):
            f.eval_at([0.5])

    def test_from_callable(self):
        g = line_grid(-1.0, 0.0, 2.0)
        f = LipschitzFn.from_callable(g, abs)
        assert_allclose(f.values, [1.0, 0.0, 2.0])
        assert_allclose(f.lip_const, 1.0)

    def test_nonfinite_values_rejected(self, grid02):
        with pytest.raises(DimensionMismatch):
            LipschitzFn(grid02, [0.0, np.inf, 1.0])


class TestIntegrate:
    def test_constant(self, grid02):
        f = LipschitzFn(grid02, [4.0, 4.0, 4.0])
        mu = make_measure(grid02, [0.3, 0.3, 0.4])
        assert_allclose(integrate(f, mu), 4.0)

    def test_mean_of_split_pair(self, grid02):
        f = LipschitzFn(grid02, grid02.points)
        mu = make_measure(grid02, [0.5, 0.0, 0.5])
        assert_allclose(integrate(f, mu), 1.0)

    def test_dirac_evaluates(self, grid02):
        f = LipschitzFn(grid02, [7.0, -2.0, 0.1])
        assert_allclose(integrate(f, dirac(grid02, 1)), -2.0)

    def test_cross_grid_1d_interpolates(self):
        f = LipschitzFn(line_grid(0.0, 2.0), [0.0, 4.0])
        mu = dirac(line_grid(1.0), 0)
        assert_allclose(integrate(f, mu), 2.0)

    def test_cross_grid_finite_metric_rejected(self):
        a = StateGrid(np.arange(2.0), metric_kind=DISCRETE)
        b = StateGrid(np.arange(3.0), metric_kind=DISCRETE)
        f = LipschitzFn(a, [1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            integrate(f, dirac(b, 0))

    def test_linearity(self, grid02):
        rng = np.random.default_rng(31)
        mu = make_measure(grid02, rng.dirichlet(np.ones(3)))
        nu = make_measure(grid02, rng.dirichlet(np.ones(3)))
        f = LipschitzFn(grid02, rng.uniform(-1, 1, 3))
        h = LipschitzFn(grid02, rng.uniform(-1, 1, 3))
        both = LipschitzFn(grid02, 2.0 * f.values + 3.0 * h.values)
        assert_allclose(
            integrate(both, mu), 2.0 * integrate(f, mu) + 3.0 * integrate(h, mu)
        )
        mix = make_measure(grid02, 0.25 * mu.weights + 0.75 * nu.weights)
        assert_allclose(
            integrate(f, mix), 0.25 * integrate(f, mu) + 0.75 * integrate(f, nu)
        )


class TestCdfEmbedding:
    def test_l1_distance_equals_w1_on_shared_grid(self):
        rng = np.random.default_rng(37)
        for g in (line_grid(0.0, 0.5, 1.5, 2.0), StateGrid(np.arange(4.0), metric_kind=DISCRETE)):
            beliefs = [make_measure(g, rng.dirichlet(np.ones(4))) for _ in range(6)]
            emb = _embed_rows(g, np.stack([b.weights for b in beliefs]))
            for i in range(6):
                for j in range(6):
                    assert_allclose(
                        np.abs(emb[i] - emb[j]).sum(),
                        w1(beliefs[i], beliefs[j]),
                        atol=1e-12,
                    )


# --------------------------------------------------------------------------
# property tests
# --------------------------------------------------------------------------

POINT_POOL = np.arange(-8, 9) * 0.5

weight_vectors = st.lists(
    st.integers(0, 10), min_size=6, max_size=6
).filter(lambda w: sum(w) > 0)


@st.composite
def measure_pairs(draw):
    pts = sorted(draw(st.sets(st.sampled_from(list(POINT_POOL)), min_size=2, max_size=6)))
    g = line_grid(*pts)
    k = len(pts)
    wa = draw(st.lists(st.integers(0, 10), min_size=k, max_size=k))
    wb = draw(st.lists(st.integers(0, 10), min_size=k, max_size=k))
    assume(sum(wa) > 0 and sum(wb) > 0)
    return g, make_measure(g, wa), make_measure(g, wb)


@st.composite
def measure_triples(draw):
    g, mu, nu = draw(measure_pairs())
    wc = draw(st.lists(st.integers(0, 10), min_size=g.n, max_size=g.n))
    assume(sum(wc) > 0)
    return g, mu, nu, make_measure(g, wc)


@settings(deadline=None, max_examples=60)
@given(measure_pairs())
def test_w1_symmetry_and_separation(pair):
    _, mu, nu = pair
    d = w1_lp(mu, nu)
    assert d >= 0.0
    assert_allclose(d, w1_lp(nu, mu), atol=1e-9)
    if np.allclose(mu.weights, nu.weights, atol=1e-12):
        assert d <= 1e-9
    else:
        assert d > 1e-9  # distinct integer-ratio measures are well separated


@settings(deadline=None, max_examples=40)
@given(measure_triples())
def test_w1_triangle_inequality(triple):
    _, mu, nu, rho = triple
    assert w1_lp(mu, rho) <= w1_lp(mu, nu) + w1_lp(nu, rho) + 1e-9


@settings(deadline=None, max_examples=60)
@given(measure_pairs())
def test_w1_closed_form_agrees_with_lp(pair):
    _, mu, nu = pair
    assert_allclose(w1_1d(mu, nu), w1_lp(mu, nu), atol=1e-9)


@settings(deadline=None, max_examples=60)
@given(measure_pairs(), st.lists(st.integers(-6, 6), min_size=6, max_size=6))
def test_kr_weak_duality(pair, raw_vals):
    g, mu, nu = pair
    vals = np.asarray(raw_vals[: g.n], dtype=float)
    rough = LipschitzFn(g, vals)
    scale = max(rough.lip_const, 1.0)
    f = LipschitzFn(g, vals / scale)
    assert kr_dual_gap(mu, nu, f) <= w1_lp(mu, nu) + 1e-9


@settings(deadline=None, max_examples=60)
@given(measure_pairs(), st.lists(st.integers(-6, 6), min_size=6, max_size=6))
def test_integral_difference_bounded_by_lip_times_w1(pair, raw_vals):
    g, mu, nu = pair
    f = LipschitzFn(g, np.asarray(raw_vals[: g.n], dtype=float))
    gap = abs(integrate(f, mu) - integrate(f, nu))
    assert gap <= f.lip_const * w1_lp(mu, nu) + 1e-9
