"""Measure layer: W1 distances, duality, weights, Lipschitz constants."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from wpomdp.conjugate import AlphaSet
from wpomdp.errors import (
    DimensionMismatch,
    EmptySample,
    MetricKindMismatch,
    NonPositiveMass,
    SolverFailure,
)
from wpomdp.measures import (
    DISCRETE,
    EUCLIDEAN_1D,
    EXPLICIT_TABLE,
    DiscreteMeasure,
    StateGrid,
    WeightFunction,
    dirac,
    lipschitz_constants,
    make_measure,
    w1_lp,
)
from wpomdp.sampling import BeliefDistances, _embed_rows, w1
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

    def test_table_symmetry_has_no_relative_slack(self):
        # within numpy's default rtol of 1e-5, but 5e-6 apart: past 1e-12
        t = np.array([[0.0, 1.0], [1.000005, 0.0]])
        with pytest.raises(MetricKindMismatch, match="symmetric"):
            StateGrid(np.arange(2.0), metric_kind=EXPLICIT_TABLE, distance_table=t)

    def test_table_requires_triangle_inequality(self):
        # d(0,2)=5 but the path through 1 costs 2
        t = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(MetricKindMismatch):
            StateGrid(np.arange(3.0), metric_kind=EXPLICIT_TABLE, distance_table=t)

    def test_triangle_check_holds_no_cube(self):
        # a 300-point Manhattan lattice table; the check used to hold an
        # (n, n, n) sum, 206 MiB here
        cells = np.array([(i, j) for i in range(15) for j in range(20)], dtype=float)
        t = np.abs(cells[:, None] - cells[None, :]).sum(axis=2)
        tracemalloc.start()
        try:
            StateGrid(np.arange(300.0), metric_kind=EXPLICIT_TABLE, distance_table=t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_table_broken_at_one_triple_is_refused(self):
        # distinct points sit 2 apart, except 3 and 29, which sit 1 from 17;
        # d(3, 29) exceeds the path through 17 by 1e-9, and every other
        # middle point costs 4
        n = 40
        t = 2.0 * (1.0 - np.eye(n))
        t[3, 17] = t[17, 3] = t[17, 29] = t[29, 17] = 1.0
        t[3, 29] = t[29, 3] = 2.0 + 1e-9
        with pytest.raises(MetricKindMismatch, match="triangle"):
            StateGrid(np.arange(float(n)), metric_kind=EXPLICIT_TABLE, distance_table=t)
        t[3, 29] = t[29, 3] = t[3, 17] + t[17, 29]
        StateGrid(np.arange(float(n)), metric_kind=EXPLICIT_TABLE, distance_table=t)

    def test_table_requires_positive_distances_between_distinct_points(self):
        # a metric table, except that points 0 and 1 sit at distance zero
        t = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(MetricKindMismatch):
            StateGrid(np.arange(3.0), metric_kind=EXPLICIT_TABLE, distance_table=t)

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    def test_table_entries_must_be_finite(self, entry):
        # an infinite pair passes symmetry, diagonal, positivity and the
        # triangle inequality, and a NaN one would fail as asymmetric
        t = np.array([[0.0, 1.0, entry], [1.0, 0.0, entry], [entry, entry, 0.0]])
        with pytest.raises(DimensionMismatch, match="finite"):
            StateGrid(np.arange(3.0), metric_kind=EXPLICIT_TABLE, distance_table=t)

    def test_valid_table_accepted(self):
        t = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        g = StateGrid(np.arange(3.0), metric_kind=EXPLICIT_TABLE, distance_table=t)
        assert_allclose(g.pairwise(), t)

    def test_discrete_pairwise_is_zero_one(self):
        g = StateGrid(np.arange(4.0), metric_kind=DISCRETE)
        assert_allclose(g.pairwise(), 1.0 - np.eye(4))

    def test_the_distance_cache_is_not_a_field(self):
        g = StateGrid(np.array([0.0, 1.0, 2.0]))
        g.pairwise()
        moved = dataclasses.replace(g, points=np.array([0.0, 10.0, 20.0]))
        np.testing.assert_array_equal(moved.pairwise()[0], [0.0, 10.0, 20.0])
        with pytest.raises(TypeError):
            StateGrid(np.arange(3.0), DISCRETE, _pairwise=np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("kind", [EUCLIDEAN_1D, DISCRETE, EXPLICIT_TABLE])
    def test_points_must_be_finite(self, kind, bad):
        table = 1.0 - np.eye(3) if kind == EXPLICIT_TABLE else None
        with pytest.raises(DimensionMismatch, match="finite"):
            StateGrid(np.array([0.0, 1.0, bad]), kind, table)

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

    def test_overflowing_total_rejected(self):
        # each weight is finite, but their sum is not: no silent [0, 0]
        with pytest.raises(NonPositiveMass, match="finite"):
            make_measure(line_grid(0.0, 1.0), [1e308, 1e308])

    def test_length_mismatch(self, grid02):
        with pytest.raises(DimensionMismatch):
            make_measure(grid02, [1.0, 1.0])

    def test_weights_frozen(self, grid02):
        mu = make_measure(grid02, [1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            mu.weights[0] = 0.3


# --------------------------------------------------------------------------
# Wasserstein-1
# --------------------------------------------------------------------------

class TestW1OneD:
    """``w1`` on the line: the kernel's L1 of CDF embeddings."""

    def test_dirac_pair(self, grid02):
        assert_allclose(w1(dirac(grid02, 0), dirac(grid02, 1)), 1.0)

    def test_identity(self, grid02):
        mu = make_measure(grid02, [0.2, 0.3, 0.5])
        assert w1(mu, mu) == 0.0

    def test_split_pair_against_middle_dirac(self, grid02):
        # frozen from the brute-force 2x1 transportation LP: both half-masses
        # travel distance 1
        mu = make_measure(grid02, [0.5, 0.0, 0.5])
        assert_allclose(w1(mu, dirac(grid02, 1)), 1.0)

    def test_cross_grid_supports(self):
        """Supports on two different line grids are refused by both W1
        routes, not embedded on the union of the grids."""
        mu = dirac(line_grid(0.0), 0)
        nu = dirac(line_grid(2.5), 0)
        for dist in (w1, w1_lp):
            with pytest.raises(MetricKindMismatch, match="share a grid"):
                dist(mu, nu)

    def test_rejects_finite_metric(self):
        """A line measure and a discrete one have no common grid."""
        g = StateGrid(np.arange(2.0), metric_kind=DISCRETE)
        with pytest.raises(MetricKindMismatch):
            w1(dirac(line_grid(0.0, 1.0), 0), dirac(g, 1))

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(st.sampled_from(["line", "discrete", "table", "point"]), st.integers(0, 2**32 - 1))
    def test_has_the_bits_of_the_kernel_block(self, kind, seed):
        rng = np.random.default_rng(seed)
        n = 1 if kind == "point" else int(rng.integers(2, 7))
        if kind == "discrete":
            g = StateGrid(np.arange(float(n)), DISCRETE)
        elif kind == "table":
            t = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) ** 0.5
            g = StateGrid(np.arange(float(n)), EXPLICIT_TABLE, t)
        else:
            g = StateGrid(np.cumsum(0.05 + rng.random(n)))
        rows = rng.dirichlet(np.ones(n), 2) * (rng.random((2, n)) < 0.8)
        rows[:, 0] += 1e-3
        mu, nu = make_measure(g, rows[0]), make_measure(g, rows[1])
        want = BeliefDistances(g, np.stack([mu.weights, nu.weights])).block(
            slice(0, 1), slice(1, 2)
        )[0, 0]
        assert np.float64(w1(mu, nu)).tobytes() == want.tobytes()


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

    def test_totals_equal_only_up_to_rounding(self):
        # subtracting the rows one by one from the one column's 1.0 leaves
        # it exhausted while row 7 still holds a residue of about 3e-17:
        # the north-west corner must go on down the rows, not past the
        # last column
        supply = [0.3, 0.0, 0.1, 0.1, 0.0, 0.2, 0.1, 0.2, 0.0]
        cost = np.arange(9.0)[:, None]
        plan, value = solve_transport(supply, [1.0], cost)
        assert_allclose(plan[:, 0], supply, atol=1e-15)
        assert_allclose(value, np.dot(supply, cost[:, 0]), atol=1e-15)

    @pytest.mark.parametrize("side", ["supply", "demand"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mass_rejected(self, side, bad):
        masses = {"supply": [0.5, 0.5], "demand": [0.5, 0.5]}
        masses[side][1] = bad
        with pytest.raises(NonPositiveMass):
            solve_transport(masses["supply"], masses["demand"], np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cost_rejected(self, bad):
        cost = np.array([[0.0, 1.0], [1.0, bad]])
        with pytest.raises(DimensionMismatch):
            solve_transport([0.5, 0.5], [0.5, 0.5], cost)

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.sampled_from(["dirichlet", "tenths"]),
        st.sampled_from(["uniform", "integer", "lattice"]),
        st.integers(0, 2**32 - 1),
    )
    def test_pivots_and_bits_equal_the_rebuilding_simplex(self, m, n, masses, costs, seed):
        """Same pivots as the simplex that rebuilds the tree, so the same bits.

        Masses on a 0.1 lattice make the north-west corner exhaust rows and
        columns together and make flows tie on the cycle; integer and
        lattice costs make reduced costs tie.
        """
        rng = np.random.default_rng(seed)
        if masses == "dirichlet":
            supply, demand = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
        else:
            supply = rng.multinomial(10, np.ones(m) / m) / 10
            demand = rng.multinomial(10, np.ones(n) / n) / 10
        if costs == "uniform":
            cost = rng.uniform(0.0, 3.0, (m, n))
        elif costs == "integer":
            cost = rng.integers(0, 4, (m, n)).astype(float)
        else:
            # the Manhattan metric of the benchmark's 4 x 4 lattice model
            cells = np.array([(i, j) for i in range(4) for j in range(4)], dtype=float)
            table = np.abs(cells[:, None, :] - cells[None, :, :]).sum(axis=2)
            cost = table[np.ix_(rng.permutation(16)[:m], rng.permutation(16)[:n])]

        def solves(solver, max_pivots):
            try:
                return solver(supply, demand, cost, max_pivots=max_pivots)
            except SolverFailure:
                return None

        # k: the fewest pivot-loop rounds the reference needs (bisection)
        lo, hi = 0, 200 * (m + n) + 1000
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if solves(oracles.solve_transport_reference, mid) is None:
                lo = mid
            else:
                hi = mid
        k = hi
        want_plan, want_value = oracles.solve_transport_reference(
            supply, demand, cost, max_pivots=k
        )
        assert solves(solve_transport, k - 1) is None
        plan, value = solve_transport(supply, demand, cost, max_pivots=k)
        assert np.array_equal(plan, want_plan)
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()

    def test_pivots_and_bits_at_the_benchmark_size(self):
        """Full 16 x 16 supports on the 4 x 4 Manhattan lattice, the size of
        every LP of the benchmark's explicit-table solve: the same pivot
        count and the same plan and value bits as the rebuilding simplex.
        40 Dirichlet pairs, then 20 pairs of masses on a 1/32 lattice, whose
        flows tie on the cycle, then 20 such pairs with the metric scaled
        by 0.1: its reduced costs are rounded, so a potential that starts
        anywhere but 0 changes them and with them the pivots."""
        cells = np.array([(i, j) for i in range(4) for j in range(4)], dtype=float)
        table = np.abs(cells[:, None, :] - cells[None, :, :]).sum(axis=2)
        rng = np.random.default_rng(16)
        counts = set()
        for t in range(80):
            cost = table if t < 60 else 0.1 * table
            if t < 40:
                supply, demand = rng.dirichlet(np.ones(16)), rng.dirichlet(np.ones(16))
            else:
                supply, demand = (1 + rng.multinomial(16, np.ones(16) / 16, 2)) / 32
            lo, hi = 0, 64  # bisection bounds: each pair takes about 20 rounds
            want_plan, want_value = oracles.solve_transport_reference(
                supply, demand, cost, max_pivots=hi
            )
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    oracles.solve_transport_reference(supply, demand, cost, max_pivots=mid)
                    hi = mid
                except SolverFailure:
                    lo = mid
            counts.add(hi)
            with pytest.raises(SolverFailure):
                solve_transport(supply, demand, cost, max_pivots=hi - 1)
            plan, value = solve_transport(supply, demand, cost, max_pivots=hi)
            assert plan.tobytes() == want_plan.tobytes()
            assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        assert len(counts) > 5

    def test_signed_zero_masses_give_the_reference_bits(self):
        """Masses of -0.0 make a cycle's smallest flow -0.0 too: the entering
        cell must still carry +0.0, as in the rebuilding simplex.  The first
        problem is one where it matters, then 100 small integer problems with
        zeros of either sign."""
        problems = [
            (
                [2.0, 3.0, 1.0, 3.0],
                [-0.0, 3.0, 2.0, 4.0],
                np.array([[0, 0, 1, 2], [2, 2, 0, 0], [0, 0, 3, 2], [3, 1, 3, 3]], dtype=float),
            )
        ]
        rng = np.random.default_rng(0)
        while len(problems) < 101:
            m, n = rng.integers(1, 6, 2)
            supply = rng.integers(0, 4, m).astype(float)
            if supply.sum() == 0:
                continue
            demand = rng.multinomial(int(supply.sum()), np.ones(n) / n).astype(float)
            for masses in (supply, demand):
                masses[(masses == 0) & (rng.random(len(masses)) < 0.5)] = -0.0
            problems.append((supply, demand, rng.integers(0, 4, (m, n)).astype(float)))
        for supply, demand, cost in problems:
            want_plan, want_value = oracles.solve_transport_reference(supply, demand, cost)
            plan, value = solve_transport(supply, demand, cost)
            assert plan.tobytes() == want_plan.tobytes()
            assert np.float64(value).tobytes() == np.float64(want_value).tobytes()


# --------------------------------------------------------------------------
# Kantorovich-Rubinstein duality
# --------------------------------------------------------------------------

def dual_gap(f, mu, nu):
    """int f dmu - int f dnu for a grid function ``f`` (one value per point)."""
    return float(np.dot(f, mu.weights)) - float(np.dot(f, nu.weights))


class TestKrDualGap:
    def test_constant_function_gives_zero(self, grid02):
        f = np.array([2.0, 2.0, 2.0])
        mu = make_measure(grid02, [0.2, 0.5, 0.3])
        assert_allclose(dual_gap(f, mu, dirac(grid02, 0)), 0.0, atol=1e-15)

    def test_identity_function_attains_dirac_distance(self, grid02):
        f = grid02.points
        assert lipschitz_constants(grid02, f) == 1.0
        assert_allclose(dual_gap(f, dirac(grid02, 1), dirac(grid02, 0)), 1.0)

    def test_weak_duality_random(self):
        rng = np.random.default_rng(23)
        g = line_grid(-2.0, -0.5, 0.0, 1.0, 3.0)
        for _ in range(40):
            mu = make_measure(g, rng.dirichlet(np.ones(5)))
            nu = make_measure(g, rng.dirichlet(np.ones(5)))
            vals = rng.uniform(-3.0, 3.0, 5)
            f = vals / max(lipschitz_constants(g, vals), 1.0)
            assert dual_gap(f, mu, nu) <= w1_lp(mu, nu) + 1e-9

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
        assert_allclose(oracles.tilde_w(wf, dirac(g, 1)), 1.0)

    def test_dirac_away_from_anchor(self):
        g = line_grid(0.0, 2.0)
        assert_allclose(oracles.tilde_w(WeightFunction(0.0, 1.0), dirac(g, 1)), 3.0)

    def test_mixture_is_linear(self):
        g = line_grid(0.0, 4.0)
        mu = make_measure(g, [0.5, 0.5])
        assert_allclose(oracles.tilde_w(WeightFunction(0.0, 0.5), mu), 2.0)

    def test_slope_must_be_positive(self):
        with pytest.raises(NonPositiveMass):
            WeightFunction(0.0, 0.0)
        with pytest.raises(NonPositiveMass):
            WeightFunction(0.0, -1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_anchor_must_be_finite(self, bad):
        with pytest.raises(NonPositiveMass, match="x0"):
            WeightFunction(bad, 1.0)

    def test_weighted_norm_examples(self):
        g = line_grid(0.0, 2.0)
        wf = WeightFunction(0.0, 1.0)
        beliefs = [dirac(g, 0), dirac(g, 1)]  # tilde_w = 1, 3
        assert_allclose(oracles.weighted_norm([0.0, 0.0], beliefs, wf), 0.0)
        assert_allclose(oracles.weighted_norm([3.0], [dirac(g, 0)], wf), 3.0)
        assert_allclose(oracles.weighted_norm([2.0, 6.0], beliefs, wf), 2.0)

    def test_weighted_norm_empty_sample(self):
        with pytest.raises(EmptySample):
            oracles.weighted_norm([], [], WeightFunction(0.0, 1.0))


_PAIR = np.array([0.0, 1.0])


@pytest.mark.parametrize(
    "make, error, fragment",
    [
        (lambda: StateGrid(np.array([])), DimensionMismatch, "nonempty 1-D"),
        (lambda: StateGrid(_PAIR, EUCLIDEAN_1D, np.zeros((2, 2))), MetricKindMismatch, "1-D mode"),
        (lambda: StateGrid(_PAIR, EXPLICIT_TABLE), MetricKindMismatch, "needs a table"),
        (lambda: StateGrid(_PAIR, EXPLICIT_TABLE, np.zeros((3, 3))), DimensionMismatch, "shape"),
        (
            lambda: StateGrid(_PAIR, EXPLICIT_TABLE, -(1.0 - np.eye(2))),
            MetricKindMismatch,
            "nonnegative",
        ),
        (lambda: StateGrid(_PAIR, DISCRETE, np.zeros((2, 2))), MetricKindMismatch, "discrete"),
        (lambda: StateGrid(np.zeros(2), DISCRETE), DimensionMismatch, "distinct"),
        (lambda: DiscreteMeasure(StateGrid(_PAIR), [1.0]), DimensionMismatch, "1 weights"),
        (lambda: AlphaSet(StateGrid(_PAIR), [[0.0]]), DimensionMismatch, "2-point grid"),
        (
            lambda: w1_lp(dirac(StateGrid(_PAIR), 0), dirac(StateGrid(_PAIR, DISCRETE), 0)),
            MetricKindMismatch,
            "euclidean_1d vs discrete",
        ),
        (
            lambda: oracles.weighted_norm(
                [1.0, 2.0], [dirac(StateGrid(_PAIR), 0)], WeightFunction(0, 1)
            ),
            DimensionMismatch,
            "one value per belief",
        ),
        (lambda: solve_transport([1.0], [1.0], np.zeros((2, 2))), DimensionMismatch, "cost shape"),
        (
            lambda: solve_transport([1.5, -0.5], [1.0], np.zeros((2, 1))),
            NonPositiveMass,
            "negative mass",
        ),
        (lambda: solve_transport([0.0], [0.0], np.zeros((1, 1))), NonPositiveMass, "positive"),
    ],
    ids=[
        "grid-empty", "grid-1d-table", "grid-table-missing", "grid-table-shape",
        "grid-table-negative", "grid-discrete-table", "grid-discrete-repeats",
        "measure-length", "lipschitz-length", "w1-lp-kinds", "weighted-norm-length",
        "transport-cost-shape", "transport-negative-mass", "transport-zero-mass",
    ],
)
def test_refuses_malformed_input(make, error, fragment):
    with pytest.raises(error, match=fragment):
        make()


# --------------------------------------------------------------------------
# Lipschitz constants and integrals of grid functions
# --------------------------------------------------------------------------

class TestLipschitzFn:
    def test_lip_const_1d_uses_adjacent_gaps(self):
        g = line_grid(0.0, 1.0, 3.0)
        assert_allclose(lipschitz_constants(g, [0.0, 2.0, 2.5]), 2.0)

    def test_lip_const_discrete(self):
        g = StateGrid(np.arange(3.0), metric_kind=DISCRETE)
        assert_allclose(lipschitz_constants(g, [0.0, 5.0, 1.0]), 5.0)

    def test_lip_const_table(self):
        t = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        g = StateGrid(np.arange(3.0), metric_kind=EXPLICIT_TABLE, distance_table=t)
        assert_allclose(lipschitz_constants(g, [0.0, 0.5, 3.0]), 2.5)  # |3-0.5| / d(1,2)

    def test_nonfinite_values_rejected(self, grid02):
        # grid functions live in alpha sets, which refuse them
        with pytest.raises(DimensionMismatch):
            AlphaSet(grid02, [[0.0, np.inf, 1.0]])


class TestIntegrate:
    """int f dmu of a grid function ``f`` is ``f @ mu.weights``."""

    def test_constant(self, grid02):
        mu = make_measure(grid02, [0.3, 0.3, 0.4])
        assert_allclose(np.dot([4.0, 4.0, 4.0], mu.weights), 4.0)

    def test_mean_of_split_pair(self, grid02):
        mu = make_measure(grid02, [0.5, 0.0, 0.5])
        assert_allclose(np.dot(grid02.points, mu.weights), 1.0)

    def test_dirac_evaluates(self, grid02):
        assert_allclose(np.dot([7.0, -2.0, 0.1], dirac(grid02, 1).weights), -2.0)

    def test_linearity(self, grid02):
        rng = np.random.default_rng(31)
        mu = make_measure(grid02, rng.dirichlet(np.ones(3)))
        nu = make_measure(grid02, rng.dirichlet(np.ones(3)))
        f = rng.uniform(-1, 1, 3)
        h = rng.uniform(-1, 1, 3)
        assert_allclose(
            np.dot(2.0 * f + 3.0 * h, mu.weights),
            2.0 * np.dot(f, mu.weights) + 3.0 * np.dot(h, mu.weights),
        )
        mix = make_measure(grid02, 0.25 * mu.weights + 0.75 * nu.weights)
        assert_allclose(
            np.dot(f, mix.weights), 0.25 * np.dot(f, mu.weights) + 0.75 * np.dot(f, nu.weights)
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
                        oracles.w1(beliefs[i], beliefs[j]),
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
    """The kernel's closed form (``w1``) against the LP and the CDF oracle."""
    _, mu, nu = pair
    assert_allclose(w1(mu, nu), w1_lp(mu, nu), atol=1e-9)
    assert_allclose(w1(mu, nu), oracles.w1(mu, nu), atol=1e-9)


@settings(deadline=None, max_examples=60)
@given(measure_pairs(), st.lists(st.integers(-6, 6), min_size=6, max_size=6))
def test_kr_weak_duality(pair, raw_vals):
    g, mu, nu = pair
    vals = np.asarray(raw_vals[: g.n], dtype=float)
    f = vals / max(lipschitz_constants(g, vals), 1.0)
    assert dual_gap(f, mu, nu) <= w1_lp(mu, nu) + 1e-9


@settings(deadline=None, max_examples=60)
@given(measure_pairs(), st.lists(st.integers(-6, 6), min_size=6, max_size=6))
def test_integral_difference_bounded_by_lip_times_w1(pair, raw_vals):
    g, mu, nu = pair
    f = np.asarray(raw_vals[: g.n], dtype=float)
    gap = abs(dual_gap(f, mu, nu))
    assert gap <= lipschitz_constants(g, f) * w1_lp(mu, nu) + 1e-9
