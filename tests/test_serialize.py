"""Model JSON round-trips and CSV artifact formatting."""

import csv
import json

import numpy as np
import pytest

from wpomdp.conjugate import AlphaSet
from wpomdp.errors import ModelValidationError
from wpomdp.kalman import KalmanSpec, build_model, reference_spec, start_belief
from wpomdp.measures import (
    EXPLICIT_TABLE,
    StateGrid,
    WeightFunction,
    make_measure,
)
from wpomdp.model import PomdpModel
from wpomdp.serialize import (
    load_model,
    save_model,
    write_alphas_csv,
    write_convergence_csv,
    write_diff_csv,
    write_filter_csv,
    write_rollout_csv,
    write_values_csv,
)
from wpomdp.synthetic import finite_obs_quadrature, pbvi_toy


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def table_model():
    """Three states under an explicit distance table, one action."""
    table = np.array([[0.0, 1.0, 1.5], [1.0, 0.0, 1.0], [1.5, 1.0, 0.0]])
    grid = StateGrid(np.arange(3.0), metric_kind=EXPLICIT_TABLE, distance_table=table)
    return PomdpModel(
        state_grid=grid,
        actions=("hold",),
        obs_quadrature=finite_obs_quadrature(1),
        trans=np.eye(3)[None, :, :],
        obs_density=np.ones((1, 3, 1)),
        reward=np.zeros((1, 3)),
        discount=0.5,
        weight=WeightFunction(x0=0.0, k=0.25),
    )


def reference_with_belief():
    """The reference Kalman model and the initial belief ``example`` writes."""
    m = build_model(reference_spec())
    return m, start_belief(m)


def loaded_arrays(path):
    """Every array and scalar :func:`load_model` returns, in one flat dict."""
    m, init = load_model(path)
    out = {
        "points": m.state_grid.points,
        "metric": m.state_grid.metric_kind,
        "actions": m.actions,
        "nodes": m.obs_quadrature.nodes,
        "node_weights": m.obs_quadrature.weights,
        "trans": m.trans,
        "obs_density": m.obs_density,
        "reward": m.reward,
        "discount": m.discount,
        "weight": (m.weight.x0, m.weight.k),
        "init": init,
    }
    if m.state_grid.metric_kind == EXPLICIT_TABLE:
        out["table"] = m.state_grid.pairwise()
    return out


class TestModelRoundTrip:
    def test_kalman_round_trip(self, tmp_path):
        # load-time renormalization may flip last bits of the stochastic
        # tables; everything else must come back exactly
        m = build_model(KalmanSpec(grid_step=0.4))
        mu = make_measure(m.state_grid, np.ones(m.n_states))
        p = tmp_path / "m.json"
        save_model(m, p, init_belief=mu)
        m2, init = load_model(p)
        np.testing.assert_array_equal(m.state_grid.points, m2.state_grid.points)
        np.testing.assert_allclose(m.trans, m2.trans, rtol=1e-14, atol=0)
        np.testing.assert_array_equal(m.reward, m2.reward)
        np.testing.assert_array_equal(m.obs_quadrature.nodes, m2.obs_quadrature.nodes)
        assert m.actions == m2.actions
        assert m.discount == m2.discount
        assert m.weight.k == m2.weight.k and m.weight.x0 == m2.weight.x0
        np.testing.assert_array_equal(init, mu.weights)

    def test_loading_is_deterministic(self, tmp_path):
        # the same file must produce bit-identical models on every read:
        # that is what makes downstream artifacts reproducible
        m = build_model(KalmanSpec(grid_step=0.4))
        p = tmp_path / "m.json"
        save_model(m, p)
        a, _ = load_model(p)
        b, _ = load_model(p)
        np.testing.assert_array_equal(a.trans, b.trans)
        np.testing.assert_array_equal(a.obs_density, b.obs_density)

    def test_obs_density_stable_under_reload(self, tmp_path):
        # load-time column renormalization may move last bits again on each
        # save -> load trip (it is not a fixed point), but never by more
        # than 1e-15 on this table
        m = build_model(KalmanSpec(grid_step=0.4))
        p = tmp_path / "m.json"
        save_model(m, p)
        m2, init = load_model(p)
        assert init is None
        np.testing.assert_allclose(m.obs_density, m2.obs_density, rtol=0, atol=1e-15)

    def test_discrete_metric_round_trip(self, tmp_path):
        m = pbvi_toy()
        p = tmp_path / "toy.json"
        save_model(m, p)
        m2, _ = load_model(p)
        assert m2.state_grid.metric_kind == m.state_grid.metric_kind
        np.testing.assert_array_equal(m.obs_density, m2.obs_density)

    def test_table_metric_round_trip(self, tmp_path):
        m = table_model()
        p = tmp_path / "tab.json"
        save_model(m, p)
        m2, _ = load_model(p)
        assert m2.state_grid.metric_kind == EXPLICIT_TABLE
        np.testing.assert_array_equal(m2.state_grid.pairwise(), m.state_grid.pairwise())

    def test_missing_field_reported(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"states": {"points": [0, 1], "metric": "discrete"}}')
        with pytest.raises(ModelValidationError):
            load_model(p)

    def test_unreadable_file_reported(self, tmp_path):
        with pytest.raises(ModelValidationError):
            load_model(tmp_path / "absent.json")
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        with pytest.raises(ModelValidationError):
            load_model(garbled)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: {**doc, "discount": "abc"},
            lambda doc: {**doc, "states": [1, 2]},
            lambda doc: [doc],
        ],
        ids=["discount_not_a_number", "states_not_an_object", "top_level_list"],
    )
    def test_mistyped_field_reported(self, edit, tmp_path):
        p = tmp_path / "toy.json"
        save_model(pbvi_toy(), p)
        p.write_text(json.dumps(edit(json.loads(p.read_text()))))
        with pytest.raises(ModelValidationError) as exc:
            load_model(p)
        assert str(p) in str(exc.value)

    @pytest.mark.parametrize(
        "init",
        [[0.5, 0.5], [0.5, 0.25, 0.25, 0.0], [float("nan"), 1.0, 0.0],
         [float("inf"), 1.0, 0.0], [-0.5, 1.0, 0.5], [0.0, 0.0, 0.0], [1e308, 1e308, 0.0]],
        ids=["too_short", "too_long", "nan", "inf", "negative", "zero_total", "total_overflows"],
    )
    def test_init_belief_that_is_no_belief_reported(self, init, tmp_path):
        p = tmp_path / "tab.json"
        save_model(table_model(), p)
        p.write_text(json.dumps({**json.loads(p.read_text()), "init_belief": init}))
        with pytest.raises(ModelValidationError, match="init_belief must be one finite"):
            load_model(p)


class TestModelFileLayout:
    """``save_model`` writes one compact line; any JSON layout loads."""

    @pytest.mark.parametrize(
        "make",
        [reference_with_belief, lambda: (pbvi_toy(), None), lambda: (table_model(), None)],
        ids=["reference_with_belief", "pbvi_toy", "table"],
    )
    def test_compact_file_loads_the_bits_of_an_indented_one(self, make, tmp_path):
        m, init = make()
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        save_model(m, compact, init_belief=init)
        text = compact.read_text()
        doc = json.loads(text)
        # the one-shot, unindented form of the document
        assert text == json.dumps(doc)
        indented.write_text(json.dumps(doc, indent=1))
        want, got = loaded_arrays(indented), loaded_arrays(compact)
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, np.ndarray):
                assert value.dtype == got[key].dtype and value.shape == got[key].shape, key
                assert value.tobytes() == got[key].tobytes(), key
            else:
                assert value == got[key], key
        assert (init is None) == (got["init"] is None)


class TestCsvWriters:
    def test_convergence_layout(self, tmp_path):
        p = tmp_path / "c.csv"
        write_convergence_csv(p, [0.5, 0.25], [1.0, 0.5])
        rows = read_csv(p)
        assert rows[0] == ["iter", "sup_diff", "bound"]
        assert rows[1] == ["1", "0.5", "1"]
        assert rows[2][0] == "2"

    def test_floats_round_trip_through_text(self, tmp_path):
        vals = [1 / 3, np.pi * 1e-7, -2.0 ** 52 + 0.5]
        p = tmp_path / "v.csv"
        write_values_csv(p, vals, [0, 1, 0])
        rows = read_csv(p)
        back = [float(r[1]) for r in rows[1:]]
        assert back == vals

    def test_alphas_flatten_sets_in_order(self, tmp_path):
        m = pbvi_toy()
        s1 = AlphaSet(m.state_grid, [[1.0, 0.0]])
        s2 = AlphaSet(m.state_grid, [[0.0, 2.0], [3.0, 3.0]])
        p = tmp_path / "a.csv"
        write_alphas_csv(p, [s1, s2])
        rows = read_csv(p)
        assert rows[0] == ["fn_id", "grid_point", "value", "lip_const"]
        assert len(rows) == 1 + 3 * 2  # three functions, two grid points each
        assert [r[0] for r in rows[1:]] == ["0", "0", "1", "1", "2", "2"]
        assert rows[1][2] == "1" and rows[3][3] == "2"

    def test_diff_columns(self, tmp_path):
        p = tmp_path / "d.csv"
        write_diff_csv(p, [1.0, 2.0], [1.5, 2.0], 0.75)
        rows = read_csv(p)
        assert rows[1] == ["0", "1", "1.5", "0.5", "0.75"]

    def test_filter_and_rollout_layouts(self, tmp_path):
        f = tmp_path / "f.csv"
        write_filter_csv(f, [(0, 1, 7, 0.25, -0.5, 2.0)])
        assert read_csv(f)[1] == ["0", "1", "7", "0.25", "-0.5", "2"]
        r = tmp_path / "r.csv"
        write_rollout_csv(r, -3.5, 0.01, 1000, 42)
        rows = read_csv(r)
        assert rows[0] == ["mean", "stderr", "n_paths", "horizon"]
        assert rows[1] == ["-3.5", "0.01", "1000", "42"]
