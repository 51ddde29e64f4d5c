"""Model files and CSV artifacts.

One JSON file describes a complete model; every experiment artifact is a
small headed CSV with 17-significant-digit floats, which round-trip
doubles exactly and therefore diff cleanly between runs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import ModelValidationError
from .measures import EXPLICIT_TABLE, StateGrid, WeightFunction
from .model import ObservationQuadrature, PomdpModel

__all__ = [
    "save_model",
    "load_model",
    "write_convergence_csv",
    "write_values_csv",
    "write_alphas_csv",
    "write_argmax_trace_csv",
    "write_diff_csv",
    "write_filter_csv",
    "write_rollout_csv",
]


def _listify(a):
    return np.asarray(a, dtype=float).tolist()


def save_model(model: PomdpModel, path, init_belief=None) -> None:
    """Write the model (and optionally a starting belief) as one line of JSON.

    CPython runs its C encoder only for a one-shot ``json.dumps`` without
    ``indent``; an indent, or streaming with ``json.dump``, sends every
    float through the pure-Python encoder at about twice the time.  Both
    write floats by ``repr``, so the loaded bits are the same.
    """
    doc = {
        "states": {
            "points": _listify(model.state_grid.points),
            "metric": model.state_grid.metric_kind,
        },
        "actions": list(model.actions),
        "observations": {
            "nodes": _listify(model.obs_quadrature.nodes),
            "weights": _listify(model.obs_quadrature.weights),
        },
        "transition": _listify(model.trans),
        "obs_density": _listify(model.obs_density),
        "reward": _listify(model.reward),
        "discount": model.discount,
        "weight": {"x0": model.weight.x0, "k": model.weight.k},
    }
    if model.state_grid.metric_kind == EXPLICIT_TABLE:
        doc["states"]["distance_table"] = _listify(model.state_grid.pairwise())
    if init_belief is not None:
        doc["init_belief"] = _listify(init_belief.weights)
    Path(path).write_text(json.dumps(doc))


def load_model(path) -> tuple[PomdpModel, np.ndarray | None]:
    """Read a model JSON; returns (model, init belief weights or None).

    A file that cannot be read, a missing or mistyped field, or an
    ``init_belief`` that is no belief on the states raises
    :class:`~wpomdp.errors.ModelValidationError`.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ModelValidationError(f"cannot read model file {path}: {e}") from e
    try:
        states = doc["states"]
        table = states.get("distance_table")
        grid = StateGrid(
            np.asarray(states["points"], dtype=float),
            metric_kind=states["metric"],
            distance_table=None if table is None else np.asarray(table, dtype=float),
        )
        model = PomdpModel(
            state_grid=grid,
            actions=tuple(doc["actions"]),
            obs_quadrature=ObservationQuadrature(
                np.asarray(doc["observations"]["nodes"], dtype=float),
                np.asarray(doc["observations"]["weights"], dtype=float),
            ),
            trans=np.asarray(doc["transition"], dtype=float),
            obs_density=np.asarray(doc["obs_density"], dtype=float),
            reward=np.asarray(doc["reward"], dtype=float),
            discount=float(doc["discount"]),
            weight=WeightFunction(
                x0=float(doc["weight"]["x0"]), k=float(doc["weight"]["k"])
            ),
        )
        init = doc.get("init_belief")
        init = None if init is None else np.asarray(init, dtype=float)
    except KeyError as e:
        raise ModelValidationError(f"model file {path} is missing field {e}") from e
    except (AttributeError, TypeError, ValueError) as e:
        # a field, or the whole document, of the wrong JSON type
        raise ModelValidationError(f"model file {path} has a malformed field: {e}") from e
    if init is not None:
        with np.errstate(over="ignore"):
            total = init.sum()
        if not (init.shape == (model.n_states,) and np.isfinite(init).all()
                and (init >= 0).all() and 0 < total < np.inf):
            raise ModelValidationError(f"model file {path}: init_belief must be one finite, "
                                       "nonnegative weight per state, with a finite positive total")
    return model, init


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_rows(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_convergence_csv(path, sup_diffs, bounds) -> None:
    _write_rows(
        path,
        ("iter", "sup_diff", "bound"),
        (
            (i + 1, _fmt(d), _fmt(b))
            for i, (d, b) in enumerate(zip(sup_diffs, bounds))
        ),
    )


def write_values_csv(path, values, actions) -> None:
    _write_rows(
        path,
        ("belief_id", "value", "action"),
        ((i, _fmt(v), int(a)) for i, (v, a) in enumerate(zip(values, actions))),
    )


def write_alphas_csv(path, alpha_sets) -> None:
    """Flatten one or more function sets: (fn id, grid point, value, lip)."""
    rows = []
    fid = 0
    for aset in alpha_sets:
        for values, lip in zip(aset.values, aset.lip_consts()):
            for x, v in zip(aset.grid.points, values):
                rows.append((fid, _fmt(x), _fmt(v), _fmt(lip)))
            fid += 1
    _write_rows(path, ("fn_id", "grid_point", "value", "lip_const"), rows)


def write_argmax_trace_csv(path, winners, actions) -> None:
    _write_rows(
        path,
        ("belief_id", "winning_fn", "action"),
        ((i, int(w), int(a)) for i, (w, a) in enumerate(zip(winners, actions))),
    )


def write_diff_csv(path, vi_values, set_values, combined_bound) -> None:
    _write_rows(
        path,
        ("belief_id", "vi_value", "sets_value", "abs_diff", "combined_bound"),
        (
            (i, _fmt(v), _fmt(s), _fmt(abs(v - s)), _fmt(combined_bound))
            for i, (v, s) in enumerate(zip(vi_values, set_values))
        ),
    )


def write_filter_csv(path, records) -> None:
    """records: iterable of (step, action, node, node_prob, mean, std)."""
    _write_rows(
        path,
        ("step", "action", "node", "node_prob", "mean", "std"),
        (
            (int(t), int(a), int(j), _fmt(p), _fmt(m), _fmt(s))
            for t, a, j, p, m, s in records
        ),
    )


def write_rollout_csv(path, mean, stderr, n_paths, horizon) -> None:
    _write_rows(
        path,
        ("mean", "stderr", "n_paths", "horizon"),
        [(_fmt(mean), _fmt(stderr), int(n_paths), int(horizon))],
    )
