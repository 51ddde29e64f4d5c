"""wpomdp benchmark: one workload per run, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload vi_kalman600 --seed 0 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics (``solve_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` reports the per-layer metrics from a run
that alternates an untraced and a traced unit.  ``--smoke`` shrinks every
workload to desk size for the benchmark's own test.  Inputs come from
``--seed`` only; units repeat until the next one would end after
``--seconds`` (at least one unit, or one untraced/traced pair).

Every unit's outputs are checked: the certificate is honest, the CSV
bytes and work counts repeat exactly between units of one seed and match
``expected.json`` where it records the seed, and every run first replays
the smoke size of its workload at seed 0 against its recorded bytes.
Lines before the last one are a human-readable log and one ``record:``
JSON line with the environment, every unit and every check; the last
line is the result JSON.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3  # before the units, and again after them
CANONICAL_SEED = 0


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="desk-size inputs")
    return ap.parse_args(argv)


# --------------------------------------------------------------------------
# environment record
# --------------------------------------------------------------------------

def _blas_threads(np) -> int | None:
    """Thread count of the OpenBLAS numpy loaded, when it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            f = getattr(handle, fn, None)
            if f is not None:
                f.restype = ctypes.c_int
                return int(f())
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else ref[5:]


def environment(np, parallel: int, load_start) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "parallel": parallel,
        "git_commit": _git_commit(),
        "loadavg_start": list(load_start),
    }


def import_seconds() -> float:
    """``import wpomdp`` in a fresh interpreter, as a CLI call pays it."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import wpomdp; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


# --------------------------------------------------------------------------
# tracing targets and per-layer reduction
# --------------------------------------------------------------------------

def install(tracer) -> None:
    from wpomdp import conjugate, kalman, measures, sampling, serialize, value_iteration
    from wpomdp import model as model_mod

    targets = [
        (sampling, "reachability_tree", "sampling.reachability_tree"),
        (sampling, "bayes_update", "filtering.bayes_update"),
        (sampling, "obs_marginal", "filtering.obs_marginal"),
        (sampling, "w1_lp", "measures.w1_lp"),
        (measures, "w1_lp", "measures.w1_lp"),
        (measures, "solve_transport", "transport.solve_transport"),
        (value_iteration, "solve_vi", "value_iteration.solve_vi"),
        (value_iteration, "rollout_estimate", "value_iteration.rollout_estimate"),
        (conjugate, "solve_sets", "conjugate.solve_sets"),
        (conjugate, "set_backup", "conjugate.set_backup"),
        (conjugate, "q_set_backup", "conjugate.q_set_backup"),
        (conjugate, "prune", "conjugate.prune"),
        (model_mod, "certify", "model.certify"),
        (value_iteration, "certify", "model.certify"),
        (conjugate, "certify", "model.certify"),
        (kalman, "build_model", "kalman.build_model"),
        (serialize, "save_model", "serialize.save_model"),
        (serialize, "load_model", "serialize.load_model"),
    ]
    for writer in ("convergence", "values", "alphas", "diff", "rollout"):
        targets.append((serialize, f"write_{writer}_csv", "serialize.csv_write"))
    for owner, attr, name in targets:
        tracer.wrap(owner, attr, name)
    tracer.wrap(
        value_iteration.NearestAnchorPolicy, "act_batch", "value_iteration.act_batch",
        counter=lambda policy, rows: len(rows) * len(policy.emb),
    )


def _pct(np, d, q: float, scale: float) -> float:
    return float(np.percentile(d, q) * scale) if len(d) else 0.0


def traced_counts(tr) -> dict[str, int]:
    """Work counts only a traced unit sees; they must repeat exactly."""
    return {
        "traced.w1_lp_calls": tr.calls("measures.w1_lp"),
        "traced.solve_transport_calls": tr.calls("transport.solve_transport"),
        "traced.bayes_update_calls": tr.calls("filtering.bayes_update"),
        "traced.obs_marginal_calls": tr.calls("filtering.obs_marginal"),
        "traced.act_batch_calls": tr.calls("value_iteration.act_batch"),
        "traced.act_batch_pair_evals": tr.counts.get("value_iteration.act_batch", 0),
        "traced.set_backup_calls": tr.calls("conjugate.set_backup"),
        "traced.q_set_backup_calls": tr.calls("conjugate.q_set_backup"),
        "traced.certify_calls": tr.calls("model.certify"),
    }


def unit_layers(np, tr, o) -> dict[str, float]:
    """Per-layer metrics of one traced unit."""
    own = tr.self_times()
    c = o.counts
    # the value_iteration.* metrics describe the probed (first) solve_vi;
    # the explicit-table solve of vi_kalman600 shows under measures/transport
    pre = tr.total("value_iteration.precompute")
    sweeps = c["vi_sweeps"]
    beliefs = c["tree_beliefs"] + c.get("table/tree_beliefs", 0)
    trees = 1 + ("table/tree_beliefs" in c)
    act = tr.durations("value_iteration.act_batch")
    sb = tr.durations("conjugate.set_backup")
    qb = tr.durations("conjugate.q_set_backup")
    lp = tr.durations("transport.solve_transport")
    bayes = tr.calls("filtering.bayes_update")
    return {
        "value_iteration.precompute_s": pre,
        "value_iteration.sweeps_s": o.phases["vi"] - pre,
        "value_iteration.sweeps": sweeps,
        "value_iteration.sweep_ms": 1e3 * (o.phases["vi"] - pre) / sweeps,
        "value_iteration.knn_queries": c["knn_queries"],
        "value_iteration.knn_pair_evals": c["knn_pair_evals"],
        "value_iteration.knn_bytes_computed": c["knn_bytes_computed"],
        "value_iteration.act_batch_s": float(act.sum()),
        "value_iteration.act_batch_calls": len(act),
        "value_iteration.act_batch_ms_p50": _pct(np, act, 50, 1e3),
        "value_iteration.act_batch_ms_p95": _pct(np, act, 95, 1e3),
        "value_iteration.act_batch_pair_evals": tr.counts.get("value_iteration.act_batch", 0),
        "value_iteration.rollout_self_s": own.get("value_iteration.rollout_estimate", 0.0),
        "rollout_path_steps_per_s": o.measured.get("rollout_path_steps_per_s", 0.0),
        "rollout_gap_stderr": o.measured.get("rollout_gap_stderr", 0.0),
        "conjugate.set_backup_s": float(sb.sum()),
        "conjugate.set_backup_ms_p50": _pct(np, sb, 50, 1e3),
        "conjugate.set_backup_ms_p90": _pct(np, sb, 90, 1e3),
        "conjugate.q_set_backup_s": float(qb.sum()),
        "conjugate.q_set_backup_ms_p50": _pct(np, qb, 50, 1e3),
        "conjugate.q_set_backup_ms_p90": _pct(np, qb, 90, 1e3),
        "conjugate.prune_s": tr.total("conjugate.prune"),
        "conjugate.solve_sets_self_s": own.get("conjugate.solve_sets", 0.0),
        "conjugate.set_size_final_alg1": c.get("alg1_set_size_final", 0),
        "conjugate.set_size_max_alg1": c.get("alg1_set_size_max", 0),
        "conjugate.set_size_final_alg2": c.get("alg2_set_size_final", 0),
        "conjugate.set_size_max_alg2": c.get("alg2_set_size_max", 0),
        "compare_gap_ratio": o.measured.get("compare_gap_ratio_alg1", 0.0),
        "compare_gap_ratio_alg2": o.measured.get("compare_gap_ratio_alg2", 0.0),
        "measures.w1_lp_calls": tr.calls("measures.w1_lp"),
        "measures.w1_lp_s": tr.total("measures.w1_lp"),
        "transport.solve_transport_calls": len(lp),
        "transport.solve_transport_s": float(lp.sum()),
        "transport.solve_transport_us_p50": _pct(np, lp, 50, 1e6),
        "transport.solve_transport_us_p99": _pct(np, lp, 99, 1e6),
        "sampling.tree_s": tr.total("sampling.reachability_tree"),
        "sampling.tree_beliefs": beliefs,
        "sampling.tree_kept_ratio": (beliefs - trees) / bayes,
        "filtering.bayes_update_calls": bayes,
        "filtering.bayes_update_s": tr.total("filtering.bayes_update"),
        "filtering.obs_marginal_calls": tr.calls("filtering.obs_marginal"),
        "serialize.csv_write_s": tr.total("serialize.csv_write"),
        "model.certify_s": tr.total("model.certify"),
        "model.certify_calls": tr.calls("model.certify"),
        "process.user_s": o.rusage["user_s"],
        "process.sys_s": o.rusage["sys_s"],
        "process.minor_faults": o.rusage["minor_faults"],
        # solve_s not covered by any root span: benchmark glue between calls
        "trace.unattributed_s": o.solve_s - sum(tr.roots_within(*w) for w in o.windows),
    }


def setup_layers(tr) -> dict[str, float]:
    return {
        "kalman.build_model_s": tr.total("kalman.build_model"),
        "serialize.save_model_s": tr.total("serialize.save_model"),
        "serialize.load_model_s": tr.total("serialize.load_model"),
        "model.certify_s": tr.total("model.certify"),
        "model.certify_calls": tr.calls("model.certify"),
    }


def _median_dicts(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------

def repeat_problems(first, o) -> list[str]:
    """Outputs and work counts must repeat exactly between units of a seed."""
    out = [f"{name}: sha256 differs between units" for name in first.sha256
           if o.sha256.get(name) != first.sha256[name]]
    out += [f"count {k}: {o.counts[k]} != {first.counts[k]} in an earlier unit"
            for k in first.counts if k in o.counts and o.counts[k] != first.counts[k]]
    return out


def expected_problems(rec: dict | None, o) -> list[str]:
    if rec is None:
        return []
    out = [f"{name}: sha256 {o.sha256.get(name)} != recorded {want}"
           for name, want in rec["sha256"].items() if o.sha256.get(name) != want]
    out += [f"{name}: not recorded" for name in o.sha256 if name not in rec["sha256"]]
    out += [f"count {k}: {o.counts[k]} != recorded {v}"
            for k, v in rec["counts"].items() if k in o.counts and o.counts[k] != v]
    return out


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "wpomdp" / "__init__.py").is_file():
        print(f"error: no wpomdp package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads as wl
    from tracing import Tracer

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {wl.WORKLOADS}",
              file=sys.stderr)
        return 2
    sizes = wl.SMOKE if args.smoke else wl.FULL
    expected = json.loads((HERE / "expected.json").read_text())
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "env": environment(np, wl.PARALLEL, load_start),
    }
    scratch = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()

    @contextmanager
    def traced_if(on: bool):
        """Wrappers are in place only while a traced unit runs."""
        tracer.reset()
        if not on:
            yield
            return
        install(tracer)
        try:
            yield
        finally:
            tracer.uninstall()

    attempted = failed = 0
    problems: list[str] = []

    def guarded(fn, label):
        """Run one unit; an exception or a failed check counts it failed."""
        nonlocal attempted, failed
        attempted += 1
        try:
            o = fn()
        except Exception:
            failed += 1
            problems.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None
        if o.problems:
            failed += 1
            problems.extend(f"{label}: {p}" for p in o.problems)
        return o

    try:
        # 1. canonical replay at smoke size: a changed bit fails every run
        if not args.smoke:
            def canonical():
                s = wl.set_up(args.workload, CANONICAL_SEED, wl.SMOKE, scratch)
                o = wl.unit(args.workload, s, CANONICAL_SEED, wl.SMOKE, scratch)
                rec = expected["smoke"].get(args.workload, {}).get(str(CANONICAL_SEED))
                if rec is None:
                    o.problems.append("no recorded smoke outputs in expected.json")
                o.problems += expected_problems(rec, o)
                return o
            guarded(canonical, "canonical smoke replay")

        # 2. set-up, several times; a traced run traces it too.  Half the
        # repetitions run after the units, so the median spans the run.
        setups, setup_rows = [], []

        def set_up_timed():
            imp = import_seconds()
            with traced_if(args.trace):
                s = wl.set_up(args.workload, args.seed, sizes, scratch)
            setups.append(imp + s.seconds)
            setup_rows.append(setup_layers(tracer))
            record.setdefault("setup_phases", []).append({"import": imp, **s.phases})
            return s

        for _ in range(SETUP_REPS):
            setup = set_up_timed()

        # 3. measured units
        def probe(model, sample, epsilon):
            with tracer.span("value_iteration.precompute"), tracer.muted():
                wl.value_iteration.solve_vi(model, sample, epsilon=epsilon, max_iters=0,
                                            parallel=wl.PARALLEL)

        want = expected["smoke" if args.smoke else "full"].get(args.workload, {}).get(
            str(args.seed))
        plain, traced, layer_rows = [], [], []
        t0 = time.perf_counter()
        rounds = 0
        while True:
            rounds += 1
            for tracing in ((False, True) if args.trace else (False,)):
                def one():
                    with traced_if(tracing):
                        o = wl.unit(args.workload, setup, args.seed, sizes, scratch,
                                    probe=probe if tracing else None)
                    if tracing:
                        o.counts.update(traced_counts(tracer))
                        if (o.counts["traced.act_batch_pair_evals"]
                                != o.counts.get("act_batch_pair_evals", 0)):
                            o.problems.append("traced act_batch pair evaluations differ "
                                              "from paths x steps x anchors")
                    prior = traced if tracing else plain
                    if prior:
                        o.problems += repeat_problems(prior[0], o)
                    o.problems += expected_problems(want, o)
                    return o
                o = guarded(one, f"unit {rounds}{' traced' if tracing else ''}")
                if o is None:
                    continue
                (traced if tracing else plain).append(o)
                if tracing:
                    layer_rows.append(unit_layers(np, tracer, o))
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / rounds > args.seconds:
                break
        for _ in range(SETUP_REPS):
            set_up_timed()
    finally:
        tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    record["units"] = [
        {"traced": tracing, "solve_s": o.solve_s, "phases": o.phases, "rusage": o.rusage,
         "counts": o.counts, "measured": o.measured, "sha256": o.sha256}
        for tracing, group in ((False, plain), (True, traced)) for o in group
    ]
    record["problems"] = problems
    correct = failed == 0 and bool(plain) and (bool(traced) or not args.trace)
    metrics: dict[str, dict] = {}
    if correct:
        solve_plain = statistics.median(o.solve_s for o in plain)
        if args.trace:
            values = _median_dicts(layer_rows)
            for k, v in _median_dicts(setup_rows).items():
                values[k] = values.get(k, 0) + v
            values["trace.overhead_s"] = (
                statistics.median(o.solve_s for o in traced) - solve_plain)
        else:
            values = {
                "solve_s": solve_plain,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in spec["per_layer" if args.trace else "end_to_end"]}
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": dict(sorted(metrics.items()))}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
