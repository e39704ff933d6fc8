"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench/tests``).

Layer wrappers patch the program process-wide, so every test that
installs them runs the program in a subprocess.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _python(code: str, *args: str, timeout: float = 170) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc.stdout


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == ["sweep", "lot", "service"]
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert {"setup_s", "wall_s", "job_latency_p50_s", "read_latency_p50_ms",
            "read_latency_p99_ms", "peak_rss_mb"} == set(bounds)


def test_layer_metrics_are_exactly_the_declared_per_layer_set():
    emitted = set(layers.layer_metrics([])) | set(run.CLIENT_METRICS) | {
        "observability.trace_overhead_frac", "observability.traced_wall_s",
        "observability.layer_coverage", "error_rate"}
    assert emitted == set(run.declared_metrics(trace=True))


def test_read_latency_reads_the_fast_windows():
    fast = list(np.linspace(0.9e-4, 1.1e-4, 500))
    slow = [1.6 * x for x in fast]
    # Slow for four fifths or nineteen twentieths of the run, in
    # stretches: the fast speed, tail included.
    for reads in ((fast + slow * 4) * 4, slow * 10 + fast + slow * 9):
        assert run.fast_window_ms(reads, 50) == pytest.approx(0.1)
        assert run.fast_window_ms(reads, 99) == pytest.approx(0.11, rel=0.01)
    spiked = fast[:-1] + [1e-3]
    assert run.fast_window_ms(spiked * 50 + slow * 50, 99.9) > 0.5


TINY = """
    import json, sys
    import numpy as np
    import layers, workloads
    workloads.CONTEXT.update(calibration_samples=500, analysis_samples=100,
                             table_grid=4)
    workloads.SWEEP_VBODY = (0.0,)
    workloads.LOT.update(dies=4, hold_corners=(-0.1, 0.0, 0.1),
                         hold_vsb=(0.0, 0.3))
    recorder = layers.Recorder(sys.argv[2])
    layers.install(recorder)
    run = {"sweep": workloads.run_sweep, "lot": workloads.run_lot}[sys.argv[1]]
    estimates = []
    workloads.capture_estimates(estimates)
    recorder.span("perfbench.unit", run)(
        11, estimates, workloads.Reads())
    recorder.flush()
    print(json.dumps(len(estimates)))
"""


@pytest.mark.parametrize("workload", ["sweep", "lot"])
def test_traced_unit_emits_its_layers(workload, tmp_path):
    estimates = json.loads(_python(TINY, workload, str(tmp_path)))
    files = layers.load_spans(tmp_path)
    metrics = layers.layer_metrics(files)
    assert estimates == metrics["failures.analysis.estimate.calls"] > 0
    for name in ("devices.current.busy_s", "sram.solver.bisect.evals",
                 "sram.solver.hold_state.cells", "sram.metrics.cell_metrics.cells",
                 "stats.rare_event.sample.busy_s",
                 "experiments.context.criteria.busy_s",
                 "core.tables.build.cells", "parallel.executor.map.tasks",
                 "failures.analysis.ess_per_solver_cell"):
        assert metrics[name] > 0, name
    assert metrics["sram.solver.bisect.evals_per_root"] == pytest.approx(
        metrics["sram.solver.bisect.evals"]
        / metrics["sram.solver.bisect.calls"])
    _, covered = layers.coverage(files, "perfbench.unit")
    assert covered > 0.9
    if workload == "lot":
        # Forked workers flushed their own spans back.
        assert len({f.name.split("-")[1] for f in tmp_path.glob("*.npz")}) > 1
        assert metrics["parallel.executor.map.efficiency"] > 0
        assert metrics["core.lot.die.calls"] == 4
        assert metrics["sram.metrics.hold_margin.cells"] > 0
        assert metrics["experiments.asb.hold_table.busy_s"] > 0
    else:
        assert metrics["core.lot.die.calls"] == 0
        assert metrics["parallel.executor.map.efficiency"] == 0


def test_traced_service_emits_its_layers(tmp_path, monkeypatch):
    import service_load

    monkeypatch.setattr(service_load, "COLD_JOBS", 2)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    trace_dir = tmp_path / "trace"
    server = service_load.Server(ROOT, tmp_path / "server", env,
                                 trace_dir=trace_dir)
    ops = service_load.Ops()
    try:
        warm = service_load.prepare_warm(server, 3)
        unit = service_load.run_unit(server, 3, warm, ops)
        service_load.check_health(server, ops)
    finally:
        assert server.stop() == 0
    assert ops.errors == []
    assert len(unit["jobs_s"]) == 2 and all(unit["results"])
    assert ops.latency["read"] and ops.latency["dedupe"]
    metrics = layers.layer_metrics(layers.load_spans(trace_dir))
    for name in ("service.jobs.submit.calls", "service.jobs.run.busy_s",
                 "service.ledger.record.calls", "parallel.cache.put.bytes",
                 "checkpoint.save.calls", "devices.current.calls",
                 "sram.metrics.hold_margin.calls"):
        assert metrics[name] > 0, name


def test_wrappers_return_identical_arrays():
    out = _python("""
        import numpy as np
        import layers
        from repro.sram import metrics as m, solver
        from repro.sram.cell import CellGeometry, SixTCell, sample_cell_dvt
        from repro.technology import predictive_70nm
        from repro.technology.corners import ProcessCorner

        tech = predictive_70nm()
        geometry = CellGeometry()
        dvt = sample_cell_dvt(tech, geometry, np.random.default_rng(5), 300)
        cell = SixTCell(tech, geometry, ProcessCorner(0.02), dvt)
        conditions = m.OperatingConditions.nominal(tech)

        def outputs():
            metrics = m.compute_cell_metrics(cell, conditions)
            hold = m.compute_hold_margin(cell, conditions)
            current = cell.device("nr").current(1.0, 0.4, 0.0, 0.0)
            return [getattr(metrics, f) for f in (
                "v_read", "v_trip_read", "v_write", "v_trip_write", "t_write",
                "i_access", "v_hold_one", "v_hold_zero", "v_trip_hold")] + [
                hold, current, *solver.solve_hold_state(cell, 0.3)]

        before = outputs()
        recorder = layers.Recorder("never-flushed")
        assert layers.install(recorder) == []
        assert hasattr(m.compute_cell_metrics, "__wrapped__")
        after = outputs()
        assert len(recorder._buffers[0].rows) > 100
        same = all(a.dtype == b.dtype and a.shape == b.shape
                   and np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(before, after))
        print("identical" if same else "DIFFERENT")
    """)
    assert out.strip() == "identical"


def test_bisect_evals_are_the_evaluations_the_solver_made(tmp_path):
    out = _python("""
        import json, sys
        import numpy as np
        import layers
        from repro.sram import solver

        recorder = layers.Recorder(sys.argv[1])
        layers.install(recorder)
        seen = []

        def net_current(v):
            seen.append(v.size)
            return 0.3 - v

        roots = [solver.bisect_monotone(net_current, 0.0, 1.0, (5,)),
                 solver.bisect_monotone(net_current, 0.0, 1.0, (2, 3), iters=7)]
        recorder.flush()
        assert all(np.allclose(r, 0.3, atol=0.01) for r in roots)
        print(json.dumps(len(seen)))
    """, str(tmp_path))
    seen = json.loads(out)
    metrics = layers.layer_metrics(layers.load_spans(tmp_path))
    assert metrics["sram.solver.bisect.calls"] == 2
    assert metrics["sram.solver.bisect.evals"] == seen > 0
    assert metrics["sram.solver.bisect.evals_per_root"] == seen / 2


def _reference(workload):
    return json.loads(workloads.reference_path(workload, workloads.DEFAULT_SEED)
                      .read_text())


def test_reference_agrees_with_itself():
    sweep, lot = _reference("sweep"), _reference("lot")
    assert len(sweep["estimates"]) == 15 and len(lot["dies"]) == 40
    assert workloads.check_estimates(sweep["estimates"], sweep["estimates"]) == []
    assert workloads.check_estimates(lot["estimates"], lot["estimates"]) == []
    assert workloads.check_dies(lot["dies"], lot["dies"]) == []


def test_perturbed_reference_drives_error_rate_above_zero():
    import copy

    sweep = _reference("sweep")
    perturbed = copy.deepcopy(sweep["estimates"])
    target = perturbed[7]["any"]
    target["estimate"] += 2 * (target["ci_high"] - target["ci_low"]) + 1e-6
    errors = workloads.check_estimates(sweep["estimates"], perturbed)
    assert len(errors) == 1 and len(errors) / len(sweep["estimates"]) > 0

    starved = copy.deepcopy(sweep["estimates"])
    starved[0]["any"]["ess"] = 150.0
    assert len(workloads.check_estimates(starved, None)) == 1

    lot = _reference("lot")
    flipped = copy.deepcopy(lot["dies"])
    flipped[3]["vsb_code"] += 1
    flipped[5]["bin"] = "high_vt" if flipped[5]["bin"] != "high_vt" else "low_vt"
    assert len(workloads.check_dies(lot["dies"], flipped)) == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
