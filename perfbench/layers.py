"""Layer spans recorded from outside the program, and the metrics derived from them.

``install(recorder)`` replaces the public entry point of each layer
(EKV device evaluation, root solves, cell metrics, samplers, failure
estimates, tables, lot flow, executor, durable storage, service) with a
wrapper that records one span per call and then calls the original
unchanged.  Spans (name, start, end, parent, work count, auxiliary
value) stay in per-thread memory buffers; :meth:`Recorder.flush` writes
a process's buffers to one ``.npz`` file when the run (or, in a forked
executor worker, each task) ends.  :func:`layer_metrics` reads every
file of a run back and derives busy time, self time, counts and ratios.

Nothing here changes what the program computes: wrappers pass their
arguments through and return the original result object.
"""

from __future__ import annotations

import functools
import os
import pathlib
import sys
import threading
import time

import numpy as np

class _Counted:
    """A callable that counts its own calls (root-solver evaluations)."""

    __slots__ = ("fn", "calls")

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, value):
        self.calls += 1
        return self.fn(value)


class _Buffer:
    __slots__ = ("rows", "stack")

    def __init__(self):
        self.rows: list = []
        self.stack: list[int] = []


class Recorder:
    """In-memory span buffers of one process, one buffer per thread."""

    def __init__(self, out_dir: str | os.PathLike) -> None:
        self.out_dir = pathlib.Path(out_dir)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._flushes = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked executor worker inherits the parent's buffers and
        # open spans; it records only its own tasks.
        self._lock = threading.Lock()
        for buffer in self._buffers:
            buffer.rows = []
            buffer.stack = []
        self._flushes = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buffer(self) -> _Buffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _Buffer()
            with self._lock:
                self._buffers.append(buffer)
            self._local.buffer = buffer
        return buffer

    def span(self, name: str, fn, measure=None, before=None):
        """``fn`` wrapped to record one span per call.

        ``before(args, kwargs) -> (args, kwargs)`` may substitute
        pass-through arguments (e.g. a counting callable);
        ``measure(args, kwargs, result) -> (n, x)`` reads the work
        count and auxiliary value off the finished call.
        """
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buffer = recorder._buffer()
            rows = buffer.rows
            stack = buffer.stack
            index = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if before is not None:
                args, kwargs = before(args, kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rows[index] = (nid, start, clock(), parent, 0.0, 0.0)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            n, x = measure(args, kwargs, result) if measure else (1.0, 0.0)
            rows[index] = (nid, start, end, parent, float(n), float(x))
            return result

        return wrapper

    def flush(self) -> pathlib.Path | None:
        """Write this process's spans to one file and clear the buffers.

        Called when the run (or an executor task) ends.  A span still
        open in another thread is kept as a placeholder row named -1 so
        parent indices stay valid.
        """
        with self._lock:
            ints, vals = [], []
            offset = 0
            for buffer in self._buffers:
                rows = [
                    row if row is not None else (-1, 0, 0, -1, 0.0, 0.0)
                    for row in buffer.rows
                ]
                buffer.rows = []
                if not rows:
                    continue
                name, start, end, parent, n, x = zip(*rows)
                parent = np.array(parent, dtype=np.int64)
                ints.append(np.column_stack([
                    np.array(name, dtype=np.int64),
                    np.array(start, dtype=np.int64),
                    np.array(end, dtype=np.int64),
                    np.where(parent >= 0, parent + offset, -1),
                ]))
                vals.append(np.column_stack([np.array(n), np.array(x)]))
                offset += len(rows)
            if not ints:
                return None
            self.out_dir.mkdir(parents=True, exist_ok=True)
            path = self.out_dir / f"spans-{os.getpid()}-{self._flushes}.npz"
            self._flushes += 1
            np.savez(
                path,
                ints=np.concatenate(ints),
                vals=np.concatenate(vals),
                names=np.array(self.names),
            )
            return path


# ----------------------------------------------------------------------
# What to wrap
# ----------------------------------------------------------------------
def _size(result) -> float:
    return float(np.size(result))


def _cells(args, kwargs, result):
    return args[0].population, 0.0


def _hold_cells(args, kwargs, result):
    return float(np.size(result[0])), 0.0


def _count_evals(args, kwargs):
    if args:
        return (_Counted(args[0]),) + tuple(args[1:]), kwargs
    kwargs = dict(kwargs)
    kwargs["net_current"] = _Counted(kwargs["net_current"])
    return args, kwargs


def _bisect_evals(args, kwargs, result):
    counted = args[0] if args else kwargs["net_current"]
    return counted.calls, _size(result)


def _estimate_ess(args, kwargs, result):
    return 1.0, result["any"].ess or 0.0


def _hold_ess(args, kwargs, result):
    return 1.0, result.ess or 0.0


def _table_cells(args, kwargs, result):
    table = args[0]
    unconverged = table.diagnostics.unconverged if table.diagnostics else 0
    return float(table.grid.size), float(unconverged)


def _hold_table_cells(args, kwargs, result):
    table = args[0]
    unconverged = table.diagnostics.unconverged if table.diagnostics else 0
    return float(np.size(result)), float(unconverged)


def _map_tasks(args, kwargs, result):
    executor = args[0]
    pooled = not executor.is_serial and len(result) > 1
    return float(len(result)), float(executor.workers if pooled else 0)


def _cache_hit(args, kwargs, result):
    return 1.0, 0.0 if result is None else 1.0


def _written_bytes(args, kwargs, result):
    return 1.0, float(os.path.getsize(result))


#: (module, attribute path, span name, measure, before).  A dotted
#: attribute path names a method on a class.
TARGETS = (
    ("repro.devices.mosfet", "MOSFET.current", "devices.current",
     lambda args, kwargs, result: (_size(result), 0.0), None),
    ("repro.sram.solver", "bisect_monotone", "sram.solver.bisect",
     _bisect_evals, _count_evals),
    ("repro.sram.solver", "solve_hold_state", "sram.solver.hold_state",
     _hold_cells, None),
    ("repro.sram.solver", "solve_read_node", "sram.solver.read_node", None, None),
    ("repro.sram.solver", "solve_read_trip", "sram.solver.read_trip", None, None),
    ("repro.sram.solver", "solve_write_node", "sram.solver.write_node", None, None),
    ("repro.sram.solver", "solve_write_trip", "sram.solver.write_trip", None, None),
    ("repro.sram.solver", "solve_write_time", "sram.solver.write_time", None, None),
    ("repro.sram.solver", "solve_access_current", "sram.solver.access_current",
     None, None),
    ("repro.sram.solver", "solve_hold_trip", "sram.solver.hold_trip", None, None),
    ("repro.sram.solver", "solve_inverter_trip", "sram.solver.inverter_trip",
     None, None),
    ("repro.sram.metrics", "compute_cell_metrics", "sram.metrics.cell_metrics",
     _cells, None),
    ("repro.sram.metrics", "compute_hold_margin", "sram.metrics.hold_margin",
     _cells, None),
    ("repro.stats.rare_event", "PlainSampler.sample", "stats.rare_event.sample",
     None, None),
    ("repro.stats.rare_event", "ScaledSampler.sample", "stats.rare_event.sample",
     None, None),
    ("repro.stats.rare_event", "AdaptiveIsSampler.sample",
     "stats.rare_event.sample", None, None),
    ("repro.stats.rare_event", "BlockadeSampler.sample",
     "stats.rare_event.sample", None, None),
    ("repro.failures.analysis", "CellFailureAnalyzer.failure_probabilities",
     "failures.analysis.estimate", _estimate_ess, None),
    ("repro.failures.analysis", "CellFailureAnalyzer.hold_failure_probability",
     "failures.analysis.hold_estimate", _hold_ess, None),
    ("repro.experiments.context", "calibrate_criteria",
     "experiments.context.criteria", None, None),
    ("repro.core.tables", "FailureProbabilityTable._build", "core.tables.build",
     _table_cells, None),
    ("repro.experiments.asb", "HoldProbabilityTable._grid_log_probabilities",
     "experiments.asb.hold_table", _hold_table_cells, None),
    ("repro.core.lot", "LotSimulator.run", "core.lot.run", None, None),
    ("repro.core.lot", "LotSimulator.process_die", "core.lot.die", None, None),
    ("repro.parallel.executor", "ParallelExecutor.map", "parallel.executor.map",
     _map_tasks, None),
    ("repro.parallel.executor", "ParallelExecutor._note_retry",
     "parallel.executor.retry", None, None),
    ("repro.parallel.cache", "ResultCache.get", "parallel.cache.get",
     _cache_hit, None),
    ("repro.parallel.cache", "ResultCache.put", "parallel.cache.put",
     _written_bytes, None),
    ("repro.checkpoint", "CheckpointStore.save", "checkpoint.save",
     _written_bytes, None),
    ("repro.service.ledger", "JobLedger.record", "service.ledger.record",
     None, None),
    ("repro.service.jobs", "JobManager.submit", "service.jobs.submit", None, None),
    ("repro.service.jobs", "run_spec", "service.jobs.run", None, None),
)


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` name for ``original`` at
    ``replacement``: module attributes (callers that did ``from m import
    f`` hold their own reference) and default argument values of the
    modules' functions and methods (``runner=run_spec``)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            functions = [value]
            if isinstance(value, type) and value.__module__ == name:
                functions = list(vars(value).values())
            for fn in functions:
                defaults = getattr(fn, "__defaults__", None)
                if isinstance(defaults, tuple) and any(
                    d is original for d in defaults
                ):
                    fn.__defaults__ = tuple(
                        replacement if d is original else d for d in defaults
                    )


def install(recorder: Recorder) -> list[str]:
    """Wrap every layer entry point in :data:`TARGETS`; returns any
    target missing from this version of the program."""
    import importlib

    missing = []
    for module_name, path, span_name, measure, before in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{path}")
            continue
        owner = module
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}.{path}")
            continue
        wrapped = recorder.span(span_name, original, measure, before)
        if owners:
            setattr(owner, attr, wrapped)
        else:
            _rebind(original, wrapped)
    _install_pool_task(recorder)
    return missing


def _install_pool_task(recorder: Recorder) -> None:
    """Time each executor task in the worker and flush the worker's
    spans after it, so forked workers' spans reach the run directory."""
    from repro.parallel import executor

    timed = recorder.span("parallel.executor.task", executor._pool_task)

    @functools.wraps(executor._pool_task)
    def _pool_task(payload):
        try:
            return timed(payload)
        finally:
            recorder.flush()

    executor._pool_task = _pool_task


# ----------------------------------------------------------------------
# Derivation
# ----------------------------------------------------------------------
#: Solver entry points whose busy time is reported per solve.
SOLVES = ("read_node", "read_trip", "write_node", "write_trip", "write_time",
          "access_current", "hold_trip", "inverter_trip")


class SpanFile:
    """One flushed buffer set: span names and columns."""

    def __init__(self, names, ints: np.ndarray, vals: np.ndarray) -> None:
        self.names = [str(n) for n in names]
        self.ids = ints[:, 0]
        self.parent = ints[:, 3]
        self.duration = (ints[:, 2] - ints[:, 1]) * 1e-9
        self.n = vals[:, 0]
        self.x = vals[:, 1]
        has_parent = self.parent >= 0
        child = np.zeros(len(ints))
        np.add.at(child, self.parent[has_parent], self.duration[has_parent])
        self.own = self.duration - child

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.ids), dtype=bool)
        return self.ids == self.names.index(name)

    def under(self, name: str) -> np.ndarray:
        """Spans with an ancestor called ``name``."""
        target = self.mask(name)
        flag = np.zeros(len(self.ids), dtype=bool)
        has_parent = self.parent >= 0
        parents = self.parent[has_parent]
        while True:
            new = np.zeros_like(flag)
            new[has_parent] = target[parents] | flag[parents]
            if np.array_equal(new, flag):
                return flag
            flag = new


def load_spans(trace_dir) -> list[SpanFile]:
    """Every span file a run wrote."""
    out = []
    for path in sorted(pathlib.Path(trace_dir).glob("spans-*.npz")):
        with np.load(path) as data:
            out.append(SpanFile(data["names"], data["ints"], data["vals"]))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(files: list[SpanFile]) -> dict[str, float]:
    """Every per-layer metric derivable from a run's spans (0 where the
    layer did no work in this workload)."""

    def total(column: str, name: str, where=None) -> float:
        acc = 0.0
        for f in files:
            mask = f.mask(name)
            if where is not None:
                mask &= where(f)
            acc += float(getattr(f, column)[mask].sum())
        return acc

    def calls(name):
        return sum(float(f.mask(name).sum()) for f in files)

    def busy(name):
        return total("duration", name)

    out: dict[str, float] = {}
    dev = "devices.current"
    out[f"{dev}.calls"] = calls(dev)
    out[f"{dev}.elems"] = total("n", dev)
    out[f"{dev}.busy_s"] = busy(dev)
    out[f"{dev}.ns_per_elem"] = _ratio(1e9 * busy(dev), total("n", dev))
    bis = "sram.solver.bisect"
    out[f"{bis}.calls"] = calls(bis)
    out[f"{bis}.evals"] = total("n", bis)
    out[f"{bis}.evals_per_root"] = _ratio(total("n", bis), calls(bis))
    out[f"{bis}.busy_s"] = busy(bis)
    hold = "sram.solver.hold_state"
    out[f"{hold}.calls"] = calls(hold)
    out[f"{hold}.cells"] = total("n", hold)
    out[f"{hold}.busy_s"] = busy(hold)
    out[f"{hold}.self_s"] = total("own", hold)
    out[f"{hold}.bisects_per_call"] = _ratio(
        sum(float((f.mask(bis) & f.under(hold)).sum()) for f in files),
        calls(hold))
    for solve in SOLVES:
        out[f"sram.solver.{solve}.busy_s"] = busy(f"sram.solver.{solve}")
    cm = "sram.metrics.cell_metrics"
    out[f"{cm}.calls"] = calls(cm)
    out[f"{cm}.cells"] = total("n", cm)
    out[f"{cm}.busy_s"] = busy(cm)
    out[f"{cm}.ns_per_cell"] = _ratio(1e9 * busy(cm), total("n", cm))
    out[f"{cm}.bisects_per_call"] = _ratio(
        sum(float((f.mask(bis) & f.under(cm)).sum()) for f in files),
        calls(cm))
    hm = "sram.metrics.hold_margin"
    out[f"{hm}.calls"] = calls(hm)
    out[f"{hm}.cells"] = total("n", hm)
    out[f"{hm}.busy_s"] = busy(hm)
    out[f"{hm}.ns_per_cell"] = _ratio(1e9 * busy(hm), total("n", hm))
    rs = "stats.rare_event.sample"
    out[f"{rs}.calls"] = calls(rs)
    out[f"{rs}.busy_s"] = busy(rs)
    out[f"{rs}.self_s"] = total("own", rs)
    est = "failures.analysis.estimate"
    hest = "failures.analysis.hold_estimate"

    def in_estimate(f):
        return f.under(est) | f.under(hest)

    solver_cells = total("n", cm, in_estimate) + total("n", hm, in_estimate)
    estimates = calls(est) + calls(hest)
    out[f"{est}.calls"] = calls(est)
    out[f"{est}.busy_s"] = busy(est)
    out[f"{est}.solver_cells_per_estimate"] = _ratio(solver_cells, estimates)
    out[f"{hest}.calls"] = calls(hest)
    out[f"{hest}.busy_s"] = busy(hest)
    out["failures.analysis.ess_per_solver_cell"] = _ratio(
        total("x", est) + total("x", hest), solver_cells)
    out["experiments.context.criteria.busy_s"] = busy(
        "experiments.context.criteria")
    tb = "core.tables.build"
    out[f"{tb}.calls"] = calls(tb)
    out[f"{tb}.cells"] = total("n", tb)
    out[f"{tb}.busy_s"] = busy(tb)
    out[f"{tb}.unconverged"] = total("x", tb)
    ht = "experiments.asb.hold_table"
    out[f"{ht}.busy_s"] = busy(ht)
    out[f"{ht}.unconverged"] = total("x", ht)
    out["core.lot.run.busy_s"] = busy("core.lot.run")
    out["core.lot.die.calls"] = calls("core.lot.die")
    out["core.lot.die.self_s"] = total("own", "core.lot.die")
    pm = "parallel.executor.map"
    out[f"{pm}.calls"] = calls(pm)
    out[f"{pm}.tasks"] = total("n", pm)
    out[f"{pm}.busy_s"] = busy(pm)
    # Summed worker task time over (workers x pooled map time); maps
    # that ran inline have x = 0 and add no capacity.
    capacity = sum(
        float((f.x * f.duration)[f.mask(pm)].sum()) for f in files)
    out[f"{pm}.efficiency"] = _ratio(busy("parallel.executor.task"), capacity)
    out["executor.retries"] = calls("parallel.executor.retry")
    for op in ("get", "put"):
        out[f"parallel.cache.{op}.calls"] = calls(f"parallel.cache.{op}")
        out[f"parallel.cache.{op}.busy_s"] = busy(f"parallel.cache.{op}")
    out["parallel.cache.get.hits"] = total("x", "parallel.cache.get")
    out["parallel.cache.put.bytes"] = total("x", "parallel.cache.put")
    for name in ("checkpoint.save", "service.ledger.record",
                 "service.jobs.submit"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)
    out["service.jobs.run.busy_s"] = busy("service.jobs.run")
    return out


def coverage(files: list[SpanFile], root: str) -> tuple[float, float]:
    """``(busy seconds of root, share of it inside lower layer spans)``.

    The self times of the layers below ``root`` sum to the root's
    duration minus the root's own self time, so the share says how much
    of the traced wall time the layer spans account for.
    """
    busy = sum(float(f.duration[f.mask(root)].sum()) for f in files)
    own = sum(float(f.own[f.mask(root)].sum()) for f in files)
    return busy, _ratio(busy - own, busy)
