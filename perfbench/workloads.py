"""The ``sweep`` and ``lot`` workloads, run in a child process of ``run.py``.

Usage (``run.py`` starts this; it is not meant to be run by hand)::

    python3 perfbench/workloads.py --workload sweep --seed 11 \
        --mode run --out result.json [--trace-dir DIR]

``--mode setup`` stops after the imports and the context build, so the
parent can time set-up several times.  ``--mode run`` also runs one unit
(one sweep, or one lot), timing every failure estimate (see
``EstimateClock``) and warm reads of the zero-bias table spread over the
unit (see ``Reads``), and checks every output.  ``--mode reference`` runs
the unit and first stores its outputs as the seed's reference.
``--trace-dir`` installs the layer spans (see ``layers.py``) and runs
the unit without reads.

The program receives only inputs generated from ``--seed``: the
Monte-Carlo seed of the experiment context and of the lot draw.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent

#: The seed the stored references were made with.
DEFAULT_SEED = 11

#: Converged sizing shared by both workloads: adaptive-IS failure
#: tables on a 5-point corner grid with 3000 solver calls per estimate.
CONTEXT = {
    "target": 1e-4,
    "calibration_samples": 2500,
    "analysis_samples": 3000,
    "sampler": "adaptive-is",
    "sampler_scale": None,
    "table_grid": 5,
}
#: Zero bias first, so that warm reads of its table (see Reads) follow
#: every build.  Each estimate seeds its own stream from its corner and
#: bias, so the order does not change any estimate.
SWEEP_VBODY = (0.0, -0.3, 0.3)
LOT = {
    "workers": 2,
    "dies": 40,
    "sigma_inter": 0.04,
    "leakage_samples": 1200,
    "hold_corners": (-0.1, -0.05, 0.0, 0.05, 0.1),
    "hold_vsb": (0.0, 0.3, 0.45, 0.55, 0.6, 0.635),
    "dac_bits": 5,
    "dac_full_scale": 0.62,
    "p_memory_limit": 0.05,
}
#: Warm reads per chunk (see Reads): about 40000 reads per unit, in
#: 11 chunks on sweep (after each estimate once the zero-bias table is
#: built, and after the unit) and 5 on lot (after each table, after the
#: hold surface, and after the unit).
READS_PER_CHUNK = {"sweep": 3600, "lot": 8000}
MECHANISMS = ("read", "write", "access", "hold", "any")


def reference_path(workload: str, seed: int) -> pathlib.Path:
    return HERE / "reference" / f"{workload}-seed{seed}.json"


def make_context(seed: int, workers: int = 1):
    from repro.experiments.context import ExperimentContext

    return ExperimentContext(seed=seed, workers=workers, **CONTEXT)


# ----------------------------------------------------------------------
# Output capture and checks (pure functions of the captured outputs)
# ----------------------------------------------------------------------
def capture_estimates(store: list) -> None:
    """Record every grid estimate the failure tables are built from.

    Wraps ``CellFailureAnalyzer.failure_probabilities_batch`` (one call
    per table) in both traced and untraced runs; results pass through.
    """
    from repro.failures.analysis import CellFailureAnalyzer

    original = CellFailureAnalyzer.failure_probabilities_batch

    def failure_probabilities_batch(self, corners, conditions_list=None,
                                    executor=None):
        results = original(self, corners, conditions_list, executor)
        conditions = conditions_list or [None] * len(corners)
        for corner, cond, probs in zip(corners, conditions, results):
            cond = cond if cond is not None else self.conditions
            store.append({
                "vbody": cond.vbody_n,
                "corner": corner.dvt_inter,
                **{
                    name: {
                        "estimate": probs[name].estimate,
                        "ess": probs[name].ess,
                        "ci_low": probs[name].ci_low,
                        "ci_high": probs[name].ci_high,
                    }
                    for name in MECHANISMS
                },
            })
        return results

    CellFailureAnalyzer.failure_probabilities_batch = failure_probabilities_batch


def check_estimates(estimates: list, reference: list | None) -> list[str]:
    """One entry per failed estimate: unconverged under the program's
    default ESS floor, or (with a reference) any mechanism further from
    its reference estimate than half the width of its own 95% CI.

    The half-width, not the interval itself, is the tolerance: an
    importance-sampled estimate can lie outside its own Wilson interval
    (above 1 near certain failure), and it must still match itself.
    """
    from repro.observability.diagnostics import DiagnosticThresholds, assess
    from repro.stats.montecarlo import MonteCarloResult

    thresholds = DiagnosticThresholds()
    errors = []
    by_key = {}
    if reference is not None:
        by_key = {(r["vbody"], r["corner"]): r for r in reference}
    for est in estimates:
        key = (est["vbody"], est["corner"])
        where = f"estimate vbody={key[0]:+.3f} corner={key[1]:+.4f}"
        reasons = assess(
            MonteCarloResult(estimate=est["any"]["estimate"], stderr=0.0,
                             n_samples=0, ess=est["any"]["ess"]),
            thresholds,
        )
        if reasons:
            errors.append(f"{where}: {'; '.join(reasons)}")
            continue
        if reference is None:
            continue
        ref = by_key.get(key)
        if ref is None:
            errors.append(f"{where}: no reference")
            continue
        for name in MECHANISMS:
            mine = est[name]
            halfwidth = 0.5 * (mine["ci_high"] - mine["ci_low"])
            if abs(mine["estimate"] - ref[name]["estimate"]) > halfwidth:
                errors.append(
                    f"{where}: {name} {mine['estimate']:.6g} differs from "
                    f"reference {ref[name]['estimate']:.6g} by more than "
                    f"the CI half-width {halfwidth:.3g}"
                )
                break
    return errors


def check_dies(dies: list, reference: list | None) -> list[str]:
    """One entry per failed die: flow invariants, and (with a reference)
    bin, body bias, VSB DAC code and shipped verdict."""
    errors = []
    if reference is not None and len(reference) != len(dies):
        errors.append(f"{len(dies)} dies against {len(reference)} in reference")
        reference = None
    for i, die in enumerate(dies):
        problems = []
        if die["shipped"] != (die["p_memory"] <= LOT["p_memory_limit"]):
            problems.append("shipped verdict disagrees with p_memory")
        if not die["shipped"] and die["vsb"] != 0.0:
            problems.append("scrapped die has a source bias")
        if reference is not None:
            for field in ("bin", "vbody", "vsb_code", "shipped"):
                if die[field] != reference[i][field]:
                    problems.append(
                        f"{field} {die[field]!r} != reference "
                        f"{reference[i][field]!r}")
        if problems:
            errors.append(f"die {i}: {'; '.join(problems)}")
    return errors


def digest(outputs: dict) -> str:
    """Fingerprint of every output value, all digits included."""
    text = json.dumps(outputs, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------
class EstimateClock:
    """Times every failure estimate of the unit, in whichever process
    makes it.

    Wraps ``CellFailureAnalyzer.failure_probabilities`` (one grid point
    of a failure table) and ``hold_failure_probability`` (one point of
    the hold surface); results pass through.  Forked executor workers
    inherit the wrappers, and every process appends its times to a file
    of its own under ``directory``.  ``after()`` runs after each
    estimate made in the process that installed the clock.
    """

    def __init__(self, directory: pathlib.Path, after=None) -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.after = after
        self.pid = os.getpid()

    def install(self) -> None:
        from repro.failures.analysis import CellFailureAnalyzer

        for name in ("failure_probabilities", "hold_failure_probability"):
            setattr(CellFailureAnalyzer, name,
                    self._timed(getattr(CellFailureAnalyzer, name)))

    def _timed(self, fn):
        clock = self

        @functools.wraps(fn)
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                path = clock.directory / f"{os.getpid()}.txt"
                with open(path, "a") as sink:
                    sink.write(f"{elapsed!r}\n")
                if clock.after is not None and os.getpid() == clock.pid:
                    clock.after()

        return call

    def latencies(self) -> list[float]:
        return [float(line)
                for path in sorted(self.directory.glob("*.txt"))
                for line in path.read_text().split()]


def run_sweep(seed: int, estimates: list, reads: Reads) -> dict:
    """Criteria calibration, then one failure table per body bias."""
    ctx = make_context(seed)
    start = time.perf_counter()
    ctx.criteria
    for vbody in SWEEP_VBODY:
        reads.use(ctx.table(vbody))
    reads.chunk()
    wall = time.perf_counter() - start - reads.busy_s
    return {"wall_s": wall, "outputs": {"estimates": list(estimates)}}


def run_lot(seed: int, estimates: list, reads: Reads) -> dict:
    """The repair tables and the ASB hold surface, then monitor -> repair
    -> test -> ASB over a lot."""
    import numpy as np

    from repro.core.body_bias import SelfRepairingSRAM
    from repro.core.lot import LotSimulator
    from repro.core.monitor import CornerBin
    from repro.core.source_bias import SourceBiasDAC
    from repro.experiments.asb import HoldProbabilityTable
    from repro.sram.array import ArrayOrganization

    ctx = make_context(seed, workers=LOT["workers"])
    start = time.perf_counter()
    organization = ArrayOrganization.from_capacity(
        2 * 1024, rows=64, redundancy_fraction=0.05
    )
    tables: dict = {}

    def table_provider(vbody):
        if vbody not in tables:
            tables[vbody] = ctx.table(vbody)
            reads.use(tables[vbody])
            reads.chunk()
        return tables[vbody]

    pipeline = SelfRepairingSRAM(
        ctx.analyzer(), organization, table_provider=table_provider,
        leakage_samples=LOT["leakage_samples"],
    )
    # Every body-bias level the generator can apply, zero first (see
    # Reads).  Built up front, so that every seed builds the same tables
    # whichever bins its dies fall in.
    levels = {pipeline.generator.bias_for(b) for b in CornerBin}
    for vbody in sorted(levels, key=lambda v: (v != 0.0, v)):
        table_provider(round(vbody, 6))
    hold = HoldProbabilityTable(
        ctx,
        np.array(LOT["hold_corners"]),
        np.array(LOT["hold_vsb"]),
    )
    reads.chunk()
    dac = SourceBiasDAC(bits=LOT["dac_bits"], full_scale=LOT["dac_full_scale"])
    report = LotSimulator(
        pipeline, hold, dac=dac, p_memory_limit=LOT["p_memory_limit"]
    ).run(n_dies=LOT["dies"], sigma_inter=LOT["sigma_inter"], seed=seed)
    reads.chunk()
    wall = time.perf_counter() - start - reads.busy_s
    dies = [
        {
            "corner": d.corner,
            "bin": d.bin.value,
            "vbody": d.vbody,
            "vsb": d.vsb,
            "vsb_code": dac.code_for(d.vsb),
            "p_memory": d.p_memory,
            "shipped": bool(d.shipped),
            "standby_power": d.standby_power,
        }
        for d in report.dies
    ]
    return {
        "wall_s": wall,
        "outputs": {
            "estimates": list(estimates),
            "dies": dies,
            "hold_probability": [
                [hold.probability(c, v) for v in LOT["hold_vsb"]]
                for c in LOT["hold_corners"]
            ],
        },
    }


class Reads:
    """Warm reads of the unit's zero-body-bias failure table.

    A read renders every mechanism's curve at the fig2a corners, as
    ``repro.experiments.repair.fig2a`` does.  The reads are timed in
    chunks of ``per_chunk`` spread over the unit once the zero-bias
    table is built (see READS_PER_CHUNK), so that they sample the host
    at many points of the unit; the time they take is left out of the
    unit's wall time.  The garbage collector stays on: collections the
    reads trigger are part of what a read costs.  A disabled reader
    (traced runs) does nothing.
    """

    def __init__(self, per_chunk: int = 0) -> None:
        self.enabled = per_chunk > 0
        self.per_chunk = per_chunk
        self.table = None
        self.latencies: list[float] = []
        self.busy_s = 0.0

    def use(self, table) -> None:
        """Read ``table`` from now on if it is the zero-bias table."""
        if table.conditions.vbody_n == 0.0:
            self.table = table

    def chunk(self) -> None:
        if not self.enabled or self.table is None:
            return
        from repro.experiments.repair import DEFAULT_SHIFTS
        from repro.failures.analysis import MECHANISMS

        started = time.perf_counter()
        clock = time.perf_counter_ns
        series = self.table.series
        for _ in range(self.per_chunk):
            start = clock()
            for mechanism in MECHANISMS + ("any",):
                series(DEFAULT_SHIFTS, mechanism)
            self.latencies.append((clock() - start) * 1e-9)
        self.busy_s += time.perf_counter() - started


def peak_rss_mb() -> float:
    """This process's peak resident set [MB] (VmHWM)."""
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "lot"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "reference"),
                        required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import repro.core.lot  # noqa: F401  (the imports set-up pays for)
    import repro.experiments.asb  # noqa: F401

    recorder = None
    if args.trace_dir:
        import layers

        recorder = layers.Recorder(args.trace_dir)
        missing = layers.install(recorder)
        if missing:
            print(f"perfbench: not traced: {', '.join(missing)}",
                  file=sys.stderr)
    make_context(args.seed, LOT["workers"] if args.workload == "lot" else 1)
    setup_s = time.perf_counter() - _T0
    result: dict = {"setup_s": setup_s}
    if args.mode != "setup":
        run = run_sweep if args.workload == "sweep" else run_lot
        estimates: list = []
        capture_estimates(estimates)
        reader = Reads(READS_PER_CHUNK[args.workload] if recorder is None else 0)
        clock = EstimateClock(pathlib.Path(args.out).with_suffix(".estimates"),
                              after=reader.chunk)
        clock.install()
        if recorder is not None:
            unit = recorder.span("perfbench.unit", run)(
                args.seed, estimates, reader)
        else:
            unit = run(args.seed, estimates, reader)
        outputs = unit["outputs"]
        if args.mode == "reference":
            path = reference_path(args.workload, args.seed)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(outputs, indent=1, sort_keys=True))
        reference = None
        if args.seed == DEFAULT_SEED:
            reference = json.loads(
                reference_path(args.workload, args.seed).read_text())
        attempted = len(outputs["estimates"])
        errors = check_estimates(
            outputs["estimates"],
            reference["estimates"] if reference else None)
        if "dies" in outputs:
            attempted += len(outputs["dies"])
            errors += check_dies(
                outputs["dies"], reference["dies"] if reference else None)
        result.update(wall_s=unit["wall_s"], jobs_s=clock.latencies(),
                      digest=digest(outputs), reads_s=reader.latencies,
                      attempted=attempted, errors=errors)
    if recorder is not None:
        recorder.flush()
    result["peak_rss_mb"] = peak_rss_mb()
    pathlib.Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
