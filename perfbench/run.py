"""The repo benchmark: one workload, measured end to end or traced layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep|lot|service --seed N \
        --seconds S --trace 0|1

A run measures one unit of the workload (one sweep, one lot, or one
sequence of cold service jobs), which takes 15 to 25 s on a 2-vCPU
host; ``--seconds`` is accepted and does not change the work.
``--trace 0`` measures with tracing off and prints every end-to-end
metric; ``--trace 1`` runs the workload once untraced and once with the
layer spans of ``layers.py`` installed, checks that both computed the
same outputs, and prints every per-layer metric.  Metric names and units
come from ``BENCHMARK.json``.  The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it stamps the host and code the numbers were measured on.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
#: In-process reads per window of ``fast_window_ms``.
READ_WINDOW = 500
#: A window is fast if its median read is at most this many times the
#: lowest window median (the slow speed is about 1.6 times the fast).
FAST_WINDOW = 1.25

import layers  # noqa: E402
import service_load  # noqa: E402
import workloads  # noqa: E402

CLIENT_METRICS = {
    "service.client.submit_ms.p50": ("submit", 50),
    "service.client.status_ms.p50": ("status", 50),
    "service.client.result_ms.p50": ("read", 50),
    "service.client.result_ms.p99": ("read", 99),
    "service.client.dedupe_ms.p50": ("dedupe", 50),
    "service.client.dedupe_ms.p99": ("dedupe", 99),
}


def percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) * 1e3


def fast_window_ms(values, q: float, window: int = READ_WINDOW) -> float:
    """Percentile ``q`` of the in-process reads made while the host ran
    at its fast speed.

    A read takes about 0.1 ms, and a shared host switches between a fast
    speed and one about 1.6 times slower, for stretches of a fraction of
    a second to minutes.  A window of ``window`` consecutive reads mostly
    sees one speed.  Any statistic that weighs all windows by their
    share of the run (a pooled percentile, or the mean, median or lower
    quartile over windows) follows the share of the run the host spent
    slow, which changes from run to run and from one hour to the next.
    So the reads are taken from the fast windows only: those whose
    median is at most FAST_WINDOW times the lowest window median.  A
    percentile of the reads pooled over those windows keeps each fast
    window's tail, collections included.
    """
    values = np.asarray(values, dtype=float)
    windows = values[:len(values) // window * window].reshape(-1, window)
    medians = np.median(windows, axis=1)
    fast = medians <= FAST_WINDOW * medians.min()
    return percentile_ms(windows[fast].ravel(), q)


# ----------------------------------------------------------------------
# Host and code stamp
# ----------------------------------------------------------------------
def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_probe_ms() -> float:
    """Median time of a fixed numpy computation: the host's speed now."""
    x = np.linspace(0.0, 1.0, 200_000)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(4):
            np.logaddexp(0.0, np.sin(x) * 3.0).sum()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def stamp(args, load_before, probe_before) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "cpu_probe_ms_before": probe_before,
        "cpu_probe_ms_after": cpu_probe_ms(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ----------------------------------------------------------------------
# Resident memory of a process tree
# ----------------------------------------------------------------------
def _children() -> dict[int, list[int]]:
    tree: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        tree.setdefault(ppid, []).append(int(entry))
    return tree


def _rss_mb(pid: int) -> float:
    try:
        pages = int(pathlib.Path(f"/proc/{pid}/statm").read_text().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class TreeRss:
    """Peak summed resident set of a process and its descendants,
    sampled every 100 ms (descendants rescanned every second), so
    that the sampler takes well under 1% of a CPU from the workload."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        pids = [self.pid]
        scanned = 0.0
        while not self._stop.is_set():
            now = time.monotonic()
            if now - scanned > 1.0:
                tree = _children()
                pids, frontier = [], [self.pid]
                while frontier:
                    pid = frontier.pop()
                    pids.append(pid)
                    frontier += tree.get(pid, [])
                scanned = now
            self.peak_mb = max(self.peak_mb, sum(_rss_mb(p) for p in pids))
            self._stop.wait(0.1)

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return self.peak_mb


# ----------------------------------------------------------------------
# sweep and lot: a child process per set-up / unit
# ----------------------------------------------------------------------
def run_child(args, env, run_dir: pathlib.Path, mode: str,
              trace_dir: pathlib.Path | None = None) -> tuple[dict, float]:
    """One ``workloads.py`` process: (its result, peak tree RSS [MB])."""
    run_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{mode}-{time.monotonic_ns()}"
    out = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--mode", mode,
           "--out", str(out)]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    log = run_dir / f"{tag}.log"
    with open(log, "wb") as sink:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sink, stderr=sink)
        rss = TreeRss(proc.pid)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            peak = rss.stop()
    if code != 0:
        tail = log.read_text(errors="replace")[-2000:]
        raise RuntimeError(
            f"{args.workload} {mode} child exited {code}:\n{tail}")
    return json.loads(out.read_text()), peak


def compute_metrics(args, env, run_dir) -> tuple[dict, int, list[str]]:
    setups = [
        run_child(args, env, run_dir, "setup")[0]["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    result, peak = run_child(args, env, run_dir, "run")
    setups.append(result["setup_s"])
    reads = result["reads_s"]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": result["wall_s"],
        "job_latency_p50_s": statistics.median(result["jobs_s"]),
        "read_latency_p50_ms": fast_window_ms(reads, 50),
        "read_latency_p99_ms": fast_window_ms(reads, 99),
        "peak_rss_mb": max(peak, result["peak_rss_mb"]),
    }
    return metrics, result["attempted"], result["errors"]


def compute_layers(args, env, run_dir) -> tuple[dict, int, list[str]]:
    trace_dir = run_dir / "trace"
    plain, _ = run_child(args, env, run_dir, "run")
    traced, _ = run_child(args, env, run_dir, "run", trace_dir=trace_dir)
    files = layers.load_spans(trace_dir)
    metrics = layers.layer_metrics(files)
    plain_wall = plain["wall_s"]
    traced_wall = traced["wall_s"]
    _, covered = layers.coverage(files, "perfbench.unit")
    metrics.update({
        "observability.trace_overhead_frac": traced_wall / plain_wall - 1.0,
        "observability.traced_wall_s": traced_wall,
        "observability.layer_coverage": covered,
    })
    metrics.update({name: 0.0 for name in CLIENT_METRICS})
    errors = plain["errors"] + traced["errors"]
    if plain["digest"] != traced["digest"]:
        errors.append("traced outputs differ from untraced outputs")
    keep_trace(args.workload, trace_dir)
    return metrics, plain["attempted"] + traced["attempted"] + 1, errors


def keep_trace(workload: str, trace_dir: pathlib.Path) -> None:
    """Leave the last traced run's span files for inspection."""
    kept = RUNS / "last-trace" / workload
    shutil.rmtree(kept, ignore_errors=True)
    kept.parent.mkdir(parents=True, exist_ok=True)
    shutil.move(str(trace_dir), str(kept))


# ----------------------------------------------------------------------
# service: a server process, this process as the client
# ----------------------------------------------------------------------
def service_window(args, env, run_dir, ops, trace_dir=None):
    """Boot, warm up, run one unit, drain."""
    server = service_load.Server(ROOT, run_dir, env, trace_dir=trace_dir)
    rss = TreeRss(server.pid)
    try:
        warm = service_load.prepare_warm(server, args.seed)
        unit = service_load.run_unit(server, args.seed, warm, ops)
        service_load.check_health(server, ops)
    finally:
        code = server.stop()
        peak = rss.stop()
    if code != 0:
        ops.fail(f"server exited {code} after drain")
    return server.boot_s, unit, peak


def service_metrics(args, env, run_dir) -> tuple[dict, int, list[str]]:
    ops = service_load.Ops()
    boots = []
    for k in range(SETUP_SAMPLES - 1):
        server = service_load.Server(ROOT, run_dir / f"boot{k}", env)
        boots.append(server.boot_s)
        if server.stop() != 0:
            ops.fail(f"boot {k} server did not drain cleanly")
    boot, unit, peak = service_window(args, env, run_dir / "server", ops)
    boots.append(boot)
    reads = [t for kind in ("read", "dedupe", "status")
             for t in ops.latency.get(kind, [])]
    metrics = {
        "setup_s": statistics.median(boots),
        "wall_s": unit["wall_s"],
        "job_latency_p50_s": statistics.median(unit["jobs_s"]),
        "read_latency_p50_ms": percentile_ms(reads, 50),
        "read_latency_p99_ms": percentile_ms(reads, 99),
        "peak_rss_mb": peak + workloads.peak_rss_mb(),
    }
    return metrics, ops.attempted, ops.errors


def service_layers(args, env, run_dir) -> tuple[dict, int, list[str]]:
    trace_dir = run_dir / "trace"
    plain_ops, ops = service_load.Ops(), service_load.Ops()
    _, plain, _ = service_window(args, env, run_dir / "plain", plain_ops)
    _, traced, _ = service_window(args, env, run_dir / "traced", ops,
                                  trace_dir=trace_dir)
    files = layers.load_spans(trace_dir)
    metrics = layers.layer_metrics(files)
    _, covered = layers.coverage(files, "service.jobs.run")
    metrics.update({
        "observability.trace_overhead_frac":
            traced["wall_s"] / plain["wall_s"] - 1.0,
        "observability.traced_wall_s": traced["wall_s"],
        "observability.layer_coverage": covered,
    })
    for name, (kind, q) in CLIENT_METRICS.items():
        samples = ops.latency.get(kind)
        metrics[name] = percentile_ms(samples, q) if samples else 0.0
    errors = plain_ops.errors + ops.errors
    if plain["results"] != traced["results"]:
        errors.append("traced job results differ from untraced job results")
    keep_trace(args.workload, trace_dir)
    return metrics, plain_ops.attempted + ops.attempted + 1, errors


WORKLOADS = {
    "sweep": (compute_metrics, compute_layers),
    "lot": (compute_metrics, compute_layers),
    "service": (service_metrics, service_layers),
}


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still drains its server and reaps its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    load_before = list(os.getloadavg())
    probe_before = cpu_probe_ms()
    run_dir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    measure = WORKLOADS[args.workload][args.trace]
    try:
        metrics, attempted, errors = measure(args, env, run_dir)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        metrics["error_rate"] = len(errors) / max(attempted, 1)
    if set(metrics) != set(declared):
        print(f"perfbench: emitted {sorted(set(metrics) ^ set(declared))} "
              "out of step with BENCHMARK.json", file=sys.stderr)
        return 1
    for error in errors[:20]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    for name in declared:
        print(f"{name} {metrics[name]:.6g} {declared[name]}")
    print(f"{len(errors)} of {attempted} operations failed")
    print(json.dumps({"perfbench_stamp": stamp(args, load_before, probe_before)}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": declared[name]}
            for name in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
