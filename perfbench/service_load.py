"""The ``service`` workload: a real ``repro.service`` process under mixed traffic.

One client process (``run.py``) drives the server with two closed-loop
threads, because callers wait on their jobs:

* the writer submits a fixed sequence of distinct small cold jobs,
  alternating the ``table`` and ``hold-surface`` kinds, and polls each
  one until it completes;
* the reader loops result ``GET``\\ s and duplicate submits of two warm
  jobs that were completed during set-up, 10 ms apart, until the writer
  is done.

Every request is counted; a refused or failed request, a failed job, or
a warm read that differs from the first read of the same result counts
as a failed operation.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import select
import signal
import subprocess
import sys
import threading
import time
import urllib.parse

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent

#: Cold jobs per unit (half of each kind).
COLD_JOBS = 12
#: Small, cold and of similar cost for both kinds (~1.5 s each).
BASE_SPEC = {
    "target": 1e-3,
    "calibration_samples": 500,
    "analysis_samples": 100,
    "table_grid": 4,
}
KIND_SPEC = {
    "table": {"vbody_levels": [0.0]},
    "hold-surface": {"corner_points": 4, "vsb_levels": [0.0, 0.3, 0.5]},
}
#: Client pauses: the writer between status polls, the reader between
#: requests.  Without a pause a reader's next request lands while the
#: server's event loop still holds the interpreter from the previous
#: one, and about half the reads skip the wait for the job thread; the
#: median then sits on the edge between the two modes.
POLL_S = 0.02
READ_PAUSE_S = 0.01
TIMEOUT_S = 120.0


def spec_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0]) & 0x7FFFFFFF


def cold_spec(seed: int, index: int) -> dict:
    kind = ("table", "hold-surface")[index % 2]
    return {"kind": kind, **BASE_SPEC, **KIND_SPEC[kind],
            "seed": spec_seed(seed, 1, index)}


def warm_specs(seed: int) -> list[dict]:
    return [
        {"kind": kind, **BASE_SPEC, **KIND_SPEC[kind], "seed": spec_seed(seed, 0, i)}
        for i, kind in enumerate(("table", "hold-surface"))
    ]


class Server:
    """One ``repro.service`` process with its own state directories."""

    def __init__(self, root: pathlib.Path, run_dir: pathlib.Path, env: dict,
                 trace_dir: pathlib.Path | None = None) -> None:
        run_dir.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "launch_service.py")]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        cmd += [
            "--", "--port", "0", "--job-workers", "1",
            "--state-dir", str(run_dir / "state"),
            "--cache-dir", str(run_dir / "cache"),
            "--checkpoint-dir", str(run_dir / "checkpoints"),
        ]
        self._stderr = open(run_dir / "server.stderr", "wb")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        try:
            self.url = self._await_url(start + TIMEOUT_S)
            parsed = urllib.parse.urlparse(self.url)
            self.host, self.port = parsed.hostname, parsed.port
            while request(self, "GET", "/v1/readyz")[0] != 200:
                if time.perf_counter() > start + TIMEOUT_S:
                    raise RuntimeError("server never became ready")
                time.sleep(0.005)
        except BaseException:
            self.proc.kill()
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _await_url(self, deadline: float) -> str:
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
            if not ready:
                raise RuntimeError("server printed no URL")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(
                    f"server exited with {self.proc.wait()} before listening")
            line += chunk
        text = line.decode().strip()
        if not text.startswith("listening on "):
            raise RuntimeError(f"unexpected server output {text!r}")
        return text[len("listening on "):]

    def stop(self) -> int:
        """Graceful drain (SIGTERM); returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        return code


def request(server: Server, method: str, path: str,
            body: dict | None = None) -> tuple[int, bytes]:
    """One request on a fresh connection (the server closes each one)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=TIMEOUT_S)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Ops:
    """Thread-safe tally of client operations and their latencies."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.errors: list[str] = []
        self.latency: dict[str, list[float]] = {}

    def call(self, kind: str, server: Server, method: str, path: str,
             body: dict | None = None, expect=(200,)) -> tuple[int, bytes]:
        start = time.perf_counter()
        try:
            status, data = request(server, method, path, body)
        except (OSError, http.client.HTTPException) as exc:
            status, data = 0, repr(exc).encode()
        elapsed = time.perf_counter() - start
        with self._lock:
            self.attempted += 1
            self.latency.setdefault(kind, []).append(elapsed)
            if status not in expect:
                self.errors.append(f"{kind} {method} {path}: {status} {data[:200]!r}")
        return status, data

    def fail(self, message: str) -> None:
        with self._lock:
            self.attempted += 1
            self.errors.append(message)


def run_job(server: Server, ops: Ops, spec: dict) -> tuple[float, bytes | None]:
    """Submit a cold job and poll it to completion: (latency, result)."""
    start = time.perf_counter()
    status, data = ops.call("submit", server, "POST", "/v1/jobs", spec, expect=(202,))
    if status != 202:
        return time.perf_counter() - start, None
    job_id = json.loads(data)["job"]["id"]
    while True:
        status, data = ops.call("status", server, "GET", f"/v1/jobs/{job_id}")
        state = json.loads(data)["job"]["status"] if status == 200 else "error"
        if state in ("completed", "failed", "cancelled", "error"):
            break
        if time.perf_counter() - start > TIMEOUT_S:
            state = "timeout"
            break
        time.sleep(POLL_S)
    latency = time.perf_counter() - start
    if state != "completed":
        ops.fail(f"job {job_id} ended {state}")
        return latency, None
    status, data = ops.call(
        "cold_result", server, "GET", f"/v1/jobs/{job_id}/result")
    return latency, data if status == 200 else None


def prepare_warm(server: Server, seed: int) -> list[tuple[dict, str, bytes]]:
    """Complete the warm jobs (untimed); returns (spec, id, first read)."""
    ops = Ops()
    warm = []
    for spec in warm_specs(seed):
        _, result = run_job(server, ops, spec)
        if result is None:
            raise RuntimeError(f"warm job failed: {ops.errors}")
        warm.append((spec, json.loads(result)["job_id"], result))
    return warm


def run_unit(server: Server, seed: int, warm, ops: Ops) -> dict:
    """Writer and reader threads until the writer's sequence is done."""
    done = threading.Event()
    jobs: list[float] = []
    results: list[bytes | None] = []

    def writer():
        try:
            for index in range(COLD_JOBS):
                latency, result = run_job(server, ops, cold_spec(seed, index))
                jobs.append(latency)
                results.append(result)
        finally:
            done.set()

    def reader():
        i = 0
        while not done.is_set():
            spec, job_id, first = warm[i % len(warm)]
            time.sleep(READ_PAUSE_S)
            status, data = ops.call(
                "read", server, "GET", f"/v1/jobs/{job_id}/result")
            if status == 200 and data != first:
                ops.fail(f"warm read of {job_id} differs from the first read")
            time.sleep(READ_PAUSE_S)
            status, data = ops.call("dedupe", server, "POST", "/v1/jobs", spec)
            if status == 200 and not json.loads(data).get("deduped"):
                ops.fail(f"duplicate submit of {job_id} was not deduped")
            i += 1

    threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"wall_s": time.perf_counter() - start, "jobs_s": jobs,
            "results": results}


def check_health(server: Server, ops: Ops) -> None:
    status, data = ops.call("healthz", server, "GET", "/v1/healthz")
    if status != 200:
        return
    counters = json.loads(data)["telemetry"]["metrics"]["counters"]
    for name in ("service.jobs_failed", "service.jobs_lost",
                 "service.jobs_rejected"):
        if counters.get(name, 0) != 0:
            ops.fail(f"healthz {name} = {counters[name]}")
