"""The ``serve-live`` workload: ``repro serve`` under an open-loop client.

One round starts ``repro serve`` with its defaults and a 16 h horizon in its
own process (the traced round starts ``serve_launcher.py`` instead), then:

- one client thread sends status queries open loop at 10 requests/s,
  rotating ``/fleet``, ``/forecasts``, ``/nodes`` and ``/schedule``, each
  timed from when it was due;
- an operator thread applies three planned changes at fixed wall-clock
  offsets, each as ``POST /pause``, ``POST /mutations``, ``POST /resume``;
- once ``/fleet`` reports the horizon tick (and the operator is done) the
  client posts ``/shutdown`` and the round runs ``repro serve --replay`` on
  the session directory.

Queries carry no deadline of their own: a query that waits for the session
lock waits, and its latency shows it.  A session that has not reached its
horizon within ``DEADLINE_S`` fails the round.
"""

from __future__ import annotations

import http.client
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from harness import OUT, ROOT, Ledger, check_outcome_identities, child_env, median, percentile
from spans import load_summary

HERE = Path(__file__).resolve().parent
HORIZON_SECONDS = 57_600
RATE_PER_S = 10.0
ENDPOINTS = ("/fleet", "/forecasts", "/nodes", "/schedule")
#: (wall-clock offset after ready in seconds, mutation), applied in order.
PLANNED_CHANGES = (
    (1.0, {"kind": "load", "total_ebs": 150}),
    (2.0, {"kind": "leak_rate", "node": 0, "memory_n": 10}),
    (3.0, {"kind": "rejuvenate", "node": 2}),
)
#: Attempts to find the node to rejuvenate in service (it may be restarting
#: after a crash when the operator pauses the fleet).
REJUVENATE_ATTEMPTS = 50
DEADLINE_S = 120.0
READY_PREFIX = "fleet service on "


class ServerProcess:
    """One server process: start, wait for its ready line, talk HTTP, stop."""

    def __init__(self, seed: int, session_dir: Path, spans: Path | None) -> None:
        shutil.rmtree(session_dir, ignore_errors=True)
        if spans is None:
            command = [sys.executable, "-m", "repro", "serve"]
        else:
            command = [sys.executable, str(HERE / "serve_launcher.py"), "--spans", str(spans)]
        command += [
            "--seed", str(seed),
            "--horizon-seconds", str(HORIZON_SECONDS),
            "--session-dir", str(session_dir),
        ]
        if spans is None:
            command += ["--port", "0"]
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline()
        self.ready = time.perf_counter()
        if not line.startswith(READY_PREFIX):
            self.process.kill()
            _, stderr = self.process.communicate(timeout=30)
            raise RuntimeError(f"server did not start: {line!r} {stderr[-2000:]}")
        self.host, port = line[len(READY_PREFIX):].split()[0].removeprefix("http://").split(":")
        self.port = int(port)
        # Keep draining the server's output so it can never block on a full pipe.
        self._drain = threading.Thread(target=self.process.communicate, daemon=True)
        self._drain.start()

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=DEADLINE_S)

    def proc_field(self, name: str, key: str) -> int:
        """One integer field of ``/proc/<pid>/<name>`` (0 when unreadable)."""
        try:
            text = Path(f"/proc/{self.process.pid}/{name}").read_text()
        except OSError:
            return 0
        for line in text.splitlines():
            if line.startswith(key + ":"):
                return int(line.split()[1])
        return 0

    def stop(self) -> int:
        """Wait for the process to end after ``/shutdown``; kill it if it does not."""
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
        self._drain.join(timeout=10)
        return self.process.returncode

    def kill(self) -> None:
        """End the process now if it is still running (no-op once it has ended)."""
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


def request(conn: http.client.HTTPConnection, method: str, path: str, body: dict | None = None):
    """One HTTP exchange; returns (status, decoded JSON or None)."""
    data = json.dumps(body).encode("utf-8") if body is not None else b""
    headers = {"Content-Type": "application/json", "Content-Length": str(len(data))}
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    try:
        payload = json.loads(raw) if raw else None
    except json.JSONDecodeError:
        payload = None
    return response.status, payload


class Operator(threading.Thread):
    """Applies the planned changes at their offsets, the way an operator does."""

    def __init__(self, server: ServerProcess, ledger: Ledger, ready: float) -> None:
        super().__init__(name="operator", daemon=True)
        self.server = server
        self.ledger = ledger
        self.ready = ready
        self.control_ms: list[float] = []
        self.sent: list[dict] = []

    def call(self, conn, method: str, path: str, body: dict | None = None):
        sent = time.perf_counter()
        try:
            status, payload = request(conn, method, path, body)
        except (OSError, http.client.HTTPException) as error:
            status, payload = 0, str(error)
        self.control_ms.append((time.perf_counter() - sent) * 1e3)
        self.ledger.record(status == 200, f"operator {method} {path}: {status} {payload}")
        return status, payload

    def run(self) -> None:
        conn = self.server.connect()
        try:
            for offset, mutation in PLANNED_CHANGES:
                time.sleep(max(0.0, self.ready + offset - time.perf_counter()))
                self.call(conn, "POST", "/pause")
                if mutation["kind"] == "rejuvenate":
                    self.wait_until_active(conn, mutation["node"])
                status, _ = self.call(conn, "POST", "/mutations", mutation)
                if status == 200:
                    self.sent.append(mutation)
                self.call(conn, "POST", "/resume")
        finally:
            conn.close()

    def wait_until_active(self, conn, node: int) -> None:
        for _ in range(REJUVENATE_ATTEMPTS):
            status, payload = self.call(conn, "GET", f"/nodes/{node}")
            if status != 200 or payload.get("state") == "active":
                return
            self.call(conn, "POST", "/resume")
            time.sleep(0.1)
            self.call(conn, "POST", "/pause")


def setup_sample(seed: int) -> float:
    """Seconds from starting the server process to its ready line."""
    server = ServerProcess(seed, OUT / "serve-setup", spans=None)
    conn = server.connect()
    try:
        request(conn, "POST", "/shutdown")
    finally:
        conn.close()
        server.stop()
    return server.ready - server.spawned


def run_round(seed: int, ledger: Ledger, traced: bool) -> dict:
    session_dir = OUT / "serve" / str(seed)
    spans_path = OUT / "spans" / "serve-live.npz" if traced else None
    server = ServerProcess(seed, session_dir, spans_path)
    try:
        client = drive_session(server, seed, ledger)
        ledger.record(server.stop() == 0, "server exited with an error")
    finally:
        server.kill()

    replay_started = time.perf_counter()
    replay = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--replay", str(session_dir)],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=DEADLINE_S,
    )
    replay_s = time.perf_counter() - replay_started
    ledger.record(replay.returncode == 0, f"replay failed: {replay.stderr[-2000:]}")
    outcome = check_session(ledger, session_dir, client["mutations"], client["ticks"])

    latencies_ms = client["latencies_ms"]
    result = {
        "setup_s": server.ready - server.spawned,
        "wall_s": client["wall_s"],
        "node_s_per_s": outcome["num_nodes"] * HORIZON_SECONDS / client["wall_s"],
        "rss_mb": client["peak_rss_kib"] / 1024.0,
        "layers": {
            "service.query_p50_ms": median(latencies_ms),
            "service.query_p90_ms": percentile(latencies_ms, 0.9),
            **{f"service.{path[1:]}_ms": median(times) for path, times in client["by_endpoint"].items()},
            "service.control_ms": median(client["control_ms"]),
            "service.generator_late_ms": median(client["late_ms"]),
            "service.queries": len(latencies_ms),
            "service.write_bytes": client["write_bytes"],
            "service.replay_s": replay_s,
            "cluster.served_requests": outcome["served_requests"],
            "cluster.rejuvenations": outcome["rejuvenations"],
        },
    }
    if spans_path is not None:
        summary = load_summary(spans_path)
        spans = summary["spans"]
        result["layers"]["service.step_s"] = spans["cluster.step"]["total_s"] if "cluster.step" in spans else 0.0
        result["layers"]["service.snapshot_s"] = (
            spans["service.snapshot"]["total_s"] if "service.snapshot" in spans else 0.0
        )
        result["spans"] = summary
    return result


def drive_session(server: ServerProcess, seed: int, ledger: Ledger) -> dict:
    """Run the client and the operator against a ready server, then shut it down."""
    ready = server.ready
    operator = Operator(server, ledger, ready)
    operator.start()
    conn = server.connect()
    latencies_ms: list[float] = []
    late_ms: list[float] = []
    by_endpoint: dict[str, list[float]] = {path: [] for path in ENDPOINTS}
    ticks: list[int] = []
    horizon_seen = None
    index = 0
    while True:
        due = ready + index / RATE_PER_S
        now = time.perf_counter()
        # Done once the horizon was seen, the operator is through and every
        # query that fell due before now has been sent.
        if horizon_seen is not None and not operator.is_alive() and due > now:
            break
        if now - ready > DEADLINE_S:
            ledger.record(False, f"session did not reach its horizon within {DEADLINE_S:.0f}s")
            break
        time.sleep(max(0.0, due - now))
        path = ENDPOINTS[(seed + index) % len(ENDPOINTS)]
        sent = time.perf_counter()
        try:
            status, payload = request(conn, "GET", path)
        except (OSError, http.client.HTTPException) as error:
            status, payload = 0, str(error)
        done = time.perf_counter()
        if not ledger.record(status == 200, f"GET {path}: {status} {payload}"):
            break
        latencies_ms.append((done - due) * 1e3)
        late_ms.append((sent - due) * 1e3)
        by_endpoint[path].append((done - sent) * 1e3)
        if path == "/fleet":
            ticks.append(payload["tick"])
            if horizon_seen is None and payload["tick"] >= HORIZON_SECONDS:
                horizon_seen = done
        index += 1

    peak_rss_kib = server.proc_field("status", "VmHWM")
    write_bytes = server.proc_field("io", "write_bytes")
    try:
        status, _ = request(conn, "POST", "/shutdown")
    except (OSError, http.client.HTTPException) as error:
        status = error
    conn.close()
    ledger.record(status == 200, f"POST /shutdown: {status}")
    operator.join(timeout=DEADLINE_S)
    return {
        "wall_s": (horizon_seen or time.perf_counter()) - ready,
        "latencies_ms": latencies_ms,
        "late_ms": late_ms,
        "by_endpoint": by_endpoint,
        "control_ms": operator.control_ms,
        "mutations": operator.sent,
        "ticks": ticks,
        "peak_rss_kib": peak_rss_kib,
        "write_bytes": write_bytes,
    }


def check_session(ledger: Ledger, session_dir: Path, sent: list[dict], ticks: list[int]) -> dict:
    """Check the session's artifacts and return its recorded outcome.

    The command log holds exactly the applied changes, in order, the
    ``/fleet`` ticks never fell, and the outcome's accounting adds up.
    """
    commands_path = session_dir / "commands.jsonl"
    logged = []
    if commands_path.exists():
        for line in commands_path.read_text().splitlines():
            record = json.loads(line)
            logged.append({"kind": record["kind"], **record["params"]})
    planned = [mutation for _, mutation in PLANNED_CHANGES]
    ledger.record(logged == planned and sent == planned, f"command log {logged} is not {planned}")
    ledger.record(
        all(later >= earlier for earlier, later in zip(ticks, ticks[1:])),
        "/fleet ticks decreased",
    )
    outcome = json.loads((session_dir / "outcome.json").read_text())["outcome"]
    check_outcome_identities(ledger, outcome, "serve-live session")
    return outcome
