"""Plumbing shared by ``run.py`` and the benchmark's worker processes.

Paths of the checkout, the environment every child process runs under, the
ledger that counts attempted and failed operations, the outcome checks that
hold on every engine tier, and the store behind the seeded-repeat check.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run leaves behind (session directories, span files, the
#: seeded-repeat store) goes here; the directory is git-ignored.
OUT = ROOT / ".perfbench"

#: Thread pools of the numeric libraries, pinned to one thread: the M5P fit
#: issues many small solves that gain nothing from BLAS threads, and the
#: benchmark must never ask for more busy threads than the machine's 2 CPUs.
_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONUNBUFFERED"] = "1"
    for variable in _THREAD_VARIABLES:
        env[variable] = "1"
    return env


class Ledger:
    """Counts operations (fleet runs, checks, HTTP requests) and failures.

    Thread-safe: the serve-live client and operator threads share one.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, message: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.errors.append(message)
        return ok

    def merge(self, attempted: int, failed: int, errors: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors)


def check_outcome_identities(ledger: Ledger, outcome: dict, label: str) -> None:
    """Accounting identities every fleet outcome satisfies, on every tier.

    Each node's uptime plus planned and unplanned downtime covers the
    horizon, and the per-node crash, rejuvenation and served-request counts
    add up to the fleet totals.
    """
    horizon = outcome["horizon_seconds"]
    nodes = outcome["per_node"]
    uncovered = [
        node["node_id"]
        for node in nodes
        if abs(
            node["uptime_seconds"]
            + node["planned_downtime_seconds"]
            + node["unplanned_downtime_seconds"]
            - horizon
        )
        > 1e-6 * max(1.0, horizon)
    ]
    ledger.record(not uncovered, f"{label}: nodes {uncovered[:5]} do not account for the horizon")
    for total, per_node in (
        ("crashes", "crashes"),
        ("rejuvenations", "rejuvenations"),
        ("served_requests", "requests_served"),
    ):
        summed = sum(node[per_node] for node in nodes)
        ledger.record(
            summed == outcome[total],
            f"{label}: per-node {per_node} sum to {summed}, fleet reports {outcome[total]}",
        )


def digest(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def check_seeded_repeat(ledger: Ledger, workload: str, seed: int, digests: dict[str, str]) -> None:
    """Every run of a workload with one seed must produce the same outcomes.

    The digests of each run are kept under ``OUT`` and compared with those of
    every later run of the same workload and seed in this checkout, traced
    or not (the traced run steps the engines in chunks, which must not
    change a bit of the outcome).
    """
    path = OUT / "outcomes" / f"{workload}-{seed}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    for name, value in digests.items():
        if name in stored:
            ledger.record(
                stored[name] == value,
                f"{name}: outcome differs from an earlier run with seed {seed}",
            )
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_suffix(".tmp")
    scratch.write_text(json.dumps({**digests, **stored}, sort_keys=True))
    scratch.replace(path)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in 0..1); 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)
