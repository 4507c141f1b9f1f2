"""The repository's benchmark: two workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload fluid-fleet --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 7            # every workload, one after another

Run from the root of a checkout.  Each workload runs as whole rounds, each
round in a fresh process, until ``--seconds`` would be exceeded (at least
one round); set-up is timed in extra fresh processes as well.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run makes one plain round
and one traced round and reports the difference of their wall clock as
``trace.overhead_s``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import serve
from harness import OUT, ROOT, SRC, Ledger, check_seeded_repeat, child_env, median

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fluid-fleet", "serve-live")
#: Fresh-process set-ups timed per run, besides the one of every round.
SETUP_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "node_s_per_s": "node_s/s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "testbed.trace_s": "s",
    "testbed.trace_marks": "count",
    "ml.fit_s": "s",
    "ml.fit_rows": "count",
    "ml.leaves": "count",
    "ml.heldout_mae_s": "s",
    "core.forecast_s": "s",
    "core.forecast_calls": "count",
    "core.forecast_rows": "count",
    "cluster.step_s": "s",
    "cluster.step_p50_ms": "ms",
    "cluster.step_max_ms": "ms",
    "cluster.route_s": "s",
    "cluster.route_calls": "count",
    "cluster.coordinator_s": "s",
    "cluster.coordinator_calls": "count",
    "cluster.self_s": "s",
    "cluster.served_requests": "count",
    "cluster.rejuvenations": "count",
    "cluster.fluid.step_s": "s",
    "cluster.fluid.step_p50_ms": "ms",
    "cluster.fluid.self_s": "s",
    "cluster.fluid.norejuv_s": "s",
    "service.query_p50_ms": "ms",
    "service.query_p90_ms": "ms",
    "service.fleet_ms": "ms",
    "service.forecasts_ms": "ms",
    "service.nodes_ms": "ms",
    "service.schedule_ms": "ms",
    "service.control_ms": "ms",
    "service.generator_late_ms": "ms",
    "service.queries": "count",
    "service.step_s": "s",
    "service.snapshot_s": "s",
    "service.write_bytes": "bytes",
    "service.replay_s": "s",
    "trace.overhead_s": "s",
}


class FluidRounds:
    """Rounds of ``fluid-fleet``, one worker process each."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _spawn(self, *flags: str) -> tuple[float, list[str]]:
        command = [sys.executable, str(HERE / "fluid_fleet.py"), "--seed", str(self.seed), *flags]
        spawned = time.perf_counter()
        process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        first = process.stdout.readline()
        ready = time.perf_counter()
        rest, stderr = process.communicate()
        if process.returncode != 0 or first.strip() != "ready":
            raise RuntimeError(f"fluid-fleet worker failed ({process.returncode}): {stderr[-3000:]}")
        return ready - spawned, rest.splitlines()

    def setup_sample(self) -> float:
        return self._spawn("--setup-only")[0]

    def run_round(self, ledger: Ledger, traced: bool) -> dict:
        setup_s, lines = self._spawn(*(["--trace"] if traced else []))
        result = json.loads(lines[-1])
        ledger.merge(result["attempted"], result["failed"], result["errors"])
        check_seeded_repeat(ledger, "fluid-fleet", self.seed, result["digests"])
        return {
            "setup_s": setup_s,
            "wall_s": result["wall_s"],
            "node_s_per_s": result["node_seconds"] / result["fleet_s"],
            "rss_mb": result["rss_mb"],
            "layers": dict(result["counts"]),
            "spans": result.get("spans"),
        }


class ServeRounds:
    """Rounds of ``serve-live``: a server process plus the client threads here."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup_sample(self) -> float:
        return serve.setup_sample(self.seed)

    def run_round(self, ledger: Ledger, traced: bool) -> dict:
        return serve.run_round(self.seed, ledger, traced)


def layer_metrics(round_result: dict) -> dict[str, float]:
    """Per-layer metrics of a traced round, 0 for layers it did not exercise."""
    values = {name: 0.0 for name in PER_LAYER}
    values.update(round_result["layers"])
    spans = round_result["spans"]["spans"]
    counters = round_result["spans"]["counters"]

    def total(name: str) -> float:
        return spans[name]["total_s"] if name in spans else 0.0

    def count(name: str) -> int:
        return spans[name]["count"] if name in spans else 0

    values.update(
        {
            "testbed.trace_s": total("testbed.trace"),
            "ml.fit_s": total("ml.fit"),
            "core.forecast_s": total("core.forecast"),
            "core.forecast_calls": count("core.forecast"),
            "core.forecast_rows": counters.get("core.forecast.rows", 0),
            "cluster.step_s": total("cluster.step"),
            "cluster.route_s": total("cluster.route"),
            "cluster.route_calls": count("cluster.route"),
            "cluster.coordinator_s": total("cluster.coordinator"),
            "cluster.coordinator_calls": count("cluster.coordinator"),
            "cluster.fluid.step_s": total("cluster.fluid.step"),
            "cluster.fluid.norejuv_s": total("cluster.fluid.norejuv"),
        }
    )
    if "cluster.step" in spans:
        step = spans["cluster.step"]
        values.update(
            {
                "cluster.step_p50_ms": step["p50_ms"],
                "cluster.step_max_ms": step["max_ms"],
                "cluster.self_s": step["self_s"],
            }
        )
    if "cluster.fluid.step" in spans:
        step = spans["cluster.fluid.step"]
        values.update({"cluster.fluid.step_p50_ms": step["p50_ms"], "cluster.fluid.self_s": step["self_s"]})
    return values


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    runner = ServeRounds(seed) if workload == "serve-live" else FluidRounds(seed)
    ledger = Ledger()
    setups = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    if trace:
        plain = runner.run_round(ledger, traced=False)
        traced = runner.run_round(ledger, traced=True)
        values = layer_metrics(traced)
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        rounds = []
        started = time.perf_counter()
        while True:
            rounds.append(runner.run_round(ledger, traced=False))
            elapsed = time.perf_counter() - started
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
        setups += [round_result["setup_s"] for round_result in rounds]
        values = {
            "setup_s": median(setups),
            "wall_s": median([r["wall_s"] for r in rounds]),
            "node_s_per_s": median([r["node_s_per_s"] for r in rounds]),
            "peak_rss_mb": median([r["rss_mb"] for r in rounds]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for error in ledger.errors:
        print(f"{workload}: {error}", file=sys.stderr)
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=7, help="cluster seed of the fleet runs (default: 7)")
    parser.add_argument("--seconds", type=int, default=30, help="measuring time of a run (default: 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    # Untimed warm-up: compile the bytecode once, as an installed program has it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)], check=True, env=child_env())
    OUT.mkdir(exist_ok=True)
    for workload in [args.workload] if args.workload else WORKLOADS:
        print(json.dumps(run_workload(workload, args.seed, args.seconds, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
