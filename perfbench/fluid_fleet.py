"""One round of the ``fluid-fleet`` workload, in a fresh process.

    python3 perfbench/fluid_fleet.py --seed 7 [--trace] [--setup-only]

Prints ``ready`` once the imports are done and the scenario is built
(``run.py`` times set-up up to that line), then generates the training runs, fits
M5P, operates the fluid fleet under rolling predictive rejuvenation and under
no rejuvenation, checks every outcome and prints one JSON line with the
measurements.  ``--setup-only`` stops at ``ready``.  ``--trace`` records spans
around the calls into each layer (see ``spans.py``) and adds the per-layer
summary to the JSON line.

The fleet runs go through the same public calls as ``examples/``:
``generate_cluster_training_traces`` / ``train_cluster_predictor`` and
``run_cluster_policy``; the traced round builds the same engine with
``build_cluster_engine`` and drives ``step`` in fixed chunks, which the
engines guarantee is bit-for-bit the batch run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from harness import OUT, Ledger, check_outcome_identities, digest
from repro.cluster.coordinator import NoClusterRejuvenation, RollingPredictiveRejuvenation
from repro.cluster.routing import AgingAwareRouting
from repro.experiments.cluster import (
    build_cluster_engine,
    generate_cluster_training_traces,
    run_cluster_policy,
    train_cluster_predictor,
)
from repro.experiments.runner import run_memory_leak_trace
from repro.experiments.scenarios import ClusterScenario
from repro.testbed.timeline import first_tick_at_or_after
from spans import SpanRecorder

#: Seeds of the held-out crash runs the M5P quality check predicts (the
#: training runs use the scenario's own seeds, 1 and 2).
HELDOUT_SEEDS = (11, 12)
#: Ticks per ``step`` call in the traced round.
CHUNK_TICKS = 60


def fleet_scenario(seed: int) -> ClusterScenario:
    """Paper-scale training (1 GB heaps, 100/150-EB runs, ``N = 30``), then 300
    fluid nodes at the nominal 100 EBs each for two simulated hours: long
    enough for every unrejuvenated node to crash (the training runs crash at
    3.8-5.9 ks).  The rolling policy may restart a fifth of the fleet at once.
    """
    return replace(
        ClusterScenario.paper_scale(),
        num_nodes=300,
        total_ebs=30_000,
        horizon_seconds=7200.0,
        max_concurrent_restarts=60,
        cluster_seed=seed,
    )


def operate(scenario, coordinator, routing, predictor, recorder):
    """One fluid fleet run to the scenario horizon; chunked and spanned when traced."""
    if recorder is None:
        return run_cluster_policy(
            scenario, coordinator, routing_policy=routing, predictor=predictor, fleet_engine="fluid"
        )
    engine = build_cluster_engine(
        scenario, coordinator, routing_policy=routing, predictor=predictor, fleet_engine="fluid"
    )
    horizon = first_tick_at_or_after(scenario.horizon_seconds, scenario.config.tick_seconds)
    while engine.current_tick < horizon:
        with recorder.span("cluster.fluid.step"):
            engine.step(min(CHUNK_TICKS, horizon - engine.current_tick))
    return engine.finish()


def check_model(ledger: Ledger, scenario, traces, predictor) -> tuple[float, str]:
    """Held-out M5P error against a constant mean-training-TTF predictor.

    Both errors are computed here from crash time minus mark time, not from
    the program's own target code.  Returns the mean held-out MAE and a
    digest of the held-out predictions.
    """
    training_ttf = np.concatenate(
        [trace.crash_time_seconds - np.array([s.time_seconds for s in trace.samples]) for trace in traces]
    )
    constant = float(training_ttf.mean())
    errors = []
    predictions = []
    for ebs in scenario.training_workloads:
        for seed in HELDOUT_SEEDS:
            label = f"held-out run ({ebs} EBs, seed {seed})"
            trace = run_memory_leak_trace(
                scenario.config,
                ebs,
                n=scenario.memory_n,
                seed=seed,
                max_seconds=scenario.training_max_seconds,
            )
            if not ledger.record(trace.crashed, f"{label} did not crash"):
                continue
            ttf = trace.crash_time_seconds - np.array([s.time_seconds for s in trace.samples])
            predicted = predictor.predict_trace(trace)
            if not ledger.record(len(predicted) == len(ttf), f"{label}: one prediction per mark"):
                continue
            mae = float(np.abs(predicted - ttf).mean())
            baseline = float(np.abs(constant - ttf).mean())
            ledger.record(
                mae < baseline,
                f"{label}: M5P MAE {mae:.0f}s not below constant-predictor MAE {baseline:.0f}s",
            )
            errors.append(mae)
            predictions.append(np.asarray(predicted, dtype=np.float64))
    heldout = np.concatenate(predictions) if predictions else np.zeros(0)
    return (float(np.mean(errors)) if errors else 0.0), digest(heldout.tobytes())


def check_fleets(ledger: Ledger, rolling: dict, baseline: dict) -> None:
    check_outcome_identities(ledger, rolling, "rolling predictive")
    ledger.record(rolling["crashes"] == 0, f"rolling predictive: {rolling['crashes']} crashes")
    ledger.record(
        rolling["full_outage_seconds"] == 0.0,
        f"rolling predictive: {rolling['full_outage_seconds']}s of full outage",
    )
    idle = [node["node_id"] for node in rolling["per_node"] if node["rejuvenations"] < 1]
    ledger.record(not idle, f"rolling predictive: nodes {idle[:5]} never rejuvenated")
    check_outcome_identities(ledger, baseline, "no rejuvenation")
    survivors = [node["node_id"] for node in baseline["per_node"] if node["crashes"] < 1]
    ledger.record(not survivors, f"no rejuvenation: nodes {survivors[:5]} never crashed")
    ledger.record(
        baseline["availability"] < rolling["availability"],
        f"no rejuvenation availability {baseline['availability']:.4f} not below "
        f"rolling predictive {rolling['availability']:.4f}",
    )


def run_round(scenario: ClusterScenario, recorder: SpanRecorder | None) -> dict:
    ledger = Ledger()
    span = recorder.span if recorder is not None else (lambda name: nullcontext())

    started = time.perf_counter()
    with span("testbed.trace"):
        traces = generate_cluster_training_traces(scenario)
    with span("ml.fit"):
        predictor = train_cluster_predictor(scenario, traces)
    trained = time.perf_counter()
    ledger.record(True, "training")

    coordinator = RollingPredictiveRejuvenation(
        max_concurrent_restarts=scenario.max_concurrent_restarts,
        min_active_fraction=scenario.min_active_fraction,
    )
    routing = AgingAwareRouting(ttf_comfort_seconds=scenario.ttf_comfort_seconds)
    if recorder is not None:
        # The fluid tier forecasts every due node in one predict_matrix call;
        # it settles routing and the rolling coordinator in numpy and calls
        # neither route nor decide.
        recorder.wrap(predictor, "predict_matrix", "core.forecast", rows=len)
    rolling = operate(scenario, coordinator, routing, predictor, recorder)
    ledger.record(True, "rolling predictive run")
    with span("cluster.fluid.norejuv"):
        baseline = run_cluster_policy(scenario, NoClusterRejuvenation(), fleet_engine="fluid")
    ledger.record(True, "no-rejuvenation run")
    finished = time.perf_counter()

    runs = {"rolling": rolling, "no_rejuvenation": baseline}
    outcomes = {name: outcome.to_dict() for name, outcome in runs.items()}
    check_fleets(ledger, outcomes["rolling"], outcomes["no_rejuvenation"])
    heldout_mae, heldout_digest = check_model(ledger, scenario, traces, predictor)

    digests = {name: digest(outcome.to_json()) for name, outcome in runs.items()}
    digests["heldout_predictions"] = heldout_digest
    result = {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors,
        "wall_s": finished - started,
        "fleet_s": finished - trained,
        "node_seconds": len(runs) * scenario.num_nodes * scenario.horizon_seconds,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests,
        "counts": {
            "testbed.trace_marks": sum(len(trace.samples) for trace in traces),
            "ml.fit_rows": predictor.num_training_instances,
            "ml.leaves": predictor.num_leaves or 0,
            "ml.heldout_mae_s": heldout_mae,
            "cluster.served_requests": sum(o["served_requests"] for o in outcomes.values()),
            "cluster.rejuvenations": sum(o["rejuvenations"] for o in outcomes.values()),
        },
    }
    if recorder is not None:
        result["spans"] = recorder.summary()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    scenario = fleet_scenario(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    recorder = SpanRecorder() if args.trace else None
    result = run_round(scenario, recorder)
    if recorder is not None:
        recorder.write(OUT / "spans" / "fluid-fleet.npz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
