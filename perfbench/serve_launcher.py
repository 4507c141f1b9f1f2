"""``repro serve`` with spans, for the traced ``serve-live`` round.

    python3 perfbench/serve_launcher.py --seed 7 --horizon-seconds 86400 \\
        --session-dir DIR --spans FILE

Starts the session through the same public calls ``repro serve`` makes with
its defaults (``build_service_manifest``, ``SimulationSession``,
``serve_session``; fast preset, memory kind, no rejuvenation policy, event
tier, unpaced, 60-tick chunks), after wrapping the engine's ``step``,
``fleet_snapshot`` and ``node_snapshots`` and the routing and coordinator
calls in spans.  Prints the CLI's ``fleet service on <url>`` line, serves
until ``POST /shutdown`` and then writes the spans to FILE.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.service.server import serve_session
from repro.service.session import SimulationSession, build_service_manifest
from spans import SpanRecorder


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--horizon-seconds", type=float, required=True)
    parser.add_argument("--session-dir", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    manifest = build_service_manifest(seed=args.seed, horizon_seconds=args.horizon_seconds)
    session = SimulationSession(manifest, args.session_dir)
    recorder = SpanRecorder()
    engine = session.engine
    recorder.wrap(engine, "step", "cluster.step")
    recorder.wrap(engine, "fleet_snapshot", "service.snapshot")
    recorder.wrap(engine, "node_snapshots", "service.snapshot")
    recorder.wrap(engine.balancer.policy, "route", "cluster.route")
    recorder.wrap(engine.coordinator, "decide", "cluster.coordinator")
    recorder.wrap(engine.coordinator, "next_decision_tick", "cluster.coordinator")

    server = serve_session(session, host="127.0.0.1", port=0)
    session.start()
    print(f"fleet service on {server.url}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        session.finish()
        recorder.write(Path(args.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
