"""The server process of the ``serve`` workload.

Started by ``perfbench/serve.py``; it loads the seeded inputs the
benchmark process trained and saved (``--inputs``), serves them with a ``TrainerServer`` (default
model: the linear ``australian`` SVM; keyed collection: the left record
registry, for server-side model selection in similarity sessions) and
then reads commands, one per line, on standard input:

* ``trace`` — put the layer wrappers in, enable the metrics registry and
  answer ``OK``; from then on ``admin/metrics`` carries the layer totals;
* ``usage`` — answer ``USAGE {"cpu_s": ..., "rss_mb": ...}``;
* ``stop`` (or end of input) — drain and stop the server, then exit.

With ``--trace 1`` the set-up itself also runs with the wrappers in, and
the ``READY`` line reports its precompute warm time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro import obs  # noqa: E402
from repro.core.similarity import MetricParams  # noqa: E402
from repro.math import groups  # noqa: E402
from repro.net import service  # noqa: E402

from perfbench import inputs, layers  # noqa: E402


def reply(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


class SessionClock:
    """Server-side session time per wire protocol (v1 endpoint or v2)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.totals = {"session_v1_s": 0.0, "session_v1_n": 0.0,
                       "session_v2_s": 0.0, "session_v2_n": 0.0}

    def wrap(self, serve_session):
        clock = self

        def timed(server, endpoint, request):
            protocol = "v2" if isinstance(endpoint, service._MuxEndpoint) else "v1"
            start = time.perf_counter()
            try:
                return serve_session(server, endpoint, request)
            finally:
                elapsed = time.perf_counter() - start
                with clock._lock:
                    clock.totals[f"session_{protocol}_s"] += elapsed
                    clock.totals[f"session_{protocol}_n"] += 1

        return timed


def start_tracing(tracer: layers.Tracer) -> None:
    """Wrappers in, registry on; ``admin/metrics`` flushes the totals."""
    registry = obs.MetricsRegistry()
    obs.set_metrics(registry)
    tracer.reset()
    installation = layers.install(tracer)
    clock = SessionClock()
    installation.patch(
        service.TrainerServer, "_serve_session",
        clock.wrap(service.TrainerServer.__dict__["_serve_session"]),
    )
    table0 = groups.fixed_base_table_stats()
    serve_admin = service.TrainerServer.__dict__["_serve_admin"]
    flushed: dict = {}

    def flushing_serve_admin(server, connection, msg_type, request):
        table = groups.fixed_base_table_stats()
        with clock._lock:
            extra = dict(clock.totals)
        extra["table_hits"] = table["hits"] - table0["hits"]
        extra["table_builds"] = table["builds"] - table0["builds"]
        layers.flush_to_registry(tracer, registry, extra=extra, flushed=flushed)
        return serve_admin(server, connection, msg_type, request)

    installation.patch(service.TrainerServer, "_serve_admin", flushing_serve_admin)


def main() -> int:
    parser = argparse.ArgumentParser(description="serve workload server process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True, help="inputs saved by the benchmark")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    tracer = layers.Tracer() if args.trace else None
    setup = layers.install(tracer) if tracer else None
    data = inputs.load_inputs(args.inputs)
    server = service.TrainerServer(
        model=data.linear, models=data.left, config=inputs.protocol_config(),
        params=MetricParams(),
    )
    warm_ms = 0.0
    if setup is not None:
        setup.uninstall()
        stats, _ = tracer.totals()
        warm_ms = stats.get("precompute.PrecomputeService.warm_group", [0, 0.0])[1] * 1e3
    serving = threading.Thread(target=server.serve_forever, name="serve", daemon=True)
    serving.start()
    host, port = server.address
    reply("READY " + json.dumps({
        "host": host, "port": port, "warm_ms": warm_ms,
    }))
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace" and tracer is not None:
                start_tracing(tracer)
                reply("OK")
            elif command == "usage":
                reply("USAGE " + json.dumps({
                    "cpu_s": time.process_time(),
                    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                }))
            elif command == "stop":
                break
    finally:
        server.stop(drain_timeout=5.0)
        serving.join(timeout=15.0)
        if tracer is not None and tracer.spans:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(Path(args.out) / f"trace-serve-{args.seed}-server.jsonl")
    reply("STOPPED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
