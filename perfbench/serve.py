"""The ``serve`` workload: a ``TrainerServer`` in a child process.

The benchmark process holds two client connections to it, one speaking
protocol v1 and one v2, each driven by its own thread as a closed loop
with one session in flight.  A round on a connection is two linear
classification sessions and one similarity session (the server picks
the left record model by key).  The protocol math is the same as in
``inproc`` but split across the two processes by the role-split sender
and receiver drivers, so wire framing, the codec, the v1
thread-per-connection path and the v2 event loop with its session
workers are all on the blocking path.

A cold set-up spawns a second server process (which loads the trained
inputs and warms), waits for it to listen and connects both clients;
``setup_s`` is the median of ``measure.SETUPS`` of them, taken between
phases while the measured server is idle.  As on the other workloads,
times are scaled to the reference host speed, with one calibration per
phase.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

from perfbench import inputs, layers, measure
from perfbench.workloads import (
    Expected,
    Result,
    cache_counts,
    cache_deltas,
    classification_answer,
    similarity_answer,
    timed_op,
    workers,
)

REPLY_TIMEOUT_S = 60.0
PROTOCOLS = ("v1", "v2")
#: The connections' loops run in phases of this many seconds; a phase
#: ends with both connections at a round boundary, where the run checks
#: its sample counts and reads the server's CPU time.
PHASE_S = 3.0
#: Each connection re-runs every ``IDENTITY_EVERY``-th round of its
#: sessions in-process after the window to check they agree exactly.
IDENTITY_EVERY = 16


class Server:
    """The server child and its command pipe."""

    def __init__(self, seed: int, inputs_path: str, trace: bool, out_dir: str) -> None:
        from perfbench import run

        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(run.ROOT / "perfbench" / "server_main.py"),
             "--seed", str(seed), "--inputs", inputs_path, "--trace", str(int(trace)),
             "--out", out_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=run.child_env(), cwd=str(run.ROOT),
        )
        self.ready = json.loads(self._read("READY "))

    def _read(self, prefix: str) -> str:
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            readable, _, _ = select.select([self.process.stdout], [], [], max(0.0, remaining))
            if not readable:
                raise RuntimeError(f"server gave no {prefix.strip()} reply in time")
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited (code {self.process.poll()})")
            if line.startswith(prefix):
                return line[len(prefix):].strip()

    def command(self, command: str, prefix: str) -> str:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self._read(prefix)

    def usage(self) -> dict:
        return json.loads(self.command("usage", "USAGE "))

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                self.command("stop", "STOPPED")
            except (RuntimeError, OSError):
                self.process.kill()
        try:
            self.process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()


def connect(server: Server, config) -> Dict[str, object]:
    from repro.net.service import TrainerClient

    host, port = server.ready["host"], server.ready["port"]
    return {
        protocol: TrainerClient(host, port, config=config, protocol=protocol)
        for protocol in PROTOCOLS
    }


def close_all(clients) -> None:
    for client in clients.values():
        client.close()


class Connections:
    """Both connections' closed loops, run phase by phase."""

    def __init__(self, seed: int, data: inputs.Inputs, clients, recorder,
                 expected: Expected, tracer) -> None:
        self.seed = seed
        self.data = data
        self.clients = clients
        self.recorder = recorder
        self.expected = expected
        self.tracer = tracer
        self.rounds = {protocol: 0 for protocol in PROTOCOLS}
        self.identity: List[Tuple] = []
        self.client_time: Dict[str, float] = {}

    def _loop(self, protocol: str, stop: threading.Event) -> None:
        if self.tracer is not None:
            self.tracer.mark_op_thread()
        client = self.clients[protocol]
        data = self.data
        offset = PROTOCOLS.index(protocol)
        samples, pairs = len(data.samples), data.pairs
        while not stop.is_set():
            index = self.rounds[protocol]
            for slot in range(2):
                sample_index = (index * 4 + offset * 2 + slot) % samples
                sample = data.samples[sample_index]
                op = inputs.op_seed(self.seed, "serve", protocol, index, slot)
                self._op(
                    protocol, f"classify_{protocol}",
                    lambda: client.classify(sample, seed=op),
                    classification_answer,
                    lambda a, i=sample_index: self.expected.classification("linear", i, *a),
                    f"sample {sample_index} seed {op}",
                    ("classify", sample_index, op) if index % IDENTITY_EVERY == 0 else None,
                )
            pair = pairs[(index * 2 + offset) % len(pairs)]
            op = inputs.op_seed(self.seed, "serve", protocol, index, 2)
            self._op(
                protocol, f"similarity_{protocol}",
                lambda: client.evaluate_similarity(
                    data.right[pair[1]], seed=op, server_model=pair[0]),
                similarity_answer,
                lambda t, p=pair: self.expected.similarity(p, t),
                f"pair {pair} seed {op}",
                ("similarity", pair, op) if index % IDENTITY_EVERY == 0 else None,
            )
            self.rounds[protocol] = index + 1

    def _op(self, protocol, kind, call, answer, check, what, identity) -> None:
        done = timed_op(self.recorder, kind, call, answer, check, what)
        if done is None:
            return
        seconds, kept = done
        self.client_time[f"client_{protocol}_s"] = (
            self.client_time.get(f"client_{protocol}_s", 0.0) + seconds)
        self.client_time[f"client_{protocol}_n"] = (
            self.client_time.get(f"client_{protocol}_n", 0.0) + 1)
        if identity is not None:
            self.identity.append((kind, identity, kept))

    def phase(self, seconds: float) -> None:
        """Run both loops for ``seconds``, letting each finish its round."""
        stop = threading.Event()
        threads = [
            threading.Thread(target=self._loop, args=(protocol, stop), name=f"client-{protocol}")
            for protocol in PROTOCOLS
        ]
        for thread in threads:
            thread.start()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline and any(t.is_alive() for t in threads):
            time.sleep(0.02)
        stop.set()
        for thread in threads:
            thread.join()

    def verify_identity(self, config, params) -> None:
        """Sampled sessions re-run in-process with the same seed must
        give the same label and masked value, or the same ``T²``."""
        from repro.core import classification, similarity

        for kind, (what, ref, op), kept in self.identity:
            if what == "classify":
                local = classification_answer(classification.classify_linear(
                    self.data.linear, self.data.samples[ref], config=config, seed=op))
            else:
                local = similarity_answer(similarity.evaluate_similarity_private(
                    self.data.left[ref[0]], self.data.right[ref[1]], params,
                    config=config, seed=op))
            same = local == kept
            if not same:
                self.recorder.mismatch(kind, f"in-process run differs for {ref} seed {op}")


def run_serve(data: inputs.Inputs, inputs_path: str, seconds: float, trace: bool,
              out_dir: str) -> Result:
    """``inputs_path`` holds ``data`` as :func:`inputs.save_inputs` wrote it;
    the server process loads it from there."""
    from repro.core.similarity import MetricParams
    from repro.net.service import AdminClient

    from perfbench.workloads import Segments, layer_result

    seed = data.seed
    config = inputs.protocol_config()
    params = MetricParams()
    recorder = measure.Recorder()
    expected = Expected(data, params)

    def cold_setup() -> float:
        spare = Server(seed, inputs_path, False, out_dir)
        try:
            spare_clients = connect(spare, config)
            seconds_taken = time.perf_counter() - spare.started
            close_all(spare_clients)
        finally:
            spare.stop()
        return seconds_taken

    server = clients = None
    try:
        server = Server(seed, inputs_path, trace, out_dir)
        clients = connect(server, config)

        tracer = layers.Tracer() if trace else None
        connections = Connections(seed, data, clients, recorder, expected, tracer)
        segments = Segments(
            recorder, lambda index: connections.phase(PHASE_S),
            cpu=lambda: (measure.cpu_seconds(), server.usage()["cpu_s"]),
            connections=len(PROTOCOLS), cores=workers(),
        )
        if not trace:
            window = segments.untraced(seconds, cold_setup)
        else:
            start: Dict[str, Dict] = {}

            def before_tracing() -> None:
                server.command("trace", "OK")
                connections.client_time = {}
                start["caches"] = cache_counts()

            segment = segments.traced(
                seconds, tracer, lambda: layers.install(tracer), before_tracing)
            client_caches = cache_deltas(start["caches"])
            host, port = server.ready["host"], server.ready["port"]
            with AdminClient(host, port) as admin:
                snapshot = admin.metrics().snapshot()
        rss = measure.peak_rss_mb() + server.usage()["rss_mb"]
    finally:
        if clients:
            close_all(clients)
        if server is not None:
            server.stop()

    recorder.verify()
    connections.verify_identity(config, params)
    if not trace:
        metrics = measure.end_to_end(recorder, window, rss)
        return Result(recorder, metrics, measure.run_lines(recorder, window))

    remote, remote_root, extras = layers.stats_from_snapshot(snapshot)
    for key, value in client_caches.items():
        extras[key] = extras.get(key, 0.0) + value
    extras.update(connections.client_time)
    extras.update({
        "remote_root_s": remote_root,
        "load_cpu_s": segment["load_cpu_s"],
        "server_cpu_s": segment["other_cpu_s"],
        "setup_warm_ms": server.ready["warm_ms"],
    })
    local, root = tracer.totals(tracer.op_threads)
    metrics, notes = layer_result(recorder, local, root, remote, extras, segment, tracer,
                                  out_dir, "serve", seed)
    return Result(recorder, metrics, notes)
