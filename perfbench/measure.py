"""What a run records, and the metrics it derives from that.

The metric names, units and directions here are the ones
``BENCHMARK.json`` declares; :func:`end_to_end` and :func:`per_layer`
return every one of them for every workload.  The end-to-end metrics
are the ones every workload has: set-up time, throughput, similarity
transcript bytes, CPU per operation and peak memory.  Per-kind
latencies exist only where a caller waits for single operations
(``inproc``, ``serve``), so they are printed in the log
(:func:`run_lines`), not reported as metrics.

Host speed.  On a shared host the speed of the same code drifts by tens
of percent within a minute, with other tenants' load; a run cannot
separate that from a change in the program.  So every round of a run is
followed by a calibration (:class:`Calibrator`): a fixed kernel of
521-bit modular exponentiations, timed while the program is idle on as
many cores as the workload keeps busy.  Each round's times are scaled by
``REFERENCE_KERNEL_S / kernel time`` (the mean of the kernels before
and after the round).  Set-up times are not scaled: they are mostly
interpreter start and imports, which do not follow the kernel.
End-to-end times of the window are therefore on a host where the kernel takes
``REFERENCE_KERNEL_S``; a change to the program moves them, a change in
the host's speed does not.  The raw figures and the kernel times are
printed beside them.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import layers

ROOT = Path(__file__).resolve().parent.parent

#: A p90 is printed only for a kind with at least this many latency
#: samples (ten beyond the percentile).
TAIL_SAMPLES = 100

#: Cold set-ups per untraced run, each in a fresh process, spread over
#: the window; ``setup_s`` is their median.
SETUPS = 8

#: What the calibration kernel takes on the reference host (its median
#: on the 2-core host the bounds were set on, on one core and on two).
REFERENCE_KERNEL_S = 0.0065

#: Operation kind -> the family its latency and bytes are reported under.
FAMILY = {
    "classify_linear": "classify",
    "classify_poly": "classify",
    "classify_v1": "classify",
    "classify_v2": "classify",
    "similarity": "similarity",
    "similarity_v1": "similarity",
    "similarity_v2": "similarity",
    "similarity_engine": "similarity",
}

END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("similarity_bytes", "B", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_COUNT, _MS, _RATIO, _BYTES = "count/op", "ms/op", "ratio", "B/op"

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("ompe.runs", _COUNT, "lower"),
    ("ompe.points_ms", _MS, "lower"),
    ("ompe.ot_setup_ms", _MS, "lower"),
    ("ompe.ot_transfer_ms", _MS, "lower"),
    ("ompe.interpolate_ms", _MS, "lower"),
    ("ot.transfers", _COUNT, "lower"),
    ("ot.slots_wrapped", _COUNT, "lower"),
    ("ot.slots_retrieved", _COUNT, "lower"),
    ("ot.useful_ratio", _RATIO, "higher"),
    ("ot.transfer_self_ms", _MS, "lower"),
    ("groups.exp_calls", _COUNT, "lower"),
    ("groups.exp_ms", _MS, "lower"),
    ("groups.table_builds", _COUNT, "lower"),
    ("groups.table_build_ms", _MS, "lower"),
    ("groups.table_hit_ratio", _RATIO, "higher"),
    ("hashing.kdf_calls", _COUNT, "lower"),
    ("hashing.wrap_ms", _MS, "lower"),
    ("interpolation.calls", _COUNT, "lower"),
    ("interpolation.weight_cache_hit_ratio", _RATIO, "higher"),
    ("codec.size_calls", _COUNT, "lower"),
    ("codec.size_ms", _MS, "lower"),
    ("codec.encode_ms", _MS, "lower"),
    ("codec.decode_ms", _MS, "lower"),
    ("codec.bytes", _BYTES, "lower"),
    ("wire.frames", _COUNT, "lower"),
    ("wire.bytes", _BYTES, "lower"),
    ("wire.send_ms", _MS, "lower"),
    ("wire.recv_wait_ms", _MS, "lower"),
    ("service.v1.sessions", _COUNT, "higher"),
    ("service.v2.sessions", _COUNT, "higher"),
    ("service.server_session_ms", "ms", "lower"),
    ("service.v1.overhead_ms", "ms", "lower"),
    ("service.v2.overhead_ms", "ms", "lower"),
    ("engine.jobs", _COUNT, "lower"),
    ("engine.submit_block_ms", _MS, "lower"),
    ("engine.worker_busy_ms", _MS, "lower"),
    ("engine.utilization", _RATIO, "higher"),
    ("engine.retries", _COUNT, "lower"),
    ("engine.start_ms", "ms", "lower"),
    ("linkage.chunks", _COUNT, "lower"),
    ("linkage.chunk_ms", "ms", "lower"),
    ("linkage.store_write_ms", _MS, "lower"),
    ("linkage.store_bytes", _BYTES, "lower"),
    ("linkage.finalize_ms", "ms", "lower"),
    ("precompute.warm_ms", "ms", "lower"),
    ("proc.load.cpu_ms", _MS, "lower"),
    ("proc.server.cpu_ms", _MS, "lower"),
    ("proc.workers.cpu_ms", _MS, "lower"),
    ("trace.wall_ms", _MS, "lower"),
    ("trace.unattributed_share", _RATIO, "lower"),
    ("trace.overhead_share", _RATIO, "lower"),
) + tuple((f"{layer}.self_ms", _MS, "lower") for layer in layers.LAYERS) + tuple(
    (f"remote.{layer}.self_ms", _MS, "lower") for layer in layers.LAYERS
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


class Recorder:
    """Outcome of every operation, and the latency and transcript bytes
    of those that have them.

    Output checks are queued with each operation and run after the
    measured window (:meth:`verify`), so their exact arithmetic is not
    timed; a failed check counts the operation as failed.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: Latencies scaled to the reference host speed, and as measured.
        self.latency: Dict[str, List[float]] = {"classify": [], "similarity": []}
        self.raw_latency: Dict[str, List[float]] = {"classify": [], "similarity": []}
        self._round: List[Tuple[str, float]] = []
        self.nbytes: Dict[str, List[int]] = {"classify": [], "similarity": []}
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: List[str] = []
        self.mismatches: List[str] = []
        self._checks: List[Tuple[str, Callable[[], bool], str]] = []

    def done(self, kind: str, check: Callable[[], bool], what: str,
             seconds: Optional[float] = None, nbytes: Optional[int] = None) -> None:
        family = FAMILY[kind]
        with self._lock:
            self.attempted[kind] += 1
            if seconds is not None:
                self._round.append((family, seconds))
            if nbytes is not None:
                self.nbytes[family].append(nbytes)
            self._checks.append((kind, check, what))

    def error(self, kind: str, error: BaseException) -> None:
        with self._lock:
            self.attempted[kind] += 1
            self.failed[kind] += 1
            self.errors.append(f"{kind}: {type(error).__name__}: {error}")

    def mismatch(self, kind: str, what: str) -> None:
        with self._lock:
            self.failed[kind] += 1
            self.mismatches.append(f"{kind}: {what}")

    def close_round(self, factor: float) -> None:
        """File the latencies of the round just run, scaled by ``factor``."""
        with self._lock:
            for family, seconds in self._round:
                self.latency[family].append(seconds * factor)
                self.raw_latency[family].append(seconds)
            self._round = []

    def ops(self) -> int:
        return sum(self.attempted.values())

    def verify(self) -> None:
        checks, self._checks = self._checks, []
        for kind, check, what in checks:
            if not check():
                self.mismatch(kind, what)


#: A 521-bit modulus (a Mersenne prime) for the kernel.
_KERNEL_MODULUS = (1 << 521) - 1


def _kernel() -> int:
    """Modular exponentiations of 521-bit integers, the work that
    dominates the protocols (``math.groups``)."""
    total = 0
    for i in range(8):
        total ^= pow(3 + i, _KERNEL_MODULUS - 2 - i, _KERNEL_MODULUS)
    return total


def kernel_seconds() -> float:
    """Seconds the calibration kernel takes now: the mean of 4 timings
    (not the best, which would hide the contention the workload meets),
    with the garbage collector off so the program's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(4):
            _kernel()
        return (time.perf_counter() - start) / 4
    finally:
        if enabled:
            gc.enable()


def kernel_helper() -> None:
    """Main of a :class:`Calibrator` helper process: time the kernel once
    per line read, and write the seconds back."""
    for _ in sys.stdin:
        print(repr(kernel_seconds()), flush=True)


class Calibrator:
    """Times the kernel on ``cores`` cores at once: in this process and
    in ``cores - 1`` helper processes, and returns the mean.

    A workload that keeps two cores busy (``serve``: client and server
    process; ``linkage``: two engine workers) is scaled by how fast two
    cores are now, which on a shared host differs from how fast one is:
    over 58 phases of ``serve``, 15-s windows of throughput spread by
    0.215 as measured, 0.230 scaled by a one-core bytecode loop and
    0.074 scaled by this kernel on two cores.
    """

    def __init__(self, cores: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self._helpers = [
            subprocess.Popen(
                [sys.executable, "-c", "from perfbench import measure; measure.kernel_helper()"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
            )
            for _ in range(cores - 1)
        ]

    def __call__(self) -> float:
        for helper in self._helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        times = [kernel_seconds()]
        for helper in self._helpers:
            line = helper.stdout.readline()
            if not line:
                raise RuntimeError(f"calibration helper exited (code {helper.poll()})")
            times.append(float(line))
        return statistics.fmean(times)

    def close(self) -> None:
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            helper.wait(timeout=30)
            helper.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Window:
    """Totals of one measured window, as measured and speed-scaled."""

    def __init__(self) -> None:
        #: Cold set-up times taken between rounds, as measured.
        self.setup_samples: List[float] = []
        self.rounds = 0
        self.wall_s = 0.0
        self.scaled_s = 0.0
        #: CPU seconds per process group: this process, the others.
        self.cpu_parts = [0.0, 0.0]
        self.scaled_cpu_s = 0.0
        self.kernels: List[float] = []

    @property
    def cpu_s(self) -> float:
        return sum(self.cpu_parts)

    def ops_per_s(self, ops: int) -> float:
        return ops / self.scaled_s



def run_window(run_round: Callable[[int], None], seconds: float, recorder: Recorder,
               cpu: Callable[[], Tuple[float, float]], calibrate: Callable[[], float],
               first_round: int = 0, setup: Optional[Callable[[], float]] = None,
               setups: int = 0) -> Window:
    """Run whole rounds until they add up to ``seconds``, timing the
    kernel with ``calibrate`` after each round.  ``cpu`` gives the CPU
    seconds of this process and of the workload's others.

    ``setup`` times one cold set-up; it is called ``setups`` times
    between rounds, spread evenly over the window, so that the set-up
    samples and the kernels that scale them cover the same stretch of
    time.  Neither the set-ups nor the calibrations count as window
    time."""
    window = Window()
    before = calibrate()
    window.kernels.append(before)
    while True:
        round_start, cpu_start = time.perf_counter(), cpu()
        run_round(first_round + window.rounds)
        duration, cpu_end = time.perf_counter() - round_start, cpu()
        used = [end - begin for begin, end in zip(cpu_start, cpu_end)]
        after = calibrate()
        factor = REFERENCE_KERNEL_S / ((before + after) / 2)
        recorder.close_round(factor)
        window.rounds += 1
        window.wall_s += duration
        window.scaled_s += duration * factor
        window.cpu_parts = [total + part for total, part in zip(window.cpu_parts, used)]
        window.scaled_cpu_s += sum(used) * factor
        window.kernels.append(after)
        before = after
        while (setup is not None and len(window.setup_samples) < setups
               and window.wall_s >= len(window.setup_samples) * seconds / setups):
            window.setup_samples.append(setup())
        if window.wall_s >= seconds and len(window.setup_samples) >= setups:
            return window


def cpu_seconds() -> float:
    """CPU of this process (all threads)."""
    return time.process_time()


def children_cpu_seconds() -> float:
    """CPU of this process's children that have ended and been reaped."""
    times = os.times()
    return times.children_user + times.children_system


def peak_rss_mb() -> float:
    """Peak resident set of this process, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank-interpolated percentile (``statistics`` inclusive)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(fraction * 100)) - 1]


def end_to_end(recorder: Recorder, window: Window, rss_mb: float,
               similarity_bytes: Optional[float] = None) -> Dict[str, float]:
    """Every end-to-end metric; times of the window scaled to the
    reference host speed, set-up times as measured.
    ``similarity_bytes`` is given where no single operation's transcript
    is seen (``linkage``)."""
    ops = recorder.ops()
    if similarity_bytes is None:
        similarity_bytes = statistics.fmean(recorder.nbytes["similarity"])
    return {
        "setup_s": statistics.median(window.setup_samples),
        "ops_per_s": window.ops_per_s(ops - len(recorder.errors)),
        "similarity_bytes": similarity_bytes,
        "cpu_ms_per_op": window.scaled_cpu_s * 1e3 / ops,
        "peak_rss_mb": rss_mb,
    }


def run_lines(recorder: Recorder, window: Window) -> List[str]:
    """For the log: set-up samples, host speed, the figures as measured,
    and per kind the latency (p90 only with ``TAIL_SAMPLES`` samples)
    and transcript bytes."""
    kernels = window.kernels
    lines = ["setup samples (as measured): "
             + " ".join(f"{value:.4f}" for value in window.setup_samples) + " s"]
    lines += [
        f"host speed: kernel median {statistics.median(kernels) * 1e3:.3f} ms "
        f"(min {min(kernels) * 1e3:.3f}, max {max(kernels) * 1e3:.3f}, reference "
        f"{REFERENCE_KERNEL_S * 1e3:.3f}) over {window.rounds} rounds",
        f"host speed: raw wall {window.wall_s:.3f} s, scaled {window.scaled_s:.3f} s",
        f"as measured: ops_per_s {recorder.ops() / window.wall_s:.4g} 1/s, "
        f"cpu_ms_per_op {window.cpu_s * 1e3 / recorder.ops():.4g} ms",
    ]
    for family in ("classify", "similarity"):
        for label, values in (("scaled", recorder.latency[family]),
                              ("as measured", recorder.raw_latency[family])):
            if not values:
                continue
            text = f"latency {family} ({label}): n={len(values)} p50 " \
                   f"{statistics.median(values) * 1e3:.4g} ms"
            if len(values) >= TAIL_SAMPLES:
                text += f", p90 {percentile(values, 0.90) * 1e3:.4g} ms"
            lines.append(text)
        if recorder.nbytes[family]:
            lines.append(f"transcript bytes {family}: mean "
                         f"{statistics.fmean(recorder.nbytes[family]):.1f} B per operation")
    return lines


def _sum(stats: layers.Stats, names, index: int) -> float:
    return sum(stats.get(name, (0, 0.0, 0.0, 0))[index] for name in names)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    ops: int,
    local: layers.Stats,
    local_root_s: float,
    op_wall_s: float,
    remote: layers.Stats,
    extras: Dict[str, float],
    untraced_ops_per_s: float,
    traced_ops_per_s: float,
) -> Dict[str, float]:
    """Every per-layer metric from the traced segment's totals.

    ``local`` holds the benchmark process's operation threads, ``remote``
    the server process or the engine workers.  Counts and times are per
    completed operation unless the metric says per call; the wall-time
    identity ``sum(<layer>.self_ms) + unattributed = trace.wall_ms`` is
    over ``local``.
    """
    merged = layers.merge(local, remote)

    def calls(*names):
        return _sum(merged, names, 0)

    def incl_ms(*names):
        return _sum(merged, names, 1) * 1e3

    def per_op(value):
        return value / ops

    encodes = [n for n in layers.SPAN_LAYER if n.endswith(("encode_message", "encode_value"))]
    decodes = [n for n in layers.SPAN_LAYER if n.endswith(("decode_message", "decode_value"))]
    sizes = ("channel.measure_size", "message.measure_size")
    exps = ("groups.SchnorrGroup.exp", "groups.SchnorrGroup.exp_g",
            "groups.DualBaseExponentiator.key_point")
    wrapped = calls("one_of_n.wrap_message")
    retrieved = calls("one_of_n.OneOfNReceiver.retrieve")
    starts = calls("engine.ProtocolEngine.start")
    chunks = calls("runner.EngineLinkageRunner.run_chunk")
    jobs_s = _sum(remote, ["worker.execute_job"], 1)
    sessions = {p: extras.get(f"session_{p}_n", 0.0) for p in ("v1", "v2")}
    server_s = {p: extras.get(f"session_{p}_s", 0.0) for p in ("v1", "v2")}
    client_s = {p: extras.get(f"client_{p}_s", 0.0) for p in ("v1", "v2")}
    client_n = {p: extras.get(f"client_{p}_n", 0.0) for p in ("v1", "v2")}

    unattributed = _ratio(op_wall_s - local_root_s, op_wall_s)
    if not 0.0 <= unattributed < 1.0:
        raise RuntimeError(
            f"span accounting is off: outermost spans {local_root_s:.6f} s "
            f"against a wall time of {op_wall_s:.6f} s"
        )
    metrics = {
        "ompe.runs": per_op(calls("receiver.OMPEReceiver.finish")),
        "ompe.points_ms": per_op(
            incl_ms("receiver.OMPEReceiver.handle_params", "sender.OMPESender.handle_points")
            - incl_ms("k_of_n.KOfNSender.setup")
        ),
        "ompe.ot_setup_ms": per_op(
            incl_ms("k_of_n.KOfNSender.setup", "k_of_n.KOfNReceiver.choose")
        ),
        "ompe.ot_transfer_ms": per_op(
            incl_ms("k_of_n.KOfNSender.transfer", "k_of_n.KOfNReceiver.retrieve")
        ),
        "ompe.interpolate_ms": per_op(incl_ms("receiver.lagrange_at_zero")),
        "ot.transfers": per_op(calls("one_of_n.OneOfNSender.transfer")),
        "ot.slots_wrapped": per_op(wrapped),
        "ot.slots_retrieved": per_op(retrieved),
        "ot.useful_ratio": _ratio(retrieved, wrapped),
        "ot.transfer_self_ms": per_op(
            sum(e[2] for n, e in merged.items() if layers.SPAN_LAYER.get(n) == "ot") * 1e3
        ),
        "groups.exp_calls": per_op(calls(*exps)),
        "groups.exp_ms": per_op(incl_ms(*exps)),
        "groups.table_builds": per_op(calls("groups.FixedBaseTable.__init__")),
        "groups.table_build_ms": per_op(incl_ms("groups.FixedBaseTable.__init__")),
        "groups.table_hit_ratio": _ratio(
            extras.get("table_hits", 0.0),
            extras.get("table_hits", 0.0) + extras.get("table_builds", 0.0),
        ),
        "hashing.kdf_calls": per_op(calls("hashing.kdf")),
        "hashing.wrap_ms": per_op(
            incl_ms("one_of_n.wrap_message", "one_of_n.unwrap_message")
        ),
        "interpolation.calls": per_op(calls("receiver.lagrange_at_zero")),
        "interpolation.weight_cache_hit_ratio": _ratio(
            extras.get("weight_hits", 0.0),
            extras.get("weight_hits", 0.0) + extras.get("weight_misses", 0.0),
        ),
        "codec.size_calls": per_op(calls(*sizes)),
        "codec.size_ms": per_op(incl_ms(*sizes)),
        "codec.encode_ms": per_op(incl_ms(*encodes)),
        "codec.decode_ms": per_op(incl_ms(*decodes)),
        "codec.bytes": per_op(_sum(merged, encodes, 3)),
        "wire.frames": per_op(calls("wire.WireConnection.send_frame")),
        "wire.bytes": per_op(_sum(merged, ["wire.WireConnection.send_frame"], 3)),
        "wire.send_ms": per_op(incl_ms("wire.WireConnection.send_frame")),
        "wire.recv_wait_ms": per_op(
            _sum(local, ["wire.WireConnection.recv_frame", "mux.MuxSession.recv_message"], 1)
            * 1e3
        ),
        "service.v1.sessions": per_op(sessions["v1"]),
        "service.v2.sessions": per_op(sessions["v2"]),
        "service.server_session_ms": _ratio(
            (server_s["v1"] + server_s["v2"]) * 1e3, sessions["v1"] + sessions["v2"]
        ),
        "service.v1.overhead_ms": (
            _ratio(client_s["v1"], client_n["v1"]) - _ratio(server_s["v1"], sessions["v1"])
        ) * 1e3 if sessions["v1"] else 0.0,
        "service.v2.overhead_ms": (
            _ratio(client_s["v2"], client_n["v2"]) - _ratio(server_s["v2"], sessions["v2"])
        ) * 1e3 if sessions["v2"] else 0.0,
        "engine.jobs": per_op(calls("engine.ProtocolEngine.submit")),
        "engine.submit_block_ms": per_op(incl_ms("engine.ProtocolEngine.submit")),
        "engine.worker_busy_ms": per_op(jobs_s * 1e3),
        "engine.utilization": _ratio(jobs_s, extras.get("engine_capacity_s", 0.0)),
        "engine.retries": per_op(extras.get("engine_retries", 0.0)),
        "engine.start_ms": _ratio(incl_ms("engine.ProtocolEngine.start"), starts),
        "linkage.chunks": per_op(chunks),
        "linkage.chunk_ms": _ratio(incl_ms("runner.EngineLinkageRunner.run_chunk"), chunks),
        "linkage.store_write_ms": per_op(incl_ms("store.LinkageResultStore.write_chunk")),
        "linkage.store_bytes": per_op(_sum(merged, ["store.LinkageResultStore.write_chunk"], 3)),
        "linkage.finalize_ms": _ratio(
            incl_ms("runner._finalize"), calls("runner._finalize")
        ),
        "precompute.warm_ms": extras.get("setup_warm_ms", 0.0),
        "proc.load.cpu_ms": per_op(extras.get("load_cpu_s", 0.0) * 1e3),
        "proc.server.cpu_ms": per_op(extras.get("server_cpu_s", 0.0) * 1e3),
        "proc.workers.cpu_ms": per_op(extras.get("workers_cpu_s", 0.0) * 1e3),
        "trace.wall_ms": per_op(op_wall_s * 1e3),
        "trace.unattributed_share": unattributed,
        "trace.overhead_share": 1.0 - _ratio(traced_ops_per_s, untraced_ops_per_s),
    }
    for layer, seconds in layers.layer_self_seconds(local).items():
        metrics[f"{layer}.self_ms"] = per_op(seconds * 1e3)
    for layer, seconds in layers.layer_self_seconds(remote).items():
        metrics[f"remote.{layer}.self_ms"] = per_op(seconds * 1e3)
    return {name: metrics[name] for name, _, _ in PER_LAYER}


def layer_table(title: str, stats: layers.Stats, root_s: float, wall_s: float,
                ops: int) -> List[str]:
    """Self time per layer with its share of wall time; the rows plus
    the unattributed row add up to the wall time."""
    lines = [f"layer table [{title}]  wall {wall_s * 1e3 / ops:.3f} ms/op over {ops} ops"]
    per_layer_s = layers.layer_self_seconds(stats)
    for layer, seconds in sorted(per_layer_s.items(), key=lambda item: -item[1]):
        if seconds or wall_s:
            lines.append(
                f"  {layer:<14} {seconds * 1e3 / ops:10.3f} ms/op "
                f"{_ratio(seconds, wall_s):7.1%}"
            )
    if wall_s:
        lines.append(
            f"  {'unattributed':<14} {(wall_s - root_s) * 1e3 / ops:10.3f} ms/op "
            f"{_ratio(wall_s - root_s, wall_s):7.1%}"
        )
    return lines
