"""Layer timing installed from outside the program.

Every layer is timed by wrapping public functions and methods of the
program at the place where they are looked up: class methods on their
class, module functions on the module that calls them (for example
``repro.crypto.ot.one_of_n.wrap_message``, the name the OT code uses,
not ``repro.crypto.hashing.wrap_message``).  Nothing under ``src/`` is
edited; :func:`install` patches, :meth:`Installation.uninstall` puts
every original back.

Each wrapper records one span — name, start, end, thread and the span
that was open when it began — and folds it into per-thread totals:
calls, inclusive time and self time (inclusive minus the time its child
spans cover).  On any thread the self times of all spans add up to the
inclusive time of that thread's outermost spans, so what no layer covers
is the thread's wall time minus that sum.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: ``(layer, module, attribute)``: ``attribute`` is ``Class.method`` or a
#: module-level name.  The span is called ``<module tail>.<attribute>``.
CATALOGUE: Tuple[Tuple[str, str, str], ...] = (
    # Entry points of the protocols: the outermost span of an operation.
    ("protocol", "repro.core.classification", "classify_linear"),
    ("protocol", "repro.core.classification", "classify_nonlinear"),
    ("protocol", "repro.core.similarity", "evaluate_similarity_private"),
    ("protocol", "repro.engine.worker", "evaluate_similarity_private"),
    ("protocol", "repro.net.service", "run_similarity_bob_linear"),
    ("protocol", "repro.net.service", "run_similarity_alice_linear"),
    # core.ompe: the paper's steps, both roles, lockstep and role-split.
    ("ompe", "repro.core.ompe.receiver", "OMPEReceiver.send_request"),
    ("ompe", "repro.core.ompe.receiver", "OMPEReceiver.handle_params"),
    ("ompe", "repro.core.ompe.receiver", "OMPEReceiver.handle_ot_setups"),
    ("ompe", "repro.core.ompe.receiver", "OMPEReceiver.finish"),
    ("ompe", "repro.core.ompe.sender", "OMPESender.handle_request"),
    ("ompe", "repro.core.ompe.sender", "OMPESender.handle_points"),
    ("ompe", "repro.core.ompe.sender", "OMPESender.handle_choices"),
    ("ompe", "repro.net.service", "run_ompe_receiver"),
    ("ompe", "repro.net.service", "run_ompe_sender"),
    ("ompe", "repro.engine.worker", "execute_ompe"),
    # crypto.ot
    ("ot", "repro.crypto.ot.k_of_n", "KOfNSender.setup"),
    ("ot", "repro.crypto.ot.k_of_n", "KOfNSender.transfer"),
    ("ot", "repro.crypto.ot.k_of_n", "KOfNReceiver.choose"),
    ("ot", "repro.crypto.ot.k_of_n", "KOfNReceiver.retrieve"),
    ("ot", "repro.crypto.ot.one_of_n", "OneOfNSender.transfer"),
    ("ot", "repro.crypto.ot.one_of_n", "OneOfNReceiver.retrieve"),
    # math.groups
    ("groups", "repro.math.groups", "SchnorrGroup.exp"),
    ("groups", "repro.math.groups", "SchnorrGroup.exp_g"),
    ("groups", "repro.math.groups", "SchnorrGroup.contains"),
    ("groups", "repro.math.groups", "SchnorrGroup.inv"),
    ("groups", "repro.math.groups", "SchnorrGroup.batch_inv"),
    ("groups", "repro.math.groups", "DualBaseExponentiator.key_point"),
    ("groups", "repro.math.groups", "FixedBaseTable.__init__"),
    # crypto.hashing, at the OT call sites and inside the wrap functions.
    ("hashing", "repro.crypto.ot.one_of_n", "wrap_message"),
    ("hashing", "repro.crypto.ot.one_of_n", "unwrap_message"),
    ("hashing", "repro.crypto.hashing", "kdf"),
    # math.interpolation
    ("interpolation", "repro.core.ompe.receiver", "lagrange_at_zero"),
    # utils.serialization / net.message: in-memory size accounting and
    # the codec at every call site that encodes or decodes.
    ("codec", "repro.net.channel", "measure_size"),
    ("codec", "repro.net.message", "measure_size"),
    ("codec", "repro.core.ompe.sender", "encode_value"),
    ("codec", "repro.core.ompe.receiver", "decode_value"),
    ("codec", "repro.net.wire", "encode_message"),
    ("codec", "repro.net.wire", "decode_message"),
    ("codec", "repro.net.mux", "encode_message"),
    ("codec", "repro.net.mux", "decode_message"),
    ("codec", "repro.net.service", "encode_message"),
    ("codec", "repro.net.service", "decode_message"),
    ("codec", "repro.net.muxserver", "encode_message"),
    ("codec", "repro.net.muxserver", "decode_message"),
    # net.wire: framing and the blocking waits of a session thread.
    ("wire", "repro.net.wire", "WireConnection.send_frame"),
    ("wire", "repro.net.wire", "WireConnection.recv_frame"),
    ("wire", "repro.net.mux", "MuxSession.recv_message"),
    # net.service / net.muxserver
    ("service", "repro.net.service", "TrainerClient.classify"),
    ("service", "repro.net.service", "TrainerClient.evaluate_similarity"),
    ("service", "repro.net.service", "TrainerServer._serve_session"),
    ("service", "repro.net.muxserver", "MuxServerLoop._dispatch"),
    # engine
    ("engine", "repro.engine.engine", "ProtocolEngine.start"),
    ("engine", "repro.engine.engine", "ProtocolEngine.submit"),
    ("engine", "repro.engine.engine", "ProtocolEngine.sync"),
    ("engine", "repro.engine.engine", "ProtocolEngine.drain"),
    ("engine", "repro.engine.engine", "ProtocolEngine.close"),
    ("engine", "repro.engine.worker", "execute_job"),
    # linkage
    ("linkage", "repro.linkage", "run_linkage"),
    ("linkage", "repro.linkage.runner", "EngineLinkageRunner.run_chunk"),
    ("linkage", "repro.linkage.runner", "_finalize"),
    ("linkage", "repro.linkage.store", "LinkageResultStore.write_chunk"),
    # crypto.precompute
    ("precompute", "repro.crypto.precompute", "PrecomputeService.warm_group"),
    ("precompute", "repro.crypto.precompute", "PrecomputeService.install_state"),
    ("precompute", "repro.crypto.precompute", "PrecomputeService.export_state"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in CATALOGUE))


def span_name(module: str, attribute: str) -> str:
    return f"{module.split('.')[-1]}.{attribute}"


SPAN_LAYER: Dict[str, str] = {
    span_name(module, attribute): layer for layer, module, attribute in CATALOGUE
}


def _result_bytes(result) -> int:
    """Bytes a codec or frame call produced (encode: the result's length;
    send_frame: the count it returns)."""
    if isinstance(result, (bytes, bytearray)):
        return len(result)
    if isinstance(result, int):
        return result
    return 0


def _store_bytes(result) -> int:
    try:
        return result.stat().st_size
    except (AttributeError, OSError):
        return 0


#: Spans whose result is a byte count worth summing.
BYTE_COUNTERS: Dict[str, Callable] = {
    "wire.encode_message": _result_bytes,
    "mux.encode_message": _result_bytes,
    "service.encode_message": _result_bytes,
    "muxserver.encode_message": _result_bytes,
    "sender.encode_value": _result_bytes,
    "wire.WireConnection.send_frame": _result_bytes,
    "store.LinkageResultStore.write_chunk": _store_bytes,
}

#: Per span: calls, inclusive seconds, self seconds, bytes.
Stats = Dict[str, List[float]]


class Tracer:
    """Spans kept in memory with parent links, plus per-thread totals.

    Totals are kept per thread, so concurrent threads never update the
    same list; :meth:`totals` merges them.  ``op_threads`` names the
    threads that run benchmark operations: their totals are what the
    wall-time identity is checked on.  Only the first ``span_cap`` spans
    are kept for the JSONL file; the totals always cover every span.
    """

    def __init__(self, span_cap: int = 100_000) -> None:
        self.span_cap = span_cap
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._thread_stats: List[Tuple[int, Stats, List[float]]] = []
        self.spans: List[tuple] = []
        self.dropped = 0
        self.op_threads: set = set()

    def reset(self, clear_stack: bool = False) -> None:
        """Forget everything recorded so far.

        ``clear_stack`` also drops the calling thread's open spans: a
        forked engine worker inherits the stack of the parent thread that
        forked it, whose spans never close in the worker.
        """
        if clear_stack:
            del self._state()[0][:]
        with self._lock:
            for _, stats, root in self._thread_stats:
                stats.clear()
                root[0] = 0.0
            self.spans = []
            self.dropped = 0
            self.op_threads = set()

    def mark_op_thread(self) -> None:
        self.op_threads.add(threading.get_ident())

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            stats: Stats = {}
            root = [0.0]
            state = ([], stats, root)
            self._local.state = state
            with self._lock:
                self._thread_stats.append((threading.get_ident(), stats, root))
        return state

    def wrap(self, name: str, function: Callable) -> Callable:
        count_bytes = BYTE_COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack, stats, root = tracer._state()
            span_id = next(tracer._ids)
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if count_bytes is not None and result is not None:
                    entry[3] += count_bytes(result)
                if stack:
                    stack[-1][0] += duration
                else:
                    root[0] += duration
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append(
                        (span_id, parent, name, threading.get_ident(), start, end)
                    )
                else:
                    tracer.dropped += 1

        functools.update_wrapper(wrapper, function)
        return wrapper

    def totals(self, threads: Optional[Iterable[int]] = None) -> Tuple[Stats, float]:
        """Merged ``(stats, outermost-span seconds)`` over ``threads``
        (every thread when ``None``)."""
        wanted = None if threads is None else set(threads)
        with self._lock:
            entries = [
                (dict(stats), root[0]) for ident, stats, root in self._thread_stats
                if wanted is None or ident in wanted
            ]
        return merge(*(stats for stats, _ in entries)), sum(root for _, root in entries)

    def write_jsonl(self, path) -> int:
        """Write the kept spans as JSON lines; returns the line count."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, thread, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent or None,
                            "name": name,
                            "layer": SPAN_LAYER[name],
                            "thread": thread,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
        return len(self.spans)


class Installation:
    """The wrappers currently patched into the program."""

    def __init__(self) -> None:
        self._patched: List[Tuple[object, str, object]] = []

    def patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched = []


def _resolve(module_name: str, attribute: str) -> Tuple[object, str]:
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    if leaf not in owner.__dict__:
        raise AttributeError(f"{module_name}.{attribute} not found")
    return owner, leaf


def install(
    tracer: Tracer,
    on_worker_start: Optional[Callable] = None,
    on_worker_export: Optional[Callable] = None,
) -> Installation:
    """Patch every catalogue entry to record into ``tracer``.

    Engine workers fork from this process with the wrappers in place.
    The worker entry point is wrapped so a worker starts from empty
    totals, and ``on_worker_export`` runs in the worker right before it
    snapshots its metrics registry for the parent (the engine calls the
    precompute service's ``export_metrics`` there), so what it writes
    into the registry travels back through the engine's own merge.
    """
    installation = Installation()
    for _, module_name, attribute in CATALOGUE:
        owner, leaf = _resolve(module_name, attribute)
        installation.patch(
            owner, leaf, tracer.wrap(span_name(module_name, attribute), owner.__dict__[leaf])
        )

    engine_module = importlib.import_module("repro.engine.engine")
    worker_main = engine_module.__dict__["worker_main"]

    def traced_worker_main(worker_id, spec, job_queue, result_queue):
        tracer.reset(clear_stack=True)
        if on_worker_start is not None:
            on_worker_start()
        worker_main(worker_id, spec, job_queue, result_queue)

    installation.patch(engine_module, "worker_main", traced_worker_main)

    if on_worker_export is not None:
        precompute = importlib.import_module("repro.crypto.precompute")
        service_class = precompute.PrecomputeService
        export_metrics = service_class.__dict__["export_metrics"]

        def traced_export_metrics(self, scope: str = "process") -> None:
            export_metrics(self, scope)
            if scope.startswith("worker-"):
                on_worker_export()

        installation.patch(service_class, "export_metrics", traced_export_metrics)
    return installation


def flush_to_registry(tracer: Tracer, registry, extra: Optional[Dict[str, float]] = None,
                      flushed: Optional[Dict[tuple, float]] = None) -> None:
    """Add this process's totals to ``registry`` as counters.

    Counters add when the engine merges worker snapshots, so figures of
    all workers sum in the parent.  ``flushed`` remembers what earlier
    calls already added, so repeated flushes add only the difference.
    """
    flushed = {} if flushed is None else flushed
    stats, root = tracer.totals()
    counter = registry.counter("perfbench_span_total", "Layer span totals by stat")
    rows = [((name, stat), entry[index])
            for name, entry in stats.items()
            for index, stat in enumerate(("calls", "incl_s", "self_s", "bytes"))]
    rows.append((("", "root_s"), root))
    for (name, stat), value in rows:
        delta = value - flushed.get((name, stat), 0.0)
        if delta:
            counter.inc(delta, span=name, stat=stat)
            flushed[(name, stat)] = value
    if extra:
        gauge_counter = registry.counter("perfbench_extra_total", "Extra counters")
        for key, value in extra.items():
            delta = value - flushed.get(("extra", key), 0.0)
            if delta:
                gauge_counter.inc(delta, key=key)
                flushed[("extra", key)] = value


def stats_from_snapshot(snapshot: dict) -> Tuple[Stats, float, Dict[str, float]]:
    """Read back what :func:`flush_to_registry` wrote into a registry."""
    stats: Stats = {}
    root = 0.0
    index = {"calls": 0, "incl_s": 1, "self_s": 2, "bytes": 3}
    for series in snapshot.get("perfbench_span_total", {}).get("series", []):
        name = series["labels"]["span"]
        stat = series["labels"]["stat"]
        if stat == "root_s":
            root += series["value"]
            continue
        stats.setdefault(name, [0, 0.0, 0.0, 0])[index[stat]] += series["value"]
    extra: Dict[str, float] = {}
    for series in snapshot.get("perfbench_extra_total", {}).get("series", []):
        key = series["labels"]["key"]
        extra[key] = extra.get(key, 0.0) + series["value"]
    return stats, root, extra


def merge(*sources: Stats) -> Stats:
    """Per-span sums of several totals."""
    merged: Stats = {}
    for source in sources:
        for name, entry in source.items():
            into = merged.setdefault(name, [0, 0.0, 0.0, 0])
            for index in range(4):
                into[index] += entry[index]
    return merged


def layer_self_seconds(stats: Stats) -> Dict[str, float]:
    """Self seconds per layer."""
    per_layer = {layer: 0.0 for layer in LAYERS}
    for name, entry in stats.items():
        per_layer[SPAN_LAYER[name]] += entry[2]
    return per_layer
