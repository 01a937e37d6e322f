"""The ``inproc`` and ``linkage`` workloads (``serve`` is in serve.py).

Both are one closed loop on the main thread: each round issues a fixed
list of operations, the next only after the previous returned.  A run
is whole rounds, so every run attempts the same mix.

* ``inproc`` — all in-process.  A round is 4 linear and 2 degree-2
  polynomial private classifications of ``australian`` test rows and 2
  linear similarity pairs between record models.  Only the protocol
  math runs (``core.ompe``, ``crypto.ot``, ``math.groups``,
  ``crypto.hashing``, ``math.interpolation``); ``net``, ``engine`` and
  ``linkage`` do no work.
* ``linkage`` — a round is one ``run_linkage`` job over the N×M record
  registries with ``EngineLinkageRunner`` at ``nproc`` workers (at most
  2) into a fresh result store.  Engine IPC, chunk scheduling,
  per-worker warm state and store writes sit on the path.  A caller of
  ``run_linkage`` sees no single pair, so this workload has no
  per-operation latency; its transcript bytes are read from the
  program's own ``repro_phase_bytes_total`` counter, which the engine
  merges from its workers.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import checks, inputs, layers, measure


@dataclass
class Result:
    recorder: measure.Recorder
    metrics: Dict[str, float]
    notes: List[str] = field(default_factory=list)


def workers() -> int:
    """Engine workers / client threads: the cores available, at most 2."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


class Expected:
    """Memoized exact answers (inputs repeat across rounds)."""

    def __init__(self, data: inputs.Inputs, params) -> None:
        self.data = data
        self.params = params
        self._decisions: Dict[Tuple[str, int], object] = {}
        self._t_squared: Dict[Tuple[str, str], object] = {}

    def model(self, name: str):
        return self.data.linear if name == "linear" else self.data.poly

    def classification(self, name: str, index: int, label, masked) -> bool:
        key = (name, index)
        if key not in self._decisions:
            self._decisions[key] = checks.exact_decision(
                self.model(name), self.data.samples[index]
            )
        return checks.sign_matches(self._decisions[key], label, masked)

    def t_squared(self, pair: Tuple[str, str]):
        if pair not in self._t_squared:
            left, right = pair
            self._t_squared[pair] = checks.exact_t_squared(
                self.data.left[left], self.data.right[right], self.params
            )
        return self._t_squared[pair]

    def similarity(self, pair: Tuple[str, str], t_squared) -> bool:
        return checks.similarity_ok(self.t_squared(pair), t_squared)


def classification_answer(outcome):
    """What a classification check needs: the label and the masked value."""
    return outcome.label, outcome.randomized_value


def similarity_answer(outcome):
    return outcome.t_squared


def timed_op(recorder: measure.Recorder, kind: str, call: Callable, answer: Callable,
             check: Callable, what: str):
    """Run one operation, time it and queue the check of its answer.

    Only the answer is kept (not the outcome with its transcripts), so
    memory does not grow with the run.  Returns ``(seconds, answer)``,
    or ``None`` when the operation raised, which counts it as failed.
    """
    start = time.perf_counter()
    try:
        outcome = call()
    except Exception as error:  # an operation failure is a result, not a crash
        recorder.error(kind, error)
        return None
    seconds = time.perf_counter() - start
    kept = answer(outcome)
    recorder.done(kind, lambda: check(kept), what, seconds, outcome.total_bytes)
    return seconds, kept


def cache_counts() -> Dict[str, float]:
    """This process's interpolation-weight and generator-table cache
    counters (the program keeps them; the hit ratios come from these)."""
    from repro.math import groups, interpolation

    weights = interpolation.zero_weight_cache_stats()
    table = groups.fixed_base_table_stats()
    return {
        "weight_hits": weights["hits"],
        "weight_misses": weights["misses"],
        "table_hits": table["hits"],
        "table_builds": table["builds"],
    }


def cache_deltas(before: Dict[str, float]) -> Dict[str, float]:
    after = cache_counts()
    return {key: after[key] - before[key] for key in after}


def own_cpu() -> Tuple[float, float]:
    """CPU of this process, and of its children that have ended."""
    return measure.cpu_seconds(), measure.children_cpu_seconds()


class Segments:
    """Untraced and traced measurement of one workload's rounds.

    Untraced: one window of ``seconds``, with ``measure.SETUPS`` cold
    set-ups timed by ``setup`` between its rounds.  Traced: an untraced window of
    ``seconds / 2`` (the reference for the tracing overhead), then the
    wrappers go in and a traced window of ``seconds / 2`` follows.
    ``cpu`` returns the CPU seconds of this process and of the other
    processes of the workload; ``cores`` is how many cores the workload
    keeps busy, and so how many the speed calibration runs on (see
    ``measure``).
    """

    def __init__(self, recorder: measure.Recorder, run_round: Callable[[int], None],
                 cores: int, cpu: Callable = own_cpu, connections: int = 1) -> None:
        self.recorder = recorder
        self.run_round = run_round
        self.cores = cores
        self.cpu = cpu
        self.connections = connections

    def _window(self, seconds: float, first_round: int = 0, **setups):
        with measure.Calibrator(self.cores) as calibrate:
            return measure.run_window(self.run_round, seconds, self.recorder, self.cpu,
                                      calibrate, first_round, **setups)

    def untraced(self, seconds: float, setup: Callable[[], float]) -> measure.Window:
        return self._window(seconds, setup=setup, setups=measure.SETUPS)

    def traced(self, seconds: float, tracer: layers.Tracer, install: Callable,
               before_tracing: Callable = lambda: None) -> Dict[str, float]:
        untraced = self._window(seconds / 2)
        ops_u = self.recorder.ops()
        before_tracing()
        tracer.reset()
        tracer.mark_op_thread()
        installation = install()
        try:
            traced = self._window(seconds / 2, first_round=untraced.rounds)
        finally:
            installation.uninstall()
        ops_t = self.recorder.ops() - ops_u
        return {
            "ops": ops_t,
            "op_wall_s": traced.wall_s * self.connections,
            "untraced_ops_per_s": untraced.ops_per_s(ops_u),
            "traced_ops_per_s": traced.ops_per_s(ops_t),
            "load_cpu_s": traced.cpu_parts[0],
            "other_cpu_s": traced.cpu_parts[1],
        }


def traced_setup(trace: bool, build: Callable):
    """Run ``build`` (with the wrappers in when tracing) and return its
    result plus the setup-phase span totals."""
    if not trace:
        return build(), {}
    tracer = layers.Tracer(span_cap=0)
    installation = layers.install(tracer)
    try:
        value = build()
    finally:
        installation.uninstall()
    return value, tracer.totals()[0]


def layer_result(recorder, stats_local, root_local, remote, extras, segment,
                 tracer, out_dir, workload, seed) -> Tuple[Dict[str, float], List[str]]:
    ops = segment["ops"]
    op_wall = segment["op_wall_s"]
    metrics = measure.per_layer(
        ops, stats_local, root_local, op_wall, remote, extras,
        segment["untraced_ops_per_s"], segment["traced_ops_per_s"],
    )
    notes = measure.layer_table("benchmark process", stats_local, root_local, op_wall, ops)
    if remote:
        remote_root = extras.get("remote_root_s", 0.0)
        notes += measure.layer_table(
            "remote process(es), outermost spans as wall", remote, remote_root,
            remote_root, ops,
        )
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-{seed}.jsonl")
    written = tracer.write_jsonl(path)
    notes.append(f"spans: {written} written to {path}, {tracer.dropped} beyond the cap")
    return metrics, notes




# -- inproc ------------------------------------------------------------------


def setup_inproc(data: inputs.Inputs):
    """One warm-up operation of each kind (fills the caches and builds
    the generator table, as a long-lived caller would)."""
    from repro.core import classification, similarity

    config = inputs.protocol_config()
    params = similarity.MetricParams()
    warm = inputs.op_seed(data.seed, "warm-up")
    classification.classify_linear(data.linear, data.samples[0], config=config, seed=warm)
    classification.classify_nonlinear(data.poly, data.samples[0], config=config, seed=warm)
    left, right = data.pairs[0]
    similarity.evaluate_similarity_private(
        data.left[left], data.right[right], params, config=config, seed=warm
    )
    return data, config, params


def run_inproc(prepared, seed: int, seconds: float, trace: bool,
               setup: Optional[Callable[[], float]], out_dir: str) -> Result:
    """``setup`` times one cold set-up (untraced runs only)."""
    from repro.core import classification, similarity

    (data, config, params), setup_stats = prepared
    expected = Expected(data, params)
    recorder = measure.Recorder()
    samples = len(data.samples)
    pairs = data.pairs

    def run_round(index: int) -> None:
        for slot in range(6):
            name = "linear" if slot < 4 else "poly"
            sample_index = (index * 6 + slot) % samples
            sample = data.samples[sample_index]
            op = inputs.op_seed(seed, "inproc", index, slot)
            if name == "linear":
                call = lambda: classification.classify_linear(  # noqa: E731
                    data.linear, sample, config=config, seed=op)
            else:
                call = lambda: classification.classify_nonlinear(  # noqa: E731
                    data.poly, sample, config=config, seed=op)
            timed_op(
                recorder, f"classify_{name}", call, classification_answer,
                lambda a, n=name, i=sample_index: expected.classification(n, i, *a),
                f"{name} sample {sample_index} seed {op}",
            )
        for slot in range(2):
            pair = pairs[(index * 2 + slot) % len(pairs)]
            op = inputs.op_seed(seed, "inproc", index, 6 + slot)
            timed_op(
                recorder, "similarity",
                lambda: similarity.evaluate_similarity_private(
                    data.left[pair[0]], data.right[pair[1]], params, config=config, seed=op),
                similarity_answer,
                lambda t, p=pair: expected.similarity(p, t),
                f"pair {pair} seed {op}",
            )

    segments = Segments(recorder, run_round, cores=1)
    if not trace:
        window = segments.untraced(seconds, setup)
        recorder.verify()
        metrics = measure.end_to_end(recorder, window, measure.peak_rss_mb())
        return Result(recorder, metrics, measure.run_lines(recorder, window))

    tracer = layers.Tracer()
    start: Dict[str, Dict] = {}
    segment = segments.traced(seconds, tracer, lambda: layers.install(tracer),
                              lambda: start.update(caches=cache_counts()))
    extras = cache_deltas(start["caches"])
    recorder.verify()
    local, root = tracer.totals(tracer.op_threads)
    extras.update({
        "load_cpu_s": segment["load_cpu_s"],
        "setup_warm_ms": setup_stats.get(
            "precompute.PrecomputeService.warm_group", [0, 0.0])[1] * 1e3,
    })
    metrics, notes = layer_result(recorder, local, root, {}, extras, segment, tracer,
                                  out_dir, "inproc", seed)
    return Result(recorder, metrics, notes)


# -- linkage -------------------------------------------------------------------


def registry_total(snapshot: dict, name: str, scope_prefix: str = "") -> float:
    """Sum of a counter's series in a metrics snapshot (only the series
    whose ``scope`` label starts with ``scope_prefix``, if given)."""
    return sum(
        series["value"] for series in snapshot.get(name, {}).get("series", [])
        if series["labels"].get("scope", "").startswith(scope_prefix)
    )


def setup_linkage(data: inputs.Inputs, out_dir: str):
    """The warm generator table and one 1×1 warm-up job (the first
    engine fork and the first pair)."""
    from repro.crypto.precompute import get_precompute_service
    from repro.linkage import EngineLinkageRunner, LinkageJobSpec, run_linkage

    config = inputs.linkage_config()
    get_precompute_service().warm_group(config.resolved_group())
    left, right = data.pairs[0]
    spec = LinkageJobSpec(
        {left: data.left[left]}, {right: data.right[right]},
        threshold=inputs.THRESHOLD, seed=inputs.op_seed(data.seed, "warm-up"), config=config,
    )
    os.makedirs(out_dir, exist_ok=True)
    store = tempfile.mkdtemp(prefix="store-", dir=out_dir)
    try:
        run_linkage(spec, EngineLinkageRunner(workers=workers()), store)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    return data, config


def run_linkage_workload(prepared, seed: int, seconds: float, trace: bool,
                         setup: Optional[Callable[[], float]], out_dir: str) -> Result:
    """``setup`` times one cold set-up (untraced runs only)."""
    from repro import linkage as linkage_package
    from repro import obs
    from repro.core.similarity import MetricParams
    from repro.linkage import EngineLinkageRunner, LinkageJobSpec
    from repro.math import interpolation

    (data, config), setup_stats = prepared
    params = MetricParams()
    expected = Expected(data, params)
    recorder = measure.Recorder()
    pairs = data.pairs
    expected_matches = checks.expected_matches(
        {pair: expected.t_squared(pair) for pair in pairs}, inputs.THRESHOLD)
    count = workers()

    def pair_ok(pair, found, wrong) -> bool:
        """In the match set exactly when its exact ``T`` is within the
        threshold, and if matched, its stored ``T²`` is Eq. 6."""
        return pair not in wrong and (
            pair not in found or expected.similarity(pair, found[pair]))

    def run_round(index: int) -> None:
        spec = LinkageJobSpec(
            data.left, data.right, chunk_pairs=len(data.right),
            threshold=inputs.THRESHOLD, seed=inputs.op_seed(seed, "linkage", index),
            config=config, params=params,
        )
        store = tempfile.mkdtemp(prefix="store-", dir=out_dir)
        try:
            report = linkage_package.run_linkage(
                spec, EngineLinkageRunner(workers=count, seed=index), store
            )
        except Exception as error:  # the whole job failed: every pair did
            for _ in pairs:
                recorder.error("similarity_engine", error)
            return
        finally:
            shutil.rmtree(store, ignore_errors=True)
        found = {(score.left, score.right): score.t_squared for score in report.matches}
        wrong = checks.match_set_errors(set(found), expected_matches)
        for pair in pairs:
            recorder.done(
                "similarity_engine", lambda p=pair: pair_ok(p, found, wrong),
                f"pair {pair} round {index}",
            )

    # The engine merges its workers' metrics into the active registry on
    # drain; a fresh one per window holds exactly that window's figures.
    previous = obs.get_metrics()
    registry = obs.enable_metrics()
    segments = Segments(recorder, run_round, cores=count)
    try:
        if not trace:
            window = segments.untraced(seconds, setup)
        else:
            tracer = layers.Tracer()
            baseline: Dict[str, Dict[str, int]] = {}
            start: Dict[str, object] = {}

            def before_tracing():
                start["caches"] = cache_counts()
                start["registry"] = obs.enable_metrics()

            def worker_start():
                baseline["weights"] = interpolation.zero_weight_cache_stats()

            def worker_export():
                now = interpolation.zero_weight_cache_stats()
                before = baseline.get("weights", {"hits": 0, "misses": 0})
                layers.flush_to_registry(tracer, obs.get_metrics(), extra={
                    "weight_hits": now["hits"] - before["hits"],
                    "weight_misses": now["misses"] - before["misses"],
                })

            segment = segments.traced(
                seconds, tracer,
                lambda: layers.install(tracer, worker_start, worker_export),
                before_tracing,
            )
            load_caches = cache_deltas(start["caches"])
            registry = start["registry"]
    finally:
        obs.set_metrics(previous)
    snapshot = registry.snapshot()
    recorder.verify()
    if not trace:
        completed = recorder.ops() - len(recorder.errors)
        transcript = registry_total(snapshot, "repro_phase_bytes_total") / completed
        metrics = measure.end_to_end(recorder, window, measure.peak_rss_mb(),
                                     similarity_bytes=transcript)
        return Result(recorder, metrics, measure.run_lines(recorder, window))

    remote, remote_root, worker_extras = layers.stats_from_snapshot(snapshot)
    local, root = tracer.totals(tracer.op_threads)
    extras: Dict[str, float] = dict(load_caches)
    for key in ("weight_hits", "weight_misses"):
        extras[key] += worker_extras.get(key, 0.0)
    extras["table_hits"] += registry_total(snapshot, "repro_precompute_table_hits", "worker-")
    extras["table_builds"] += registry_total(
        snapshot, "repro_precompute_table_builds", "worker-")
    extras.update({
        "remote_root_s": remote_root,
        "engine_retries": registry_total(snapshot, "repro_engine_retries_total"),
        "engine_capacity_s": count * local.get("linkage.run_linkage", [0, 0.0])[1],
        "load_cpu_s": segment["load_cpu_s"],
        "workers_cpu_s": segment["other_cpu_s"],
        "setup_warm_ms": setup_stats.get(
            "precompute.PrecomputeService.warm_group", [0, 0.0])[1] * 1e3,
    })
    metrics, notes = layer_result(recorder, local, root, remote, extras, segment, tracer,
                                  out_dir, "linkage", seed)
    return Result(recorder, metrics, notes)
