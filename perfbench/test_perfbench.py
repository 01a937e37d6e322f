"""Smoke tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench -q

They check that the output checks catch a perturbed label, masked value,
T² and match set; that every workload runs to its end with every
metric, untraced and traced; that the traced layer table adds up to the
wall time; and that the benchmark refuses to run without the program's
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, inputs, layers, measure, serve, workloads  # noqa: E402


@pytest.fixture(scope="module")
def data():
    return inputs.make_inputs(3)


def test_benchmark_json_names_every_metric():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in document["end_to_end"]] == [n for n, _, _ in measure.END_TO_END]
    assert [m["name"] for m in document["per_layer"]] == [n for n, _, _ in measure.PER_LAYER]
    assert [w["name"] for w in document["workloads"]] == ["inproc", "serve", "linkage"]


def test_inputs_follow_the_seed(data):
    again = inputs.make_inputs(3)
    other = inputs.make_inputs(4)
    assert (again.samples == data.samples).all()
    assert again.pairs == data.pairs and again.truth == data.truth
    assert not (other.samples == data.samples).all()


def test_saved_inputs_load_back_the_same(data, tmp_path):
    path = str(tmp_path / "inputs.json")
    inputs.save_inputs(data, path)
    loaded = inputs.load_inputs(path)
    assert (loaded.samples == data.samples).all() and loaded.truth == data.truth
    for before, after in [(data.linear, loaded.linear), (data.poly, loaded.poly)] + [
            (data.left[key], loaded.left[key]) for key in data.left]:
        assert after.kernel_spec == before.kernel_spec and after.bias == before.bias
        assert (after.support_vectors == before.support_vectors).all()
        assert (after.dual_coefficients == before.dual_coefficients).all()


def test_checks_catch_a_perturbed_label_and_masked_value(data):
    from repro.core.classification import classify_linear, classify_nonlinear

    config = inputs.protocol_config()
    for model, classify in ((data.linear, classify_linear), (data.poly, classify_nonlinear)):
        outcome = classify(model, data.samples[0], config=config, seed=11)
        value = outcome.randomized_value
        assert checks.classification_ok(model, data.samples[0], outcome.label, value)
        assert not checks.classification_ok(model, data.samples[0], -outcome.label, value)
        assert not checks.classification_ok(model, data.samples[0], outcome.label, -value)


def test_checks_catch_a_perturbed_t_squared_and_match_set(data):
    from repro.core.similarity import MetricParams, evaluate_similarity_private

    params = MetricParams()
    left, right = data.pairs[0]
    outcome = evaluate_similarity_private(
        data.left[left], data.right[right], params, config=inputs.protocol_config(), seed=5
    )
    exact = checks.exact_t_squared(data.left[left], data.right[right], params)
    assert checks.similarity_ok(exact, outcome.t_squared)
    assert not checks.similarity_ok(exact, outcome.t_squared + Fraction(1, 2**80))

    exact_all = {pair: checks.exact_t_squared(data.left[pair[0]], data.right[pair[1]], params)
                 for pair in data.pairs}
    expected = checks.expected_matches(exact_all, inputs.THRESHOLD)
    assert expected and expected <= data.truth
    assert not checks.match_set_errors(expected, expected)
    extra = next(pair for pair in data.pairs if pair not in expected)
    assert checks.match_set_errors(expected | {extra}, expected) == {extra}
    assert checks.match_set_errors(set(list(expected)[1:]), expected)


def test_a_failed_check_counts_the_operation_as_failed():
    recorder = measure.Recorder()
    recorder.done("similarity", lambda: True, "good", 0.01, 100)
    recorder.done("similarity", lambda: False, "perturbed", 0.01, 100)
    recorder.verify()
    assert recorder.ops() == 2 and recorder.failed["similarity"] == 1
    assert recorder.mismatches == ["similarity: perturbed"]


def test_wrappers_go_back_out():
    from repro.crypto.ot import one_of_n
    from repro.math.groups import SchnorrGroup

    before = (SchnorrGroup.__dict__["exp"], one_of_n.wrap_message)
    installation = layers.install(layers.Tracer())
    assert SchnorrGroup.__dict__["exp"] is not before[0]
    installation.uninstall()
    assert (SchnorrGroup.__dict__["exp"], one_of_n.wrap_message) == before


def _assert_complete(result, names):
    assert set(result.metrics) == {name for name, _, _ in names}
    assert result.recorder.ops() > 0
    assert not result.recorder.failed and not result.recorder.mismatches


def _assert_adds_up(result):
    metrics = result.metrics
    assert 0.0 <= metrics["trace.unattributed_share"] < 1.0
    self_ms = sum(metrics[f"{layer}.self_ms"] for layer in layers.LAYERS)
    unattributed = metrics["trace.unattributed_share"] * metrics["trace.wall_ms"]
    assert self_ms + unattributed == pytest.approx(metrics["trace.wall_ms"], rel=1e-9)


def test_span_accounting_beyond_the_wall_time_is_refused():
    with pytest.raises(RuntimeError, match="span accounting"):
        measure.per_layer(1, {}, 2.0, 1.0, {}, {}, 1.0, 1.0)


@pytest.mark.parametrize("trace", [False, True])
def test_inproc_tiny(tmp_path, data, trace):
    prepared = workloads.traced_setup(trace, lambda: workloads.setup_inproc(data))
    result = workloads.run_inproc(prepared, 3, 0.2, trace, lambda: 1.0, str(tmp_path))
    _assert_complete(result, measure.PER_LAYER if trace else measure.END_TO_END)
    if trace:
        _assert_adds_up(result)
        assert result.metrics["ot.transfers"] > 0
        assert (tmp_path / "trace-inproc-3.jsonl").stat().st_size > 0


@pytest.mark.parametrize("trace", [False, True])
def test_linkage_tiny(tmp_path, data, trace):
    prepared = workloads.traced_setup(
        trace, lambda: workloads.setup_linkage(data, str(tmp_path)))
    result = workloads.run_linkage_workload(
        prepared, 3, 0.2, trace, lambda: 1.0, str(tmp_path))
    _assert_complete(result, measure.PER_LAYER if trace else measure.END_TO_END)
    if not trace:
        assert result.metrics["similarity_bytes"] > 0
    else:
        _assert_adds_up(result)
        assert result.metrics["engine.worker_busy_ms"] > 0
        assert result.metrics["remote.groups.self_ms"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_serve_tiny(tmp_path, data, trace):
    path = str(tmp_path / "inputs.json")
    inputs.save_inputs(data, path)
    result = serve.run_serve(data, path, 0.4, trace, str(tmp_path))
    _assert_complete(result, measure.PER_LAYER if trace else measure.END_TO_END)
    if trace:
        _assert_adds_up(result)
        assert result.metrics["service.v1.sessions"] > 0
        assert result.metrics["service.v2.sessions"] > 0
        assert result.metrics["remote.groups.self_ms"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inproc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "{" not in completed.stdout
