"""The tracer restores what it wraps, accounts for its spans, and tolerates lost hooks."""
import json
import subprocess
import shutil
import sys
from pathlib import Path

import pytest

from coleaf import harness, numerics, synthdata

import run
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parents[1]


def tiny_corpus(n=4):
    return synthdata.generate_corpus(synthdata.CorpusSpec(n_videos=n, seed=5, **workloads.DESK))


def snapshot():
    out = {}
    for owner_path, attr, *_ in tracing.TARGETS:
        owner = tracing.resolve_owner(owner_path)
        out[owner_path, attr] = vars(owner)[attr]
    out["Tensor.__init__"] = vars(numerics.Tensor)["__init__"]
    return out


def test_wrappers_restore_every_attribute_even_after_an_error():
    before = snapshot()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert harness.train is not before["coleaf.harness", "train"]
            params = harness.train(tiny_corpus(), harness.TrainConfig(epochs=1, batch_size=4))[0]
            harness.predict(params, tiny_corpus(2))
            raise RuntimeError("interrupted")
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_grad_node_count_restores_tensor_init():
    before = snapshot()
    params = harness.train(tiny_corpus(), harness.TrainConfig(epochs=1, batch_size=4))[0]
    with tracing.counting_grad_nodes() as counts:
        harness.predict(params, tiny_corpus(2))
    assert counts["grad_nodes"] > 0
    assert snapshot() == before


def test_accounted_share_leaves_out_the_benchmarks_own_time():
    tracer = tracing.Tracer()
    tracer.spans = [["bench.op", 0.0, 1.0, -1, 1], ["harness.predict", 0.2, 0.6, 0, 1]]
    calls = {"reference_forward_calls": 0, "anchor_forward_calls": 20, "class_token_reads": 0}
    metrics = tracing.layer_metrics(tracing.Tracer(), tracer, 20, calls, 1.0, 0.0, 0.0)
    assert metrics["trace.accounted_share"] == pytest.approx(0.4)
    assert metrics["bench.op.self_ms_per_video"] == pytest.approx(1000.0 * 0.6 / 20)


def test_self_times_of_a_traced_step_add_up_to_its_span():
    corpus = tiny_corpus()
    tracer = tracing.Tracer()
    with tracer.installed():
        harness.train(corpus, harness.TrainConfig(epochs=1, batch_size=4))
    names = [span[0] for span in tracer.spans]
    assert names[0] == "harness.train" and names.count("harness.adam_step") == 1
    assert {"branches.reference_forward", "numerics.backward", "losses.pseudo_labels"} <= set(names)
    root = tracer.spans[0]
    own = tracing.self_times(tracer.spans)
    assert all(t >= 0 for t in own)
    assert sum(own) == pytest.approx(root[2] - root[1], rel=1e-9, abs=1e-9)
    # Spans of the step share one identifier; the Adam step closes the group.
    assert {span[4] for span in tracer.spans} == {0}
    assert tracer.group == 1


def test_missing_hook_is_reported_absent_not_fatal():
    targets = tracing.TARGETS + (("coleaf.numerics", "ComputationTapeGone", "numerics.gone", None),
                                 ("coleaf.numerics:NoSuchClass", "step", "harness.adam_step", None))
    tracer = tracing.Tracer()
    with tracer.installed(targets):
        harness.train(tiny_corpus(), harness.TrainConfig(epochs=1, batch_size=4))
    assert tracer.absent == {"numerics.gone", "harness.adam_step"}
    metrics = tracing.layer_metrics(tracing.Tracer(), tracer, 4, {
        "reference_forward_calls": 4, "anchor_forward_calls": 4, "class_token_reads": 8}, 1.0, 0.0,
        None)
    assert "harness.adam_step.calls" not in metrics
    assert "numerics.predict_grad_nodes_per_video" not in metrics
    assert metrics["numerics.backward.calls"] == 1.0


def test_benchmark_json_names_every_per_layer_metric():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    calls = {"reference_forward_calls": 0, "anchor_forward_calls": 0, "class_token_reads": 0}
    emitted = tracing.layer_metrics(tracing.Tracer(), tracing.Tracer(), 0, calls, 1.0, 0.0, 0.0)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(emitted)
    assert all(m["unit"] == tracing.unit_of(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
