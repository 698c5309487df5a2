"""A corrupted output makes its operation fail; clean outputs pass."""
import math
import signal
import time
from types import SimpleNamespace

import numpy as np
import pytest

from coleaf import branches, harness, synthdata
from coleaf.losses import LossBundle

import gates
import hostspeed
import run
import workloads


@pytest.fixture
def parse_state(tmp_path):
    corpus = synthdata.generate_corpus(synthdata.CorpusSpec(n_videos=4, seed=3, **workloads.DESK))
    return workloads.ParseState(
        params=branches.init_branch_params(16, 5, seed=3),
        heldout=corpus,
        shards=[workloads.subset(corpus, corpus.samples[:2]),
                workloads.subset(corpus, corpus.samples[2:])],
        workdir=tmp_path,
        seed=3,
        final_train_loss=1.0,
    )


def run_shard(state):
    return workloads.run_op(workloads.ParseWorkload(), state)


def test_clean_shard_passes(parse_state):
    op = run_shard(parse_state)
    assert op.problems == []
    assert op.videos == 2
    assert workloads.Phase([op], 1.0).done == [op]


def test_nan_probability_fails_the_shard(parse_state, monkeypatch):
    original = harness.predict

    def corrupt(params, corpus, **kwargs):
        preds = original(params, corpus, **kwargs)
        preds[corpus.samples[0].id][0][0, 0] = math.nan
        return preds

    monkeypatch.setattr(harness, "predict", corrupt)
    op = run_shard(parse_state)
    assert any("outside [0,1]" in p for p in op.problems)
    assert workloads.Phase([op], 1.0).done == []


def test_reference_forward_during_predict_fails_the_shard(parse_state, monkeypatch):
    original = harness.predict

    def peeks_at_reference(params, corpus, **kwargs):
        branches.reference_forward(corpus.samples[0], params)
        return original(params, corpus, **kwargs)

    monkeypatch.setattr(harness, "predict", peeks_at_reference)
    problems = run_shard(parse_state).problems
    assert any("reference forwards" in p for p in problems)
    assert any("class tokens" in p for p in problems)


def test_prediction_file_corruption_fails_the_shard(parse_state, monkeypatch):
    original = harness.load_predictions

    def lossy(path):
        preds = original(path)
        return {vid: (np.round(pa, 3), pv) for vid, (pa, pv) in preds.items()}

    monkeypatch.setattr(harness, "load_predictions", lossy)
    assert any("write and load" in p for p in run_shard(parse_state).problems)


def test_exception_counts_as_failed_op(parse_state, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "write_predictions", broken)
    op = run_shard(parse_state)
    assert op.problems and "boom" in op.problems[0]


def test_report_gate_rejects_non_finite_scores(parse_state):
    shard = parse_state.shards[0]
    preds = harness.predict(parse_state.params, shard)
    report = harness.evaluate(preds, shard)
    assert gates.check_report(report) == []
    report.event.type_at_avo = math.nan
    assert gates.check_report(report) == ["event.Type@AVo is nan"]


def test_quality_gate_needs_a_score_above_random():
    assert gates.check_quality(20.0, 13.0) == []
    assert gates.check_quality(13.0, 13.0)


def _log(*video_losses, total=1.0):
    return harness.TrainLog(
        epochs=[
            harness.EpochLog(LossBundle(v, 0.5, 0.1, 0.1, 0.0, total), 1e-3) for v in video_losses
        ],
        seed=0, config={}, wall_clock_seconds=0.0,
    )


def test_training_gate():
    assert gates.check_training(_log(2.0, 1.5)) == []
    assert gates.check_training(_log(2.0, 2.5))
    assert gates.check_training(_log(2.0))
    assert gates.check_training(_log(2.0, 1.5, total=math.inf))
    expected = [e.losses for e in _log(2.0, 1.4).epochs]
    assert any("differs" in p for p in gates.check_training(_log(2.0, 1.5), expected))


def test_throughput_is_the_median_operation():
    ops = [workloads.Op(1.0, 10, []), workloads.Op(2.0, 10, []), workloads.Op(10.0, 10, []),
           workloads.Op(0.1, 10, ["failed"])]
    assert workloads.Phase(ops, 13.1).videos_per_s == 5.0


def test_throughput_is_in_reference_seconds():
    # The same operation, once in a fast spell and once in a spell that runs
    # the reference routine twice as slowly, has one reference rate.
    ops = [workloads.Op(1.0, 10, [], host_factor=1.0), workloads.Op(2.0, 10, [], host_factor=2.0),
           workloads.Op(1.5, 10, [], host_factor=1.5)]
    phase = workloads.Phase(ops, 4.5)
    assert phase.videos_per_s == pytest.approx(10.0)
    assert phase.wall_videos_per_s == pytest.approx(10.0 / 1.5)


class FixedSampler:
    """A host-speed sampler that reports factor 2.0 and 10 ms of sampling per span."""

    def __init__(self):
        self.seconds = []

    def sample(self):
        self.seconds.append(0.001)

    def over(self, start, end):
        return 2.0, 0.01


def test_measure_takes_sampling_out_of_each_operation():
    class SlowOp:
        def op(self, state):
            start = time.perf_counter()
            time.sleep(0.05)
            return workloads.Op(0.05, 1, [], start)

    phase = workloads.measure(SlowOp(), None, 0.03, FixedSampler())
    assert [op.host_factor for op in phase.ops] == [2.0]
    assert phase.ops[0].seconds == pytest.approx(0.04)
    assert phase.ops[0].reference_seconds == pytest.approx(0.02)
    assert phase.calibration_s == pytest.approx(0.002)


def test_sampler_span_uses_the_samples_in_it_and_either_side():
    sampler = hostspeed.Sampler()
    sampler.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    sampler.seconds = [0.005, 0.010, 0.010, 0.005, 0.020]
    factor, intrusion = sampler.over(0.5, 2.5)
    assert intrusion == pytest.approx(0.020)
    assert factor == pytest.approx(0.0075 / hostspeed.REFERENCE_S)


def test_periodic_sampling_stops_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler(interval_s=0.01)
    with sampler.periodic():
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(sampler.starts) >= 2
    assert sampler.starts == sorted(sampler.starts)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


class SetupsThatDisagree:
    """A workload whose third set-up ends in another loss than the first two."""

    def __init__(self):
        self.losses = iter([1.0, 1.0, 2.0])

    def setup(self, seed):
        return SimpleNamespace(final_train_loss=next(self.losses))

    def op(self, state):
        return workloads.Op(0.01, 1, [])

    def finish(self, state):
        return []

    def close(self, state):
        pass


def test_set_ups_with_one_seed_must_agree():
    args = SimpleNamespace(workload="train-desk", seed=1, seconds=0.003)
    _, _, ops, detail = run.timed_run(SetupsThatDisagree(), args, workloads, hostspeed)
    assert len(detail["setup_s_samples"]) == run.SETUP_REPEATS
    assert [p for op in ops for p in op.problems] == [
        "set-ups with one seed ended in losses [1.0, 1.0, 2.0]"]
