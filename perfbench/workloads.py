"""The benchmark's workloads, driven only through coleaf's public Python API.

Each workload builds its inputs from the seed in `setup`, which also runs one
untimed warm-up operation, and then repeats that operation in a closed loop:
a training run on the train workloads, a parse shard on `parse-heldout`. The
modules are called through their attributes (`harness.train`, ...) so that
the tracer's wrappers see every call.

Why these workloads:
- train-desk: the acceptance suite's criterion-7 shape (T=10, C=5, D=16,
  500 videos, default config, 32 Adam steps per epoch). Per-node graph
  bookkeeping and per-step overheads dominate here.
- train-llp: the shape of the LLP dataset HAN trains on (T=10, C=25, D=256)
  at desk size, with the full-scale config (batch 128). Arithmetic, the
  C x C co-occurrence terms and a 128-video graph held until backward
  dominate; peak memory is several times the desk shape's.
- parse-heldout: deployment. Anchor-only predict, prediction files and the
  metric suite over 2000 held-out videos, with no training in the timed
  part; it bypasses every training optimisation.
"""
from __future__ import annotations

import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from coleaf import branches, harness, synthdata

import gates
import tracing

OUT_DIR = Path(__file__).resolve().parent / "out"

DESK = dict(segments=10, classes=5, dim=16, event_rate=2.5, leak=0.3, noise_sigma=0.15)
LLP = dict(segments=10, classes=25, dim=256, event_rate=2.5, leak=0.3, noise_sigma=0.15)
TRAIN_EPOCHS = 2  # the fewest that can show the loss falling

PARSE_TRAIN_VIDEOS = 500
PARSE_TRAIN_EPOCHS = 4  # fewer epochs leave some seeds no better than random
HELDOUT_VIDEOS = 2000
# A shard is one held-out corpus file, scored the way `coleaf predict` and
# `coleaf eval` score one file per call. 100 videos is the held-out file of
# the README's quick start and of acceptance criterion 7.
SHARD_VIDEOS = 100


@dataclass
class Op:
    """One operation: its timed seconds, the video passes it completed, its problems.

    `started` is the `time.perf_counter()` at which the timed part began.
    `measure` sets `host_factor` from the host-speed samples over the
    operation (see hostspeed.py) and takes the sampling time out of
    `seconds`; outside `measure` the factor stays 1.0.
    """

    seconds: float
    videos: int
    problems: list
    started: float = 0.0
    host_factor: float = 1.0

    @property
    def reference_seconds(self):
        return self.seconds / self.host_factor


@dataclass
class Phase:
    ops: list
    wall_s: float
    calibration_s: float = 0.0  # part of wall_s spent sampling the host's speed

    @property
    def done(self):
        return [op for op in self.ops if not op.problems]

    @property
    def videos(self):
        return sum(op.videos for op in self.done)

    @property
    def videos_per_s(self):
        """Videos per reference second of the median passed operation.

        Each operation's wall time is converted to reference seconds with the
        host-speed samples taken over it, so a slow spell of the host does not
        move the figure; the median keeps a few operations that were preempted
        from moving it either.
        """
        rates = [op.videos / op.reference_seconds for op in self.done if op.seconds > 0]
        return statistics.median(rates) if rates else 0.0

    @property
    def wall_videos_per_s(self):
        """Videos per wall-clock second of the median passed operation."""
        rates = [op.videos / op.seconds for op in self.done if op.seconds > 0]
        return statistics.median(rates) if rates else 0.0

    @property
    def latencies_ms(self):
        return [1000.0 * op.seconds for op in self.done]

    @property
    def host_factors(self):
        return [op.host_factor for op in self.ops]

    @classmethod
    def merge(cls, phases):
        return cls(
            [op for phase in phases for op in phase.ops],
            sum(p.wall_s for p in phases),
            sum(p.calibration_s for p in phases),
        )


def counters():
    inst = branches.instrumentation
    return {
        "reference_forward_calls": inst.reference_forward_calls,
        "anchor_forward_calls": inst.anchor_forward_calls,
        "class_token_reads": inst.class_token_reads,
    }


def counter_delta(before, after):
    return {key: after[key] - before[key] for key in before}


def subset(corpus, samples):
    return synthdata.GeneratedCorpus(
        samples=samples,
        prototypes_audio=corpus.prototypes_audio,
        prototypes_visual=corpus.prototypes_visual,
        spec=corpus.spec,
    )


def run_op(workload, state):
    """Run one operation; an exception is a failed operation, not a crash."""
    start = time.perf_counter()
    try:
        return workload.op(state)
    except Exception as err:  # the loop must go on and count the failure
        traceback.print_exc()
        return Op(time.perf_counter() - start, 0, [f"raised {err!r}"], start)


def measure(workload, state, seconds, sampler, tracer=None):
    """Closed loop: start operations until `seconds` have passed.

    `sampler` (a hostspeed.Sampler) is sampled before the first operation and
    after each one, outside every span, so each operation has a host-speed
    sample on either side, and more inside it while the sampler is periodic.
    """
    ops = []
    first_sample = len(sampler.seconds)
    start = time.perf_counter()
    sampler.sample()
    while time.perf_counter() - start < seconds:
        if tracer is None:
            op = run_op(workload, state)
        else:
            tracer.next_group()
            with tracer.span("bench.op"):
                op = run_op(workload, state)
        sampler.sample()
        op.host_factor, intrusion = sampler.over(op.started, op.started + op.seconds)
        op.seconds -= intrusion
        ops.append(op)
    return Phase(ops, time.perf_counter() - start, sum(sampler.seconds[first_sample:]))


@dataclass
class TrainState:
    corpus: object
    config: object
    expected: list | None = None
    final_train_loss: float | None = None


class TrainWorkload:
    """Repeated training runs of a fixed number of epochs on one corpus."""

    def __init__(self, n_videos, shape, make_config):
        self.n_videos = n_videos
        self.shape = shape
        self.make_config = make_config

    def setup(self, seed):
        spec = synthdata.CorpusSpec(n_videos=self.n_videos, seed=seed, **self.shape)
        state = TrainState(corpus=synthdata.generate_corpus(spec), config=self.make_config(seed))
        problems = self.op(state).problems
        if problems:
            raise RuntimeError(f"warm-up training run failed its checks: {problems}")
        return state

    def op(self, state):
        start = time.perf_counter()
        _, log = harness.train(state.corpus, state.config)
        seconds = time.perf_counter() - start
        problems = gates.check_training(log, state.expected)
        if not problems:
            state.expected = state.expected or [e.losses for e in log.epochs]
            state.final_train_loss = log.epochs[-1].losses.total
        return Op(seconds, len(state.corpus.samples) * state.config.epochs, problems, start)

    def finish(self, state):
        return []

    def predict_grad_nodes_per_video(self, state):
        return 0.0  # training never calls predict

    def close(self, state):
        pass


@dataclass
class ParseState:
    params: object
    heldout: object
    shards: list
    workdir: Path
    seed: int
    final_train_loss: float
    next_shard: int = 0
    loaded: dict = field(default_factory=dict)  # shard index -> predictions read back
    heldout_type_at_avo: float | None = None
    random_type_at_avo: float | None = None


class ParseWorkload:
    """Held-out shards through corpus file, anchor predict, prediction file and report."""

    def setup(self, seed):
        spec = synthdata.CorpusSpec(
            n_videos=PARSE_TRAIN_VIDEOS + HELDOUT_VIDEOS, seed=seed, **DESK
        )
        corpus = synthdata.generate_corpus(spec)
        train_part = subset(corpus, corpus.samples[:PARSE_TRAIN_VIDEOS])
        heldout = subset(corpus, corpus.samples[PARSE_TRAIN_VIDEOS:])
        params, log = harness.train(
            train_part, harness.TrainConfig(epochs=PARSE_TRAIN_EPOCHS, seed=seed)
        )
        problems = gates.check_training(log)
        if problems:
            raise RuntimeError(f"set-up training failed its checks: {problems}")
        shards = [
            subset(corpus, heldout.samples[lo : lo + SHARD_VIDEOS])
            for lo in range(0, HELDOUT_VIDEOS, SHARD_VIDEOS)
        ]
        OUT_DIR.mkdir(exist_ok=True)
        state = ParseState(
            params=params,
            heldout=heldout,
            shards=shards,
            workdir=Path(tempfile.mkdtemp(prefix="parse-", dir=OUT_DIR)),
            seed=seed,
            final_train_loss=log.epochs[-1].losses.total,
        )
        try:
            problems = self.op(state).problems
            if problems:
                raise RuntimeError(f"warm-up shard failed its checks: {problems}")
        except Exception:
            self.close(state)
            raise
        return state

    def op(self, state):
        index = state.next_shard % len(state.shards)
        state.next_shard += 1
        shard = state.shards[index]
        corpus_path = state.workdir / "shard.jsonl"
        pred_path = state.workdir / "preds.jsonl"
        start = time.perf_counter()
        synthdata.save_corpus(shard, corpus_path)
        loaded = synthdata.load_corpus(corpus_path)
        before = counters()
        preds = harness.predict(state.params, loaded)
        calls = counter_delta(before, counters())
        harness.write_predictions(preds, pred_path)
        read_back = harness.load_predictions(pred_path)
        report = harness.evaluate(read_back, loaded)
        seconds = time.perf_counter() - start
        problems = []
        if loaded.samples != shard.samples:
            problems.append("corpus changed through save and load")
        problems += gates.check_predictions(preds, loaded.samples, calls)
        problems += gates.check_round_trip(preds, read_back)
        problems += gates.check_report(report)
        if not problems:
            state.loaded[index] = read_back
        return Op(seconds, len(shard.samples), problems, start)

    def finish(self, state):
        """Score the whole held-out set from the shards' prediction files.

        Shards the timed loop did not reach run here, untimed, so the score
        always covers every held-out video. It must beat seeded random
        predictions on the same videos.
        """
        ops = []
        while len(state.loaded) < len(state.shards) and len(ops) < len(state.shards):
            state.next_shard = min(set(range(len(state.shards))) - set(state.loaded))
            ops.append(run_op(self, state))
        merged = {}
        for index in sorted(state.loaded):
            merged.update(state.loaded[index])
        if len(merged) != len(state.heldout.samples):
            return ops + [Op(0.0, 0, ["held-out predictions are incomplete"])]
        rng = np.random.default_rng(state.seed)
        random_preds = {
            vid: (rng.random(pa.shape), rng.random(pv.shape)) for vid, (pa, pv) in merged.items()
        }
        state.heldout_type_at_avo = harness.evaluate(merged, state.heldout).segment.type_at_avo
        state.random_type_at_avo = harness.evaluate(random_preds, state.heldout).segment.type_at_avo
        problems = gates.check_quality(state.heldout_type_at_avo, state.random_type_at_avo)
        return ops + [Op(0.0, 0, problems)]

    def predict_grad_nodes_per_video(self, state):
        """Grad-tracking tensors one untimed anchor-only predict builds, per video."""
        shard = state.shards[0]
        with tracing.counting_grad_nodes() as counts:
            harness.predict(state.params, shard)
        return None if counts is None else counts["grad_nodes"] / len(shard.samples)

    def close(self, state):
        shutil.rmtree(state.workdir, ignore_errors=True)


WORKLOADS = {
    "train-desk": TrainWorkload(
        500, DESK, lambda seed: harness.TrainConfig(epochs=TRAIN_EPOCHS, seed=seed)
    ),
    "train-llp": TrainWorkload(
        256, LLP, lambda seed: harness.TrainConfig.fullscale(epochs=TRAIN_EPOCHS, seed=seed)
    ),
    "parse-heldout": ParseWorkload(),
}
