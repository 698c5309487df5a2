"""Spans and counts recorded around calls into coleaf's public functions.

The tracer times a layer from outside the program: it replaces the name that
the calling module looks up (for example `coleaf.harness.anchor_forward`,
which `harness.sample_losses` and `harness.predict` call) with a wrapper that
records a span, and puts the original object back when the traced region
ends. Spans are kept in memory as `[name, start, end, parent, group]` lists;
`parent` is the index of the enclosing span (-1 for a root) and `group`
identifies the training step or parse shard the span belongs to.

A target whose name no longer exists (a later refactor removed the hook) is
recorded as absent, and every per-layer metric built on it is left out of
the report instead of failing the run.

`counting_grad_nodes` counts the grad-tracking tensors built in a block. It
patches `Tensor.__init__`, which would slow every tensor built, so it is used
only around an untimed call, never inside the traced loop.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict


def _observe_generated(tracer, args, kwargs, result):
    tracer.counts["generated_videos"] += len(result.samples)


def _observe_backward(tracer, args, kwargs, result):
    # Every grad-carrying tensor that the backward pass consumed gets an entry
    # in the returned mapping; this is the graph size, read from outside.
    tracer.counts["graph_nodes"] += len(result)


def _observe_nce(tracer, args, kwargs, result):
    weights = kwargs["weights"] if "weights" in kwargs else args[4]
    tracer.counts["nce_terms"] += 2
    tracer.counts["nce_active_terms"] += (weights.theta_audio > 0) + (weights.theta_visual > 0)


def _observe_proposals(tracer, args, kwargs, result):
    tracer.counts["event_proposals"] += len(result)


def _observe_adam(tracer, args, kwargs, result):
    tracer.next_group()


@contextlib.contextmanager
def counting_grad_nodes():
    """Yield a Counter of grad-tracking tensors built in the block, or None.

    None means the public `Tensor` type is gone, so the count is absent.
    """
    try:
        from coleaf.numerics import Tensor
    except ImportError:
        yield None
        return
    counts = Counter()
    original = vars(Tensor)["__init__"]

    def counting_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if self.requires_grad:
            counts["grad_nodes"] += 1

    Tensor.__init__ = counting_init
    try:
        yield counts
    finally:
        Tensor.__init__ = original


# (owner, attribute, span name, observer).
# The owner is the module whose global the caller looks up, or
# "module:Class" for a method.
TARGETS = (
    ("coleaf.synthdata", "generate_corpus", "synthdata.generate_corpus", _observe_generated),
    ("coleaf.synthdata", "save_corpus", "synthdata.save_corpus", None),
    ("coleaf.synthdata", "load_corpus", "synthdata.load_corpus", None),
    ("coleaf.harness", "train", "harness.train", None),
    ("coleaf.harness", "sample_losses", "harness.sample_losses", None),
    ("coleaf.harness:AdamState", "step", "harness.adam_step", _observe_adam),
    ("coleaf.numerics", "backward", "numerics.backward", _observe_backward),
    ("coleaf.harness", "reference_forward", "branches.reference_forward", None),
    ("coleaf.harness", "anchor_forward", "branches.anchor_forward", None),
    ("coleaf.harness", "video_loss_reference", "losses.video_loss_reference", None),
    ("coleaf.harness", "video_loss_anchor", "losses.video_loss_anchor", None),
    ("coleaf.harness", "event_aware_nce", "losses.event_aware_nce", _observe_nce),
    ("coleaf.harness", "self_modality_kd", "losses.self_modality_kd", None),
    ("coleaf.harness", "cooccurrence_kd", "losses.cooccurrence_kd", None),
    ("coleaf.harness", "distil_pseudo_labels", "losses.pseudo_labels", None),
    ("coleaf.harness", "unalignment_weights", "losses.pseudo_labels", None),
    ("coleaf.harness", "anchor_modality_video_probs", "losses.pseudo_labels", None),
    ("coleaf.harness", "predict", "harness.predict", None),
    ("coleaf.harness", "write_predictions", "harness.write_predictions", None),
    ("coleaf.harness", "load_predictions", "harness.load_predictions", None),
    ("coleaf.harness", "gt_parses", "harness.gt_parses", None),
    ("coleaf.harness", "full_report", "metrics.full_report", None),
    ("coleaf.metrics", "extract_event_proposals", "metrics.extract_event_proposals",
     _observe_proposals),
    ("coleaf.metrics", "match_events", "metrics.match_events", None),
)


def resolve_owner(path):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """In-memory span recorder that wraps named functions while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absent = set()
        self.group = 0
        self._stack = []
        self._restore = []

    def next_group(self):
        self.group += 1

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.group])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner, attr, name, observe=None):
        """Replace `owner.attr` by a span-recording wrapper until `restore`."""
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target that exists; always put the originals back."""
        try:
            for owner_path, attr, name, observe in targets:
                try:
                    owner = resolve_owner(owner_path)
                except (ImportError, AttributeError):
                    owner = None
                if owner is None or attr not in vars(owner):
                    self.absent.add(name)
                    continue
                self.wrap(owner, attr, name, observe)
            yield self
        finally:
            self.restore()


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def unit_of(metric):
    if metric.endswith("ms_per_video"):
        return "ms/video"
    if metric.endswith("ms_per_step"):
        return "ms/step"
    if metric.endswith("_per_video"):
        return "count/video"
    if metric.endswith("_share"):
        return "share"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(setup, timed, videos, calls, wall_s, overhead_share, predict_grad_nodes):
    """Per-layer metrics of one traced run.

    `setup` and `timed` are the tracers of the traced set-up and the traced
    timed phase, and `videos` counts video passes in the timed phase. `calls` holds
    the branch instrumentation deltas over the timed phase, and `wall_s` its
    wall-clock length. `predict_grad_nodes` comes from an untimed predict
    (None when it could not be counted). A layer that did not run reports 0.
    """
    total = defaultdict(float)
    own_total = defaultdict(float)
    n_calls = Counter()
    for span, own in zip(timed.spans, self_times(timed.spans)):
        total[span[0]] += span[2] - span[1]
        own_total[span[0]] += own
        n_calls[span[0]] += 1
    gen_s = sum(end - start for name, start, end, _, _ in setup.spans
                if name == "synthdata.generate_corpus")

    def ms_per_video(name):
        return 1000.0 * _ratio(total[name], videos)

    def self_ms_per_video(name):
        return 1000.0 * _ratio(own_total[name], videos)

    counts = timed.counts
    # metric name -> (value, span names it needs)
    table = {
        "numerics.backward.calls": (n_calls["numerics.backward"], ("numerics.backward",)),
        "numerics.graph_nodes_per_video": (
            _ratio(counts["graph_nodes"], videos), ("numerics.backward",)),
        "numerics.predict_grad_nodes_per_video": (predict_grad_nodes, ()),
        "branches.reference_forward.calls": (calls["reference_forward_calls"], ()),
        "branches.anchor_forward.calls": (calls["anchor_forward_calls"], ()),
        "losses.event_aware_nce.active_share": (
            _ratio(counts["nce_active_terms"], counts["nce_terms"]), ("losses.event_aware_nce",)),
        "harness.sample_losses.self_ms_per_video": (
            self_ms_per_video("harness.sample_losses"), ("harness.sample_losses",)),
        "harness.train.self_ms_per_video": (
            self_ms_per_video("harness.train"), ("harness.train",)),
        "harness.adam_step.ms_per_step": (
            1000.0 * _ratio(total["harness.adam_step"], n_calls["harness.adam_step"]),
            ("harness.adam_step",)),
        "harness.adam_step.calls": (n_calls["harness.adam_step"], ("harness.adam_step",)),
        "metrics.full_report.self_ms_per_video": (
            self_ms_per_video("metrics.full_report"), ("metrics.full_report",)),
        "metrics.event_proposals_per_video": (
            _ratio(counts["event_proposals"], videos), ("metrics.extract_event_proposals",)),
        "synthdata.generate_corpus.ms_per_video": (
            1000.0 * _ratio(gen_s, setup.counts["generated_videos"]), ("synthdata.generate_corpus",)),
        "bench.op.self_ms_per_video": (self_ms_per_video("bench.op"), ()),
        # Wall time inside coleaf's wrapped functions; the rest is the
        # benchmark's own code and coleaf code that no wrapper covers.
        "trace.accounted_share": (
            _ratio(sum(t for name, t in own_total.items() if not name.startswith("bench.")),
                   wall_s), ()),
        "trace.overhead_share": (overhead_share, ()),
    }
    for name in (
        "numerics.backward",
        "branches.reference_forward",
        "branches.anchor_forward",
        "losses.video_loss_reference",
        "losses.video_loss_anchor",
        "losses.event_aware_nce",
        "losses.self_modality_kd",
        "losses.cooccurrence_kd",
        "losses.pseudo_labels",
        "harness.predict",
        "harness.gt_parses",
        "harness.write_predictions",
        "harness.load_predictions",
        "metrics.full_report",
        "metrics.extract_event_proposals",
        "metrics.match_events",
        "synthdata.save_corpus",
        "synthdata.load_corpus",
    ):
        table[f"{name}.ms_per_video"] = (ms_per_video(name), (name,))
    absent = timed.absent | setup.absent
    return {
        metric: float(value)
        for metric, (value, needs) in sorted(table.items())
        if value is not None and not absent.intersection(needs)
    }
