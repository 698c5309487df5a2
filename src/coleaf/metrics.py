"""Evaluation suite: traditional F-scores (A, V, AV, Type@AV, Event@AV) and
the exclusive variants (Ao, Vo, Type@AVo, Event@AVo) at segment and event level.

The exclusive streams look at both modalities jointly: a cell predicted in
both modalities counts for the audible-visible stream only, never for
audible-only or visible-only.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
import typing
from dataclasses import dataclass, fields

import numpy as np

from .errors import AlignmentError, ConfigError, DimensionError

STREAMS = ("A", "V", "AV", "Ao", "Vo")
# rows: the five streams, then the A+V and Ao+Vo pools that Event@AV and Event@AVo score
_POOLS = np.vstack((np.eye(len(STREAMS), dtype=np.int64), [[1, 1, 0, 0, 0], [0, 0, 0, 1, 1]]))
# videos per array pass in `full_report`, per stacked record check in the corpus and
# prediction file readers and per assembled block in `synthdata.generate_corpus`;
# bounds the memory one pass takes
SCORE_BLOCK_VIDEOS = 128
REPORT_KEYS = ("A", "Ao", "V", "Vo", "AV", "Type@AV", "Type@AVo", "Event@AV", "Event@AVo")


def as_binary(values, what):
    """`values` as int64, rejecting anything but 0 and 1 before the cast could truncate it."""
    values = np.asarray(values)
    if values.dtype.kind in "biu":  # two reductions are cheaper than the elementwise test
        ok = values.size == 0 or (values.min() >= 0 and values.max() <= 1)
    else:  # a float such as 0.5 lies inside [0, 1] but is not 0 or 1
        ok = np.all((values == 0) | (values == 1))
    if not ok:
        raise ValueError(f"{what} must hold only 0 and 1")
    return values.astype(np.int64)


def as_float(value):
    """The real number `value` as a float; an integer too large for one is infinite."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


# each field type's words in `check_fields`' messages and the classes that pass as it;
# a bool is not a number here
_KINDS = {bool: ("true or false", (bool, np.bool_)), int: ("an integer", numbers.Integral),
          float: ("a number", numbers.Real)}
_BRACKETS = {"[": operator.ge, "(": operator.gt, "]": operator.le, ")": operator.lt}


def _rule_test(rule):
    """The test that a field's rule states: `positive`, `>= k`, or `in` an interval such as
    `[0,1)`. Each is a comparison that only a number in range passes, so NaN fails it."""
    if rule == "positive":
        return lambda x: x > 0
    if rule.startswith(">= "):
        return functools.partial(operator.le, float(rule[3:]))  # low <= x
    low, high = map(float, rule[4:-1].split(","))
    above, below = _BRACKETS[rule[3]], _BRACKETS[rule[-1]]
    return lambda x: above(x, low) and below(x, high)


@functools.cache
def field_rules(cls):
    """The bool, int and float fields of dataclass `cls` as name -> (type, rule, test), read
    once per class from annotations such as `Annotated[int, ">= 1"]` into one dict that all
    callers share and none may change. A plain bool has no rule; other types are left out."""
    rules = {}
    for name, hint in typing.get_type_hints(cls, include_extras=True).items():
        kind, rule = typing.get_args(hint) if typing.get_origin(hint) is typing.Annotated else (hint, None)
        if kind in _KINDS:
            rules[name] = (kind, rule, rule and _rule_test(rule))
    return rules


def kind_error(name, kind, value):
    return ConfigError(f"{name} must be {_KINDS[kind][0]}, got {value!r}")


def check_fields(record):
    """Check each field that `field_rules` lists for `record`: its type, then its rule
    (an integer too large for a float is infinite there), then, for a float, that it is
    finite. A `ConfigError` names the first field that fails."""
    for name, (kind, rule, test) in field_rules(type(record)).items():
        value = getattr(record, name)
        if not isinstance(value, _KINDS[kind][1]) or (kind is not bool and isinstance(value, bool)):
            raise kind_error(name, kind, value)
        if rule and not test(as_float(value)):
            raise ConfigError(f"{name} must be {rule}, got {value}")
        if kind is float and not math.isfinite(number := as_float(value)):
            raise ConfigError(f"{name} must be finite, got {number}")


def matrix_pair(a, b, lead=()):
    """Whether arrays `a` and `b` share one shape: `lead`, the leading axes of a stack of
    records, then two matrix axes."""
    return a.shape == b.shape and a.ndim == len(lead) + 2 and a.shape[:-2] == lead


def unchecked(cls, **fields):
    """A `cls` record holding `fields` as given, without running its `__post_init__`: for
    arrays that have already passed its checks as part of a stacked block.

    Fields are set one at a time, as `__init__` sets them, so the record keeps the
    compact attribute table its class's instances share.
    """
    record = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


def record_eq(self, other):
    """`==` for dataclass records with array fields: records of one type are equal when
    their array fields are `np.array_equal` (None against an array is unequal) and
    every other field is `==`."""
    if type(other) is not type(self):
        return NotImplemented
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            if not np.array_equal(a, b):
                return False
        elif a != b:
            return False
    return True


@dataclass(eq=False)
class BinaryParse:
    audio: np.ndarray  # T x C in {0,1}
    visual: np.ndarray

    def __post_init__(self):
        self.audio, self.visual = binary_pair(self.audio, self.visual)

    __eq__ = record_eq


def binary_pair(audio, visual, *, lead=()):
    """The one check on a parse: two T x C matrices of 0 and 1 of one shape, as int64; with
    `lead`, two `lead` x T x C stacks of them."""
    audio = as_binary(audio, "audio parse")
    visual = as_binary(visual, "visual parse")
    if not matrix_pair(audio, visual, lead):
        raise DimensionError(f"parse matrices must share T x C, got {audio.shape} and {visual.shape}")
    return audio, visual


@dataclass
class ExclusiveParse:
    audio_only: np.ndarray
    visual_only: np.ndarray
    audible_visible: np.ndarray


@dataclass
class LevelScores:
    a: float
    ao: float
    v: float
    vo: float
    av: float
    type_at_av: float
    type_at_avo: float
    event_at_av: float
    event_at_avo: float

    def as_dict(self):
        return dict(zip(REPORT_KEYS, (self.a, self.ao, self.v, self.vo, self.av,
                                      self.type_at_av, self.type_at_avo,
                                      self.event_at_av, self.event_at_avo)))


@dataclass
class MetricReport:
    segment: LevelScores
    event: LevelScores
    rates: dict  # event type (A, V, AV) -> segment {"TP", "TN", "FP", "FN"} percentages

    def as_dict(self):
        return {"segment": self.segment.as_dict(), "event": self.event.as_dict()}

    def to_text(self):
        lines = []
        for level_name, scores in (("segment", self.segment), ("event", self.event)):
            for key, value in scores.as_dict().items():
                lines.append(f"{level_name}.{key} = {value!r}")
        return "\n".join(lines) + "\n"


@dataclass
class MetricConfig:
    aggregation: str = "micro"  # or "per-video-mean"

    def validate(self):
        if self.aggregation not in ("micro", "per-video-mean"):
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")


def _check_threshold(threshold, n_classes):
    """`threshold`, one value or one per class, as a 1-D float array; each value must be a
    number strictly inside (0,1), and an integer too large for a float is infinite."""
    try:
        arr = np.atleast_1d(np.asarray(threshold, dtype=object))
        arr = np.frompyfunc(as_float, 1, 1)(arr).astype(np.float64)
    except (TypeError, ValueError):
        raise ConfigError(f"threshold must be a number or comma list, got {threshold!r}") from None
    if arr.ndim != 1 or arr.shape[0] not in (1, n_classes):
        raise ConfigError(f"threshold must be a scalar or one value per class, got shape {arr.shape}")
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ConfigError(f"thresholds must lie strictly inside (0,1), got {arr}")
    return arr


def parse_threshold(raw):
    """One threshold, or one per class as a sequence or comma-separated text.

    Returns a float for a single value and a tuple otherwise; every value
    must lie strictly inside (0,1).
    """
    if isinstance(raw, str) and "," in raw:
        raw = raw.split(",")
    per_class = isinstance(raw, (list, tuple))
    arr = _check_threshold(raw, len(raw) if per_class else 1)
    return tuple(arr.tolist()) if per_class else float(arr[0])


def _probability_pair(probs_audio, probs_visual, *, lead=()):
    """The one check on a video's probabilities: two T x C float matrices of one shape,
    every value finite and inside [0,1]; with `lead`, two `lead` x T x C stacks of them."""
    pa = np.asarray(probs_audio, dtype=np.float64)
    pv = np.asarray(probs_visual, dtype=np.float64)
    if not matrix_pair(pa, pv, lead):
        raise DimensionError(f"probability matrices must share T x C, got {pa.shape} and {pv.shape}")
    for name, probs in (("audio", pa), ("visual", pv)):
        # min and max carry a NaN through, and NaN fails both comparisons, so it is rejected too
        if probs.size and not (probs.min() >= 0.0 and probs.max() <= 1.0):
            raise ValueError(f"{name} probabilities hold a non-finite value or one outside [0,1]")
    return pa, pv


def _streams(audio, visual):
    """The five streams of 0/1 parses whose last two axes are T x C, stacked on a new
    axis before them in `STREAMS` order."""
    return np.stack(
        (audio, visual, audio * visual, audio * (1 - visual), visual * (1 - audio)), axis=-3
    )


def derive_exclusive(parse):
    """Split a two-modality parse into audible-only / visible-only / audible-visible."""
    _, _, av, ao, vo = _streams(parse.audio, parse.visual)
    return ExclusiveParse(audio_only=ao, visual_only=vo, audible_visible=av)


def _fscore(tp, fp, fn):
    """F-score in percent, elementwise over counts; 100 where no positives exist anywhere."""
    denom = 2.0 * tp + fp + fn
    return np.where(denom > 0, 100.0 * 2.0 * tp / np.maximum(denom, 1.0), 100.0)


def segment_counts(pred, gt):
    """TP, FP and FN summed over the last two (T x C) axes, so one triple per stream of a stack."""
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape:
        raise DimensionError(f"stream shapes differ: {pred.shape} vs {gt.shape}")
    tp = np.sum(pred * gt, axis=(-2, -1))
    return tp, np.sum(pred, axis=(-2, -1)) - tp, np.sum(gt, axis=(-2, -1)) - tp


def extract_event_proposals(stacks):
    """The events of a B x 5 x T x C stream stack: its maximal positive runs along T.

    Returns an n x 3 int array with one `(key, start, end)` row per run: the
    run's (video, stream, class) as one flat index, its first segment and its
    end (exclusive), ordered by key and then start.
    """
    b, s, t, c = stacks.shape
    padded = np.zeros((b, s, c, t + 2), dtype=np.int8)
    padded[..., 1:-1] = stacks.swapaxes(-1, -2)
    # within each key's row of T + 1 edges, starts and ends alternate
    edges = np.flatnonzero(np.diff(padded, axis=-1))
    key, start = np.divmod(edges[0::2], t + 1)
    return np.stack((key, start, edges[1::2] % (t + 1))).T  # so match_events reads contiguous columns


def match_events(pred, gt):
    """Event TP, FP and FN of B x 5 x T x C stream stacks at IoU 0.5, as a 3 x 5 x B count array.

    The events are the runs `extract_event_proposals` finds in each stack.
    Maximal runs are disjoint and never adjacent, so no run reaches IoU 0.5
    with two others: greedy matching is one-to-one, and its TP per key is the
    number of qualifying run pairs.
    """
    n_videos, n_streams, _, n_classes = gt.shape
    (pk, ps, pe), (gk, gs, ge) = extract_event_proposals(pred).T, extract_event_proposals(gt).T
    # pair each pred run with the gt runs of its key
    n_gt = np.bincount(gk, minlength=n_videos * n_streams * n_classes)
    gt_first = np.cumsum(n_gt) - n_gt  # each key's first gt run
    reps = n_gt[pk]
    pair_first = np.cumsum(reps) - reps  # each pred run's first pair
    pi = np.repeat(np.arange(pk.size), reps)
    gj = np.arange(pi.size) + np.repeat(gt_first[pk] - pair_first, reps)
    inter = np.minimum(pe[pi], ge[gj]) - np.maximum(ps[pi], gs[gj])
    union = (pe - ps)[pi] + (ge - gs)[gj] - inter
    hit = 2 * inter >= union  # IoU >= 1/2, exact in integers
    tp = np.bincount(pk[pi[hit]] // n_classes, minlength=n_videos * n_streams)
    n_events = [np.bincount(k // n_classes, minlength=n_videos * n_streams) for k in (pk, gk)]
    counts = np.stack((tp, n_events[0] - tp, n_events[1] - tp))
    return counts.reshape(3, n_videos, n_streams).swapaxes(1, 2)


def _level_scores(counts, aggregation):
    pooled = _POOLS @ counts  # 3 x 7 x V: the streams, then the two pools
    if aggregation == "micro":
        f = _fscore(*pooled.sum(axis=-1))
    else:
        # each stream's V scores form one contiguous row, summed as np.mean sums a list
        f = _fscore(*pooled).mean(axis=-1)
    a, v, av, ao, vo, pool_av, pool_avo = f.tolist()
    return LevelScores(
        a=a,
        ao=ao,
        v=v,
        vo=vo,
        av=av,
        type_at_av=(a + v + av) / 3.0,
        type_at_avo=(ao + vo + av) / 3.0,
        event_at_av=pool_av,
        event_at_avo=pool_avo,
    )


def _percent(part, whole):
    return 100.0 * part / whole if whole else 0.0


def _rates(counts, cells):
    """Segment TP/TN/FP/FN percentages per event type (A, V, AV), counted corpus-wide.

    Event types are the exclusive streams, so a cell predicted in both
    modalities never counts toward the audible-only or visible-only type.
    TP and FN rates are relative to actual positives, TN and FP rates to
    actual negatives.
    """
    totals = counts.sum(axis=-1).T.tolist()  # per stream [tp, fp, fn]
    rates = {}
    for event_type, stream in (("A", "Ao"), ("V", "Vo"), ("AV", "AV")):
        tp, fp, fn = totals[STREAMS.index(stream)]
        tn = cells - tp - fp - fn
        pos, neg = tp + fn, tn + fp
        rates[event_type] = {
            "TP": _percent(tp, pos),
            "TN": _percent(tn, neg),
            "FP": _percent(fp, neg),
            "FN": _percent(fn, pos),
        }
    return rates


def _checked_block(ids, preds, gts, first, shape):
    """The predictions and ground truth of the videos `ids` as B x 2 x T x C stacks.

    The stacked probabilities pass `_probability_pair` once. If that fails, or
    the videos do not stack to the first video's T x C, each video is checked
    on its own in order, so an error names the first bad video.
    """
    pred = [(p.audio, p.visual) if isinstance(p, BinaryParse) else p for p in map(preds.get, ids)]
    gt = [(g.audio, g.visual) for g in map(gts.get, ids)]
    try:
        pred_stack, gt_stack = np.array(pred, dtype=np.float64), np.array(gt)
        if pred_stack.shape[1:] == gt_stack.shape[1:] == (2, *shape):
            _probability_pair(pred_stack[:, 0], pred_stack[:, 1], lead=(len(ids),))
            return pred_stack, gt_stack
    except (TypeError, ValueError):  # ragged, not numbers, or out of range
        pass
    for i, vid in enumerate(ids):
        if not isinstance(preds[vid], BinaryParse):
            pred[i] = _probability_pair(*pred[i])
        if gt[i][0].shape != shape:
            raise DimensionError(
                f"video {vid} has ground truth T x C = {gt[i][0].shape}, but the first "
                f"video {first} has {shape}; every video of a corpus needs the same T and C"
            )
        if pred[i][0].shape != shape:
            raise DimensionError(
                f"video {vid}: prediction shape {pred[i][0].shape} vs ground truth {shape}"
            )
    return np.array(pred), np.array(gt)


def full_report(preds, gts, thresholds=None, config=None):
    """All nine metrics at segment and event level, plus the segment confusion
    rates per event type, over an aligned corpus of one T x C.

    `preds` maps video id to either a BinaryParse or a (probs_audio,
    probs_visual) pair that is thresholded here; `gts` maps video id to a
    BinaryParse. Prediction and ground-truth ids must match, the corpus must
    not be empty, the threshold must suit its C, and every parse must have the
    first video's T x C. Events match at IoU 0.5. Videos are checked and
    scored `SCORE_BLOCK_VIDEOS` at a time: each block's probabilities pass the
    pair rule once as one stack, and an error names the first bad video. The
    report is independent of enumeration order.
    """
    config = config or MetricConfig()
    config.validate()
    pred_ids, gt_ids = set(preds), set(gts)
    if pred_ids != gt_ids:
        raise AlignmentError(missing_in_pred=gt_ids - pred_ids, missing_in_gt=pred_ids - gt_ids)
    if not pred_ids:
        raise ConfigError("no videos to score")
    ids = sorted(preds)
    shape = gts[ids[0]].audio.shape
    # 0 and 1 threshold to themselves, so a BinaryParse goes through as is
    thr = _check_threshold(0.5 if thresholds is None else thresholds, shape[1])
    # level x (tp, fp, fn) x stream x video; each stream's V counts form one
    # contiguous row in id order, which per-video-mean averages
    counts = np.empty((2, 3, len(STREAMS), len(ids)), dtype=np.int64)
    for lo in range(0, len(ids), SCORE_BLOCK_VIDEOS):
        block = slice(lo, lo + SCORE_BLOCK_VIDEOS)
        pred, gt = _checked_block(ids[block], preds, gts, ids[0], shape)
        pred = _streams(*(pred > thr).astype(np.int64).swapaxes(0, 1))
        gt = _streams(*gt.astype(np.int64).swapaxes(0, 1))
        counts[0][..., block] = np.transpose(segment_counts(pred, gt), (0, 2, 1))
        counts[1][..., block] = match_events(pred, gt)
    return MetricReport(
        segment=_level_scores(counts[0], config.aggregation),
        event=_level_scores(counts[1], config.aggregation),
        rates=_rates(counts[0], shape[0] * shape[1] * len(ids)),
    )
