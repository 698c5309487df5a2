"""Evaluation suite: traditional F-scores (A, V, AV, Type@AV, Event@AV) and
the exclusive variants (Ao, Vo, Type@AVo, Event@AVo) at segment and event level.

The exclusive streams look at both modalities jointly: a cell predicted in
both modalities counts for the audible-visible stream only, never for
audible-only or visible-only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ConfigError, DimensionError

STREAMS = ("A", "V", "AV", "Ao", "Vo")
REPORT_KEYS = ("A", "Ao", "V", "Vo", "AV", "Type@AV", "Type@AVo", "Event@AV", "Event@AVo")


def as_binary(values, what):
    """`values` as int64, rejecting anything but 0 and 1 before the cast could truncate it."""
    values = np.asarray(values)
    if not np.all((values == 0) | (values == 1)):
        raise ValueError(f"{what} must hold only 0 and 1")
    return values.astype(np.int64)


@dataclass(eq=False)
class BinaryParse:
    audio: np.ndarray  # T x C in {0,1}
    visual: np.ndarray

    def __post_init__(self):
        self.audio = as_binary(self.audio, "audio parse")
        self.visual = as_binary(self.visual, "visual parse")
        if self.audio.shape != self.visual.shape or self.audio.ndim != 2:
            raise DimensionError(
                f"parse matrices must share T x C, got {self.audio.shape} and {self.visual.shape}"
            )

    def __eq__(self, other):
        return (
            isinstance(other, BinaryParse)
            and np.array_equal(self.audio, other.audio)
            and np.array_equal(self.visual, other.visual)
        )


@dataclass
class ExclusiveParse:
    audio_only: np.ndarray
    visual_only: np.ndarray
    audible_visible: np.ndarray


@dataclass(frozen=True)
class EventProposal:
    class_index: int
    start: int  # first positive segment
    end: int  # last positive segment, inclusive
    stream: str


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
    iou_threshold: float = 0.5
    aggregation: str = "micro"  # or "per-video-mean"

    def validate(self):
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ConfigError(f"iou_threshold must be in (0,1], got {self.iou_threshold}")
        if self.aggregation not in ("micro", "per-video-mean"):
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")


def _check_threshold(threshold, n_classes):
    arr = np.atleast_1d(np.asarray(threshold, dtype=np.float64))
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
    try:
        if isinstance(raw, str) and "," in raw:
            raw = raw.split(",")
        value = tuple(float(x) for x in raw) if isinstance(raw, (list, tuple)) else float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"threshold must be a number or comma list, got {raw!r}") from None
    _check_threshold(value, np.size(value))
    return value


def threshold_parse(seg_probs_audio, seg_probs_visual, threshold=0.5):
    """Binarize probabilities; a cell is positive only if strictly above its threshold."""
    pa = np.asarray(seg_probs_audio, dtype=np.float64)
    pv = np.asarray(seg_probs_visual, dtype=np.float64)
    if pa.shape != pv.shape or pa.ndim != 2:
        raise DimensionError(f"probability matrices must share T x C, got {pa.shape} and {pv.shape}")
    thr = _check_threshold(threshold, pa.shape[1])
    return BinaryParse(audio=(pa > thr).astype(np.int64), visual=(pv > thr).astype(np.int64))


def derive_exclusive(parse):
    """Split a two-modality parse into audible-only / visible-only / audible-visible."""
    a, v = parse.audio, parse.visual
    return ExclusiveParse(
        audio_only=a * (1 - v),
        visual_only=v * (1 - a),
        audible_visible=a * v,
    )


def _fscore(tp, fp, fn):
    if tp == 0 and fp == 0 and fn == 0:
        return 100.0
    return 100.0 * 2.0 * tp / (2.0 * tp + fp + fn)


def segment_counts(pred, gt):
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape:
        raise DimensionError(f"stream shapes differ: {pred.shape} vs {gt.shape}")
    tp = int(np.sum(pred * gt))
    fp = int(np.sum(pred * (1 - gt)))
    fn = int(np.sum((1 - pred) * gt))
    return tp, fp, fn


def segment_fscore(pred, gt):
    """F-score over all cells of one stream; 100 when no positives exist anywhere."""
    return _fscore(*segment_counts(pred, gt))


def extract_event_proposals(stream_matrix, stream):
    """Maximal contiguous positive runs per class, as inclusive segment spans."""
    mat = np.asarray(stream_matrix, dtype=np.int64)
    proposals = []
    t = mat.shape[0]
    for c in range(mat.shape[1]):
        start = None
        for i in range(t):
            if mat[i, c] and start is None:
                start = i
            elif not mat[i, c] and start is not None:
                proposals.append(EventProposal(c, start, i - 1, stream))
                start = None
        if start is not None:
            proposals.append(EventProposal(c, start, t - 1, stream))
    return proposals


def _temporal_iou(a, b):
    inter = min(a.end, b.end) - max(a.start, b.start) + 1
    if inter <= 0:
        return 0.0
    union = (a.end - a.start + 1) + (b.end - b.start + 1) - inter
    return inter / union


def match_events(pred_events, gt_events, iou_threshold=0.5):
    """Greedy matching by descending IoU within (stream, class); returns tp, fp, fn."""
    candidates = []
    for i, p in enumerate(pred_events):
        for j, g in enumerate(gt_events):
            if p.stream != g.stream or p.class_index != g.class_index:
                continue
            iou = _temporal_iou(p, g)
            if iou >= iou_threshold:
                candidates.append((iou, i, j))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    used_pred, used_gt = set(), set()
    tp = 0
    for _, i, j in candidates:
        if i in used_pred or j in used_gt:
            continue
        used_pred.add(i)
        used_gt.add(j)
        tp += 1
    return tp, len(pred_events) - tp, len(gt_events) - tp


def event_fscore(pred_events, gt_events, iou_threshold=0.5):
    return _fscore(*match_events(pred_events, gt_events, iou_threshold))


def _as_parse(value, thresholds):
    if isinstance(value, BinaryParse):
        return value
    probs_a, probs_v = value
    return threshold_parse(probs_a, probs_v, 0.5 if thresholds is None else thresholds)


def _aligned_streams(preds, gts, thresholds):
    """Yield per video in id order each stream's (prediction, ground truth) pair.

    Prediction and ground-truth ids must match and each video's parses must
    share one shape.
    """
    pred_ids, gt_ids = set(preds), set(gts)
    if pred_ids != gt_ids:
        raise AlignmentError(missing_in_pred=gt_ids - pred_ids, missing_in_gt=pred_ids - gt_ids)
    for vid in sorted(preds):
        pred_parse = _as_parse(preds[vid], thresholds)
        gt_parse = gts[vid]
        if pred_parse.audio.shape != gt_parse.audio.shape:
            raise DimensionError(
                f"video {vid}: prediction shape {pred_parse.audio.shape} "
                f"vs ground truth {gt_parse.audio.shape}"
            )
        pe = derive_exclusive(pred_parse)
        ge = derive_exclusive(gt_parse)
        yield {
            "A": (pred_parse.audio, gt_parse.audio),
            "V": (pred_parse.visual, gt_parse.visual),
            "AV": (pe.audible_visible, ge.audible_visible),
            "Ao": (pe.audio_only, ge.audio_only),
            "Vo": (pe.visual_only, ge.visual_only),
        }


def _add3(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _level_scores(per_video_counts, aggregation):
    # per_video_counts: list of dicts stream -> (tp, fp, fn)
    if aggregation == "micro":
        totals = {s: (0, 0, 0) for s in STREAMS}
        for counts in per_video_counts:
            for s in STREAMS:
                totals[s] = _add3(totals[s], counts[s])
        f = {s: _fscore(*totals[s]) for s in STREAMS}
        ev_av = _fscore(*_add3(totals["A"], totals["V"]))
        ev_avo = _fscore(*_add3(totals["Ao"], totals["Vo"]))
    else:
        per_stream = {s: [] for s in STREAMS}
        ev_av_list, ev_avo_list = [], []
        for counts in per_video_counts:
            for s in STREAMS:
                per_stream[s].append(_fscore(*counts[s]))
            ev_av_list.append(_fscore(*_add3(counts["A"], counts["V"])))
            ev_avo_list.append(_fscore(*_add3(counts["Ao"], counts["Vo"])))
        f = {s: float(np.mean(per_stream[s])) for s in STREAMS}
        ev_av = float(np.mean(ev_av_list))
        ev_avo = float(np.mean(ev_avo_list))
    return LevelScores(
        a=f["A"],
        ao=f["Ao"],
        v=f["V"],
        vo=f["Vo"],
        av=f["AV"],
        type_at_av=(f["A"] + f["V"] + f["AV"]) / 3.0,
        type_at_avo=(f["Ao"] + f["Vo"] + f["AV"]) / 3.0,
        event_at_av=ev_av,
        event_at_avo=ev_avo,
    )


def full_report(preds, gts, thresholds=None, config=None):
    """All nine metrics at segment and event level over an aligned corpus.

    `preds` maps video id to either a BinaryParse or a (probs_audio,
    probs_visual) pair that is thresholded here; `gts` maps video id to a
    BinaryParse. The report is independent of enumeration order.
    """
    config = config or MetricConfig()
    config.validate()
    segment_counts_per_video = []
    event_counts_per_video = []
    for streams in _aligned_streams(preds, gts, thresholds):
        segment_counts_per_video.append({s: segment_counts(p, g) for s, (p, g) in streams.items()})
        event_counts_per_video.append(
            {
                s: match_events(
                    extract_event_proposals(p, s),
                    extract_event_proposals(g, s),
                    config.iou_threshold,
                )
                for s, (p, g) in streams.items()
            }
        )
    return MetricReport(
        segment=_level_scores(segment_counts_per_video, config.aggregation),
        event=_level_scores(event_counts_per_video, config.aggregation),
    )


def confusion_rates(preds, gts, thresholds=None):
    """Segment-level TP/TN/FP/FN percentage rates per event type (A, V, AV).

    Event types are the exclusive streams, so a cell predicted in both
    modalities never counts toward the audible-only or visible-only type.
    TP and FN rates are relative to actual positives, TN and FP rates to
    actual negatives, accumulated corpus-wide.
    """
    type_streams = {"A": "Ao", "V": "Vo", "AV": "AV"}
    totals = {t: [0, 0, 0, 0] for t in type_streams}  # tp, fp, fn, tn
    for streams in _aligned_streams(preds, gts, thresholds):
        for event_type, stream in type_streams.items():
            p, g = streams[stream]
            tp, fp, fn = segment_counts(p, g)
            tn = p.size - tp - fp - fn
            for k, val in enumerate((tp, fp, fn, tn)):
                totals[event_type][k] += val
    rates = {}
    for event_type, (tp, fp, fn, tn) in totals.items():
        pos = tp + fn
        negs = tn + fp
        rates[event_type] = {
            "TP": 100.0 * tp / pos if pos else 0.0,
            "TN": 100.0 * tn / negs if negs else 0.0,
            "FP": 100.0 * fp / negs if negs else 0.0,
            "FN": 100.0 * fn / pos if pos else 0.0,
        }
    return rates
