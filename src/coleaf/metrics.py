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
from .records import SCORE_BLOCK_VIDEOS, BinaryParse, check_threshold, probability_pair

STREAMS = ("A", "V", "AV", "Ao", "Vo")
# rows: the five streams, then the A+V and Ao+Vo pools that Event@AV and Event@AVo score
_POOLS = np.vstack((np.eye(len(STREAMS), dtype=np.int64), [[1, 1, 0, 0, 0], [0, 0, 0, 1, 1]]))
REPORT_KEYS = ("A", "Ao", "V", "Vo", "AV", "Type@AV", "Type@AVo", "Event@AV", "Event@AVo")


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


def _block_stacks(ids, preds, gts, first, shape):
    """The audio and visual B x T x C stacks of the predictions and the ground truth of the
    videos `ids`, checked by each scoring rule once: every ground truth has the first
    video's T x C, every prediction is two matrices, the stacked pairs pass
    `probability_pair`, and their T x C is the ground truth's. A ragged block fails with
    numpy's own `ValueError`."""
    gt = np.array([(gts[vid].audio, gts[vid].visual) for vid in ids])
    if gt.shape[2:] != shape:  # the block stacked to one T x C, so its first video is at fault
        raise DimensionError(
            f"video {ids[0]} has ground truth T x C = {gt.shape[2:]}, but the first "
            f"video {first} has {shape}; every video of a corpus needs the same T and C"
        )
    pred = [(p.audio, p.visual) if isinstance(p, BinaryParse) else p for p in map(preds.get, ids)]
    for vid, pair in zip(ids, pred):  # before the matrices are split, which would drop a third
        if len(pair) != 2:
            raise DimensionError(f"video {vid}: a prediction must be two T x C matrices, got {len(pair)}")
    audio, visual = probability_pair([p[0] for p in pred], [p[1] for p in pred], lead=(len(ids),))
    if audio.shape[1:] != shape:
        raise DimensionError(f"video {ids[0]}: prediction shape {audio.shape[1:]} vs ground truth {shape}")
    return (audio, visual), (gt[:, 0], gt[:, 1])


def full_report(preds, gts, thresholds=None, config=None):
    """All nine metrics at segment and event level, plus the segment confusion
    rates per event type, over an aligned corpus of one T x C.

    `preds` maps video id to either a BinaryParse or a (probs_audio,
    probs_visual) pair that is thresholded here; `gts` maps video id to a
    BinaryParse. Prediction and ground-truth ids must match, the corpus must
    not be empty, the threshold must suit its C, and every parse must have the
    first video's T x C. Events match at IoU 0.5. Videos are checked and
    scored `SCORE_BLOCK_VIDEOS` at a time by `_block_stacks`, which states each
    of these rules once; a block that fails is checked again one video at a
    time, in id order, so the error is the first bad video's own. The report
    is independent of enumeration order.
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
    thr = check_threshold(0.5 if thresholds is None else thresholds, shape[1])
    # level x (tp, fp, fn) x stream x video; each stream's V counts form one
    # contiguous row in id order, which per-video-mean averages
    counts = np.empty((2, 3, len(STREAMS), len(ids)), dtype=np.int64)
    for lo in range(0, len(ids), SCORE_BLOCK_VIDEOS):
        block = slice(lo, lo + SCORE_BLOCK_VIDEOS)
        try:
            pred, gt = _block_stacks(ids[block], preds, gts, ids[0], shape)
        except (TypeError, ValueError):  # name the first bad video of the block
            for vid in ids[block]:
                _block_stacks([vid], preds, gts, ids[0], shape)
            raise
        pred = _streams(*((p > thr).astype(np.int64) for p in pred))
        gt = _streams(*gt)
        counts[0][..., block] = np.transpose(segment_counts(pred, gt), (0, 2, 1))
        counts[1][..., block] = match_events(pred, gt)
    return MetricReport(
        segment=_level_scores(counts[0], config.aggregation),
        event=_level_scores(counts[1], config.aggregation),
        rates=_rates(counts[0], shape[0] * shape[1] * len(ids)),
    )
