"""Correctness checks on each benchmark operation.

Every check returns a list of problems; an operation with any problem counts
as failed. None of them is ever skipped.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

REPORT_KEYS = ("A", "Ao", "V", "Vo", "AV", "Type@AV", "Type@AVo", "Event@AV", "Event@AVo")


def video_level_loss(losses):
    """The weakly supervised terms, whose targets do not move during training."""
    return losses.ref_video + losses.anchor_video


def check_training(log, expected=None):
    """Every epoch finite; the video-level loss falls; same seed, same log.

    The collaboration terms compare each branch with the other, moving,
    branch, so their sum may rise while both branches learn; the video-level
    terms have fixed targets and must fall from the first epoch to the last.
    """
    problems = []
    epochs = [e.losses for e in log.epochs]
    for index, losses in enumerate(epochs):
        for field in dataclasses.fields(losses):
            if not math.isfinite(getattr(losses, field.name)):
                problems.append(f"epoch {index}: {field.name} is not finite")
    if len(epochs) < 2:
        problems.append("a training run needs at least two epochs to show learning")
    elif not video_level_loss(epochs[-1]) < video_level_loss(epochs[0]):
        problems.append(
            f"video-level loss did not fall: {video_level_loss(epochs[0])!r} -> "
            f"{video_level_loss(epochs[-1])!r}"
        )
    if expected is not None and epochs != expected:
        problems.append("training log differs from the first run with the same seed")
    return problems


def check_predictions(preds, samples, calls):
    """Anchor-only predict: no reference work, one T x C pair per video in [0,1]."""
    problems = []
    if calls["reference_forward_calls"]:
        problems.append(f"predict ran {calls['reference_forward_calls']} reference forwards")
    if calls["class_token_reads"]:
        problems.append(f"predict read class tokens {calls['class_token_reads']} times")
    if list(preds) != [s.id for s in samples]:
        problems.append("predictions do not cover the shard's videos in order")
        return problems
    for sample in samples:
        shape = (sample.n_segments, sample.n_classes)
        for probs in preds[sample.id]:
            if probs.shape != shape:
                problems.append(f"{sample.id}: prediction shape {probs.shape}, expected {shape}")
            elif not (np.all(np.isfinite(probs)) and np.all((probs >= 0.0) & (probs <= 1.0))):
                problems.append(f"{sample.id}: probability outside [0,1]")
    return problems


def check_round_trip(written, loaded):
    """Predictions read back from disk are bit-identical to those written."""
    if list(written) != list(loaded):
        return ["prediction ids changed through write and load"]
    return [
        f"{vid}: predictions changed through write and load"
        for vid in written
        if not all(np.array_equal(a, b) for a, b in zip(written[vid], loaded[vid]))
    ]


def check_report(report):
    """All nine keys present and finite at both levels."""
    problems = []
    for level, scores in report.as_dict().items():
        for key in REPORT_KEYS:
            value = scores.get(key)
            if value is None or not math.isfinite(value):
                problems.append(f"{level}.{key} is {value!r}")
    return problems


def check_quality(score, random_score):
    if score > random_score:
        return []
    return [f"held-out Type@AVo {score!r} is not above random predictions' {random_score!r}"]
