"""Training losses and the pseudo-label machinery connecting the branches.

Teacher-side quantities (pseudo-labels, unalignment weights, reference tokens
inside the contrastive loss, the reference correlation matrix inside the
co-occurrence loss) are constants: each loss trains exactly one branch.

Every loss term gives one value per video. Branch outputs of a single video
give a scalar; outputs of a B-video forward give B values, one per video.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ContractError, DimensionError
from .numerics import Tensor

REFERENCE = "reference"
ANCHOR = "anchor"


@dataclass
class PseudoLabels:
    audio: np.ndarray  # C in {0,1}; B x C for B videos
    visual: np.ndarray
    source: str  # "reference" or "anchor"


@dataclass
class UnalignmentWeights:
    """Counts and weights of one video; arrays of B values for B videos."""

    n_audio_only: int
    n_visual_only: int
    n_audible_visible: int
    theta_audio: float  # in [0,1], degree of contrastive encouragement
    theta_visual: float


@dataclass(frozen=True)
class LossBundle:
    ref_video: float
    anchor_video: float
    event_contrastive: float
    self_modality_kd: float
    cooccurrence_kd: float
    total: float


def _values(x):
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def video_loss_reference(ref, weak_label):
    """Video-level BCE terms for the reference branch, both modalities.

    Covers the pooled probabilities and, when class tokens are in play, the
    class-token scores as well.
    """
    probs = ref.video_probs
    if ref.cls_probs is not None:
        probs = nm.concat([probs, ref.cls_probs], axis=-2)
    y = np.asarray(weak_label, dtype=np.float64)
    y = np.broadcast_to(y[..., None, :], probs.shape)
    # n times the mean over n rows is the sum of the n per-row BCE means
    return nm.bce(y, probs, axis=(-2, -1)) * probs.shape[-2]


def video_loss_anchor(anchor, weak_label):
    """Video-level BCE on the anchor branch's pooled probabilities."""
    return nm.bce(weak_label, anchor.video_probs, axis=-1)


def distil_pseudo_labels(video_probs_audio, video_probs_visual, threshold, source):
    """Binary per-class labels: 1 where a video probability strictly exceeds the threshold.

    The result carries no gradient regardless of where the probabilities came from.
    """
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"pseudo-label threshold must be in (0,1), got {threshold}")
    if source not in (REFERENCE, ANCHOR):
        raise ConfigError(f"unknown pseudo-label source {source!r}")
    audio = (_values(video_probs_audio) > threshold).astype(np.int64)
    visual = (_values(video_probs_visual) > threshold).astype(np.int64)
    return PseudoLabels(audio=audio, visual=visual, source=source)


def unalignment_weights(pseudo):
    """Per-modality encouragement weights from reference pseudo-labels.

    Counts audible-only, visible-only and audible-visible classes, then
    theta_audio = N_a / (N_a + N_av) and symmetrically for visual, with
    0/0 defined as 0 (no event, or everything audible-visible).
    """
    if pseudo.source != REFERENCE:
        raise ContractError("unalignment weights are defined over reference pseudo-labels")
    ga, gv = pseudo.audio, pseudo.visual
    n_a = np.sum(ga * (1 - gv), axis=-1)
    n_v = np.sum(gv * (1 - ga), axis=-1)
    n_av = np.sum(ga * gv, axis=-1)
    fields = (n_a, n_v, n_av, _share(n_a, n_av), _share(n_v, n_av))
    if np.ndim(n_a) == 0:  # one video: plain numbers
        fields = [x.item() for x in fields]
    return UnalignmentWeights(*fields)


def _share(n_only, n_av):
    """n_only / (n_only + n_av), with 0/0 taken as 0."""
    den = n_only + n_av
    return np.divide(n_only, den, out=np.zeros(np.shape(den)), where=den > 0)


def event_aware_nce(
    anchor_audio,
    anchor_visual,
    ref_audio,
    ref_visual,
    weights,
    tau=0.2,
    include_positive=False,
):
    """Contrastive pull of anchor segment tokens toward the reference branch.

    For each segment the positive is the same segment's reference token; the
    negatives are the other T-1 reference tokens of the same modality. The
    positive is left out of the normalizer unless `include_positive` is set.
    Each modality's sum is scaled by its unalignment weight, so videos whose
    events are all audible-visible contribute nothing. This is the one-video
    form of `modality_nce`.
    """
    student = nm.stack([anchor_audio, anchor_visual])
    teacher = np.stack([_values(ref_audio), _values(ref_visual)])
    theta = np.array([weights.theta_audio, weights.theta_visual])
    return modality_nce(student, teacher, theta, tau, include_positive)


def modality_nce(student, teacher, theta, tau=0.2, include_positive=False):
    """`event_aware_nce` over stacked modalities, one value per video.

    `student` and the constant `teacher` are (..., 2, T, D) token blocks and
    `theta` holds the (..., 2) unalignment weights, audio then visual. When
    every weight is 0 the result is a constant 0 for each video.
    """
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")
    t = student.shape[-2]
    if t < 2:
        raise ContractError(f"contrastive loss needs at least 2 segments, got {t}")
    teacher = _values(teacher)
    if student.shape != teacher.shape:
        raise DimensionError(f"token sets must match, got {student.shape} and {teacher.shape}")
    if not theta.any():
        return Tensor(np.zeros(theta.shape[:-1]))
    scale = 1.0 / tau
    sim = nm.matmul(student, np.swapaxes(teacher, -1, -2)) * scale  # (...) x 2 x T x T
    pos = (student * teacher).sum(axis=-1) * scale  # the diagonal of sim
    if not include_positive:
        bias = np.zeros((t, t))
        np.fill_diagonal(bias, -1e30)  # exp underflows to exactly 0
        sim = sim + Tensor(bias)
    shift = sim.data.max(axis=-1, keepdims=True)
    lse = nm.log(nm.exp(sim - Tensor(shift)).sum(axis=-1)) + Tensor(shift[..., 0])
    return ((pos - lse).sum(axis=-1) * (-theta / t)).sum(axis=-1)


def self_modality_kd(anchor_pseudo, ref):
    """BCE of reference video probabilities against anchor pseudo-labels."""
    if anchor_pseudo.source != ANCHOR:
        raise ContractError("self-modality distillation expects anchor pseudo-labels")
    target = np.stack([anchor_pseudo.audio, anchor_pseudo.visual], axis=-2).astype(np.float64)
    # sum of the two modalities' means
    return nm.bce(target, ref.video_probs, axis=(-2, -1)) * 2.0


def class_correlation(video_probs):
    """Class correlation matrix: outer product of a probability vector with itself.

    Leading axes hold independent vectors: (..., C) gives (..., C, C).
    """
    p = nm.as_tensor(video_probs)
    return nm.matmul(p.reshape(p.shape + (1,)), p.reshape(p.shape[:-1] + (1, p.shape[-1])))


def anchor_modality_video_probs(anchor_out):
    """Per-modality video probabilities, 2 x C: each modality's temporal pooling.

    One output's pooling is built once: the anchor pseudo-labels and
    `cooccurrence_kd` share it.
    """
    return anchor_out.modality_video_probs


def cooccurrence_kd(ref_out, anchor_out):
    """MSE between the branches' class correlation matrices, per modality.

    The reference matrices act as the teacher, so only the anchor branch
    receives gradient.
    """
    teacher = class_correlation(ref_out.video_probs.detach())
    student = class_correlation(anchor_modality_video_probs(anchor_out))
    diff = teacher - student  # (...) x 2 x C x C
    # sum of the two modalities' means
    return (diff * diff).mean(axis=-1).mean(axis=-1).sum(axis=-1)


def total_loss(
    ref_video,
    anchor_video,
    event_contrastive,
    self_modality_kd_loss,
    cooccurrence_kd_loss,
    lambda_evt=1.0,
    lambda_kd=1.0,
    lambda_cls=1.0,
):
    """Weighted training objective plus an unweighted component record.

    Components may be autograd values or plain floats; the returned total is
    an autograd value whenever any component is one. Per-video components
    give a total per video, and the record then holds arrays.
    """
    for name, lam in (("lambda_evt", lambda_evt), ("lambda_kd", lambda_kd), ("lambda_cls", lambda_cls)):
        if lam < 0:
            raise ConfigError(f"{name} must be >= 0, got {lam}")
    total = anchor_video + ref_video
    total = total + lambda_evt * event_contrastive
    total = total + lambda_kd * self_modality_kd_loss
    total = total + lambda_cls * cooccurrence_kd_loss

    def val(x):
        x = _values(x)
        return float(x) if x.ndim == 0 else x

    bundle = LossBundle(
        ref_video=val(ref_video),
        anchor_video=val(anchor_video),
        event_contrastive=val(event_contrastive),
        self_modality_kd=val(self_modality_kd_loss),
        cooccurrence_kd=val(cooccurrence_kd_loss),
        total=val(total),
    )
    return total, bundle
