"""The two network branches.

The reference branch sees each modality in isolation (self-attention over the
input tokens plus learnable class tokens) and is used only during training.
The anchor branch combines unimodal and cross-modal attention and is the
branch deployed for inference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import DimensionError
from .metrics import BinaryParse
from .numerics import Tensor


@dataclass
class Instrumentation:
    reference_forward_calls: int = 0
    anchor_forward_calls: int = 0
    class_token_reads: int = 0

    def reset(self):
        self.reference_forward_calls = 0
        self.anchor_forward_calls = 0
        self.class_token_reads = 0


# The prediction path is required to leave the reference branch untouched;
# these counters let tests and callers check that.
instrumentation = Instrumentation()


@dataclass(eq=False)
class VideoSample:
    id: str
    audio_tokens: np.ndarray  # T x D
    visual_tokens: np.ndarray  # T x D
    weak_label: np.ndarray  # C in {0,1}, modality-agnostic
    gt: BinaryParse | None = None

    def __post_init__(self):
        self.audio_tokens = np.asarray(self.audio_tokens, dtype=np.float64)
        self.visual_tokens = np.asarray(self.visual_tokens, dtype=np.float64)
        self.weak_label = np.asarray(self.weak_label, dtype=np.int64)
        if self.audio_tokens.shape != self.visual_tokens.shape or self.audio_tokens.ndim != 2:
            raise DimensionError(
                f"token matrices must share T x D, got {self.audio_tokens.shape} "
                f"and {self.visual_tokens.shape}"
            )
        if self.gt is not None:
            expect = (self.n_segments, self.n_classes)
            if self.gt.audio.shape != expect:
                raise DimensionError(f"ground truth shape {self.gt.audio.shape}, expected {expect}")

    @property
    def n_segments(self):
        return self.audio_tokens.shape[0]

    @property
    def dim(self):
        return self.audio_tokens.shape[1]

    @property
    def n_classes(self):
        return self.weak_label.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, VideoSample)
            and self.id == other.id
            and np.array_equal(self.audio_tokens, other.audio_tokens)
            and np.array_equal(self.visual_tokens, other.visual_tokens)
            and np.array_equal(self.weak_label, other.weak_label)
            and self.gt == other.gt
        )


def param_layout(dim, n_classes):
    """`(name, shape)` of every parameter of both branches, in init draw order.

    The order fixes each parameter's offset in `BranchParams.flat`.
    """
    d, c = dim, n_classes
    attn = (("wq", (d, d)), ("wk", (d, d)), ("wv", (d, d)))
    lin = (("weight", (d, c)), ("bias", (c,)))  # D -> C
    layout = []
    for prefix, parts in (
        ("reference.attn_audio", attn),
        ("reference.attn_visual", attn),
        # learnable class tokens, C x D per modality
        ("reference", (("class_tokens_audio", (c, d)), ("class_tokens_visual", (c, d)))),
        ("reference.temporal_fc", lin),  # shared across modalities
        ("reference.classifier_audio", lin),
        ("reference.classifier_visual", lin),
        ("anchor.self_attn_audio", attn),
        ("anchor.self_attn_visual", attn),
        ("anchor.cross_attn_audio", attn),  # audio queries over visual tokens
        ("anchor.cross_attn_visual", attn),
        ("anchor.classifier", lin),  # shared by both modalities
        ("anchor.pool_temporal_fc", lin),  # logits normalized along T
        ("anchor.pool_modality_fc", lin),  # logits normalized across modalities
    ):
        layout += [(f"{prefix}.{name}", shape) for name, shape in parts]
    return layout


class BranchParams:
    """Every parameter of both branches in one contiguous float64 vector.

    `params[name]` is a grad-tracking `Tensor` whose data is a view into
    `flat`. The views are built once, so an optimiser updates `flat` in place
    and the tensors that `backward` keys its gradients by stay valid.
    """

    def __init__(self, dim, n_classes, flat):
        self.dim = dim
        self.n_classes = n_classes
        layout = param_layout(dim, n_classes)
        self.flat = np.asarray(flat, dtype=np.float64)
        size = sum(math.prod(shape) for _, shape in layout)
        if self.flat.shape != (size,):
            raise DimensionError(f"parameter vector has shape {self.flat.shape}, expected ({size},)")
        self._tensors = {}
        self._spans = []
        offset = 0
        for name, shape in layout:
            span = slice(offset, offset + math.prod(shape))
            tensor = Tensor(self.flat[span].reshape(shape), requires_grad=True)
            self._tensors[name] = tensor
            self._spans.append((tensor, span))
            offset = span.stop

    def __getitem__(self, name):
        return self._tensors[name]

    def named_parameters(self):
        return list(self._tensors.items())

    def flat_grad(self, grads):
        """`backward`'s per-tensor gradients laid out like `flat`; zero where absent."""
        out = np.zeros_like(self.flat)
        for tensor, span in self._spans:
            g = grads.get(tensor)
            if g is not None:
                out[span] = g.reshape(-1)
        return out


def init_branch_params(dim, n_classes, seed):
    """Fresh parameters, uniform in [-1/sqrt(D), 1/sqrt(D)] from one seeded stream."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(dim)
    size = sum(math.prod(shape) for _, shape in param_layout(dim, n_classes))
    return BranchParams(dim, n_classes, rng.uniform(-bound, bound, size))


@dataclass
class ReferenceOutput:
    tokens_audio: Tensor  # (T+C) x D with class tokens, T x D without
    tokens_visual: Tensor
    seg_probs_audio: Tensor  # T x C
    seg_probs_visual: Tensor
    temporal_weights_audio: Tensor  # T x C, each column sums to 1 along T
    temporal_weights_visual: Tensor
    video_probs_audio: Tensor  # C
    video_probs_visual: Tensor
    cls_probs_audio: Tensor | None  # C, None when class tokens are disabled
    cls_probs_visual: Tensor | None


@dataclass
class AnchorOutput:
    tokens_audio: Tensor  # T x D
    tokens_visual: Tensor
    seg_probs: Tensor  # T x 2 x C, audio then visual along the modality axis
    w_temporal: Tensor  # T x 2 x C, sums to 1 along T per (modality, class)
    w_modality: Tensor  # T x 2 x C, sums to 1 across modalities per (t, class)
    video_probs: Tensor  # C


def _check_dims(sample, params):
    if sample.dim != params.dim or sample.n_classes != params.n_classes:
        raise DimensionError(
            f"sample is T={sample.n_segments}, D={sample.dim}, C={sample.n_classes} "
            f"but params expect D={params.dim}, C={params.n_classes}"
        )


def _linear(x, params, prefix):
    return nm.matmul(x, params[f"{prefix}.weight"]) + params[f"{prefix}.bias"]


def _linear3(x, params, prefix):
    t, m, d = x.shape
    flat = x.reshape((t * m, d))
    return _linear(flat, params, prefix).reshape((t, m, params.n_classes))


def _attend(query, kv, params, prefix):
    return nm.attention(
        query, kv, params[f"{prefix}.wq"], params[f"{prefix}.wk"], params[f"{prefix}.wv"]
    )


def reference_forward(sample, params, use_class_tokens=True):
    """Unimodal branch: self-attention over [input tokens; class tokens].

    Per modality the attended input-token rows yield segment probabilities
    and temporal pooling weights; their weighted sum is the video-level
    probability vector. Attended class-token rows are average-pooled over the
    embedding axis into per-class scores.
    """
    _check_dims(sample, params)
    instrumentation.reference_forward_calls += 1
    t = sample.n_segments
    per_modality = []
    for feats, side in ((sample.audio_tokens, "audio"), (sample.visual_tokens, "visual")):
        f = Tensor(feats)
        if use_class_tokens:
            instrumentation.class_token_reads += 1
            x = nm.concat([f, params[f"reference.class_tokens_{side}"]], axis=0)
        else:
            x = f
        tokens = _attend(x, x, params, f"reference.attn_{side}")
        seg_tokens = tokens[0:t]
        seg_probs = nm.sigmoid(_linear(seg_tokens, params, f"reference.classifier_{side}"))
        weights = nm.softmax(_linear(seg_tokens, params, "reference.temporal_fc"), axis=0)
        video_probs = (weights * seg_probs).sum(axis=0)
        cls_probs = nm.sigmoid(tokens[t:].mean(axis=1)) if use_class_tokens else None
        per_modality.append((tokens, seg_probs, weights, video_probs, cls_probs))
    a, v = per_modality
    return ReferenceOutput(
        tokens_audio=a[0],
        tokens_visual=v[0],
        seg_probs_audio=a[1],
        seg_probs_visual=v[1],
        temporal_weights_audio=a[2],
        temporal_weights_visual=v[2],
        video_probs_audio=a[3],
        video_probs_visual=v[3],
        cls_probs_audio=a[4],
        cls_probs_visual=v[4],
    )


def anchor_forward(sample, params, unimodal_only=False):
    """Hybrid-attention branch with attentive pooling to video level.

    Each modality token receives a residual self-attention term and, unless
    `unimodal_only` is set, a cross-attention term over the other modality.
    A shared classifier scores segments; two pooling weight fields (one
    normalized along time, one across modalities) reduce the T x 2 x C
    probability block to a per-class video probability.
    """
    _check_dims(sample, params)
    instrumentation.anchor_forward_calls += 1
    fa0 = Tensor(sample.audio_tokens)
    fv0 = Tensor(sample.visual_tokens)
    fa = fa0 + _attend(fa0, fa0, params, "anchor.self_attn_audio")
    fv = fv0 + _attend(fv0, fv0, params, "anchor.self_attn_visual")
    if not unimodal_only:
        fa = fa + _attend(fa0, fv0, params, "anchor.cross_attn_audio")
        fv = fv + _attend(fv0, fa0, params, "anchor.cross_attn_visual")
    seg_a = nm.sigmoid(_linear(fa, params, "anchor.classifier"))
    seg_v = nm.sigmoid(_linear(fv, params, "anchor.classifier"))
    probs = nm.stack([seg_a, seg_v], axis=1)  # T x 2 x C
    feats = nm.stack([fa, fv], axis=1)  # T x 2 x D
    w_temporal = nm.softmax(_linear3(feats, params, "anchor.pool_temporal_fc"), axis=0)
    w_modality = nm.softmax(_linear3(feats, params, "anchor.pool_modality_fc"), axis=1)
    # The raw product of the two weight fields does not sum to 1 over (t, m),
    # so normalize it per class; the pooled probability is then a true convex
    # combination and stays inside [min P, max P].
    joint = w_temporal * w_modality
    video_probs = (joint * probs).sum(axis=0).sum(axis=0) / joint.sum(axis=0).sum(axis=0)
    return AnchorOutput(
        tokens_audio=fa,
        tokens_visual=fv,
        seg_probs=probs,
        w_temporal=w_temporal,
        w_modality=w_modality,
        video_probs=video_probs,
    )
