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
from .numerics import Tensor
from .records import VideoSample


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
    """Reference outputs with audio then visual along the modality axis.

    Shapes are per video; a forward over B videos puts a leading B axis on
    every field.
    """

    tokens: Tensor  # 2 x (T+C) x D with class tokens, 2 x T x D without
    seg_probs: Tensor  # 2 x T x C
    temporal_weights: Tensor  # 2 x T x C, sums to 1 along T per (modality, class)
    video_probs: Tensor  # 2 x C
    cls_probs: Tensor | None  # 2 x C, None when class tokens are disabled

    tokens_audio = property(lambda self: self.tokens[..., 0, :, :])
    tokens_visual = property(lambda self: self.tokens[..., 1, :, :])
    video_probs_audio = property(lambda self: self.video_probs[..., 0, :])
    video_probs_visual = property(lambda self: self.video_probs[..., 1, :])


@dataclass
class AnchorOutput:
    """Anchor outputs per video; a forward over B videos adds a leading B axis.

    A forward with `pool=False` stops at the segment head: its three pooled
    fields, `w_temporal`, `w_modality` and `video_probs`, are None.
    """

    tokens: Tensor  # 2 x T x D, audio then visual
    seg_probs: Tensor  # T x 2 x C, audio then visual along the modality axis
    w_temporal: Tensor | None  # T x 2 x C, sums to 1 along T per (modality, class)
    w_modality: Tensor | None  # T x 2 x C, sums to 1 across modalities per (t, class)
    video_probs: Tensor | None  # C

    tokens_audio = property(lambda self: self.tokens[..., 0, :, :])
    tokens_visual = property(lambda self: self.tokens[..., 1, :, :])


def _check_dims(sample, params):
    if sample.dim != params.dim or sample.n_classes != params.n_classes:
        raise DimensionError(
            f"sample is T={sample.n_segments}, D={sample.dim}, C={sample.n_classes} "
            f"but params expect D={params.dim}, C={params.n_classes}"
        )


def _token_block(videos, params):
    """Tokens of one `VideoSample` as 2 x T x D, or of a sequence of B as B x 2 x T x D.

    Also returns the number of videos, which the instrumentation counts.
    """
    single = isinstance(videos, VideoSample)
    batch = [videos] if single else list(videos)
    if not batch:
        raise DimensionError("a forward needs at least one video")
    for sample in batch:
        _check_dims(sample, params)
        if sample.audio_tokens.shape != batch[0].audio_tokens.shape:
            raise DimensionError(
                f"videos in one batch must share T x D, got {sample.audio_tokens.shape} "
                f"and {batch[0].audio_tokens.shape}"
            )
    x = np.array([(s.audio_tokens, s.visual_tokens) for s in batch])
    return (x[0] if single else x), len(batch)


def _sided(template):
    return [template.format(side) for side in ("audio", "visual")]


def _stack(params, names):
    """The named parameters stacked on a new leading axis, in the order given."""
    return nm.stack([params[name] for name in names])


def _linear(x, params, prefix):
    return nm.matmul(x, params[f"{prefix}.weight"]) + params[f"{prefix}.bias"]


def _attend(query, kv, params, prefixes):
    """Attention over stacked problems, the i-th with the projections under `prefixes[i]`."""
    weights = [_stack(params, [f"{p}.{w}" for p in prefixes]) for w in ("wq", "wk", "wv")]
    return nm.attention(query, kv, *weights)


def reference_forward(videos, params, use_class_tokens=True):
    """Unimodal branch: self-attention over [input tokens; class tokens].

    Per modality the attended input-token rows yield segment probabilities
    and temporal pooling weights; their weighted sum is the video-level
    probability vector. Attended class-token rows are average-pooled over the
    embedding axis into per-class scores. Both modalities run as one stacked
    problem with their own attention, class tokens and classifier. `videos`
    is one `VideoSample` or a sequence of them; a sequence of B runs as one
    B x 2 x T x D block.
    """
    x, count = _token_block(videos, params)  # (B x) 2 x T x D
    instrumentation.reference_forward_calls += count
    t, c = x.shape[-2], params.n_classes
    x = Tensor(x)
    if use_class_tokens:
        instrumentation.class_token_reads += 2 * count  # both modalities' class tokens
        class_tokens = _stack(params, _sided("reference.class_tokens_{}"))  # 2 x C x D
        # every video attends over the same class tokens
        class_tokens = class_tokens + Tensor(np.zeros(x.shape[:-2] + class_tokens.shape[-2:]))
        x = nm.concat([x, class_tokens], axis=-2)
    tokens = _attend(x, x, params, _sided("reference.attn_{}"))
    seg_tokens = tokens[..., :t, :]
    logits = nm.matmul(seg_tokens, _stack(params, _sided("reference.classifier_{}.weight")))
    bias = _stack(params, _sided("reference.classifier_{}.bias")).reshape((2, 1, c))
    seg_probs = nm.sigmoid(logits + bias)
    weights = nm.softmax(_linear(seg_tokens, params, "reference.temporal_fc"), axis=-2)
    return ReferenceOutput(
        tokens=tokens,
        seg_probs=seg_probs,
        temporal_weights=weights,
        video_probs=(weights * seg_probs).sum(axis=-2),
        cls_probs=nm.sigmoid(tokens[..., t:, :].mean(axis=-1)) if use_class_tokens else None,
    )


def anchor_forward(videos, params, unimodal_only=False, pool=True):
    """Hybrid-attention branch with attentive pooling to video level.

    Each modality token receives a residual self-attention term and, unless
    `unimodal_only` is set, a cross-attention term over the other modality.
    A shared classifier scores segments; two pooling weight fields (one
    normalized along time, one across modalities) reduce the T x 2 x C
    probability block to a per-class video probability. With `pool=False`
    the forward stops after the segment scores, as prediction needs no more.
    `videos` is one `VideoSample` or a sequence of them, as in
    `reference_forward`.
    """
    x, count = _token_block(videos, params)  # (B x) 2 x T x D
    instrumentation.anchor_forward_calls += count
    lead, (t, d) = x.shape[:-3], x.shape[-2:]
    prefixes, query, kv = _sided("anchor.self_attn_{}"), x, x
    if not unimodal_only:
        # cross attention: audio queries over visual tokens and visual over audio
        prefixes += _sided("anchor.cross_attn_{}")
        query = np.concatenate([x, x], axis=-3)
        kv = np.concatenate([x, np.flip(x, axis=-3)], axis=-3)
    attended = _attend(query, kv, params, prefixes)
    attended = attended.reshape(lead + (len(prefixes) // 2, 2, t, d))
    tokens = Tensor(x) + attended.sum(axis=-4)  # (B x) 2 x T x D
    n = tokens.ndim
    feats = nm.transpose(tokens, (*range(n - 3), n - 2, n - 3, n - 1))  # (B x) T x 2 x D
    probs = nm.sigmoid(_linear(feats, params, "anchor.classifier"))  # (B x) T x 2 x C
    if not pool:
        return AnchorOutput(tokens, probs, w_temporal=None, w_modality=None, video_probs=None)
    w_temporal = nm.softmax(_linear(feats, params, "anchor.pool_temporal_fc"), axis=-3)
    w_modality = nm.softmax(_linear(feats, params, "anchor.pool_modality_fc"), axis=-2)
    # The raw product of the two weight fields does not sum to 1 over (t, m),
    # so normalize it per class; the pooled probability is then a true convex
    # combination and stays inside [min P, max P].
    joint = w_temporal * w_modality
    video_probs = (joint * probs).sum(axis=-3).sum(axis=-2) / joint.sum(axis=-3).sum(axis=-2)
    return AnchorOutput(
        tokens=tokens,
        seg_probs=probs,
        w_temporal=w_temporal,
        w_modality=w_modality,
        video_probs=video_probs,
    )
