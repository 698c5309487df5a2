import dataclasses
import re

import numpy as np
import pytest

from coleaf.branches import (
    BranchParams,
    anchor_forward,
    init_branch_params,
    instrumentation,
    reference_forward,
)
from coleaf.errors import DimensionError
from coleaf.records import BinaryParse, VideoSample

from oracles import anchor_forward_oracle, reference_forward_oracle


def make_sample(rng, t=4, c=3, d=8, scale=1.0):
    return VideoSample(
        id="s0",
        audio_tokens=rng.uniform(-scale, scale, (t, d)),
        visual_tokens=rng.uniform(-scale, scale, (t, d)),
        weak_label=rng.integers(0, 2, c),
    )


def param_values(params):
    return {name: t.data.copy() for name, t in params.named_parameters()}


def zero_params(params, prefixes):
    for name, tensor in params.named_parameters():
        if any(name.startswith(p) for p in prefixes):
            tensor.data[...] = 0.0  # a view into params.flat


def test_reference_single_segment_pooling_is_identity():
    rng = np.random.default_rng(0)
    params = init_branch_params(8, 3, seed=1)
    sample = make_sample(rng, t=1)
    out = reference_forward(sample, params)
    assert np.array_equal(out.video_probs.data, out.seg_probs.data[:, 0])


def test_reference_identical_rows_pool_to_common_row():
    # zero classifier weights force identical per-segment probabilities
    rng = np.random.default_rng(1)
    params = init_branch_params(8, 3, seed=2)
    zero_params(params, ["reference.classifier_audio.weight", "reference.classifier_visual.weight"])
    out = reference_forward(make_sample(rng), params)
    common = out.seg_probs.data[0, 0]
    assert np.allclose(out.seg_probs.data[0], common[None, :])
    assert np.allclose(out.video_probs_audio.data, common, atol=1e-12)


def test_reference_matches_step_by_step_recomputation():
    rng = np.random.default_rng(2)
    params = init_branch_params(8, 3, seed=3)
    sample = make_sample(rng, t=4, c=3, d=8)
    out = reference_forward(sample, params)
    oracle = reference_forward_oracle(sample, param_values(params))
    for m, modality in enumerate(("audio", "visual")):
        assert np.max(np.abs(out.video_probs.data[m] - oracle[modality]["video"])) < 1e-10
        assert np.max(np.abs(out.cls_probs.data[m] - oracle[modality]["cls"])) < 1e-10


def test_reference_temporal_weights_normalized():
    rng = np.random.default_rng(3)
    params = init_branch_params(8, 3, seed=4)
    out = reference_forward(make_sample(rng, t=6), params)
    assert np.max(np.abs(out.temporal_weights.data.sum(axis=1) - 1.0)) < 1e-9


def test_reference_without_class_tokens():
    rng = np.random.default_rng(4)
    params = init_branch_params(8, 3, seed=5)
    sample = make_sample(rng)
    out = reference_forward(sample, params, use_class_tokens=False)
    assert out.cls_probs is None
    assert out.tokens_audio.shape == (4, 8)


def test_reference_dim_mismatch():
    rng = np.random.default_rng(5)
    params = init_branch_params(8, 3, seed=6)
    with pytest.raises(DimensionError):
        reference_forward(make_sample(rng, d=6), params)


def test_reference_is_pure_per_video():
    rng = np.random.default_rng(6)
    params = init_branch_params(8, 3, seed=7)
    sample = make_sample(rng)
    first = reference_forward(sample, params).video_probs_audio.data
    # interleave another forward; result for the original sample is unchanged
    reference_forward(make_sample(rng), params)
    second = reference_forward(sample, params).video_probs_audio.data
    assert np.array_equal(first, second)


def test_anchor_single_segment_zeroed_pooling_reduces_to_mean():
    rng = np.random.default_rng(7)
    params = init_branch_params(8, 3, seed=8)
    zero_params(
        params,
        [
            "anchor.self_attn_audio",
            "anchor.self_attn_visual",
            "anchor.pool_temporal_fc",
            "anchor.pool_modality_fc",
        ],
    )
    sample = make_sample(rng, t=1)
    out = anchor_forward(sample, params, unimodal_only=True)
    # zeroed attention projections leave the residual stream untouched
    assert np.allclose(out.tokens_audio.data, sample.audio_tokens, atol=1e-15)
    expected = 0.5 * (out.seg_probs.data[0, 0] + out.seg_probs.data[0, 1])
    assert np.allclose(out.video_probs.data, expected, atol=1e-12)


def test_anchor_pooling_weights_normalized():
    rng = np.random.default_rng(8)
    params = init_branch_params(8, 3, seed=9)
    for _ in range(5):
        out = anchor_forward(make_sample(rng, t=5), params)
        assert np.max(np.abs(out.w_temporal.data.sum(axis=0) - 1.0)) < 1e-9
        assert np.max(np.abs(out.w_modality.data.sum(axis=1) - 1.0)) < 1e-9


def test_anchor_matches_double_sum_recomputation():
    rng = np.random.default_rng(9)
    params = init_branch_params(8, 3, seed=10)
    sample = make_sample(rng, t=4, c=3)
    for unimodal in (False, True):
        out = anchor_forward(sample, params, unimodal_only=unimodal)
        oracle = anchor_forward_oracle(sample, param_values(params), unimodal_only=unimodal)
        assert np.max(np.abs(out.video_probs.data - oracle["video"])) < 1e-10
        assert np.max(np.abs(out.tokens_audio.data - oracle["tokens_audio"])) < 1e-10


def test_anchor_video_probs_are_convex_combination():
    rng = np.random.default_rng(10)
    for trial in range(20):
        params = init_branch_params(8, 3, seed=100 + trial)
        out = anchor_forward(make_sample(rng, t=5), params)
        per_class_min = out.seg_probs.data.min(axis=(0, 1))
        per_class_max = out.seg_probs.data.max(axis=(0, 1))
        assert np.all(out.video_probs.data >= per_class_min - 1e-12)
        assert np.all(out.video_probs.data <= per_class_max + 1e-12)


def test_unimodal_anchor_ignores_other_modality():
    rng = np.random.default_rng(11)
    params = init_branch_params(8, 3, seed=12)
    sample = make_sample(rng)
    base = anchor_forward(sample, params, unimodal_only=True)
    perturbed = VideoSample(
        id=sample.id,
        audio_tokens=sample.audio_tokens,
        visual_tokens=sample.visual_tokens + rng.normal(size=sample.visual_tokens.shape),
        weak_label=sample.weak_label,
    )
    out = anchor_forward(perturbed, params, unimodal_only=True)
    assert np.array_equal(base.tokens_audio.data, out.tokens_audio.data)
    cross = anchor_forward(perturbed, params, unimodal_only=False)
    assert not np.array_equal(base.tokens_audio.data, cross.tokens_audio.data)


def test_instrumentation_counts_reference_and_class_tokens():
    rng = np.random.default_rng(12)
    params = init_branch_params(8, 3, seed=13)
    sample = make_sample(rng)
    instrumentation.reset()
    anchor_forward(sample, params)
    assert instrumentation.reference_forward_calls == 0
    assert instrumentation.class_token_reads == 0
    reference_forward(sample, params)
    assert instrumentation.reference_forward_calls == 1
    assert instrumentation.class_token_reads == 2  # once per modality


def test_init_is_deterministic_and_bounded():
    a = init_branch_params(8, 3, seed=42)
    b = init_branch_params(8, 3, seed=42)
    bound = 1.0 / np.sqrt(8)
    for (name_a, ta), (name_b, tb) in zip(a.named_parameters(), b.named_parameters()):
        assert name_a == name_b
        assert np.array_equal(ta.data, tb.data)
        assert np.all(np.abs(ta.data) <= bound)


def test_forward_outputs_all_finite():
    rng = np.random.default_rng(13)
    params = init_branch_params(8, 3, seed=14)
    sample = make_sample(rng, scale=1e3)
    ref = reference_forward(sample, params)
    anc = anchor_forward(sample, params)
    for tensor in (
        ref.tokens_audio,
        ref.video_probs_audio,
        ref.cls_probs,
        anc.seg_probs,
        anc.video_probs,
    ):
        assert np.all(np.isfinite(tensor.data))


@pytest.mark.parametrize("switch", [False, True], ids=["default", "switched"])
def test_batched_forwards_slice_to_per_video_forwards(switch):
    rng = np.random.default_rng(15)
    params = init_branch_params(8, 3, seed=16)
    samples = [make_sample(rng, t=5) for _ in range(3)]
    instrumentation.reset()
    batched = [
        reference_forward(samples, params, use_class_tokens=not switch),
        anchor_forward(samples, params, unimodal_only=switch),
    ]
    # per video: one reference forward with two class-token reads (none when
    # class tokens are off) and one anchor forward
    assert instrumentation.reference_forward_calls == 3
    assert instrumentation.anchor_forward_calls == 3
    assert instrumentation.class_token_reads == (0 if switch else 6)
    for b, sample in enumerate(samples):
        single = [
            reference_forward(sample, params, use_class_tokens=not switch),
            anchor_forward(sample, params, unimodal_only=switch),
        ]
        for many, one in zip(batched, single):
            for field in dataclasses.fields(one):
                value = getattr(one, field.name)
                if value is None:
                    assert getattr(many, field.name) is None
                    continue
                sliced = getattr(many, field.name).data[b]
                assert sliced.shape == value.shape
                assert np.max(np.abs(sliced - value.data)) < 1e-12, field.name
        assert np.array_equal(
            batched[0].video_probs_visual.data[b], single[0].video_probs_visual.data
        )
        assert np.array_equal(batched[1].tokens_audio.data[b], single[1].tokens_audio.data)
    # a forward without pooling stops at the segment head and leaves the pooled fields out
    for videos in (samples, samples[0]):
        pooled = anchor_forward(videos, params, unimodal_only=switch)
        bare = anchor_forward(videos, params, unimodal_only=switch, pool=False)
        assert np.array_equal(bare.tokens.data, pooled.tokens.data)
        assert np.array_equal(bare.seg_probs.data, pooled.seg_probs.data)
        assert bare.w_temporal is None and bare.w_modality is None and bare.video_probs is None


def test_batched_forward_rejects_videos_of_two_lengths():
    rng = np.random.default_rng(17)
    params = init_branch_params(8, 3, seed=18)
    with pytest.raises(DimensionError, match="share T x D"):
        anchor_forward([make_sample(rng, t=4), make_sample(rng, t=5)], params)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda params: reference_forward([], params), "a forward needs at least one video"),
        (lambda params: anchor_forward([], params), "a forward needs at least one video"),
        (lambda params: BranchParams(8, 3, params.flat[:-1]),
         "parameter vector has shape ({short},), expected ({size},)"),
    ],
    ids=["reference-over-no-videos", "anchor-over-no-videos", "parameter-vector-of-another-size"],
)
def test_a_forward_over_no_videos_and_a_short_parameter_vector_are_rejected(call, message):
    params = init_branch_params(8, 3, seed=19)
    message = message.format(short=params.flat.size - 1, size=params.flat.size)
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        call(params)


def test_from_block_builds_the_samples_the_constructor_builds():
    rng = np.random.default_rng(21)
    b, t, c, d = 5, 4, 3, 8
    audio, visual = rng.normal(size=(2, b, t, d))
    weak = rng.integers(0, 2, (b, c))
    gt_audio, gt_visual = rng.integers(0, 2, (2, b, t, c))
    ids = [f"v{i}" for i in range(b)]
    block = VideoSample.from_block(ids, audio, visual, weak, gt_audio, gt_visual)
    assert block == [
        VideoSample(ids[i], audio[i], visual[i], weak[i], BinaryParse(gt_audio[i], gt_visual[i]))
        for i in range(b)
    ]
    assert VideoSample.from_block(ids, audio, visual, weak)[2] == VideoSample(ids[2], audio[2], visual[2], weak[2])
    nan_audio = audio.copy()
    nan_audio[3, 1, 2] = np.nan
    for args, error, message in [
        ((nan_audio, visual, weak), ValueError, "tokens must be finite"),
        ((audio, visual[:, :, :4], weak), DimensionError, "token matrices must share T x D"),
        ((audio[:4], visual[:4], weak), DimensionError, "token matrices must share T x D"),
        ((audio, visual, weak[:4]), DimensionError, r"weak labels must be 5 x C, got \(4, 3\)"),
        ((audio, visual, weak + 1), ValueError, "weak label must hold only 0 and 1"),
        ((audio, visual, weak, gt_audio[:, :3], gt_visual[:, :3]), DimensionError,
         r"ground truth shape \(3, 3\), expected \(4, 3\)"),
        ((audio, visual, weak, gt_audio, 2 * gt_visual), ValueError, "visual parse must hold only 0 and 1"),
    ]:
        with pytest.raises(error, match=message):
            VideoSample.from_block(ids, *args)


def test_a_bad_video_fails_alone_and_as_a_block_of_one_in_the_same_words():
    """One wording per rule: each bad video of the constructor cases raises the same
    error from `VideoSample(...)` as from `VideoSample.from_block` of that video alone."""
    rng = np.random.default_rng(23)
    audio, visual = rng.normal(size=(2, 4, 8))
    weak = np.array([1, 0, 1])
    gt_audio, gt_visual = rng.integers(0, 2, (2, 4, 3))
    nan_audio = audio.copy()
    nan_audio[1, 2] = np.nan
    for fields in [
        (nan_audio, visual, weak),
        (audio, visual[:, :4], weak),
        (audio, visual, weak + 1),
        (audio, visual, 1),
        (audio, visual, [[0, 1], [1, 0]]),
        (audio, visual, [[0, 1], [1, 0]], gt_audio, gt_visual),
        (audio, visual, weak, gt_audio[:3], gt_visual[:3]),
        (audio, visual, weak, gt_audio, gt_visual[:3]),
        (audio, visual, weak, gt_audio, 2 * gt_visual),
    ]:
        with pytest.raises((TypeError, ValueError)) as alone:
            VideoSample("v", *fields[:3], BinaryParse(*fields[3:]) if fields[3:] else None)
        with pytest.raises((TypeError, ValueError)) as block:
            VideoSample.from_block(["v"], *(np.asarray(field)[None] for field in fields))
        assert (type(block.value), str(block.value)) == (type(alone.value), str(alone.value))


@pytest.mark.parametrize(
    "weak, message",
    [(1, r"weak labels must be C, got \(\)"), ([[0, 1], [1, 0]], r"weak labels must be C, got \(2, 2\)")],
    ids=["scalar", "matrix"],
)
def test_a_video_needs_a_weak_label_of_c_values(weak, message):
    """One video passes the rule a stacked block does: a scalar or C x C weak label is a
    `DimensionError`, with ground truth or without."""
    rng = np.random.default_rng(22)
    audio, visual = rng.normal(size=(2, 3, 4))
    gt = BinaryParse(np.zeros((3, 2)), np.ones((3, 2)))
    for parse in (None, gt):
        with pytest.raises(DimensionError, match=message):
            VideoSample("v", audio, visual, weak, parse)
