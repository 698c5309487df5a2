import itertools
import math

import numpy as np
import pytest

from coleaf import numerics as nm
from coleaf.branches import (
    AnchorOutput,
    ReferenceOutput,
    anchor_forward,
    init_branch_params,
    reference_forward,
)
from coleaf.errors import ConfigError, ContractError, DimensionError
from coleaf.losses import (
    PseudoLabels,
    anchor_modality_video_probs,
    class_correlation,
    cooccurrence_kd,
    distil_pseudo_labels,
    event_aware_nce,
    modality_nce,
    self_modality_kd,
    total_loss,
    unalignment_weights,
    video_loss_anchor,
    video_loss_reference,
)
from coleaf.numerics import Tensor

from oracles import fd_check_params, naive_bce, nce_oracle, sample_coords
from test_branches import make_sample

EPS = 1e-7


def fake_reference_output(video_a, video_v, cls_a=None, cls_v=None, requires_grad=False):
    def t(x):
        return Tensor(np.asarray(x, dtype=float), requires_grad=requires_grad)

    return ReferenceOutput(
        tokens=None,
        seg_probs=None,
        temporal_weights=None,
        video_probs=t([video_a, video_v]),
        cls_probs=None if cls_a is None else t([cls_a, cls_v]),
    )


def test_video_loss_reference_hits_targets():
    y = np.array([1, 0, 1])
    probs = np.clip(y.astype(float), EPS, 1 - EPS)
    ref = fake_reference_output(probs, probs, probs, probs)
    assert video_loss_reference(ref, y).item() == pytest.approx(0.0, abs=1e-5)


def test_video_loss_reference_at_half():
    y = np.array([1, 0])
    half = np.full(2, 0.5)
    ref = fake_reference_output(half, half, half, half)
    assert video_loss_reference(ref, y).item() == pytest.approx(4 * math.log(2), rel=1e-12)


def test_video_loss_reference_matches_per_term_sum():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, 4)
    parts = [rng.uniform(0.05, 0.95, 4) for _ in range(4)]
    ref = fake_reference_output(*parts)
    expected = sum(naive_bce(y, p) for p in parts)
    assert abs(video_loss_reference(ref, y).item() - expected) < 1e-12


def test_video_loss_reference_skips_cls_terms_when_disabled():
    y = np.array([1, 0])
    probs = np.full(2, 0.5)
    ref = fake_reference_output(probs, probs, None, None)
    assert video_loss_reference(ref, y).item() == pytest.approx(2 * math.log(2), rel=1e-12)


def fake_anchor_output(video_probs):
    return AnchorOutput(
        tokens=None,
        seg_probs=None,
        w_temporal=None,
        w_modality=None,
        video_probs=Tensor(np.asarray(video_probs, dtype=float)),
    )


def test_video_loss_anchor_values():
    y = np.array([1, 0, 1])
    hit = np.clip(y.astype(float), EPS, 1 - EPS)
    assert video_loss_anchor(fake_anchor_output(hit), y).item() == pytest.approx(0.0, abs=1e-5)
    half = np.full(3, 0.5)
    assert video_loss_anchor(fake_anchor_output(half), y).item() == pytest.approx(
        math.log(2), rel=1e-12
    )
    rng = np.random.default_rng(1)
    probs = rng.uniform(0.1, 0.9, 3)
    assert abs(video_loss_anchor(fake_anchor_output(probs), y).item() - naive_bce(y, probs)) < 1e-12


def test_distil_pseudo_labels():
    out = distil_pseudo_labels(np.array([0.9, 0.1]), np.array([0.4, 0.6]), 0.5, source="reference")
    assert out.audio.tolist() == [1, 0]
    assert out.visual.tolist() == [0, 1]
    assert out.source == "reference"


def test_distil_threshold_is_strict():
    out = distil_pseudo_labels(np.array([0.5]), np.array([0.5]), 0.5, source="anchor")
    assert out.audio.tolist() == [0]
    assert out.visual.tolist() == [0]


def test_distil_matches_elementwise_comparison():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pa, pv = rng.uniform(0, 1, 5), rng.uniform(0, 1, 5)
        theta = rng.uniform(0.05, 0.95)
        out = distil_pseudo_labels(pa, pv, theta, source="reference")
        assert out.audio.tolist() == [int(x > theta) for x in pa]
        assert out.visual.tolist() == [int(x > theta) for x in pv]


def test_distil_rejects_bad_threshold():
    for theta in (0.0, 1.0, -0.1, 1.3):
        with pytest.raises(ConfigError):
            distil_pseudo_labels(np.array([0.5]), np.array([0.5]), theta, source="anchor")


def test_unalignment_weights_examples():
    w = unalignment_weights(PseudoLabels(np.array([1, 1, 0]), np.array([1, 1, 0]), "reference"))
    assert (w.theta_audio, w.theta_visual) == (0.0, 0.0)

    w = unalignment_weights(PseudoLabels(np.array([1, 1, 0]), np.array([0, 1, 1]), "reference"))
    assert (w.n_audio_only, w.n_visual_only, w.n_audible_visible) == (1, 1, 1)
    assert (w.theta_audio, w.theta_visual) == (0.5, 0.5)

    w = unalignment_weights(PseudoLabels(np.array([1, 0, 1]), np.array([0, 0, 0]), "reference"))
    assert (w.n_audio_only, w.n_audible_visible) == (2, 0)
    assert w.theta_audio == 1.0
    assert w.theta_visual == 0.0  # 0/0 convention


@pytest.mark.parametrize("c", [1, 2, 3, 4])
def test_unalignment_weights_exhaustive_invariants(c):
    for bits_a in itertools.product((0, 1), repeat=c):
        for bits_v in itertools.product((0, 1), repeat=c):
            ga, gv = np.array(bits_a), np.array(bits_v)
            w = unalignment_weights(PseudoLabels(ga, gv, "reference"))
            assert w.n_audio_only + w.n_visual_only + w.n_audible_visible <= c
            assert 0.0 <= w.theta_audio <= 1.0
            assert 0.0 <= w.theta_visual <= 1.0
            if w.n_audio_only == 0:
                assert w.theta_audio == 0.0
            if w.n_audible_visible == 0 and w.n_audio_only > 0:
                assert w.theta_audio == 1.0
            if w.n_visual_only == 0:
                assert w.theta_visual == 0.0
            if w.n_audible_visible == 0 and w.n_visual_only > 0:
                assert w.theta_visual == 1.0


def test_unalignment_weights_requires_reference_source():
    with pytest.raises(ContractError):
        unalignment_weights(PseudoLabels(np.array([1]), np.array([0]), "anchor"))


def _weights(theta_a, theta_v):
    from coleaf.losses import UnalignmentWeights

    return UnalignmentWeights(0, 0, 0, theta_a, theta_v)


def test_nce_zero_weights_give_zero_loss_and_zero_grad():
    rng = np.random.default_rng(3)
    fa = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    fv = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    xa, xv = Tensor(rng.normal(size=(4, 8))), Tensor(rng.normal(size=(4, 8)))
    loss = event_aware_nce(fa, fv, xa, xv, _weights(0.0, 0.0))
    assert loss.item() == 0.0
    grads = nm.backward(loss * 1.0) if loss.requires_grad else {}
    assert fa not in grads and fv not in grads


def test_nce_equal_dot_products_is_zero_at_t2():
    row_f, row_x = np.ones(4), np.full(4, 0.5)
    fa = Tensor(np.stack([row_f, row_f]), requires_grad=True)
    xa = Tensor(np.stack([row_x, row_x]))
    loss = event_aware_nce(fa, fa, xa, xa, _weights(1.0, 1.0), tau=0.3)
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_nce_requires_two_segments():
    single = Tensor(np.ones((1, 4)))
    with pytest.raises(ContractError):
        event_aware_nce(single, single, single, single, _weights(1.0, 1.0))


def test_nce_rejects_bad_temperature():
    x = Tensor(np.ones((3, 4)))
    with pytest.raises(ConfigError):
        event_aware_nce(x, x, x, x, _weights(1.0, 1.0), tau=0.0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: distil_pseudo_labels(np.array([0.9]), np.array([0.1]), 0.5, source="teacher"),
         ConfigError, "unknown pseudo-label source 'teacher'"),
        (lambda: modality_nce(Tensor(np.ones((2, 3, 4))), np.ones((2, 3, 5)), np.ones(2)),
         DimensionError, r"token sets must match, got \(2, 3, 4\) and \(2, 3, 5\)"),
    ],
    ids=["unknown-pseudo-label-source", "nce-token-sets-of-two-shapes"],
)
def test_loss_inputs_outside_their_contract_are_rejected(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_nce_matches_double_loop():
    rng = np.random.default_rng(4)
    fa, fv = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
    xa, xv = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
    thetas = [(1.0, 0.5), (0.7, 0.0), (0.0, 0.4)]
    for (theta_a, theta_v), include in itertools.product(thetas, (False, True)):
        ta, tv = Tensor(fa, requires_grad=True), Tensor(fv, requires_grad=True)
        loss = event_aware_nce(
            ta, tv, Tensor(xa), Tensor(xv),
            _weights(theta_a, theta_v), tau=0.2, include_positive=include,
        )
        want = nce_oracle(fa, fv, xa, xv, theta_a, theta_v, 0.2, include_positive=include)
        assert abs(loss.item() - want) < 1e-10
        # a modality with zero weight receives exactly zero gradient
        grads = nm.backward(loss)
        for tensor, theta in ((ta, theta_a), (tv, theta_v)):
            if theta == 0.0:
                assert not np.any(grads.get(tensor, 0.0))


def test_nce_teacher_tokens_receive_no_gradient():
    rng = np.random.default_rng(5)
    fa = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    xa = Tensor(rng.normal(size=(3, 4)), requires_grad=True)  # teacher side
    loss = event_aware_nce(fa, fa, xa, xa, _weights(1.0, 1.0))
    grads = nm.backward(loss)
    assert fa in grads
    assert xa not in grads


def test_self_modality_kd_source_check():
    ref = fake_reference_output(np.full(2, 0.5), np.full(2, 0.5))
    with pytest.raises(ContractError):
        self_modality_kd(PseudoLabels(np.array([1, 0]), np.array([0, 1]), "reference"), ref)


def test_self_modality_kd_values():
    pseudo = PseudoLabels(np.array([1, 0]), np.array([0, 1]), "anchor")
    saturated = fake_reference_output(
        np.clip([1.0, 0.0], EPS, 1 - EPS), np.clip([0.0, 1.0], EPS, 1 - EPS)
    )
    assert self_modality_kd(pseudo, saturated).item() == pytest.approx(0.0, abs=1e-5)
    half = fake_reference_output(np.full(2, 0.5), np.full(2, 0.5))
    assert self_modality_kd(pseudo, half).item() == pytest.approx(2 * math.log(2), rel=1e-12)
    rng = np.random.default_rng(6)
    pa, pv = rng.uniform(0.1, 0.9, 2), rng.uniform(0.1, 0.9, 2)
    ref = fake_reference_output(pa, pv)
    want = naive_bce(pseudo.audio, pa) + naive_bce(pseudo.visual, pv)
    assert abs(self_modality_kd(pseudo, ref).item() - want) < 1e-12


def test_class_correlation_examples():
    out = class_correlation(Tensor(np.array([1.0, 0.0])))
    assert out.data.tolist() == [[1.0, 0.0], [0.0, 0.0]]
    rng = np.random.default_rng(7)
    p = rng.uniform(0, 1, 4)
    m = class_correlation(Tensor(p)).data
    expected = np.array([[p[i] * p[j] for j in range(4)] for i in range(4)])
    assert np.max(np.abs(m - expected)) < 1e-12
    assert np.allclose(m, m.T)
    assert np.allclose(np.diag(m), p**2)
    eigvals = np.linalg.eigvalsh(m)
    assert np.all(eigvals >= -1e-12)
    assert np.sum(eigvals > 1e-12) <= 1  # rank one


def _anchor_from_arrays(seg_probs, w_temporal):
    return AnchorOutput(
        tokens=None,
        seg_probs=Tensor(seg_probs),
        w_temporal=Tensor(w_temporal),
        w_modality=None,
        video_probs=None,
    )


def test_cooccurrence_kd_identical_probs_is_zero():
    rng = np.random.default_rng(8)
    probs = rng.uniform(0.1, 0.9, 3)
    ref = fake_reference_output(probs, probs)
    seg = np.broadcast_to(probs, (1, 2, 3)).copy()
    anchor = _anchor_from_arrays(seg, np.ones((1, 2, 3)))
    assert cooccurrence_kd(ref, anchor).item() == pytest.approx(0.0, abs=1e-12)


def test_cooccurrence_kd_forced_value():
    ref = fake_reference_output(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    seg = np.zeros((1, 2, 2))
    anchor = _anchor_from_arrays(seg, np.ones((1, 2, 2)))
    # per modality the matrices are [[1,0],[0,0]] vs zeros: MSE 0.25 each
    assert cooccurrence_kd(ref, anchor).item() == pytest.approx(0.5, rel=1e-12)


def test_cooccurrence_kd_matches_elementwise_oracle():
    rng = np.random.default_rng(9)
    ra, rv = rng.uniform(0.1, 0.9, 3), rng.uniform(0.1, 0.9, 3)
    ref = fake_reference_output(ra, rv)
    seg = rng.uniform(0.1, 0.9, (4, 2, 3))
    w = rng.uniform(0.1, 1.0, (4, 2, 3))
    w = w / w.sum(axis=0, keepdims=True)
    anchor = _anchor_from_arrays(seg, w)
    pa = (w[:, 0, :] * seg[:, 0, :]).sum(axis=0)
    pv = (w[:, 1, :] * seg[:, 1, :]).sum(axis=0)
    want = 0.0
    for rp, ap in ((ra, pa), (rv, pv)):
        want += np.mean((np.outer(rp, rp) - np.outer(ap, ap)) ** 2)
    assert abs(cooccurrence_kd(ref, anchor).item() - want) < 1e-12


def test_total_loss_combinations():
    total, bundle = total_loss(1.5, 2.0, 7.0, 8.0, 9.0, lambda_evt=0, lambda_kd=0, lambda_cls=0)
    assert total == pytest.approx(3.5)
    assert bundle.total == pytest.approx(3.5)
    total, bundle = total_loss(1.0, 1.0, 1.0, 1.0, 1.0)
    assert total == pytest.approx(5.0)
    rng = np.random.default_rng(10)
    comps = rng.uniform(0, 2, 5)
    lams = rng.uniform(0, 2, 3)
    total, bundle = total_loss(*comps, lambda_evt=lams[0], lambda_kd=lams[1], lambda_cls=lams[2])
    want = comps[1] + comps[0] + lams[0] * comps[2] + lams[1] * comps[3] + lams[2] * comps[4]
    assert total == pytest.approx(want, rel=1e-12)
    assert bundle.event_contrastive == pytest.approx(comps[2])  # recorded unweighted


def test_total_loss_rejects_negative_lambda():
    with pytest.raises(ConfigError):
        total_loss(1.0, 1.0, 1.0, 1.0, 1.0, lambda_evt=-0.5)


# --- gradient routing through real branch outputs ---------------------------


def _forward_pair(sample, params):
    ref = reference_forward(sample, params)
    anc = anchor_forward(sample, params)
    return ref, anc


def test_losses_pass_finite_difference_checks():
    rng = np.random.default_rng(11)
    sample = make_sample(rng, t=4, c=3, d=8)
    params = init_branch_params(8, 3, seed=20)
    ref0, anc0 = _forward_pair(sample, params)
    pseudo_ref = distil_pseudo_labels(
        ref0.video_probs_audio, ref0.video_probs_visual, 0.5, source="reference"
    )
    weights = unalignment_weights(pseudo_ref)
    pa, pv = anchor_modality_video_probs(anc0)
    pseudo_anchor = distil_pseudo_labels(pa, pv, 0.5, source="anchor")
    if weights.theta_audio == 0.0 and weights.theta_visual == 0.0:
        weights = _weights(1.0, 0.5)

    # teacher-side quantities are frozen at the base point: each loss is
    # checked against the parameters of the branch it trains
    def evt_loss(p):
        anc = anchor_forward(sample, p)
        return event_aware_nce(
            anc.tokens_audio, anc.tokens_visual,
            ref0.tokens_audio[0:4].detach(), ref0.tokens_visual[0:4].detach(),
            weights, tau=0.2,
        )

    builders = {
        "ref_video": ("", lambda p: video_loss_reference(
            reference_forward(sample, p), sample.weak_label)),
        "anchor_video": ("", lambda p: video_loss_anchor(
            anchor_forward(sample, p), sample.weak_label)),
        "event_contrastive": ("anchor.", evt_loss),
        "self_modality_kd": ("reference.", lambda p: self_modality_kd(
            pseudo_anchor, reference_forward(sample, p))),
        "cooccurrence_kd": ("anchor.", lambda p: cooccurrence_kd(
            ref0, anchor_forward(sample, p))),
    }
    for name, (prefix, build) in builders.items():
        coords = sample_coords(rng, params, per_param=1, prefix=prefix)
        fd_check_params(build, params, coords, tol=1e-5)


def test_detached_quantities_block_gradients():
    rng = np.random.default_rng(12)
    sample = make_sample(rng, t=4, c=3, d=8)
    params = init_branch_params(8, 3, seed=21)
    ref, anc = _forward_pair(sample, params)

    # contrastive: anchor side learns, reference side does not
    loss = event_aware_nce(
        anc.tokens_audio, anc.tokens_visual,
        ref.tokens_audio[0:4], ref.tokens_visual[0:4],
        _weights(1.0, 1.0), tau=0.2,
    )
    grads = nm.backward(loss)
    tensors = dict(params.named_parameters())
    assert any(tensors[n] in grads for n in tensors if n.startswith("anchor."))
    assert not any(tensors[n] in grads for n in tensors if n.startswith("reference."))

    # co-occurrence distillation: only the anchor branch learns
    grads = nm.backward(cooccurrence_kd(ref, anc))
    assert any(tensors[n] in grads for n in tensors if n.startswith("anchor."))
    assert not any(tensors[n] in grads for n in tensors if n.startswith("reference."))

    # self-modality distillation: only the reference branch learns
    pa, pv = anchor_modality_video_probs(anc)
    pseudo_anchor = distil_pseudo_labels(pa, pv, 0.5, source="anchor")
    grads = nm.backward(self_modality_kd(pseudo_anchor, ref))
    assert any(tensors[n] in grads for n in tensors if n.startswith("reference."))
    assert not any(tensors[n] in grads for n in tensors if n.startswith("anchor."))
