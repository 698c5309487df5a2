"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The two training-based criteria dominate the runtime (a few minutes
total on CPU).
"""
import itertools
import time

import numpy as np

from coleaf import numerics as nm
from coleaf.branches import (
    VideoSample,
    anchor_forward,
    init_branch_params,
    instrumentation,
    reference_forward,
)
from coleaf.harness import (
    TrainConfig,
    ablate,
    evaluate,
    gt_parses,
    predict,
    split_corpus,
    train,
)
from coleaf.losses import (
    PseudoLabels,
    UnalignmentWeights,
    anchor_modality_video_probs,
    cooccurrence_kd,
    distil_pseudo_labels,
    event_aware_nce,
    self_modality_kd,
    total_loss,
    unalignment_weights,
    video_loss_anchor,
    video_loss_reference,
)
from coleaf.metrics import BinaryParse, MetricConfig, full_report, segment_counts
from coleaf.numerics import Tensor
from coleaf.synthdata import CorpusSpec, generate_corpus, load_corpus, save_corpus

from oracles import oracle_full_report, relative_error


def _random_sample(rng, t=4, c=3, d=8):
    return VideoSample(
        id="sample",
        audio_tokens=rng.uniform(-2, 2, (t, d)),
        visual_tokens=rng.uniform(-2, 2, (t, d)),
        weak_label=rng.integers(0, 2, c),
    )


def _random_coords(rng, params, prefix, n):
    eligible = [(name, t.data.size) for name, t in params.named_parameters() if name.startswith(prefix)]
    total = sum(size for _, size in eligible)
    coords = []
    for flat in rng.choice(total, size=min(n, total), replace=False):
        offset = int(flat)
        for name, size in eligible:
            if offset < size:
                coords.append((name, offset))
                break
            offset -= size
    return coords


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    h, tol = 1e-5, 1e-5
    worst = 0.0
    for config_index in range(20):
        rng = np.random.default_rng(1000 + config_index)
        sample = _random_sample(rng)
        params = init_branch_params(8, 3, seed=2000 + config_index)
        t = sample.n_segments

        ref0 = reference_forward(sample, params)
        anc0 = anchor_forward(sample, params)
        weights = unalignment_weights(
            distil_pseudo_labels(
                ref0.video_probs_audio, ref0.video_probs_visual, 0.5, source="reference"
            )
        )
        if weights.theta_audio == 0.0 and weights.theta_visual == 0.0:
            weights = UnalignmentWeights(1, 1, 1, 0.5, 0.5)
        pa, pv = anchor_modality_video_probs(anc0)
        pseudo_anchor = distil_pseudo_labels(pa, pv, 0.5, source="anchor")
        teacher_a = ref0.tokens_audio[0:t].detach()
        teacher_v = ref0.tokens_visual[0:t].detach()

        def evt_loss(p):
            anc = anchor_forward(sample, p)
            return event_aware_nce(
                anc.tokens_audio, anc.tokens_visual, teacher_a, teacher_v, weights, tau=0.2
            )

        losses = {
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
        for name, (prefix, build) in losses.items():
            loss = build(params)
            grads = nm.backward(loss)
            by_name = dict(params.named_parameters())
            for coord_name, flat in _random_coords(rng, params, prefix, 8):
                tensor = by_name[coord_name]
                grad = grads.get(tensor)
                g_ad = 0.0 if grad is None else float(grad.reshape(-1)[flat])
                base = float(tensor.data.reshape(-1)[flat])

                def eval_at(value):
                    data = tensor.data.reshape(-1)  # a view into params.flat
                    data[flat] = value
                    out = build(params).item()
                    data[flat] = base
                    return out

                g_fd = (eval_at(base + h) - eval_at(base - h)) / (2 * h)
                err = relative_error(g_ad, g_fd)
                worst = max(worst, err)
                assert err <= tol, f"{name} d{coord_name}[{flat}]: ad={g_ad} fd={g_fd} err={err:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: all five losses match finite differences "
          f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_mmil_invariants():
    violations = 0
    for trial in range(100):
        rng = np.random.default_rng(3000 + trial)
        params = init_branch_params(8, 3, seed=4000 + trial)
        out = anchor_forward(_random_sample(rng, t=5), params)
        assert np.max(np.abs(out.w_temporal.data.sum(axis=0) - 1.0)) <= 1e-9
        assert np.max(np.abs(out.w_modality.data.sum(axis=1) - 1.0)) <= 1e-9
        lo = out.seg_probs.data.min(axis=(0, 1))
        hi = out.seg_probs.data.max(axis=(0, 1))
        if np.any(out.video_probs.data < lo - 1e-12) or np.any(out.video_probs.data > hi + 1e-12):
            violations += 1
    assert violations == 0
    print("\nACCEPTANCE 2 PASS: pooling weights normalized and video probabilities "
          "stay inside [min, max] on 100 random forwards")


def test_criterion_3_unalignment_weight_semantics():
    c = 4
    for bits_a in itertools.product((0, 1), repeat=c):
        for bits_v in itertools.product((0, 1), repeat=c):
            pseudo = PseudoLabels(np.array(bits_a), np.array(bits_v), "reference")
            w = unalignment_weights(pseudo)
            assert 0.0 <= w.theta_audio <= 1.0 and 0.0 <= w.theta_visual <= 1.0
            if w.n_audio_only == 0:  # no event, or everything audible-visible
                assert w.theta_audio == 0.0
            if w.n_audible_visible == 0 and w.n_audio_only > 0:
                assert w.theta_audio == 1.0
            if w.n_audio_only + w.n_audible_visible == 0:
                assert w.theta_audio == 0.0  # 0/0 convention
            if w.n_visual_only == 0:
                assert w.theta_visual == 0.0
            if w.n_audible_visible == 0 and w.n_visual_only > 0:
                assert w.theta_visual == 1.0
    print("\nACCEPTANCE 3 PASS: unalignment weights verified exhaustively over "
          "all 256 pseudo-label pairs at C=4")


def test_criterion_4_metric_oracle_equivalence():
    rng = np.random.default_rng(5000)
    for corpus_index in range(200):
        n_videos = int(rng.integers(1, 6))
        t = int(rng.integers(1, 11))
        c = int(rng.integers(1, 6))
        agg = "micro" if corpus_index % 2 == 0 else "per-video-mean"
        preds, gts, o_preds, o_gts = {}, {}, {}, {}
        for i in range(n_videos):
            vid = f"v{i}"
            pa, pv = rng.integers(0, 2, (t, c)), rng.integers(0, 2, (t, c))
            ga, gv = rng.integers(0, 2, (t, c)), rng.integers(0, 2, (t, c))
            preds[vid] = BinaryParse(pa, pv)
            gts[vid] = BinaryParse(ga, gv)
            o_preds[vid], o_gts[vid] = (pa, pv), (ga, gv)
        report = full_report(preds, gts, config=MetricConfig(aggregation=agg))
        oracle = oracle_full_report(o_preds, o_gts, aggregation=agg)
        assert report.segment.as_dict() == oracle["segment"]
        assert report.event.as_dict() == oracle["event"]

    # the divergence scenario: an audible-visible prediction for an
    # audible-only event scores as a raw-audio hit but not as audible-only
    pred = BinaryParse(np.array([[1]]), np.array([[1]]))
    gt = BinaryParse(np.array([[1]]), np.array([[0]]))
    assert segment_counts(pred.audio, gt.audio) == (1, 0, 0)  # A: TP
    from coleaf.metrics import derive_exclusive

    pe, ge = derive_exclusive(pred), derive_exclusive(gt)
    assert segment_counts(pe.audio_only, ge.audio_only) == (0, 0, 1)  # Ao: FN
    assert segment_counts(pe.audible_visible, ge.audible_visible) == (0, 1, 0)  # AV: FP
    print("\nACCEPTANCE 4 PASS: full_report equals brute-force recomputation on "
          "200 random corpora and reproduces the A-vs-Ao divergence")


def test_criterion_5_detachment_and_zero_grad():
    rng = np.random.default_rng(6000)
    sample = _random_sample(rng)
    params = init_branch_params(8, 3, seed=6001)
    t = sample.n_segments
    tensors = dict(params.named_parameters())
    anchor_tensors = {v for k, v in tensors.items() if k.startswith("anchor.")}
    reference_tensors = {v for k, v in tensors.items() if k.startswith("reference.")}

    ref = reference_forward(sample, params)
    anc = anchor_forward(sample, params)

    # zero unalignment weights: the contrastive term adds nothing to any
    # anchor gradient, bit for bit
    zero_w = UnalignmentWeights(0, 0, 0, 0.0, 0.0)
    evt = event_aware_nce(
        anc.tokens_audio, anc.tokens_visual,
        ref.tokens_audio[0:t], ref.tokens_visual[0:t], zero_w,
    )
    assert evt.item() == 0.0 and not evt.requires_grad
    base_grads = nm.backward(video_loss_anchor(anc, sample.weak_label))
    total, _ = total_loss(0.0, video_loss_anchor(anc, sample.weak_label), evt, 0.0, 0.0)
    with_evt_grads = nm.backward(total)
    for tensor in anchor_tensors:
        a = base_grads.get(tensor)
        b = with_evt_grads.get(tensor)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b)

    # live contrastive loss: gradients reach only the anchor branch, and
    # perturbing the detached teacher leaves that fact unchanged
    live_w = UnalignmentWeights(1, 1, 1, 0.7, 0.4)
    loss = event_aware_nce(
        anc.tokens_audio, anc.tokens_visual,
        ref.tokens_audio[0:t], ref.tokens_visual[0:t], live_w,
    )
    grads = nm.backward(loss)
    assert any(tensor in grads for tensor in anchor_tensors)
    assert not any(tensor in grads for tensor in reference_tensors)
    shifted_teacher_a = ref.tokens_audio[0:t].detach() + Tensor(np.full((t, 8), 0.01))
    loss_shifted = event_aware_nce(
        anc.tokens_audio, anc.tokens_visual,
        shifted_teacher_a, ref.tokens_visual[0:t], live_w,
    )
    grads_shifted = nm.backward(loss_shifted)
    assert not any(tensor in grads_shifted for tensor in reference_tensors)

    # pseudo-labels are step constants: a sub-threshold teacher perturbation
    # leaves the student gradient bit-identical
    pa, pv = anchor_modality_video_probs(anc)
    pseudo = distil_pseudo_labels(pa, pv, 0.5, source="anchor")
    margin = np.min(np.abs(np.concatenate([pa.data, pv.data]) - 0.5))
    eps = min(1e-6, margin / 4)
    nudged = distil_pseudo_labels(
        Tensor(pa.data + eps), Tensor(pv.data - eps), 0.5, source="anchor"
    )
    g1 = nm.backward(self_modality_kd(pseudo, ref))
    g2 = nm.backward(self_modality_kd(nudged, ref))
    assert not any(tensor in g1 for tensor in anchor_tensors)
    for tensor in reference_tensors:
        a, b = g1.get(tensor), g2.get(tensor)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b)

    # correlation distillation trains the anchor only
    g3 = nm.backward(cooccurrence_kd(ref, anc))
    assert any(tensor in g3 for tensor in anchor_tensors)
    assert not any(tensor in g3 for tensor in reference_tensors)
    print("\nACCEPTANCE 5 PASS: teacher-side quantities carry no gradient and "
          "zero weights contribute exactly nothing")


def test_criterion_6_no_inference_overhead():
    spec = CorpusSpec(n_videos=12, segments=6, classes=4, dim=8, event_rate=2.0,
                      leak=0.3, noise_sigma=0.15, seed=42)
    corpus = generate_corpus(spec)
    params, _ = train(corpus, TrainConfig(epochs=1, batch_size=6, seed=0))
    instrumentation.reset()
    preds = predict(params, corpus, branch="anchor")
    assert len(preds) == 12
    assert instrumentation.reference_forward_calls == 0
    assert instrumentation.class_token_reads == 0
    assert instrumentation.anchor_forward_calls == 12
    print("\nACCEPTANCE 6 PASS: anchor prediction path runs zero reference-branch "
          "forwards and zero class-token reads")


def _chance_type_avo(eval_corpus, threshold=0.5, draws=3, seed=0):
    rng = np.random.default_rng(seed)
    gts = gt_parses(eval_corpus)
    scores = []
    t = eval_corpus.samples[0].n_segments
    c = eval_corpus.samples[0].n_classes
    for _ in range(draws):
        preds = {s.id: (rng.uniform(0, 1, (t, c)), rng.uniform(0, 1, (t, c)))
                 for s in eval_corpus.samples}
        scores.append(full_report(preds, gts, thresholds=threshold).segment.type_at_avo)
    return float(np.median(scores))


def test_criterion_7_end_to_end_learning_signal():
    start = time.perf_counter()
    spec = CorpusSpec(n_videos=600, segments=10, classes=5, dim=16, event_rate=2.5,
                      p_audio_only=0.3, p_visual_only=0.3, p_audible_visible=0.4,
                      leak=0.3, noise_sigma=0.15, seed=100)
    corpus = generate_corpus(spec)
    train_corpus, eval_corpus = split_corpus(corpus, eval_fraction=100 / 600)
    assert len(train_corpus.samples) == 500

    chance = _chance_type_avo(eval_corpus)
    baseline_overrides = dict(
        disable_event_contrastive=True,
        disable_self_modality_kd=True,
        disable_cooccurrence_kd=True,
    )
    full_scores, margins = [], []
    for seed in (0, 1, 2):
        full_params, _ = train(train_corpus, TrainConfig(seed=seed))
        full_rep = evaluate(predict(full_params, eval_corpus), eval_corpus, 0.5)
        base_params, _ = train(train_corpus, TrainConfig(seed=seed, **baseline_overrides))
        base_rep = evaluate(predict(base_params, eval_corpus), eval_corpus, 0.5)
        full_scores.append(full_rep.segment.type_at_avo)
        margins.append(
            (full_rep.segment.ao + full_rep.segment.vo) / 2
            - (base_rep.segment.ao + base_rep.segment.vo) / 2
        )
    elapsed = time.perf_counter() - start
    full_median = float(np.median(full_scores))
    margin_median = float(np.median(margins))
    assert full_median >= chance + 15.0, (
        f"Type@AVo median {full_median:.2f} vs chance {chance:.2f}"
    )
    assert margin_median > 0.0, f"mean(Ao,Vo) margin median {margin_median:.2f}"
    assert elapsed < 600.0, f"criterion 7 took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 7 PASS: Type@AVo median {full_median:.1f} vs chance "
          f"{chance:.1f} (margin {full_median - chance:.1f} >= 15); full beats "
          f"anchor-only on mean(Ao,Vo) by {margin_median:.1f} ({elapsed:.0f}s)")


def test_criterion_8_unimodal_vs_crossmodal_study():
    spec = CorpusSpec(n_videos=260, segments=10, classes=5, dim=16, event_rate=2.5,
                      leak=0.3, noise_sigma=0.15, seed=100)
    corpus = generate_corpus(spec)
    train_corpus, eval_corpus = split_corpus(corpus, eval_fraction=60 / 260)
    uni_tp, cross_tp = [], []
    for seed in (0, 1, 2):
        rows = ablate(train_corpus, TrainConfig(seed=seed), ["unimodal_only"],
                      eval_corpus=eval_corpus)
        assert [r.label for r in rows] == ["unimodal_only=off", "unimodal_only=on"]
        for row in rows:
            assert set(row.rates) == {"A", "V", "AV"}
            for event_type in ("A", "V", "AV"):
                assert set(row.rates[event_type]) == {"TP", "TN", "FP", "FN"}
        cross_tp.append(rows[0].rates["AV"]["TP"])
        uni_tp.append(rows[1].rates["AV"]["TP"])
    uni_median = float(np.median(uni_tp))
    cross_median = float(np.median(cross_tp))
    assert uni_median <= cross_median, f"uni {uni_median:.2f} vs cross {cross_median:.2f}"
    print(f"\nACCEPTANCE 8 PASS: confusion-rate table emitted per event type; "
          f"unimodal AV-TP {uni_median:.1f} <= cross-modal {cross_median:.1f} "
          f"(median of 3 seeds)")


def test_criterion_9_determinism_and_round_trip(tmp_path):
    spec = CorpusSpec(n_videos=24, segments=6, classes=4, dim=8, event_rate=2.0,
                      leak=0.3, noise_sigma=0.15, seed=9)
    corpus_a = generate_corpus(spec)
    corpus_b = generate_corpus(spec)
    assert corpus_a == corpus_b

    cfg = TrainConfig(epochs=2, batch_size=8, seed=4)
    train_c, eval_c = split_corpus(corpus_a, eval_fraction=0.25)
    params_a, log_a = train(train_c, cfg, eval_corpus=eval_c)
    params_b, log_b = train(train_c, cfg, eval_corpus=eval_c)
    assert log_a.to_mapping(include_wall_clock=False) == log_b.to_mapping(include_wall_clock=False)

    preds_a = predict(params_a, eval_c)
    preds_b = predict(params_b, eval_c)
    for vid in preds_a:
        assert np.array_equal(preds_a[vid][0], preds_b[vid][0])
        assert np.array_equal(preds_a[vid][1], preds_b[vid][1])
    report_a = evaluate(preds_a, eval_c, 0.5)
    report_b = evaluate(preds_b, eval_c, 0.5)
    assert report_a.to_text() == report_b.to_text()

    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus_a, path)
    assert load_corpus(path) == corpus_a
    again = tmp_path / "again.jsonl"
    save_corpus(load_corpus(path), again)
    assert path.read_bytes() == again.read_bytes()

    from coleaf.harness import load_params, save_params, load_predictions, write_predictions

    ppath = tmp_path / "params.json"
    save_params(params_a, ppath)
    loaded = load_params(ppath)
    for (na, ta), (nb, tb) in zip(params_a.named_parameters(), loaded.named_parameters()):
        assert na == nb and np.array_equal(ta.data, tb.data)
    prpath = tmp_path / "preds.jsonl"
    write_predictions(preds_a, prpath)
    reloaded = load_predictions(prpath)
    for vid in preds_a:
        assert np.array_equal(reloaded[vid][0], preds_a[vid][0])
    print("\nACCEPTANCE 9 PASS: seeded corpus, training log, predictions and "
          "reports are bit-reproducible; serialize/load round-trips are identity")
