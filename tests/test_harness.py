import dataclasses
import hashlib
import json
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from coleaf import harness, numerics as nm
from coleaf.branches import (
    anchor_forward,
    init_branch_params,
    instrumentation,
    reference_forward,
)
from coleaf.errors import ConfigError, DivergenceError, FileFormatError
from coleaf.harness import (
    ABLATION_AXES,
    AdamState,
    TrainConfig,
    ablate,
    ablation_table_csv,
    apply_env_seed,
    effective_lr,
    evaluate,
    gt_parses,
    load_params,
    load_predictions,
    load_train_config,
    predict,
    sample_losses,
    save_params,
    train,
    write_predictions,
)
from coleaf.numerics import Tensor
from coleaf.records import VideoSample, field_rules
from coleaf.synthdata import CorpusSpec, GeneratedCorpus, generate_corpus

from oracles import fd_check_params, oracle_backward, sample_coords


DATA_DIR = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"


def desk_corpus(n_videos=24, seed=1, leak=0.3, noise_sigma=0.15, **overrides):
    spec = CorpusSpec(
        n_videos=n_videos, segments=6, classes=4, dim=8, event_rate=2.0,
        leak=leak, noise_sigma=noise_sigma, seed=seed, **overrides,
    )
    return generate_corpus(spec)


def quick_config(**overrides):
    base = dict(epochs=2, batch_size=8, learning_rate=1e-3, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def params_snapshot(params):
    return {name: t.data.copy() for name, t in params.named_parameters()}


def test_zero_lr_and_zero_lambdas_leave_params_unchanged():
    corpus = desk_corpus(n_videos=6)
    cfg = quick_config(epochs=1, learning_rate=0.0, lambda_evt=0, lambda_kd=0, lambda_cls=0)
    params, _ = train(corpus, cfg)
    fresh = init_branch_params(8, 4, cfg.seed)
    for (name_a, ta), (name_b, tb) in zip(params.named_parameters(), fresh.named_parameters()):
        assert name_a == name_b
        assert np.array_equal(ta.data, tb.data)


def test_training_loss_decreases_median_of_seeds():
    spec = CorpusSpec(
        n_videos=200, segments=10, classes=5, dim=16, event_rate=2.5,
        leak=0.3, noise_sigma=0.15, seed=7,
    )
    corpus = generate_corpus(spec)
    drops = []
    for seed in (0, 1, 2):
        cfg = TrainConfig(seed=seed)  # desk defaults: 30 epochs, batch 16, lr 5e-3
        _, log = train(corpus, cfg)
        drops.append(log.epochs[0].losses.total - log.epochs[-1].losses.total)
    assert np.median(drops) > 0


def test_training_is_deterministic():
    corpus = desk_corpus()
    cfg = quick_config(seed=9)
    params_a, log_a = train(corpus, cfg)
    params_b, log_b = train(corpus, cfg)
    assert log_a.to_mapping(include_wall_clock=False) == log_b.to_mapping(include_wall_clock=False)
    for (_, ta), (_, tb) in zip(params_a.named_parameters(), params_b.named_parameters()):
        assert np.array_equal(ta.data, tb.data)
    preds_a = predict(params_a, corpus)
    preds_b = predict(params_b, corpus)
    for vid in preds_a:
        assert np.array_equal(preds_a[vid][0], preds_b[vid][0])
        assert np.array_equal(preds_a[vid][1], preds_b[vid][1])


def test_lr_schedule_is_exact():
    cfg = quick_config(learning_rate=0.8, lr_decay_factor=0.25, lr_decay_every_epochs=2)
    assert effective_lr(cfg, 0) == 0.8
    assert effective_lr(cfg, 1) == 0.8
    assert effective_lr(cfg, 2) == 0.8 * 0.25
    assert effective_lr(cfg, 5) == 0.8 * 0.25**2
    corpus = desk_corpus(n_videos=4)
    _, log = train(corpus, quick_config(epochs=3, lr_decay_factor=0.5, lr_decay_every_epochs=1))
    assert [e.learning_rate for e in log.epochs] == [1e-3, 5e-4, 2.5e-4]


def test_disable_switches_zero_components():
    corpus = desk_corpus(n_videos=4)
    params = init_branch_params(8, 4, 0)
    cfg = quick_config(
        disable_event_contrastive=True,
        disable_self_modality_kd=True,
        disable_cooccurrence_kd=True,
    )
    _, bundle = sample_losses(corpus.samples[0], params, cfg)
    assert bundle.event_contrastive == 0.0
    assert bundle.self_modality_kd == 0.0
    assert bundle.cooccurrence_kd == 0.0
    assert bundle.total == bundle.ref_video + bundle.anchor_video


def test_warmup_epochs_gate_collaborative_losses():
    corpus = desk_corpus(n_videos=4)
    params = init_branch_params(8, 4, 0)
    cfg = quick_config(warmup_epochs=1)
    _, during_warmup = sample_losses(corpus.samples[0], params, cfg, epoch=0)
    _, after_warmup = sample_losses(corpus.samples[0], params, cfg, epoch=1)
    assert during_warmup.event_contrastive == 0.0
    assert during_warmup.self_modality_kd == 0.0
    assert during_warmup.cooccurrence_kd == 0.0
    assert (
        after_warmup.event_contrastive != 0.0
        or after_warmup.self_modality_kd != 0.0
        or after_warmup.cooccurrence_kd != 0.0
    )


@pytest.mark.parametrize(
    "switch, term, branch",
    [("disable_ref_video", "ref_video", "reference."), ("disable_anchor_video", "anchor_video", "anchor.")],
)
def test_a_video_loss_switch_zeros_exactly_its_own_term(switch, term, branch):
    batch = desk_corpus(n_videos=4).samples
    params = init_branch_params(8, 4, 0)
    _, base = sample_losses(batch, params, quick_config())
    _, off = sample_losses(batch, params, quick_config(**{switch: True}))
    for name in ("ref_video", "anchor_video", "event_contrastive", "self_modality_kd", "cooccurrence_kd"):
        if name == term:
            assert getattr(off, name) == 0.0 and np.all(getattr(base, name) > 0)
        else:
            assert np.array_equal(getattr(off, name), getattr(base, name))
    assert np.allclose(off.total, base.total - getattr(base, term), rtol=1e-14, atol=0)
    # with the collaboration terms off as well, only the other branch gets a gradient
    collab_off = dict.fromkeys(
        ("disable_event_contrastive", "disable_self_modality_kd", "disable_cooccurrence_kd"), True
    )
    totals, _ = sample_losses(batch, params, quick_config(**{switch: True}, **collab_off))
    grads = nm.backward(totals.mean())
    trained = {name for name, tensor in params.named_parameters() if np.any(grads.get(tensor, 0.0))}
    assert trained and not any(name.startswith(branch) for name in trained)


def test_a_configuration_that_trains_nothing_is_rejected():
    every = dict.fromkeys(
        (
            "disable_ref_video",
            "disable_anchor_video",
            "disable_event_contrastive",
            "disable_self_modality_kd",
            "disable_cooccurrence_kd",
        ),
        True,
    )
    with pytest.raises(ConfigError, match="every loss term is disabled"):
        TrainConfig(**every).validate()
    with pytest.raises(ConfigError, match="every loss term is disabled"):
        train(desk_corpus(n_videos=4), quick_config(**every))
    for name in every:  # any one term left on trains
        TrainConfig(**{**every, name: False}).validate()
    video_off = dict(disable_ref_video=True, disable_anchor_video=True)
    with pytest.raises(ConfigError, match="warmup_epochs 3 >= epochs 3"):
        TrainConfig(epochs=3, warmup_epochs=3, **video_off).validate()
    TrainConfig(epochs=3, warmup_epochs=2, **video_off).validate()
    TrainConfig(epochs=3, warmup_epochs=3, disable_ref_video=True).validate()


def test_divergence_aborts_with_step_index():
    corpus = desk_corpus(n_videos=4)
    huge = corpus.samples[0]
    blown = VideoSample(
        id=huge.id,
        audio_tokens=np.full_like(huge.audio_tokens, 1e200),
        visual_tokens=huge.visual_tokens,
        weak_label=huge.weak_label,
        gt=huge.gt,
    )
    corpus = GeneratedCorpus([blown], None, None, None)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            train(corpus, quick_config(epochs=1, batch_size=1))
    assert err.value.step == 0


BATCH_CASES = {
    "default": {},
    **{axis: {axis: True} for axis in ABLATION_AXES},
    "include_positive_in_nce": {"include_positive_in_nce": True},
    "warm-up-epoch": {"warmup_epochs": 1},  # epoch 0 is in the warm-up
    # no class clears 0.99 at initialisation, so every unalignment weight is 0
    "all-theta-zero": {"pseudo_threshold": 0.99},
    # here 6 of the 16 videos have both weights 0
    "some-theta-zero": {"pseudo_threshold": 0.48},
    # 17 videos in batches of 16 leave a last batch of one
    "last-partial-batch": {},
}


@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_batched_step_equals_mean_of_sample_losses(case):
    cfg = quick_config(**BATCH_CASES[case])
    params = init_branch_params(8, 4, 3)
    samples = desk_corpus(n_videos=17, seed=4).samples
    batch = samples[16:] if case == "last-partial-batch" else samples[:16]
    totals, bundle = sample_losses(batch, params, cfg)
    loss = totals.mean()
    grad = params.flat_grad(nm.backward(loss))
    want_loss, want_grad, want_rows = 0.0, np.zeros_like(grad), []
    for sample in batch:
        total, one = sample_losses(sample, params, cfg)
        want_loss += total.item() / len(batch)
        want_grad += params.flat_grad(nm.backward(total)) / len(batch)
        want_rows.append([getattr(one, f.name) for f in dataclasses.fields(one)])
    assert abs(loss.item() - want_loss) < 1e-10
    assert np.max(np.abs(grad - want_grad)) < 1e-10
    for i, field in enumerate(dataclasses.fields(bundle)):
        got = np.broadcast_to(getattr(bundle, field.name), (len(batch),))
        assert np.max(np.abs(got - np.array(want_rows)[:, i])) < 1e-10, field.name
    if case == "all-theta-zero":
        assert not np.any(bundle.event_contrastive)
    if case == "some-theta-zero":
        assert 0 < np.count_nonzero(bundle.event_contrastive) < len(batch)


def test_batched_objective_passes_finite_differences():
    samples = desk_corpus(n_videos=3, seed=6).samples
    params = init_branch_params(8, 4, 7)
    rng = np.random.default_rng(8)

    def objective(cfg, epoch):
        return lambda p: sample_losses(samples, p, cfg, epoch)[0].mean()

    # after warm-up the teacher side is constant, so only anchor coordinates
    # see the whole objective's gradient; during warm-up every loss is a
    # plain function of both branches
    fd_check_params(objective(quick_config(), 0), params,
                    sample_coords(rng, params, per_param=1, prefix="anchor."))
    fd_check_params(objective(quick_config(warmup_epochs=1), 0), params,
                    sample_coords(rng, params, per_param=1))


def test_training_with_the_two_pass_walk_gives_the_same_bits(monkeypatch):
    corpus = generate_corpus(CorpusSpec(n_videos=40, seed=2))  # desk shape: T 10, C 5, D 16
    cfg = TrainConfig(epochs=2, seed=3)
    params, log = train(corpus, cfg)
    monkeypatch.setattr(nm, "backward", oracle_backward)
    want_params, want_log = train(corpus, cfg)
    assert np.array_equal(params.flat, want_params.flat)
    assert log.to_mapping(include_wall_clock=False) == want_log.to_mapping(include_wall_clock=False)


def test_sample_losses_builds_only_graph_nodes_that_backward_reaches(monkeypatch):
    """The anchor pseudo-labels and `cooccurrence_kd` share one per-modality pooling, 2
    nodes fewer than when each built its own. The forwards read each stacked group's
    parameter as it is stored, 9 stack nodes fewer than when they stacked one parameter
    per problem; `unimodal_only` takes the self-attention rows of the anchor's three
    projections, 3 slice nodes. So a default-config batch builds 92 grad-tracking
    tensors and a unimodal one 95, and every one of them gets a gradient."""
    samples, params = desk_corpus(n_videos=16).samples, init_branch_params(8, 4, 0)
    init = vars(Tensor)["__init__"]

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.requires_grad:
            built.append(self)

    for config, count in ((TrainConfig(), 92), (TrainConfig(unimodal_only=True), 95)):
        built = []
        monkeypatch.setattr(Tensor, "__init__", counting_init)
        totals, _ = sample_losses(samples, params, config)
        monkeypatch.undo()
        grads = nm.backward(totals.mean())
        assert len(built) == count
        assert all(tensor in grads for tensor in built)


def _mixed_corpus(change, n_videos=4, odd_index=2, seed=1):
    """A spec-less corpus whose video `odd_index` has one T, D or C more or less."""
    samples = desk_corpus(n_videos=n_videos, seed=seed).samples
    odd = samples[odd_index]
    tokens, label = odd.audio_tokens, odd.weak_label
    if change == "T":
        tokens = tokens[:-1]
    elif change == "D":
        tokens = tokens[:, :-1]
    else:
        label = np.append(label, 0)
    samples[odd_index] = VideoSample(odd.id, tokens, tokens.copy(), label)
    return GeneratedCorpus(samples, None, None, None)


@pytest.mark.parametrize("change", ["T", "D", "C"])
def test_train_and_predict_reject_a_corpus_of_two_shapes(change, monkeypatch):
    corpus = _mixed_corpus(change)
    steps = []
    monkeypatch.setattr(AdamState, "step", lambda *args: steps.append(args))
    message = f"video {corpus.samples[2].id} has T x D .* the corpus says T=6, D=8, C=4"
    with pytest.raises(ConfigError, match=message):
        train(corpus, quick_config())
    assert steps == []
    # with blocks of one video no forward sees two shapes; the corpus check does
    monkeypatch.setattr(harness, "PREDICT_BLOCK_VIDEOS", 1)
    instrumentation.reset()
    with pytest.raises(ConfigError, match=message):
        predict(init_branch_params(8, 4, 5), corpus)
    assert instrumentation.anchor_forward_calls == 0


@pytest.mark.parametrize("branch", ["anchor", "reference"])
def test_predict_equals_per_video_forwards(branch, monkeypatch):
    corpus = desk_corpus(n_videos=5)
    params = init_branch_params(8, 4, 5)
    monkeypatch.setattr(harness, "PREDICT_BLOCK_VIDEOS", 2)  # blocks of 2, 2 and 1
    preds = predict(params, corpus, branch=branch)
    assert list(preds) == [s.id for s in corpus.samples]
    for sample in corpus.samples:
        if branch == "anchor":
            want = np.swapaxes(anchor_forward(sample, params).seg_probs.data, 0, 1)
        else:
            want = reference_forward(sample, params).seg_probs.data
        for got, one in zip(preds[sample.id], want):
            assert got.shape == one.shape and np.max(np.abs(got - one)) < 1e-12


def test_predict_holds_one_blocks_graph_at_a_time(monkeypatch):
    corpus = desk_corpus(n_videos=5)
    params = init_branch_params(8, 4, 5)
    outputs = []

    def forward(*args, **kwargs):
        assert all(out() is None for out in outputs), "an earlier block's graph is still alive"
        out = anchor_forward(*args, **kwargs)
        outputs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(harness, "PREDICT_BLOCK_VIDEOS", 2)  # blocks of 2, 2 and 1
    monkeypatch.setattr(harness, "anchor_forward", forward)
    assert len(predict(params, corpus)) == 5
    assert len(outputs) == 3


def test_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        train(GeneratedCorpus([], None, None, None), quick_config())


def test_predict_branches_differ_after_training():
    corpus = desk_corpus(n_videos=16, leak=0.4)
    params, _ = train(corpus, quick_config(epochs=3))
    anchor_preds = predict(params, corpus, branch="anchor")
    ref_preds = predict(params, corpus, branch="reference")
    vid = corpus.samples[0].id
    assert not np.allclose(anchor_preds[vid][0], ref_preds[vid][0])


def test_predict_untrained_is_reproducible():
    corpus = desk_corpus(n_videos=4)
    a = predict(init_branch_params(8, 4, 5), corpus)
    b = predict(init_branch_params(8, 4, 5), corpus)
    for vid in a:
        assert np.array_equal(a[vid][0], b[vid][0])


def test_predictions_round_trip(tmp_path):
    corpus = desk_corpus(n_videos=3)
    preds = predict(init_branch_params(8, 4, 5), corpus)
    path = tmp_path / "preds.jsonl"
    write_predictions(preds, path)
    loaded = load_predictions(path)
    assert set(loaded) == set(preds)
    for vid in preds:
        assert np.array_equal(loaded[vid][0], preds[vid][0])


def test_failed_write_leaves_the_previous_file(tmp_path):
    path = tmp_path / "preds.jsonl"
    probs = np.full((2, 2), 0.25), np.full((2, 2), 0.75)
    write_predictions({"old": probs}, path)
    before = path.read_bytes()
    # "b" cannot be encoded, after "a" has been written
    bad = {"a": probs, "b": (np.array([[object()]]), np.zeros((1, 1))), "c": probs}
    with pytest.raises(TypeError):
        write_predictions(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["preds.jsonl"]
    missing = tmp_path / "no-such-dir" / "preds.jsonl"
    with pytest.raises(FileNotFoundError) as err:
        write_predictions({"old": probs}, missing)
    assert err.value.filename == str(missing)


@pytest.mark.parametrize(
    "probs_audio, probs_visual, message",
    [
        ([[math.nan, 0.5]], [[0.5, 0.5]], "outside [0,1]"),
        ([[0.5, 0.5]], [[2.0, 0.5]], "outside [0,1]"),
        ([[0.5, -0.1]], [[0.5, 0.5]], "outside [0,1]"),
        ([[0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]], "T x C"),
        ([0.5, 0.5], [0.5, 0.5], "T x C"),
        ([[0.5, 0.5], [0.5]], [[0.5, 0.5], [0.5, 0.5]], ":2:"),
    ],
    ids=["nan", "above-one", "negative", "shapes-differ", "one-dimensional", "ragged"],
)
def test_load_predictions_rejects_bad_probabilities(tmp_path, probs_audio, probs_visual, message):
    path = tmp_path / "preds.jsonl"
    good = {"id": "a", "probs_audio": [[0.1, 0.9]], "probs_visual": [[0.0, 1.0]]}
    bad = {"id": "b", "probs_audio": probs_audio, "probs_visual": probs_visual}
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(FileFormatError) as err:
        load_predictions(path)
    assert f"{path}:2:" in str(err.value)
    assert message in str(err.value)


def test_load_predictions_rejects_a_line_that_is_not_an_object(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text("5\n")
    with pytest.raises(FileFormatError) as err:
        load_predictions(path)
    assert f"{path}:1:" in str(err.value)


@pytest.mark.parametrize(
    "new_id, message",
    [("a", "repeats line 1"), (["a"], "must be a string"), (None, "must be a string")],
    ids=["repeated", "list", "null"],
)
def test_load_predictions_rejects_a_bad_id(tmp_path, new_id, message):
    path = tmp_path / "preds.jsonl"
    rows = [{"id": vid, "probs_audio": [[0.1, 0.9]], "probs_visual": [[0.0, 1.0]]} for vid in ("a", new_id)]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(FileFormatError) as err:
        load_predictions(path)
    assert f"{path}:2:" in str(err.value)
    assert message in str(err.value)


def test_params_round_trip(tmp_path):
    params = init_branch_params(8, 4, 5)
    path = tmp_path / "params.json"
    save_params(params, path)
    loaded = load_params(path)
    for (name_a, ta), (name_b, tb) in zip(params.named_parameters(), loaded.named_parameters()):
        assert name_a == name_b
        assert np.array_equal(ta.data, tb.data)
    # every value a float64 payload of its member's shape, with no number left as text
    values = json.loads(path.read_text())["values"]
    assert {name: (v["dtype"], tuple(v["shape"])) for name, v in values.items()} == {
        name: ("<f8", view.shape) for name, view in params.members
    }
    # Written by save_params(init_branch_params(2, 2, 5)) when the parameters
    # still lived in nested per-layer records and were saved as nested lists:
    # it loads to the same values, and saved again as payloads it loads to
    # them once more.
    expected = init_branch_params(2, 2, 5)
    loaded = load_params(DATA_DIR / "params_d2_c2_seed5.json")
    assert np.array_equal(loaded.flat, expected.flat)
    assert [name for name, _ in loaded.named_parameters()] == [name for name, _ in expected.named_parameters()]
    save_params(loaded, tmp_path / "again.json")
    assert all(isinstance(v, dict) for v in json.loads((tmp_path / "again.json").read_text())["values"].values())
    assert np.array_equal(load_params(tmp_path / "again.json").flat, expected.flat)


def test_saved_parameters_keep_the_bytes_of_one_array_per_problem(tmp_path):
    """`save_params(init_branch_params(3, 2, 7))` as written when each problem's array was a
    parameter of its own, before the stacked groups became the stored parameters."""
    path = tmp_path / "params.json"
    save_params(init_branch_params(3, 2, 7), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "3fd9bb529c1ba586ac279364b280e4f37c85cd05c2ea4405a5a1d1ec47e2db3d"


def test_load_params_checks_every_value_before_it_allocates(tmp_path):
    """A file that claims D = 10**9, with the right names and one-element values, is refused
    for a value's shape before any D x D parameter is allocated."""
    payload = json.loads((DATA_DIR / "params_d2_c2_seed5.json").read_text())
    payload["dim"] = 10**9
    payload["values"] = {name: [0.0] for name in payload["values"]}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(payload))
    message = "parameter reference.attn_audio.wq has shape (1,), expected (1000000000, 1000000000)"
    with pytest.raises(FileFormatError, match=f"^{re.escape(f'{path}:1: {message}')}$"):
        load_params(path)


def test_load_params_rejects_wrong_shape(tmp_path):
    payload = json.loads((DATA_DIR / "params_d2_c2_seed5.json").read_text())
    payload["values"]["anchor.classifier.bias"] = [0.0]
    path = tmp_path / "params.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(FileFormatError) as err:
        load_params(path)
    message = str(err.value)
    assert "anchor.classifier.bias" in message and "(1,)" in message and "(2,)" in message
    payload["values"]["anchor.classifier.bias"] = [[0.0], 1.0]  # ragged
    path.write_text(json.dumps(payload))
    with pytest.raises(FileFormatError, match="anchor.classifier.bias"):
        load_params(path)
    payload["dim"] = "2"
    path.write_text(json.dumps(payload))
    with pytest.raises(FileFormatError, match="dim"):
        load_params(path)


def test_adam_step_updates_the_parameter_views_in_place():
    params = init_branch_params(8, 4, 0)
    tensors = dict(params.named_parameters())
    before = params.flat.copy()
    total, _ = sample_losses(desk_corpus(n_videos=1).samples[0], params, quick_config())
    AdamState().step(params, nm.backward(total), 1e-3)
    assert not np.array_equal(params.flat, before)
    for name, tensor in params.named_parameters():
        assert tensor is tensors[name]
        assert np.shares_memory(tensor.data, params.flat)


def test_evaluate_produces_report():
    corpus = desk_corpus(n_videos=6)
    preds = predict(init_branch_params(8, 4, 5), corpus)
    report = evaluate(preds, corpus, threshold=0.5)
    assert set(report.segment.as_dict()) == {
        "A", "Ao", "V", "Vo", "AV", "Type@AV", "Type@AVo", "Event@AV", "Event@AVo",
    }


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "# training settings\n"
        "epochs = 3\n"
        "batch_size = 4\n"
        "learning_rate = 0.002\n"
        "unimodal_only = true\n"
        "eval_threshold = 0.3,0.7\n"
        "seed = 12\n"
    )
    cfg = load_train_config(path)
    assert cfg.epochs == 3
    assert cfg.unimodal_only is True
    assert cfg.eval_threshold == (0.3, 0.7)
    assert cfg.seed == 12


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("epochs = 3\nlearning_rte = 0.1\n")
    with pytest.raises(ConfigError) as err:
        load_train_config(path)
    assert "learning_rte" in str(err.value)


@pytest.mark.parametrize("line, message", [
    ("batch_size = x", "batch_size must be an integer, got 'x'"),
    ("epochs = 3.5", "epochs must be an integer, got '3.5'"),
    ("unimodal_only = maybe", "unimodal_only must be true or false, got 'maybe'"),
    ("learning_rte = 0.1", "unknown config key learning_rte"),
    ("learning_rate = fast", "learning_rate must be a number, got 'fast'"),
    ("seed = 2", "seed repeats line 1"),
    ("epochs 3", "expected 'key = value', got 'epochs 3'"),
], ids=["batch_size = x", "epochs = 3.5", "unimodal_only = maybe", "learning_rte = 0.1",
        "learning_rate = fast", "seed = 2", "epochs 3"])
def test_config_bad_entry_names_line(tmp_path, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(f"seed = 1\n{line}\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
        load_train_config(path)


def test_config_file_may_start_with_a_bom(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfepochs = 3\nseed = 12\n")
    assert load_train_config(path) == TrainConfig(epochs=3, seed=12)


@pytest.mark.parametrize("raw, line_no", [
    (b"epochs = 3\n# caf\xe9\nseed = 12\n", 2),
    (b"\xef\xbb\xbfepochs = 3\r\nseed = 1\xff2\r\n", 2),
    (b"\xe9pochs = 3\n", 1),
], ids=["latin-1 comment", "bom and crlf", "first byte"])
def test_config_bytes_that_are_not_utf8_name_their_line(tmp_path, raw, line_no):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{path}:{line_no}: not UTF-8 text')}$"):
        load_train_config(path)


def test_readme_config_block_names_every_field(tmp_path):
    text = README.read_text()
    intro = text.index("Every `TrainConfig` field is nameable")
    start = text.index("```\n", intro) + 4
    block = text[start : text.index("```", start)]
    keys = [line.partition("=")[0].strip() for line in block.splitlines() if "=" in line]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(TrainConfig))
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    assert load_train_config(path) == TrainConfig()


@pytest.mark.parametrize("header, cls, row_name", [
    ("| `TrainConfig` field |", TrainConfig, lambda name: name),
    ("| `gen-data` flag |", CorpusSpec, lambda name: "--" + name.replace("_", "-")),
])
def test_readme_rule_tables_match_the_annotations(header, cls, row_name):
    lines = README.read_text().splitlines()
    rows = {}
    start = next(i for i, line in enumerate(lines) if line.startswith(header)) + 2  # past |---|
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, kind, rule = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        rows[name] = (kind, rule)
    rules = field_rules(cls)
    assert rows == {row_name(n): (kind.__name__, rule) for n, (kind, rule, _) in rules.items() if rule}
    assert all(kind is bool for kind, rule, _ in rules.values() if not rule)


def test_config_validation_bounds():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(eval_threshold=1.5).validate()
    with pytest.raises(ConfigError):
        TrainConfig.from_mapping({"eval_threshold": "1.5"})
    with pytest.raises(ConfigError):
        TrainConfig.from_mapping({"eval_threshold": "0.3,nan"})
    for threshold in (10**400, (0.5, 10**400)):
        with pytest.raises(ConfigError, match="thresholds must lie strictly inside"):
            TrainConfig(eval_threshold=threshold).validate()
    with pytest.raises(ConfigError):
        TrainConfig.from_mapping({"epochs": "3.5"})
    with pytest.raises(ConfigError):
        TrainConfig(lr_decay_factor=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(pseudo_threshold=1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(lambda_evt=-1.0).validate()


@pytest.mark.parametrize("field, value, message", [
    ("adam_beta1", 1.0, r"adam_beta1 must be in \[0,1\), got 1.0"),
    ("adam_beta1", -0.1, r"adam_beta1 must be in \[0,1\), got -0.1"),
    ("adam_beta2", 1.0, r"adam_beta2 must be in \[0,1\), got 1.0"),
    ("adam_beta2", math.nan, r"adam_beta2 must be in \[0,1\), got nan"),
    ("adam_eps", 0.0, "adam_eps must be positive, got 0.0"),
    ("adam_eps", -1e-8, "adam_eps must be positive, got -1e-08"),
    ("adam_eps", math.nan, "adam_eps must be positive, got nan"),
    ("seed", -1, "seed must be >= 0, got -1"),
])
def test_config_rejects_bad_adam_settings_and_a_negative_seed(field, value, message):
    with pytest.raises(ConfigError, match=message):
        TrainConfig(**{field: value}).validate()
    with pytest.raises(ConfigError, match=message):
        TrainConfig.from_mapping({field: str(value)})


def test_config_accepts_the_edges_of_the_adam_ranges():
    TrainConfig(adam_beta1=0.0, adam_beta2=0.0, adam_eps=1e-300, seed=0).validate()


@pytest.mark.parametrize("field, value, message", [
    ("learning_rate", math.nan, "learning_rate must be >= 0, got nan"),
    ("learning_rate", math.inf, "learning_rate must be finite, got inf"),
    ("nce_temperature", math.inf, "nce_temperature must be finite, got inf"),
    ("lambda_evt", math.inf, "lambda_evt must be finite, got inf"),
    ("adam_eps", math.inf, "adam_eps must be finite, got inf"),
    pytest.param("lambda_kd", math.nan, "lambda_kd must be >= 0, got nan", id="lambda_kd-nan-lambda_kd must be >= 0"),
    pytest.param("learning_rate", 10**400, "learning_rate must be finite, got inf", id="learning_rate-int-too-large"),
])
def test_config_rejects_non_finite_settings(field, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        TrainConfig(**{field: value}).validate()
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        TrainConfig.from_mapping({field: str(value)})


@pytest.mark.parametrize("field, value, message", [
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("batch_size", 2.5, "batch_size must be an integer, got 2.5"),
    ("epochs", 1.5, "epochs must be an integer, got 1.5"),
    ("epochs", True, "epochs must be an integer, got True"),
    ("unimodal_only", "no", "unimodal_only must be true or false, got 'no'"),
    ("disable_class_tokens", 1, "disable_class_tokens must be true or false, got 1"),
    ("learning_rate", "0.1", "learning_rate must be a number, got '0.1'"),
    ("lambda_kd", False, "lambda_kd must be a number, got False"),
])
def test_config_fields_must_have_their_types(field, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        TrainConfig(**{field: value}).validate()
    if field in ("seed", "batch_size", "epochs"):  # the bare TypeError this used to end in
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            train(desk_corpus(n_videos=4), quick_config(**{field: value}))


def test_config_takes_numpy_numbers_and_ints_for_floats():
    TrainConfig(
        seed=np.int64(3), epochs=np.int32(2), learning_rate=1, lambda_kd=np.float32(0.5),
        unimodal_only=np.bool_(True),
    ).validate()


def test_env_seed_override(monkeypatch):
    cfg = quick_config(seed=3)
    monkeypatch.setenv("COLEAF_SEED", "99")
    assert apply_env_seed(cfg).seed == 99
    monkeypatch.delenv("COLEAF_SEED")
    assert apply_env_seed(cfg).seed == 3
    monkeypatch.setenv("COLEAF_SEED", "not-a-number")
    with pytest.raises(ConfigError):
        apply_env_seed(cfg)


def test_ablate_no_axes_is_single_base_row():
    corpus = desk_corpus(n_videos=15)
    rows = ablate(corpus, quick_config(epochs=1), axes=[])
    assert len(rows) == 1
    assert rows[0].label == "base"
    assert set(rows[0].rates) == {"A", "V", "AV"}


def test_ablate_axis_produces_on_off_rows():
    corpus = desk_corpus(n_videos=15)
    eval_corpus = desk_corpus(n_videos=6, seed=2)
    rows = ablate(corpus, quick_config(epochs=1), ["unimodal_only"], eval_corpus=eval_corpus)
    assert [row.label for row in rows] == ["unimodal_only=off", "unimodal_only=on"]
    for row in rows:
        for event_type in ("A", "V", "AV"):
            assert set(row.rates[event_type]) == {"TP", "TN", "FP", "FN"}
    csv_text = ablation_table_csv(rows)
    lines = csv_text.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("variant,seg_Ao,seg_Vo,seg_AV")
    assert "AV_TP" in lines[0]


def test_ablate_loss_axis_rows_match_table_shape():
    corpus = desk_corpus(n_videos=15)
    eval_corpus = desk_corpus(n_videos=6, seed=2)
    rows = ablate(
        corpus, quick_config(epochs=1), ["disable_event_contrastive"], eval_corpus=eval_corpus
    )
    assert [row.label for row in rows] == [
        "disable_event_contrastive=off",
        "disable_event_contrastive=on",
    ]
    for row in rows:
        seg = row.report.segment.as_dict()
        assert {"Ao", "Vo", "AV"} <= set(seg)


def test_ablate_unknown_axis():
    corpus = desk_corpus(n_videos=10)
    with pytest.raises(ConfigError):
        ablate(corpus, quick_config(), ["definitely_not_an_axis"])


def test_fullscale_preset_values():
    cfg = TrainConfig.fullscale()
    assert cfg.learning_rate == 5e-4
    assert cfg.batch_size == 128
    assert cfg.epochs == 15
    assert cfg.lr_decay_factor == 0.25
    assert cfg.lr_decay_every_epochs == 6


@pytest.mark.parametrize("bad", [math.nan, math.inf, 2.0, -0.1], ids=["nan", "inf", "two", "negative"])
def test_evaluate_rejects_probabilities_outside_the_unit_interval(bad):
    corpus = desk_corpus(n_videos=3)
    preds = predict(init_branch_params(8, 4, 5), corpus)
    preds[corpus.samples[1].id][1][0, 0] = bad
    with pytest.raises(ValueError, match=r"visual probabilities .* outside \[0,1\]"):
        evaluate(preds, corpus)


def test_a_read_and_scored_corpus_runs_each_record_rule_once_per_block(tmp_path, monkeypatch):
    """Loading two blocks' worth of videos builds no `VideoSample` or `BinaryParse` one at a
    time, and the probability rule runs once per block in the reader and in the report."""
    from coleaf import metrics, records, synthdata

    n_videos = records.SCORE_BLOCK_VIDEOS + 10
    corpus = desk_corpus(n_videos=n_videos)
    preds = predict(init_branch_params(8, 4, 5), corpus)
    corpus_path, preds_path = tmp_path / "corpus.jsonl", tmp_path / "preds.jsonl"
    synthdata.save_corpus(corpus, corpus_path)
    write_predictions(preds, preds_path)
    calls = {"records": 0, "pairs": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in (records.VideoSample, records.BinaryParse):
        monkeypatch.setattr(cls, "__post_init__", counted("records", cls.__post_init__))
    for module in (harness, metrics):
        monkeypatch.setattr(module, "probability_pair", counted("pairs", records.probability_pair))
    loaded = synthdata.load_corpus(corpus_path)
    read_back = load_predictions(preds_path)
    assert calls == {"records": 0, "pairs": 2}
    report = evaluate(read_back, loaded)
    assert calls == {"records": 0, "pairs": 4}
    monkeypatch.undo()
    assert loaded == corpus
    assert report.as_dict() == evaluate(preds, corpus).as_dict()


def test_load_predictions_skips_blank_lines(tmp_path):
    path = tmp_path / "preds.jsonl"
    rows = [{"id": vid, "probs_audio": [[0.1, 0.9]], "probs_visual": [[0.0, 1.0]]} for vid in "ab"]
    path.write_text(json.dumps(rows[0]) + "\n\n   \n" + json.dumps(rows[1]) + "\n")
    assert list(load_predictions(path)) == ["a", "b"]


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"id": "b", "probs_audio": [[0.5, 0.5]],', ":2: Expecting"),
        ('{"id": "b", "probs_audio": [[0.5, 0.5]]}', ":2: missing key probs_visual"),
        ('{"probs_audio": [[0.5, 0.5]], "probs_visual": [[0.5, 0.5]]}', ":2: missing key id"),
    ],
    ids=["bad-json", "missing-probs", "missing-id"],
)
def test_load_predictions_rejects_a_malformed_line(tmp_path, line, message):
    path = tmp_path / "preds.jsonl"
    good = {"id": "a", "probs_audio": [[0.1, 0.9]], "probs_visual": [[0.0, 1.0]]}
    path.write_text(json.dumps(good) + "\n" + line + "\n")
    with pytest.raises(FileFormatError) as err:
        load_predictions(path)
    assert f"{path}{message}" in str(err.value)


@pytest.mark.parametrize(
    "edit, message",
    [
        ("bad-json", ":1: Expecting"),
        ("missing-key", ":1: missing key n_classes"),
        (
            "name-mismatch",
            ":1: parameter names do not match (missing ['anchor.classifier.bias'], "
            "extra ['anchor.bias'])",
        ),
        ("infinite", ":1: parameter anchor.classifier.bias: values must be finite"),
        ("number", ":1: expected a JSON object"),
        ("values-number", ":1: values must be an object"),
        ("values-list", ":1: values must be an object"),
        ("int-too-large", ":1: parameter anchor.classifier.bias: int too large to convert to float"),
        ("bad-base64", ":1: payload b64 is not base64: "),
        ("big-endian", ":1: payload dtype must be '<f8', got '>f8'; "),
        ("byte-count", ":1: payload holds 8 bytes, shape [2] of float64 needs 16"),
        ("too-many-axes", f":1: payload shape {[1] * 70} does not fit an array: "),
    ],
    ids=[
        "bad-json", "missing-key", "name-mismatch", "infinite", "number", "values-number", "values-list",
        "int-too-large", "bad-base64", "big-endian", "byte-count", "too-many-axes",
    ],
)
def test_load_params_rejects_a_malformed_file(tmp_path, edit, message):
    payload = json.loads((DATA_DIR / "params_d2_c2_seed5.json").read_text())
    values = payload["values"]
    if edit == "missing-key":
        del payload["n_classes"]
    elif edit == "name-mismatch":
        values["anchor.bias"] = values.pop("anchor.classifier.bias")
    elif edit == "infinite":
        values["anchor.classifier.bias"] = [math.inf, 0.0]  # written as Infinity
    elif edit == "number":
        payload = 5
    elif edit == "values-number":
        payload["values"] = 3
    elif edit == "values-list":
        payload["values"] = [[1]]
    elif edit == "int-too-large":
        values["anchor.classifier.bias"] = [10**400, 0.0]
    elif edit in ("bad-base64", "big-endian", "byte-count"):
        # one value's payload, the rest nested lists as in the fixture
        b64 = {"bad-base64": "AAAA*AAA", "byte-count": "AAAAAAAA8D8="}.get(edit, "AAAAAAAA8D8AAAAAAAAAAA==")
        dtype = ">f8" if edit == "big-endian" else "<f8"
        values["anchor.classifier.bias"] = {"dtype": dtype, "shape": [2], "b64": b64}
    elif edit == "too-many-axes":  # more axes than numpy allows, each of length 1
        values["anchor.classifier.bias"] = {"dtype": "<f8", "shape": [1] * 70, "b64": "AAAAAAAAAAA="}
    path = tmp_path / "params.json"
    path.write_text("{" if edit == "bad-json" else json.dumps(payload))
    with pytest.raises(FileFormatError) as err:
        load_params(path)
    assert f"{path}{message}" in str(err.value)


def test_gt_parses_needs_ground_truth_on_every_video():
    corpus = desk_corpus(n_videos=3)
    corpus.samples[1] = dataclasses.replace(corpus.samples[1], gt=None)
    with pytest.raises(ConfigError, match=f"video {corpus.samples[1].id} has no segment ground truth"):
        gt_parses(corpus)


def test_predict_rejects_an_unknown_branch():
    with pytest.raises(ConfigError, match="unknown branch 'both'"):
        predict(init_branch_params(8, 4, 5), desk_corpus(n_videos=2), branch="both")


def test_predict_rejects_unimodal_only_on_the_reference_branch():
    with pytest.raises(ConfigError, match="^unimodal_only applies to the anchor branch only"):
        predict(init_branch_params(8, 4, 5), desk_corpus(n_videos=2), branch="reference", unimodal_only=True)


def test_per_class_eval_threshold_reads_back_from_the_train_log():
    config = quick_config(epochs=1, eval_threshold=(0.3, 0.5, 0.6, 0.7))
    _, log = train(desk_corpus(n_videos=4), config)
    mapping = log.to_mapping(include_wall_clock=False)
    # trainlog.json holds exactly what the in-memory log maps to
    assert json.loads(json.dumps(mapping)) == mapping
    assert TrainConfig.from_mapping(mapping["config"]) == config


def test_a_per_class_eval_threshold_of_the_wrong_length_fails_before_the_first_step(monkeypatch):
    steps = []
    monkeypatch.setattr(AdamState, "step", lambda *args: steps.append(args))
    config = quick_config(epochs=1, eval_threshold=(0.3, 0.5, 0.7))  # the corpora have C=4
    message = r"one value per class, got shape \(3,\)"
    with pytest.raises(ConfigError, match=message):
        train(desk_corpus(n_videos=16), config, eval_corpus=desk_corpus(n_videos=4, seed=2))
    with pytest.raises(ConfigError, match=message):
        ablate(desk_corpus(n_videos=16), config, ["unimodal_only"])
    # an evaluation corpus that is empty or of another C or D than the training one
    # (C=4, D=8), or whose first video has the training C and a later one not
    config = quick_config(epochs=1)
    for eval_corpus, message in [
        (generate_corpus(CorpusSpec(n_videos=0, segments=6, classes=4, dim=8)),
         "evaluation corpus is empty"),
        (generate_corpus(CorpusSpec(n_videos=4, segments=6, classes=5, dim=8)),
         "evaluation corpus has C=5, D=8"),
        (generate_corpus(CorpusSpec(n_videos=4, segments=6, classes=4, dim=6)),
         "evaluation corpus has C=4, D=6"),
        (_mixed_corpus("C", n_videos=6, odd_index=5, seed=2),
         r"video vid00005 has T x D \(6, 8\) and C 5, the corpus says T=6, D=8, C=4"),
    ]:
        with pytest.raises(ConfigError, match=message):
            train(desk_corpus(n_videos=16), config, eval_corpus=eval_corpus)
        with pytest.raises(ConfigError, match=message):
            ablate(desk_corpus(n_videos=16), config, ["unimodal_only"], eval_corpus=eval_corpus)
    assert steps == []


def test_an_evaluation_video_without_ground_truth_fails_before_the_first_step(monkeypatch):
    steps = []
    train_step = harness._train_step
    monkeypatch.setattr(harness, "_train_step", lambda *args: steps.append(1) or train_step(*args))
    eval_corpus = desk_corpus(n_videos=4, seed=2)
    eval_corpus.samples[2] = dataclasses.replace(eval_corpus.samples[2], gt=None)
    message = f"video {eval_corpus.samples[2].id} has no segment ground truth"
    with pytest.raises(ConfigError, match=message):
        train(desk_corpus(n_videos=16), quick_config(epochs=1), eval_corpus=eval_corpus)
    with pytest.raises(ConfigError, match=message):
        ablate(desk_corpus(n_videos=16), quick_config(epochs=1), ["unimodal_only"], eval_corpus=eval_corpus)
    assert steps == []


def test_train_builds_the_evaluation_ground_truth_once(monkeypatch):
    """`train` scores each epoch on the parses it checked before the first step, and each
    report is the one `evaluate` gives for the epoch's predictions."""
    calls, build = [], harness.gt_parses
    monkeypatch.setattr(harness, "gt_parses", lambda corpus: calls.append(1) or build(corpus))
    eval_corpus = desk_corpus(n_videos=4, seed=2)
    params, log = train(desk_corpus(n_videos=16), quick_config(epochs=4), eval_corpus=eval_corpus)
    assert len(calls) == 1
    final = evaluate(predict(params, eval_corpus), eval_corpus, quick_config().eval_threshold)
    assert log.epochs[-1].metrics.as_dict() == final.as_dict()


def test_ablate_trains_each_distinct_configuration_once(monkeypatch):
    configs = []

    def counting_train(corpus, config, **kwargs):
        configs.append(config)
        return train(corpus, config, **kwargs)

    monkeypatch.setattr(harness, "train", counting_train)
    axes = ["unimodal_only", "disable_event_contrastive"]
    rows = ablate(
        desk_corpus(n_videos=15), quick_config(epochs=1), axes, eval_corpus=desk_corpus(n_videos=6, seed=2)
    )
    assert [row.label for row in rows] == [
        "unimodal_only=off", "unimodal_only=on",
        "disable_event_contrastive=off", "disable_event_contrastive=on",
    ]
    assert len(configs) == 3
    assert rows[0].report.as_dict() == rows[2].report.as_dict()
