import json

import numpy as np

from coleaf.cli import main


def run_cli(*argv):
    return main(list(argv))


def gen_corpus(tmp_path, name, n_videos=12, seed=1, segments=6):
    path = tmp_path / name
    status = run_cli(
        "gen-data", "--out", str(path),
        "--n-videos", str(n_videos), "--segments", str(segments), "--classes", "4", "--dim", "8",
        "--event-rate", "2.0", "--leak", "0.3", "--noise-sigma", "0.15",
        "--seed", str(seed),
    )
    assert status == 0
    return path


def test_full_pipeline(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, "train.jsonl")
    eval_corpus = gen_corpus(tmp_path, "eval.jsonl", n_videos=6, seed=2)
    out_dir = tmp_path / "run"
    config = tmp_path / "train.cfg"
    config.write_text("epochs = 2\nbatch_size = 4\nseed = 5\n")
    assert run_cli("train", "--corpus", str(corpus), "--config", str(config), "--out", str(out_dir)) == 0
    assert (out_dir / "params.json").exists()
    assert (out_dir / "trainlog.json").exists()
    preds = tmp_path / "preds.jsonl"
    assert run_cli(
        "predict", "--params", str(out_dir / "params.json"),
        "--corpus", str(eval_corpus), "--out", str(preds),
    ) == 0
    report = tmp_path / "report.txt"
    assert run_cli(
        "eval", "--pred", str(preds), "--gt", str(eval_corpus),
        "--threshold", "0.5", "--out", str(report),
    ) == 0
    text = report.read_text()
    captured = capsys.readouterr()
    assert text in captured.out
    # all nine metrics at both levels
    assert len(text.strip().splitlines()) == 18
    for key in ("segment.A ", "segment.Ao ", "event.Event@AVo "):
        assert any(line.startswith(key.strip()) for line in text.splitlines())


def test_eval_with_per_class_thresholds(tmp_path):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=4)
    out_dir = tmp_path / "run"
    assert run_cli(
        "train", "--corpus", str(corpus), "--seed", "3", "--out", str(out_dir),
        "--config", str(write_config(tmp_path, "epochs = 1\nbatch_size = 4\n")),
    ) == 0
    preds = tmp_path / "p.jsonl"
    assert run_cli(
        "predict", "--params", str(out_dir / "params.json"),
        "--corpus", str(corpus), "--out", str(preds),
    ) == 0
    assert run_cli(
        "eval", "--pred", str(preds), "--gt", str(corpus),
        "--threshold", "0.3,0.5,0.6,0.7",
    ) == 0


def write_config(tmp_path, text):
    path = tmp_path / "cfg.cfg"
    path.write_text(text)
    return path


def test_train_missing_corpus_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    status = run_cli("train", "--corpus", str(missing), "--out", str(tmp_path / "run"))
    assert status == 2
    assert str(missing) in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    assert run_cli("train", "--corpus", "x.jsonl", "--out", "y", "--frobnicate") == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    assert run_cli("transmogrify") == 1
    assert "usage" in capsys.readouterr().err


def test_bad_threshold_is_usage_error(tmp_path, capsys):
    status = run_cli("eval", "--pred", "p.jsonl", "--gt", "g.jsonl", "--threshold", "1.5")
    assert status == 1
    assert "error" in capsys.readouterr().err


def test_out_of_range_config_threshold_exits_2_before_training(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=4)
    cfg = write_config(tmp_path, "epochs = 1\nbatch_size = 4\neval_threshold = 1.5\n")
    out_dir = tmp_path / "run"
    status = run_cli("train", "--corpus", str(corpus), "--config", str(cfg), "--out", str(out_dir))
    assert status == 2
    assert "threshold" in capsys.readouterr().err
    assert not out_dir.exists()


def test_single_segment_corpus_exits_2_before_training(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=4, segments=1)
    out_dir = tmp_path / "run"
    # a warm-up epoch would run before the first contrastive step
    cfg = write_config(tmp_path, "epochs = 2\nwarmup_epochs = 1\nbatch_size = 4\n")
    status = run_cli("train", "--corpus", str(corpus), "--config", str(cfg), "--out", str(out_dir))
    assert status == 2
    assert "disable_event_contrastive" in capsys.readouterr().err
    assert not (out_dir / "params.json").exists()


def test_single_segment_corpus_trains_without_event_contrastive(tmp_path):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=4, segments=1)
    out_dir = tmp_path / "run"
    cfg = write_config(
        tmp_path, "epochs = 1\nbatch_size = 4\ndisable_event_contrastive = true\n"
    )
    status = run_cli("train", "--corpus", str(corpus), "--config", str(cfg), "--out", str(out_dir))
    assert status == 0
    assert (out_dir / "params.json").exists()


def test_predict_with_wrong_shaped_params_exits_2(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=2)
    out_dir = tmp_path / "run"
    assert run_cli(
        "train", "--corpus", str(corpus), "--seed", "3", "--out", str(out_dir),
        "--config", str(write_config(tmp_path, "epochs = 1\nbatch_size = 2\n")),
    ) == 0
    params_path = out_dir / "params.json"
    payload = json.loads(params_path.read_text())
    payload["values"]["anchor.classifier.bias"] = [0.0]
    params_path.write_text(json.dumps(payload))
    preds = tmp_path / "p.jsonl"
    status = run_cli("predict", "--params", str(params_path), "--corpus", str(corpus), "--out", str(preds))
    assert status == 2
    assert "anchor.classifier.bias" in capsys.readouterr().err
    assert not preds.exists()


def test_eval_of_out_of_range_predictions_exits_2(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=2)
    preds = tmp_path / "p.jsonl"
    rows = [
        {"id": "vid00000", "probs_audio": [[0.5] * 4] * 6, "probs_visual": [[0.5] * 4] * 6},
        {"id": "vid00001", "probs_audio": [[float("nan")] * 4] * 6, "probs_visual": [[2.0] * 4] * 6},
    ]
    preds.write_text("".join(json.dumps(row) + "\n" for row in rows))
    status = run_cli("eval", "--pred", str(preds), "--gt", str(corpus))
    assert status == 2
    assert ":2:" in capsys.readouterr().err


def test_malformed_corpus_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("this is not json\n")
    status = run_cli("train", "--corpus", str(bad), "--out", str(tmp_path / "run"))
    assert status == 2
    assert ":1:" in capsys.readouterr().err


def test_env_seed_overrides_config(tmp_path, monkeypatch):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=6)
    cfg = write_config(tmp_path, "epochs = 1\nbatch_size = 4\nseed = 1\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    monkeypatch.setenv("COLEAF_SEED", "42")
    assert run_cli("train", "--corpus", str(corpus), "--config", str(cfg), "--out", str(out_a)) == 0
    monkeypatch.delenv("COLEAF_SEED")
    assert run_cli("train", "--corpus", str(corpus), "--config", str(cfg), "--out", str(out_b)) == 0
    cfg42 = write_config(tmp_path, "epochs = 1\nbatch_size = 4\nseed = 42\n")
    assert run_cli("train", "--corpus", str(corpus), "--config", str(cfg42), "--out", str(out_c)) == 0
    params_a = json.loads((out_a / "params.json").read_text())
    params_b = json.loads((out_b / "params.json").read_text())
    params_c = json.loads((out_c / "params.json").read_text())
    assert params_a == params_c
    assert params_a != params_b


def test_ablate_writes_csv(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=10)
    eval_corpus = gen_corpus(tmp_path, "e.jsonl", n_videos=5, seed=9)
    out = tmp_path / "table.csv"
    cfg = write_config(tmp_path, "epochs = 1\nbatch_size = 4\n")
    status = run_cli(
        "ablate", "--corpus", str(corpus), "--eval-corpus", str(eval_corpus),
        "--config", str(cfg), "--axes", "unimodal_only", "--out", str(out),
    )
    assert status == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("unimodal_only=off,")
    assert lines[2].startswith("unimodal_only=on,")


def test_gen_data_defaults_are_the_corpus_spec_defaults(tmp_path):
    from coleaf.synthdata import CorpusSpec

    path = tmp_path / "x.jsonl"
    assert run_cli("gen-data", "--out", str(path)) == 0
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
    assert header["spec"] == CorpusSpec().to_mapping()


def test_gen_data_with_held_out_split(tmp_path):
    train_path = tmp_path / "tr.jsonl"
    eval_path = tmp_path / "ev.jsonl"
    status = run_cli(
        "gen-data", "--out", str(train_path), "--eval-out", str(eval_path),
        "--n-videos", "10", "--eval-videos", "4", "--seed", "3",
        "--segments", "5", "--classes", "3", "--dim", "6",
    )
    assert status == 0
    from coleaf.synthdata import load_corpus

    train_c = load_corpus(train_path)
    eval_c = load_corpus(eval_path)
    assert train_c.n_videos == 10
    assert eval_c.n_videos == 4
    assert np.array_equal(train_c.prototypes_audio, eval_c.prototypes_audio)
    train_ids = {s.id for s in train_c.samples}
    assert all(s.id not in train_ids for s in eval_c.samples)


def test_predict_reference_branch(tmp_path):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=4)
    out_dir = tmp_path / "run"
    cfg = write_config(tmp_path, "epochs = 1\nbatch_size = 4\n")
    assert run_cli("train", "--corpus", str(corpus), "--config", str(cfg), "--out", str(out_dir)) == 0
    preds = tmp_path / "ref.jsonl"
    assert run_cli(
        "predict", "--params", str(out_dir / "params.json"),
        "--corpus", str(corpus), "--branch", "reference", "--out", str(preds),
    ) == 0
    first = json.loads(preds.read_text().splitlines()[0])
    assert {"id", "probs_audio", "probs_visual"} <= set(first)
    assert np.asarray(first["probs_audio"]).shape == (6, 4)


def _corpus_of_two_lengths():
    from coleaf.branches import VideoSample
    from coleaf.synthdata import CorpusSpec, GeneratedCorpus, generate_corpus

    spec = CorpusSpec(n_videos=4, segments=6, classes=4, dim=8, seed=1)
    samples = generate_corpus(spec).samples
    short = samples[1]
    samples[1] = VideoSample(
        short.id, short.audio_tokens[:-1], short.visual_tokens[:-1], short.weak_label
    )
    return GeneratedCorpus(samples, None, None, None)


def test_train_and_predict_of_a_corpus_of_two_lengths_exit_2(tmp_path, capsys, monkeypatch):
    # a corpus file cannot hold two T, so the corpus is built in memory
    corpus = _corpus_of_two_lengths()
    monkeypatch.setattr("coleaf.cli.load_corpus", lambda path: corpus)
    out_dir = tmp_path / "run"
    assert run_cli("train", "--corpus", "mixed.jsonl", "--out", str(out_dir)) == 2
    assert f"video {corpus.samples[1].id} has T x D" in capsys.readouterr().err
    assert not out_dir.exists()
    params = tmp_path / "params.json"
    from coleaf.branches import init_branch_params
    from coleaf.harness import save_params

    save_params(init_branch_params(8, 4, 0), params)
    preds = tmp_path / "p.jsonl"
    status = run_cli(
        "predict", "--params", str(params), "--corpus", "mixed.jsonl", "--out", str(preds)
    )
    assert status == 2
    assert f"video {corpus.samples[1].id} has T x D" in capsys.readouterr().err
    assert not preds.exists()
