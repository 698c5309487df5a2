import errno
import json
import os

import numpy as np
import pytest

from coleaf.cli import main
from coleaf.fileio import parse_record, write_json_lines


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


def _number_lists(value, where="$"):
    """The paths of the lists in decoded JSON `value` that hold a number, payload objects
    left out; a bool is not a number here."""
    if isinstance(value, dict):
        if value.keys() == {"dtype", "shape", "b64"}:
            return []
        return [path for k, v in value.items() for path in _number_lists(v, f"{where}.{k}")]
    if isinstance(value, list):
        found = [where] if any(type(v) in (int, float) for v in value) else []
        return found + [path for i, v in enumerate(value) for path in _number_lists(v, f"{where}[{i}]")]
    return []


def test_no_written_file_holds_an_array_as_nested_lists(tmp_path):
    """The README quick start, small: every array in the corpora, params.json and the
    predictions is a payload object."""
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    assert run_cli(
        "gen-data", "--out", str(train), "--eval-out", str(test),
        "--n-videos", "6", "--eval-videos", "3", "--leak", "0.3", "--noise-sigma", "0.15", "--seed", "1",
    ) == 0
    run = tmp_path / "run"
    config = write_config(tmp_path, "epochs = 1\nbatch_size = 2\n")
    assert run_cli("train", "--corpus", str(train), "--config", str(config), "--out", str(run)) == 0
    preds = tmp_path / "preds.jsonl"
    assert run_cli("predict", "--params", str(run / "params.json"), "--corpus", str(test), "--out", str(preds)) == 0
    for path in (train, test, run / "params.json", preds):
        lines = path.read_text().splitlines()
        assert lines
        for line_no, line in enumerate(lines, start=1):
            assert _number_lists(json.loads(line)) == [], f"{path.name}:{line_no}"


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


def _trained(tmp_path, corpus):
    out_dir = tmp_path / "run"
    assert run_cli(
        "train", "--corpus", str(corpus), "--seed", "3", "--out", str(out_dir),
        "--config", str(write_config(tmp_path, "epochs = 1\nbatch_size = 2\n")),
    ) == 0
    return out_dir / "params.json"


def test_predict_to_a_missing_directory_exits_2(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=2)
    params = _trained(tmp_path, corpus)
    capsys.readouterr()
    out = tmp_path / "missing-dir" / "p.jsonl"
    status = run_cli("predict", "--params", str(params), "--corpus", str(corpus), "--out", str(out))
    assert status == 2
    err = capsys.readouterr().err
    assert f"{out}: No such file or directory" in err
    assert "cannot read" not in err


@pytest.mark.parametrize("command", ["predict", "eval"])
def test_predict_and_eval_check_out_before_loading_anything(tmp_path, capsys, monkeypatch, command):
    def unreached(*args, **kwargs):
        raise AssertionError("called before --out was checked")

    for name in ("load_params", "load_corpus", "load_predictions", "predict", "evaluate"):
        monkeypatch.setattr(f"coleaf.cli.{name}", unreached)
    out = tmp_path / "missing" / "p.jsonl"
    inputs = {"predict": ["--params", "p.json", "--corpus", "c.jsonl"],
              "eval": ["--pred", "p.jsonl", "--gt", "c.jsonl"]}[command]
    assert run_cli(command, *inputs, "--out", str(out)) == 2
    _assert_output_error(capsys, out, "No such file or directory")


def test_predict_with_non_finite_params_exits_2(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=2)
    params = _trained(tmp_path, corpus)
    payload = json.loads(params.read_text())
    # each parameter a payload of NaNs of its saved shape
    payload["values"] = {name: np.full(value["shape"], np.nan) for name, value in payload["values"].items()}
    write_json_lines(params, [payload])
    preds = tmp_path / "p.jsonl"
    status = run_cli("predict", "--params", str(params), "--corpus", str(corpus), "--out", str(preds))
    assert status == 2
    assert f"{params}:1: parameter reference.attn_audio.wq: values must be finite\n" in capsys.readouterr().err
    assert not preds.exists()


def test_unknown_flag_exits_1(capsys):
    assert run_cli("train", "--corpus", "x.jsonl", "--out", "y", "--frobnicate") == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    assert run_cli("transmogrify") == 1
    assert "usage" in capsys.readouterr().err


def test_bad_threshold_is_usage_error(tmp_path, capsys):
    status = run_cli("eval", "--pred", "p.jsonl", "--gt", "g.jsonl", "--threshold", "1.5")
    assert status == 1
    err = capsys.readouterr().err
    assert "error: argument --threshold: thresholds must lie strictly inside (0,1), got [1.5]\n" in err


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


@pytest.mark.parametrize("setting, flags, env, message", [
    ("adam_beta1 = 1.0", [], None, "adam_beta1 must be in [0,1), got 1.0"),
    ("adam_beta2 = 1.5", [], None, "adam_beta2 must be in [0,1), got 1.5"),
    ("adam_eps = 0", [], None, "adam_eps must be positive, got 0.0"),
    ("seed = -2", [], None, "seed must be >= 0, got -2"),
    ("", ["--seed", "-1"], None, "seed must be >= 0, got -1"),
    ("", [], "-3", "seed must be >= 0, got -3"),
])
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_bad_adam_settings_and_negative_seeds_exit_2_before_training(
    tmp_path, capsys, monkeypatch, setting, flags, env, message, command
):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=8)
    cfg = write_config(tmp_path, f"epochs = 1\nbatch_size = 4\n{setting}\n")
    if env is not None:
        monkeypatch.setenv("COLEAF_SEED", env)
    out = tmp_path / "run"
    argv = [command, "--corpus", str(corpus), "--config", str(cfg), "--out", str(out), *flags]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"coleaf: error: {message}" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_a_repeated_config_key_exits_2_before_training(tmp_path, capsys, command):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=8)
    cfg = write_config(tmp_path, "epochs = 2\nbatch_size = 4\nepochs = 5\n")
    out = tmp_path / "run"
    assert run_cli(command, "--corpus", str(corpus), "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"coleaf: error: {cfg}:3: epochs repeats line 1\n" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("raw, message", [
    (b"epochs = 2\nbatch_size = 4\n# caf\xe9\n", "{cfg}:3: not UTF-8 text"),
    # the BOM is not part of the first key, so the repeat is found
    (b"\xef\xbb\xbfepochs = 2\nbatch_size = 4\nepochs = 5\n", "{cfg}:3: epochs repeats line 1"),
], ids=["latin-1", "bom"])
def test_a_config_file_with_latin1_or_a_bom_exits_2_at_its_line(tmp_path, capsys, command, raw, message):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=8)
    cfg = tmp_path / "cfg.cfg"
    cfg.write_bytes(raw)
    out = tmp_path / "run"
    assert run_cli(command, "--corpus", str(corpus), "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"coleaf: error: {message.format(cfg=cfg)}\n" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ("learning_rate = nan", "learning_rate must be >= 0, got nan"),
    ("learning_rate = inf", "learning_rate must be finite, got inf"),
    ("nce_temperature = inf", "nce_temperature must be finite, got inf"),
    ("lambda_evt = inf", "lambda_evt must be finite, got inf"),
    ("adam_eps = inf", "adam_eps must be finite, got inf"),
    pytest.param("lambda_kd = nan", "lambda_kd must be >= 0, got nan",
                 id="lambda_kd = nan-lambda_kd must be >= 0"),
])
def test_non_finite_settings_exit_2_before_training(tmp_path, capsys, setting, message):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=8)
    cfg = write_config(tmp_path, f"epochs = 1\nbatch_size = 4\n{setting}\n")
    out = tmp_path / "run"
    assert run_cli("train", "--corpus", str(corpus), "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"coleaf: error: {message}\n" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--noise-sigma", "nan", "noise_sigma must be >= 0, got nan"),
    ("--event-rate", "nan", "event_rate must be >= 0, got nan"),
    ("--p-audio-only", "nan", "p_audio_only must be in [0,1], got nan"),
    ("--noise-sigma", "-1", "noise_sigma must be >= 0, got -1.0"),
    ("--dim", "100000000000000000000", "dim must be in [1,8192], got 100000000000000000000"),
])
def test_non_finite_corpus_settings_exit_2_before_writing(tmp_path, capsys, flag, value, message):
    path = tmp_path / "x.jsonl"
    assert run_cli("gen-data", "--out", str(path), flag, value) == 2
    err = capsys.readouterr().err
    assert f"coleaf: error: {message}\n" in err and "Traceback" not in err
    assert not path.exists()


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


def test_eval_of_an_empty_corpus_exits_2(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps({"n_videos": 0, "T": 6, "C": 4, "D": 8, "class_names": list("abcd")}) + "\n")
    preds = tmp_path / "p.jsonl"
    preds.write_text("")
    status = run_cli("eval", "--pred", str(preds), "--gt", str(corpus))
    assert status == 2
    assert "no videos to score" in capsys.readouterr().err


def test_corpus_with_a_repeated_id_exits_2(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=3)
    lines = corpus.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["id"] = "vid00000"
    lines[3] = json.dumps(rec)
    corpus.write_text("\n".join(lines) + "\n")
    status = run_cli("train", "--corpus", str(corpus), "--out", str(tmp_path / "run"))
    assert status == 2
    assert ":4: id 'vid00000' repeats line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes, command, message",
    [
        ({"weak_label": 1}, "train", "weak labels must be C, got ()"),
        ({"weak_label": np.eye(4, dtype=int).tolist()}, "train", "weak labels must be C, got (4, 4)"),
        ({"gt_audio": None}, "eval", "missing key gt_audio"),
    ],
    ids=["scalar-weak-label", "c-by-c-weak-label", "gt-visual-only"],
)
def test_a_bad_weak_label_or_half_ground_truth_exits_2_at_its_line(tmp_path, capsys, changes, command, message):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=3)
    lines = corpus.read_text().splitlines()
    rec = json.loads(lines[2])
    rec.update(changes)
    lines[2] = json.dumps(rec)
    corpus.write_text("\n".join(lines) + "\n")
    if command == "train":
        status = run_cli("train", "--corpus", str(corpus), "--out", str(tmp_path / "run"))
    else:
        preds = tmp_path / "p.jsonl"
        row = {"probs_audio": [[0.5] * 4] * 6, "probs_visual": [[0.5] * 4] * 6}
        preds.write_text("".join(json.dumps({"id": f"vid{i:05d}", **row}) + "\n" for i in range(3)))
        status = run_cli("eval", "--pred", str(preds), "--gt", str(corpus))
    assert status == 2
    assert capsys.readouterr().err == f"coleaf: error: {corpus}:3: {message}\n"
    assert not (tmp_path / "run").exists()


def test_eval_of_predictions_with_a_non_string_id_exits_2(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=1)
    preds = tmp_path / "p.jsonl"
    row = {"id": ["vid00000"], "probs_audio": [[0.5] * 4] * 6, "probs_visual": [[0.5] * 4] * 6}
    preds.write_text(json.dumps(row) + "\n")
    status = run_cli("eval", "--pred", str(preds), "--gt", str(corpus))
    assert status == 2
    assert ":1: id must be a string" in capsys.readouterr().err


def test_non_object_params_and_a_mismatched_corpus_spec_exit_2(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=2)
    params = _trained(tmp_path, corpus)
    lines = corpus.read_text().splitlines()
    header = json.loads(lines[0])
    params.write_text("5")
    preds = tmp_path / "p.jsonl"
    status = run_cli("predict", "--params", str(params), "--corpus", str(corpus), "--out", str(preds))
    assert status == 2
    assert f"{params}:1: expected a JSON object" in capsys.readouterr().err
    header["spec"]["classes"] = 7
    corpus.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    assert run_cli("train", "--corpus", str(corpus), "--out", str(tmp_path / "again")) == 2
    assert f"{corpus}:1: spec has segments=6, classes=7" in capsys.readouterr().err
    assert not preds.exists() and not (tmp_path / "again").exists()


@pytest.mark.parametrize("n_videos", [True, 1.0, -1], ids=["bool", "float", "negative"])
def test_predict_of_a_corpus_with_a_bad_video_count_exits_2(tmp_path, capsys, n_videos):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=1)
    params = _trained(tmp_path, corpus)
    lines = corpus.read_text().splitlines()
    lines[0] = json.dumps(dict(json.loads(lines[0]), n_videos=n_videos))
    corpus.write_text("\n".join(lines) + "\n")
    preds = tmp_path / "p.jsonl"
    status = run_cli("predict", "--params", str(params), "--corpus", str(corpus), "--out", str(preds))
    assert status == 2
    err = capsys.readouterr().err
    assert f"coleaf: error: {corpus}:1: n_videos must be a non-negative integer\n" in err
    assert "Traceback" not in err and not preds.exists()


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


@pytest.mark.parametrize(
    "eval_out, n_eval, message",
    [
        (True, [], "--eval-videos must be at least 1 with --eval-out"),
        (True, ["--eval-videos", "0"], "--eval-videos must be at least 1 with --eval-out"),
        (True, ["--eval-videos", "-5"], "--eval-videos must be at least 1 with --eval-out"),
        (False, ["--eval-videos", "5"], "--eval-videos 5 needs --eval-out"),
    ],
    ids=["unset", "0", "-5", "no-eval-out"],
)
def test_gen_data_with_eval_out_needs_a_held_out_video(tmp_path, capsys, eval_out, n_eval, message):
    train_path, eval_path = tmp_path / "tr.jsonl", tmp_path / "ev.jsonl"
    status = run_cli(
        "gen-data", "--out", str(train_path), *(["--eval-out", str(eval_path)] if eval_out else []),
        "--n-videos", "40", *n_eval,
    )
    assert status == 1
    assert message in capsys.readouterr().err
    assert not train_path.exists() and not eval_path.exists()


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
    first = parse_record(preds.read_bytes().splitlines()[0], (), preds)
    assert {"id", "probs_audio", "probs_visual"} <= set(first)
    assert np.asarray(first["probs_audio"]).shape == (6, 4)


def test_predict_reference_branch_with_unimodal_only_exits_2(tmp_path, capsys):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=2)
    params = _trained(tmp_path, corpus)
    capsys.readouterr()
    preds = tmp_path / "ref.jsonl"
    status = run_cli(
        "predict", "--params", str(params), "--corpus", str(corpus),
        "--branch", "reference", "--unimodal-only", "--out", str(preds),
    )
    assert status == 2
    err = capsys.readouterr().err
    assert "coleaf: error: unimodal_only applies to the anchor branch only" in err
    assert "Traceback" not in err and not preds.exists()


def test_gen_data_with_a_negative_seed_exits_2(tmp_path, capsys):
    path = tmp_path / "x.jsonl"
    assert run_cli("gen-data", "--out", str(path), "--seed", "-1") == 2
    assert "coleaf: error: seed must be >= 0, got -1\n" in capsys.readouterr().err
    assert not path.exists()


def _corpus_of_two_lengths():
    from coleaf.records import VideoSample
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


def _adam_steps(monkeypatch):
    """A list that gains one entry per Adam step taken from now on."""
    from coleaf.harness import AdamState

    steps, step = [], AdamState.step

    def counted(self, *args):
        steps.append(1)
        return step(self, *args)

    monkeypatch.setattr(AdamState, "step", counted)
    return steps


def _assert_output_error(capsys, path, reason):
    err = capsys.readouterr().err
    assert f"coleaf: error: {path}: {reason}\n" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["existing-file", "under-a-file"])
def test_train_to_an_unusable_out_exits_2_before_training(tmp_path, capsys, monkeypatch, where):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=4)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out, reason = (afile, "File exists") if where == "existing-file" else (afile / "run", "Not a directory")
    steps = _adam_steps(monkeypatch)
    cfg = write_config(tmp_path, "epochs = 1\nbatch_size = 4\n")
    assert run_cli("train", "--corpus", str(corpus), "--config", str(cfg), "--out", str(out)) == 2
    _assert_output_error(capsys, out, reason)
    assert steps == [] and afile.read_text() == "kept\n"


def test_a_failed_training_run_leaves_no_out_directory(tmp_path, monkeypatch):
    """`--out` is made before training, and taken away again if training fails."""
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=4)
    made, kept = tmp_path / "made", tmp_path / "kept"
    kept.mkdir()

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("coleaf.cli.train", interrupted)
    for out in (made, kept):
        with pytest.raises(KeyboardInterrupt):
            run_cli("train", "--corpus", str(corpus), "--out", str(out))
    assert not made.exists() and kept.is_dir()


@pytest.mark.parametrize("flag", ["--out", "--eval-out"])
def test_gen_data_under_a_file_exits_2_and_writes_nothing(tmp_path, capsys, flag):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    good, bad = tmp_path / "good.jsonl", afile / "x.jsonl"
    outs = {"--out": good, "--eval-out": good}
    outs[flag] = bad
    status = run_cli(
        "gen-data", "--out", str(outs["--out"]), "--eval-out", str(outs["--eval-out"]),
        "--eval-videos", "2", "--n-videos", "4",
    )
    assert status == 2
    _assert_output_error(capsys, bad, "Not a directory")
    assert not good.exists() and afile.read_text() == "kept\n"


@pytest.mark.parametrize("where", ["under-a-file", "missing-dir"])
def test_ablate_to_an_unusable_out_exits_2_before_the_first_variant(tmp_path, capsys, monkeypatch, where):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=4)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = (afile if where == "under-a-file" else tmp_path / "missing") / "ablate.csv"
    steps = _adam_steps(monkeypatch)
    status = run_cli(
        "ablate", "--corpus", str(corpus), "--axes", "unimodal_only", "--out", str(out),
        "--config", str(write_config(tmp_path, "epochs = 1\nbatch_size = 4\n")),
    )
    assert status == 2
    reason = "Not a directory" if where == "under-a-file" else "No such file or directory"
    _assert_output_error(capsys, out, reason)
    assert steps == []


def test_a_permission_error_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "x.jsonl"

    def refused(corpus, out):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), out)

    monkeypatch.setattr("coleaf.cli.save_corpus", refused)
    assert run_cli("gen-data", "--out", str(path), "--n-videos", "2") == 2
    _assert_output_error(capsys, path, "Permission denied")


@pytest.mark.parametrize("where", ["corpus-audio", "corpus-spec", "predictions", "params"])
def test_an_int_too_large_for_a_float_exits_2_at_its_line(tmp_path, capsys, where):
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=2)
    params = _trained(tmp_path, corpus)
    preds = tmp_path / "p.jsonl"
    assert run_cli("predict", "--params", str(params), "--corpus", str(corpus), "--out", str(preds)) == 0
    capsys.readouterr()
    target = {"predictions": preds, "params": params}.get(where, corpus)
    lines = target.read_text().splitlines()
    line = 2 if where in ("corpus-audio", "predictions") else 1
    record = json.loads(lines[line - 1])
    if where == "corpus-audio":
        record["audio"] = [[10**400] * 8] * 6
    elif where == "corpus-spec":
        record["spec"]["event_rate"] = 10**400
    elif where == "predictions":
        record["probs_audio"] = [[10**400] * 4] * 6
    else:
        record["values"]["anchor.classifier.bias"] = [10**400] * 4
    lines[line - 1] = json.dumps(record)
    target.write_text("\n".join(lines) + "\n")
    if where == "predictions":
        status = run_cli("eval", "--pred", str(preds), "--gt", str(corpus))
    else:
        status = run_cli("predict", "--params", str(params), "--corpus", str(corpus), "--out", str(preds))
    assert status == 2
    err = capsys.readouterr().err
    assert err.startswith(f"coleaf: error: {target}:{line}: ") and "Traceback" not in err


@pytest.mark.parametrize("where", ["corpus-header", "params"])
def test_a_payload_with_too_many_axes_exits_2_at_its_line(tmp_path, capsys, where):
    """A payload of more axes than numpy allows, each of length 1, is a bad value at its
    line in the files decoded in full as well: the corpus header and `params.json`."""
    corpus = gen_corpus(tmp_path, "c.jsonl", n_videos=2)
    params = _trained(tmp_path, corpus)
    capsys.readouterr()
    target = params if where == "params" else corpus
    lines = target.read_text().splitlines()
    record = json.loads(lines[0])
    payload = {"dtype": "<f8", "shape": [1] * 70, "b64": "AAAAAAAAAAA="}  # one zero float64
    if where == "params":
        record["values"]["anchor.classifier.bias"] = payload
    else:
        record["prototypes_audio"] = payload
    lines[0] = json.dumps(record)
    target.write_text("\n".join(lines) + "\n")
    out = tmp_path / "p.jsonl"
    assert run_cli("predict", "--params", str(params), "--corpus", str(corpus), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"coleaf: error: {target}:1: payload shape ") and "Traceback" not in err
