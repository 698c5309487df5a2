import json

import pytest

from coleaf.branches import init_branch_params
from coleaf.errors import FileFormatError
from coleaf.harness import load_params, load_predictions, save_params
from coleaf.synthdata import CorpusSpec, generate_corpus, load_corpus, save_corpus

FAULT_MESSAGES = {
    "bad-json": "Expecting",
    "not-an-object": "expected a JSON object",
    "missing-key": "missing key ",
}


def _spoil(record, fault, key):
    """`record` as one line of JSON text, cut short, wrapped in a list, or without `key`."""
    text = json.dumps(record)
    if fault == "bad-json":
        return text[: len(text) // 2]
    if fault == "not-an-object":
        return json.dumps([record])
    return json.dumps({k: v for k, v in record.items() if k != key})


def _jsonl_file(path, good_lines, record, fault, key):
    """Good lines, a blank line, then the spoiled record; returns the spoiled record's line."""
    path.write_text("".join(line + "\n" for line in good_lines) + "\n" + _spoil(record, fault, key) + "\n")
    return len(good_lines) + 2


def _corpus(tmp_path, fault):
    path = tmp_path / "corpus.jsonl"
    save_corpus(generate_corpus(CorpusSpec(n_videos=2, segments=3, classes=3, dim=4)), path)
    lines = path.read_text().splitlines()
    line = _jsonl_file(path, lines[:2], json.loads(lines[2]), fault, "weak_label")
    return load_corpus, path, line, "weak_label"


def _predictions(tmp_path, fault):
    path = tmp_path / "preds.jsonl"
    row = {"id": "a", "probs_audio": [[0.1, 0.9]], "probs_visual": [[0.0, 1.0]]}
    line = _jsonl_file(path, [json.dumps(row)], dict(row, id="b"), fault, "probs_visual")
    return load_predictions, path, line, "probs_visual"


def _params(tmp_path, fault):
    """A pretty-printed params.json, so that a decoding error lies on a later line."""
    path = tmp_path / "params.json"
    save_params(init_branch_params(2, 2, 5), path)
    payload = json.loads(path.read_text())
    if fault == "missing-key":
        del payload["n_classes"]
    text = json.dumps([payload] if fault == "not-an-object" else payload, indent=2)
    lines = text.splitlines()
    line = 1
    if fault == "bad-json":
        line = next(i for i, row in enumerate(lines, start=1) if '"values":' in row)
        lines[line - 1] = lines[line - 1].replace('"values":', '"values"')
        assert line > 1
    path.write_text("\n".join(lines))
    return load_params, path, line, "n_classes"


@pytest.mark.parametrize("fault", list(FAULT_MESSAGES))
@pytest.mark.parametrize("make", [_corpus, _predictions, _params], ids=["corpus", "predictions", "params"])
def test_each_reader_names_the_line_of_a_malformed_record(tmp_path, make, fault):
    load, path, line, key = make(tmp_path, fault)
    with pytest.raises(FileFormatError) as err:
        load(path)
    message = FAULT_MESSAGES[fault] + (key if fault == "missing-key" else "")
    assert str(err.value).startswith(f"{path}:{line}: {message}")


def test_blank_lines_anywhere_in_a_corpus_are_skipped(tmp_path):
    corpus = generate_corpus(CorpusSpec(n_videos=2, segments=3, classes=3, dim=4))
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    lines = path.read_text().splitlines()
    path.write_text("\n  \n" + "\n\n".join(lines) + "\n\n")
    assert load_corpus(path) == corpus


def test_bytes_that_are_not_utf8_name_their_line(tmp_path):
    preds = tmp_path / "preds.jsonl"
    preds.write_bytes(b'\n{"id": "a\xff"}\n')
    with pytest.raises(FileFormatError) as err:
        load_predictions(preds)
    assert str(err.value) == f"{preds}:2: not UTF-8 text"
    params = tmp_path / "params.json"
    params.write_bytes(b'{\n  "dim": 2,\n  "n_classes": "\xff"\n}')
    with pytest.raises(FileFormatError) as err:
        load_params(params)
    assert str(err.value) == f"{params}:3: not UTF-8 text"

