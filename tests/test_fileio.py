import codecs
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from coleaf.branches import init_branch_params
from coleaf.errors import FileFormatError
from coleaf.fileio import json_lines, parse_record, write_json_lines
from coleaf.harness import load_params, load_predictions, save_params, write_predictions
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


def _assert_the_next_file_loads(tmp_path):
    """The JSON decoder is shared by every reader, so a failed read must leave it ready."""
    good = tmp_path / "next"
    good.mkdir()
    corpus, path = _saved_corpus(good)
    assert load_corpus(path) == corpus


@pytest.mark.parametrize("fault", list(FAULT_MESSAGES))
@pytest.mark.parametrize("make", [_corpus, _predictions, _params], ids=["corpus", "predictions", "params"])
def test_each_reader_names_the_line_of_a_malformed_record(tmp_path, make, fault):
    load, path, line, key = make(tmp_path, fault)
    with pytest.raises(FileFormatError) as err:
        load(path)
    message = FAULT_MESSAGES[fault] + (key if fault == "missing-key" else "")
    assert str(err.value).startswith(f"{path}:{line}: {message}")
    _assert_the_next_file_loads(tmp_path)


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
    _assert_the_next_file_loads(tmp_path)


def test_lines_that_start_with_a_utf8_bom_load_as_without_it(tmp_path):
    corpus, path = _saved_corpus(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(codecs.BOM_UTF8 + line for line in lines))
    assert load_corpus(path) == corpus


FLOAT64 = np.finfo(np.float64)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    array=arrays(
        np.float64,
        array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )
)
@example(array=np.array([-0.0, 0.0, 5e-324, -5e-324, FLOAT64.max, -FLOAT64.max, FLOAT64.tiny]))
@example(array=np.zeros((0, 3)))
@example(array=np.zeros((2, 0, 4)))
@example(array=np.array(np.nan))
def test_float64_arrays_round_trip_bit_exactly(tmp_path, array):
    path = tmp_path / "arrays.jsonl"
    write_json_lines(path, [{"x": array, "t": array.T}])  # .T: a view in Fortran order
    [(line_no, raw)] = list(json_lines(path))
    assert raw.count(b'"b64"') == 2
    record = parse_record(raw, ("x", "t"), path, line_no)
    for decoded, written in ((record["x"], array), (record["t"], array.T)):
        assert decoded.dtype == np.float64 and decoded.flags.writeable
        assert decoded.shape == written.shape
        assert decoded.tobytes() == written.tobytes()


def test_int_arrays_stay_nested_lists(tmp_path):
    path = tmp_path / "ints.jsonl"
    write_json_lines(path, [{"x": np.eye(2, dtype=np.int64)}])
    assert path.read_text() == '{"x": [[1, 0], [0, 1]]}\n'


PAYLOAD_FAULTS = {
    "byte-count": (lambda p: dict(p, b64=p["b64"][:-12]), "payload holds "),
    "base64": (lambda p: dict(p, b64="not base64!"), "payload b64 is not base64"),
    "dtype": (lambda p: dict(p, dtype="<f4"), "payload dtype must be '<f8', got '<f4'"),
    "shape": (lambda p: dict(p, shape=[-1, 8]), "payload shape must be a list of non-negative"),
}


def _spoil_payload(path, line, key, fault):
    """Apply `fault` to the payload under `key` on `line` of `path`."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[line - 1])
    spoil, message = PAYLOAD_FAULTS[fault]
    record[key] = spoil(record[key])
    lines[line - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return message


def _saved_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    corpus = generate_corpus(CorpusSpec(n_videos=2, segments=3, classes=3, dim=4))
    save_corpus(corpus, path)
    return corpus, path


def _written_predictions(tmp_path, probs_audio=None):
    path = tmp_path / "preds.jsonl"
    rng = np.random.default_rng(0)
    preds = {vid: (rng.random((3, 2)), rng.random((3, 2))) for vid in ("a", "b")}
    if probs_audio is not None:
        preds["b"] = (probs_audio, preds["b"][1])
    write_predictions(preds, path)
    return preds, path


@pytest.mark.parametrize("fault", list(PAYLOAD_FAULTS))
@pytest.mark.parametrize("reader", ["corpus", "predictions"])
def test_each_reader_names_the_line_of_a_bad_payload(tmp_path, reader, fault):
    if reader == "corpus":
        load, (_, path), key = load_corpus, _saved_corpus(tmp_path), "visual"
    else:
        load, (_, path), key = load_predictions, _written_predictions(tmp_path), "probs_visual"
    message = _spoil_payload(path, 2, key, fault)
    with pytest.raises(FileFormatError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}:2: {message}")


def test_a_nan_token_payload_is_rejected_as_before(tmp_path):
    _, path = _saved_corpus(tmp_path)
    lines = list(json_lines(path))
    header = parse_record(lines[0][1], (), path)
    records = [parse_record(raw, (), path, line_no) for line_no, raw in lines[1:]]
    records[1]["audio"][0, 0] = np.nan
    write_json_lines(path, [header, *records])
    with pytest.raises(FileFormatError, match=f"^{path}:3: tokens must be finite$"):
        load_corpus(path)


def test_an_out_of_range_probability_payload_is_rejected_as_before(tmp_path):
    _, path = _written_predictions(tmp_path, probs_audio=np.full((3, 2), 1.5))
    assert b'"b64"' in path.read_bytes()
    with pytest.raises(FileFormatError) as err:
        load_predictions(path)
    assert str(err.value) == (
        f"{path}:2: audio probabilities hold a non-finite value or one outside [0,1]"
    )


def _as_nested_lists(path):
    """Rewrite `path` with every array as nested lists, as files were written before payloads."""
    records = [parse_record(raw, (), path, line_no) for line_no, raw in json_lines(path)]
    path.write_text("".join(json.dumps(r, default=np.ndarray.tolist) + "\n" for r in records))


def test_nested_list_files_load_equal_to_their_payload_twins(tmp_path):
    corpus, corpus_path = _saved_corpus(tmp_path)
    preds, preds_path = _written_predictions(tmp_path)
    twins = (load_corpus(corpus_path), load_predictions(preds_path))
    _as_nested_lists(corpus_path)
    _as_nested_lists(preds_path)
    assert b'"b64"' not in corpus_path.read_bytes() + preds_path.read_bytes()
    loaded_corpus, loaded_preds = load_corpus(corpus_path), load_predictions(preds_path)
    assert loaded_corpus == twins[0] == corpus
    for vid, (pa, pv) in preds.items():
        for a, b, c in zip(loaded_preds[vid], twins[1][vid], (pa, pv)):
            assert a.tobytes() == b.tobytes() == c.tobytes()
