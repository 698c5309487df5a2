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
from coleaf.metrics import SCORE_BLOCK_VIDEOS
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


# records in a data file that spans two check blocks
LONG = SCORE_BLOCK_VIDEOS + 10


def _long_file(tmp_path, reader):
    """A corpus or prediction file of LONG small records: its reader, path and the lines of
    its first record, one in the middle of the first block, the first of the second block
    and its last record."""
    if reader == "corpus":
        path = tmp_path / "corpus.jsonl"
        save_corpus(generate_corpus(CorpusSpec(n_videos=LONG, segments=3, classes=3, dim=4)), path)
        first, load = 2, load_corpus  # line 1 is the header
    else:
        path = tmp_path / "preds.jsonl"
        rng = np.random.default_rng(0)
        write_predictions({f"v{i:03d}": (rng.random((3, 2)), rng.random((3, 2))) for i in range(LONG)}, path)
        first, load = 1, load_predictions
    return load, path, (first, first + LONG // 2, first + SCORE_BLOCK_VIDEOS, first + LONG - 1)


def _respoil(path, lines, line, record):
    """Write `lines` to `path` with `record` as JSON text in place of line `line`."""
    path.write_text("\n".join(lines[: line - 1] + [json.dumps(record)] + lines[line:]) + "\n")


@pytest.mark.parametrize("fault", list(PAYLOAD_FAULTS))
@pytest.mark.parametrize("reader", ["corpus", "predictions"])
def test_each_reader_names_the_line_of_a_bad_payload(tmp_path, reader, fault):
    """At the same line wherever the record sits among the check blocks."""
    load, path, record_lines = _long_file(tmp_path, reader)
    key = "visual" if reader == "corpus" else "probs_visual"
    lines = path.read_text().splitlines()
    for line in record_lines:
        record = json.loads(lines[line - 1])
        spoil, message = PAYLOAD_FAULTS[fault]
        record[key] = spoil(record[key])
        _respoil(path, lines, line, record)
        with pytest.raises(FileFormatError) as err:
            load(path)
        assert str(err.value).startswith(f"{path}:{line}: {message}")


def _ragged_message():
    with pytest.raises(ValueError) as err:
        np.asarray([[0.5, 0.5], [0.5]], dtype=np.float64)
    return str(err.value)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("probs_audio", [[1.5, 0.5]] * 3, "audio probabilities hold a non-finite value or one outside [0,1]"),
        ("probs_visual", [[0.5, float("nan")]] * 3, "visual probabilities hold a non-finite value or one outside [0,1]"),
        ("probs_audio", [[0.5, 0.5], [0.5]], _ragged_message()),
        ("probs_audio", [[0.5, 0.5, 0.5]] * 3, "probability matrices must share T x C, got (3, 3) and (3, 2)"),
    ],
    ids=["above-one", "nan", "ragged", "shapes-differ"],
)
def test_a_bad_probability_names_its_line_anywhere_in_a_long_file(tmp_path, key, value, message):
    _, path, record_lines = _long_file(tmp_path, "predictions")
    lines = path.read_text().splitlines()
    for line in record_lines:
        _respoil(path, lines, line, dict(json.loads(lines[line - 1]), **{key: value}))
        with pytest.raises(FileFormatError) as err:
            load_predictions(path)
        assert str(err.value) == f"{path}:{line}: {message}"


def _spoiled_record(text, fault, first_id):
    """A record line of JSON text with `fault`: a bad value, its closing brace cut off,
    or the file's first id."""
    if fault == "bad-json":
        return text[:-1]
    record = json.loads(text)
    if fault == "repeated-id":
        record["id"] = first_id
    elif "audio" in record:
        record["audio"] = [[float("nan")] * 4] * 3
    else:
        record["probs_audio"] = [[1.5, 0.5]] * 3
    return json.dumps(record)


def _fault_message(fault, reader, first_id, first_line):
    return {
        "value": "tokens must be finite" if reader == "corpus"
        else "audio probabilities hold a non-finite value or one outside [0,1]",
        "bad-json": "Expecting ',' delimiter",
        "repeated-id": f"id {first_id!r} repeats line {first_line}",
    }[fault]


@pytest.mark.parametrize(
    "earlier, later",
    [("value", "value"), ("value", "bad-json"), ("value", "repeated-id"), ("bad-json", "value"),
     ("repeated-id", "value")],
)
@pytest.mark.parametrize("reader", ["corpus", "predictions"])
def test_a_file_with_two_faults_names_the_earlier_line(tmp_path, reader, earlier, later):
    load, path, (first, middle, _, last) = _long_file(tmp_path, reader)
    lines = path.read_text().splitlines()
    first_id = json.loads(lines[first - 1])["id"]
    # both in one block, then the earlier in the first block and the later in the second
    for a, b in ((middle, middle + 3), (middle, last)):
        spoiled = list(lines)
        spoiled[a - 1] = _spoiled_record(lines[a - 1], earlier, first_id)
        spoiled[b - 1] = _spoiled_record(lines[b - 1], later, first_id)
        path.write_text("\n".join(spoiled) + "\n")
        with pytest.raises(FileFormatError) as err:
            load(path)
        assert str(err.value) == f"{path}:{a}: {_fault_message(earlier, reader, first_id, first)}"


def test_prediction_records_of_two_shapes_load_one_by_one(tmp_path):
    """Each record's matrices need only share their own shape; `full_report` rejects the mix."""
    _, path, (_, middle, _, _) = _long_file(tmp_path, "predictions")
    lines = path.read_text().splitlines()
    record = dict(json.loads(lines[middle - 1]), probs_audio=[[0.25] * 5], probs_visual=[[0.5] * 5])
    _respoil(path, lines, middle, record)
    preds = load_predictions(path)
    assert len(preds) == LONG
    assert [a.shape for a in preds[record["id"]]] == [(1, 5), (1, 5)]
    assert preds[record["id"]][0].tolist() == record["probs_audio"]


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
