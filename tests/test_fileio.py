import base64
import codecs
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from coleaf.branches import init_branch_params
from coleaf.errors import FileFormatError
from coleaf.fileio import _ENCODER, json_lines, parse_record, write_json_lines
from coleaf.harness import load_params, load_predictions, save_params, write_predictions
from coleaf.records import SCORE_BLOCK_VIDEOS, BinaryParse, VideoSample
from coleaf.synthdata import CorpusSpec, GeneratedCorpus, generate_corpus, load_corpus, save_corpus

FAULT_MESSAGES = {
    "bad-json": "Expecting",
    "not-an-object": "expected a JSON object",
    "missing-key": "missing key ",
}


def _spoil(record, fault, key):
    """`record` as one line of JSON text, cut short just before `key`, wrapped in a list,
    or without `key`."""
    text = json.dumps(record)
    if fault == "bad-json":  # outside any string, so JSON expects a further key
        return text[: text.index(json.dumps(key))]
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


def test_int_arrays_are_payloads_of_their_own_little_endian_dtype(tmp_path):
    path = tmp_path / "ints.jsonl"
    ints = {"x": np.eye(2, dtype=np.int64), "w": np.array([1, 0, 1], dtype=np.uint8),
            "b": np.array([1, 2], dtype=">i2")}
    write_json_lines(path, [ints])
    assert path.read_text() == (
        '{"x": {"dtype": "<i8", "shape": [2, 2], "b64": "AQAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAQAAAAAAAAA="}, '
        '"w": {"dtype": "|u1", "shape": [3], "b64": "AQAB"}, '
        '"b": {"dtype": "<i2", "shape": [2], "b64": "AQACAA=="}}\n'
    )


def test_a_corpus_line_holds_its_0_1_fields_as_one_byte_payloads(tmp_path):
    sample = VideoSample("v", [[0.5]], [[-2.0]], [1, 0], BinaryParse([[1, 0]], [[0, 0]]))
    path = tmp_path / "corpus.jsonl"
    save_corpus(GeneratedCorpus([sample], None, None, None), path)
    assert path.read_text().splitlines()[1] == (
        '{"id": "v", "audio": {"dtype": "<f8", "shape": [1, 1], "b64": "AAAAAAAA4D8="}, '
        '"visual": {"dtype": "<f8", "shape": [1, 1], "b64": "AAAAAAAAAMA="}, '
        '"weak_label": {"dtype": "|u1", "shape": [2], "b64": "AQA="}, '
        '"gt_audio": {"dtype": "|u1", "shape": [1, 2], "b64": "AQA="}, '
        '"gt_visual": {"dtype": "|u1", "shape": [1, 2], "b64": "AAA="}}'
    )


def _int_extremes(dtype):
    info = np.iinfo(dtype)
    return np.array([[info.min, 0, info.max], [1, 2, 3]], dtype=dtype)


_GRID = np.arange(12.0).reshape(3, 4) / 7
with np.errstate(over="ignore"):  # 1e30 overflows float16 to inf on purpose
    _FLOAT_GRIDS = {
        name: (_GRID * [1, -1, 1e30, np.inf]).astype(name)
        for name in ("float16", "float32", "float64")
    }
WRITER_VALUES = {
    **_FLOAT_GRIDS,
    **{
        name: _int_extremes(name)
        for name in ("int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64")
    },
    "bool": np.array([[True, False], [False, True]]),
    "0-d-float": np.array(2.5),
    "0-d-int": np.array(-7, dtype=np.int32),
    "0-d-bool": np.array(True),
    "empty-float": np.zeros((0, 3)),
    "empty-int": np.zeros((2, 0), dtype=np.int64),
    "fortran-float": np.asfortranarray(_GRID),
    "fortran-int": np.asfortranarray(np.arange(6).reshape(2, 3)),
    "strided-float": _GRID[::2, ::-3],
    "strided-int": np.arange(20, dtype=np.int16)[::3],
    "none": None,
    "nested-spec": {"segments": 3, "leak": 0.25, "cooccur": np.eye(3) * 2.5, "ids": ["a", 1]},
}
INT_VALUES = {
    name: value for name, value in WRITER_VALUES.items()
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu"
}
WRITER_IDS = ["vid00000", 'say "hi"', "back\\slash\\", "caf\u00e9 \u6f22 \U0001f600", "tab\tnewline\n"]


@pytest.mark.parametrize("vid", WRITER_IDS, ids=["plain", "quotes", "backslashes", "non-ascii", "controls"])
@pytest.mark.parametrize("value", list(WRITER_VALUES.values()), ids=list(WRITER_VALUES))
def test_each_line_is_the_text_the_json_encoder_gives_it(tmp_path, vid, value):
    path = tmp_path / "lines.jsonl"
    records = [{"id": vid, "x": value, "y": None}, {"x": value, "id": vid}]
    write_json_lines(path, records)
    assert path.read_bytes() == "".join(_ENCODER.encode(r) + "\n" for r in records).encode("ascii")


@pytest.mark.parametrize("byte_order", ["=", ">"], ids=["native", "big-endian"])
@pytest.mark.parametrize("value", list(INT_VALUES.values()), ids=list(INT_VALUES))
def test_int_arrays_round_trip_bit_exactly_with_their_dtype(tmp_path, value, byte_order):
    array = value.astype(value.dtype.newbyteorder(byte_order))
    path = tmp_path / "ints.jsonl"
    write_json_lines(path, [{"x": array, "t": array.T}])  # .T: a view in Fortran order
    [(line_no, raw)] = list(json_lines(path))
    assert raw.count(f'"dtype": "{value.dtype.newbyteorder("<").str}"'.encode()) == 2
    record = parse_record(raw, ("x", "t"), path, line_no)
    for decoded, written in ((record["x"], value), (record["t"], value.T)):
        assert decoded.dtype == value.dtype and decoded.dtype.isnative and decoded.flags.writeable
        assert decoded.shape == written.shape
        assert decoded.tobytes() == written.tobytes()


def test_bool_arrays_are_written_as_json_booleans(tmp_path):
    path = tmp_path / "bools.jsonl"
    write_json_lines(path, [{"x": np.array([True, False])}])
    assert path.read_text() == '{"x": [true, false]}\n'


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    array=arrays(
        st.sampled_from([np.float16, np.float32, np.float64, np.int8, np.uint16, np.int64, np.uint64, np.bool_]),
        array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    ),
    vid=st.text(max_size=8),
)
def test_any_record_line_is_the_text_the_json_encoder_gives_it(tmp_path, array, vid):
    path = tmp_path / "lines.jsonl"
    records = [{vid: array, "t": array.T, "s": array.reshape(-1)[::-2]}]
    write_json_lines(path, records)
    assert path.read_bytes() == (_ENCODER.encode(records[0]) + "\n").encode("ascii")


PAYLOAD_FAULTS = {
    "byte-count": (lambda p: dict(p, b64=p["b64"][:-12]), "payload holds "),
    "base64": (lambda p: dict(p, b64="not base64!"), "payload b64 is not base64"),
    "dtype": (lambda p: dict(p, dtype="<f4"), "payload dtype must be '<f8', got '<f4'"),
    "shape": (lambda p: dict(p, shape=[-1, 8]), "payload shape must be a list of non-negative"),
    "axes": (  # one float64 in more axes than numpy allows
        lambda p: dict(p, shape=[1] * 70, b64="AAAAAAAAAAA="), f"payload shape {[1] * 70} does not fit an array",
    ),
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


_INT_DTYPES = "'|i1', '|u1', '<i2', '<u2', '<i4', '<u4', '<i8', '<u8'"


INT_PAYLOAD_FAULTS = {
    **{
        f"dtype-{name}": (
            "weak_label", lambda p, name=name: dict(p, dtype=name),
            f"payload dtype must be '<f8', got '{name}'; an integer payload may also be {_INT_DTYPES}",
        )
        for name in (">i8", "<f4", "|b1")
    },
    "byte-count": (
        "gt_visual", lambda p: dict(p, b64=base64.b64encode(bytes(8)).decode()),
        "payload holds 8 bytes, shape [3, 3] of uint8 needs 9",
    ),
}


@pytest.mark.parametrize("fault", list(INT_PAYLOAD_FAULTS))
def test_a_bad_int_payload_names_its_line(tmp_path, fault):
    """At the same line wherever the record sits among the check blocks; a 0/1 payload
    holding another value is a case of `test_bad_ground_truth_names_line`."""
    load, path, record_lines = _long_file(tmp_path, "corpus")
    key, spoil, message = INT_PAYLOAD_FAULTS[fault]
    lines = path.read_text().splitlines()
    for line in record_lines:
        record = json.loads(lines[line - 1])
        assert record[key]["dtype"] == "|u1"
        record[key] = spoil(record[key])
        _respoil(path, lines, line, record)
        with pytest.raises(FileFormatError) as err:
            load(path)
        assert str(err.value) == f"{path}:{line}: {message}"


def test_int_fields_of_other_dtypes_or_as_nested_lists_load_equal(tmp_path):
    """Records whose 0/1 fields are payloads of another integer dtype, or nested lists, in
    blocks of `|u1` payloads: the blocks load one by one, to the same corpus."""
    load, path, (first, middle, boundary, last) = _long_file(tmp_path, "corpus")
    want = load(path)
    lines = path.read_text().splitlines()
    for line, dtype in ((first, "<i8"), (middle, "|i1"), (boundary, "<u2"), (last, None)):
        record = parse_record(lines[line - 1].encode(), (), path, line)
        for key in ("weak_label", "gt_audio", "gt_visual"):
            record[key] = record[key].tolist() if dtype is None else record[key].astype(dtype)
        lines[line - 1] = _ENCODER.encode(record)
    assert '"dtype": "<i8"' in lines[first - 1] and '"weak_label": [' in lines[last - 1]
    path.write_text("\n".join(lines) + "\n")
    assert load(path) == want


def test_a_token_payload_of_an_int_dtype_loads_as_its_values(tmp_path):
    """An `<i8` payload holds as many bytes as the `<f8` ones of its block, but not their floats."""
    load, path, (_, middle, _, _) = _long_file(tmp_path, "corpus")
    lines = path.read_text().splitlines()
    record = json.loads(lines[middle - 1])
    # small positive int64 bytes read as float64 are finite subnormals, so only the dtype tells
    record["audio"] = json.loads(_ENCODER.encode(np.arange(1, 13).reshape(3, 4)))
    assert record["audio"]["dtype"] == "<i8"
    _respoil(path, lines, middle, record)
    sample = load(path).samples[middle - 2]
    assert sample.audio_tokens.dtype == np.float64
    assert sample.audio_tokens.tolist() == np.arange(1.0, 13.0).reshape(3, 4).tolist()


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
        ("probs_audio", [[10**400, 0.5]] * 3, "int too large to convert to float"),
    ],
    ids=["above-one", "nan", "ragged", "shapes-differ", "int-too-large"],
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
    the file's first id, or one of `PAYLOAD_FAULTS` in its visual payload."""
    if fault == "bad-json":
        return text[:-1]
    record = json.loads(text)
    if fault in PAYLOAD_FAULTS:
        key = "visual" if "visual" in record else "probs_visual"
        record[key] = PAYLOAD_FAULTS[fault][0](record[key])
    elif fault == "repeated-id":
        record["id"] = first_id
    elif "audio" in record:
        record["audio"] = [[float("nan")] * 4] * 3
    else:
        record["probs_audio"] = [[1.5, 0.5]] * 3
    return json.dumps(record)


def _fault_message(fault, reader, first_id, first_line):
    if fault in PAYLOAD_FAULTS:
        return _payload_message(fault, reader)
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


# the float array `_spoiled_record` spoils for each reader, and its shape in `_long_file`
_PAYLOAD_KEY = {"corpus": ("visual", [3, 4]), "predictions": ("probs_visual", [3, 2])}


def _payload_message(fault, reader):
    _, shape = _PAYLOAD_KEY[reader]
    if fault == "base64":
        return "payload b64 is not base64: Only base64 data is allowed"
    need = 8 * math.prod(shape)
    held = len(base64.b64decode(base64.b64encode(bytes(need)).decode()[:-12]))
    return f"payload holds {held} bytes, shape {shape} of float64 needs {need}"


@pytest.mark.parametrize(
    "earlier, later",
    [("base64", "value"), ("byte-count", "value"), ("value", "base64"), ("value", "byte-count"),
     ("base64", "bad-json"), ("byte-count", "bad-json"), ("base64", "repeated-id"),
     ("byte-count", "repeated-id"), ("byte-count", "base64")],
)
@pytest.mark.parametrize("reader", ["corpus", "predictions"])
def test_a_payload_fault_and_another_name_the_earlier_line(tmp_path, reader, earlier, later):
    """A payload's base64 is decoded with its block, after its line is read; the earlier
    faulty line is still the one named, with the message it has when read alone."""
    load, path, (first, middle, boundary, last) = _long_file(tmp_path, reader)
    lines = path.read_text().splitlines()
    first_id = json.loads(lines[first - 1])["id"]
    # in one block, in the two blocks, and on either side of the block boundary
    for a, b in ((middle, middle + 3), (middle, last), (boundary - 1, boundary)):
        spoiled = list(lines)
        spoiled[a - 1] = _spoiled_record(lines[a - 1], earlier, first_id)
        spoiled[b - 1] = _spoiled_record(lines[b - 1], later, first_id)
        path.write_text("\n".join(spoiled) + "\n")
        with pytest.raises(FileFormatError) as err:
            load(path)
        assert str(err.value) == f"{path}:{a}: {_fault_message(earlier, reader, first_id, first)}"


@pytest.mark.parametrize("other", ["bad-json", "repeated-id", "missing-id"])
@pytest.mark.parametrize("fault", ["base64", "byte-count"])
@pytest.mark.parametrize("reader", ["corpus", "predictions"])
def test_a_line_with_a_payload_fault_and_another_fault_names_the_payload(tmp_path, reader, fault, other):
    """As a line decoded at once reports it: the payload fails before the rest of its line."""
    load, path, record_lines = _long_file(tmp_path, reader)
    lines = path.read_text().splitlines()
    first_id = json.loads(lines[record_lines[0] - 1])["id"]
    for line in record_lines[1:]:
        text = _spoiled_record(lines[line - 1], fault, "")
        if other == "missing-id":
            text = json.dumps({k: v for k, v in json.loads(text).items() if k != "id"})
        else:
            text = _spoiled_record(text, other, first_id)
        path.write_text("\n".join(lines[: line - 1] + [text] + lines[line:]) + "\n")
        with pytest.raises(FileFormatError) as err:
            load(path)
        assert str(err.value) == f"{path}:{line}: {_payload_message(fault, reader)}"


@pytest.mark.parametrize("where", ["other-key", "shadowed", "nested"])
@pytest.mark.parametrize("reader", ["corpus", "predictions"])
def test_a_bad_payload_anywhere_in_a_line_is_named(tmp_path, reader, where):
    """Under a key the reader does not use, under a key that appears twice, or inside a list."""
    load, path, record_lines = _long_file(tmp_path, reader)
    key, _ = _PAYLOAD_KEY[reader]
    lines = path.read_text().splitlines()
    for line in record_lines:
        good = lines[line - 1]
        bad = json.loads(_spoiled_record(good, "base64", ""))[key]
        if where == "shadowed":  # a repeated key keeps its last value
            text = good[:-1] + f', "{key}": ' + json.dumps(json.loads(good)[key]) + "}"
            text = text.replace(json.dumps(json.loads(good)[key]), json.dumps(bad), 1)
        else:
            text = good[:-1] + ', "extra": ' + json.dumps(bad if where == "other-key" else [1, bad]) + "}"
        path.write_text("\n".join(lines[: line - 1] + [text] + lines[line:]) + "\n")
        with pytest.raises(FileFormatError) as err:
            load(path)
        assert str(err.value) == f"{path}:{line}: {_payload_message('base64', reader)}"


@pytest.mark.parametrize("stray", ["*", " ", "\n", "=", "-"])
@pytest.mark.parametrize("reader", ["corpus", "predictions"])
def test_a_payload_with_a_stray_character_is_named(tmp_path, reader, stray):
    """Strict base64 only: a lenient decoder would skip the character and read the right bytes."""
    load, path, record_lines = _long_file(tmp_path, reader)
    key, _ = _PAYLOAD_KEY[reader]
    lines = path.read_text().splitlines()
    for line in record_lines:
        record = json.loads(lines[line - 1])
        b64 = record[key]["b64"][:8] + stray + record[key]["b64"][8:]
        record[key] = dict(record[key], b64=b64)
        _respoil(path, lines, line, record)
        with pytest.raises(ValueError) as strict:
            base64.b64decode(b64, validate=True)
        with pytest.raises(FileFormatError) as err:
            load(path)
        assert str(err.value) == f"{path}:{line}: payload b64 is not base64: {strict.value}"


@pytest.mark.parametrize("reader", ["corpus", "predictions"])
def test_payload_byte_counts_that_cancel_out_in_a_block_name_the_first(tmp_path, reader):
    """One payload 8 bytes short and the next 8 bytes long hold a block's bytes between them."""
    load, path, (_, middle, boundary, last) = _long_file(tmp_path, reader)
    key, shape = _PAYLOAD_KEY[reader]
    need = 8 * math.prod(shape)
    lines = path.read_text().splitlines()
    for short, long in ((middle, middle + 1), (boundary, last)):
        spoiled = list(lines)
        for line, size in ((short, need - 8), (long, need + 8)):
            record = json.loads(lines[line - 1])
            record[key] = dict(record[key], b64=base64.b64encode(bytes(size)).decode())
            spoiled[line - 1] = json.dumps(record)
        path.write_text("\n".join(spoiled) + "\n")
        with pytest.raises(FileFormatError) as err:
            load(path)
        message = f"payload holds {need - 8} bytes, shape {shape} of float64 needs {need}"
        assert str(err.value) == f"{path}:{short}: {message}"


def _nested_list_line(text):
    """A record line of JSON text with its payload objects written as nested lists."""
    record = parse_record(text.encode(), (), "-")
    return json.dumps(record, default=np.ndarray.tolist)


def _same_load(reader, got, want):
    if reader == "corpus":
        return got == want
    return got.keys() == want.keys() and all(
        a.tobytes() == b.tobytes() for vid in want for a, b in zip(got[vid], want[vid])
    )


@pytest.mark.parametrize("reader", ["corpus", "predictions"])
def test_blocks_that_mix_payload_and_nested_list_records(tmp_path, reader):
    """They load as their all-payload twin, and of two faults the earlier line is named."""
    load, path, (first, _, boundary, last) = _long_file(tmp_path, reader)
    lines = path.read_text().splitlines()
    want = load(path)
    mixed = list(lines)
    for line in range(first + 1, last + 1, 2):  # every other record, from the second
        mixed[line - 1] = _nested_list_line(lines[line - 1])
    path.write_text("\n".join(mixed) + "\n")
    assert _same_load(reader, load(path), want)
    payload, listed = first + 2 * (LONG // 4), first + 2 * (LONG // 4) + 3
    assert '"b64"' in mixed[payload - 1] and '"b64"' not in mixed[listed - 1]
    # (line, fault) pairs, the earlier first: in one block, then across the two blocks
    for faults in (
        ((payload, "byte-count"), (listed, "value")),
        ((listed, "value"), (listed + 1, "base64")),
        ((payload, "base64"), (boundary + 1, "value")),
        ((listed, "value"), (boundary, "byte-count")),
    ):
        spoiled = list(mixed)
        for line, fault in faults:
            spoiled[line - 1] = _spoiled_record(mixed[line - 1], fault, "")
        path.write_text("\n".join(spoiled) + "\n")
        with pytest.raises(FileFormatError) as err:
            load(path)
        (line, fault), _ = faults
        assert str(err.value) == f"{path}:{line}: {_fault_message(fault, reader, '', first)}"


def test_prediction_payloads_of_two_shapes_load_one_by_one(tmp_path):
    """And a bad payload after the odd one is still named."""
    _, path, (_, middle, _, last) = _long_file(tmp_path, "predictions")
    lines = path.read_text().splitlines()
    odd = {"id": json.loads(lines[middle - 1])["id"], "probs_audio": np.full((1, 5), 0.25),
           "probs_visual": np.full((1, 5), 0.5)}
    lines[middle - 1] = _ENCODER.encode(odd)
    assert lines[middle - 1].count('"b64"') == 2
    path.write_text("\n".join(lines) + "\n")
    preds = load_predictions(path)
    assert len(preds) == LONG
    assert [a.tolist() for a in preds[odd["id"]]] == [[[0.25] * 5], [[0.5] * 5]]
    for later in (middle + 2, last):
        spoiled = list(lines)
        spoiled[later - 1] = _spoiled_record(lines[later - 1], "byte-count", "")
        path.write_text("\n".join(spoiled) + "\n")
        with pytest.raises(FileFormatError) as err:
            load_predictions(path)
        assert str(err.value) == f"{path}:{later}: {_payload_message('byte-count', 'predictions')}"


def test_a_corpus_payload_of_another_shape_is_named_before_a_later_bad_payload(tmp_path):
    load, path, (_, middle, boundary, last) = _long_file(tmp_path, "corpus")
    lines = path.read_text().splitlines()
    record = json.loads(lines[middle - 1])
    record["audio"] = json.loads(_ENCODER.encode(np.zeros((2, 4))))
    lines[middle - 1] = json.dumps(record)
    for later in (middle + 1, boundary, last):
        spoiled = list(lines)
        spoiled[later - 1] = _spoiled_record(lines[later - 1], "base64", "")
        path.write_text("\n".join(spoiled) + "\n")
        with pytest.raises(FileFormatError) as err:
            load(path)
        assert str(err.value) == f"{path}:{middle}: token matrices must share T x D, got (2, 4) and (3, 4)"


def test_loaded_prediction_pairs_are_writable_and_their_own(tmp_path):
    """Writing into the two pairs at the block boundary leaves every other pair as it was."""
    _, path, _ = _long_file(tmp_path, "predictions")
    preds, again = load_predictions(path), load_predictions(path)
    assert all(a.flags.writeable for pair in preds.values() for a in pair)
    ids = list(preds)
    changed = {SCORE_BLOCK_VIDEOS - 1, SCORE_BLOCK_VIDEOS}
    for i in changed:
        for array in preds[ids[i]]:
            array[...] = 0.5
    for i, vid in enumerate(ids):
        same = all(np.array_equal(a, b) for a, b in zip(preds[vid], again[vid]))
        assert same is (i not in changed), i


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
    # every array of a corpus record is a payload: the tokens and the 0/1 fields
    assert all(raw.count(b'"b64"') == 5 for _, raw in list(json_lines(corpus_path))[1:])
    twins = (load_corpus(corpus_path), load_predictions(preds_path))
    _as_nested_lists(corpus_path)
    _as_nested_lists(preds_path)
    assert b'"b64"' not in corpus_path.read_bytes() + preds_path.read_bytes()
    loaded_corpus, loaded_preds = load_corpus(corpus_path), load_predictions(preds_path)
    assert loaded_corpus == twins[0] == corpus
    for vid, (pa, pv) in preds.items():
        for a, b, c in zip(loaded_preds[vid], twins[1][vid], (pa, pv)):
            assert a.tobytes() == b.tobytes() == c.tobytes()


def test_a_corpus_with_its_0_1_fields_as_nested_lists_loads_equal(tmp_path):
    """The layout written before integer payloads: float payloads, integer nested lists.
    It loads to the same corpus, which saves again to today's bytes."""
    _, path, _ = _long_file(tmp_path, "corpus")
    today = path.read_bytes()
    want = load_corpus(path)
    records = [parse_record(raw, (), path, line_no) for line_no, raw in json_lines(path)]
    path.write_text("".join(
        _ENCODER.encode({k: v.tolist() if getattr(v, "dtype", None) == np.uint8 else v for k, v in r.items()})
        + "\n"
        for r in records
    ))
    for _, raw in list(json_lines(path))[1:]:
        assert raw.count(b'"b64"') == 2 and b'"weak_label": [' in raw
    loaded = load_corpus(path)
    assert loaded == want
    for s in loaded.samples:
        assert s.weak_label.dtype == s.gt.audio.dtype == s.gt.visual.dtype == np.int64
    save_corpus(loaded, path)
    assert path.read_bytes() == today
