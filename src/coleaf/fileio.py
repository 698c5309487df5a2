"""Crash-safe output, and the one place JSON files are encoded and parsed.

In every file coleaf writes, every float or integer array is one payload
object, `{"dtype": "<f8", "shape": [...], "b64": "..."}`: the base64 of its
little-endian bytes in C order, float64 for a float array and the array's own
integer dtype (`|u1`, `<i8`, ...) for an integer one, so a round trip is
bit-exact without turning each number into text. Bool arrays stay JSON
booleans. Readers take a nested list as well.

`write_json_lines` writes every data file (corpora, predictions, parameters)
and formats each record's line by that layout, not through the generic JSON
walk, and writes the bytes the JSON encoder would; `write_json` writes only
the indented training log, which holds no arrays. One reader,
`read_records`, reads the corpus and prediction records: it owns the record
loop, the id rule and the blocks, and its callers give only their keys and
one block builder. A block that fails is built again one record at a time by
that builder, so the error names the faulty line. Each payload's base64 is
left to `stack_payloads`, which decodes a block's payloads of one field into
one buffer, and `parse_record` decodes each payload as a block of one, so
`stack_payloads` is the one base64 decoder and names a fault in the same words
for both.
"""
from __future__ import annotations

import binascii
import json
import math
import os
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import FileFormatError
from .records import SCORE_BLOCK_VIDEOS


@contextmanager
def atomic_write(path):
    """Open `path` for writing text so that it ends up holding either its old
    content or all of the new, never part of it.

    The text goes to a temp file in the same directory, which is flushed to
    disk and then renamed over `path` once the block finishes. If the block
    raises, the temp file is removed and `path` is left as it was. The temp
    file's name is no longer than `path`'s last part once that is long, so a
    name the file system takes never fails for its temp file. An `OSError` of
    the open, the writes or the rename names `path`, not the temp file.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    suffix = f".{os.getpid()}.tmp"
    # a long `tail` is cut by as many characters as "." and `suffix` add; a short one keeps 8
    tmp = os.path.join(head, f".{tail[: max(8, len(tail) - len(suffix) - 1)]}{suffix}")
    try:
        fh = open(tmp, "w", encoding="utf-8")
    except OSError as err:
        raise type(err)(err.errno, err.strerror, path) from None
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as err:
        os.unlink(tmp)
        if isinstance(err, OSError) and err.filename in (None, tmp):
            raise type(err)(err.errno, err.strerror, path) from None
        raise


def write_json(path, record):
    """Atomically write `record`, which holds no arrays, as one JSON document indented by
    two spaces, with no trailing newline."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(record, indent=2))


_PAYLOAD_KEYS = frozenset(("dtype", "shape", "b64"))
# the dtype a payload may name: float64, which every float array is written as, or the
# little-endian form of an integer array's own dtype
_PAYLOAD_DTYPES = {
    name: np.dtype(name) for name in ("<f8", "|i1", "|u1", "<i2", "<u2", "<i4", "<u4", "<i8", "<u8")
}
_INT_DTYPES_TEXT = ", ".join(repr(name) for name in _PAYLOAD_DTYPES if name != "<f8")


def _payload_fields(array):
    """The dtype string, shape and base64 text of a float or integer array's payload: its
    little-endian float64 bytes, or those of its own integer dtype, in C order."""
    dtype = np.dtype("<f8") if array.dtype.kind == "f" else array.dtype.newbyteorder("<")
    data = np.asarray(array, dtype=dtype, order="C")
    return dtype.str, data.shape, binascii.b2a_base64(data, newline=False).decode("ascii")


def _payload(array):
    """A float or integer array as a payload object; any other array as a nested list."""
    if not isinstance(array, np.ndarray) or array.dtype.kind not in "fiu":
        return np.ndarray.tolist(array)
    dtype, shape, b64 = _payload_fields(array)
    return {"dtype": dtype, "shape": shape, "b64": b64}


class _PayloadError(ValueError):
    """A payload object that does not describe a float64 or integer array."""


class _Deferred(dict):
    """A payload object whose dtype and shape are checked and whose b64 is not decoded yet."""


def _checked_payload(obj):
    """`obj` as a `_Deferred` if it is a payload object of the right dtype and shape, else `obj`."""
    if obj.keys() != _PAYLOAD_KEYS:
        return obj
    dtype, shape = obj["dtype"], obj["shape"]
    if not isinstance(dtype, str) or dtype not in _PAYLOAD_DTYPES:
        raise _PayloadError(
            f"payload dtype must be '<f8', got {dtype!r}; an integer payload may also be {_INT_DTYPES_TEXT}"
        )
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise _PayloadError(f"payload shape must be a list of non-negative integers, got {shape!r}")
    return _Deferred(obj)


def _from_payload(obj):
    """`obj` decoded to a writable array of its dtype if it is a payload object, else `obj`."""
    obj = _checked_payload(obj)
    if type(obj) is not _Deferred:
        return obj
    return stack_payloads([obj]).reshape(obj["shape"])


# Built once rather than per line: both are stateless between calls. The writers build
# plain trees of dicts, lists and arrays, so the encoder's cycle check would never fire.
_ENCODER = json.JSONEncoder(default=_payload, check_circular=False)
_DECODER = json.JSONDecoder(object_hook=_from_payload)


def _value_text(value):
    """`value` as JSON text, the text `_ENCODER` gives it, with float and integer arrays
    formatted as their payload text rather than walked."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        dtype, shape, b64 = _payload_fields(value)
        return f'{{"dtype": "{dtype}", "shape": {list(shape)}, "b64": "{b64}"}}'
    return _ENCODER.encode(value)


def _line(record):
    """`record` as one line of JSON text; a dict record's keys must be strings."""
    if not isinstance(record, dict):
        return _ENCODER.encode(record)
    items = (f"{encode_basestring_ascii(k)}: {_value_text(v)}" for k, v in record.items())
    return "{" + ", ".join(items) + "}"


def write_json_lines(path, records):
    """Atomically write each record as one line of JSON, float and integer arrays as
    payload objects and other arrays as nested lists."""
    with atomic_write(path) as fh:
        for record in records:
            fh.write(_line(record) + "\n")


def json_lines(path):
    """Yield `(line_no, bytes)` for each line of a JSON Lines file that is not blank,
    without its line break."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isspace():  # a line is never empty, so this means "not blank"
                yield line_no, line.rstrip(b"\r\n")


def parse_record(raw, required, path, line_no=1):
    """Decode the bytes `raw`, which start at `line_no` of `path`, as one JSON object holding
    every key in `required`; each payload object in it becomes an array of its dtype.

    Bytes that are not UTF-8 or not JSON, a value that is not an object, a
    missing key or a bad payload raise `FileFormatError` at the line concerned
    (for a payload, the line `raw` starts at).
    """
    return _decode(_DECODER, raw, required, path, line_no)


def _decode(decoder, raw, required, path, line_no):
    """`parse_record` with `decoder` in place of the one that decodes every payload."""
    try:
        # decoded as `json.loads` decodes bytes, so a UTF-8 BOM is still accepted
        record = decoder.decode(raw.decode(json.detect_encoding(raw), "surrogatepass"))
    except json.JSONDecodeError as err:
        raise FileFormatError(f"{path}:{line_no + err.lineno - 1}: {err.msg}") from err
    except _PayloadError as err:
        raise FileFormatError(f"{path}:{line_no}: {err}") from err
    except UnicodeDecodeError as err:
        line_no += err.object.count(b"\n", 0, err.start)
        raise FileFormatError(f"{path}:{line_no}: not UTF-8 text") from err
    if not isinstance(record, dict):
        raise FileFormatError(f"{path}:{line_no}: expected a JSON object")
    for key in required:
        if key not in record:
            raise FileFormatError(f"{path}:{line_no}: missing key {key}")
    return record


def _record_parser(path, required, deferred):
    """A `parse(raw, line_no)` that reads a line of `path` as `parse_record` does, except
    that a payload object under a key in `deferred` stays undecoded, for `stack_payloads`;
    a key in `deferred` may also be absent or hold another value.

    Its dtype and shape are checked at its line, its base64 and byte count
    only when it is decoded, so `parse` passes some lines that `parse_record`
    rejects. A line with a payload anywhere else is read by `parse_record`.
    """
    seen = 0

    def defer(obj):
        nonlocal seen
        obj = _checked_payload(obj)
        seen += type(obj) is _Deferred
        return obj

    decoder = json.JSONDecoder(object_hook=defer)

    def parse(raw, line_no):
        nonlocal seen
        seen = 0
        record = _decode(decoder, raw, required, path, line_no)
        if seen != sum(type(record.get(key)) is _Deferred for key in deferred):
            return parse_record(raw, required, path, line_no)
        return record

    return parse


def stack_payloads(values):
    """`values` stacked into one writable array, `len(values)` x their shape; the one
    decoder of payload base64.

    Payloads that `read_records` deferred are decoded together into one
    buffer of their dtype; other values (nested lists, arrays, None) are each
    made an array and then stacked, so a ragged list is named by its own
    shape. A payload whose base64, byte count or shape is bad raises
    `_PayloadError`, which names the fault. Values that do not stack,
    payloads of more than one dtype or shape, or a mix of payloads and other
    values raise `ValueError` or `TypeError`.
    """
    deferred = sum(type(value) is _Deferred for value in values)
    if not values or deferred < len(values):
        if deferred:
            raise ValueError("the block mixes payloads and other values")
        return np.stack([np.asarray(value) for value in values])
    name, shape = values[0]["dtype"], values[0]["shape"]
    if any(value["dtype"] != name or value["shape"] != shape for value in values):
        raise ValueError("the payloads differ in dtype or shape")
    dtype = _PAYLOAD_DTYPES[name]
    need = dtype.itemsize * math.prod(shape)
    parts = []
    for value in values:
        try:
            part = binascii.a2b_base64(value["b64"], strict_mode=True)
        except (TypeError, ValueError) as err:  # binascii.Error is a ValueError
            raise _PayloadError(f"payload b64 is not base64: {err}") from None
        if len(part) != need:
            raise _PayloadError(f"payload holds {len(part)} bytes, shape {shape} of {dtype.name} needs {need}")
        parts.append(part)
    stack = np.frombuffer(bytearray().join(parts), dtype=dtype)  # over a bytearray, so writable
    try:
        stack = stack.reshape(len(values), *shape)
    except (ValueError, OverflowError) as err:  # more axes, or a longer axis, than numpy allows
        raise _PayloadError(f"payload shape {shape} does not fit an array: {err}") from None
    return stack.astype(dtype.newbyteorder("="), copy=False)


def _check_video_id(vid, first_lines, path, line_no):
    """Record that `vid` is read at `line_no` of `path`; reject a non-string or repeated id.

    `first_lines` maps each id read so far to its line.
    """
    if not isinstance(vid, str):
        raise FileFormatError(f"{path}:{line_no}: id must be a string, got {vid!r}")
    if vid in first_lines:
        raise FileFormatError(f"{path}:{line_no}: id {vid!r} repeats line {first_lines[vid]}")
    first_lines[vid] = line_no


def read_records(path, lines, required, deferred, stacked):
    """Read `lines`, the `(line_no, bytes)` of `path` that `json_lines` yields, as records
    that each hold every key in `required` and a unique string "id"; return the list of
    what `stacked` builds from them, and the last line read (0 for none).

    A payload under a key in `deferred` is left for `stack_payloads`. Records
    are gathered `SCORE_BLOCK_VIDEOS` at a time and `stacked(records)` builds a
    block's items. If that raises `TypeError`, `ValueError` or `OverflowError`,
    `stacked` builds each record of the block alone, in line order, and the
    first such error is a `FileFormatError` at its record's line. A line that
    does not parse or repeats an id is reported after the block before it is
    built, so the earliest faulty line is the one named.
    """
    parse = _record_parser(path, required, deferred)
    built, id_lines, block, line_no = [], {}, [], 0
    for line_no, raw in lines:
        try:
            rec = parse(raw, line_no)
            _check_video_id(rec["id"], id_lines, path, line_no)
        except FileFormatError:
            _build(block, path, stacked)  # an earlier line's fault comes first,
            parse_record(raw, required, path, line_no)  # then this line's, payloads decoded
            raise
        block.append((line_no, rec))
        if len(block) == SCORE_BLOCK_VIDEOS:
            built += _build(block, path, stacked)
            block = []
    built += _build(block, path, stacked)
    return built, line_no


def _build(block, path, stacked):
    """The items of `block`, a list of `(line_no, record)`: `stacked` of its records, or
    else `stacked` of each record alone, so an error names the first faulty line."""
    if not block:
        return []
    try:
        return stacked([rec for _, rec in block])
    except (TypeError, ValueError, OverflowError):  # ragged stacks too; DimensionError is a ValueError
        pass
    items = []
    for line_no, rec in block:
        try:  # a bad payload's `_PayloadError` is a ValueError
            items += stacked([rec])
        except (TypeError, ValueError, OverflowError) as err:
            raise FileFormatError(f"{path}:{line_no}: {err}") from err
    return items
