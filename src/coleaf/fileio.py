"""Crash-safe output, and the one place JSON data files are encoded and parsed.

In JSON Lines data files every float array is one payload object,
`{"dtype": "<f8", "shape": [...], "b64": "..."}`: the base64 of its
little-endian float64 bytes, so a round trip is bit-exact without turning
each float into text. Readers take a nested list as well.
"""
from __future__ import annotations

import base64
import json
import math
import os
from contextlib import contextmanager

import numpy as np

from .errors import FileFormatError


@contextmanager
def atomic_write(path):
    """Open `path` for writing text so that it ends up holding either its old
    content or all of the new, never part of it.

    The text goes to a temp file in the same directory, which is flushed to
    disk and then renamed over `path` once the block finishes. If the block
    raises, the temp file is removed and `path` is left as it was.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w", encoding="utf-8")
    except OSError as err:  # name the file the caller asked for, not the temp file
        raise type(err)(err.errno, err.strerror, path) from None
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json(path, record, indent=None):
    """Atomically write `record` as one JSON document, with no trailing newline; numpy
    arrays are written as nested lists."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(record, indent=indent, default=np.ndarray.tolist))


_PAYLOAD_KEYS = frozenset(("dtype", "shape", "b64"))


def _payload(array):
    """A float array as a payload object; any other array as a nested list."""
    if not isinstance(array, np.ndarray) or array.dtype.kind != "f":
        return np.ndarray.tolist(array)
    data = np.asarray(array, dtype="<f8", order="C")
    return {"dtype": "<f8", "shape": data.shape, "b64": base64.b64encode(data).decode("ascii")}


class _PayloadError(ValueError):
    """A payload object that does not describe a float64 array."""


def _from_payload(obj):
    """`obj` decoded to a writable float64 array if it is a payload object, else `obj`."""
    if obj.keys() != _PAYLOAD_KEYS:
        return obj
    shape, b64 = obj["shape"], obj["b64"]
    if obj["dtype"] != "<f8":
        raise _PayloadError(f"payload dtype must be '<f8', got {obj['dtype']!r}")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise _PayloadError(f"payload shape must be a list of non-negative integers, got {shape!r}")
    try:
        raw = base64.b64decode(b64, validate=True)
    except (TypeError, ValueError) as err:  # binascii.Error is a ValueError
        raise _PayloadError(f"payload b64 is not base64: {err}") from None
    need = 8 * math.prod(shape)
    if len(raw) != need:
        raise _PayloadError(f"payload holds {len(raw)} bytes, shape {shape} of float64 needs {need}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


# Built once rather than per line: both are stateless between calls. The writers build
# plain trees of dicts, lists and arrays, so the encoder's cycle check would never fire.
_ENCODER = json.JSONEncoder(default=_payload, check_circular=False)
_DECODER = json.JSONDecoder(object_hook=_from_payload)


def write_json_lines(path, records):
    """Atomically write each record as one line of JSON, float arrays as payload
    objects and other arrays as nested lists."""
    with atomic_write(path) as fh:
        for record in records:
            fh.write(_ENCODER.encode(record) + "\n")


def json_lines(path):
    """Yield `(line_no, bytes)` for each line of a JSON Lines file that is not blank,
    without its line break."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isspace():  # a line is never empty, so this means "not blank"
                yield line_no, line.rstrip(b"\r\n")


def parse_record(raw, required, path, line_no=1):
    """Decode the bytes `raw`, which start at `line_no` of `path`, as one JSON object holding
    every key in `required`; each payload object in it becomes a float64 array.

    Bytes that are not UTF-8 or not JSON, a value that is not an object, a
    missing key or a bad payload raise `FileFormatError` at the line concerned
    (for a payload, the line `raw` starts at).
    """
    try:
        # decoded as `json.loads` decodes bytes, so a UTF-8 BOM is still accepted
        record = _DECODER.decode(raw.decode(json.detect_encoding(raw), "surrogatepass"))
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
