"""Crash-safe output, and the one place JSON data files are encoded and parsed."""
from __future__ import annotations

import json
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


def write_json_lines(path, records):
    """Atomically write each record as one line of JSON, arrays as in `write_json`."""
    encode = json.JSONEncoder(default=np.ndarray.tolist).encode
    with atomic_write(path) as fh:
        for record in records:
            fh.write(encode(record) + "\n")


def json_lines(path):
    """Yield `(line_no, bytes)` for each line of a JSON Lines file that is not blank,
    without its line break."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                yield line_no, line.rstrip(b"\r\n")


def parse_record(raw, required, path, line_no=1):
    """Decode `raw`, which starts at `line_no` of `path`, as one JSON object holding
    every key in `required`.

    Bytes that are not UTF-8 or not JSON, a value that is not an object, or a
    missing key raise `FileFormatError` at the line concerned.
    """
    try:
        record = json.loads(raw)
    except json.JSONDecodeError as err:
        raise FileFormatError(f"{path}:{line_no + err.lineno - 1}: {err.msg}") from err
    except UnicodeDecodeError as err:
        line_no += err.object.count(b"\n", 0, err.start)
        raise FileFormatError(f"{path}:{line_no}: not UTF-8 text") from err
    if not isinstance(record, dict):
        raise FileFormatError(f"{path}:{line_no}: expected a JSON object")
    for key in required:
        if key not in record:
            raise FileFormatError(f"{path}:{line_no}: missing key {key}")
    return record
