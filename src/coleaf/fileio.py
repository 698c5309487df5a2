"""Crash-safe text output."""
from __future__ import annotations

import os
from contextlib import contextmanager


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
