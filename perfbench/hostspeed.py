"""The host's speed over a timed span, from a fixed reference routine.

The VM the benchmark runs on does not run Python at one speed: the same code
takes up to twice as long in a slow spell of the host as in a fast one, and
the spells last from under a second to minutes. The reference routine below
is a fixed mix of the work coleaf does at these shapes (JSON encoding and
decoding, dict and list code, chains of small numpy arrays kept alive as an
autograd graph keeps them). It uses no coleaf code, so no change to coleaf
moves its time; only the host and the Python and numpy builds do. Its time
divided by REFERENCE_S is the host factor: 2.0 means the host runs Python at
half the reference speed.

A `Sampler` times the routine whenever `sample()` is called and, while
`periodic()` is active, every `interval_s` seconds from a SIGALRM handler, so
that a span of several seconds is sampled throughout and not only at its
ends. `over(start, end)` gives the span's host factor (the mean of the
samples in it and the one on either side) and the seconds the handler spent
inside it. A span's reference seconds are its wall seconds, less that
intrusion, divided by its factor: the time it would have taken on a host
that runs the routine in REFERENCE_S.
"""
from __future__ import annotations

import bisect
import contextlib
import json
import signal
import time

import numpy as np

# The routine's time in a fast spell of a 2-vCPU x86-64 VM, Python 3.11.7,
# numpy 2.4.6. Fixed, so that reference seconds compare across runs.
REFERENCE_S = 0.010
INTERVAL_S = 0.3  # the handler then takes about 3% of the run

_RECORD = {
    "id": "reference",
    "values": [[round(0.137 * i + 0.71 * j, 6) for i in range(16)] for j in range(10)],
    "label": "x" * 24,
}
_ARRAY = np.linspace(-1.0, 1.0, 160).reshape(10, 16)
_WEIGHTS = np.linspace(-0.5, 0.5, 80).reshape(16, 5)


def routine():
    """The fixed reference work; returns a checksum so nothing is skipped.

    Two halves, each resembling one side of coleaf. The first is what a parse
    shard does: JSON, dicts and lists, and numpy arrays used and dropped. The
    second is what training does: a chain of small array operations whose
    results all stay alive until a backward walk over them, as an autograd
    graph does. A training run's time follows the second half's more closely
    than the first's, since its working set is a few megabytes rather than a
    few kilobytes.
    """
    acc = 0.0
    for _ in range(40):
        record = json.loads(json.dumps(_RECORD))
        for row in record["values"]:
            acc += sum(row)
        a = _ARRAY
        for k in range(8):
            a = np.tanh(a * 0.5 + 0.01 * k)
            acc += float((a @ _WEIGHTS).max())
        table = {i: i * i for i in range(150)}
        acc += sum(table.values())
    nodes = []
    a = _ARRAY
    for k in range(300):
        pre = a * 0.5 + 0.01 * k
        a = np.tanh(pre)
        out = a @ _WEIGHTS
        nodes.append((pre, a, out, np.exp(-np.abs(out))))
    grad = np.ones((10, 5))
    for pre, act, out, gate in reversed(nodes):
        grad = grad * gate
        acc += float(grad.sum()) + float((act * (1.0 - act * act)).mean())
    return acc


class Sampler:
    """Host-factor samples, kept in time order as (start, seconds) pairs."""

    def __init__(self, interval_s=INTERVAL_S):
        self.interval_s = interval_s
        self.starts = []
        self.seconds = []
        self._busy = False

    def sample(self):
        """Time the routine now and record the sample."""
        if self._busy:  # the alarm went off inside a sample
            return
        self._busy = True
        try:
            start = time.perf_counter()
            routine()
            self.seconds.append(time.perf_counter() - start)
            self.starts.append(start)
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame):
        self.sample()

    @contextlib.contextmanager
    def periodic(self):
        """Sample every `interval_s` seconds until the block ends."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def over(self, start, end):
        """(host factor, sampling seconds inside) of the span [start, end)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        intrusion = sum(self.seconds[lo:hi])
        window = self.seconds[max(lo - 1, 0) : hi + 1]
        if not window:
            return 1.0, intrusion
        return sum(window) / len(window) / REFERENCE_S, intrusion
