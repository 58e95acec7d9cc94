"""The machine's speed, sampled while an operation runs.

The host this benchmark runs on shares its cores with other machines, and its
speed drifts by a third or more over minutes and by more than a tenth over
seconds.  While an untraced operation runs, a background thread wakes every
``INTERVAL_S`` seconds, takes the interpreter lock and does a fixed, small
piece of library-free work, timed by that thread's own CPU clock.  The clock
counts only the time the piece ran, not the time it waited for the lock, so
a piece takes longer exactly when the core runs slower.  An operation's wall
time divided by the median time of the pieces sampled during it stays put
while the host speeds up or slows down, and moves when the library does.

The piece follows the library's hot paths: hashing keys into sets and dicts
(the diagonal classes of ``biset.verify_stability``) and composing
permutations of the 7792 points the C2 biset has (the witnesses).  It
allocates no object the garbage collector tracks: an allocation could start
a collection of the operation's heap, and the piece's clock would count it."""

from __future__ import annotations

import threading
import time

import numpy as np

INTERVAL_S = 0.5
PYTHON_STEPS = 6_000
COMPOSITIONS = 200
POINTS = 7792
# seed of the permutation; fixed, so every piece does the same work
PERMUTATION_SEED = 7


def reference_piece(seen: set, table: dict, p: np.ndarray, q: np.ndarray, r: np.ndarray) -> None:
    """About 10 ms of work on the baseline machine, in containers made once."""
    seen.clear()
    table.clear()
    x = 1
    for i in range(PYTHON_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 0xFFFFF) << 3 | (i & 7)
        if key not in seen:
            seen.add(key)
        table[key] = table.get(key, 0) + 1
    q[:] = p
    for _ in range(COMPOSITIONS):
        np.take(p, q, out=r)
        q, r = r, q


class SpeedSampler:
    """``with sampler: ...`` times reference pieces in a background thread
    while the block runs and leaves their CPU seconds in ``samples``."""

    def __init__(self):
        permutation = np.random.default_rng(PERMUTATION_SEED).permutation(POINTS)
        self._work = (set(), {}, permutation, np.empty_like(permutation), np.empty_like(permutation))
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _loop(self) -> None:
        # one piece at once, so that even a short block gets a sample
        while True:
            t0 = time.thread_time()
            reference_piece(*self._work)
            self.samples.append(time.thread_time() - t0)
            if self._stop.wait(INTERVAL_S):
                return

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, name="speed-sampler", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._thread = None
