"""CPU speed probe, for times that do not drift with the host's load.

On a shared host the same code runs up to 45% slower for minutes at a
time while other tenants load the machine; no steal time is reported,
and CPU time inflates as much as wall time.  ``SpeedProbe`` runs two
fixed units on a background thread of the measured process every
50 ms and records each unit's thread CPU time:

- a pure-Python loop over small integers, which slows with the core's
  clock and its sibling's load;
- a numpy gather and segment sum over a 1.6 MB table, the access
  pattern of the CRF objective, which also slows with contention for
  the caches and memory.

Interpreted Python slows less than memory-bound numpy under the same
load, and spantag's work lies between the two, so ``factor`` is the
geometric mean of the two units' speeds, each ``REFERENCE`` time over
the mean unit time: a time multiplied by it reads as it would at the
reference speed.  The process must be pinned to one CPU so that the
probe shares it with the measured code.  Together the units take about
3% of that CPU.
"""

import math
import statistics
import threading
import time

import numpy as np

INTERVAL_S = 0.05
# about each unit's CPU time on an idle 2-CPU Xeon VM
REFERENCE_PY_S = 2.0e-4
REFERENCE_NP_S = 1.1e-3

_rng = np.random.default_rng(0)
_TABLE = _rng.standard_normal((40_000, 5))
_ROWS = _rng.integers(0, len(_TABLE), 20_000)
_SEGMENTS = np.arange(0, len(_ROWS), 20)


def _unit_py() -> int:
    total = 0
    for i in range(3000):
        total += i * i
    return total


def _unit_np() -> np.ndarray:
    return np.add.reduceat(_TABLE[_ROWS], _SEGMENTS, axis=0)


def _timed(unit) -> float:
    start = time.thread_time()
    unit()
    return time.thread_time() - start


class SpeedProbe:
    """Context manager; ``factor`` is valid after it exits."""

    def __init__(self):
        self.py_samples: list[float] = []
        self.np_samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        self.py_samples.append(_timed(_unit_py))
        self.np_samples.append(_timed(_unit_np))

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if not self.py_samples:
            self._sample()
        return False

    @property
    def factor(self) -> float:
        return math.sqrt(REFERENCE_PY_S / statistics.fmean(self.py_samples)
                         * REFERENCE_NP_S / statistics.fmean(self.np_samples))
