"""Portable deterministic random numbers.

All randomness in the toolkit (fold shuffling, synthetic corpora) flows
through SplitMix64 so that identical seeds give byte-identical outputs on
every platform.  SplitMix64 is counter-based: output i of a stream is a
fixed mix of ``seed + i * gamma`` (mod 2**64), so ``SplitMix64`` computes
its outputs in blocks with numpy uint64 arrays.  uint64 arithmetic wraps
exactly like the masked Python-int step, so the stream is still the same
on every Python and numpy version.
"""

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15

_BLOCK = 1024  # outputs a generator computes at once
# gamma * [1 .. _BLOCK] mod 2**64: one block's offsets from the state
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_BLOCK_STEP = (_BLOCK * _GAMMA) & MASK64


def _mix(z):
    """SplitMix64's output function, on a Python int below 2**64 or on a
    uint64 array (which wraps where the int is masked)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _block(state: int) -> np.ndarray:
    """The ``_BLOCK`` outputs that follow ``state``, as a uint64 array."""
    return _mix(_STEPS + np.uint64(state))


def splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (next_state, output)."""
    state = (state + _GAMMA) & MASK64
    return state, _mix(state)


def fnv1a64(text: str) -> int:
    """FNV-1a hash of a UTF-8 string; stable across runs (unlike hash())."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & MASK64
    return h


def derive_seed(base: int, *parts: int | str) -> int:
    """Mix a base seed with extra components (strings or ints)."""
    state = base & MASK64
    for part in parts:
        k = fnv1a64(part) if isinstance(part, str) else (part & MASK64)
        state, out = splitmix64(state ^ k)
        state ^= out
    _, out = splitmix64(state)
    return out


class SplitMix64:
    """Tiny deterministic RNG with the handful of draws the toolkit needs."""

    def __init__(self, seed: int):
        self._state = seed & MASK64  # the state after the pending outputs
        self._pending: list[int] = []  # the next outputs, last one first

    def next_u64(self) -> int:
        if not self._pending:
            self._pending = _block(self._state).tolist()[::-1]
            self._state = (self._state + _BLOCK_STEP) & MASK64
        return self._pending.pop()

    def uniform(self) -> float:
        """Float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection sampling."""
        if not 1 <= n <= MASK64 + 1:
            raise ValueError("randrange() requires 1 <= n <= 2**64")
        limit = (MASK64 + 1) - ((MASK64 + 1) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]

    def categorical(self, weights: list[float]) -> int:
        """Index drawn proportionally to non-negative weights."""
        total = sum(weights)
        if total <= 0:
            raise ValueError("categorical() requires positive total weight")
        u = self.uniform() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return len(weights) - 1

    def bernoulli(self, p: float) -> bool:
        return self.uniform() < p
