"""Portable deterministic random numbers.

All randomness in the toolkit (fold shuffling, synthetic corpora) flows
through SplitMix64 so that identical seeds give byte-identical outputs on
every platform, independent of Python or numpy versions.
"""

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (next_state, output)."""
    state = (state + _GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    z = z ^ (z >> 31)
    return state, z


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
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state, out = splitmix64(self._state)
        return out

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
