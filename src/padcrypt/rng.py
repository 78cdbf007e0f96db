"""Random bit sources: a CSPRNG default and a seeded source for tests."""

from __future__ import annotations

import os
import random

from .bits import BitString


def _os_randbits(n: int) -> int:
    """n bits from os.urandom, as `random.SystemRandom.getrandbits` (and so
    `secrets.randbits`) draws them, without importing `secrets`, which loads
    `hashlib` and `hmac`."""
    return int.from_bytes(os.urandom((n + 7) // 8), "big") >> (-n % 8)


class RandomSource:
    """Supplier of independent uniform bits."""

    def bits(self, n: int) -> BitString:
        raise NotImplementedError

    def uniform(self) -> float:
        """Float in [0, 1), for sampling messages in empirical tests."""
        raise NotImplementedError


class OsRandomSource(RandomSource):
    """OS-backed cryptographically secure source (the default)."""

    def bits(self, n: int) -> BitString:
        return BitString(_os_randbits(n), n)

    def uniform(self) -> float:
        return _os_randbits(53) / (1 << 53)


class SeededRandomSource(RandomSource):
    """Deterministic PRNG for tests and reproducible runs. NOT secure."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def bits(self, n: int) -> BitString:
        return BitString(self._rng.getrandbits(n) if n else 0, n)

    def uniform(self) -> float:
        return self._rng.random()
