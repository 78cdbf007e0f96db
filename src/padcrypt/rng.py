"""Random bit sources: a CSPRNG default and a seeded source for tests."""

from __future__ import annotations

import os

from .bits import BitString


class RandomSource:
    """Supplier of independent uniform bits: `bits(n)` is its one draw."""

    def bits(self, n: int) -> BitString:
        raise NotImplementedError


class OsRandomSource(RandomSource):
    """OS-backed cryptographically secure source (the default)."""

    def bits(self, n: int) -> BitString:
        # n bits from os.urandom, unpacked MSB-first as a pool file's are: the
        # draw of `random.SystemRandom.getrandbits` (and so `secrets.randbits`),
        # without importing `secrets`, which loads `hashlib` and `hmac`
        return BitString.from_bytes(os.urandom((n + 7) // 8), n)


class SeededRandomSource(RandomSource):
    """Deterministic PRNG for tests and reproducible runs. NOT secure."""

    def __init__(self, seed: int):
        import random  # here, not at import: only a seeded source needs it

        self._rng = random.Random(seed)

    def bits(self, n: int) -> BitString:
        return BitString(self._rng.getrandbits(n), n)
