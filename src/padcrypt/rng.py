"""Random bit sources: a CSPRNG default and a seeded source for tests."""

from __future__ import annotations

import random
import secrets

from .bits import BitString


class RandomSource:
    """Supplier of independent uniform bits."""

    insecure = False

    def bits(self, n: int) -> BitString:
        raise NotImplementedError

    def uniform(self) -> float:
        """Float in [0, 1), for sampling messages in empirical tests."""
        raise NotImplementedError


class OsRandomSource(RandomSource):
    """OS-backed cryptographically secure source (the default)."""

    def bits(self, n: int) -> BitString:
        return BitString(secrets.randbits(n), n)

    def uniform(self) -> float:
        return secrets.randbits(53) / (1 << 53)


class SeededRandomSource(RandomSource):
    """Deterministic PRNG for tests and reproducible runs. NOT secure."""

    insecure = True

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def bits(self, n: int) -> BitString:
        return BitString(self._rng.getrandbits(n) if n else 0, n)

    def uniform(self) -> float:
        return self._rng.random()
