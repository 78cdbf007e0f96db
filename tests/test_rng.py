import math
import random

import pytest

import padcrypt as pc
from padcrypt.bits import BitString
from padcrypt.rng import OsRandomSource, RandomSource


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 53, 64, 1000])
def test_os_bits_have_the_asked_length(n):
    bits = OsRandomSource().bits(n)
    assert len(bits) == n
    assert 0 <= bits.value < 1 << n


def test_os_bits_reach_both_ends():
    # a shift off by one would pin the first or the last bit
    draws = [OsRandomSource().bits(9) for _ in range(64)]
    assert {b.value >> 8 for b in draws} == {0, 1}
    assert {b.value & 1 for b in draws} == {0, 1}


class FixedBits(RandomSource):
    def __init__(self, value):
        self.value = value

    def bits(self, n):
        return BitString(self.value, n)


def unit(rng):
    """The float in [0, 1) that empirical_uniformity draws a message with."""
    return rng.bits(53).value / (1 << 53)


def test_os_uniform_is_in_the_unit_interval():
    assert all(0.0 <= unit(OsRandomSource()) < 1.0 for _ in range(64))
    # its ends: 53 bits are exactly a double's precision, so neither rounds
    assert unit(FixedBits(0)) == 0.0
    assert unit(FixedBits((1 << 53) - 1)) == math.nextafter(1.0, 0.0)


def test_os_draws_match_system_random(monkeypatch):
    # the same bytes give what random.SystemRandom (behind secrets) returns
    def fixed(n):
        return bytes(i % 256 for i in range(200, 200 + n))

    monkeypatch.setattr("os.urandom", fixed)
    monkeypatch.setattr(random, "_urandom", fixed)
    system = random.SystemRandom()
    for n in (0, 1, 7, 8, 9, 53, 64, 1000):
        assert OsRandomSource().bits(n).value == system.getrandbits(n)
    assert unit(OsRandomSource()) == system.random()


class OnlyBits(RandomSource):
    """A stand-in source with the one method a source has."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def bits(self, n):
        return BitString(self._rng.getrandbits(n), n)


def test_a_source_that_defines_only_bits_drives_every_draw():
    space = pc.MessageSpace([b"a", b"b", b"c"], [0.5, 0.25, 0.25])
    code = pc.build_huffman(space)
    rng = OnlyBits(16)
    alice = pc.generate_pool(64, rng)
    bob = pc.KeyPool(alice.material, alice.cursor, alice.pool_id)
    for m in space.messages:
        frame = pc.write_frame(pc.encrypt(m, code, alice, rng), code, rng)
        assert pc.decrypt(pc.read_frame(frame, code), code, bob) == m
    assert sum(pc.empirical_uniformity(space, code, rng, 100).counts) == 100
