import random

import pytest

from padcrypt.rng import OsRandomSource


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


def test_os_uniform_is_in_the_unit_interval():
    assert all(0.0 <= OsRandomSource().uniform() < 1.0 for _ in range(64))


def test_os_draws_match_system_random(monkeypatch):
    # the same bytes give what random.SystemRandom (behind secrets) returns
    def fixed(n):
        return bytes(i % 256 for i in range(200, 200 + n))

    monkeypatch.setattr("os.urandom", fixed)
    monkeypatch.setattr(random, "_urandom", fixed)
    system = random.SystemRandom()
    for n in (0, 1, 7, 8, 9, 53, 64, 1000):
        assert OsRandomSource().bits(n).value == system.getrandbits(n)
    assert OsRandomSource().uniform() == system.random()
