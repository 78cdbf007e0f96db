"""Shared test helpers: independent oracles and random distribution makers."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from padcrypt import MessageSpace


def kraft_sum(lengths) -> Fraction:
    return sum(Fraction(1, 2 ** n) for n in lengths)


def brute_force_optimal_average(probs) -> Fraction:
    """Minimum average length over all prefix-free length profiles.

    Independent of the Huffman implementation: enumerates every
    nondecreasing length multiset satisfying the Kraft inequality and pairs
    the largest probabilities with the shortest lengths.  Feasible for
    L <= 6 (codeword lengths never need to exceed L - 1).
    """
    L = len(probs)
    assert L >= 2
    ordered = sorted((Fraction(p) for p in probs), reverse=True)
    best = None
    for lengths in itertools.combinations_with_replacement(range(1, L), L):
        if kraft_sum(lengths) > 1:
            continue
        avg = sum(p * n for p, n in zip(ordered, lengths))
        if best is None or avg < best:
            best = avg
    assert best is not None
    return best


def random_rational_space(rng: random.Random, L: int,
                          max_weight: int = 20) -> MessageSpace:
    """L distinct messages with positive exact-rational probabilities."""
    weights = [rng.randint(1, max_weight) for _ in range(L)]
    total = sum(weights)
    messages = [bytes([i]) for i in range(L)]
    return MessageSpace(messages, [Fraction(w, total) for w in weights])


def random_float_space(rng: random.Random, L: int) -> MessageSpace:
    weights = [rng.random() + 0.01 for _ in range(L)]
    total = sum(weights)
    messages = [i.to_bytes(2, "big") for i in range(L)]
    return MessageSpace(messages, [w / total for w in weights])


def tied_exact_space(rng: random.Random, L: int) -> MessageSpace:
    """Exact probabilities with ties, zeros and mixed denominators."""
    parts = [Fraction(rng.choice([0, 1, 1, 2, 3]), rng.choice([1, 2, 3, 4, 6, 7, 12]))
             for _ in range(L)]
    if not any(parts):
        parts[0] = Fraction(1)
    total = sum(parts)
    return MessageSpace([bytes([i]) for i in range(L)], [p / total for p in parts])


# --- reference formulas on the probabilities themselves -----------------
#
# These sum the space's Fractions (or floats) directly, as padcrypt did before
# it computed on the integer weights; they are the slow, obvious form that
# key_cost, shannon_entropy and leak_mutual_information must match exactly.

def reference_key_cost(space: MessageSpace, code):
    return sum(p * len(code.codebook[m]) for m, p in zip(space.messages, space.probs))


def reference_entropy(probs) -> float:
    probs = [p for p in probs if p > 0]
    total = sum(probs)
    return max(0.0, -sum(q * math.log2(q) for q in (float(p / total) for p in probs)))


def reference_leak(space: MessageSpace, code, observable: str) -> float:
    dist: dict = {}
    for m, p in zip(space.messages, space.probs):
        o = code.max_len if observable == "ciphertext-length" else len(code.codebook[m])
        dist[o] = dist.get(o, 0) + p
    return reference_entropy(dist.values())


@pytest.fixture
def seeded():
    return random.Random(0xC0DE)
