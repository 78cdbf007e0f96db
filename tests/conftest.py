"""Shared test helpers: independent oracles and random distribution makers."""

from __future__ import annotations

import itertools
import math
import random
import re
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


# a space file of four messages, in each message form a space file takes
SPACE_4 = """\
# four messages, uniform
"alpha" 1/4
"beta"  1/4
00ff    1/4
-       1/4
"""


# --- hostile and truncated input files -----------------------------------

# codebook files that load_codebook must refuse, each with its error text
HOSTILE_CODEBOOKS = {
    "codebook-version": ("padcrypt-codebook 2 huffman 1\n0 61 0\n",
                         "unsupported codebook version 2"),
    "codebook-count": ("padcrypt-codebook 1 huffman x\n0 61 0\n", "bad record count"),
    "codebook-fields": ("padcrypt-codebook 1 huffman 1\n0 61\n", "line 2: expected 3 fields"),
    "codebook-hex": ("padcrypt-codebook 1 huffman 1\n0 6z 0\n", "line 2: "),
    "codebook-bits": ("padcrypt-codebook 1 huffman 1\n0 61 02\n", "line 2: not a bit string"),
    "codebook-prefix": ("padcrypt-codebook 1 huffman 2\n0 61 0\n1 62 01\n",
                        "not prefix-free"),
    # a count or an index of 10^6 digits, which int() takes seconds to read
    # when the interpreter's limit on int() of a string is off
    "codebook-long-count": (f"padcrypt-codebook 1 huffman {'9' * 10 ** 6}\n0 61 0\n",
                            "record indices do not match header count"),
    "codebook-long-index": (f"padcrypt-codebook 1 huffman 1\n{'9' * 10 ** 6} 61 0\n",
                            "record indices do not match header count"),
}


def large_prime_space_file(count: int = 1000, below: int = 100_000) -> str:
    """A space file of `count` messages, each with probability 1/p for one
    of the `count` largest primes below `below`: its probabilities sum to
    about 0.0106, and as one fraction to thousands of digits."""
    sieve = bytearray([1]) * below
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(below) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, below, i)))
    primes = [i for i in range(below) if sieve[i]][-count:]
    return "".join(f"{i:04x} 1/{p}\n" for i, p in enumerate(primes))


def hostile_pools(blob: bytes) -> dict[str, tuple[bytes, str]]:
    """A saved pool's bytes cut inside the cursor field, and with the cursor
    one past the material, each with the error text KeyPool.load gives."""
    off = 6 + blob[5]  # the cursor field follows magic, version, id length and id
    nbits = int.from_bytes(blob[off + 8:off + 16], "big")
    return {
        "pool-cut-in-cursor": (blob[:off + 4], "truncated header"),
        "pool-cursor-beyond": (blob[:off] + (nbits + 1).to_bytes(8, "big") + blob[off + 8:],
                               "cursor beyond material"),
    }


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


# the temp file `padcrypt._files.write_file` writes beside its target
WRITE_FILE_TEMP = re.compile(r"\..+\.[0-9a-f]{16}\.tmp")


@pytest.fixture(autouse=True)
def no_temp_file_left(request):
    """Fails a test that used tmp_path and left a write_file temp file in it:
    a failed write, or a failed sync, must remove its temp file."""
    root = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    if root is not None:
        left = sorted(str(p.relative_to(root)) for p in root.rglob("*")
                      if WRITE_FILE_TEMP.fullmatch(p.name))
        if left:
            pytest.fail(f"temp files left under tmp_path: {left}")
