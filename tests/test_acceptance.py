"""Acceptance suite: one test per exit criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values marked as derived below were computed with the
independent oracles in this file and in conftest.py, not with the code
paths under test.
"""

import math
import random
from fractions import Fraction

import padcrypt as pc
from padcrypt.bits import BitString

from conftest import brute_force_optimal_average, random_rational_space

B = BitString.from_str

ACCEPT_SEED = 0xACCE97
CHI_SEED = 20260824  # committed seed for the statistical criterion


def dyadic_space_l8():
    """Probs 1/2, 1/4, ..., 1/256, 1/256: Huffman lengths 1..8, 8 (l = 8)."""
    probs = [Fraction(1, 2 ** k) for k in range(1, 9)] + [Fraction(1, 256)]
    return pc.MessageSpace([bytes([i]) for i in range(9)], probs)


def code_collection(rng):
    """The shared collection of (space, code) pairs exercised below."""
    pairs = []
    for _ in range(20):
        L = rng.randint(2, 8)
        sp = random_rational_space(rng, L)
        huff = pc.build_huffman(sp)
        pairs.append((sp, huff))
        if L >= 2:
            pairs.append((sp, pc.trim_code(huff, sp)))
    sp = dyadic_space_l8()
    pairs.append((sp, pc.build_huffman(sp)))
    return pairs


def test_exact_perfect_secrecy():
    """Criterion 1: zero-deviation perfection for >= 20 random distributions,
    Huffman and trimmed-Huffman, in exact arithmetic."""
    rng = random.Random(ACCEPT_SEED)
    checked = 0
    for _ in range(20):
        L = rng.randint(2, 8)
        sp = random_rational_space(rng, L)
        huff = pc.build_huffman(sp)
        for code in (huff, pc.trim_code(huff, sp)):
            assert code.max_len <= 12
            report = pc.exact_secrecy_oracle(sp, code)
            assert report.verdict == "perfect"
            assert report.max_deviation == 0
            target = Fraction(1, 2 ** report.l)
            assert all(p == target for p in report.marginal.values())
            for dist in report.per_message_dists.values():
                assert all(p == target for p in dist.values())
        checked += 1
    assert checked == 20
    print("\nPASS exact-perfect-secrecy: 20 distributions x "
          "{huffman, trimmed} all exactly 2^-l")


def joint_length_mi(space, code):
    """Independent oracle: I(M; |codeword|) from an explicit joint table."""
    joint = {}
    for m, p in zip(space.messages, space.probs):
        joint[(m, len(code.codebook[m]))] = Fraction(p)
    p_len = {}
    for (_, n), p in joint.items():
        p_len[n] = p_len.get(n, Fraction(0)) + p
    info = 0.0
    for (m, n), p in joint.items():
        if p:
            pm = Fraction(space.probs[space.messages.index(m)])
            info += float(p) * math.log2(float(p / (pm * p_len[n])))
    return info


def test_naive_scheme_leak():
    """Criterion 2: unpadded variant is leaky whenever codeword lengths vary;
    the (1,2,2) uniform case leaks h(1/3, 2/3) bits."""
    rng = random.Random(ACCEPT_SEED + 1)
    tested = 0
    for sp, code in code_collection(rng):
        lengths = {len(w) for w in code.codebook.values()}
        if len(lengths) < 2 or code.max_len > 12:
            continue
        report = pc.exact_secrecy_oracle(sp, code, naive=True)
        assert report.verdict == "leaky"
        leak = pc.leak_mutual_information(sp, code)
        assert leak.mutual_information > 0
        assert abs(leak.mutual_information - joint_length_mi(sp, code)) < 1e-9
        tested += 1
    assert tested >= 10

    sp = pc.MessageSpace([b"\x00", b"\x01", b"\x02"], [Fraction(1, 3)] * 3)
    code = pc.build_huffman(sp)
    assert sorted(len(w) for w in code.codebook.values()) == [1, 2, 2]
    leak = pc.leak_mutual_information(sp, code)
    # derived: binary entropy of the 1/3 vs 2/3 length split
    expected = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
    assert abs(expected - 0.9182958340544896) < 1e-12
    assert abs(leak.mutual_information - expected) < 1e-9
    assert abs(leak.mutual_information - joint_length_mi(sp, code)) < 1e-9
    print(f"\nPASS naive-scheme-leak: {tested} leaky codes, "
          f"(1,2,2) case I = {leak.mutual_information:.10f} bits")


def test_huffman_bound():
    """Criterion 3: average length in [h, h+1) on 100 random distributions,
    and equal to the brute-force optimum for every L <= 6."""
    rng = random.Random(ACCEPT_SEED + 2)
    for _ in range(100):
        L = rng.randint(2, 64)
        sp = random_rational_space(rng, L)
        code = pc.build_huffman(sp)
        h = pc.shannon_entropy(sp)
        avg = float(pc.key_cost(sp, code))
        assert h - 1e-9 <= avg < h + 1
    exact_checked = 0
    for _ in range(40):
        L = rng.randint(2, 6)
        sp = random_rational_space(rng, L)
        code = pc.build_huffman(sp)
        avg = sum(p * len(code.codebook[m]) for m, p in zip(sp.messages, sp.probs))
        assert avg == brute_force_optimal_average(sp.probs)
        exact_checked += 1
    print(f"\nPASS huffman-bound: 100 in [h, h+1), "
          f"{exact_checked} brute-force optimality matches")


def test_trimmed_bounds():
    """Criterion 4: max length <= ceil(log2 L) + 1 always, average <= h + 2
    on 100 random distributions."""
    rng = random.Random(ACCEPT_SEED + 3)
    for _ in range(100):
        L = rng.randint(2, 64)
        sp = random_rational_space(rng, L)
        trimmed = pc.trim_code(pc.build_huffman(sp), sp)
        cap = math.ceil(math.log2(L)) + 1
        assert trimmed.max_len <= cap
        h = pc.shannon_entropy(sp)
        avg = float(pc.key_cost(sp, trimmed))
        assert avg <= h + 2 + 1e-9
    print("\nPASS trimmed-bounds: 100 distributions, "
          "max <= ceil(log2 L)+1 and avg <= h+2")


def test_roundtrip_and_key_thrift(tmp_path):
    """Criterion 5: 10^4 round trips, key use exactly |codeword(m)|, and no
    key-bit position issued twice across save/load cycles."""
    rng = random.Random(ACCEPT_SEED + 4)
    sp = dyadic_space_l8()
    code = pc.build_huffman(sp)
    nbits = 120_000
    sender = pc.generate_pool(nbits, pc.SeededRandomSource(11))
    receiver = pc.generate_pool(nbits, pc.SeededRandomSource(11))
    pad_rng = pc.SeededRandomSource(12)
    path = tmp_path / "sender.pool"

    issued = []  # (start, end) audit trail
    for i in range(10_000):
        m = rng.choice(sp.messages)
        rec = pc.encrypt(m, code, sender, pad_rng)
        assert len(rec.ciphertext.bits) == code.max_len  # length law
        assert rec.key_bits_used == len(code.codebook[m])  # key thrift
        assert rec.cursor_end - rec.cursor_start == rec.key_bits_used
        issued.append((rec.cursor_start, rec.cursor_end))
        assert pc.decrypt(rec.ciphertext, code, receiver) == m
        assert receiver.cursor == sender.cursor
        if i % 1000 == 999:  # persistence cycle mid-stream
            sender.save(path)
            sender = pc.KeyPool.load(path)
            sender.backing_path = None

    # instrumented audit: ranges are disjoint and strictly increasing
    for (a0, a1), (b0, b1) in zip(issued, issued[1:]):
        assert a0 <= a1 == b0 <= b1
    positions = sum(e - s for s, e in issued)
    assert positions == sender.cursor
    print(f"\nPASS roundtrip-key-thrift: 10000 round trips, "
          f"{positions} key bits issued, no position reused")


def test_statistical_uniformity():
    """Criterion 6: committed seed, l = 8, 10^5 encryptions of a fixed
    message: chi-square p > 0.01; biased all-zero pad: p < 1e-6."""
    sp = dyadic_space_l8()
    code = pc.build_huffman(sp)
    assert code.max_len == 8
    fixed = sp.messages[0]  # 1-bit codeword, 7 pad bits per ciphertext

    rep = pc.empirical_uniformity(sp, code, pc.SeededRandomSource(CHI_SEED),
                                  100_000, fixed_message=fixed)
    assert not rep.insufficient_data
    assert rep.p_value > 0.01

    class ZeroPad(pc.RandomSource):
        name = "zero-pad"

        def bits(self, n):
            return BitString(0, n)

    biased = pc.empirical_uniformity(sp, code, pc.SeededRandomSource(CHI_SEED),
                                     100_000, fixed_message=fixed,
                                     pad_rng=ZeroPad())
    assert biased.p_value < 1e-6
    print(f"\nPASS statistical-uniformity: p = {rep.p_value:.4f} > 0.01, "
          f"biased pad p = {biased.p_value:.3g} < 1e-6")


def test_key_discipline_equivalence():
    """Criterion 7: fresh-l-key and s-bits-from-pool disciplines induce
    identical ciphertext distributions for every test code with l <= 12."""
    rng = random.Random(ACCEPT_SEED + 5)
    checked = 0
    for sp, code in code_collection(rng):
        if code.max_len > 12:
            continue
        assert pc.key_discipline_equivalence(sp, code)
        checked += 1
    assert checked >= 20
    print(f"\nPASS key-discipline-equivalence: {checked} codes, "
          "distributions identical by exhaustive enumeration")
