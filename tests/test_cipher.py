import random
import sys
from fractions import Fraction

import pytest

import padcrypt as pc
from padcrypt.bits import BitString
from padcrypt.cipher import Ciphertext, code_fingerprint, read_frame, write_frame
from padcrypt.errors import (
    DecryptionFailed,
    KeyExhausted,
    NotInCodebook,
    PadcryptError,
    WireFormatError,
)

B = BitString.from_str


def three_word_code():
    return pc.PrefixCode({b"m0": B("00"), b"m1": B("01"), b"m2": B("1")})


def pool_with(bits: str) -> pc.KeyPool:
    return pc.KeyPool(BitString.from_str(bits), pool_id="test")


class FixedBits(pc.RandomSource):
    """Replays a scripted bit stream (pad-bit fault injection)."""

    name = "fixed"

    def __init__(self, script: str):
        self._bits = iter(script)

    def bits(self, n):
        return BitString.from_str("".join(next(self._bits) for _ in range(n)))


def test_encrypt_one_bit_codeword_zero_key():
    rec = pc.encrypt(b"m2", three_word_code(), pool_with("0" * 8), FixedBits("1"))
    assert rec.key_bits_used == 1
    assert str(rec.ciphertext.bits) == "11"  # codeword 1 xor key 0, pad r=1
    assert rec.ciphertext.l == 2


def test_encrypt_full_length_codeword():
    rec = pc.encrypt(b"m1", three_word_code(), pool_with("11"), FixedBits(""))
    assert str(rec.ciphertext.bits) == "10"  # 01 xor 11
    assert rec.key_bits_used == 2


def test_encrypt_all_zero_key_is_identity():
    rec = pc.encrypt(b"m0", three_word_code(), pool_with("0000"), FixedBits(""))
    assert str(rec.ciphertext.bits) == "00"


def test_encrypt_records_cursor_range():
    pool = pool_with("110101")
    rec = pc.encrypt(b"m1", three_word_code(), pool, FixedBits(""))
    assert (rec.cursor_start, rec.cursor_end) == (0, 2)
    rec = pc.encrypt(b"m2", three_word_code(), pool, FixedBits("0"))
    assert (rec.cursor_start, rec.cursor_end) == (2, 3)


def test_encrypt_unknown_message():
    with pytest.raises(NotInCodebook):
        pc.encrypt(b"??", three_word_code(), pool_with("1111"), FixedBits(""))


def test_encrypt_propagates_exhaustion():
    with pytest.raises(KeyExhausted):
        pc.encrypt(b"m1", three_word_code(), pool_with("1"), FixedBits(""))


def test_decrypt_inverse_of_encrypt_example():
    m = pc.decrypt(Ciphertext(B("10")), three_word_code(), pool_with("11"))
    assert m == b"m1"


def test_decrypt_consumes_exactly_s_bits():
    pool = pool_with("0" + "1" * 7)
    m = pc.decrypt(Ciphertext(B("10")), three_word_code(), pool)
    assert m == b"m2"
    assert pool.cursor == 1  # pad bit discarded unread


def test_decrypt_wrong_length_fails():
    with pytest.raises(DecryptionFailed):
        pc.decrypt(Ciphertext(B("101")), three_word_code(), pool_with("111"))


def test_decrypt_failure_is_fail_stop():
    # code {10, 11}: XOR with key 0x gives 0-prefix, never a codeword
    code = pc.PrefixCode({b"a": B("10"), b"b": B("11")})
    pool = pool_with("1100")
    rec = pc.encrypt(b"a", code, pool, FixedBits(""))
    bad = Ciphertext(rec.ciphertext.bits.xor(B("10")))  # flip the first bit
    receiver = pool_with("1100")
    with pytest.raises(DecryptionFailed):
        pc.decrypt(bad, code, receiver)
    assert receiver.cursor == 0


def test_decrypt_past_the_pool_end_is_exhaustion():
    # one key bit left of the two l needs: refused before any prefix is tried
    pool = pool_with("110")
    pool.take(2)
    with pytest.raises(KeyExhausted):
        pc.decrypt(Ciphertext(B("00")), three_word_code(), pool)
    assert pool.cursor == 2


def test_running_out_shows_nothing_about_the_message():
    # codeword lengths 1..l: with r < l bits left every message, and every
    # l-bit ciphertext, is refused with one text that names l, never s, and
    # no cursor moves; a 1-bit word sent from a 1-bit pool where a 3-bit
    # word is refused would show which message was sent
    code = pc.PrefixCode({b"a": B("0"), b"b": B("10"), b"c": B("110"), b"d": B("111")})
    l = code.max_len
    for r in range(l):
        refusals = set()
        for m in code.codebook:
            pool = pool_with("0" * r)
            with pytest.raises(KeyExhausted) as refused:
                pc.encrypt(m, code, pool, FixedBits("0" * l))
            refusals.add(str(refused.value))
            assert pool.cursor == 0
        for e in range(2 ** l):
            pool = pool_with("0" * r)
            with pytest.raises(KeyExhausted) as refused:
                pc.decrypt(Ciphertext(BitString(e, l)), code, pool)
            refusals.add(str(refused.value))
            assert pool.cursor == 0
        assert refusals == {f"pool test: need {l} bits, {r} remain"}


def test_desynchronized_pool_detected_by_audit():
    code = three_word_code()
    sender = pool_with("10110010")
    receiver = pool_with("10110010")
    receiver.take(1)  # desync by one bit
    rec = pc.encrypt(b"m1", code, sender, FixedBits(""))
    try:
        m = pc.decrypt(rec.ciphertext, code, receiver)
        assert m != b"m1"  # wrong message out, never a silent success
    except DecryptionFailed:
        pass


def test_roundtrip_synchronized_pools(seeded):
    code = three_word_code()
    rng = pc.SeededRandomSource(77)
    sender = pc.generate_pool(4000, pc.SeededRandomSource(5))
    receiver = pc.generate_pool(4000, pc.SeededRandomSource(5))
    for _ in range(500):
        m = seeded.choice([b"m0", b"m1", b"m2"])
        rec = pc.encrypt(m, code, sender, rng)
        assert len(rec.ciphertext.bits) == 2  # length law
        assert rec.key_bits_used == len(code.codebook[m])
        assert pc.decrypt(rec.ciphertext, code, receiver) == m
        assert receiver.cursor == sender.cursor


def readme_code():
    # the README's code: yes -> 1 bit, no and maybe -> 2 bits, l = 2
    return pc.build_huffman(pc.MessageSpace(
        [b"yes", b"no", b"maybe"], [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]))


def spend(ledger, frame, start, end):
    """Records in `ledger` (key-bit index -> frames) that `frame` spent the
    pool's bits start..end."""
    for index in range(start, end):
        ledger.setdefault(index, set()).add(frame)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 11")
def test_two_way_traffic_on_copied_pools_never_pads_two_frames_with_one_bit():
    code, rng = readme_code(), pc.SeededRandomSource(7)
    alice = pc.generate_pool(64, pc.SeededRandomSource(1))
    bob = pc.KeyPool(alice.material, alice.cursor, alice.pool_id)
    ledger = {}
    sent = pc.encrypt(b"yes", code, alice, rng)
    spend(ledger, "A1", sent.cursor_start, sent.cursor_end)
    start = bob.cursor
    assert pc.decrypt(sent.ciphertext, code, bob) == b"yes"
    spend(ledger, "A1", start, bob.cursor)
    reply = pc.encrypt(b"no", code, bob, rng)
    spend(ledger, "B1", reply.cursor_start, reply.cursor_end)
    sent = pc.encrypt(b"maybe", code, alice, rng)
    spend(ledger, "A2", sent.cursor_start, sent.cursor_end)
    assert {i: frames for i, frames in ledger.items() if len(frames) > 1} == {}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 8")
def test_after_a_lost_frame_the_next_decrypt_never_returns_a_wrong_message():
    code = readme_code()
    for seed in range(1, 6):
        alice = pc.generate_pool(64, pc.SeededRandomSource(seed))
        bob = pc.KeyPool(alice.material, alice.cursor, alice.pool_id)
        rng = pc.SeededRandomSource(100 + seed)
        pc.encrypt(b"yes", code, alice, rng)  # this frame is lost
        sent = pc.encrypt(b"maybe", code, alice, rng)
        try:
            got = pc.decrypt(sent.ciphertext, code, bob)
        except PadcryptError:
            assert bob.cursor == 0, seed
        else:
            assert got == b"maybe", seed


def test_key_cost():
    sp = pc.MessageSpace([b"m0", b"m1", b"m2"],
                         [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
    assert pc.key_cost(sp, three_word_code()) == Fraction(3, 2)
    uni = pc.MessageSpace([bytes([i]) for i in range(4)], [Fraction(1, 4)] * 4)
    assert pc.key_cost(uni, pc.build_huffman(uni)) == 2
    single = pc.MessageSpace([b"m"], [Fraction(1)])
    assert pc.key_cost(single, pc.build_huffman(single)) == 0  # its entropy


def test_key_cost_uncovered_space():
    sp = pc.MessageSpace([b"zz"], [Fraction(1)])
    with pytest.raises(NotInCodebook, match="has no codeword"):
        pc.key_cost(sp, three_word_code())


# --- wire format ---------------------------------------------------------

def test_frame_roundtrip():
    code = three_word_code()
    pool = pool_with("10")
    rng = pc.SeededRandomSource(3)
    rec = pc.encrypt(b"m0", code, pool, rng)
    blob = write_frame(rec, code, rng)
    assert read_frame(blob, code).bits == rec.ciphertext.bits


def test_code_fingerprint_is_pinned_and_order_free():
    # sha256 over the sorted "message-hex:codeword" lines, first 8 bytes; the
    # wire header carries it, so a change here breaks every stored frame
    pinned = bytes.fromhex("8691cbfd36565ac6")
    code = three_word_code()
    assert code_fingerprint(code) == pinned
    reordered = pc.PrefixCode({b"m2": B("1"), b"m1": B("01"), b"m0": B("00")})
    assert code_fingerprint(reordered) == pinned
    rng = pc.SeededRandomSource(3)
    blob = write_frame(pc.encrypt(b"m2", code, pool_with("10"), rng), code, rng)
    assert blob[:17] == b"PCWF\x01" + pinned + (2).to_bytes(4, "big")


def test_code_fingerprint_of_a_long_varied_code_is_pinned():
    # 256 Zipf-weighted messages: 9 distinct lengths up to l = 11, so a
    # change in how long words with leading zeros are rendered shows here
    weights = [10 ** 6 // (i + 1) for i in range(256)]
    total = sum(weights)
    space = pc.MessageSpace([b"m%03d" % i for i in range(256)],
                            [Fraction(w, total) for w in weights])
    code = pc.build_huffman(space)
    assert (code.max_len, len(set(map(len, code.codebook.values())))) == (11, 9)
    assert code_fingerprint(code) == bytes.fromhex("e3b407a96c0f15a4")


def test_code_fingerprint_falls_back_to_hashlib(monkeypatch):
    # an interpreter built without the small SHA-256 modules gets the same bytes
    monkeypatch.setitem(sys.modules, "_sha256", None)  # None makes the import fail
    monkeypatch.setitem(sys.modules, "_sha2", None)
    assert code_fingerprint(three_word_code()) == bytes.fromhex("8691cbfd36565ac6")


def test_frame_rejects_other_codebook():
    code = three_word_code()
    other = pc.PrefixCode({b"m0": B("0"), b"m1": B("1")})
    rng = pc.SeededRandomSource(3)
    rec = pc.encrypt(b"m0", code, pool_with("10"), rng)
    blob = write_frame(rec, code, rng)
    with pytest.raises(WireFormatError):
        read_frame(blob, other)


def test_frame_rejects_truncation():
    code = three_word_code()
    rng = pc.SeededRandomSource(3)
    rec = pc.encrypt(b"m0", code, pool_with("10"), rng)
    blob = write_frame(rec, code, rng)
    with pytest.raises(WireFormatError):
        read_frame(blob[:-1], code)
    with pytest.raises(WireFormatError):
        read_frame(b"XXXX" + blob[4:], code)


def test_frame_rejects_another_version():
    code = three_word_code()
    rng = pc.SeededRandomSource(3)
    blob = write_frame(pc.encrypt(b"m0", code, pool_with("10"), rng), code, rng)
    with pytest.raises(WireFormatError, match="unsupported frame version 2"):
        read_frame(blob[:4] + b"\x02" + blob[5:], code)


def test_frame_tail_bits_are_rng_not_zero():
    # l=2 leaves 6 sub-byte tail bits; script them all-ones and check the byte
    code = three_word_code()
    rec = pc.encrypt(b"m0", code, pool_with("00"), FixedBits(""))
    blob = write_frame(rec, code, FixedBits("111111"))
    assert blob[-1] == 0b00111111


class OpaqueBits:
    """Key bits that are not a BitString: they forward to one only what the
    shipped encrypt and write_frame call, and have no `value` or `length`."""

    __slots__ = ("_bits",)

    def __init__(self, bits: BitString):
        self._bits = bits

    def xor(self, other):
        return OpaqueBits(self._bits.xor(other))

    def __add__(self, other):
        return OpaqueBits(self._bits + other)

    def __len__(self):
        return len(self._bits)

    def to_bytes(self):
        return self._bits.to_bytes()


class OpaquePool(pc.KeyPool):
    def take(self, s):
        return OpaqueBits(super().take(s))


def test_a_pool_may_hand_out_another_bit_type():
    # encrypt XORs on the key's own operand, so a key type of another kind
    # (such as a symbolic one) runs through the shipped encrypt and
    # write_frame, and gives the frame a plain run gives
    weights = [Fraction(1, i + 1) for i in range(10)]  # Zipf: l = 5, codewords of 2-5 bits
    space = pc.MessageSpace([bytes([i]) for i in range(10)],
                            [w / sum(weights) for w in weights])
    code = pc.build_huffman(space)
    material = pc.generate_pool(4000, pc.SeededRandomSource(5)).material
    frames = []
    for pool in (pc.KeyPool(material, 0, "id"), OpaquePool(material, 0, "id")):
        rng = pc.SeededRandomSource(7)
        frames.append([write_frame(pc.encrypt(m, code, pool, rng), code, rng)
                       for m in space.messages])
    assert frames[0] == frames[1]
    receiver = pc.KeyPool(material, 0, "id")
    assert [pc.decrypt(read_frame(blob, code), code, receiver)
            for blob in frames[1]] == list(space.messages)
