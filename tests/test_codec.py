import heapq
import importlib
import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padcrypt as pc
from padcrypt.bits import BitString, elias_gamma_decode
from padcrypt.codec import _canonical
from padcrypt.errors import (
    CodebookFormatError,
    DegenerateSpace,
    EmptyCompressorOutput,
    InvalidCode,
    InvalidSpace,
    NondeterministicCompressor,
    NotACodeword,
    NotInCodebook,
)

from conftest import (
    brute_force_optimal_average,
    kraft_sum,
    random_float_space,
    random_rational_space,
    reference_entropy,
    reference_key_cost,
    reference_leak,
    tied_exact_space,
)

B = BitString.from_str


def uniform_space(L):
    return pc.MessageSpace([bytes([i]) for i in range(L)],
                           [Fraction(1, L)] * L)


# --- MessageSpace --------------------------------------------------------

def test_space_rejects_empty():
    with pytest.raises(InvalidSpace):
        pc.MessageSpace([], [])


def test_space_rejects_duplicates():
    with pytest.raises(InvalidSpace):
        pc.MessageSpace([b"a", b"a"], [Fraction(1, 2), Fraction(1, 2)])


def test_space_rejects_bad_sum():
    with pytest.raises(InvalidSpace):
        pc.MessageSpace([b"a", b"b"], [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(InvalidSpace):
        pc.MessageSpace([b"a", b"b"], [0.5, 0.6])
    with pytest.raises(InvalidSpace):
        pc.MessageSpace([b"a", b"b"], [math.nan, 1.0])
    with pytest.raises(InvalidSpace):
        pc.MessageSpace([b"a", b"b"], [math.nan, math.nan])


def test_space_accepts_float_within_tolerance():
    sp = pc.MessageSpace([b"a", b"b", b"c"], [0.3, 0.3, 0.4 + 1e-12])
    assert not sp.is_exact


# --- Huffman -------------------------------------------------------------

def test_huffman_uniform_4_is_balanced():
    code = pc.build_huffman(uniform_space(4))
    assert all(len(w) == 2 for w in code.codebook.values())
    assert code.max_len == 2


def test_huffman_half_quarter_quarter():
    sp = pc.MessageSpace([b"a", b"b", b"c"],
                         [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    code = pc.build_huffman(sp)
    lengths = sorted(len(w) for w in code.codebook.values())
    assert lengths == [1, 2, 2]
    # brute-force oracle over all Kraft-feasible prefix-free length profiles
    avg = sum(p * len(code.codebook[m]) for m, p in zip(sp.messages, sp.probs))
    assert avg == brute_force_optimal_average(sp.probs) == Fraction(3, 2)


def test_huffman_single_message():
    sp = pc.MessageSpace([b"only"], [Fraction(1)])
    code = pc.build_huffman(sp)
    assert code.codebook[b"only"] == B("0")
    assert code.max_len == 1


def test_huffman_deterministic_under_ties():
    sp = uniform_space(6)
    a = pc.build_huffman(sp)
    b = pc.build_huffman(sp)
    assert a.codebook == b.codebook


def test_huffman_kraft_equality(seeded):
    for _ in range(25):
        sp = random_rational_space(seeded, seeded.randint(2, 10))
        code = pc.build_huffman(sp)
        assert kraft_sum(len(w) for w in code.codebook.values()) == 1


def test_huffman_matches_brute_force_small(seeded):
    for _ in range(30):
        L = seeded.randint(2, 6)
        sp = random_rational_space(seeded, L)
        code = pc.build_huffman(sp)
        avg = sum(p * len(code.codebook[m]) for m, p in zip(sp.messages, sp.probs))
        assert avg == brute_force_optimal_average(sp.probs)


def test_exact_space_errors_keep_their_texts():
    cases = [
        # the sign is checked before the sum
        ([Fraction(-1, 2), Fraction(1, 3)], "negative probability"),
        ([Fraction(-1, 2), Fraction(3, 2)], "negative probability"),
        ([Fraction(1, 2), Fraction(1, 3)], "probabilities sum to 5/6, expected 1"),
        ([Fraction(1, 2), Fraction(2, 3), Fraction(0)], "probabilities sum to 7/6, expected 1"),
        # float and mixed spaces: the same sign check, then their own sum checks
        ([-0.5, 1.5], "negative probability"),
        ([0.5, 0.6], "probabilities sum to 1.1, expected 1"),
        ([Fraction(1, 2), 0], "probabilities sum to 1/2, expected 1"),
    ]
    for probs, text in cases:
        with pytest.raises(InvalidSpace) as exc:
            pc.MessageSpace([bytes([i]) for i in range(len(probs))], probs)
        assert str(exc.value) == text


def huffman_on_fraction_heap(space):
    """Reference builder: merge the probabilities themselves, Fractions or
    floats, carrying each subtree's message indices in a list."""
    L = len(space)
    if L == 1:
        return pc.PrefixCode({space.messages[0]: B("0")})
    heap = [(p, i, [i]) for i, p in enumerate(space.probs)]
    heapq.heapify(heap)
    depth = [0] * L
    while len(heap) > 1:
        wa, ia, ga = heapq.heappop(heap)
        wb, ib, gb = heapq.heappop(heap)
        for i in ga + gb:
            depth[i] += 1
        heapq.heappush(heap, (wa + wb, min(ia, ib), ga + gb))
    return _canonical(space.messages, depth)


def test_huffman_matches_fraction_heap_reference(seeded):
    spaces = [tied_exact_space(seeded, L) for L in range(1, 65) for _ in range(3)]
    spaces += [random_float_space(seeded, seeded.randint(1, 64)) for _ in range(60)]
    harmonic = [Fraction(1, i) for i in range(1, 201)]
    total = sum(harmonic)
    spaces.append(pc.MessageSpace([i.to_bytes(2, "big") for i in range(200)],
                                  [p / total for p in harmonic]))
    assert sum(sp.is_exact for sp in spaces) == 64 * 3 + 1
    for sp in spaces:
        code, ref = pc.build_huffman(sp), huffman_on_fraction_heap(sp)
        assert list(code.codebook.items()) == list(ref.codebook.items())
        assert code.max_len == ref.max_len


def test_exact_space_is_built_and_coded_without_fraction_arithmetic(monkeypatch):
    messages = [bytes([i]) for i in range(9)]
    probs = [Fraction(c, 60) for c in (12, 12, 10, 0, 6, 5, 5)] + [Fraction(1, 12)] * 2

    def refuse(*args):
        raise AssertionError("Fraction arithmetic on an exact space")

    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__",
                 "__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(Fraction, name, refuse)
    sp = pc.MessageSpace(messages, probs)
    code = pc.build_huffman(sp)
    trimmed = pc.trim_code(code, sp)
    cost = pc.key_cost(sp, code)
    h = pc.shannon_entropy(sp)
    leaks = {obs: pc.leak_mutual_information(sp, code, observable=obs).mutual_information
             for obs in ("naive-ciphertext-length", "ciphertext-length")}
    bounds = [pc.bound_report(sp, code, "huffman"), pc.bound_report(sp, trimmed, "trimmed")]
    monkeypatch.undo()
    assert sp.is_exact
    assert list(code.codebook.items()) == list(huffman_on_fraction_heap(sp).codebook.items())
    assert cost == reference_key_cost(sp, code) and type(cost) is Fraction
    assert h == reference_entropy(sp.probs)
    for obs, leak in leaks.items():
        assert leak == reference_leak(sp, code, obs)
    for rep, c in zip(bounds, (code, trimmed)):
        assert rep.ok
        assert rep.average_length == float(reference_key_cost(sp, c))
        assert rep.entropy == h

# --- trimmed code --------------------------------------------------------

def test_trim_long_codeword_gets_flagged_index():
    # L=8, message index 5 carries a 7-bit codeword (> ceil(log2 8) = 3)
    messages = [bytes([i]) for i in range(8)]
    words = ["0", "10", "110", "1110", "11110", "1111100", "1111101", "111111"]
    code = pc.PrefixCode(dict(zip(messages, map(B, words))))
    sp = uniform_space(8)
    trimmed = pc.trim_code(code, sp)
    assert trimmed.codebook[messages[5]] == B("1101")
    assert len(trimmed.codebook[messages[5]]) == 4


def test_trim_short_codeword_kept_behind_zero_flag():
    messages = [bytes([i]) for i in range(8)]
    words = ["00", "01", "100", "101", "1100", "1101", "11100", "111010"]
    code = pc.PrefixCode(dict(zip(messages, map(B, words))))
    trimmed = pc.trim_code(code, uniform_space(8))
    assert trimmed.codebook[messages[1]] == B("001")


def test_trim_rejects_single_message():
    sp = pc.MessageSpace([b"x"], [Fraction(1)])
    code = pc.build_huffman(sp)
    with pytest.raises(DegenerateSpace):
        pc.trim_code(code, sp)


def test_trim_bound_random(seeded):
    import math
    for _ in range(40):
        L = seeded.randint(2, 32)
        sp = random_rational_space(seeded, L)
        trimmed = pc.trim_code(pc.build_huffman(sp), sp)
        assert trimmed.max_len <= math.ceil(math.log2(L)) + 1


# --- external compressor adapter ----------------------------------------

def test_wrap_identity_one_bit():
    sp = pc.MessageSpace([b"\x00", b"\x01"], [Fraction(1, 2), Fraction(1, 2)])
    comp = pc.ExternalCompressor(lambda m: BitString(m[0], 1), "identity-bit")
    code = pc.wrap_external(comp, sp)
    assert code.codebook[b"\x00"] == B("10")
    assert code.codebook[b"\x01"] == B("11")
    assert code.max_len == 2


def test_wrap_collision_gets_disambiguated():
    sp = pc.MessageSpace([b"a", b"b"], [Fraction(1, 2), Fraction(1, 2)])
    comp = pc.ExternalCompressor(lambda m: b"\xff", "constant")
    code = pc.wrap_external(comp, sp)
    words = list(code.codebook.values())
    assert words[0] != words[1]


def test_wrap_gamma_header_lengths():
    # compressed bit-lengths (3,3,5,8): longest frame is gamma(8)+8 = 15 bits
    outputs = {b"a": B("101"), b"b": B("110"), b"c": B("10110"),
               b"d": B("10110111")}
    sp = uniform_space_named(list(outputs))
    comp = pc.ExternalCompressor(lambda m: outputs[m], "bitlens")
    code = pc.wrap_external(comp, sp)
    assert code.max_len == 15
    # decode each frame's gamma header back to the payload length
    for m, out in outputs.items():
        n, used = elias_gamma_decode(code.codebook[m])
        assert n == len(out)
        assert code.codebook[m].slice(used, used + n) == out


def uniform_space_named(messages):
    return pc.MessageSpace(messages, [Fraction(1, len(messages))] * len(messages))


def test_wrap_detects_nondeterminism():
    flips = iter([b"x", b"y", b"x", b"y"])
    comp = pc.ExternalCompressor(lambda m: next(flips), "flaky")
    with pytest.raises(NondeterministicCompressor):
        pc.wrap_external(comp, uniform_space_named([b"a", b"b"]))


def test_wrap_rejects_empty_output():
    comp = pc.ExternalCompressor(lambda m: b"", "null")
    with pytest.raises(EmptyCompressorOutput):
        pc.wrap_external(comp, uniform_space_named([b"a", b"b"]))


def test_wrap_real_byte_compressor():
    import zlib
    sp = uniform_space_named([b"aaaaaaaaaaaa", b"hello world", b"x" * 40, b"q"])
    comp = pc.ExternalCompressor(lambda m: zlib.compress(m, 9), "zlib-9")
    code = pc.wrap_external(comp, sp)
    for m in sp.messages:
        assert pc.decode_prefix(code, pc.encode(code, m))[0] == m


# --- encode / decode ------------------------------------------------------

def three_word_code():
    return pc.PrefixCode({b"m0": B("00"), b"m1": B("01"), b"m2": B("1")})


def test_encode_unknown_message():
    with pytest.raises(NotInCodebook):
        pc.encode(three_word_code(), b"nope")


def test_decode_prefix_examples():
    code = three_word_code()
    assert pc.decode_prefix(code, B("0111")) == (b"m1", 2)
    assert pc.decode_prefix(code, B("1010")) == (b"m2", 1)
    with pytest.raises(NotACodeword):
        pc.decode_prefix(code, BitString(0, 0))


@settings(max_examples=200)
@given(st.integers(0, 2), st.integers(0, 255), st.integers(0, 8))
def test_roundtrip_with_any_suffix(idx, tail_value, tail_len):
    code = three_word_code()
    m = [b"m0", b"m1", b"m2"][idx]
    word = pc.encode(code, m)
    tail = BitString(tail_value & ((1 << tail_len) - 1), tail_len)
    assert pc.decode_prefix(code, word + tail) == (m, len(word))


def decode_bit_by_bit(code, stream):
    """Reference decoder: grow a prefix one bit at a time until it is a word."""
    by_word = {str(w): m for m, w in code.codebook.items()}
    bits = str(stream)
    for n in range(min(len(bits), code.max_len) + 1):
        if bits[:n] in by_word:
            return by_word[bits[:n]], n
    return None


def relabel(code, rng):
    """Swap the two children of random nodes of the code tree.

    Flipping bit i of every word exactly when a fixed random choice for the
    prefix before it says so keeps the set prefix-free, but leaves the
    canonical order behind.
    """
    flips = {}

    def flip(word):
        bits = str(word)
        out = [str(int(b) ^ flips.setdefault(bits[:i], rng.randint(0, 1)))
               for i, b in enumerate(bits)]
        return B("".join(out))

    return pc.PrefixCode({m: flip(w) for m, w in code.codebook.items()})


def test_decode_prefix_matches_bit_by_bit_reference(seeded):
    import zlib
    codes = [
        three_word_code(),
        pc.PrefixCode({b"a": B("1"), b"b": B("01"), b"c": B("000"), b"d": B("001")}),
        pc.PrefixCode({b"a": B("110"), b"b": B("0"), b"c": B("10"), b"d": B("111")}),
        # a gap in the lengths, and an incomplete code (Kraft sum < 1)
        pc.PrefixCode({b"a": B("0"), b"b": B("10"), b"c": B("1100"), b"d": B("111")}),
        pc.PrefixCode({b"a": B("01"), b"b": B("1110")}),
        pc.PrefixCode({b"only": BitString(0, 0)}),
    ]
    for _ in range(30):
        L = seeded.randint(2, 24)
        sp = random_rational_space(seeded, L)
        huffman = pc.build_huffman(sp)
        codes += [huffman, pc.trim_code(huffman, sp), relabel(huffman, seeded)]
    sp = uniform_space_named([b"aaaaaaaaaaaa", b"hello world", b"x" * 40, b"q", b""])
    codes.append(pc.wrap_external(
        pc.ExternalCompressor(lambda m: zlib.compress(m, 9), "zlib-9"), sp))
    codes.append(pc.wrap_external(
        pc.ExternalCompressor(lambda m: bytes([len(m) % 3]), "collide"), sp))

    for code in codes:
        l = code.max_len
        streams = [w + BitString(seeded.getrandbits(n), n)
                   for w in code.codebook.values() for n in (0, 1, 5)]
        for n in [*range(l), l, l + 1, l + 7]:
            streams += [BitString(seeded.getrandbits(n), n) for _ in range(4)]
            streams += [BitString(0, n), BitString((1 << n) - 1, n)]
        for stream in streams:
            expected = decode_bit_by_bit(code, stream)
            if expected is None:
                with pytest.raises(NotACodeword, match=f"no codeword prefixes {stream}$"):
                    pc.decode_prefix(code, stream)
            else:
                assert pc.decode_prefix(code, stream) == expected


# --- prefix-freeness / max length ----------------------------------------

def test_prefix_code_construction_enforces_invariants():
    assert pc.PrefixCode({b"a": B("00"), b"b": B("01"), b"c": B("1")}).max_len == 2
    with pytest.raises(InvalidCode):
        pc.PrefixCode({})
    with pytest.raises(InvalidCode):
        pc.PrefixCode({b"a": B("0"), b"b": B("01")})
    with pytest.raises(InvalidCode):
        pc.PrefixCode({b"a": B("1"), b"b": B("1")})


@settings(max_examples=300)
@given(st.lists(st.text("01", max_size=5), max_size=8))
def test_prefix_code_accepts_exactly_the_prefix_free_injective_books(words):
    book = {bytes([i]): B(w) for i, w in enumerate(words)}
    pairs = [(a, b) for i, a in enumerate(words) for j, b in enumerate(words) if i != j]
    if not words:
        expected = "empty codebook"
    elif any(a == b for a, b in pairs):
        expected = "codebook is not injective"
    elif any(b.startswith(a) for a, b in pairs):
        expected = "codeword set is not prefix-free"
    else:
        code = pc.PrefixCode(book)
        assert code.codebook == book
        assert code.max_len == max(map(len, words))
        return
    with pytest.raises(InvalidCode, match=f"^{expected}$"):
        pc.PrefixCode(book)


def test_max_codeword_length():
    assert three_word_code().max_len == 2
    assert pc.PrefixCode({b"m": B("0")}).max_len == 1


# --- codebook file format -------------------------------------------------

def test_codebook_roundtrip():
    code = three_word_code()
    buf = io.StringIO()
    pc.save_codebook(code, buf, "huffman")
    buf.seek(0)
    loaded, name = pc.load_codebook(buf)
    assert name == "huffman"
    assert loaded.codebook == code.codebook


def test_codebook_empty_message_roundtrip():
    code = pc.PrefixCode({b"": B("0"), b"x": B("1")})
    buf = io.StringIO()
    pc.save_codebook(code, buf)
    buf.seek(0)
    loaded, _ = pc.load_codebook(buf)
    assert loaded.codebook == code.codebook


def test_codebook_rejects_a_message_listed_twice():
    text = "padcrypt-codebook 1 custom 2\n0 61 0\n1 61 1\n"
    with pytest.raises(CodebookFormatError, match="listed more than once"):
        pc.load_codebook(io.StringIO(text))


def test_codebook_rejects_garbage():
    with pytest.raises(CodebookFormatError):
        pc.load_codebook(io.StringIO("not a codebook\n"))
    buf = io.StringIO()
    pc.save_codebook(three_word_code(), buf)
    truncated = "\n".join(buf.getvalue().splitlines()[:-1]) + "\n"
    with pytest.raises(CodebookFormatError):
        pc.load_codebook(io.StringIO(truncated))


def test_every_error_is_exported_from_the_package():
    # the README names CodebookFormatError as what load_codebook raises
    errors = {name: obj for name, obj in vars(pc.errors).items()
              if isinstance(obj, type) and issubclass(obj, pc.PadcryptError)}
    assert "CodebookFormatError" in errors
    for name, cls in errors.items():
        assert getattr(pc, name, None) is cls, name


# every name `padcrypt` exports, by the module that defines it
PACKAGE_EXPORTS = {
    "bits": ["BitString", "elias_gamma", "elias_gamma_decode"],
    "cipher": ["Ciphertext", "EncryptionRecord", "decrypt", "encrypt", "key_cost",
               "read_frame", "write_frame"],
    "codec": ["ExternalCompressor", "MessageSpace", "PrefixCode", "build_huffman",
              "decode_prefix", "encode", "load_codebook", "save_codebook", "trim_code",
              "wrap_external"],
    "errors": ["CodebookFormatError", "DecryptionFailed", "DegenerateSpace",
               "EmptyCompressorOutput", "EnumerationTooLarge", "InvalidCode",
               "InvalidLength", "InvalidSpace", "KeyExhausted",
               "NondeterministicCompressor", "NotACodeword", "NotInCodebook",
               "PadcryptError", "PoolFormatError", "WireFormatError"],
    "keystore": ["KeyPool", "generate_pool"],
    "rng": ["OsRandomSource", "RandomSource", "SeededRandomSource"],
    "verify": ["BoundReport", "LeakReport", "SecrecyReport", "UniformityReport",
               "bound_report", "empirical_uniformity", "exact_secrecy_oracle",
               "key_discipline_equivalence", "leak_mutual_information",
               "shannon_entropy"],
}


def test_package_exports_resolve_to_their_home_modules():
    for home, names in PACKAGE_EXPORTS.items():
        module = importlib.import_module(f"padcrypt.{home}")
        for name in names:
            assert getattr(pc, name) is getattr(module, name), name
    assert sorted(pc.__all__) == sorted(n for names in PACKAGE_EXPORTS.values() for n in names)
    assert set(pc.__all__) <= set(dir(pc))
    with pytest.raises(AttributeError):
        pc.no_such_name
