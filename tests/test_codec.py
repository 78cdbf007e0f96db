import heapq
import importlib
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import padcrypt as pc
from padcrypt.bits import BitString, elias_gamma_decode
from padcrypt.codec import MAX_Q_BITS, _canonical
from padcrypt.errors import (
    CodebookFormatError,
    DegenerateSpace,
    EmptyCompressorOutput,
    InvalidCode,
    InvalidSpace,
    NondeterministicCompressor,
    NotACodeword,
    NotInCodebook,
    PadcryptError,
)

from conftest import (
    HOSTILE_CODEBOOKS,
    SPACE_4,
    brute_force_optimal_average,
    kraft_sum,
    large_prime_space_file,
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


def test_space_rejects_fewer_probabilities_than_messages():
    with pytest.raises(InvalidSpace, match="^probs and messages differ in length$"):
        pc.MessageSpace([b"a", b"b"], [Fraction(1)])


def test_space_rejects_bad_sum():
    with pytest.raises(InvalidSpace):
        pc.MessageSpace([b"a", b"b"], [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(InvalidSpace):
        pc.MessageSpace([b"a", b"b"], [0.5, 0.6])
    with pytest.raises(InvalidSpace):
        pc.MessageSpace([b"a", b"b"], [math.nan, 1.0])
    with pytest.raises(InvalidSpace):
        pc.MessageSpace([b"a", b"b"], [math.nan, math.nan])


@pytest.mark.parametrize("message", [3, True, [97], "a", None],
                         ids=["int", "bool", "list", "str", "None"])
def test_a_message_must_be_bytes_like(message):
    with pytest.raises(InvalidSpace, match="^a message is not a bytes-like object$"):
        pc.MessageSpace([message, b"b"], [Fraction(1, 2)] * 2)
    code = pc.build_huffman(pc.MessageSpace([b"\x00", b"a"], [Fraction(1, 2)] * 2))
    with pytest.raises(TypeError):
        pc.encode(code, message)


def test_a_message_may_be_any_bytes_like_object():
    import array
    sp = pc.MessageSpace([bytearray(b"a"), memoryview(b"bc"), array.array("B", b"d")],
                         [Fraction(1, 3)] * 3)
    assert sp.messages == (b"a", b"bc", b"d")
    code = pc.build_huffman(sp)
    for m in (bytearray(b"a"), memoryview(b"bc"), array.array("B", b"d")):
        assert pc.encode(code, m) == code.codebook[bytes(m)]


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
    primes = [Fraction(1, int(line.split("/")[1]))
              for line in large_prime_space_file().splitlines()]
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
        # a sum whose exact text would pass 80 characters is rounded: as one
        # fraction these run to thousands of digits, past what str() takes
        (primes, "probabilities sum to about 0.0106194, expected 1"),
        ([*primes, 0], "probabilities sum to about 0.0106194, expected 1"),
        ([Fraction(1, 3 ** 200), Fraction(1, 2)], "probabilities sum to about 0.5, expected 1"),
        ([Fraction(10 ** 400), Fraction(0)], "probabilities sum to more than 1e308, expected 1"),
        # a sum of ints is exact too, however large
        ([10 ** 400, 0], "probabilities sum to more than 1e308, expected 1"),
        ([2, 0], "probabilities sum to 2, expected 1"),
    ]
    for probs, text in cases:
        with pytest.raises(InvalidSpace) as exc:
            pc.MessageSpace([i.to_bytes(2, "big") for i in range(len(probs))], probs)
        assert str(exc.value) == text


def test_common_denominator_is_capped_at_max_q_bits():
    # block n=12 of (9/10, 1/10): q = 10^12, about 40 bits
    block = [Fraction(9, 10) ** k * Fraction(1, 10) ** (12 - k)
             for k in range(13) for _ in range(math.comb(12, k))]
    assert pc.MessageSpace([i.to_bytes(2, "big") for i in range(4096)], block)._q == 10 ** 12
    # q = 2^(bits - 1) has `bits` bits
    for bits in (MAX_Q_BITS - 1, MAX_Q_BITS):
        p = Fraction(1, 2 ** (bits - 1))
        assert pc.MessageSpace([b"a", b"b"], [p, 1 - p])._q.bit_length() == bits
    p = Fraction(1, 2 ** MAX_Q_BITS)
    with pytest.raises(InvalidSpace, match=f"^common denominator of the probabilities "
                                           f"passes {MAX_Q_BITS} bits$"):
        pc.MessageSpace([b"a", b"b"], [p, 1 - p])


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


def test_trim_rejects_a_code_over_other_messages():
    code = pc.build_huffman(uniform_space_named([b"a", b"c"]))
    with pytest.raises(NotInCodebook, match="^code does not cover exactly the space's messages$"):
        pc.trim_code(code, uniform_space_named([b"a", b"b"]))


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
    code = pc.wrap_external(lambda m: BitString(m[0], 1), sp, "identity-bit")
    assert code.codebook[b"\x00"] == B("10")
    assert code.codebook[b"\x01"] == B("11")
    assert code.max_len == 2


def test_wrap_collision_is_refused():
    sp = pc.MessageSpace([b"ab", b"ac", b"b"], [Fraction(1, 3)] * 3)
    with pytest.raises(InvalidCode, match="^first-byte gave two messages the same output$"):
        pc.wrap_external(lambda m: m[:1], sp, "first-byte")


def test_wrap_gamma_header_lengths():
    # compressed bit-lengths (3,3,5,8): longest frame is gamma(8)+8 = 15 bits
    outputs = {b"a": B("101"), b"b": B("110"), b"c": B("10110"),
               b"d": B("10110111")}
    sp = uniform_space_named(list(outputs))
    code = pc.wrap_external(lambda m: outputs[m], sp, "bitlens")
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
    with pytest.raises(NondeterministicCompressor):
        pc.wrap_external(lambda m: next(flips), uniform_space_named([b"a", b"b"]), "flaky")


def test_wrap_rejects_empty_output():
    with pytest.raises(EmptyCompressorOutput):
        pc.wrap_external(lambda m: b"", uniform_space_named([b"a", b"b"]), "null")


def test_wrap_real_byte_compressor():
    import zlib
    sp = uniform_space_named([b"aaaaaaaaaaaa", b"hello world", b"x" * 40, b"q"])
    code = pc.wrap_external(lambda m: zlib.compress(m, 9), sp, "zlib-9")
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


def test_decode_prefix_error_names_no_stream_bit():
    # in `decrypt` the stream is a codeword and its pad: the text shows neither
    code = pc.PrefixCode({b"a": B("01"), b"b": B("1110")})
    texts = set()
    for stream in (B("00"), B("1101"), B("1111000")):
        with pytest.raises(NotACodeword) as exc:
            pc.decode_prefix(code, stream)
        texts.add(str(exc.value))
    assert texts == {"no codeword prefixes the stream"}


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
    codes.append(pc.wrap_external(lambda m: zlib.compress(m, 9), sp, "zlib-9"))
    # outputs of 1 to 3 bytes, told apart by their first byte
    codes.append(pc.wrap_external(lambda m: bytes([len(m)]) * (len(m) % 3 + 1), sp, "length"))

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
                with pytest.raises(NotACodeword, match="^no codeword prefixes the stream$"):
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
    assert_prefix_code_verdict(words)


@st.composite
def near_prefix_free_words(draw):
    """Some leaves of a random binary tree, so prefix-free, perhaps one of
    them lengthened past 1,000 bits, and perhaps one word more that is a
    copy, a prefix or an extension of one of them."""
    words = [""]
    for _ in range(draw(st.integers(0, 16))):
        w = words.pop(draw(st.integers(0, len(words) - 1)))
        words += [w + "0", w + "1"]
    words = [w for w in words if draw(st.integers(0, 3))] or words[:1]
    if draw(st.integers(0, 3)) == 0:  # a leaf stays a leaf however long it grows
        i = draw(st.integers(0, len(words) - 1))
        words[i] += bin(draw(st.integers(0, 2 ** 1001 - 1)) | 1 << 1001)[3:]
    if draw(st.booleans()):
        w = draw(st.sampled_from(words))
        extra = w[:draw(st.integers(0, len(w)))] + draw(st.text("01", max_size=3))
        words.insert(draw(st.integers(0, len(words))), extra)
    return draw(st.permutations(words))


@settings(max_examples=500)
@given(near_prefix_free_words())
def test_prefix_code_check_matches_a_pairwise_check_near_the_edge(words):
    # lists of random words are rarely prefix-free past a few words; these
    # are, or miss it by one word, which may sort far from the word it hits
    assert_prefix_code_verdict(words)


def assert_prefix_code_verdict(words):
    """PrefixCode accepts the words, or refuses them with the first failed
    check's text, exactly as a check of every ordered pair says."""
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


def test_prefix_code_check_needs_memory_linear_in_the_codebook():
    # 1,000 words `1` + a 10-bit index and one 200,000-bit word of zeros:
    # a check that left-aligned every word to the longest held 1,000 copies
    # of 200,000 bits, about 128 times the file's size
    lines = [f"{i} {i:04x} 1{i:010b}\n" for i in range(1000)]
    lines.append(f"1000 {1000:04x} {'0' * 200_000}\n")
    text = f"padcrypt-codebook 1 custom {len(lines)}\n" + "".join(lines)
    tracemalloc.start()
    try:
        code, _ = pc.load_codebook(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.max_len == 200_000
    assert peak <= 16 * len(text)


def test_max_codeword_length():
    assert three_word_code().max_len == 2
    assert pc.PrefixCode({b"m": B("0")}).max_len == 1


# --- space file format ---------------------------------------------------

def test_load_space():
    sp = pc.load_space(SPACE_4)
    assert sp.messages == (b"alpha", b"beta", b"\x00\xff", b"")
    assert sp.probs == (Fraction(1, 4),) * 4
    assert sp.is_exact


def test_load_space_bad_line():
    with pytest.raises(PadcryptError):
        pc.load_space('"unterminated 1/2\n')
    with pytest.raises(PadcryptError):
        pc.load_space("zz 1/2\nff 1/2\n")  # zz is not hex


def test_a_space_line_ends_at_a_newline_only():
    # str.splitlines would also end a line at U+2028, U+2029, U+0085, \x0b,
    # \x0c and \x1c-\x1e, cutting a quoted message in two
    sp = pc.load_space('"a\u2028b" 1/2\r\n"c\u2029d\u0085" 1/2\n')
    assert sp.messages == ("a\u2028b".encode(), "c\u2029d\u0085".encode())
    assert sp.probs == (Fraction(1, 2), Fraction(1, 2))
    # so the separators start no line of their own: the bad line is line 2
    with pytest.raises(PadcryptError, match="^space file line 2: "):
        pc.load_space("61 1/2\x0c\x1c\x1d\x1e\u2028\n62 x\n")


def test_a_probability_near_the_cap_still_loads():
    # 1e-9000 has a denominator of 29,898 bits, under the cap; 1 - 1e-9000 is
    # split into tokens of at most 4,000 digits, which int() reads under the
    # interpreter's default limit
    space = pc.load_space("".join([
        "61 1e-9000\n",
        f"62 {'9' * 4000}e-4000\n",
        f"63 {'9' * 4000}e-8000\n",
        f"64 {'9' * 1000}e-9000\n",
    ]))
    assert space.probs[0] == Fraction(1, 10 ** 9000)
    assert space._q == 10 ** 9000
    # a mantissa of zeros is 0 at any exponent
    for token in ("0e-1000000", "-0.00e+1_000_000"):
        assert pc.load_space(f"61 {token}\n62 1\n").probs == (0, 1)


@pytest.fixture(params=["default", "unlimited"])
def int_limit(request):
    """Runs a test under the interpreter's default limit on int() of a
    string, and with that limit off, as PYTHONINTMAXSTRDIGITS=0 sets it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(
        sys.int_info.default_max_str_digits if request.param == "default" else 0)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("token", [
    "1/" + "7" * 4301, "1/" + "7" * 10 ** 5, "1/" + "7" * 3 * 10 ** 5,
    "0." + "1" * 4301, "7" * 4301 + "/7", "1/" + "7_" * 4300 + "7", "1e-" + "1" * 4301,
], ids=["den-4301", "den-1e5", "den-3e5", "decimal-4301", "num-4301", "underscores-4301",
        "exponent-4301"])
def test_a_number_past_4300_digits_is_a_line_error_whatever_the_int_limit(int_limit, token):
    # with the limit off, Fraction would convert the digits (0.85 s for the
    # 300,000 of den-3e5 on Python 3.11) and the space would fail on its sum
    with pytest.raises(PadcryptError) as exc:
        pc.load_space(f"61 {token}\n62 1\n")
    assert type(exc.value) is PadcryptError
    refusal = f"a number of more than 4300 digits in {token!r}"
    assert str(exc.value) == f"space file line 1: {refusal[:60]}..."


def test_a_number_of_4300_digits_loads_whatever_the_int_limit(int_limit):
    den = 10 ** 4299
    space = pc.load_space(f"61 1/{den}\n62 {den - 1}/{den}\n63 0.{'0' * 4300}\n")
    assert space.probs == (Fraction(1, den), Fraction(den - 1, den), 0)


@pytest.mark.parametrize("numbers", [["12"] * 333_000, ["7" * 4300] * 232],
                         ids=["short-numbers", "numbers-of-4300-digits"])
def test_the_digit_bound_costs_time_and_memory_linear_in_a_line(numbers):
    # a 1 MB line, all one probability token: a bound that listed every
    # digit run peaked at about 20 MB on the short numbers, and one that
    # scanned a run from each of its digits took a minute on the long ones
    text = "61 " + " ".join(numbers) + "\n"
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(PadcryptError, match="^space file line 1: Invalid literal"):
            pc.load_space(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5
    assert peak <= 8 * len(text)


# --- codebook file format -------------------------------------------------

def test_codebook_roundtrip():
    code = three_word_code()
    loaded, name = pc.load_codebook(pc.save_codebook(code, "huffman"))
    assert name == "huffman"
    assert loaded.codebook == code.codebook


def test_codebook_empty_message_roundtrip():
    code = pc.PrefixCode({b"": B("0"), b"x": B("1")})
    loaded, _ = pc.load_codebook(pc.save_codebook(code))
    assert loaded.codebook == code.codebook


@st.composite
def accepted_codes(draw):
    """A code PrefixCode accepts, over words from near_prefix_free_words (the
    one-message code with the empty word among them) and any messages."""
    words = draw(near_prefix_free_words())
    messages = draw(st.lists(st.binary(max_size=3), min_size=len(words),
                             max_size=len(words), unique=True))
    try:
        return pc.PrefixCode({m: B(w) for m, w in zip(messages, words)})
    except InvalidCode:
        assume(False)


WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]


@given(accepted_codes(), st.text(min_size=1).filter(lambda name: name.split() == [name]))
def test_load_codebook_reads_what_save_codebook_writes(code, name):
    assert pc.load_codebook(pc.save_codebook(code, name)) == (code, name)


@given(st.one_of(st.just(""), st.builds(lambda a, space, b: a + space + b, st.text(),
                                        st.sampled_from(WHITESPACE), st.text())))
def test_save_codebook_refuses_a_name_load_codebook_would_split(name):
    with pytest.raises(ValueError, match="single nonempty token"):
        pc.save_codebook(three_word_code(), name)


def test_codebook_skips_blank_lines_and_counts_them():
    text = "padcrypt-codebook 1 custom 2\n0 61 0\n\n  \n1 62 1\n"
    code, _ = pc.load_codebook(text)
    assert code.codebook == {b"a": B("0"), b"b": B("1")}
    with pytest.raises(CodebookFormatError, match="^line 5: expected 3 fields$"):
        pc.load_codebook(text.replace("1 62 1", "1 62"))


def test_codebook_rejects_a_message_listed_twice():
    text = "padcrypt-codebook 1 custom 2\n0 61 0\n1 61 1\n"
    with pytest.raises(CodebookFormatError, match="listed more than once"):
        pc.load_codebook(text)


def test_codebook_rejects_garbage():
    with pytest.raises(CodebookFormatError):
        pc.load_codebook("not a codebook\n")
    truncated = "\n".join(pc.save_codebook(three_word_code()).splitlines()[:-1]) + "\n"
    with pytest.raises(CodebookFormatError):
        pc.load_codebook(truncated)


@pytest.mark.parametrize("case", list(HOSTILE_CODEBOOKS))
def test_codebook_rejects_hostile_files(case):
    text, error = HOSTILE_CODEBOOKS[case]
    with pytest.raises(CodebookFormatError, match=error):
        pc.load_codebook(text)


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
    "codec": ["MessageSpace", "PrefixCode", "build_huffman", "decode_prefix", "encode",
              "load_codebook", "load_space", "save_codebook", "trim_code", "wrap_external"],
    "errors": ["BoundViolation", "CodebookFormatError", "DecryptionFailed",
               "DegenerateSpace", "EmptyCompressorOutput", "EnumerationTooLarge", "InvalidCode",
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
