import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padcrypt.bits import BitString, elias_gamma, elias_gamma_decode, render


def test_from_str_and_back():
    b = BitString.from_str("0011")
    assert str(b) == "0011"
    assert len(b) == 4
    assert list(b) == [0, 0, 1, 1]


def test_empty():
    b = BitString(0, 0)
    assert len(b) == 0
    assert str(b) == ""
    assert b.to_bytes() == b""


def test_indexing_is_msb_first():
    b = BitString.from_str("100")
    assert b[0] == 1
    assert b[1] == 0
    with pytest.raises(IndexError):
        b[3]


def test_concat_and_xor():
    a = BitString.from_str("01")
    b = BitString.from_str("11")
    assert str(a + b) == "0111"
    assert str(a.xor(b)) == "10"
    with pytest.raises(ValueError):
        a.xor(BitString.from_str("1"))


def test_byte_packing_msb_first():
    # 1010 packs into the high nibble; low bits zero-filled
    assert BitString.from_str("1010").to_bytes() == b"\xa0"
    assert BitString.from_bytes(b"\xa0", 4) == BitString.from_str("1010")
    assert BitString.from_bytes(b"\x81") == BitString.from_str("10000001")


def test_slice_from_the_start_and_inside():
    b = BitString.from_str("110100")
    assert str(b.slice(0, 3)) == "110"
    assert str(b.slice(2, 5)) == "010"
    assert b.slice(0, 4) == BitString.from_str("1101")
    assert b.slice(0, 3) != BitString.from_str("111")


def test_bitstring_is_an_immutable_value():
    b = BitString(5, 3)
    assert b == BitString(5, 3)
    assert hash(b) == hash(BitString(5, 3))
    assert b != BitString(5, 4)
    assert b != (5, 3)
    assert repr(b) == "BitString(value=5, length=3)"
    with pytest.raises(AttributeError):
        b.value = 4
    assert b == BitString(5, 3)
    for clone in (pickle.loads(pickle.dumps(b)), copy.copy(b), copy.deepcopy(b)):
        assert clone == b and hash(clone) == hash(b)
        with pytest.raises(AttributeError):
            clone.length = 4


def test_value_must_fit():
    with pytest.raises(ValueError):
        BitString(4, 2)


@pytest.mark.parametrize("make, error", [
    (lambda: BitString(0, -1), "^negative length$"),
    (lambda: BitString.from_bytes(b"\x00", 9), "^nbits 9 out of range for 1 bytes$"),
    (lambda: BitString(5, 3).slice(2, 1), r"^\(2, 1\)$"),
], ids=["negative-length", "more-bits-than-bytes", "slice-ends-before-it-starts"])
def test_bad_arguments_are_refused(make, error):
    with pytest.raises(ValueError, match=error):
        make()


@given(st.lists(st.integers(0, 1), max_size=64))
def test_bits_roundtrip(bits):
    b = BitString.from_str("".join(map(str, bits)))
    assert list(b) == bits
    assert BitString.from_str(str(b)) == b
    assert BitString.from_bytes(b.to_bytes(), len(b)) == b


def format_reference(v: int, n: int) -> str:
    return format(v, f"0{n}b") if n else ""


@given(st.data())
def test_str_is_the_zero_padded_binary_of_value(data):
    n = data.draw(st.integers(0, 300))
    v = data.draw(st.sampled_from([0, (1 << n) - 1]) | st.integers(0, (1 << n) - 1))
    assert str(BitString(v, n)) == format_reference(v, n)


words = st.integers(0, 200).flatmap(lambda n: st.builds(
    BitString, st.sampled_from([0, (1 << n) - 1]) | st.integers(0, (1 << n) - 1), st.just(n)))


@given(st.lists(words, max_size=20))
def test_render_gives_each_word_its_zero_padded_binary(ws):
    assert render(ws) == [format_reference(w.value, w.length) for w in ws]
    assert render(iter(ws)) == list(map(str, ws))


def test_str_of_a_long_word():
    v = random.Random(200_000).getrandbits(200_000)
    assert str(BitString(v, 200_000)) == format_reference(v, 200_000)
    assert BitString.from_str(str(BitString(v, 200_000))).value == v


def test_gamma_known_values():
    assert str(elias_gamma(1)) == "1"
    assert str(elias_gamma(2)) == "010"
    assert str(elias_gamma(3)) == "011"
    assert str(elias_gamma(8)) == "0001000"
    assert len(elias_gamma(8)) == 7
    with pytest.raises(ValueError):
        elias_gamma(0)


@given(st.integers(1, 10_000))
def test_gamma_roundtrip(n):
    code = elias_gamma(n)
    assert len(code) == 2 * (n.bit_length() - 1) + 1
    tail = BitString.from_str("1011")
    decoded, used = elias_gamma_decode(code + tail)
    assert (decoded, used) == (n, len(code))


@pytest.mark.parametrize("stream", ["", "0", "000", "0000000", "001", "00010"])
def test_gamma_decode_rejects_truncated_streams(stream):
    with pytest.raises(ValueError, match="truncated gamma code"):
        elias_gamma_decode(BitString.from_str(stream))


def test_gamma_is_prefix_free_up_to_64():
    codes = [str(elias_gamma(n)) for n in range(1, 65)]
    for i, a in enumerate(codes):
        for b in codes[i + 1:]:
            assert not a.startswith(b) and not b.startswith(a)


def test_fixed_width():
    assert str(BitString(3, 4)) == "0011"
    assert str(BitString(5, 3)) == "101"
    with pytest.raises(ValueError):
        BitString(8, 3)
