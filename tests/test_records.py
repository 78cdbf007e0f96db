"""Behaviour of padcrypt's record classes: equality, repr, hashing,
immutability, and pickle/copy round trips, pinned to the text and results
that the equivalent dataclasses give."""

import copy
import pickle
import zlib
from fractions import Fraction

import pytest

import padcrypt as pc
from padcrypt.bits import BitString as B
from padcrypt.cipher import Ciphertext, EncryptionRecord
from padcrypt.verify import BoundReport, LeakReport, SecrecyReport, UniformityReport

HALVES = {B(0, 1): Fraction(1, 2), B(1, 1): Fraction(1, 2)}


def records():
    """A factory for one record of each class, with the record's pinned repr."""
    return [
        (lambda: pc.MessageSpace([b"a", b"b"], [Fraction(1, 4), Fraction(3, 4)]),
         "MessageSpace(messages=(b'a', b'b'), probs=(Fraction(1, 4), Fraction(3, 4)))"),
        (lambda: pc.PrefixCode({b"a": B(0, 1), b"b": B(1, 1)}),
         "PrefixCode(codebook={b'a': BitString(value=0, length=1), "
         "b'b': BitString(value=1, length=1)}, max_len=1)"),
        (lambda: pc.ExternalCompressor(zlib.compress, "zlib"),
         "ExternalCompressor(transform=<built-in function compress>, name='zlib')"),
        (lambda: Ciphertext(B(5, 3)),
         "Ciphertext(bits=BitString(value=5, length=3))"),
        (lambda: EncryptionRecord(Ciphertext(B(5, 3)), 1, "p0", 0, 1),
         "EncryptionRecord(ciphertext=Ciphertext(bits=BitString(value=5, length=3)), "
         "key_bits_used=1, pool_id='p0', cursor_start=0, cursor_end=1)"),
        (lambda: SecrecyReport(1, {b"a": dict(HALVES)}, dict(HALVES), Fraction(0), "perfect"),
         "SecrecyReport(l=1, per_message_dists={b'a': {BitString(value=0, length=1): "
         "Fraction(1, 2), BitString(value=1, length=1): Fraction(1, 2)}}, "
         "marginal={BitString(value=0, length=1): Fraction(1, 2), "
         "BitString(value=1, length=1): Fraction(1, 2)}, "
         "max_deviation=Fraction(0, 1), verdict='perfect')"),
        # the counts stay out of the repr: there are 2^l of them
        (lambda: UniformityReport(1, 2, 0.0, 1.0, True, [1, 1]),
         "UniformityReport(l=1, trials=2, statistic=0.0, p_value=1.0, insufficient_data=True)"),
        (lambda: LeakReport(0.5, "naive-ciphertext-length"),
         "LeakReport(mutual_information=0.5, observable='naive-ciphertext-length')"),
        (lambda: BoundReport(0.5, 1.0, 1, 2, "huffman", []),
         "BoundReport(entropy=0.5, average_length=1.0, max_length=1, length_cap=2, "
         "kind='huffman', violations=[])"),
    ]


IDS = [text.split("(", 1)[0] for _, text in records()]
# a record hashes its fields, and these have a dict or list field
UNHASHABLE = {"PrefixCode", "SecrecyReport", "UniformityReport", "BoundReport"}


@pytest.mark.parametrize("make, text", records(), ids=IDS)
def test_repr_and_equality(make, text):
    r = make()
    assert repr(r) == text
    assert r == make() and not r != make()
    assert r != text and r != None  # noqa: E711 -- only the same class compares
    assert (r == object()) is False


@pytest.mark.parametrize("make, text", records(), ids=IDS)
def test_hashing_and_immutability(make, text):
    r = make()
    name = type(r).__name__
    field = text.split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(r, field, None)
    with pytest.raises(AttributeError):
        delattr(r, field)
    assert r == make()
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == hash(make())


@pytest.mark.parametrize("make, text", records(), ids=IDS)
def test_pickle_and_copy_round_trip(make, text):
    r = make()
    for clone in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert clone == r and repr(clone) == text and type(clone) is type(r)


def test_records_take_their_fields_by_position_or_name():
    assert LeakReport(observable="x", mutual_information=0.5) == LeakReport(0.5, "x")
    assert Ciphertext(bits=B(5, 3)) == Ciphertext(B(5, 3))
    for args, kwargs in [((0.5,), {}), ((0.5, "x", 1), {}), ((0.5,), {"obs": "x"}),
                         ((0.5, "x"), {"observable": "y"})]:
        with pytest.raises(TypeError):
            LeakReport(*args, **kwargs)


def test_uniformity_counts_compare():
    assert (UniformityReport(1, 2, 0.0, 1.0, True, [1, 1])
            != UniformityReport(1, 2, 0.0, 1.0, True, [2, 0]))


def test_prefix_code_equality_ignores_its_lookup_caches():
    code = pc.PrefixCode({b"a": B(0, 1), b"b": B(1, 1)})
    other = pc.PrefixCode({b"a": B(0, 1), b"b": B(1, 1)})
    object.__setattr__(other, "_table", {})
    object.__setattr__(other, "_lengths", ())
    assert code == other
    clone = pickle.loads(pickle.dumps(code))
    assert clone._table == code._table and clone._lengths == code._lengths
    assert pc.decode_prefix(clone, B(2, 2)) == (b"b", 1)
