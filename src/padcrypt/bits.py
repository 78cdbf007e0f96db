"""Fixed-length bit strings with MSB-first byte packing.

A BitString is an immutable ordered sequence of bits.  Internally the bits
live in a single int: bit 0 (the first bit) is the most significant bit of
`value`, so serialization to bytes is MSB-first within each byte.
"""

from __future__ import annotations

from ._record import Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable

# bound once: a lookup of object.__setattr__ costs more than the store
_set = object.__setattr__


class BitString(Record):
    """`length` bits, MSB-first in the int `value`; compared by value.

    Like every padcrypt record, a slotted class rather than a frozen
    dataclass: importing `dataclasses` would cost a cold CLI call more than
    the command's own work.
    """

    __slots__ = ("value", "length")

    def __init__(self, value: int, length: int) -> None:
        if length < 0 or value < 0 or value >> length:
            if length < 0:
                raise ValueError("negative length")
            raise ValueError(f"value {value} does not fit in {length} bits")
        _set(self, "value", value)
        _set(self, "length", length)

    # --- constructors ---

    @classmethod
    def from_str(cls, s: str) -> "BitString":
        """Parse an ASCII string of 0s and 1s."""
        if s and set(s) - {"0", "1"}:
            raise ValueError(f"not a bit string: {s!r}")
        return cls(int(s, 2) if s else 0, len(s))

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int | None = None) -> "BitString":
        """Unpack MSB-first; nbits trims trailing pad bits of the final byte."""
        total = 8 * len(data)
        if nbits is None:
            nbits = total
        if not 0 <= nbits <= total:
            raise ValueError(f"nbits {nbits} out of range for {len(data)} bytes")
        value = int.from_bytes(data, "big") >> (total - nbits)
        return cls(value, nbits)

    # --- sequence protocol ---

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.value >> (self.length - 1 - i)) & 1

    def __str__(self) -> str:
        return render((self,))[0]

    # --- operations ---

    def __add__(self, other: "BitString") -> "BitString":
        return BitString((self.value << other.length) | other.value,
                         self.length + other.length)

    def xor(self, other: "BitString") -> "BitString":
        if self.length != other.length:
            raise ValueError("xor of unequal lengths")
        return BitString(self.value ^ other.value, self.length)

    def slice(self, start: int, stop: int) -> "BitString":
        if not 0 <= start <= stop <= self.length:
            raise ValueError((start, stop))
        width = stop - start
        return BitString((self.value >> (self.length - stop)) & ((1 << width) - 1),
                         width)

    def to_bytes(self) -> bytes:
        """Pack MSB-first; low bits of the final byte are zero-filled.

        Zero fill is only used for deterministic file formats; ciphertext
        frames append random bits before packing so no zeros ever pad them.
        """
        nbytes = (self.length + 7) // 8
        return (self.value << (8 * nbytes - self.length)).to_bytes(nbytes, "big")


def render(words: Iterable[BitString]) -> list[str]:
    """Each word's bits as 0/1 text, "" for the empty word: the one 0/1
    rendering, made in one comprehension, so a whole code costs no call
    per word."""
    # a leading 1 above the top bit keeps the zeros: "0b1" + the bits,
    # and "" for the empty word, without a format spec or a branch
    return [bin(w.value | 1 << w.length)[3:] for w in words]


def elias_gamma(n: int) -> BitString:
    """Elias gamma code of n >= 1: (bitlen-1) zeros, then n in binary."""
    if n < 1:
        raise ValueError("gamma code is defined for n >= 1")
    width = n.bit_length()
    return BitString(n, 2 * width - 1)


def elias_gamma_decode(stream: BitString) -> tuple[int, int]:
    """Decode a gamma code from the head of stream: (n, bits consumed)."""
    zeros = len(stream) - stream.value.bit_length()
    consumed = 2 * zeros + 1
    if consumed > len(stream):
        raise ValueError("truncated gamma code")
    return stream.slice(0, consumed).value, consumed
