"""Fixed-length bit strings with MSB-first byte packing.

A BitString is an immutable ordered sequence of bits.  Internally the bits
live in a single int: bit 0 (the first bit) is the most significant bit of
`value`, so serialization to bytes is MSB-first within each byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class BitString:
    value: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("negative length")
        if self.value < 0 or self.value >> self.length:
            raise ValueError(f"value {self.value} does not fit in {self.length} bits")

    # --- constructors ---

    @classmethod
    def empty(cls) -> "BitString":
        return cls(0, 0)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        value = 0
        length = 0
        for b in bits:
            value = (value << 1) | (b & 1)
            length += 1
        return cls(value, length)

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

    def __iter__(self) -> Iterator[int]:
        for i in range(self.length):
            yield (self.value >> (self.length - 1 - i)) & 1

    def __str__(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    # --- operations ---

    def __add__(self, other: "BitString") -> "BitString":
        return BitString((self.value << other.length) | other.value,
                         self.length + other.length)

    def xor(self, other: "BitString") -> "BitString":
        if self.length != other.length:
            raise ValueError("xor of unequal lengths")
        return BitString(self.value ^ other.value, self.length)

    def prefix(self, n: int) -> "BitString":
        if not 0 <= n <= self.length:
            raise ValueError(n)
        return BitString(self.value >> (self.length - n), n)

    def slice(self, start: int, stop: int) -> "BitString":
        if not 0 <= start <= stop <= self.length:
            raise ValueError((start, stop))
        width = stop - start
        return BitString((self.value >> (self.length - stop)) & ((1 << width) - 1),
                         width)

    def startswith(self, other: "BitString") -> bool:
        return other.length <= self.length and self.prefix(other.length) == other

    def to_bytes(self) -> bytes:
        """Pack MSB-first; low bits of the final byte are zero-filled.

        Zero fill is only used for deterministic file formats; ciphertext
        frames append random bits before packing so no zeros ever pad them.
        """
        nbytes = (self.length + 7) // 8
        return (self.value << (8 * nbytes - self.length)).to_bytes(nbytes, "big")


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
    return stream.prefix(consumed).value, consumed


def fixed_width(i: int, width: int) -> BitString:
    """i as a binary word of exactly `width` bits."""
    if i < 0 or (width == 0 and i > 0) or i.bit_length() > width:
        raise ValueError(f"{i} does not fit in {width} bits")
    return BitString(i, width)
