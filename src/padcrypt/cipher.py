"""The compress / XOR / random-pad transform and its inverse.

Every ciphertext is exactly l bits long (l = longest codeword of the code
in force), so its length reveals nothing about which message was sent.
Only the s codeword bits consume secret key; the remaining l - s bits are
fresh public-quality randomness.
"""

from __future__ import annotations

from ._record import Record
from .bits import BitString
from .codec import MessageSpace, PrefixCode, decode_prefix, encode
from .errors import (
    DecryptionFailed,
    KeyExhausted,
    NotACodeword,
    WireFormatError,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    # annotations only: `decrypt` draws no random bits, and `report` and
    # `verify` use key_cost without a key pool
    from fractions import Fraction

    from .keystore import KeyPool
    from .rng import RandomSource

WIRE_MAGIC = b"PCWF"
WIRE_VERSION = 1


class Ciphertext(Record):
    __slots__ = ("bits",)
    bits: BitString

    @property
    def l(self) -> int:
        return len(self.bits)


class EncryptionRecord(Record):
    """Audit trail: which key range produced this ciphertext."""

    __slots__ = ("ciphertext", "key_bits_used", "pool_id", "cursor_start", "cursor_end")
    ciphertext: Ciphertext
    key_bits_used: int
    pool_id: str
    cursor_start: int
    cursor_end: int


def encrypt(m: bytes, code: PrefixCode, pool: KeyPool,
            rng: RandomSource) -> EncryptionRecord:
    """XOR the codeword with fresh key bits, pad with random bits to l bits."""
    x = encode(code, m)
    s = len(x)
    start = pool.cursor
    k = pool.take(s)
    y = x.xor(k)
    r = rng.bits(code.max_len - s)
    return EncryptionRecord(Ciphertext(y + r), s, pool.pool_id, start, pool.cursor)


def decrypt(c: Ciphertext, code: PrefixCode, pool: KeyPool) -> bytes:
    """Prefix-scan inverse: XOR key bits in until a codeword appears.

    Consumes exactly as many key bits as the sender did; the trailing pad
    bits are discarded unread.  Fail-stop: no partial message is emitted.
    """
    if c.l != code.max_len:
        raise DecryptionFailed(
            f"ciphertext is {c.l} bits, code in force needs {code.max_len}")
    window = pool.peek(c.l)
    xored = c.bits.prefix(len(window)).xor(window)
    try:
        m, s = decode_prefix(code, xored)
    except NotACodeword:
        if pool.remaining < c.l:
            raise KeyExhausted(
                f"pool {pool.pool_id}: only {pool.remaining} bits remain") from None
        raise DecryptionFailed("no prefix of the XORed bits is a codeword") from None
    pool.take(s)
    return m


def key_cost(space: MessageSpace, code: PrefixCode) -> Fraction | float:
    """Expected secret-key bits consumed per message: sum P(m) * |codeword|,
    summed on the space's weights; exact, as a Fraction, on an exact space."""
    total = sum(w * len(encode(code, m))
                for m, w in zip(space.messages, space._weights))
    if not space.is_exact:
        return total
    # loaded here, not at import: `encrypt` and `decrypt` do no exact arithmetic
    from fractions import Fraction

    return Fraction(total, space._q)


# --- wire format ---------------------------------------------------------
#
#   header: magic(4) version(1) code-hash(8) l(4 BE)
#   frame:  ceil(l/8) bytes; sub-byte tail bits are fresh random bits

def code_fingerprint(code: PrefixCode) -> bytes:
    """8-byte identifier of a codebook, stable across processes."""
    # SHA-256 from the standard library's own module, imported here, not at
    # import (`report` and `verify` hash nothing); hashlib would also load
    # OpenSSL's _hashlib, milliseconds of every cold `encrypt` and `decrypt`
    import sys

    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:  # an interpreter built without them
        from hashlib import sha256
    text = "".join(f"{m.hex()}:{w}\n" for m, w in sorted(code.codebook.items()))
    return sha256(text.encode()).digest()[:8]


def write_frame(record: EncryptionRecord, code: PrefixCode,
                rng: RandomSource) -> bytes:
    """Serialize header + one ciphertext frame.

    The final byte's unused low bits are filled with rng bits, never zeros,
    so the byte stream leaks nothing beyond the public length l.
    """
    bits = record.ciphertext.bits
    l = len(bits)
    tail = (-l) % 8
    packed = (bits + rng.bits(tail)).to_bytes()
    header = (WIRE_MAGIC + bytes([WIRE_VERSION]) + code_fingerprint(code)
              + l.to_bytes(4, "big"))
    return header + packed


def read_frame(blob: bytes, code: PrefixCode) -> Ciphertext:
    if len(blob) < 17 or blob[:4] != WIRE_MAGIC:
        raise WireFormatError("not a ciphertext frame")
    if blob[4] != WIRE_VERSION:
        raise WireFormatError(f"unsupported frame version {blob[4]}")
    if blob[5:13] != code_fingerprint(code):
        raise WireFormatError("frame was produced with a different codebook")
    l = int.from_bytes(blob[13:17], "big")
    body = blob[17:]
    if len(body) != (l + 7) // 8:
        raise WireFormatError(f"frame body is {len(body)} bytes, expected {(l + 7) // 8}")
    return Ciphertext(BitString.from_bytes(body, l))
