"""An obvious, slow model of padcrypt's cipher, frame and key pool.

It works on strings of "0" and "1" and shares no code with padcrypt beyond
the codebook dict it is given: it encodes by lookup, XORs and pads character
by character, hashes the codebook for the frame header itself, decodes by
trying every codeword, and takes key bits with a cursor.  A refusal is a
`Refused` that carries the name of the padcrypt error standing for it.
Random bits come from any source with a `bits(n)` draw, so equal seeded
sources give the model and padcrypt equal pads.
"""

import hashlib

MAGIC, VERSION, HEADER = b"PCWF", 1, 17


class Refused(Exception):
    """A refusal; args[0] is the name of the matching padcrypt error."""


def bits_of(word) -> str:
    """The 0/1 string of anything with padcrypt's `value` and `length`."""
    return "".join(str(word.value >> (word.length - 1 - i) & 1) for i in range(word.length))


def words(codebook) -> dict:
    """A codebook dict as message -> codeword string."""
    return {m: bits_of(w) for m, w in codebook.items()}


def xor(a: str, b: str) -> str:
    return "".join("0" if x == y else "1" for x, y in zip(a, b, strict=True))


class Pool:
    """Key bits as a string, and a cursor that only moves forward."""

    def __init__(self, rng, nbits: int):
        # as keygen draws them: a 64-bit id, then the key, from one source
        self.pool_id = format(int(bits_of(rng.bits(64)), 2), "016x")
        self.key = bits_of(rng.bits(nbits))
        self.cursor = 0

    def peek(self, n: int) -> str:
        if self.cursor + n > len(self.key):
            raise Refused("KeyExhausted")
        return self.key[self.cursor:self.cursor + n]

    def take(self, n: int) -> str:
        bits = self.peek(n)
        self.cursor += n
        return bits


def fingerprint(book: dict) -> bytes:
    text = "".join(f"{m.hex()}:{w}\n" for m, w in sorted(book.items()))
    return hashlib.sha256(text.encode()).digest()[:8]


def encrypt(message: bytes, book: dict, pool: Pool, rng) -> bytes:
    """The frame of one message: header, then codeword XOR key, padded with
    random bits to l, and the last byte's spare bits random too."""
    l = max(map(len, book.values()))
    if message not in book:
        raise Refused("NotInCodebook")
    pool.peek(l)  # refused unless l bits remain, whatever the codeword
    word = book[message]
    body = xor(word, pool.take(len(word))) + bits_of(rng.bits(l - len(word)))
    body += bits_of(rng.bits(-l % 8))
    header = MAGIC + bytes([VERSION]) + fingerprint(book) + l.to_bytes(4, "big")
    return header + bytes(int(body[i:i + 8], 2) for i in range(0, len(body), 8))


def decrypt(frame: bytes, book: dict, pool: Pool) -> bytes:
    """The one message whose codeword starts the body XOR the next l key
    bits; only that codeword's bits are taken."""
    l = max(map(len, book.values()))
    if len(frame) < HEADER or frame[:4] != MAGIC or frame[4] != VERSION:
        raise Refused("WireFormatError")
    n = int.from_bytes(frame[13:HEADER], "big")
    if frame[5:13] != fingerprint(book) or len(frame) - HEADER != (n + 7) // 8:
        raise Refused("WireFormatError")
    if n != l:
        raise Refused("DecryptionFailed")
    body = "".join(format(byte, "08b") for byte in frame[HEADER:])
    stream = xor(body[:l], pool.peek(l))
    found = [m for m, w in book.items() if stream.startswith(w)]
    if not found:
        raise Refused("DecryptionFailed")
    (message,) = found
    pool.take(len(book[message]))
    return message
