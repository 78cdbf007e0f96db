"""One-time-pad key pools: generation, monotone consumption, persistence.

A pool's cursor only ever moves forward; bits behind it are never returned
again.  When a pool is bound to a file, the advanced cursor is written to
disk *before* the bits are handed to the caller, so a crash can waste key
material but never reuse it.
"""

from __future__ import annotations

from ._files import write_file
from .bits import BitString
from .errors import InvalidLength, KeyExhausted, PoolFormatError

TYPE_CHECKING = False
if TYPE_CHECKING:
    # annotations only: `audit` loads this module and needs no random source,
    # and no command loads pathlib
    from pathlib import Path

    from .rng import RandomSource

POOL_MAGIC = b"PCKP"
POOL_VERSION = 1


class KeyPool:
    def __init__(self, material: BitString, cursor: int = 0, pool_id: str = "",
                 backing_path: "str | Path | None" = None):
        if not 0 <= cursor <= len(material):
            raise PoolFormatError(f"cursor {cursor} outside pool of {len(material)} bits")
        self.material = material
        self.cursor = cursor
        self.pool_id = pool_id
        self.backing_path = backing_path or None

    @property
    def remaining(self) -> int:
        return len(self.material) - self.cursor

    def take(self, s: int) -> BitString:
        """Consume and return the next s key bits, advancing the cursor."""
        bits = self.peek(s)
        self.cursor += s
        if s and self.backing_path is not None:
            # write-ahead: persist a moved cursor before releasing the bits
            self.save(self.backing_path)
        return bits

    def peek(self, s: int) -> BitString:
        """The next s key bits, without consuming them; KeyExhausted unless
        s bits remain.  The pool's one bounds check: `take` reads through it."""
        if s < 0:
            raise ValueError("negative bit count")
        if s > self.remaining:
            raise KeyExhausted(
                f"pool {self.pool_id}: need {s} bits, {self.remaining} remain")
        return self.material.slice(self.cursor, self.cursor + s)

    # --- persistence -----------------------------------------------------
    #
    # magic(4) version(1) idlen(1) id cursor(8 BE, bits) nbits(8 BE) material

    def save(self, path: "str | Path") -> None:
        ident = self.pool_id.encode()
        if len(ident) > 255:
            raise PoolFormatError("pool id longer than 255 bytes")
        blob = (POOL_MAGIC + bytes([POOL_VERSION, len(ident)]) + ident
                + self.cursor.to_bytes(8, "big")
                + len(self.material).to_bytes(8, "big")
                + self.material.to_bytes())
        # always 0600, and on disk before the bits are released
        write_file(path, lambda: blob, 0o600)

    @classmethod
    def load(cls, path: "str | Path") -> "KeyPool":
        with open(path, "rb") as f:
            blob = f.read()
        if len(blob) < 6 or blob[:4] != POOL_MAGIC:
            raise PoolFormatError(f"{path}: not a key pool file")
        if blob[4] != POOL_VERSION:
            raise PoolFormatError(f"{path}: unsupported version {blob[4]}")
        idlen = blob[5]
        off = 6 + idlen
        if len(blob) < off + 16:
            raise PoolFormatError(f"{path}: truncated header")
        try:
            ident = blob[6:off].decode()
        except UnicodeDecodeError:
            raise PoolFormatError(f"{path}: pool id is not UTF-8") from None
        cursor = int.from_bytes(blob[off:off + 8], "big")
        nbits = int.from_bytes(blob[off + 8:off + 16], "big")
        material_bytes = blob[off + 16:]
        if len(material_bytes) != (nbits + 7) // 8:
            raise PoolFormatError(f"{path}: truncated key material")
        material = BitString.from_bytes(material_bytes, nbits)
        if cursor > nbits:
            raise PoolFormatError(f"{path}: cursor beyond material")
        return cls(material, cursor, ident, backing_path=path)


def generate_pool(nbits: int, rng: RandomSource) -> KeyPool:
    """Fresh pool of nbits uniform bits, cursor at 0."""
    if nbits < 1:
        raise InvalidLength("pool must hold at least 1 bit")
    if nbits >= 2 ** 64:  # the pool header holds nbits in 8 bytes
        raise InvalidLength("pool must hold fewer than 2^64 bits")
    pool_id = format(rng.bits(64).value, "016x")
    return KeyPool(rng.bits(nbits), 0, pool_id)
