"""One-time-pad key pools: generation, monotone consumption, persistence.

A pool's cursor only ever moves forward; bits behind it are never returned
again.  When a pool is bound to a file, the advanced cursor is written to
disk *before* the bits are handed to the caller, so a crash can waste key
material but never reuse it.
"""

from __future__ import annotations

import os
from pathlib import Path

from .bits import BitString
from .errors import InvalidLength, KeyExhausted, PoolFormatError
from .rng import RandomSource

POOL_MAGIC = b"PCKP"
POOL_VERSION = 1


class KeyPool:
    def __init__(self, material: BitString, cursor: int = 0, pool_id: str = "",
                 backing_path: "Path | None" = None):
        if not 0 <= cursor <= len(material):
            raise PoolFormatError(f"cursor {cursor} outside pool of {len(material)} bits")
        self.material = material
        self.cursor = cursor
        self.pool_id = pool_id
        self.backing_path = Path(backing_path) if backing_path else None

    @property
    def remaining(self) -> int:
        return len(self.material) - self.cursor

    def take(self, s: int) -> BitString:
        """Consume and return the next s key bits, advancing the cursor."""
        if s < 0:
            raise ValueError("negative bit count")
        if s > self.remaining:
            raise KeyExhausted(
                f"pool {self.pool_id}: need {s} bits, {self.remaining} remain")
        start = self.cursor
        self.cursor += s
        if self.backing_path is not None:
            # write-ahead: persist the new cursor before releasing the bits
            self.save(self.backing_path)
        return self.material.slice(start, start + s)

    def peek(self, s: int) -> BitString:
        """Read up to s upcoming bits without consuming them."""
        s = min(s, self.remaining)
        return self.material.slice(self.cursor, self.cursor + s)

    # --- persistence -----------------------------------------------------
    #
    # magic(4) version(1) idlen(1) id cursor(8 BE, bits) nbits(8 BE) material

    def save(self, path: "str | Path") -> None:
        path = Path(path)
        ident = self.pool_id.encode()
        if len(ident) > 255:
            raise PoolFormatError("pool id longer than 255 bytes")
        blob = (POOL_MAGIC + bytes([POOL_VERSION, len(ident)]) + ident
                + self.cursor.to_bytes(8, "big")
                + len(self.material).to_bytes(8, "big")
                + self.material.to_bytes())
        # write a sibling file and rename it over the pool, so a failed write
        # leaves the old pool whole rather than a truncated one
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
        try:
            # the mode argument applies only on create; a stale file keeps its own
            os.fchmod(fd, 0o600)
            # os.write may write fewer bytes than asked (at most ~2 GiB on Linux)
            view = memoryview(blob)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        finally:
            os.close(fd)
        # make the rename itself durable
        dirfd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dirfd)
        finally:
            os.close(dirfd)

    @classmethod
    def load(cls, path: "str | Path") -> "KeyPool":
        path = Path(path)
        blob = path.read_bytes()
        if len(blob) < 6 or blob[:4] != POOL_MAGIC:
            raise PoolFormatError(f"{path}: not a key pool file")
        if blob[4] != POOL_VERSION:
            raise PoolFormatError(f"{path}: unsupported version {blob[4]}")
        idlen = blob[5]
        off = 6 + idlen
        if len(blob) < off + 16:
            raise PoolFormatError(f"{path}: truncated header")
        ident = blob[6:off].decode()
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
    pool_id = format(rng.bits(64).value, "016x")
    return KeyPool(rng.bits(nbits), 0, pool_id)
