import os

import pytest

from padcrypt import KeyPool, SeededRandomSource, generate_pool
from padcrypt.bits import BitString
from padcrypt.errors import InvalidLength, KeyExhausted, PadcryptError, PoolFormatError

from conftest import hostile_pools


def test_generate_pool_basic():
    pool = generate_pool(16, SeededRandomSource(1))
    assert len(pool.material) == 16
    assert pool.cursor == 0
    assert pool.remaining == 16


def test_generate_pool_deterministic_with_seed():
    a = generate_pool(64, SeededRandomSource(42))
    b = generate_pool(64, SeededRandomSource(42))
    assert a.material == b.material
    assert a.pool_id == b.pool_id


def test_generate_pool_zero_bits():
    with pytest.raises(InvalidLength):
        generate_pool(0, SeededRandomSource(1))


def test_take_advances_disjoint_ranges():
    pool = KeyPool(BitString.from_str("10110100"), pool_id="t")
    first = pool.take(3)
    second = pool.take(3)
    assert str(first) == "101"
    assert str(second) == "101"  # bits 3..5 of the material
    assert pool.cursor == 6
    assert str(pool.material)[:6] == str(first) + str(second)


def test_take_exhaustion_is_fatal():
    pool = KeyPool(BitString.from_str("1010"), pool_id="t")
    pool.take(3)
    with pytest.raises(KeyExhausted):
        pool.take(2)
    # failed take must not move the cursor
    assert pool.cursor == 3


def test_take_zero_is_identity():
    pool = KeyPool(BitString.from_str("1010"), pool_id="t")
    assert pool.take(0) == BitString(0, 0)
    assert pool.cursor == 0


def test_peek_does_not_consume():
    pool = KeyPool(BitString.from_str("110010"), pool_id="t")
    assert str(pool.peek(4)) == "1100"
    assert pool.cursor == 0
    pool.take(2)
    assert str(pool.peek(10)) == "0010"  # clipped to remaining


def test_save_load_roundtrip(tmp_path):
    pool = generate_pool(77, SeededRandomSource(7))
    pool.take(5)
    path = tmp_path / "k.pool"
    pool.save(path)
    loaded = KeyPool.load(path)
    assert loaded.material == pool.material
    assert loaded.cursor == 5
    assert loaded.pool_id == pool.pool_id


def test_load_never_reissues_consumed_bits(tmp_path):
    pool = generate_pool(40, SeededRandomSource(9))
    issued = [str(pool.take(12))]
    path = tmp_path / "k.pool"
    pool.save(path)
    loaded = KeyPool.load(path)
    issued.append(str(loaded.take(12)))
    assert "".join(issued) == str(pool.material)[:24]


def test_backed_pool_writes_cursor_ahead(tmp_path):
    pool = generate_pool(32, SeededRandomSource(3))
    path = tmp_path / "k.pool"
    pool.save(path)
    pool.backing_path = path
    pool.take(10)
    # on-disk cursor already advanced, so a crash cannot cause reuse
    assert KeyPool.load(path).cursor == 10


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_two_handles_on_one_pool_file_never_issue_the_same_bits(tmp_path):
    # two processes that load one pool file before either takes: each handle
    # must either be refused or hand out a key range the other never does
    path = tmp_path / "k.pool"
    generate_pool(64, SeededRandomSource(11)).save(path)
    try:
        handles = [KeyPool.load(path), KeyPool.load(path)]
        starts = []
        for pool in handles:
            starts.append(pool.cursor)
            pool.take(16)
    except PadcryptError:
        return
    assert abs(starts[0] - starts[1]) >= 16


def test_load_truncated_file(tmp_path):
    pool = generate_pool(64, SeededRandomSource(5))
    path = tmp_path / "k.pool"
    pool.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(PoolFormatError):
        KeyPool.load(path)


def test_load_bad_magic(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
    with pytest.raises(PoolFormatError):
        KeyPool.load(path)


def test_load_bad_version(tmp_path):
    pool = generate_pool(8, SeededRandomSource(5))
    path = tmp_path / "k.pool"
    pool.save(path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(PoolFormatError):
        KeyPool.load(path)


@pytest.mark.parametrize("case", ["pool-cut-in-cursor", "pool-cursor-beyond"])
def test_load_rejects_hostile_files(tmp_path, case):
    path = tmp_path / "k.pool"
    generate_pool(64, SeededRandomSource(5)).save(path)
    blob, error = hostile_pools(path.read_bytes())[case]
    path.write_bytes(blob)
    with pytest.raises(PoolFormatError, match=error):
        KeyPool.load(path)


def test_pool_file_permissions(tmp_path):
    pool = generate_pool(8, SeededRandomSource(5))
    path = tmp_path / "k.pool"
    pool.save(path)
    assert (path.stat().st_mode & 0o777) == 0o600
    # saving over an existing, world-readable file tightens it too
    existing = tmp_path / "old.pool"
    existing.write_bytes(b"")
    os.chmod(existing, 0o644)
    pool.save(existing)
    assert (existing.stat().st_mode & 0o777) == 0o600


def test_save_survives_short_writes(tmp_path, monkeypatch):
    pool = generate_pool(300, SeededRandomSource(11))
    pool.take(17)
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
    path = tmp_path / "k.pool"
    pool.save(path)
    loaded = KeyPool.load(path)
    assert loaded.material == pool.material
    assert loaded.cursor == 17


def test_failed_save_keeps_the_old_pool(tmp_path, monkeypatch):
    pool = generate_pool(64, SeededRandomSource(13))
    pool.take(5)
    path = tmp_path / "k.pool"
    pool.save(path)
    pool.backing_path = path

    def no_space(fd, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", no_space)
    with pytest.raises(OSError):
        pool.take(8)
    monkeypatch.undo()
    loaded = KeyPool.load(path)
    assert loaded.material == pool.material
    assert loaded.cursor == 5
    assert os.listdir(tmp_path) == ["k.pool"]
