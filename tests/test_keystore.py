import os
import subprocess
import sys
from pathlib import Path

import pytest

import padcrypt
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


def test_a_cursor_past_the_material_is_refused():
    with pytest.raises(PoolFormatError, match="^cursor 9 outside pool of 8 bits$"):
        KeyPool(BitString(0, 8), 9)


def test_save_refuses_an_id_the_header_cannot_hold(tmp_path):
    pool = KeyPool(BitString(0, 8), pool_id="x" * 256)
    with pytest.raises(PoolFormatError, match="^pool id longer than 255 bytes$"):
        pool.save(tmp_path / "k.pool")
    assert list(tmp_path.iterdir()) == []


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
    # past the end peek is refused as take is, with the same text, not clipped
    for read in (pool.peek, pool.take):
        with pytest.raises(KeyExhausted, match="^pool t: need 10 bits, 4 remain$"):
            read(10)
        assert pool.cursor == 2
    assert str(pool.peek(4)) == "0010"
    with pytest.raises(ValueError):
        pool.peek(-1)


def test_save_load_roundtrip(tmp_path):
    pool = generate_pool(77, SeededRandomSource(7))
    pool.take(5)
    path = tmp_path / "k.pool"
    pool.save(path)
    loaded = KeyPool.load(path)
    assert loaded.material == pool.material
    assert loaded.cursor == 5
    assert loaded.pool_id == pool.pool_id


def test_save_through_a_symlink_updates_the_real_file(tmp_path):
    # renaming over the link itself would replace it with a copy and leave
    # the real file at cursor 0, to hand out the same bits again
    (tmp_path / "secure").mkdir()
    (tmp_path / "keys").mkdir()
    real = tmp_path / "secure" / "k.pool"
    generate_pool(64, SeededRandomSource(3)).save(real)
    link = tmp_path / "keys" / "k.pool"
    link.symlink_to(os.path.join("..", "secure", "k.pool"))
    KeyPool.load(link).take(8)
    assert link.is_symlink()
    assert KeyPool.load(real).cursor == 8
    assert os.stat(real).st_mode & 0o777 == 0o600
    assert os.listdir(tmp_path / "keys") == ["k.pool"]
    assert os.listdir(tmp_path / "secure") == ["k.pool"]


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


# A child process that loads the pool at argv[1], makes the argv[3]-th call
# of os.<argv[2]> end the process instead of running, then takes 8 bits and
# prints them.
KILLED_TAKE = """
import os, sys
from padcrypt import KeyPool
pool = KeyPool.load(sys.argv[1])
name, k = sys.argv[2], int(sys.argv[3])
real, calls = getattr(os, name), []
def call(*args):
    calls.append(args)
    if len(calls) == k:
        os._exit(9)
    return real(*args)
setattr(os, name, call)
print(pool.take(8), flush=True)
"""

# The calls of a pool save in the order write_file makes them: the directory's
# open, the temp file's open, its mode, its bytes, its sync, the rename, its
# close, and the directory's close, which follows the directory's sync.  The
# last point never comes, so that child prints its bits.
KILL_POINTS = [("open", 1), ("open", 2), ("fchmod", 1), ("write", 1), ("fsync", 1),
               ("replace", 1), ("close", 1), ("close", 2), ("close", 3)]


@pytest.fixture(scope="module")
def killed_takes(tmp_path_factory):
    """(kill point, pool directory, child process) for each kill point, each
    run once for the two tests below.  The directories are not tmp_path: what
    a kill leaves in them is the second test's to judge."""
    src = str(Path(padcrypt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = []
    for name, k in KILL_POINTS:
        folder = tmp_path_factory.mktemp(f"kill-{name}-{k}")
        pool = generate_pool(64, SeededRandomSource(17))
        pool.take(8)
        pool.save(folder / "k.pool")
        proc = subprocess.run([sys.executable, "-c", KILLED_TAKE, str(folder / "k.pool"),
                               name, str(k)], env=env, capture_output=True, encoding="utf-8",
                              timeout=60)
        runs.append(((name, k), folder, proc))
    return runs


def test_a_take_killed_in_its_save_leaves_the_old_cursor_or_the_new(killed_takes):
    # the write-ahead rule: the pool always loads, and bits the child printed
    # are behind the cursor on disk
    cursors = set()
    for point, folder, proc in killed_takes:
        assert proc.returncode == (0 if point == KILL_POINTS[-1] else 9), (point, proc.stderr)
        pool = KeyPool.load(folder / "k.pool")
        assert pool.cursor in (8, 16), point
        if proc.stdout:
            assert pool.cursor == 16, point
            assert proc.stdout == f"{pool.material.slice(8, 16)}\n"
        cursors.add(pool.cursor)
    assert cursors == {8, 16}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_a_take_killed_in_its_save_leaves_no_copy_of_the_pool(killed_takes):
    # write_file's temp file holds all the key material; a kill between its
    # open and the rename leaves it behind, and nothing removes it
    for point, folder, _ in killed_takes:
        assert os.listdir(folder) == ["k.pool"], point


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
