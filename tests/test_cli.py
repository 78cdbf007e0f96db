import ast
import contextlib
import errno
import os
import shutil
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import padcrypt
from padcrypt import cipher, cli, codec, keystore
from padcrypt.cli import main
from padcrypt.codec import MAX_Q_BITS
from padcrypt.errors import InvalidSpace, PadcryptError

from conftest import HOSTILE_CODEBOOKS, SPACE_4, hostile_pools, large_prime_space_file

SPACE_122 = """\
"a" 1/3
"b" 1/3
"c" 1/3
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- space file refusals --------------------------------------------------

@pytest.mark.parametrize("token", ["1e-1000000", "1e1000000", "1E+1_000_000", "-2.5e-1000000"])
def test_a_probability_no_space_can_hold_is_refused_before_it_is_built(
        tmp_path, capsys, token):
    # Fraction would build 10**1000000, seconds of work and megabytes
    text = f"61 {token}\n62 1\n"
    refusal = f"space file line 1: exponent out of range in {token!r}"
    codec.load_space(SPACE_4)  # the modules parsing loads are not part of its peak
    tracemalloc.start()
    try:
        with pytest.raises(PadcryptError) as exc:
            codec.load_space(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == refusal
    assert peak < 64 * 1024
    space = write(tmp_path, "space.txt", text)
    assert main(["build-code", "--space", space, "--out", str(tmp_path / "codebook")]) == 2
    assert capsys.readouterr().err == f"ERROR PadcryptError: {refusal}\n"


# --- subcommands ----------------------------------------------------------

def test_keygen_and_audit(tmp_path, capsys):
    out = str(tmp_path / "k.pool")
    assert main(["keygen", "1024", "--out", out,
                 "--rng", "seeded:1", "--insecure-test"]) == 0
    assert main(["audit", "--key", out]) == 0
    text = capsys.readouterr().out
    assert "cursor     0" in text
    assert "bits       1024" in text


def test_keygen_refuses_seeded_without_flag(tmp_path, capsys):
    out = str(tmp_path / "k.pool")
    assert main(["keygen", "64", "--out", out, "--rng", "seeded:1"]) == 2
    assert "ERROR" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_keygen_refuses_2_to_the_64_bits(tmp_path, capsys):
    # the pool header holds the bit count in 8 bytes; refused before any bit is drawn
    out = str(tmp_path / "k.pool")
    assert main(["keygen", str(2 ** 64), "--out", out]) == 2
    assert capsys.readouterr().err.startswith("ERROR InvalidLength:")
    assert not os.path.exists(out)


def test_keygen_out_of_memory_is_an_error_line(tmp_path, monkeypatch, capsys):
    def no_memory(n):
        raise MemoryError

    monkeypatch.setattr(os, "urandom", no_memory)
    out = str(tmp_path / "k.pool")
    assert main(["keygen", "64", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("ERROR MemoryError:")
    assert not os.path.exists(out)


def test_encrypt_refuses_seeded_without_flag(tmp_path, capsys):
    # a seeded pad is one fixed value per codeword length, so the frame's
    # padding would show the length the padding exists to hide
    space = write(tmp_path, "space.txt", SPACE_4)
    book, key, frame = (str(tmp_path / n) for n in ("codebook", "k.pool", "frame"))
    main(["build-code", "--space", space, "--out", book])
    main(["keygen", "64", "--out", key, "--rng", "seeded:9", "--insecure-test"])
    (tmp_path / "msg").write_bytes(b"alpha")
    capsys.readouterr()
    assert main(["encrypt", "--code", book, "--key", key, "--in", str(tmp_path / "msg"),
                 "--out", frame, "--rng", "seeded:4"]) == 2
    assert capsys.readouterr().err == "ERROR PadcryptError: encrypt: unknown option --rng\n"
    assert keystore.KeyPool.load(key).cursor == 0
    assert not os.path.exists(frame)


def test_build_encrypt_decrypt_roundtrip(tmp_path, capsys):
    space = write(tmp_path, "space.txt", SPACE_4)
    book = str(tmp_path / "codebook")
    key = str(tmp_path / "k.pool")
    frame = str(tmp_path / "frame")
    msg_in = str(tmp_path / "msg")
    msg_out = str(tmp_path / "msg.out")

    assert main(["build-code", "--space", space, "--out", book]) == 0
    assert main(["keygen", "256", "--out", key,
                 "--rng", "seeded:9", "--insecure-test"]) == 0
    (tmp_path / "msg").write_bytes(b"beta")
    assert main(["encrypt", "--code", book, "--key", key,
                 "--in", msg_in, "--out", frame]) == 0

    # receiver replays from an identically generated pool
    key2 = str(tmp_path / "k2.pool")
    assert main(["keygen", "256", "--out", key2,
                 "--rng", "seeded:9", "--insecure-test"]) == 0
    assert main(["decrypt", "--code", book, "--key", key2,
                 "--in", frame, "--out", msg_out]) == 0
    assert (tmp_path / "msg.out").read_bytes() == b"beta"


def test_encrypt_consumes_key_on_disk(tmp_path, capsys):
    space = write(tmp_path, "space.txt", SPACE_4)
    book = str(tmp_path / "codebook")
    key = str(tmp_path / "k.pool")
    main(["build-code", "--space", space, "--out", book])
    main(["keygen", "64", "--out", key, "--rng", "seeded:9", "--insecure-test"])
    (tmp_path / "msg").write_bytes(b"alpha")
    main(["encrypt", "--code", book, "--key", key,
          "--in", str(tmp_path / "msg"), "--out", str(tmp_path / "f")])
    capsys.readouterr()
    main(["audit", "--key", key])
    assert "cursor     2" in capsys.readouterr().out


def tree(root):
    """Every path under root, relative to it."""
    return sorted(str(p.relative_to(root)) for p in Path(root).rglob("*"))


def test_stdout_does_not_depend_on_the_message(tmp_path, monkeypatch, capsys):
    # The contract: nothing encrypt or decrypt emits depends on which message
    # was sent: stdout, stderr, the exit code, whether a frame or an output
    # file appears and the frame's length, at a pool end (r < l) as with key
    # to spare. "a" and "c" get codewords of 1 and 2 bits, l = 2, so printing
    # s or a cursor delta, or refusing only the longer word, would tell them
    # apart.
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "space.txt", SPACE_122)
    assert main(["build-code", "--space", "space.txt", "--out", "codebook"]) == 0
    code, _ = codec.load_codebook((tmp_path / "codebook").read_text(encoding="utf-8"))
    assert sorted(len(codec.encode(code, m)) for m in code.codebook) == [1, 2, 2]
    l = code.max_len
    assert main(["keygen", "64", "--out", "full.pool",
                 "--rng", "seeded:9", "--insecure-test"]) == 0
    frame, out = tmp_path / "frame", tmp_path / "msg.out"
    for remain in (0, 1, 64):
        shutil.copyfile("full.pool", "k.pool")
        keystore.KeyPool.load("k.pool").take(64 - remain)
        pool = (tmp_path / "k.pool").read_bytes()
        seen = set()
        for message in code.codebook:
            (tmp_path / "msg").write_bytes(message)
            for name in ("alice.pool", "bob.pool"):
                shutil.copyfile("k.pool", name)
            # the receiver's frame is sent from the full pool, where it succeeds
            shutil.copyfile("full.pool", "carol.pool")
            assert main(["encrypt", "--code", "codebook", "--key", "carol.pool",
                         "--in", "msg", "--out", "sent"]) == 0
            capsys.readouterr()
            status = main(["encrypt", "--code", "codebook", "--key", "alice.pool",
                           "--in", "msg", "--out", "frame"])
            sender = (status, *capsys.readouterr(), frame.exists() and len(frame.read_bytes()))
            status = main(["decrypt", "--code", "codebook", "--key", "bob.pool",
                           "--in", "sent", "--out", "msg.out"])
            receiver = (status, *capsys.readouterr(), out.exists())
            if remain < l:  # refused: neither pool moved
                assert (tmp_path / "alice.pool").read_bytes() == pool
                assert (tmp_path / "bob.pool").read_bytes() == pool
            else:  # the cursor moves by s, which `audit` shows only on request
                assert out.read_bytes() == message
            seen.add((sender, receiver))
            for path in (frame, out):
                path.unlink(missing_ok=True)
        assert len(seen) == 1
        (sender, receiver), = seen
        if remain < l:
            pool_id = keystore.KeyPool.load("k.pool").pool_id
            refusal = f"ERROR KeyExhausted: pool {pool_id}: need {l} bits, {remain} remain\n"
            assert sender == (2, "", refusal, False)
            assert receiver == (2, "", refusal, False)
        else:
            assert sender[0] == receiver[0] == 0 and sender[2] == receiver[2] == ""
            assert sender[3] == 17 + 1  # header and one byte of l = 2 bits


def test_a_failed_decrypt_spends_no_key(tmp_path, monkeypatch, capsys):
    # an output path that cannot be written fails before the take: otherwise
    # the receiver's cursor moves, and a retry of the same frame decodes to
    # another message with exit 0
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "space.txt", SPACE_122)
    (tmp_path / "dir").mkdir()
    assert main(["build-code", "--space", "space.txt", "--out", "codebook"]) == 0
    assert main(["keygen", "64", "--out", "alice.pool",
                 "--rng", "seeded:9", "--insecure-test"]) == 0
    shutil.copyfile("alice.pool", "bob.pool")
    decrypt = ["decrypt", "--code", "codebook", "--key", "bob.pool", "--in", "frame", "--out"]
    for message in (b"c", b"a", b"b"):
        (tmp_path / "msg").write_bytes(message)
        assert main(["encrypt", "--code", "codebook", "--key", "alice.pool",
                     "--in", "msg", "--out", "frame"]) == 0
        bob = (tmp_path / "bob.pool").read_bytes()
        files = tree(tmp_path)
        for bad in ("missing/out", "dir"):
            capsys.readouterr()
            assert main([*decrypt, bad]) == 2
            assert capsys.readouterr().err.startswith("ERROR ")
            assert (tmp_path / "bob.pool").read_bytes() == bob
            assert tree(tmp_path) == files
        assert main([*decrypt, "msg.out"]) == 0
        assert (tmp_path / "msg.out").read_bytes() == message
        assert (keystore.KeyPool.load("bob.pool").cursor
                == keystore.KeyPool.load("alice.pool").cursor)


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
def test_out_that_names_the_key_pool_is_refused(tmp_path, monkeypatch, capsys, command):
    # the output would replace the pool and every unspent bit in it: the call
    # is refused before the pool is loaded, however --out reaches the pool
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "space.txt", SPACE_122)
    (tmp_path / "keys").mkdir()
    assert main(["build-code", "--space", "space.txt", "--out", "codebook"]) == 0
    assert main(["keygen", "64", "--out", "keys/k.pool",
                 "--rng", "seeded:9", "--insecure-test"]) == 0
    shutil.copyfile("keys/k.pool", "sender.pool")
    (tmp_path / "msg").write_bytes(b"a")
    assert main(["encrypt", "--code", "codebook", "--key", "sender.pool",
                 "--in", "msg", "--out", "frame"]) == 0
    os.symlink(os.path.join("keys", "k.pool"), "link.pool")
    os.link(os.path.join("keys", "k.pool"), "hard.pool")
    pool = (tmp_path / "keys" / "k.pool").read_bytes()
    files = tree(tmp_path)
    infile = "msg" if command == "encrypt" else "frame"
    for key_dir, key, out in [(None, "keys/k.pool", "keys/k.pool"),
                              (None, "keys/k.pool", "link.pool"),
                              (None, "link.pool", "hard.pool"),
                              (None, str(tmp_path / "keys" / "k.pool"), "keys/../hard.pool"),
                              (str(tmp_path / "keys"), "k.pool", "keys/k.pool")]:
        if key_dir is not None:
            monkeypatch.setenv(cli.KEY_DIR_ENV, key_dir)
        for message in (b"a", b"b", b"c"):  # the refusal is the same for each
            (tmp_path / "msg").write_bytes(message)
            capsys.readouterr()
            assert main([command, "--code", "codebook", "--key", key, "--in", infile,
                         "--out", out]) == 2
            assert capsys.readouterr() == (
                "", f"ERROR PadcryptError: {command}: --out names the --key pool {key}\n")
            assert (tmp_path / "keys" / "k.pool").read_bytes() == pool
            assert tree(tmp_path) == files


def test_out_that_is_a_fifo_is_written_in_place(tmp_path, monkeypatch, capsys):
    # a FIFO, or a device such as /dev/null, is opened and written as it is:
    # renaming a temp file over it would turn it into a regular file
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "space.txt", SPACE_4)
    (tmp_path / "msg").write_bytes(b"alpha")
    assert main(["build-code", "--space", "space.txt", "--out", "codebook"]) == 0
    assert main(["keygen", "64", "--out", "alice.pool",
                 "--rng", "seeded:9", "--insecure-test"]) == 0
    shutil.copyfile("alice.pool", "bob.pool")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    for argv in (["encrypt", "--key", "alice.pool", "--in", "msg"],
                 ["decrypt", "--key", "bob.pool", "--in", "frame"]):
        # a reader that is already open lets the writer's open return at once
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main([*argv, "--code", "codebook", "--out", str(fifo)]) == 0
            received.append(os.read(reader, 1 << 16))
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        (tmp_path / "frame").write_bytes(received[0])
    assert len(received[0]) == 17 + 1  # header and one byte of l = 2 bits
    assert received[1] == b"alpha"
    assert tree(tmp_path) == sorted(["alice.pool", "bob.pool", "codebook", "fifo",
                                     "frame", "msg", "space.txt"])


def test_a_malformed_frame_is_refused_before_a_fifo_out_is_opened(tmp_path):
    # opening a FIFO to write waits for a reader: decrypt parses the frame
    # before it opens --out, so with no reader it still exits at once
    write(tmp_path, "space.txt", SPACE_4)
    assert main(["build-code", "--space", str(tmp_path / "space.txt"),
                 "--out", str(tmp_path / "codebook")]) == 0
    assert main(["keygen", "64", "--out", str(tmp_path / "k.pool"),
                 "--rng", "seeded:9", "--insecure-test"]) == 0
    pool = (tmp_path / "k.pool").read_bytes()
    (tmp_path / "frame").write_bytes(b"not a frame")
    os.mkfifo(tmp_path / "fifo")
    src = str(Path(padcrypt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "padcrypt.cli", "decrypt", "--code", "codebook",
                           "--key", "k.pool", "--in", "frame", "--out", "fifo"],
                          env=env, cwd=tmp_path, capture_output=True, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, b"", b"ERROR WireFormatError: not a ciphertext frame\n")
    assert (tmp_path / "k.pool").read_bytes() == pool
    assert stat.S_ISFIFO(os.lstat(tmp_path / "fifo").st_mode)


def test_out_is_created_0600_and_an_existing_one_keeps_its_mode(
        tmp_path, monkeypatch, capsys):
    # frames and plaintexts are created 0600, as pools are; a file that is
    # already there keeps the mode (and, for root, the owner) it had
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "space.txt", SPACE_4)
    (tmp_path / "msg").write_bytes(b"alpha")
    assert main(["build-code", "--space", "space.txt", "--out", "codebook"]) == 0
    assert main(["keygen", "64", "--out", "alice.pool",
                 "--rng", "seeded:9", "--insecure-test"]) == 0
    shutil.copyfile("alice.pool", "bob.pool")
    frame, out = tmp_path / "frame", tmp_path / "msg.out"
    owner = (1, 1) if os.geteuid() == 0 else (os.geteuid(), os.getegid())
    for mode in (None, 0o600, 0o640, 0o604):
        for path in (frame, out):
            path.unlink(missing_ok=True)
            if mode is not None:
                path.write_bytes(b"old")
                os.chown(path, *owner)
                os.chmod(path, mode)
        assert main(["encrypt", "--code", "codebook", "--key", "alice.pool",
                     "--in", "msg", "--out", "frame"]) == 0
        assert main(["decrypt", "--code", "codebook", "--key", "bob.pool",
                     "--in", "frame", "--out", "msg.out"]) == 0
        assert out.read_bytes() == b"alpha"
        for path in (frame, out):
            st = os.stat(path)
            assert stat.S_IMODE(st.st_mode) == (0o600 if mode is None else mode)
            if mode is not None:
                assert (st.st_uid, st.st_gid) == owner


# build-code --out and verify --report-out, each with how its text begins
TEXT_OUTPUTS = {
    "build-code": (["build-code", "--space", "space.txt", "--out"],
                   b"padcrypt-codebook 1 huffman 3\n"),
    "verify": (["verify", "--space", "space.txt", "--code", "codebook", "--report-out"],
               b"l 2\nverdict perfect\n"),
}


@pytest.mark.parametrize("command", list(TEXT_OUTPUTS))
def test_a_codebook_or_report_goes_through_the_file_writer(
        tmp_path, monkeypatch, capsys, command):
    # as frames and plaintexts: a write that fails part-way leaves the old
    # file whole and no temp file, a FIFO stays a FIFO, a new file is 0600
    argv, start = TEXT_OUTPUTS[command]
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "space.txt", SPACE_122)
    assert main(["build-code", "--space", "space.txt", "--out", "codebook"]) == 0

    assert main([*argv, "new"]) == 0
    expected = (tmp_path / "new").read_bytes()
    assert expected.startswith(start)
    assert stat.S_IMODE(os.stat("new").st_mode) == 0o600

    (tmp_path / "old").write_bytes(b"old contents\n")
    files = tree(tmp_path)
    real_write, writes = os.write, []

    def short_then_full(fd, data):
        writes.append(fd)
        if len(writes) == 1:
            return real_write(fd, data[:7])
        raise OSError(errno.ENOSPC, "No space left on device")

    capsys.readouterr()
    with monkeypatch.context() as patch:
        patch.setattr(os, "write", short_then_full)
        assert main([*argv, "old"]) == 2
    assert len(writes) == 2
    assert capsys.readouterr().err.startswith("ERROR OSError: ")
    assert (tmp_path / "old").read_bytes() == b"old contents\n"
    assert tree(tmp_path) == files

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main([*argv, str(fifo)]) == 0
        assert os.read(reader, 1 << 16) == expected
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_that_is_the_commands_own_stdout_gets_the_output_alone(tmp_path):
    # --out /dev/stdout names the file or pipe stdout writes to: it gets the
    # output alone, as with a named --out, and the status line goes to stderr
    write(tmp_path, "space.txt", SPACE_4)
    (tmp_path / "msg").write_bytes(b"alpha")
    src = str(Path(padcrypt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def cli_to(stdout, *argv):
        # stdout is a file in tmp_path, made 0644 as a shell would, or None
        # for a pipe
        with (open(tmp_path / stdout, "wb") if stdout
              else contextlib.nullcontext(subprocess.PIPE)) as f:
            if stdout:
                os.chmod(f.fileno(), 0o644)
            proc = subprocess.run([sys.executable, "-m", "padcrypt.cli", *argv], env=env,
                                  cwd=tmp_path, stdout=f, stderr=subprocess.PIPE,
                                  timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.endswith(b" -> /dev/stdout\n" if "--out" in argv else b"PERFECT\n")
        return proc.stdout if stdout is None else (tmp_path / stdout).read_bytes()

    cli_to("codebook", "build-code", "--space", "space.txt", "--out", "/dev/stdout")
    code, _ = codec.load_codebook((tmp_path / "codebook").read_text(encoding="utf-8"))
    cli_to("alice.pool", "keygen", "64", "--rng", "seeded:9", "--insecure-test",
           "--out", "/dev/stdout")
    alice = keystore.KeyPool.load(tmp_path / "alice.pool")
    assert (len(alice.material), alice.cursor) == (64, 0)
    assert stat.S_IMODE(os.stat(tmp_path / "alice.pool").st_mode) == 0o600
    for name in ("bob.pool", "carol.pool"):
        shutil.copyfile(tmp_path / "alice.pool", tmp_path / name)

    encrypt = ["encrypt", "--code", "codebook", "--key", "alice.pool", "--in", "msg",
               "--out", "/dev/stdout"]
    frames = [cli_to("frame", *encrypt), cli_to(None, *encrypt)]
    bob = keystore.KeyPool.load(tmp_path / "bob.pool")
    for frame in frames:
        assert len(frame) == 17 + 1  # header and one byte of l = 2 bits
        assert cipher.decrypt(cipher.read_frame(frame, code), code, bob) == b"alpha"
    plain = cli_to("plain.txt", "decrypt", "--code", "codebook", "--key", "carol.pool",
                   "--in", "frame", "--out", "/dev/stdout")
    assert plain == b"alpha"
    report = cli_to("report", "verify", "--space", "space.txt", "--code", "codebook",
                    "--report-out", "/dev/stdout")
    assert report.startswith(b"l 2\nverdict perfect\n")


# each writing command's arguments up to its output path, and its exit code
# on the files the writing_call fixture makes
WRITING_CALLS = {
    "keygen": (["keygen", "64", "--out"], 0),
    "build-code": (["build-code", "--space", "space.txt", "--out"], 0),
    "encrypt": (["encrypt", "--code", "codebook", "--key", "alice.pool", "--in", "msg",
                 "--out"], 0),
    "decrypt": (["decrypt", "--code", "codebook", "--key", "bob.pool", "--in", "frame",
                 "--out"], 0),
    "verify": (["verify", "--space", "space.txt", "--code", "codebook", "--naive-leak-demo",
                "--report-out"], 3),
}


def check_written_output(tmp_path, command, out):
    """The file a WRITING_CALLS command wrote to `out` loads as what it is."""
    code, _ = codec.load_codebook((tmp_path / "codebook").read_text(encoding="utf-8"))
    if command == "keygen":
        pool = keystore.KeyPool.load(out)
        assert (len(pool.material), pool.cursor) == (64, 0)
    elif command == "build-code":
        with open(out, encoding="utf-8") as f:
            assert codec.load_codebook(f.read()) == (code, "huffman")
    elif command == "encrypt":
        with open(out, "rb") as f:
            frame = cipher.read_frame(f.read(), code)
        carol = keystore.KeyPool.load(tmp_path / "carol.pool")
        assert cipher.decrypt(frame, code, carol) == b"alpha"
    elif command == "decrypt":
        with open(out, "rb") as f:
            assert f.read() == b"alpha"
    else:
        with open(out, encoding="utf-8") as f:
            assert f.read().startswith("l 2\nverdict leaky\n")


CLOSED = object()
# runs the CLI with the rest of its arguments in a Python started with
# descriptor 1 closed, which therefore has no sys.stdout
CLOSED_STDOUT_CLI = ("import os, sys; os.close(1); "
                     "os.execv(sys.executable, [sys.executable, '-m', 'padcrypt.cli', "
                     "*sys.argv[1:]])")


def make_writing_inputs(tmp_path):
    """Makes the files the WRITING_CALLS commands read in tmp_path, the
    current directory; the pools are copies of one, so alice.pool encrypts,
    bob.pool decrypts the frame dave.pool made, and carol.pool decrypts what
    alice.pool encrypts."""
    # a 1-bit and two 2-bit codewords, so the naive demo is leaky
    write(tmp_path, "space.txt", '"alpha" 1/2\n"beta" 1/4\n00ff 1/4\n')
    (tmp_path / "msg").write_bytes(b"alpha")
    with contextlib.redirect_stdout(None):
        assert main(["build-code", "--space", "space.txt", "--out", "codebook"]) == 0
        assert main(["keygen", "64", "--out", "alice.pool"]) == 0
        for name in ("bob.pool", "carol.pool", "dave.pool"):
            shutil.copyfile("alice.pool", name)
        assert main(["encrypt", "--code", "codebook", "--key", "dave.pool", "--in", "msg",
                     "--out", "frame"]) == 0


def identity(st):
    return st.st_dev, st.st_ino


def test_every_written_file_is_synced_before_the_call_returns(tmp_path, monkeypatch, capsys):
    # the output's temp file is synced before its rename, and the directory
    # after it, so a call that has returned has its output on disk
    monkeypatch.chdir(tmp_path)
    make_writing_inputs(tmp_path)
    real_fsync, synced = os.fsync, []

    def fsync(fd):
        # what was synced, and whether the output had its name by then
        synced.append((identity(os.fstat(fd)), os.path.exists(out)))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    for command, (argv, code) in WRITING_CALLS.items():
        out = f"new.{command}"
        synced.clear()
        assert main([*argv, out]) == code
        check_written_output(tmp_path, command, out)
        file_sync = (identity(os.stat(out)), False)
        dir_sync = (identity(os.stat(".")), True)
        assert file_sync in synced and dir_sync in synced, command
        assert synced.index(file_sync) < synced.index(dir_sync), command


def test_a_failed_sync_is_an_error_line(tmp_path, monkeypatch, capsys):
    # a disk error on the sync of the output's temp file fails the call with
    # one ERROR line, and leaves no temp file and an existing --out whole
    monkeypatch.chdir(tmp_path)
    make_writing_inputs(tmp_path)
    real_fsync = os.fsync

    def fsync(fd):
        if any(os.path.samestat(os.fstat(fd), os.stat(tmp))
               for tmp in tmp_path.glob(".out.*.tmp")):
            raise OSError(errno.EIO, "Input/output error")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    (tmp_path / "out").write_bytes(b"old")
    files = tree(tmp_path)
    for command, (argv, _) in WRITING_CALLS.items():
        capsys.readouterr()
        assert main([*argv, "out"]) == 2, command
        out, err = capsys.readouterr()
        assert out == ""
        if command == "verify":  # the naive demo's warning, printed before it runs
            err = err.split("\n", 1)[1]
        assert err == "ERROR OSError: [Errno 5] Input/output error\n", command
        assert (tmp_path / "out").read_bytes() == b"old"
        assert tree(tmp_path) == files


@pytest.fixture
def writing_call(tmp_path, monkeypatch):
    """Runs a WRITING_CALLS command cold, with its output at `out`, after
    make_writing_inputs has made the files it reads."""
    monkeypatch.chdir(tmp_path)
    make_writing_inputs(tmp_path)
    src = str(Path(padcrypt.__file__).resolve().parents[1])

    def run(command, out, stdout, unbuffered, **env):
        """stdout is a file descriptor, subprocess.PIPE, or CLOSED to start
        the call with its descriptor 1 closed"""
        env = dict(os.environ, **env)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        else:
            env.pop("PYTHONUNBUFFERED", None)
        argv, code = WRITING_CALLS[command]
        interpreter = ([sys.executable, "-c", CLOSED_STDOUT_CLI] if stdout is CLOSED
                       else [sys.executable, "-m", "padcrypt.cli"])
        proc = subprocess.run([*interpreter, *argv, out], env=env, timeout=60,
                              stdout=None if stdout is CLOSED else stdout,
                              stderr=subprocess.PIPE)
        assert proc.returncode == code, proc.stderr
        # the naive demo's one warning line, printed before it runs, and nothing more
        warning = b"WARNING: naive mode" if command == "verify" else b""
        assert proc.stderr.startswith(warning), proc.stderr
        assert proc.stderr.count(b"\n") == bool(warning), proc.stderr
        check_written_output(tmp_path, command, out)
        return proc.stdout

    return run


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", list(WRITING_CALLS))
def test_a_status_line_that_cannot_be_printed_leaves_the_exit_code(
        writing_call, command, unbuffered):
    # stdout is a pipe nobody reads: the output is written, and for encrypt
    # and decrypt the key spent, before the line is printed, so the call has
    # done its work and exits as it would have, with nothing on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        writing_call(command, "out", write_end, unbuffered)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("command", list(WRITING_CALLS))
def test_a_call_started_without_stdout_writes_its_output(writing_call, command):
    # the status line has nowhere to go and is dropped
    writing_call(command, "out", CLOSED, True)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", [c for c in WRITING_CALLS if c != "verify"])
def test_a_status_line_carries_the_out_paths_bytes(tmp_path, writing_call, command,
                                                   unbuffered):
    # a name that is not UTF-8 reaches Python as a lone surrogate, which a
    # strict UTF-8 stdout cannot encode; the line gives the name's own bytes
    out = b"out\xff"
    try:
        (tmp_path / os.fsdecode(out)).touch()
    except (OSError, UnicodeEncodeError):
        pytest.skip("the filesystem refuses a name that is not UTF-8")
    os.unlink(out)
    stdout = writing_call(command, os.fsdecode(out), subprocess.PIPE, unbuffered,
                          PYTHONIOENCODING="utf-8:strict")
    assert stdout.endswith(b" -> " + out + b"\n")


# a book labelled huffman with lengths (3, 1, 2) on P = (3/4, 1/8, 1/8), whose
# average length of 2.625 bits breaks the Huffman bound [h, h + 1)
VIOLATED_SPACE = '"a" 3/4\n"b" 1/8\n"c" 1/8\n'
VIOLATED_BOOK = "padcrypt-codebook 1 huffman 3\n0 61 000\n1 62 1\n2 63 01\n"
VIOLATION = "average length 2.625000 outside [h, h+1) = [1.061278, 2.061278)"

# commands whose only output is what they print to stdout
PRINTING_CALLS = {
    "audit": ["audit", "--key", "alice.pool"],
    "report": ["report", "--space", "space.txt", "--code", "codebook"],
    "report-violated": ["report", "--space", "violated.txt", "--code", "violated.book"],
    "verify-perfect": ["verify", "--space", "space.txt", "--code", "codebook"],
    "verify-leaky": ["verify", "--space", "space.txt", "--code", "codebook",
                     "--naive-leak-demo"],
    "help": ["--help"],
}


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("call", list(PRINTING_CALLS))
def test_a_print_to_a_closed_pipe_is_an_error_line(tmp_path, monkeypatch, capsys, call,
                                                   unbuffered):
    # printing is all these commands do, so a stdout whose reader has gone
    # fails the call: exit 2 and one ERROR line, however stdout is buffered
    monkeypatch.chdir(tmp_path)
    # a 1-bit and two 2-bit codewords, so the naive demo is leaky
    write(tmp_path, "space.txt", '"alpha" 1/2\n"beta" 1/4\n00ff 1/4\n')
    write(tmp_path, "violated.txt", VIOLATED_SPACE)
    write(tmp_path, "violated.book", VIOLATED_BOOK)
    argv = PRINTING_CALLS[call]
    assert main(["build-code", "--space", "space.txt", "--out", "codebook"]) == 0
    assert main(["keygen", "64", "--out", "alice.pool"]) == 0
    # with a working stdout
    assert main(argv) == {"verify-leaky": 3, "report-violated": 2}.get(call, 0)
    capsys.readouterr()
    src = str(Path(padcrypt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "padcrypt.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    if "--naive-leak-demo" in argv:  # its warning goes to stderr before it runs
        assert lines.pop(0).startswith(b"WARNING: naive mode"), proc.stderr
    assert len(lines) == 1 and lines[0].startswith(b"ERROR BrokenPipeError:"), proc.stderr


def test_a_symlinked_pool_in_the_key_dir_keeps_its_cursor(tmp_path, monkeypatch, capsys):
    # the save renames over the real file, so the link stays a link and the
    # real pool, not a copy beside the link, records the spent bits
    monkeypatch.chdir(tmp_path)
    keys, secure = tmp_path / "keys", tmp_path / "secure"
    keys.mkdir()
    secure.mkdir()
    monkeypatch.setenv(cli.KEY_DIR_ENV, str(keys))
    write(tmp_path, "space.txt", SPACE_4)  # uniform: every codeword has 2 bits
    (tmp_path / "msg").write_bytes(b"alpha")
    assert main(["build-code", "--space", "space.txt", "--out", "codebook"]) == 0
    assert main(["keygen", "64", "--out", str(secure / "alice.pool"),
                 "--rng", "seeded:9", "--insecure-test"]) == 0
    (keys / "alice.pool").symlink_to(os.path.join("..", "secure", "alice.pool"))
    for cursor in (2, 4):
        assert main(["encrypt", "--code", "codebook", "--key", "alice.pool",
                     "--in", "msg", "--out", "frame"]) == 0
        assert (keys / "alice.pool").is_symlink()
        assert tree(keys) == ["alice.pool"] and tree(secure) == ["alice.pool"]
        assert keystore.KeyPool.load(secure / "alice.pool").cursor == cursor


def test_cli_import_does_not_load_scipy():
    src = str(Path(padcrypt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # only what importing padcrypt adds counts, not what start-up loaded
    probe = ("import sys; before = set(sys.modules); import padcrypt, padcrypt.cli; "
             "print(sorted({'scipy', 'numpy', 'subprocess', 'dataclasses', 'inspect', "
             "'fractions', 'json', 'hashlib', 'padcrypt.bits', 'padcrypt.codec', "
             "'padcrypt.cipher', 'padcrypt.keystore', 'padcrypt.rng', 'padcrypt.verify'} "
             "& (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "[]"


def run_time_imports(tree):
    """Absolute module names a module imports, outside `if TYPE_CHECKING:`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_dataclasses_inspect_or_typing_at_run_time():
    # each costs a cold call milliseconds, and typing is needed only by type checkers
    sources = sorted(Path(padcrypt.__file__).parent.glob("*.py"))
    assert len(sources) >= 9
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        banned = {name for name in run_time_imports(tree)
                  if name.split(".")[0] in {"dataclasses", "inspect", "typing"}}
        assert not banned, f"{path.name} imports {sorted(banned)}"


# a cold call as the installed `padcrypt` script makes it, with the modules
# it added printed last (runpy, which `python -m` adds, loads collections)
COLD_CALL = """\
import sys
before = set(sys.modules)
from padcrypt.cli import main
code = main()
print(code, sorted(set(sys.modules) - before))
"""
# SPACE_4 with every message in hex, as the benchmark writes its spaces
SPACE_4_HEX = "616c706861 1/4\n62657461 1/4\n00ff 1/4\n- 1/4\n"
# no command loads dataclasses (nor the inspect it pulls in), json for a
# hex-only space file, subprocess without an external: codec, argparse (nor
# its gettext), secrets (nor its hmac), or hashlib (nor OpenSSL's _hashlib)
NEVER = {"dataclasses", "inspect", "json", "subprocess", "argparse", "gettext",
         "secrets", "hmac", "hashlib", "_hashlib"}
NO_RANDOM = {"padcrypt.rng"}
NO_CODEC = NEVER | {"fractions", "padcrypt.codec", "padcrypt.cipher", "padcrypt.verify"}
NO_SPACE = NEVER | {"fractions", "padcrypt.verify"}
NO_KEYS = NEVER | NO_RANDOM | {"padcrypt.keystore"}
# the imports only building a code needs: heapq, and collections with the
# modules it brings
CODE_BUILDERS = {"collections", "heapq", "itertools", "keyword", "operator", "reprlib"}


COLD_CALLS = {
    "audit": ["audit", "--key", "bob.pool"],
    "keygen": ["keygen", "64", "--out", "new.pool"],
    "build-code": ["build-code", "--space", "space.txt", "--out", "new.book"],
    "encrypt": ["encrypt", "--code", "codebook", "--key", "alice.pool",
                "--in", "msg", "--out", "new.frame"],
    "decrypt": ["decrypt", "--code", "codebook", "--key", "bob.pool",
                "--in", "frame", "--out", "msg.out"],
    "report": ["report", "--space", "space.txt", "--code", "codebook"],
    "verify": ["verify", "--space", "space.txt", "--code", "codebook"],
}


@pytest.fixture
def cold_call(tmp_path, monkeypatch):
    """Runs one cold call of a COLD_CALLS command, after the files it reads
    are made, and returns the modules the call loaded."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "space.txt", SPACE_4_HEX)
    (tmp_path / "msg").write_bytes(b"alpha")
    assert main(["build-code", "--space", "space.txt", "--out", "codebook"]) == 0
    assert main(["keygen", "64", "--out", "carol.pool"]) == 0
    for copy in ("alice.pool", "bob.pool"):
        shutil.copyfile(tmp_path / "carol.pool", tmp_path / copy)
    assert main(["encrypt", "--code", "codebook", "--key", "carol.pool",
                 "--in", "msg", "--out", "frame"]) == 0
    src = str(Path(padcrypt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(command, *interpreter_options):
        proc = subprocess.run(
            [sys.executable, *interpreter_options, "-c", COLD_CALL, *COLD_CALLS[command]],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
        code, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
        assert code == "0", proc.stderr
        loaded = set(ast.literal_eval(loaded))
        assert "padcrypt.errors" in loaded  # the probe saw the call's imports
        return loaded
    return run


@pytest.mark.parametrize("command, unloaded", [
    ("audit", NO_CODEC | NO_RANDOM),
    ("keygen", NO_CODEC),
    ("build-code", NO_KEYS | {"padcrypt.cipher", "padcrypt.verify"}),
    ("encrypt", NO_SPACE | CODE_BUILDERS),
    ("decrypt", NO_SPACE | NO_RANDOM | CODE_BUILDERS),
    ("report", NO_KEYS),
    ("verify", NO_KEYS | {"padcrypt._files"}),  # --report-out alone writes a file
], ids=list(COLD_CALLS))
def test_a_cold_call_loads_only_what_its_command_runs(cold_call, command, unloaded):
    assert not unloaded & cold_call(command)


# Without site start-up, which on some hosts already loads them, no command
# loads pathlib (with fnmatch and urllib.parse, about 18 ms of a cold call)
# or random, which only a seeded source imports; and the commands that parse
# no space file load no re
NEVER_WITHOUT_SITE = {"pathlib", "fnmatch", "urllib.parse", "random"}


@pytest.mark.parametrize("command", list(COLD_CALLS))
def test_a_cold_call_without_site_loads_no_pathlib(cold_call, command):
    unloaded = NEVER_WITHOUT_SITE | ({"re"} if command in ("audit", "keygen", "encrypt", "decrypt")
                             else set())
    assert not unloaded & cold_call(command, "-S")


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["audit", "--key", "k.pool", "--bogus", "x"],
    ["audit", "--ke", "k.pool"],
    ["build-code", "--space", "space.txt"],
    ["audit", "--key"],
    ["keygen", "abc", "--out", "new.pool"],
    # the exact checks have one fixed budget
    ["verify", "--space", "space.txt", "--code", "codebook", "--max-l", "13"],
    # report takes its bounds from the codec the codebook names
    ["report", "--space", "space.txt", "--code", "codebook", "--kind", "trimmed"],
    ["audit", "--key", "k.pool", "extra"],
    ["verify", "--space", "space.txt", "--code", "codebook", "--naive-leak-demo=1"],
], ids=["no-command", "unknown-command", "unknown-option", "abbreviation",
        "missing-required", "no-value", "keygen-not-an-int", "dropped-max-l-option",
        "dropped-kind-option", "extra-positional", "flag-given-a-value"])
def test_usage_errors_are_error_lines(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ERROR PadcryptError:")
    assert captured.out == ""
    assert not (tmp_path / "new.pool").exists()


OPTIONS = {
    "keygen": ["NBITS", "--out", "--rng", "--insecure-test"],
    "build-code": ["--space", "--codec", "--out"],
    "encrypt": ["--code", "--key", "--in", "--out"],
    "decrypt": ["--code", "--key", "--in", "--out"],
    "verify": ["--space", "--code", "--naive-leak-demo", "--report-out"],
    "report": ["--space", "--code"],
    "audit": ["--key"],
}


def test_help_names_every_command(capsys):
    assert main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert all(command in captured.out for command in OPTIONS)


@pytest.mark.parametrize("command", OPTIONS)
def test_command_help_names_every_option(capsys, command):
    assert main([command, "-h"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert all(option in captured.out for option in OPTIONS[command])


def test_cold_help_exits_0():
    # the benchmark's cli-session set-up runs this call and stops on failure
    src = str(Path(padcrypt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "padcrypt.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: padcrypt")


def test_options_take_name_equals_value(tmp_path, capsys):
    key = str(tmp_path / "k.pool")
    assert main(["keygen", "32", f"--out={key}", "--rng=seeded:1", "--insecure-test"]) == 0
    assert main(["audit", f"--key={key}"]) == 0
    assert "bits       32\n" in capsys.readouterr().out


def test_verify_perfect_and_leaky(tmp_path, capsys):
    space = write(tmp_path, "space.txt", SPACE_122)
    book = str(tmp_path / "codebook")
    main(["build-code", "--space", space, "--out", book])
    assert main(["verify", "--space", space, "--code", book]) == 0
    assert "PERFECT" in capsys.readouterr().out

    assert main(["verify", "--space", space, "--code", book,
                 "--naive-leak-demo"]) == 3
    captured = capsys.readouterr()
    assert "LEAKY" in captured.out
    assert "WARNING" in captured.err


def test_verify_refuses_a_code_beyond_the_budget(tmp_path, capsys):
    # P = 2^-1, ..., 2^-13, 2^-13: Huffman lengths 1..13, 13, so l = 13
    space = write(tmp_path, "space.txt",
                  "".join(f"{i:02x} 1/{2 ** min(i + 1, 13)}\n" for i in range(14)))
    book = str(tmp_path / "codebook")
    assert main(["build-code", "--space", space, "--out", book]) == 0
    assert "l=13" in capsys.readouterr().out
    assert main(["verify", "--space", space, "--code", book]) == 2
    captured = capsys.readouterr()
    assert captured.err == "ERROR EnumerationTooLarge: l=13 exceeds the budget of 12\n"
    assert captured.out == ""


def test_verify_report_out(tmp_path, capsys):
    space = write(tmp_path, "space.txt", SPACE_122)
    book = str(tmp_path / "codebook")
    main(["build-code", "--space", space, "--out", book])
    report = str(tmp_path / "report.txt")
    assert main(["verify", "--space", space, "--code", book,
                 "--report-out", report]) == 0
    assert "verdict perfect" in (tmp_path / "report.txt").read_text()


def report_text(average, max_length, kind):
    return (f"messages            3\n"
            f"entropy_bits        1.584963\n"
            f"average_length      {average}\n"
            f"expected_key_bits   {average}\n"
            f"max_length          {max_length}\n"
            f"length_cap          3\n"
            f"naive_length_leak   0.918296\n"
            f"bounds({kind})     ok\n")


def test_report_command(tmp_path, capsys):
    # the bounds checked are those of the codec named in the codebook header
    space = write(tmp_path, "space.txt", SPACE_122)
    for codec_name in ("huffman", "trimmed-huffman"):
        assert main(["build-code", "--space", space, "--codec", codec_name,
                     "--out", str(tmp_path / codec_name)]) == 0
    huffman = (tmp_path / "huffman").read_text(encoding="utf-8")
    (tmp_path / "custom").write_text(huffman.replace(" huffman ", " custom ", 1),
                                     encoding="utf-8")
    capsys.readouterr()
    for book, expected in [("huffman", report_text("1.666667", 2, "huffman")),
                           ("trimmed-huffman", report_text("2.666667", 3, "trimmed")),
                           ("custom", report_text("1.666667", 2, "generic"))]:
        assert main(["report", "--space", space, "--code", str(tmp_path / book)]) == 0
        assert capsys.readouterr() == (expected, "")


def test_report_violation_is_an_error_line(tmp_path, capsys):
    # a dyadic Huffman code reaches l = 5, above the trimmed cap of 4, so the
    # same book labelled trimmed-huffman breaks the bounds it names
    space = write(tmp_path, "space.txt",
                  '"a" 1/2\n"b" 1/4\n"c" 1/8\n"d" 1/16\n"e" 1/32\n"f" 1/32\n')
    book = tmp_path / "codebook"
    assert main(["build-code", "--space", space, "--out", str(book)]) == 0
    text = book.read_text(encoding="utf-8")
    book.write_text(text.replace(" huffman ", " trimmed-huffman ", 1), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--space", space, "--code", str(book)]) == 2
    captured = capsys.readouterr()
    assert "bounds(trimmed)     VIOLATED\n  violation: max length 5 exceeds cap 4\n" in captured.out
    assert captured.err == "ERROR BoundViolation: max length 5 exceeds cap 4\n"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_bound_violation_follows_the_report_on_one_pipe(tmp_path, unbuffered):
    # stdout is flushed before the ERROR line, so a reader of both streams on
    # one pipe sees the report first, however stdout is buffered
    write(tmp_path, "violated.txt", VIOLATED_SPACE)
    write(tmp_path, "violated.book", VIOLATED_BOOK)
    src = str(Path(padcrypt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = PRINTING_CALLS["report-violated"]
    proc = subprocess.run([sys.executable, "-m", "padcrypt.cli", *argv], env=env,
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout.endswith(f"bounds(huffman)     VIOLATED\n  violation: {VIOLATION}\n"
                                f"ERROR BoundViolation: {VIOLATION}\n"), proc.stdout


def test_report_on_a_one_message_space(tmp_path, capsys):
    # the lone message gets the empty word, so the average is h = 0
    space = write(tmp_path, "space.txt", '"only" 1/1\n')
    book = str(tmp_path / "codebook")
    assert main(["build-code", "--space", space, "--out", book]) == 0
    capsys.readouterr()
    assert main(["report", "--space", space, "--code", book]) == 0
    text = capsys.readouterr().out
    assert "entropy_bits        0.000000\n" in text
    assert "average_length      0.000000\n" in text
    assert "bounds(huffman)     ok\n" in text


def test_a_one_message_space_costs_no_key_bits(tmp_path, monkeypatch, capsys):
    # Huffman gives the lone message the empty word: l = 0, a frame that is
    # its 17-byte header alone, and no key bit spent at either end
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "space.txt", '"only" 1/1\n')
    assert main(["build-code", "--space", "space.txt", "--out", "codebook"]) == 0
    assert capsys.readouterr().out == "codebook huffman: 1 messages, l=0 -> codebook\n"
    assert (tmp_path / "codebook").read_text(encoding="utf-8") == (
        "padcrypt-codebook 1 huffman 1\n0 6f6e6c79 -\n")
    assert main(["keygen", "64", "--out", "alice.pool",
                 "--rng", "seeded:5", "--insecure-test"]) == 0
    shutil.copyfile("alice.pool", "bob.pool")

    def pools():
        # a take of no bits writes nothing: not a byte, and no new file
        return [(p.read_bytes(), p.stat().st_dev, p.stat().st_ino)
                for p in (tmp_path / "alice.pool", tmp_path / "bob.pool")]

    before = pools()
    (tmp_path / "msg").write_bytes(b"only")
    assert main(["encrypt", "--code", "codebook", "--key", "alice.pool",
                 "--in", "msg", "--out", "frame"]) == 0
    assert main(["decrypt", "--code", "codebook", "--key", "bob.pool",
                 "--in", "frame", "--out", "msg.out"]) == 0
    assert len((tmp_path / "frame").read_bytes()) == 17
    assert (tmp_path / "msg.out").read_bytes() == b"only"
    assert [keystore.KeyPool.load(p).cursor for p in ("alice.pool", "bob.pool")] == [0, 0]
    assert pools() == before
    capsys.readouterr()
    for demo in ([], ["--naive-leak-demo"]):
        assert main(["verify", "--space", "space.txt", "--code", "codebook", *demo]) == 0
        assert capsys.readouterr().out == "PERFECT\n"
    assert main(["report", "--space", "space.txt", "--code", "codebook"]) == 0
    text = capsys.readouterr().out
    assert "average_length      0.000000\n" in text
    assert "bounds(huffman)     ok\n" in text
    # trimming keeps the empty word behind the 0 flag: l = 1, the cap for L = 1
    assert main(["build-code", "--space", "space.txt", "--codec", "trimmed-huffman",
                 "--out", "trimmed"]) == 0
    assert capsys.readouterr().out == "codebook trimmed-huffman: 1 messages, l=1 -> trimmed\n"
    assert (tmp_path / "trimmed").read_text(encoding="utf-8").endswith("\n0 6f6e6c79 0\n")
    assert main(["report", "--space", "space.txt", "--code", "trimmed"]) == 0
    assert "bounds(trimmed)     ok\n" in capsys.readouterr().out


def test_a_report_writes_the_empty_word_as_a_codebook_does(tmp_path, capsys):
    space = write(tmp_path, "space.txt", '"only" 1/1\n')
    book = write(tmp_path, "codebook", "padcrypt-codebook 1 custom 1\n0 6f6e6c79 -\n")
    report = tmp_path / "report.txt"
    assert main(["verify", "--space", space, "--code", book, "--report-out", str(report)]) == 0
    assert report.read_text(encoding="utf-8") == (
        "l 0\nverdict perfect\nmax_deviation 0/1\n"
        "table marginal\n  - 1/1\ntable conditional 6f6e6c79\n  - 1/1\n")


def test_an_unknown_codec_is_refused_before_the_space_file_is_read(tmp_path, capsys):
    assert main(["build-code", "--codec", "bogus", "--space", str(tmp_path / "missing.txt"),
                 "--out", str(tmp_path / "codebook")]) == 2
    assert capsys.readouterr() == ("", "ERROR PadcryptError: unknown codec 'bogus'\n")


def test_external_codec_via_shell(tmp_path):
    # no empty message here: cat produces no output for it, which the
    # adapter rejects as unframeable
    space = write(tmp_path, "space.txt",
                  '"alpha" 1/4\n"beta" 1/4\n00ff 1/4\n"gamma" 1/4\n')
    book = str(tmp_path / "codebook")
    assert main(["build-code", "--space", space,
                 "--codec", "external:cat", "--out", book]) == 0
    key = str(tmp_path / "k.pool")
    main(["keygen", "256", "--out", key, "--rng", "seeded:9", "--insecure-test"])
    (tmp_path / "msg").write_bytes(b"\x00\xff")
    assert main(["encrypt", "--code", book, "--key", key,
                 "--in", str(tmp_path / "msg"), "--out", str(tmp_path / "f")]) == 0


def test_key_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.KEY_DIR_ENV, str(tmp_path))
    assert main(["keygen", "32", "--out", "rel.pool",
                 "--rng", "seeded:1", "--insecure-test"]) == 0
    assert (tmp_path / "rel.pool").exists()
    assert main(["audit", "--key", "rel.pool"]) == 0


def test_an_encrypt_refusal_names_no_message(tmp_path, monkeypatch, capsys):
    # a message outside the codebook gets one fixed line, which shows neither
    # the plaintext nor its length, and spends no key
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "space.txt", SPACE_4)
    assert main(["build-code", "--space", "space.txt", "--out", "codebook"]) == 0
    assert main(["keygen", "64", "--out", "k.pool",
                 "--rng", "seeded:9", "--insecure-test"]) == 0
    pool = (tmp_path / "k.pool").read_bytes()
    errs = set()
    for message in (b"attack at dawn", b"retreat at dusk, by the river"):
        (tmp_path / "msg").write_bytes(message)
        capsys.readouterr()
        assert main(["encrypt", "--code", "codebook", "--key", "k.pool",
                     "--in", "msg", "--out", "frame"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and b"at d" not in err.encode()
        errs.add(err)
        assert (tmp_path / "k.pool").read_bytes() == pool
        assert not (tmp_path / "frame").exists()
    assert errs == {"ERROR NotInCodebook: the message has no codeword\n"}


LONG = "9" * 10 ** 6


@pytest.mark.parametrize("kind, text, start", [
    ("codebook", f"padcrypt-codebook 1 huffman 1\n0 61 {'2' * 10 ** 6}\n",
     "ERROR CodebookFormatError: line 2: not a bit string: '2222"),
    ("codebook", f"padcrypt-codebook {LONG} huffman 1\n0 61 0\n",
     "ERROR CodebookFormatError: unsupported codebook version 9999"),
    ("space", f"61 x{LONG}\n", "ERROR PadcryptError: space file line 1: "),
], ids=["codeword", "version", "space-line"])
def test_a_long_token_from_a_file_is_cut_in_its_error_line(
        tmp_path, monkeypatch, capsys, kind, text, start):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "space.txt", SPACE_4)
    write(tmp_path, "hostile", text)
    argv = (["build-code", "--space", "hostile", "--out", "codebook"] if kind == "space"
            else ["report", "--space", "space.txt", "--code", "hostile"])
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(start) and err.count("\n") == 1
    assert len(err) <= 200


@pytest.mark.parametrize("count, refusal", [
    # 1/p for 4,000 primes: a common denominator of about 66,000 bits, which
    # with one such weight per message would take hundreds of times the file
    (4000, f"common denominator of the probabilities passes {MAX_Q_BITS} bits"),
    # 1/p for 1,800 primes: a common denominator of about 30,600 bits, under
    # the cap, so each of the 1,800 weights would take about 4 kB
    (1800, "probabilities sum to about 0.0201501, expected 1"),
], ids=["past-the-denominator-cap", "sum-not-1"])
def test_a_bad_exact_space_is_refused_in_memory_linear_in_its_file(
        tmp_path, capsys, count, refusal):
    text = large_prime_space_file(count)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidSpace) as exc:
            codec.load_space(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == refusal
    assert peak <= 24 * len(text)
    space = write(tmp_path, "space.txt", text)
    assert main(["build-code", "--space", space, "--out", str(tmp_path / "codebook")]) == 2
    assert capsys.readouterr().err == f"ERROR InvalidSpace: {refusal}\n"
    assert not (tmp_path / "codebook").exists()


def test_errors_are_machine_parsable(tmp_path, capsys):
    assert main(["audit", "--key", str(tmp_path / "missing.pool")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ERROR ")


def test_key_exhaustion_surfaces(tmp_path, capsys):
    space = write(tmp_path, "space.txt", SPACE_4)
    book = str(tmp_path / "codebook")
    key = str(tmp_path / "k.pool")
    main(["build-code", "--space", space, "--out", book])
    main(["keygen", "1", "--out", key, "--rng", "seeded:9", "--insecure-test"])
    (tmp_path / "msg").write_bytes(b"alpha")
    (tmp_path / "f").write_bytes(b"old")
    files = tree(tmp_path)
    assert main(["encrypt", "--code", book, "--key", key,
                 "--in", str(tmp_path / "msg"), "--out", str(tmp_path / "f")]) == 2
    assert "KeyExhausted" in capsys.readouterr().err
    # an existing output file is left as it was, and no temp file is left
    assert (tmp_path / "f").read_bytes() == b"old"
    assert tree(tmp_path) == files


def test_zero_denominator_in_space_file_is_an_error_line(tmp_path, capsys):
    space = write(tmp_path, "space.txt", '"a" 1/0\n"b" 1/2\n')
    assert main(["build-code", "--space", space,
                 "--out", str(tmp_path / "codebook")]) == 2
    assert capsys.readouterr().err.startswith("ERROR PadcryptError: space file line 1:")


@pytest.mark.parametrize("lines, side", [
    (["61 1e-9000", "62 1"], "over"),
    (["61 1/3", "62 2/3", "63 1e-400"], "over"),
    (["61 999999999/1000000000", "62 1e-3000"], "under"),
], ids=["1e-9000-over", "1e-400-over", "1e-3000-under"])
def test_a_sum_that_rounds_to_1_says_which_side_of_1_it_is(tmp_path, capsys, lines, side):
    space = write(tmp_path, "space.txt", "\n".join(lines) + "\n")
    assert main(["build-code", "--space", space,
                 "--out", str(tmp_path / "codebook")]) == 2
    err = capsys.readouterr().err
    assert err == f"ERROR InvalidSpace: probabilities sum to just {side} 1, expected 1\n"


def test_a_bad_sum_of_large_fractions_is_one_short_error_line(tmp_path, capsys):
    # as one fraction the sum has thousands of digits, past what str() takes
    space = write(tmp_path, "space.txt", large_prime_space_file())
    assert main(["build-code", "--space", space,
                 "--out", str(tmp_path / "codebook")]) == 2
    err = capsys.readouterr().err
    assert err == "ERROR InvalidSpace: probabilities sum to about 0.0106194, expected 1\n"
    assert not (tmp_path / "codebook").exists()


# a locale whose encoding is ASCII, with Python's coercion to UTF-8 turned off
C_LOCALE = {"LC_ALL": "C", "LANG": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def test_text_files_are_utf8_whatever_the_locale(tmp_path):
    (tmp_path / "space.txt").write_bytes('"café" 1/2\n"tea" 1/2\n'.encode())
    (tmp_path / "msg").write_bytes("café".encode())
    src = str(Path(padcrypt.__file__).resolve().parents[1])

    def cli(*argv, **env):
        env = dict(os.environ, **env)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "padcrypt.cli", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    cli("build-code", "--space", "space.txt", "--out", "utf8.book", PYTHONUTF8="1")
    cli("build-code", "--space", "space.txt", "--out", "c.book", **C_LOCALE)
    book = (tmp_path / "c.book").read_bytes()
    assert book == (tmp_path / "utf8.book").read_bytes()
    assert b" 636166c3a9 " in book
    cli("keygen", "64", "--out", "k.pool", "--rng", "seeded:9", "--insecure-test", **C_LOCALE)
    shutil.copyfile(tmp_path / "k.pool", tmp_path / "k2.pool")
    cli("encrypt", "--code", "c.book", "--key", "k.pool", "--in", "msg", "--out", "frame",
        **C_LOCALE)
    cli("decrypt", "--code", "c.book", "--key", "k2.pool", "--in", "frame",
        "--out", "msg.out", **C_LOCALE)
    assert (tmp_path / "msg.out").read_bytes() == "café".encode()


def test_pool_id_that_is_not_utf8_is_an_error_line(tmp_path, capsys):
    key = str(tmp_path / "k.pool")
    assert main(["keygen", "64", "--out", key,
                 "--rng", "seeded:1", "--insecure-test"]) == 0
    blob = bytearray((tmp_path / "k.pool").read_bytes())
    blob[6] = 0xFF  # first byte of the pool id
    (tmp_path / "k.pool").write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["audit", "--key", key]) == 2
    assert capsys.readouterr().err.startswith("ERROR PoolFormatError:")


@pytest.mark.parametrize("argv", [
    ["keygen", "64", "--out", "new.pool", "--rng", "seeded:abc", "--insecure-test"],
    ["encrypt", "--code", "codebook", "--key", "k.pool", "--in", "msg", "--out", "f",
     "--rng", "seeded:abc"],
    ["build-code", "--space", "latin1.txt", "--out", "out"],
    ["verify", "--space", "latin1.txt", "--code", "codebook"],
    ["report", "--space", "latin1.txt", "--code", "codebook"],
    ["encrypt", "--code", "latin1.book", "--key", "k.pool", "--in", "msg", "--out", "f"],
    ["build-code", "--space", "space.txt", "--codec", "external:false", "--out", "out"],
    ["encrypt", "--code", "codebook", "--key", "k.pool", "--in", "msg", "--out", "missing/f"],
    ["encrypt", "--code", "codebook", "--key", "k.pool", "--in", "msg", "--out", "dir"],
    ["keygen", "64", "--out", "new.pool", "--rng", "bogus:1", "--insecure-test"],
    ["build-code", "--space", "space.txt", "--codec", "bogus", "--out", "out"],
], ids=["keygen-rng", "encrypt-rng", "build-code-space", "verify-space",
        "report-space", "encrypt-codebook", "external-exit-status",
        "encrypt-out-in-missing-dir", "encrypt-out-is-a-dir", "keygen-rng-kind",
        "build-code-codec"])
def test_bad_input_is_an_error_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "space.txt", SPACE_4)
    (tmp_path / "latin1.txt").write_bytes('"caf\xe9" 1/1\n'.encode("latin-1"))
    (tmp_path / "latin1.book").write_bytes(b"padcrypt-codebook 1 huffman 1\n0 ff \xe9\n")
    (tmp_path / "msg").write_bytes(b"alpha")
    (tmp_path / "dir").mkdir()
    assert main(["build-code", "--space", "space.txt", "--out", "codebook"]) == 0
    assert main(["keygen", "64", "--out", "k.pool",
                 "--rng", "seeded:9", "--insecure-test"]) == 0
    files = tree(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("ERROR ")
    # a rejected encrypt spends no key bits and leaves no file behind
    assert keystore.KeyPool.load(tmp_path / "k.pool").cursor == 0
    assert tree(tmp_path) == files


@pytest.mark.parametrize("case", [*HOSTILE_CODEBOOKS, "pool-cut-in-cursor", "pool-cursor-beyond",
                                  "frame-version", "pool-too-short"])
def test_hostile_input_files_are_error_lines(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "space.txt", SPACE_4)  # uniform: every codeword has l = 2 bits
    (tmp_path / "msg").write_bytes(b"alpha")
    assert main(["build-code", "--space", "space.txt", "--out", "codebook"]) == 0
    assert main(["keygen", "64", "--out", "k.pool",
                 "--rng", "seeded:9", "--insecure-test"]) == 0
    shutil.copyfile(tmp_path / "k.pool", tmp_path / "sender.pool")
    assert main(["encrypt", "--code", "codebook", "--key", "sender.pool",
                 "--in", "msg", "--out", "frame"]) == 0
    decrypt = ["decrypt", "--code", "codebook", "--key", "k.pool", "--in", "frame", "--out", "out"]
    if case in HOSTILE_CODEBOOKS:
        text, error = HOSTILE_CODEBOOKS[case]
        write(tmp_path, "hostile.book", text)
        argv, name = ["encrypt", "--code", "hostile.book", "--key", "k.pool",
                      "--in", "msg", "--out", "out"], "CodebookFormatError"
    elif case in ("pool-cut-in-cursor", "pool-cursor-beyond"):
        blob, error = hostile_pools((tmp_path / "k.pool").read_bytes())[case]
        (tmp_path / "k.pool").write_bytes(blob)
        argv, name = decrypt, "PoolFormatError"
    elif case == "frame-version":
        blob = (tmp_path / "frame").read_bytes()
        (tmp_path / "frame").write_bytes(blob[:4] + b"\x02" + blob[5:])
        argv, name, error = decrypt, "WireFormatError", "unsupported frame version 2"
    else:  # one key bit left, where every message needs l = 2
        keystore.KeyPool.load("k.pool").take(63)
        argv, name, error = decrypt, "KeyExhausted", "need 2 bits, 1 remain"
    pool = (tmp_path / "k.pool").read_bytes()
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR {name}:") and error in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    assert (tmp_path / "k.pool").read_bytes() == pool  # no key bit spent
