import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import padcrypt
from padcrypt import cli, codec, keystore
from padcrypt.cli import main, parse_space_file
from padcrypt.errors import PadcryptError

SPACE_4 = """\
# four messages, uniform
"alpha" 1/4
"beta"  1/4
00ff    1/4
-       1/4
"""

SPACE_122 = """\
"a" 1/3
"b" 1/3
"c" 1/3
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- space file parsing ---------------------------------------------------

def test_parse_space_file():
    sp = parse_space_file(SPACE_4)
    assert sp.messages == (b"alpha", b"beta", b"\x00\xff", b"")
    assert sp.probs == (Fraction(1, 4),) * 4
    assert sp.is_exact


def test_parse_space_file_bad_line():
    with pytest.raises(PadcryptError):
        parse_space_file('"unterminated 1/2\n')
    with pytest.raises(PadcryptError):
        parse_space_file("zz 1/2\nff 1/2\n")  # zz is not hex


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
                 "--in", msg_in, "--out", frame, "--rng", "seeded:4"]) == 0

    # receiver replays from an identically generated pool
    key2 = str(tmp_path / "k2.pool")
    assert main(["keygen", "256", "--out", key2,
                 "--rng", "seeded:9", "--insecure-test"]) == 0
    assert main(["decrypt", "--code", book, "--key", key2,
                 "--in", frame, "--out", msg_out]) == 0
    assert (tmp_path / "msg.out").read_bytes() == b"beta"


def test_encrypt_is_deterministic_with_seeds(tmp_path):
    space = write(tmp_path, "space.txt", SPACE_4)
    book = str(tmp_path / "codebook")
    main(["build-code", "--space", space, "--out", book])
    (tmp_path / "msg").write_bytes(b"alpha")
    frames = []
    for i in (1, 2):
        key = str(tmp_path / f"k{i}.pool")
        main(["keygen", "128", "--out", key, "--rng", "seeded:5", "--insecure-test"])
        frame = str(tmp_path / f"f{i}")
        main(["encrypt", "--code", book, "--key", key,
              "--in", str(tmp_path / "msg"), "--out", frame, "--rng", "seeded:6"])
        frames.append((tmp_path / f"f{i}").read_bytes())
    assert frames[0] == frames[1]


def test_encrypt_consumes_key_on_disk(tmp_path, capsys):
    space = write(tmp_path, "space.txt", SPACE_4)
    book = str(tmp_path / "codebook")
    key = str(tmp_path / "k.pool")
    main(["build-code", "--space", space, "--out", book])
    main(["keygen", "64", "--out", key, "--rng", "seeded:9", "--insecure-test"])
    (tmp_path / "msg").write_bytes(b"alpha")
    main(["encrypt", "--code", book, "--key", key,
          "--in", str(tmp_path / "msg"), "--out", str(tmp_path / "f"),
          "--rng", "seeded:4"])
    capsys.readouterr()
    main(["audit", "--key", key])
    assert "cursor     2" in capsys.readouterr().out


def test_stdout_does_not_depend_on_the_message(tmp_path, capsys):
    # "a" and "c" get codewords of different lengths, so printing s or a
    # cursor delta would tell them apart
    space = write(tmp_path, "space.txt", SPACE_122)
    book = str(tmp_path / "codebook")
    main(["build-code", "--space", space, "--out", book])
    with open(book) as f:
        code, _ = codec.load_codebook(f)
    assert len(codec.encode(code, b"a")) != len(codec.encode(code, b"c"))
    key = str(tmp_path / "k.pool")
    main(["keygen", "64", "--out", key, "--rng", "seeded:9", "--insecure-test"])
    frame, msg, msg_out = (str(tmp_path / n) for n in ("frame", "msg", "msg.out"))
    enc_out, dec_out = [], []
    for i, message in enumerate((b"a", b"c")):
        alice, bob = (str(tmp_path / f"{who}{i}.pool") for who in ("alice", "bob"))
        shutil.copyfile(key, alice)
        shutil.copyfile(key, bob)
        (tmp_path / "msg").write_bytes(message)
        capsys.readouterr()
        assert main(["encrypt", "--code", book, "--key", alice,
                     "--in", msg, "--out", frame, "--rng", "seeded:4"]) == 0
        enc_out.append(capsys.readouterr().out)
        assert main(["decrypt", "--code", book, "--key", bob,
                     "--in", frame, "--out", msg_out]) == 0
        dec_out.append(capsys.readouterr().out)
        assert (tmp_path / "msg.out").read_bytes() == message
    assert enc_out[0] == enc_out[1]
    assert dec_out[0] == dec_out[1]


def test_cli_import_does_not_load_scipy():
    src = str(Path(padcrypt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # only what importing padcrypt adds counts, not what start-up loaded
    probe = ("import sys; before = set(sys.modules); import padcrypt, padcrypt.cli; "
             "print(sorted({'scipy', 'numpy', 'subprocess'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "[]"


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


def test_verify_report_out(tmp_path, capsys):
    space = write(tmp_path, "space.txt", SPACE_122)
    book = str(tmp_path / "codebook")
    main(["build-code", "--space", space, "--out", book])
    report = str(tmp_path / "report.txt")
    assert main(["verify", "--space", space, "--code", book,
                 "--report-out", report]) == 0
    assert "verdict perfect" in (tmp_path / "report.txt").read_text()


def test_report_command(tmp_path, capsys):
    space = write(tmp_path, "space.txt", SPACE_122)
    book = str(tmp_path / "codebook")
    main(["build-code", "--space", space, "--codec", "trimmed-huffman",
          "--out", book])
    assert main(["report", "--space", space, "--code", book]) == 0
    text = capsys.readouterr().out
    assert "bounds(trimmed)" in text
    assert "ok" in text


def test_report_on_a_one_message_space(tmp_path, capsys):
    # the lone message gets a 1-bit word, so the average is h + 1 = 1
    space = write(tmp_path, "space.txt", '"only" 1/1\n')
    book = str(tmp_path / "codebook")
    assert main(["build-code", "--space", space, "--out", book]) == 0
    capsys.readouterr()
    assert main(["report", "--space", space, "--code", book]) == 0
    text = capsys.readouterr().out
    assert "entropy_bits        0.000000\n" in text
    assert "bounds(huffman)     ok\n" in text


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
                 "--in", str(tmp_path / "msg"), "--out", str(tmp_path / "f"),
                 "--rng", "seeded:4"]) == 0


def test_key_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.KEY_DIR_ENV, str(tmp_path))
    assert main(["keygen", "32", "--out", "rel.pool",
                 "--rng", "seeded:1", "--insecure-test"]) == 0
    assert (tmp_path / "rel.pool").exists()
    assert main(["audit", "--key", "rel.pool"]) == 0


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
    assert main(["encrypt", "--code", book, "--key", key,
                 "--in", str(tmp_path / "msg"), "--out", str(tmp_path / "f"),
                 "--rng", "seeded:4"]) == 2
    assert "KeyExhausted" in capsys.readouterr().err


def test_zero_denominator_in_space_file_is_an_error_line(tmp_path, capsys):
    space = write(tmp_path, "space.txt", '"a" 1/0\n"b" 1/2\n')
    assert main(["build-code", "--space", space,
                 "--out", str(tmp_path / "codebook")]) == 2
    assert capsys.readouterr().err.startswith("ERROR PadcryptError: space file line 1:")


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
], ids=["keygen-rng", "encrypt-rng", "build-code-space", "verify-space",
        "report-space", "encrypt-codebook", "external-exit-status"])
def test_bad_input_is_an_error_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.KEY_DIR_ENV, raising=False)
    write(tmp_path, "space.txt", SPACE_4)
    (tmp_path / "latin1.txt").write_bytes('"caf\xe9" 1/1\n'.encode("latin-1"))
    (tmp_path / "latin1.book").write_bytes(b"padcrypt-codebook 1 huffman 1\n0 ff \xe9\n")
    (tmp_path / "msg").write_bytes(b"alpha")
    assert main(["build-code", "--space", "space.txt", "--out", "codebook"]) == 0
    assert main(["keygen", "64", "--out", "k.pool",
                 "--rng", "seeded:9", "--insecure-test"]) == 0
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("ERROR ")
    # a rejected encrypt spends no key bits
    assert keystore.KeyPool.load(tmp_path / "k.pool").cursor == 0
