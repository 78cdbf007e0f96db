"""Every parser is total: a mutated input file parses or is refused with a
PadcryptError, and a command that reads it exits 0 or 2 with at most one
ERROR line.

Each mutation starts from a file the CLI wrote and truncates it at any
byte, flips one bit, or sets a count or length field to 10^6, 2^40 or 2^64
(the largest value a binary field holds, if that is less).
"""

import contextlib
import io
import os
import re
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from padcrypt import cipher, cli, codec, keystore
from padcrypt.errors import PadcryptError

HUGE = (10 ** 6, 2 ** 40, 2 ** 64)

# the files of a work directory, by the names the commands below use
FILES = {"space": "space.txt", "codebook": "codebook", "pool": "k.pool", "msg": "msg",
         "frame": "frame"}

# each parser's file, by its name in FILES, and the commands that read it
PARSERS = {
    "space": [["build-code", "--space", "{space}", "--out", "{out}"],
              ["report", "--space", "{space}", "--code", "{codebook}"],
              ["verify", "--space", "{space}", "--code", "{codebook}"]],
    "codebook": [["encrypt", "--code", "{codebook}", "--key", "{pool}",
                  "--in", "{msg}", "--out", "{out}"],
                 ["report", "--space", "{space}", "--code", "{codebook}"],
                 ["verify", "--space", "{space}", "--code", "{codebook}"]],
    "pool": [["audit", "--key", "{pool}"],
             ["encrypt", "--code", "{codebook}", "--key", "{pool}",
              "--in", "{msg}", "--out", "{out}"]],
    "frame": [["decrypt", "--code", "{codebook}", "--key", "{pool}",
               "--in", "{frame}", "--out", "{out}"]],
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The bytes of each file in FILES, as the CLI writes them: a space file,
    its codebook, a pool and a frame that a copy of the pool encrypted."""
    root = tmp_path_factory.mktemp("valid")
    path = {name: str(root / file) for name, file in FILES.items()}
    sender = str(root / "sender.pool")
    (root / FILES["space"]).write_bytes(b'# three messages\n"yes" 1/2\n6e6f 1/3\n- 1/6\n')
    (root / FILES["msg"]).write_bytes(b"yes")
    with contextlib.redirect_stdout(None):
        assert cli.main(["build-code", "--space", path["space"], "--out", path["codebook"]]) == 0
        assert cli.main(["keygen", "64", "--out", path["pool"],
                         "--rng", "seeded:3", "--insecure-test"]) == 0
        shutil.copyfile(path["pool"], sender)
        assert cli.main(["encrypt", "--code", path["codebook"], "--key", sender,
                         "--in", path["msg"], "--out", path["frame"]]) == 0
    return {name: (root / file).read_bytes() for name, file in FILES.items()}


def fields(name, blob):
    """The count and length fields of a file: (start, end, binary width or 0
    for a decimal field)."""
    if name == "space":  # no counts: each numerator and denominator stands in
        return [(m.start(g), m.end(g), 0) for m in re.finditer(rb"(\d+)/(\d+)$", blob, re.M)
                for g in (1, 2)]
    if name == "codebook":  # the header's record count and each record's index
        return [(m.start(1), m.end(1), 0)
                for m in re.finditer(rb"^(?:padcrypt-codebook \S+ \S+ )?(\d+) ", blob, re.M)]
    if name == "pool":  # id length, cursor and bit count
        off = 6 + blob[5]
        return [(5, 6, 1), (off, off + 8, 8), (off + 8, off + 16, 8)]
    return [(13, 17, 4)]  # the frame's l


@st.composite
def mutations(draw, name, blob):
    kind = draw(st.sampled_from(["cut", "flip", "field"]))
    if kind == "cut":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        bit = draw(st.integers(0, 8 * len(blob) - 1))
        out = bytearray(blob)
        out[bit // 8] ^= 1 << bit % 8
        return bytes(out)
    start, end, width = draw(st.sampled_from(fields(name, blob)))
    value = draw(st.sampled_from(HUGE))
    if width:
        new = min(value, 256 ** width - 1).to_bytes(width, "big")
    else:
        new = str(value).encode()
    return blob[:start] + new + blob[end:]


def read_as_cli(blob):
    """The text `cli._read` gives for a file of these bytes."""
    with io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8") as f:
        return f.read()


def parse(name, blob, valid, path):
    if name == "space":
        cli.parse_space_file(read_as_cli(blob))
    elif name == "codebook":
        codec.load_codebook(read_as_cli(blob))
    elif name == "pool":
        path.write_bytes(blob)
        keystore.KeyPool.load(path)
    else:
        code, _ = codec.load_codebook(read_as_cli(valid["codebook"]))
        cipher.read_frame(blob, code)


@pytest.mark.parametrize("name", list(PARSERS))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_parser_parses_or_refuses_a_mutated_file(valid, tmp_path, name, data):
    blob = data.draw(mutations(name, valid[name]))
    try:
        parse(name, blob, valid, tmp_path / "k.pool")
    except UnicodeDecodeError:  # of the test's own decoding; the CLI reports it
        assert name in ("space", "codebook")
    except PadcryptError:
        pass


@pytest.mark.parametrize("name", list(PARSERS))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_command_exits_0_or_2_on_a_mutated_file(valid, tmp_path, capsys, name, data):
    blob = data.draw(mutations(name, valid[name]))
    path = {key: str(tmp_path / file) for key, file in FILES.items()}
    path["out"] = str(tmp_path / "out")
    for argv in PARSERS[name]:
        for key, content in valid.items():
            (tmp_path / FILES[key]).write_bytes(blob if key == name else content)
        with contextlib.suppress(FileNotFoundError):
            os.remove(path["out"])
        capsys.readouterr()
        code = cli.main([arg.format(**path) for arg in argv])
        err = capsys.readouterr().err
        assert code in (0, 2), (argv, err)
        if code == 2:
            assert err.startswith("ERROR ") and err.count("\n") == 1, (argv, err)
        else:
            assert "ERROR" not in err, (argv, err)
