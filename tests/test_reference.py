"""padcrypt against the reference model of tests/reference.py: equal frames,
messages and cursors, and the same refusals, in the library and the CLI."""

import copy
import shutil
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import padcrypt as pc
from padcrypt import cipher, codec, keystore
from padcrypt.cli import main
from padcrypt.errors import PadcryptError
from padcrypt.rng import SeededRandomSource

import reference

OUTSIDER = b"\xff" * 4  # longer than any message a space below holds


@st.composite
def exact_spaces(draw):
    """(messages, probabilities) of up to 12 messages, zero weights included."""
    messages = draw(st.lists(st.binary(max_size=3), min_size=1, max_size=12, unique=True))
    weights = draw(st.lists(st.integers(0, 20), min_size=len(messages),
                            max_size=len(messages)).filter(any))
    return messages, [Fraction(w, sum(weights)) for w in weights]


def outcome(call, pool):
    """("ok", call()), or ("refused", the error's name) once the refusal is
    seen to leave the pool's cursor where it was."""
    cursor = pool.cursor
    try:
        return "ok", call()
    except reference.Refused as exc:
        name = exc.args[0]
    except PadcryptError as exc:
        name = type(exc).__name__
    assert pool.cursor == cursor
    return "refused", name


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cipher_matches_the_reference_model(data):
    messages, probs = data.draw(exact_spaces())
    space = pc.MessageSpace(messages, probs)
    code = pc.build_huffman(space)
    if len(space) > 1 and data.draw(st.booleans()):
        code = pc.trim_code(code, space)
    book = reference.words(code.codebook)
    seed, pad_seed = data.draw(st.integers(0, 2 ** 32)), data.draw(st.integers(0, 2 ** 32))
    # a few messages' worth of key, so a run reaches the pool end (r < l)
    nbits = data.draw(st.integers(1, 4 * code.max_len + 8))
    alice = pc.generate_pool(nbits, SeededRandomSource(seed))
    bob = pc.KeyPool(alice.material, 0, alice.pool_id)
    model_alice = reference.Pool(SeededRandomSource(seed), nbits)
    model_bob = copy.copy(model_alice)
    pad, model_pad = SeededRandomSource(pad_seed), SeededRandomSource(pad_seed)
    assert (alice.pool_id, str(alice.material)) == (model_alice.pool_id, model_alice.key)
    for m in data.draw(st.lists(st.sampled_from([*messages, OUTSIDER]), max_size=10)):
        start = alice.cursor
        sent = outcome(lambda: cipher.write_frame(
            cipher.encrypt(m, code, alice, pad), code, pad), alice)
        assert sent == outcome(lambda: reference.encrypt(m, book, model_alice, model_pad),
                               model_alice)
        assert alice.cursor == model_alice.cursor
        if sent[0] == "refused":
            continue
        frame = sent[1]
        # a flipped bit anywhere in the frame: both refuse it, or both
        # decrypt it to the same message and cursor, and Bob may lose sync
        synced = bob.cursor == start
        flip = data.draw(st.none() | st.integers(0, 8 * len(frame) - 1))
        if flip is not None:
            frame = bytearray(frame)
            frame[flip // 8] ^= 0x80 >> flip % 8
            frame = bytes(frame)
        got = outcome(lambda: cipher.decrypt(cipher.read_frame(frame, code), code, bob), bob)
        assert got == outcome(lambda: reference.decrypt(frame, book, model_bob), model_bob)
        assert bob.cursor == model_bob.cursor
        if synced and flip is None:
            assert got == ("ok", m)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_the_cli_and_the_reference_model_read_each_others_frames(
        tmp_path, monkeypatch, capsys, data):
    # the CLI pads from the OS, so its frames are compared by what the model
    # decrypts from them, on its own copy of the pool
    monkeypatch.chdir(tmp_path)
    messages, probs = data.draw(exact_spaces())
    Path("space.txt").write_text("".join(
        f"{m.hex() or '-'} {p}\n" for m, p in zip(messages, probs)), encoding="utf-8")
    name = data.draw(st.sampled_from(["huffman", "trimmed-huffman"][:len(messages)]))
    assert main(["build-code", "--space", "space.txt", "--codec", name, "--out", "codebook"]) == 0
    code, _ = codec.load_codebook(Path("codebook").read_text(encoding="utf-8"))
    book = reference.words(code.codebook)
    seed = data.draw(st.integers(0, 2 ** 32))
    nbits = data.draw(st.integers(1, 4 * code.max_len + 8))
    assert main(["keygen", str(nbits), "--out", "alice.pool",
                 "--rng", f"seeded:{seed}", "--insecure-test"]) == 0
    shutil.copyfile("alice.pool", "bob.pool")
    model_alice = reference.Pool(SeededRandomSource(seed), nbits)
    model_bob = copy.copy(model_alice)
    model_pad = SeededRandomSource(data.draw(st.integers(0, 2 ** 32)))
    capsys.readouterr()
    for m in data.draw(st.lists(st.sampled_from(messages), max_size=6)):
        Path("msg").write_bytes(m)
        status = main(["encrypt", "--code", "codebook", "--key", "alice.pool",
                       "--in", "msg", "--out", "frame"])
        sent = outcome(lambda: reference.encrypt(m, book, model_alice, model_pad), model_alice)
        out, err = capsys.readouterr()
        if sent[0] == "refused":
            assert (status, out) == (2, "")
            assert err.startswith(f"ERROR {sent[1]}: ")
        else:
            assert (status, out, err) == (
                0, f"encrypted: l={code.max_len} bits (pool {model_alice.pool_id}) -> frame\n", "")
            frame = Path("frame").read_bytes()
            assert (frame[:17], len(frame)) == (sent[1][:17], len(sent[1]))
            assert reference.decrypt(frame, book, model_bob) == m
            Path("model.frame").write_bytes(sent[1])
            assert main(["decrypt", "--code", "codebook", "--key", "bob.pool",
                         "--in", "model.frame", "--out", "msg.out"]) == 0
            assert capsys.readouterr() == (
                f"decrypted: l={code.max_len} bits (pool {model_bob.pool_id}) -> msg.out\n", "")
            assert Path("msg.out").read_bytes() == m
        assert model_alice.cursor == model_bob.cursor
        for path in ("alice.pool", "bob.pool"):
            assert keystore.KeyPool.load(path).cursor == model_alice.cursor
