"""A two-party key ledger: Alice sends Bob frames on a copied pool, through
the library and through `cli.main` in-process, and every key bit either
party spends is recorded against the frame it padded.  Two rules must hold:
no bit pads two frames, and every decrypt returns the message sent.

Each known way to break them gets a machine with one extra rule, run as a
strict xfail that the ROADMAP item it names turns into a pass.
"""

import contextlib
import io
import os
import shutil
import tempfile

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from padcrypt import cipher, codec
from padcrypt.cli import main
from padcrypt.errors import KeyExhausted, PadcryptError
from padcrypt.keystore import KeyPool
from padcrypt.rng import SeededRandomSource

SPACES = {
    # the README's code: yes -> 1 bit, no and maybe -> 2 bits, l = 2; its
    # Kraft sum is 1, so a receiver out of step decodes a wrong message
    # rather than refusing the frame
    "readme": '"yes" 1/2\n"no" 1/4\n"maybe" 1/4\n',
    # one message: the empty word, l = 0, so no frame spends a key bit
    "lone": '"only" 1/1\n',
}

# the same examples on every run, so each strict xfail fails every time,
# and with the AssertionError of one failure, not a group of them
SETTINGS = settings(derandomize=True, max_examples=50, stateful_step_count=12,
                    deadline=None, report_multiple_bugs=False)


def cli(*argv):
    """main(argv) in-process: its exit status and what it printed."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        status = main(list(argv))
    out.flush()
    return status, out.buffer.getvalue().decode()


class Ledger(RuleBasedStateMachine):
    CODES = tuple(SPACES)

    def __init__(self, root):
        super().__init__()
        self.dir = tempfile.mkdtemp(dir=root)
        self.ledger = {}  # (pool id, bit index) -> the frames it padded
        self.in_flight = []  # (frame number, message, frame), oldest first
        self.frames = 0
        # party -> its open pool handle; a party holds at most one, and
        # closes it before the CLI, a handle of its own, touches its file
        self.handles = {}

    def path(self, name):
        return os.path.join(self.dir, name)

    @initialize(data=st.data())
    def keygen_and_copy(self, data):
        space = SPACES[data.draw(st.sampled_from(self.CODES), label="code")]
        with open(self.path("space.txt"), "w", encoding="utf-8") as f:
            f.write(space)
        self.messages = codec.load_space(space).messages
        assert cli("build-code", "--space", self.path("space.txt"),
                   "--out", self.path("codebook"))[0] == 0
        with open(self.path("codebook"), encoding="utf-8") as f:
            self.code, _ = codec.load_codebook(f.read())
        nbits = data.draw(st.integers(1, 24), label="nbits")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        assert cli("keygen", str(nbits), "--out", self.path("alice.pool"),
                   "--rng", f"seeded:{seed}", "--insecure-test")[0] == 0
        shutil.copyfile(self.path("alice.pool"), self.path("bob.pool"))
        self.rng = SeededRandomSource(seed)

    def handle(self, party):
        """party's open handle on its pool file, opened if it has none."""
        if party not in self.handles:
            self.handles[party] = KeyPool.load(self.path(f"{party}.pool"))
        return self.handles[party]

    def spend(self, pool_id, start, end, number):
        for index in range(start, end):
            self.ledger.setdefault((pool_id, index), set()).add(number)

    def encrypt(self, party, m, via_cli, pool=None):
        """party sends m, through `pool` if given: (frame number, m, frame),
        or None when too few key bits remain, which spends none."""
        number = self.frames = self.frames + 1
        if via_cli:
            key, out = self.path(f"{party}.pool"), self.path("frame")
            self.handles.pop(party, None)
            before = KeyPool.load(key)
            with open(self.path("msg"), "wb") as f:
                f.write(m)
            status, text = cli("encrypt", "--code", self.path("codebook"), "--key", key,
                               "--in", self.path("msg"), "--out", out)
            after = KeyPool.load(key)
            if status:
                assert text.startswith("ERROR KeyExhausted: "), text
                assert after.cursor == before.cursor
                return None
            assert text == f"encrypted: l={self.code.max_len} bits (pool {after.pool_id}) -> {out}\n"
            self.spend(after.pool_id, before.cursor, after.cursor, number)
            with open(out, "rb") as f:
                frame = f.read()
        else:
            pool = pool or self.handle(party)
            start = pool.cursor
            try:
                record = cipher.encrypt(m, self.code, pool, self.rng)
            except KeyExhausted:
                assert pool.cursor == start
                return None
            self.spend(pool.pool_id, start, pool.cursor, number)
            frame = cipher.write_frame(record, self.code, self.rng)
        assert len(frame) == 17 + (self.code.max_len + 7) // 8  # the public length
        return number, m, frame

    def decrypt(self, party, sent, via_cli):
        """party decrypts a frame sent to it, which must give the message sent."""
        number, m, frame = sent
        if via_cli:
            key, out = self.path(f"{party}.pool"), self.path("msg.out")
            self.handles.pop(party, None)
            before = KeyPool.load(key)
            with open(self.path("frame.in"), "wb") as f:
                f.write(frame)
            status, text = cli("decrypt", "--code", self.path("codebook"), "--key", key,
                               "--in", self.path("frame.in"), "--out", out)
            assert status == 0, f"frame {number} refused: {text}"
            after = KeyPool.load(key)
            self.spend(after.pool_id, before.cursor, after.cursor, number)
            with open(out, "rb") as f:
                got = f.read()
        else:
            pool = self.handle(party)
            start = pool.cursor
            try:
                got = cipher.decrypt(cipher.read_frame(frame, self.code), self.code, pool)
            except PadcryptError as exc:
                raise AssertionError(f"frame {number} refused: {exc}") from None
            self.spend(pool.pool_id, start, pool.cursor, number)
        assert got == m, f"frame {number}"

    @rule(data=st.data(), via_cli=st.booleans())
    def encrypt_a_to_b(self, data, via_cli):
        sent = self.encrypt("alice", data.draw(st.sampled_from(self.messages)), via_cli)
        if sent is not None:
            self.in_flight.append(sent)

    @precondition(lambda self: self.in_flight)
    @rule(via_cli=st.booleans())
    def decrypt_at_b(self, via_cli):
        self.decrypt("bob", self.in_flight.pop(0), via_cli)

    @rule(party=st.sampled_from(["alice", "bob"]))
    def reload(self, party):
        old = self.handles.get(party)
        self.handles[party] = KeyPool.load(self.path(f"{party}.pool"))
        if old is not None:  # the cursor is on disk before its bits are used
            assert self.handles[party].cursor == old.cursor

    @invariant()
    def no_bit_pads_two_frames(self):
        assert {bit: frames for bit, frames in self.ledger.items() if len(frames) > 1} == {}


class TwoWay(Ledger):
    CODES = ("readme",)

    @rule(data=st.data(), via_cli=st.booleans())
    def encrypt_b_to_a(self, data, via_cli):
        """Bob replies on his copy of the pool, and Alice decrypts it at once."""
        sent = self.encrypt("bob", data.draw(st.sampled_from(self.messages)), via_cli)
        if sent is not None:
            self.decrypt("alice", sent, via_cli)


class SecondHandle(Ledger):
    CODES = ("readme",)

    @rule(data=st.data())
    def encrypt_a_to_b_through_a_second_handle(self, data):
        """Alice opens a second handle on her pool file and sends through it,
        while her first stays open."""
        self.handle("alice")
        second = KeyPool.load(self.path("alice.pool"))
        sent = self.encrypt("alice", data.draw(st.sampled_from(self.messages)), False, second)
        if sent is not None:
            self.in_flight.append(sent)


class DroppedFrame(Ledger):
    CODES = ("readme",)

    @precondition(lambda self: self.in_flight)
    @rule()
    def drop_a_frame(self):
        self.in_flight.pop(0)


def run(machine, root, known_failure=False):
    # a known failure is reported as first found: shrinking it takes seconds
    run_state_machine_as_test(lambda: machine(root), settings=settings(
        SETTINGS, phases=[Phase.generate] if known_failure else SETTINGS.phases))


def test_no_key_bit_pads_two_frames_and_every_decrypt_returns_the_message_sent(tmp_path):
    run(Ledger, tmp_path)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 11")
def test_the_ledger_holds_with_traffic_both_ways_on_copied_pools(tmp_path):
    run(TwoWay, tmp_path, known_failure=True)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_the_ledger_holds_with_a_second_handle_on_one_pool_file(tmp_path):
    run(SecondHandle, tmp_path, known_failure=True)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 8")
def test_the_ledger_holds_when_a_frame_is_lost(tmp_path):
    run(DroppedFrame, tmp_path, known_failure=True)
