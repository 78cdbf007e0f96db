"""The four benchmark workloads and the inputs they are built from.

Each workload is a closed loop: one client, one process, no threads, and
the next operation starts only after the previous one has finished.  The
seed drives the message stream and the key material; pads come from the
OS source, as in real use.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from fractions import Fraction
from pathlib import Path

from padcrypt import bits, cipher, codec, keystore, rng, verify
from padcrypt.errors import PadcryptError

from harness import BENCH, SRC, Run, _clock
from tracing import Tracer, install_padcrypt_targets, percentile

ZIPF_L = 256           # Huffman l = 11, trimmed l = 9
STREAM = 512           # messages per pass; a run sends whole passes
DISK_POOL_BITS = 1 << 23   # 8 Mbit = 1 MiB file, cursor starts at half
MEMORY_POOL_BITS = 1 << 20  # a pass spends at most STREAM * l < 6 kbit of it
GEOMETRIC_L = 13       # Huffman l = 12, the exact oracle's default budget
EQUIVALENCE_L = 10     # Huffman l = 9; key_discipline_equivalence is 2^(2l-s)
CLI_ZIPF_L = 16
CLI_POOL_BITS = 4096
CLI_TIMEOUT_S = 120
SESSION_FILES = ("space.txt", "msg", "msg.out", "codebook", "alice.pool", "bob.pool", "frame")


def new_tracer() -> Tracer:
    tracer = Tracer()
    install_padcrypt_targets(tracer, bits, codec, keystore, rng, cipher, verify)
    return tracer


# --- inputs --------------------------------------------------------------

def zipf_counts(L: int) -> list[int]:
    """Zipf-like integer weights; probabilities are count/total, so exact
    Fractions share one small denominator and Huffman stays fast."""
    return [10**6 // (i + 1) for i in range(L)]


def space_from_counts(counts: list[int]) -> codec.MessageSpace:
    total = sum(counts)
    return codec.MessageSpace([b"m%03d" % i for i in range(len(counts))],
                              [Fraction(c, total) for c in counts])


def geometric_counts(L: int) -> list[int]:
    """2^-1, 2^-2, ..., 2^-(L-1), 2^-(L-1): Huffman gives lengths 1..L-1."""
    return [1 << (L - 1 - i) for i in range(L - 1)] + [1]


def message_stream(seed: int, space: codec.MessageSpace, counts: list[int],
                   n: int) -> list[bytes]:
    return random.Random(f"stream:{seed}").choices(space.messages, weights=counts, k=n)


# --- disk-session and memory-session -------------------------------------

def _session(run: Run, disk: bool) -> None:
    pad_rng = rng.OsRandomSource()

    def setup():
        counts = zipf_counts(ZIPF_L)
        space = space_from_counts(counts)
        code = codec.build_huffman(space)
        stream = message_stream(run.seed, space, counts, STREAM)
        nbits = DISK_POOL_BITS if disk else MEMORY_POOL_BITS
        pool = keystore.generate_pool(nbits, rng.SeededRandomSource(run.seed))
        if not disk:
            return code, stream, pool, (None, None)
        d = Path(tempfile.mkdtemp(dir=run.work))
        paths = (d / "alice.pool", d / "bob.pool")
        keystore.KeyPool(pool.material, nbits // 2, pool.pool_id).save(paths[0])
        shutil.copyfile(*paths)
        return code, stream, keystore.KeyPool.load(paths[0]), paths

    code, stream, pool, paths = run.setup(setup)
    if paths[0]:
        run.pool_file_bytes = paths[0].stat().st_size
    start_cursor = cursor = pool.cursor
    alice = bob = None  # the pools of the current pass, opened by block
    frame_len = None
    run.chunk = 64
    run.ops_per_pass = STREAM
    encrypt_ns, decrypt_ns = array("q"), array("q")
    done = 0
    key_bits = 0

    def send(m):
        record = cipher.encrypt(m, code, alice, pad_rng)
        return record, cipher.write_frame(record, code, pad_rng)

    def receive(frame):
        return cipher.decrypt(cipher.read_frame(frame, code), code, bob)

    def block(traced):
        nonlocal alice, bob, cursor, frame_len, done, key_bits
        # every pass spends the same key range, so it does the same work
        # however far the run gets; the range is checked again each pass
        alice = keystore.KeyPool(pool.material, start_cursor, pool.pool_id, paths[0])
        bob = keystore.KeyPool(pool.material, start_cursor, pool.pool_id, paths[1])
        cursor = start_cursor
        do_send = run.root("send", send, traced)
        do_receive = run.root("receive", receive, traced)
        for i, m in enumerate(stream):
            try:
                t0 = _clock()
                record, frame = do_send(m)
                t1 = _clock()
                got = do_receive(frame)
                t2 = _clock()
            except PadcryptError:
                run.check(False)
                continue
            finally:
                if traced:
                    run.tracer.fold(done, msgs=1)
            if not traced:
                run.record_step(i, t2 - t0)
                encrypt_ns.append(t1 - t0)
                decrypt_ns.append(t2 - t1)
            run.record_op(t2 - t0, traced)
            done += 1
            frame_len = frame_len or len(frame)
            key_bits += record.key_bits_used
            # one-time-pad check from outside: key ranges tile the pool and
            # both ends stay in step; every frame has the public length
            run.check(got == m
                      and record.cursor_start == cursor
                      and record.cursor_end - record.cursor_start == record.key_bits_used
                      and alice.cursor == bob.cursor == record.cursor_end
                      and record.ciphertext.l == code.max_len
                      and len(frame) == frame_len)
            cursor = record.cursor_end

    run.blocks(block)

    if paths[0]:
        for p in paths:
            reloaded = keystore.KeyPool.load(p)
            run.check(reloaded.cursor == cursor)
    run.metric("msgs_per_s", statistics.median(run.rates()), "1/s", len(run.rates()))
    for side, samples in (("encrypt", encrypt_ns), ("decrypt", decrypt_ns)):
        for q in (50, 99):
            run.metric(f"{side}_p{q}_us", percentile(samples, q) / 1e3, "us", len(samples))
    run.metric("key_bits_per_msg", key_bits / done, "bit", done)


def disk_session(run: Run) -> None:
    _session(run, disk=True)


def memory_session(run: Run) -> None:
    _session(run, disk=False)


# --- audit ---------------------------------------------------------------

def audit(run: Run) -> None:
    def setup():
        geo = space_from_counts(geometric_counts(GEOMETRIC_L))
        small = space_from_counts(geometric_counts(EQUIVALENCE_L))
        zipf = space_from_counts(zipf_counts(ZIPF_L))
        huffman = codec.build_huffman(zipf)
        return (geo, codec.build_huffman(geo), small, codec.build_huffman(small),
                zipf, huffman, codec.trim_code(huffman, zipf))

    geo, geo_code, small, small_code, zipf, huffman, trimmed = run.setup(setup)
    uniform_rng = rng.SeededRandomSource(run.seed)
    # twice the per-bin minimum, so the chi-square test is never short of data
    trials = 2 * verify.CHI_SQUARE_MIN_PER_BIN * 2 ** trimmed.max_len

    checks = (
        ("oracle_padded", lambda: verify.exact_secrecy_oracle(geo, geo_code),
         lambda r: r.verdict == "perfect" and r.max_deviation == 0),
        ("oracle_naive", lambda: verify.exact_secrecy_oracle(geo, geo_code, naive=True),
         lambda r: r.verdict == "leaky" and r.max_deviation > 0),
        ("equivalence", lambda: verify.key_discipline_equivalence(small, small_code),
         lambda r: r is True),
        ("uniformity", lambda: verify.empirical_uniformity(zipf, trimmed, uniform_rng, trials),
         lambda r: not r.insufficient_data and r.trials == trials and r.p_value > 1e-9),
        ("bounds", lambda: (verify.bound_report(zipf, huffman, "huffman"),
                            verify.bound_report(zipf, trimmed, "trimmed")),
         lambda r: r[0].ok and r[1].ok),
        ("leak", lambda: (verify.leak_mutual_information(geo, geo_code),
                          verify.leak_mutual_information(geo, geo_code,
                                                         observable="ciphertext-length")),
         lambda r: r[0].mutual_information > 0 and r[1].mutual_information == 0),
    )
    ops = 0

    def block(traced):
        nonlocal ops
        busy = 0
        for name, fn, ok in checks:
            call = run.root(name, fn, traced)
            try:
                t0 = _clock()
                result = call()
                dt = _clock() - t0
            except PadcryptError:
                run.check(False)
                continue
            finally:
                if traced:
                    run.tracer.fold(ops)
                ops += 1
            run.check(ok(result))
            busy += dt
            if not traced:
                run.record_step(name, dt)
        run.record_op(busy, traced)

    run.blocks(block)
    oracle = [a + b for a, b in zip(run.step_ns("oracle_padded"), run.step_ns("oracle_naive"))]
    equivalence, uniformity = run.step_ns("equivalence"), run.step_ns("uniformity")
    run.metric("oracle_s", statistics.median(oracle) / 1e9, "s", len(oracle))
    run.metric("equivalence_s", statistics.median(equivalence) / 1e9, "s", len(equivalence))
    run.metric("uniformity_trials_per_s", trials * 1e9 / statistics.median(uniformity),
               "1/s", len(uniformity))


# --- cli-session ---------------------------------------------------------

def cli_session(run: Run) -> None:
    """Operator session of cold `python -m padcrypt.cli` calls.

    The package is not installed, so every call finds it through
    PYTHONPATH.  Traced blocks run the same commands through
    bench/traced_cli.py, which wraps the layers inside the child.
    """
    run.rss_children = True
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PADCRYPT_KEY_DIR", None)
    counts = zipf_counts(CLI_ZIPF_L)
    space = space_from_counts(counts)
    space_text = "".join(f"{m.hex()} {c}/{sum(counts)}\n" for m, c in zip(space.messages, counts))
    messages = random.Random(f"stream:{run.seed}")

    def python(*args: str, span_file: "Path | None" = None):
        prefix = ([str(BENCH / "traced_cli.py"), str(span_file)] if span_file
                  else ["-m", "padcrypt.cli"])
        return subprocess.run([sys.executable, *prefix, *args], env=env, cwd=run.work,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)

    def setup():
        # fills the bytecode caches, as an operator's first call does
        if python("--help").returncode != 0:
            raise RuntimeError("padcrypt --help failed")

    def cold_scipy_ns():
        # a cold start of the same kind as a call, without padcrypt
        t0 = _clock()
        subprocess.run([sys.executable, "-c", "import scipy.stats"], env=env, cwd=run.work,
                       capture_output=True, check=True, timeout=CLI_TIMEOUT_S)
        return _clock() - t0

    run.calibrator = (cold_scipy_ns, 1, 1_250_000_000)
    # a set-up costs as much as a call, so it is timed only before the loop
    run.setup_gap = None
    run.setup(setup)

    def session_calls(f):
        """(command, arguments, expected exit code) of one session's calls."""
        return (
            ("keygen", [str(CLI_POOL_BITS), "--out", f["alice.pool"],
                        "--rng", f"seeded:{run.seed}", "--insecure-test"], 0),
            ("build-code", ["--space", f["space.txt"], "--out", f["codebook"]], 0),
            ("encrypt", ["--code", f["codebook"], "--key", f["alice.pool"],
                         "--in", f["msg"], "--out", f["frame"]], 0),
            ("decrypt", ["--code", f["codebook"], "--key", f["bob.pool"],
                         "--in", f["frame"], "--out", f["msg.out"]], 0),
            ("audit", ["--key", f["alice.pool"]], 0),
            ("audit", ["--key", f["bob.pool"]], 0),
            ("report", ["--space", f["space.txt"], "--code", f["codebook"]], 0),
            ("verify", ["--space", f["space.txt"], "--code", f["codebook"],
                        "--naive-leak-demo"], 3),
        )

    # one operation is one call; one throughput sample is one session
    run.chunk = run.ops_per_pass = len(session_calls(dict.fromkeys(SESSION_FILES, "")))
    session_s: list[float] = []
    calls = 0

    def block(traced):
        nonlocal calls
        d = Path(tempfile.mkdtemp(dir=run.work))
        f = {name: str(d / name) for name in SESSION_FILES}
        Path(f["space.txt"]).write_text(space_text)
        message = messages.choices(space.messages, weights=counts)[0]
        Path(f["msg"]).write_bytes(message)
        cursors = []
        busy = 0
        for i, (command, args, expect) in enumerate(session_calls(f)):
            span_file = d / f"spans-{calls}.json" if traced else None

            def call():
                proc = python(command, *args, span_file=span_file)
                if span_file is not None and span_file.exists():
                    child = json.loads(span_file.read_text())
                    run.tracer.graft(child["spans"], child["counts"])
                return proc

            do_call = run.tracer.span(f"cli.{command}", call) if traced else call
            t0 = _clock()
            proc = do_call()
            dt = _clock() - t0
            if traced:
                run.tracer.fold(calls, msgs=int(command == "encrypt"))
            calls += 1
            ok = proc.returncode == expect
            if command == "keygen" and ok:
                shutil.copyfile(f["alice.pool"], f["bob.pool"])
            elif command == "decrypt":
                ok = ok and Path(f["msg.out"]).read_bytes() == message
            elif command == "audit":
                found = re.search(r"^cursor\s+(\d+)$", proc.stdout, re.M)
                cursors.append(int(found.group(1)) if found else -1)
                # one-time-pad check: both ends consumed the same key range
                ok = ok and found is not None and (len(cursors) == 1 or cursors[0] == cursors[1] > 0)
            run.check(ok)
            busy += dt
            run.record_op(dt, traced)
            if not traced:
                run.record_step(i, dt)
        if not traced:
            session_s.append(busy / 1e9)
        run.pool_file_bytes = Path(f["alice.pool"]).stat().st_size
        shutil.rmtree(d)

    run.blocks(block)
    run.metric("cli_call_p50_ms", statistics.median(run.op_ns()) / 1e6, "ms", run.n_ops())
    run.metric("cli_session_s", statistics.median(session_s), "s", len(session_s))
    if run.trace:
        _cold_start_probes(run, env)


def _cold_start_probes(run: Run, env) -> None:
    """Interpreter start, padcrypt import and scipy's share of it."""
    def wall_ms(args):
        times = []
        for _ in range(3):
            t0 = _clock()
            subprocess.run([sys.executable, *args], env=env, cwd=run.work, check=True,
                           capture_output=True, timeout=CLI_TIMEOUT_S)
            times.append((_clock() - t0) / 1e6)
        return statistics.median(times)

    bare = wall_ms(["-c", "pass"])
    run.metric("cli.interpreter_ms", bare, "ms", 3)
    run.metric("cli.import_padcrypt_ms", wall_ms(["-c", "import padcrypt"]) - bare, "ms", 3)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import padcrypt"],
                          env=env, cwd=run.work, capture_output=True, text=True,
                          check=True, timeout=CLI_TIMEOUT_S)
    scipy_us = max((int(line.split("|")[1]) for line in proc.stderr.splitlines()
                    if line.startswith("import time:") and line.split("|")[2].strip() == "scipy.stats"),
                   default=0)
    run.metric("cli.import_scipy_ms", scipy_us / 1e3, "ms", 1)


WORKLOADS = {
    "disk-session": disk_session,
    "memory-session": memory_session,
    "audit": audit,
    "cli-session": cli_session,
}
