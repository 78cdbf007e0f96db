"""The benchmark's tracer wraps padcrypt names from outside the package, and
its cli-session workload runs fixed CLI calls; a refactor that drops or
rebinds one of those names, or an option one of those calls passes, must
fail here, not only in the benchmark's own smoke run."""

import re
import shutil
from fractions import Fraction
from pathlib import Path

import padcrypt as pc
from padcrypt import bits, cipher, cli, codec, keystore, rng, verify

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracing.install_padcrypt_targets(tracer, bits, codec, keystore, rng, cipher, verify)
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, *_ in tracer._targets]
    assert originals

    tracer.install()
    try:
        for owner, attr, raw in originals:
            assert owner.__dict__[attr] is not raw, attr
        sp = pc.MessageSpace([b"a", b"b"], [Fraction(1, 2), Fraction(1, 2)])
        code = pc.build_huffman(sp)
        verify.exact_secrecy_oracle(sp, code)
        verify.key_discipline_equivalence(sp, code)
        verify.bound_report(sp, code)
        # one message end to end: each end hashes the codebook once
        rand = pc.SeededRandomSource(1)
        alice, bob = (keystore.KeyPool(pc.BitString(5, 8), pool_id="p") for _ in range(2))
        frame = cipher.write_frame(cipher.encrypt(b"a", code, alice, rand), code, rand)
        assert cipher.decrypt(cipher.read_frame(frame, code), code, bob) == b"a"
    finally:
        tracer.uninstall()

    for owner, attr, raw in originals:
        assert owner.__dict__[attr] is raw, attr
    # the oracles encode through verify's binding, and the bound report
    # takes its average length from cipher.key_cost
    parent_of = {i: s[0] for i, s in enumerate(tracer.spans)}
    callers = {(parent_of.get(parent), name) for name, _, _, parent in tracer.spans}
    assert ("verify.exact_secrecy_oracle", "codec.encode") in callers
    assert ("verify.key_discipline_equivalence", "codec.encode") in callers
    assert ("verify.bound_report", "cipher.key_cost") in callers
    hashes = [parent_of.get(parent) for name, _, _, parent in tracer.spans
              if name == "cipher.code_fingerprint"]
    assert sorted(hashes) == ["cipher.read_frame", "cipher.write_frame"]


def test_the_cli_session_calls_run_as_the_benchmark_expects(tmp_path, monkeypatch, capsys):
    # the argv and exit codes of cli_session's session_calls in bench/workloads.py,
    # run in-process, so an option-table change that drops something the
    # benchmark passes fails here too
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.chdir(tmp_path)
    import workloads

    counts = workloads.zipf_counts(workloads.CLI_ZIPF_L)
    space = workloads.space_from_counts(counts)
    (tmp_path / "space.txt").write_text(
        "".join(f"{m.hex()} {c}/{sum(counts)}\n" for m, c in zip(space.messages, counts)),
        encoding="utf-8")
    message = space.messages[3]
    (tmp_path / "msg").write_bytes(message)
    calls = (
        (["keygen", str(workloads.CLI_POOL_BITS), "--out", "alice.pool",
          "--rng", "seeded:1", "--insecure-test"], 0),
        (["build-code", "--space", "space.txt", "--out", "codebook"], 0),
        (["encrypt", "--code", "codebook", "--key", "alice.pool",
          "--in", "msg", "--out", "frame"], 0),
        (["decrypt", "--code", "codebook", "--key", "bob.pool",
          "--in", "frame", "--out", "msg.out"], 0),
        (["audit", "--key", "alice.pool"], 0),
        (["audit", "--key", "bob.pool"], 0),
        (["report", "--space", "space.txt", "--code", "codebook"], 0),
        (["verify", "--space", "space.txt", "--code", "codebook", "--naive-leak-demo"], 3),
    )
    cursors = []
    for argv, expect in calls:
        assert cli.main(argv) == expect, capsys.readouterr().err
        if argv[0] == "keygen":
            shutil.copyfile("alice.pool", "bob.pool")
        elif argv[0] == "audit":
            cursors += re.findall(r"^cursor\s+(\d+)$", capsys.readouterr().out, re.M)
    assert (tmp_path / "msg.out").read_bytes() == message
    # one-time-pad check: both ends consumed the same key range
    assert len(cursors) == 2 and cursors[0] == cursors[1] != "0"
