"""The benchmark's tracer wraps padcrypt names from outside the package; a
refactor that drops or rebinds one of them must fail here, not only in the
benchmark's own smoke run."""

from fractions import Fraction
from pathlib import Path

import padcrypt as pc
from padcrypt import bits, cipher, codec, keystore, rng, verify

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
