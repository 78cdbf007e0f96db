import io
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padcrypt as pc
from padcrypt.bits import BitString
from padcrypt.errors import EnumerationTooLarge, NotInCodebook
from padcrypt.verify import DEFAULT_MAX_L, _table

from conftest import (
    random_float_space,
    reference_entropy,
    reference_key_cost,
    reference_leak,
    tied_exact_space,
)

B = BitString.from_str


def uniform_space(L):
    return pc.MessageSpace([bytes([i]) for i in range(L)], [Fraction(1, L)] * L)


def uneven_code():
    """Lengths (1, 2, 2): the canonical leak demonstration code."""
    return pc.PrefixCode({b"\x00": B("0"), b"\x01": B("10"), b"\x02": B("11")})


# --- entropy -------------------------------------------------------------

def test_entropy_uniform_4():
    assert pc.shannon_entropy(uniform_space(4)) == pytest.approx(2.0)


def test_entropy_half_quarter_quarter():
    sp = pc.MessageSpace([b"a", b"b", b"c"],
                         [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    # independent arithmetic: 1/2*1 + 1/4*2 + 1/4*2
    assert pc.shannon_entropy(sp) == pytest.approx(0.5 * 1 + 0.25 * 2 + 0.25 * 2)


def test_entropy_point_mass():
    sp = pc.MessageSpace([b"a", b"b", b"c"],
                         [Fraction(1), Fraction(0), Fraction(0)])
    assert pc.shannon_entropy(sp) == 0.0


def test_entropy_bounds(seeded):
    from conftest import random_rational_space
    for _ in range(20):
        L = seeded.randint(2, 16)
        sp = random_rational_space(seeded, L)
        h = pc.shannon_entropy(sp)
        assert 0.0 <= h <= math.log2(L) + 1e-12


# --- exact oracle --------------------------------------------------------

def test_oracle_padded_scheme_is_perfect():
    sp = uniform_space(3)
    report = pc.exact_secrecy_oracle(sp, uneven_code())
    assert report.perfect
    assert report.max_deviation == 0
    expected = Fraction(1, 2 ** report.l)
    assert all(p == expected for p in report.marginal.values())
    for dist in report.per_message_dists.values():
        assert sum(dist.values()) == 1
        assert all(p == expected for p in dist.values())


def test_oracle_naive_scheme_leaks():
    report = pc.exact_secrecy_oracle(uniform_space(3), uneven_code(), naive=True)
    assert report.verdict == "leaky"
    # a length-1 ciphertext pins the message: P(m0 | e) = 1 != 1/3
    for e in (B("0"), B("1")):
        assert report.posterior(b"\x00", e, Fraction(1, 3)) == 1


def test_oracle_single_message_trivially_perfect():
    sp = pc.MessageSpace([b"m"], [Fraction(1)])
    report = pc.exact_secrecy_oracle(sp, pc.build_huffman(sp))
    assert report.perfect
    assert report.posterior(b"m", B("0"), Fraction(1)) == 1


def test_oracle_bayes_consistency():
    sp = pc.MessageSpace([b"\x00", b"\x01", b"\x02"],
                         [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    report = pc.exact_secrecy_oracle(sp, uneven_code())
    assert sum(report.marginal.values()) == 1
    for m, prior in zip(sp.messages, sp.probs):
        for e in report.marginal:
            assert report.posterior(m, e, prior) == prior


@st.composite
def spaces_with_codes(draw):
    """An exact space, zero weights included, and a random prefix code for
    it: a random binary tree's leaves, up to 6 bits long, some left unused."""
    leaves = ["0", "1"]
    for _ in range(draw(st.integers(0, 7))):
        i = draw(st.integers(0, len(leaves) - 1))
        if len(leaves[i]) < 6:
            leaf = leaves.pop(i)
            leaves += [leaf + "0", leaf + "1"]
    words = draw(st.permutations(leaves))[:draw(st.integers(1, len(leaves)))]
    weights = draw(st.lists(st.integers(0, 4), min_size=len(words),
                            max_size=len(words)).filter(any))
    messages = [bytes([i]) for i in range(len(words))]
    space = pc.MessageSpace(messages, [Fraction(w, sum(weights)) for w in weights])
    return space, pc.PrefixCode({m: B(w) for m, w in zip(messages, words)})


@settings(max_examples=300, deadline=None)
@given(spaces_with_codes(), st.booleans())
def test_oracle_is_perfect_exactly_when_one_table_serves_every_message(space_code, naive):
    space, code = space_code
    report = pc.exact_secrecy_oracle(space, code, naive=naive)
    tables = list(report.per_message_dists.values())
    one_table = all(table == tables[0] for table in tables)
    assert report.perfect == one_table == (report.max_deviation == 0)
    assert report.perfect or naive


def test_oracle_requires_exact_probs():
    sp = pc.MessageSpace([b"a", b"b"], [0.5, 0.5])
    with pytest.raises(ValueError):
        pc.exact_secrecy_oracle(sp, pc.PrefixCode({b"a": B("0"), b"b": B("1")}))


def test_oracle_budget():
    code = pc.PrefixCode({b"a": B("0" * 13), b"b": B("1")})
    with pytest.raises(EnumerationTooLarge):
        pc.exact_secrecy_oracle(uniform_space(2), code)


def test_report_text_output():
    report = pc.exact_secrecy_oracle(uniform_space(2),
                                     pc.PrefixCode({b"\x00": B("0"), b"\x01": B("1")}))
    buf = io.StringIO()
    report.write_text(buf)
    text = buf.getvalue()
    assert "verdict perfect" in text
    assert "max_deviation 0/1" in text
    assert "1/2" in text  # rationals serialized as num/den


def test_report_text_golden_naive_zero_probability():
    # Naive (1, 2, 2) code, P = (1, 0, 0), l = 2.  Worked by hand:
    #   m0 "0":  keys 0, 1 give e = 0, 1, each 1/2
    #   m1 "10": keys 00..11 give e = 10, 11, 00, 01, each 1/4; m2 "11" alike
    #   P(e) = 1 * P(e|m0): 1/2 for e = 0, 1; the four 2-bit ciphertexts come
    #   only from zero-probability messages, so their rows stay as 0/1
    #   max |P(e|m) - P(e)| = |P(0|m1) - P(0)| = 1/2, so the verdict is leaky
    # Rows are sorted as strings: 0 < 00 < 01 < 1 < 10 < 11.
    expected = (
        "l 2\n"
        "verdict leaky\n"
        "max_deviation 1/2\n"
        "table marginal\n"
        "  0 1/2\n"
        "  00 0/1\n"
        "  01 0/1\n"
        "  1 1/2\n"
        "  10 0/1\n"
        "  11 0/1\n"
        "table conditional 00\n"
        "  0 1/2\n"
        "  1 1/2\n"
        "table conditional 01\n"
        "  00 1/4\n"
        "  01 1/4\n"
        "  10 1/4\n"
        "  11 1/4\n"
        "table conditional 02\n"
        "  00 1/4\n"
        "  01 1/4\n"
        "  10 1/4\n"
        "  11 1/4\n"
    )
    sp = pc.MessageSpace([b"\x00", b"\x01", b"\x02"],
                         [Fraction(1), Fraction(0), Fraction(0)])
    buf = io.StringIO()
    pc.exact_secrecy_oracle(sp, uneven_code(), naive=True).write_text(buf)
    assert buf.getvalue() == expected


def test_table_matches_every_key_and_pad():
    """The enumeration kernel against a tally of x ^ key || pad, built with
    BitString over every (key, pad) pair."""
    for s in range(5):
        for x in (BitString(v, s) for v in range(2 ** s)):
            for l in range(max(s, 1), 6):
                for key_bits, naive in itertools.product({s, l}, (False, True)):
                    npad = 0 if naive else l - s
                    tally = Counter(
                        x.xor(BitString(k, key_bits).prefix(s)) + BitString(r, npad)
                        for k in range(2 ** key_bits) for r in range(2 ** npad))
                    pairs = 2 ** (key_bits + npad)
                    expected = {}
                    for e, n in tally.items():
                        p, rem = divmod(n * 2 ** l, pairs)
                        assert rem == 0
                        expected[len(e), e.value] = p
                    table = _table(x, l, key_bits, naive)
                    assert table == expected
                    assert sum(table.values()) == 2 ** l


# --- key discipline equivalence ------------------------------------------

def test_discipline_equivalence_uneven_code():
    assert pc.key_discipline_equivalence(uniform_space(3), uneven_code())


def test_discipline_equivalence_when_s_equals_l():
    code = pc.PrefixCode({b"\x00": B("00"), b"\x01": B("01"), b"\x02": B("10")})
    assert pc.key_discipline_equivalence(uniform_space(3), code)


def test_exact_checks_at_the_default_budget():
    # P = 2^-1, ..., 2^-12, 2^-12: Huffman lengths 1..12, 12, so l = 12
    L = 13
    probs = [Fraction(1, 2 ** (i + 1)) for i in range(L - 1)] + [Fraction(1, 2 ** (L - 1))]
    sp = pc.MessageSpace([bytes([i]) for i in range(L)], probs)
    code = pc.build_huffman(sp)
    assert code.max_len == DEFAULT_MAX_L
    assert pc.exact_secrecy_oracle(sp, code).perfect
    assert pc.exact_secrecy_oracle(sp, code, naive=True).verdict == "leaky"
    assert pc.key_discipline_equivalence(sp, code)


def test_discipline_equivalence_budget():
    code = pc.PrefixCode({b"a": B("0" * 13), b"b": B("1")})
    with pytest.raises(EnumerationTooLarge):
        pc.key_discipline_equivalence(uniform_space(2), code)


# --- empirical uniformity ------------------------------------------------

def test_empirical_uniformity_budget():
    code = pc.PrefixCode({b"\x00": B("0"), b"\x01": B("1" * 25)})
    # the bare RandomSource raises NotImplementedError on any draw, so the
    # budget must refuse the code before the first trial
    with pytest.raises(EnumerationTooLarge, match="l=25 exceeds the budget of 24"):
        pc.empirical_uniformity(uniform_space(2), code, pc.RandomSource(), 1)


def small_l_code():
    # l = 4 keeps the chi-square test cheap in the unit suite
    return pc.PrefixCode({b"\x00": B("0"), b"\x01": B("10"),
                          b"\x02": B("110"), b"\x03": B("1111")})


def test_empirical_uniformity_passes_for_correct_cipher():
    sp = uniform_space(4)
    rep = pc.empirical_uniformity(sp, small_l_code(),
                                  pc.SeededRandomSource(2024), 20_000)
    assert rep.p_value > 0.01
    assert not rep.insufficient_data
    assert sum(rep.counts) == 20_000


def test_empirical_uniformity_fixed_message():
    sp = uniform_space(4)
    rep = pc.empirical_uniformity(sp, small_l_code(),
                                  pc.SeededRandomSource(7), 20_000,
                                  fixed_message=b"\x00")
    assert rep.p_value > 0.01


def test_empirical_uniformity_detects_biased_pad():
    class ZeroPad(pc.RandomSource):
        def bits(self, n):
            return BitString(0, n)

    sp = uniform_space(4)
    rep = pc.empirical_uniformity(sp, small_l_code(),
                                  pc.SeededRandomSource(7), 20_000,
                                  fixed_message=b"\x00", pad_rng=ZeroPad())
    assert rep.p_value < 1e-6


def test_empirical_uniformity_zero_trials():
    rep = pc.empirical_uniformity(uniform_space(4), small_l_code(),
                                  pc.SeededRandomSource(1), 0)
    assert rep.insufficient_data
    assert rep.p_value is None


def test_empirical_uniformity_rejects_negative_trials():
    with pytest.raises(ValueError):
        pc.empirical_uniformity(uniform_space(4), small_l_code(),
                                pc.SeededRandomSource(1), -5)


def test_empirical_uniformity_flags_small_samples():
    rep = pc.empirical_uniformity(uniform_space(4), small_l_code(),
                                  pc.SeededRandomSource(1), 100)
    assert rep.insufficient_data


def test_empirical_uniformity_sampling_matches_linear_scan():
    # ten float tenths accumulate to 1 - 2**-53, so the edge draw below sits
    # exactly on the last bound and must fall back to the last message
    space = pc.MessageSpace([bytes([i]) for i in range(10)], [0.1] * 10)
    code = pc.build_huffman(space)
    edge = math.nextafter(1.0, 0.0)
    assert edge >= sum([0.1] * 10)

    class EdgeDraws(pc.SeededRandomSource):
        def __init__(self, seed):
            super().__init__(seed)
            self.draws = 0

        def uniform(self):
            self.draws += 1
            return edge if self.draws % 7 == 0 else super().uniform()

    def linear_scan_counts(rng, trials):
        cum, acc = [], 0.0
        for m, p in zip(space.messages, space.probs):
            acc += float(p)
            cum.append((acc, m))
        l = code.max_len
        counts = [0] * (2 ** l)
        for _ in range(trials):
            u = rng.uniform()
            m = cum[-1][1]
            for bound, msg in cum:
                if u < bound:
                    m = msg
                    break
            x = pc.encode(code, m)
            e = x.xor(rng.bits(len(x))) + rng.bits(l - len(x))
            counts[e.value] += 1
        return counts

    rep = pc.empirical_uniformity(space, code, EdgeDraws(31), 5_000)
    assert rep.counts == linear_scan_counts(EdgeDraws(31), 5_000)


def test_chi_square_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    from padcrypt.verify import _chi2_sf, _chisquare

    def assert_tail_close(p, ref, rtol):
        if ref >= 1e-300:
            assert abs(p - ref) <= rtol * ref
        else:  # scipy underflows to 0
            assert p <= 1e-290

    # count vectors at each (l, trials) of the uniformity tests and of the
    # audit benchmark (l = 9, 51 200 trials), then the all-zero pad's two-bin
    # counts at l = 4 and l = 8, then a statistic of exactly 0
    rng = random.Random(6)

    def draw(l, trials, bins):
        counts = [0] * 2 ** l
        for e in rng.choices(bins, k=trials):
            counts[e] += 1
        return counts

    vectors = [draw(l, trials, range(2 ** l))
               for l, trials in ((4, 100), (4, 20_000), (8, 100_000), (9, 51_200))]
    vectors += [draw(l, trials, (0, 2 ** (l - 1))) for l, trials in ((4, 20_000), (8, 100_000))]
    vectors.append([7] * 16)
    for counts in vectors:
        n, k = sum(counts), len(counts)
        exact = sum(Fraction((k * c - n) ** 2, k * n) for c in counts)
        stat, p = _chisquare(counts)
        ref = stats.chisquare(counts)
        assert stat == float(exact)
        assert abs(stat - ref.statistic) <= 1e-12 * ref.statistic
        assert_tail_close(p, ref.pvalue, 1e-8)

    # the tail alone, from the lower tail to underflow; lgamma's rounding
    # grows with df, hence the looser bound at the l = 24 ceiling
    for df in (1, 2, 3, 15, 255, 511, 4095, 65535, 2 ** 20 - 1, 2 ** 24 - 1):
        rtol = 1e-7 if df == 2 ** 24 - 1 else 1e-8
        assert _chi2_sf(0.0, df) == stats.chi2.sf(0.0, df) == 1.0
        for z in (-3, -1, 0, 1, 3, 10, 30, 100):
            x = max(1e-3, df + z * math.sqrt(2 * df))
            assert_tail_close(_chi2_sf(x, df), stats.chi2.sf(x, df), rtol)
        assert_tail_close(_chi2_sf(1e3 * df, df), stats.chi2.sf(1e3 * df, df), rtol)


def test_empirical_uniformity_runs_without_scipy():
    src = str(Path(pc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # a None entry in sys.modules makes any import of scipy or numpy fail
    probe = ("import math, sys; sys.modules['scipy'] = sys.modules['numpy'] = None; "
             "import padcrypt as pc; "
             "sp = pc.MessageSpace([b'a', b'b'], [0.5, 0.5]); "
             "rep = pc.empirical_uniformity(sp, pc.build_huffman(sp), pc.SeededRandomSource(1), 400); "
             "print(math.isfinite(rep.p_value))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


# --- leak mutual information ---------------------------------------------

def test_leak_uneven_lengths():
    rep = pc.leak_mutual_information(uniform_space(3), uneven_code())
    # binary entropy of the (1/3, 2/3) length split
    expected = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
    assert rep.mutual_information == pytest.approx(expected, abs=1e-12)


def test_leak_constant_lengths_is_zero():
    code = pc.PrefixCode({b"\x00": B("00"), b"\x01": B("01"), b"\x02": B("10")})
    rep = pc.leak_mutual_information(uniform_space(3), code)
    assert rep.mutual_information == 0.0


def test_leak_padded_observable_is_zero():
    # ten float tenths sum to 1 - 2**-53, yet the lone length is a point mass
    tenths = pc.MessageSpace([bytes([i]) for i in range(10)], [0.1] * 10)
    for space, code in ((uniform_space(3), uneven_code()),
                        (tenths, pc.build_huffman(tenths))):
        rep = pc.leak_mutual_information(space, code, observable="ciphertext-length")
        assert rep.mutual_information == 0.0
        assert rep.observable == "ciphertext-length"


def test_leak_nonnegative(seeded):
    from conftest import random_rational_space
    for _ in range(20):
        sp = random_rational_space(seeded, seeded.randint(2, 8))
        rep = pc.leak_mutual_information(sp, pc.build_huffman(sp))
        assert rep.mutual_information >= 0.0


# --- bound report --------------------------------------------------------

def test_bound_report_uniform_4():
    sp = uniform_space(4)
    rep = pc.bound_report(sp, pc.build_huffman(sp), "huffman")
    assert rep.average_length == pytest.approx(2.0)
    assert rep.entropy == pytest.approx(2.0)
    assert rep.ok


def test_bound_report_tight_case():
    sp = pc.MessageSpace([b"a", b"b", b"c"],
                         [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    rep = pc.bound_report(sp, pc.build_huffman(sp), "huffman")
    assert rep.average_length == pytest.approx(1.5)
    assert rep.entropy == pytest.approx(1.5)
    assert rep.ok


def test_bound_report_trimmed_uniform_4():
    sp = uniform_space(4)
    trimmed = pc.trim_code(pc.build_huffman(sp), sp)
    rep = pc.bound_report(sp, trimmed, "trimmed")
    assert rep.max_length <= 3
    assert rep.ok


def test_bound_report_flags_violation():
    sp = uniform_space(4)
    wasteful = pc.PrefixCode({m: B("1" * i + "0" + "0" * 3)
                              for i, m in enumerate(sp.messages)})
    rep = pc.bound_report(sp, wasteful, "huffman")
    assert not rep.ok


def test_bound_report_uncovered_space():
    sp = pc.MessageSpace([b"zz"], [Fraction(1)])
    with pytest.raises(NotInCodebook):
        pc.bound_report(sp, uneven_code())


# --- integer weights against the Fraction references ---------------------

def block_space(n):
    """Blocks of n letters from the (9/10, 1/10) source, as exact products."""
    blocks = list(itertools.product((0, 1), repeat=n))
    return pc.MessageSpace([bytes(t) for t in blocks],
                           [Fraction(9 ** (n - sum(t)), 10 ** n) for t in blocks])


def mixed_space(rng, L):
    """Some probabilities of a float space made exact Fractions: the total
    stays a float within the tolerance."""
    sp = random_float_space(rng, L)
    probs = [Fraction(p) if rng.random() < 0.5 else p for p in sp.probs]
    probs[0] = float(probs[0])
    return pc.MessageSpace(sp.messages, probs)


def test_weights_match_fraction_references(seeded):
    spaces = [tied_exact_space(seeded, L) for L in range(1, 41) for _ in range(2)]
    spaces += [block_space(8), uniform_space(1)]
    spaces += [random_float_space(seeded, seeded.randint(1, 40)) for _ in range(30)]
    spaces += [mixed_space(seeded, seeded.randint(1, 40)) for _ in range(30)]
    spaces.append(pc.MessageSpace([b"a", b"b", b"c"], [Fraction(1, 2), 0.25, 0.25]))
    spaces.append(pc.MessageSpace([bytes([i]) for i in range(10)], [0.1] * 10))
    assert sum(sp.is_exact for sp in spaces) == 40 * 2 + 2
    for sp in spaces:
        huffman = pc.build_huffman(sp)
        codes = [huffman, pc.trim_code(huffman, sp)] if len(sp) > 1 else [huffman]
        for code in codes:
            cost, ref = pc.key_cost(sp, code), reference_key_cost(sp, code)
            assert cost == ref and type(cost) is type(ref)
            for obs in ("naive-ciphertext-length", "ciphertext-length"):
                leak = pc.leak_mutual_information(sp, code, observable=obs)
                assert leak.mutual_information.hex() == reference_leak(sp, code, obs).hex()
        assert pc.shannon_entropy(sp).hex() == reference_entropy(sp.probs).hex()
