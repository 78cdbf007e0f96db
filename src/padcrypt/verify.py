"""Evidence engine: exact secrecy oracle, statistical tests, bound reports.

The secrecy oracle enumerates every key and every pad of each message into
an exact integer table of P(e|m) 2^l and compares the tables as integers,
with zero tolerance; so does the key-discipline check.  Fractions appear
only in the reported tables, and floats only in human-readable summaries
and in the large-scale chi-square complement, whose statistic comes exactly
from integer counts and whose p-value comes from a standard-library
incomplete gamma function.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from collections import Counter
from fractions import Fraction

from . import cipher
from ._record import Record
from .bits import BitString, render
from .codec import MessageSpace, PrefixCode, encode
from .errors import EnumerationTooLarge

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Collection

    from .rng import RandomSource

MAX_L = 12  # the exact checks enumerate 2^l ciphertexts per message
_CHI_SQUARE_MAX_L = 24  # the chi-square test keeps one count per ciphertext
CHI_SQUARE_MIN_PER_BIN = 50
_PART = 10 ** 640  # 640 digits: the least limit on int-to-str conversion there is


def _within_budget(code: PrefixCode, cap: int) -> int:
    """The code's l, once it is at most cap."""
    l = code.max_len
    if l > cap:
        raise EnumerationTooLarge(f"l={l} exceeds the budget of {cap}")
    return l


def _entropy(weights: Collection[int | Fraction | float]) -> float:
    """-sum p log2 p, each p a weight over the sum of the weights (for integer
    weights, one correctly rounded division) and skipped when it is 0.0 as a
    float, so that a point mass gives exactly +0.0 even when its float masses
    sum to a few ulps below 1 (and max turns its -0.0 into +0.0)."""
    total = sum(weights)
    return max(0.0, -sum(p * math.log2(p) for p in (float(w / total) for w in weights) if p))


def shannon_entropy(space: MessageSpace) -> float:
    """h(p) = -sum p log2 p, with zero-probability terms contributing 0."""
    return _entropy(space._weights)


# --- exact oracle --------------------------------------------------------

class SecrecyReport(Record):
    """The oracle's verdict and its exact tables: P(e|m) for each message and
    the marginal P(e).  Messages with equal conditional tables share one dict
    in per_message_dists."""

    __slots__ = ("l", "per_message_dists", "marginal", "max_deviation", "verdict")
    l: int
    per_message_dists: dict[bytes, dict[BitString, Fraction]]
    marginal: dict[BitString, Fraction]
    max_deviation: Fraction
    verdict: str  # "perfect" | "leaky"

    @property
    def perfect(self) -> bool:
        return self.verdict == "perfect"

    def posterior(self, m: bytes, e: BitString, prior: Fraction) -> Fraction:
        """P(m|e) via Bayes from the stored tables."""
        p_e = self.marginal.get(e, Fraction(0))
        if p_e == 0:
            raise ValueError(f"ciphertext {e} has zero probability")
        return prior * self.per_message_dists[m].get(e, Fraction(0)) / p_e

    def text(self) -> str:
        """The report file: its header, then one table per distribution."""
        lines = [f"l {self.l}", f"verdict {self.verdict}",
                 f"max_deviation {fraction_text(self.max_deviation)}"]
        for name, dist in [("marginal", self.marginal), *(
                (f"conditional {m.hex() or '-'}", t) for m, t in self.per_message_dists.items())]:
            lines.append(f"table {name}")
            # the 0/1 texts are distinct, so the sort never compares two ps
            lines += (f"  {e or '-'} {fraction_text(p)}"
                      for e, p in sorted(zip(render(dist), dist.values())))
        return "".join(line + "\n" for line in lines)


def fraction_text(x: Fraction) -> str:
    """`numerator/denominator` of x >= 0 under any limit on int-to-str
    conversion, each number converted in parts of at most 640 digits.  A
    report's numbers stay near 10,000 digits, since _q is capped at 2^15
    bits, so a number takes a few parts."""
    texts = []
    for n in (x.numerator, x.denominator):
        parts = []
        while n >= _PART:
            n, low = divmod(n, _PART)
            parts.append(str(low).zfill(640))
        texts.append(str(n) + "".join(reversed(parts)))
    return "/".join(texts)


def _table(x: BitString, l: int, key_bits: int, naive: bool) -> dict[tuple[int, int], int]:
    """P(e) 2^l for each ciphertext e, keyed by (length, value), over every
    key_bits-bit key, whose first |x| bits are XORed onto x, and every pad
    (none when naive).

    The shift is exact: the keys that share a first-|x|-bit prefix all give
    the same y, so each y's count is a multiple of 2^(key_bits - |x|), and
    l - npad >= |x|.
    """
    s = len(x)
    npad = 0 if naive else l - s
    ys = Counter(x.value ^ (k >> (key_bits - s)) for k in range(2 ** key_bits))
    probs = {y: n << (l - npad) >> key_bits for y, n in ys.items()}
    return {(s + npad, y << npad | r): p for y, p in probs.items() for r in range(2 ** npad)}


def exact_secrecy_oracle(space: MessageSpace, code: PrefixCode, *,
                         naive: bool = False) -> SecrecyReport:
    """Exhaustively verify perfect secrecy with exact integer tables.

    With naive=True the random padding is omitted (ciphertext is the XORed
    codeword alone), reproducing the length side channel.
    """
    if not space.is_exact:
        raise ValueError("oracle requires exact rational probabilities")
    l = _within_budget(code, MAX_L)

    # P(e|m) = table[e] / 2^l for m's table and P(e) = joint[e] / denom,
    # denom = q 2^l, with P(m) = w / q in the space's integer form.  Messages
    # with equal tables share one, and their summed weight; the scheme is
    # perfect exactly when one table serves every message
    q = space._q
    denom = q * 2 ** l
    tables: list[dict[tuple[int, int], int]] = []
    weights: list[int] = []
    which = {}  # message -> position of its table
    for m, w in zip(space.messages, space._weights):
        x = encode(code, m)
        table = _table(x, l, len(x), naive)
        try:
            i = tables.index(table)
        except ValueError:
            i = len(tables)
            tables.append(table)
            weights.append(0)
        weights[i] += w
        which[m] = i

    joint: Counter = Counter()
    for table, w in zip(tables, weights):
        for e, c in table.items():
            joint[e] += w * c
    dev = max(abs(q * table.get(e, 0) - n) for table in tables for e, n in joint.items())
    # one BitString per ciphertext (every key of a table is a key of joint) and
    # one Fraction per distinct numerator over denom, shared by all tables
    bits = {(n, v): BitString(v, n) for n, v in joint}
    fracs = {n: Fraction(n, denom) for n in
             {q * c for table in tables for c in table.values()} | set(joint.values())}
    dists = [{bits[e]: fracs[q * c] for e, c in table.items()} for table in tables]
    per_message = {m: dists[i] for m, i in which.items()}
    marginal = {bits[e]: fracs[n] for e, n in joint.items()}
    verdict = "perfect" if len(tables) == 1 else "leaky"
    return SecrecyReport(l, per_message, marginal, Fraction(dev, denom), verdict)


# --- key discipline equivalence ------------------------------------------

def key_discipline_equivalence(space: MessageSpace, code: PrefixCode) -> bool:
    """Check that drawing a fresh l-bit key per message and drawing only the
    s bits actually XORed induce identical ciphertext distributions, message
    by message, as exact integer P(e|m) 2^l tables.

    Both give every l-bit ciphertext 2^-l for any code with |x| <= l, so
    this checks the kernel's key_bits path, not the code."""
    l = _within_budget(code, MAX_L)
    for m in space.messages:
        x = encode(code, m)
        # discipline A draws s key bits from a pool; B draws a full l-bit key
        # and uses only its first s bits; both then pad with l-s bits
        if _table(x, l, len(x), False) != _table(x, l, l, False):
            return False
    return True


# --- empirical uniformity ------------------------------------------------

def _chi2_sf(stat: float, df: int) -> float:
    """P(X >= stat) for X chi-square with df degrees of freedom: the
    regularised upper incomplete gamma Q(df/2, stat/2), summed as a series
    below a + 1 and as a modified-Lentz continued fraction above it
    (Numerical Recipes, section 6.2)."""
    a, x = df / 2, stat / 2
    if x <= 0:
        return 1.0
    eps, tiny = sys.float_info.epsilon, sys.float_info.min
    log_front = a * math.log(x) - x - math.lgamma(a)
    # the series' n-th term is below eps times its sum once n(n-1) / 2(a+n)
    # exceeds 52 ln 2, which 9 sqrt(a) + 100 terms ensure; the fraction took
    # fewer steps than that at every df checked up to 2^26
    steps = range(1, int(9 * math.sqrt(a)) + 100)
    if x < a + 1:
        term = total = 1 / a
        for n in steps:
            term *= x / (a + n)
            total += term
            if term < total * eps:
                break
        return 1.0 - total * math.exp(log_front)
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    h = d
    for n in steps:
        an = -n * (n - a)
        b += 2
        d = an * d + b
        d = 1 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        c = c if abs(c) >= tiny else tiny
        delta = c * d
        h *= delta
        if abs(delta - 1) < eps:
            break
    return math.exp(log_front) * h


def _chisquare(counts: list[int]) -> tuple[float, float]:
    """Pearson's statistic of counts against the uniform distribution and its
    p-value.  The statistic is (k sum c^2 - n^2) / n over k bins and n
    trials, an int/int division, so it is the exact value correctly rounded."""
    n, k = sum(counts), len(counts)
    stat = (k * sum(c * c for c in counts) - n * n) / n
    return stat, _chi2_sf(stat, k - 1)


class UniformityReport(Record):
    __slots__ = ("l", "trials", "statistic", "p_value", "insufficient_data", "counts")
    _unshown = ("counts",)  # one count per ciphertext, 2^l of them
    l: int
    trials: int
    statistic: float | None
    p_value: float | None
    insufficient_data: bool
    counts: list[int]


def empirical_uniformity(space: MessageSpace, code: PrefixCode,
                         rng: RandomSource, trials: int) -> UniformityReport:
    """Chi-square goodness of fit of simulated ciphertexts against uniform.

    Each trial draws a message from space, XORs its codeword with fresh key
    bits from rng and pads it with cipher's own fill, also from rng.  The
    conditional test of one message m is the test on the one-message space
    MessageSpace([m], [Fraction(1)]).
    """
    if trials < 0:
        raise ValueError("negative trial count")
    l = _within_budget(code, _CHI_SQUARE_MAX_L)

    # w / q is float(Fraction(w, q)), one correctly rounded quotient; float()
    # turns a Fraction weight of a mixed space (q is 0) into its float
    q = space._q or 1
    bounds = list(itertools.accumulate(float(w / q) for w in space._weights))
    last = len(bounds) - 1

    counts = [0] * (2 ** l)
    for _ in range(trials):
        # first bound above u in [0, 1); dust past the last bound picks the last message
        i = bisect.bisect_right(bounds, rng.bits(53).value / (1 << 53))
        x = encode(code, space.messages[min(i, last)])
        counts[cipher._fill(x.xor(rng.bits(len(x))), l, rng).value] += 1

    insufficient = trials < CHI_SQUARE_MIN_PER_BIN * 2 ** l
    if trials == 0:
        return UniformityReport(l, 0, None, None, True, counts)
    stat, p = _chisquare(counts)
    return UniformityReport(l, trials, stat, p, insufficient, counts)


# --- length leak ---------------------------------------------------------

class LeakReport(Record):
    __slots__ = ("mutual_information", "observable")
    mutual_information: float
    observable: str


def leak_mutual_information(space: MessageSpace, code: PrefixCode, *,
                            observable: str = "naive-ciphertext-length") -> LeakReport:
    """I(M; observable), which is H(observable) because the observable is a
    function of the message.

    The naive observable is the unpadded ciphertext length |codeword(m)|;
    "ciphertext-length" is the padded scheme's constant l, giving I = 0.
    """
    if observable == "ciphertext-length":
        obs = [code.max_len] * len(space)
    elif observable == "naive-ciphertext-length":
        obs = [len(encode(code, m)) for m in space.messages]
    else:
        raise ValueError(f"unknown observable {observable!r}")
    dist: dict[int, int | Fraction | float] = {}
    for o, w in zip(obs, space._weights):
        dist[o] = dist.get(o, 0) + w
    return LeakReport(_entropy(dist.values()), observable)


# --- bound report --------------------------------------------------------

class BoundReport(Record):
    __slots__ = ("entropy", "average_length", "max_length", "length_cap", "kind",
                 "violations")
    entropy: float
    average_length: float
    max_length: int
    length_cap: int  # ceil(log2 L) + 1
    kind: str  # "huffman" | "trimmed" | "generic"
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def bound_report(space: MessageSpace, code: PrefixCode,
                 kind: str = "huffman") -> BoundReport:
    """Check average/max length against the entropy bounds for `kind`."""
    if kind not in ("huffman", "trimmed", "generic"):
        raise ValueError(f"unknown code kind {kind!r}")
    avg = float(cipher.key_cost(space, code))
    h = shannon_entropy(space)
    cap = (len(space) - 1).bit_length() + 1

    violations: list[str] = []
    if kind == "huffman":
        if not h - 1e-9 <= avg < h + 1 + 1e-9:
            violations.append(
                f"average length {avg:.6f} outside [h, h+1) = [{h:.6f}, {h + 1:.6f})")
    elif kind == "trimmed":
        if avg > h + 2 + 1e-9:
            violations.append(f"average length {avg:.6f} exceeds h+2 = {h + 2:.6f}")
        if code.max_len > cap:
            violations.append(f"max length {code.max_len} exceeds cap {cap}")
    return BoundReport(h, avg, code.max_len, cap, kind, violations)
