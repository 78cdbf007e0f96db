"""Prefix-free codes over finite message spaces.

Builds Huffman codes from a known distribution, the trimmed transform that
caps codeword length at ceil(log2 L) + 1, and an adapter that turns any
deterministic external compressor into a prefix-free code by gamma-framing
its outputs.  Parses both input files, space files and codebooks, and
writes codebooks.
"""

from __future__ import annotations

from ._record import Record
from .bits import BitString, elias_gamma
from .errors import (
    CodebookFormatError,
    DegenerateSpace,
    EmptyCompressorOutput,
    InvalidCode,
    InvalidSpace,
    NondeterministicCompressor,
    NotACodeword,
    NotInCodebook,
    PadcryptError,
    cut,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Callable, Sequence

PROB_SUM_TOL = 1e-9
MAX_Q_BITS = 2 ** 15  # cap on an exact space's _q, which each of its weights can reach
MAX_DIGITS = 4300  # longest number a space file holds: sys.int_info.default_max_str_digits


class MessageSpace(Record):
    """Finite set of distinct messages with a probability distribution.

    _weights is the one form that code computes with.  An exact space (every
    probability a Fraction) keeps its integer form: _q, the least common
    denominator, and _weights, each probability times _q.  A float or mixed
    space has _q = 0 and its probabilities themselves as _weights.
    Validation, Huffman merging, key cost, entropy, the length leak and the
    exact oracle all read _weights.
    """

    __slots__ = ("messages", "probs", "_weights", "_q")
    messages: tuple[bytes, ...]
    probs: tuple[Fraction | float, ...]
    _weights: tuple[int, ...] | tuple[Fraction | float, ...]
    _q: int

    def __init__(self, messages: Sequence[bytes], probs: Sequence[Fraction | float]):
        # loaded here, not at import: `encrypt` and `decrypt` build no space
        import math
        from fractions import Fraction

        try:
            messages = tuple(bytes(memoryview(m)) for m in messages)
        except TypeError:
            raise InvalidSpace("a message is not a bytes-like object") from None
        probs = tuple(probs)
        if not messages:
            raise InvalidSpace("message space is empty")
        if len(set(messages)) != len(messages):
            raise InvalidSpace("messages are not pairwise distinct")
        if len(probs) != len(messages):
            raise InvalidSpace("probs and messages differ in length")
        q = 0
        if all(isinstance(p, Fraction) for p in probs):
            q = 1
            for d in {p.denominator for p in probs}:
                q = math.lcm(q, d)
                if q.bit_length() > MAX_Q_BITS:
                    raise InvalidSpace(
                        f"common denominator of the probabilities passes {MAX_Q_BITS} bits")
        # an exact weight has its numerator's sign and can reach MAX_Q_BITS
        # bits: all L are kept only once their sum, taken one at a time, is 1
        def scaled():
            return (p.numerator * (q // p.denominator) for p in probs)

        if any((p.numerator if q else p) < 0 for p in probs):
            raise InvalidSpace("negative probability")
        total = sum(scaled() if q else probs)
        # a sum with no float in it is exact; q is 0 for ints, or ints and Fractions
        if isinstance(total, (int, Fraction)):
            if total != (q or 1):
                raise InvalidSpace(
                    f"probabilities sum to {_shown(Fraction(total, q or 1))}, expected 1")
        elif not abs(total - 1.0) <= PROB_SUM_TOL:  # a NaN total fails too
            raise InvalidSpace(f"probabilities sum to {_shown(total)}, expected 1")
        object.__setattr__(self, "messages", messages)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_weights", tuple(scaled()) if q else probs)
        object.__setattr__(self, "_q", q)

    def __len__(self) -> int:
        return len(self.messages)

    @property
    def is_exact(self) -> bool:
        return self._q > 0


def _shown(total: Fraction | float) -> str:
    """A sum of probabilities in at most 80 characters: exact when that fits,
    as `5/6`, `7/6` or `1.1`, else rounded, since str() of a number past
    4,300 digits raises ValueError and a shorter one can run to kilobytes."""
    if (isinstance(total, float)
            or total.numerator.bit_length() + total.denominator.bit_length() <= 256):
        return str(total)
    try:
        shown = f"{total.numerator / total.denominator:.6g}"
    except OverflowError:
        return "more than 1e308"
    if shown == "1":  # the total is not 1: say which side of it
        return "just over 1" if total > 1 else "just under 1"
    return f"about {shown}"


class PrefixCode(Record):
    """Injective prefix-free codebook message -> BitString."""

    # max_len is the public ciphertext length l; _table maps (length, value)
    # to the message, the one lookup behind validation and decoding, and
    # _lengths holds the code's distinct codeword lengths in ascending order
    __slots__ = ("codebook", "max_len", "_table", "_lengths")
    codebook: dict[bytes, BitString]
    max_len: int
    _table: dict[tuple[int, int], bytes]
    _lengths: tuple[int, ...]

    def __init__(self, codebook: dict[bytes, BitString]) -> None:
        object.__setattr__(self, "codebook", codebook)
        if not codebook:
            raise InvalidCode("empty codebook")
        table = {(w.length, w.value): m for m, w in codebook.items()}
        if len(table) != len(codebook):
            raise InvalidCode("codebook is not injective")
        # as sorted 0/1 strings, a word is a prefix of some other word exactly
        # when it is a prefix of the word right after it
        words = sorted(map(str, codebook.values()))
        if any(map(str.startswith, words[1:], words)):
            raise InvalidCode("codeword set is not prefix-free")
        lengths = tuple(sorted({n for n, _ in table}))
        object.__setattr__(self, "max_len", lengths[-1])
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_lengths", lengths)


# --- Huffman -------------------------------------------------------------

def build_huffman(space: MessageSpace) -> PrefixCode:
    """Optimal prefix-free code for a known distribution, in canonical form.

    Deterministic: heap ties break on (weight, smallest message index) and
    codewords are assigned canonically, shortest first, then index order.
    An exact space merges its integer weights, which order and tie exactly
    as its probabilities do; a float space merges its float probabilities.
    """
    import heapq  # here, not at import: `encrypt` and `decrypt` build no code

    L = len(space)
    if L == 1:
        # degenerate space still needs a nonempty codeword
        return PrefixCode({space.messages[0]: BitString.from_str("0")})

    # merge queue entries: (weight, min message index, node); nodes 0..L-1
    # are the messages and node L + k is the k-th merge, so the root is the
    # last node and every parent comes after its children
    heap: list[tuple[int | float, int, int]] = [
        (w, i, i) for i, w in enumerate(space._weights)
    ]
    heapq.heapify(heap)
    parent = [0] * (2 * L - 1)
    for node in range(L, 2 * L - 1):
        wa, ia, a = heapq.heappop(heap)
        wb, ib, b = heap[0]
        parent[a] = parent[b] = node
        heapq.heapreplace(heap, (wa + wb, min(ia, ib), node))

    depth = [0] * (2 * L - 1)
    for node in range(2 * L - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    return _canonical(space.messages, depth[:L])


def _canonical(messages: Sequence[bytes], lengths: Sequence[int]) -> PrefixCode:
    """Assign codewords in lexicographic order, sorted by (length, index)."""
    order = sorted(range(len(messages)), key=lambda i: (lengths[i], i))
    codebook: dict[bytes, BitString] = {}
    code = 0
    prev = 0
    for i in order:
        code <<= lengths[i] - prev
        prev = lengths[i]
        codebook[messages[i]] = BitString(code, lengths[i])
        code += 1
    # keep message order of the space
    return PrefixCode({m: codebook[m] for m in messages})


# --- trimmed code --------------------------------------------------------

def trim_code(code: PrefixCode, space: MessageSpace) -> PrefixCode:
    """Cap codeword length at ceil(log2 L) + 1.

    Codewords of length <= ceil(log2 L) are kept behind a 0 flag; longer
    ones are replaced by a 1 flag plus the 0-based message index in exactly
    ceil(log2 L) bits.
    """
    L = len(space)
    if L < 2:
        raise DegenerateSpace("trimming needs at least 2 messages")
    if set(code.codebook) != set(space.messages):
        raise NotInCodebook("code does not cover exactly the space's messages")
    width = (L - 1).bit_length()  # ceil(log2 L)
    zero = BitString.from_str("0")
    one = BitString.from_str("1")
    codebook: dict[bytes, BitString] = {}
    for i, m in enumerate(space.messages):
        word = code.codebook[m]
        if len(word) <= width:
            codebook[m] = zero + word
        else:
            codebook[m] = one + BitString(i, width)
    return PrefixCode(codebook)


# --- external compressor adapter ----------------------------------------

def wrap_external(compress: Callable[[bytes], "bytes | BitString"], space: MessageSpace,
                  name: str) -> PrefixCode:
    """Explicit prefix-free codebook from a deterministic compressor, which
    runs twice on each message; name stands for it in error texts.

    Each output is framed as gamma(bit length) || bits, which is prefix-free
    whenever outputs differ; a compressor that gives two messages one output
    is refused.
    """
    codebook: dict[bytes, BitString] = {}
    for m in space.messages:
        out = compress(m)
        if out != compress(m):
            raise NondeterministicCompressor(
                f"{name} gave different outputs for {cut(repr(m))}")
        if not isinstance(out, BitString):
            out = BitString.from_bytes(bytes(out))
        if len(out) == 0:
            raise EmptyCompressorOutput(f"{name} produced no output for {cut(repr(m))}")
        codebook[m] = elias_gamma(len(out)) + out
    try:
        return PrefixCode(codebook)
    except InvalidCode:  # gamma framing leaves only equal outputs to refuse
        raise InvalidCode(f"{name} gave two messages the same output") from None


# --- encode / decode -----------------------------------------------------

def encode(code: PrefixCode, m: bytes) -> BitString:
    try:
        return code.codebook[bytes(memoryview(m))]
    except KeyError:
        # names no message: `encrypt` prints this, and a plaintext is no error text
        raise NotInCodebook("the message has no codeword") from None


def decode_prefix(code: PrefixCode, stream: BitString) -> tuple[bytes, int]:
    """Return the unique message whose codeword prefixes stream, plus its length."""
    size = len(stream)
    for n in code._lengths:
        if n > size:
            break
        m = code._table.get((n, stream.value >> (size - n)))
        if m is not None:
            return m, n
    # names no stream bit: in `decrypt` the stream is the codeword and pad
    raise NotACodeword("no codeword prefixes the stream")


# --- space file format ---------------------------------------------------

def load_space(text: str) -> MessageSpace:
    """Parse a space file's text: one `<message> <num/den>` pair per line.

    A message is either a JSON-quoted UTF-8 string, a hex string, or `-`
    for the empty message.  Blank lines and `#` comments are skipped.  A
    line ends at a newline only, as in a codebook, and is stripped, so CRLF
    endings load and a quoted message may hold any other line separator.
    """
    messages: list[bytes] = []
    probs: list[Fraction] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if line.startswith('"'):
                import json  # only here: hex-only space files never load it

                end = line.rindex('"')
                msg = json.loads(line[:end + 1]).encode()
                prob_token = line[end + 1:].strip()
            else:
                token, prob_token = line.split(None, 1)
                msg = b"" if token == "-" else bytes.fromhex(token)
            probs.append(_probability(prob_token.strip()))
            messages.append(msg)
        except (ValueError, ZeroDivisionError) as exc:
            raise PadcryptError(f"space file line {lineno}: {cut(str(exc))}") from None
    return MessageSpace(messages, probs)


def _probability(token: str) -> Fraction:
    """Fraction(token), refused before Fraction converts a run of more than
    MAX_DIGITS digits (with the interpreter's limit on int() of a string off,
    a long run takes seconds), or builds 10**|e| for an exponent e past
    MAX_Q_BITS plus the token's length: a value that is not 0 then exceeds 1
    or has a denominator past the cap, so no space holds it."""
    import re
    from fractions import Fraction

    # a run starts after no digit or `_`, so each is scanned once
    if re.search(r"(?<![\d_])\d(?:_*\d){%d}" % MAX_DIGITS, token):
        raise ValueError(f"a number of more than {MAX_DIGITS} digits in {token!r}")
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\Z", token)
    if exponent and abs(int(exponent[1])) > MAX_Q_BITS + len(token):
        mantissa = token[:exponent.start()]
        if any(map(int, filter(str.isdecimal, mantissa))):
            raise ValueError(f"exponent out of range in {token!r}")
        token = mantissa + "e0"  # its digits are all 0: so is its value
    return Fraction(token)


# --- codebook file format ------------------------------------------------
#
#   padcrypt-codebook 1 <codec-name> <L>
#   <index> <message-hex or -> <codeword as ASCII 0/1, or - if empty>

CODEBOOK_MAGIC = "padcrypt-codebook"
CODEBOOK_VERSION = 1


def save_codebook(code: PrefixCode, codec_name: str = "custom") -> str:
    # load_codebook splits the header on any whitespace
    if codec_name.split() != [codec_name]:
        raise ValueError("codec name must be a single nonempty token")
    return "".join([
        f"{CODEBOOK_MAGIC} {CODEBOOK_VERSION} {codec_name} {len(code.codebook)}\n",
        *(f"{i} {m.hex() or '-'} {str(w) or '-'}\n"
          for i, (m, w) in enumerate(code.codebook.items()))])


def load_codebook(text: str) -> tuple[PrefixCode, str]:
    """Parse a codebook file's text; returns (code, codec name)."""
    lines = text.split("\n")
    header = lines[0].split()
    if len(header) != 4 or header[0] != CODEBOOK_MAGIC:
        raise CodebookFormatError("bad codebook header")
    if header[1] != str(CODEBOOK_VERSION):
        raise CodebookFormatError(f"unsupported codebook version {cut(header[1])}")
    codec_name = header[2]

    def number(field: str) -> int:
        # no count or index of a valid file has more digits than the file has
        # lines, and int() of a longer one takes time quadratic in its length:
        # such a field reads as -1, which matches no count and no index
        return int(field) if len(field) <= len(lines) else -1

    try:
        count = number(header[3])
    except ValueError:
        raise CodebookFormatError("bad record count") from None
    entries: list[tuple[int, bytes, BitString]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise CodebookFormatError(f"line {lineno}: expected 3 fields")
        try:
            idx = number(parts[0])
            msg = b"" if parts[1] == "-" else bytes.fromhex(parts[1])
            word = BitString(0, 0) if parts[2] == "-" else BitString.from_str(parts[2])
        except ValueError as exc:
            raise CodebookFormatError(f"line {lineno}: {cut(str(exc))}") from None
        entries.append((idx, msg, word))
    if len(entries) != count or [e[0] for e in entries] != list(range(count)):
        raise CodebookFormatError("record indices do not match header count")
    codebook = {m: w for _, m, w in entries}
    if len(codebook) != count:
        raise CodebookFormatError("a message is listed more than once")
    try:
        code = PrefixCode(codebook)
    except InvalidCode as exc:
        raise CodebookFormatError(str(exc)) from None
    return code, codec_name
