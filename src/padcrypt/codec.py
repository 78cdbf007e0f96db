"""Prefix-free codes over finite message spaces.

Builds Huffman codes from a known distribution, the trimmed transform that
caps codeword length at ceil(log2 L) + 1, and an adapter that turns any
deterministic external compressor into a prefix-free code by gamma-framing
its outputs.
"""

from __future__ import annotations

import heapq

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
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Callable, Sequence, TextIO

PROB_SUM_TOL = 1e-9


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

        messages = tuple(bytes(m) for m in messages)
        probs = tuple(probs)
        if not messages:
            raise InvalidSpace("message space is empty")
        if len(set(messages)) != len(messages):
            raise InvalidSpace("messages are not pairwise distinct")
        if len(probs) != len(messages):
            raise InvalidSpace("probs and messages differ in length")
        q = 0
        weights = probs
        if all(isinstance(p, Fraction) for p in probs):
            q = math.lcm(*(p.denominator for p in probs))
            weights = tuple(p.numerator * (q // p.denominator) for p in probs)
        if any(w < 0 for w in weights):
            raise InvalidSpace("negative probability")
        total = sum(weights)
        if q:
            if total != q:
                raise InvalidSpace(
                    f"probabilities sum to {Fraction(total, q)}, expected 1")
        elif isinstance(total, Fraction):
            if total != 1:
                raise InvalidSpace(f"probabilities sum to {total}, expected 1")
        elif not abs(total - 1.0) <= PROB_SUM_TOL:  # a NaN total fails too
            raise InvalidSpace(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "messages", messages)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_q", q)

    def __len__(self) -> int:
        return len(self.messages)

    @property
    def is_exact(self) -> bool:
        return self._q > 0


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
        lengths = tuple(sorted({n for n, _ in table}))
        # each word looks up its prefixes at the shorter lengths only, so the
        # work stays within the total codeword bits
        for n, v in table:
            for k in lengths[:lengths.index(n)]:
                if (k, v >> (n - k)) in table:
                    raise InvalidCode("codeword set is not prefix-free")
        object.__setattr__(self, "max_len", lengths[-1])
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_lengths", lengths)


class ExternalCompressor(Record):
    """Deterministic byte-string -> byte-string (or bit-string) transform."""

    __slots__ = ("transform", "name")
    transform: Callable[[bytes], "bytes | BitString"]
    name: str

    def run(self, m: bytes) -> BitString:
        out = self.transform(m)
        again = self.transform(m)
        if out != again:
            raise NondeterministicCompressor(
                f"{self.name} gave different outputs for {m!r}")
        if isinstance(out, BitString):
            return out
        return BitString.from_bytes(bytes(out))


# --- Huffman -------------------------------------------------------------

def build_huffman(space: MessageSpace) -> PrefixCode:
    """Optimal prefix-free code for a known distribution, in canonical form.

    Deterministic: heap ties break on (weight, smallest message index) and
    codewords are assigned canonically, shortest first, then index order.
    An exact space merges its integer weights, which order and tie exactly
    as its probabilities do; a float space merges its float probabilities.
    """
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

def wrap_external(compressor: ExternalCompressor, space: MessageSpace) -> PrefixCode:
    """Explicit prefix-free codebook from a deterministic compressor.

    Each output is framed as gamma(bit length) || bits, which is prefix-free
    whenever outputs differ; identical outputs get a fixed-width message
    index appended to restore injectivity.
    """
    L = len(space)
    frames: list[BitString] = []
    for m in space.messages:
        out = compressor.run(m)
        if len(out) == 0:
            raise EmptyCompressorOutput(
                f"{compressor.name} produced no output for {m!r}")
        frames.append(elias_gamma(len(out)) + out)

    # gamma framing leaves only exact-equality collisions possible
    groups: dict[BitString, list[int]] = {}
    for i, f in enumerate(frames):
        groups.setdefault(f, []).append(i)
    width = (L - 1).bit_length()
    codebook: dict[bytes, BitString] = {}
    for i, m in enumerate(space.messages):
        frame = frames[i]
        if len(groups[frame]) > 1:
            frame = frame + BitString(i, width)
        codebook[m] = frame
    return PrefixCode(codebook)


# --- encode / decode -----------------------------------------------------

def encode(code: PrefixCode, m: bytes) -> BitString:
    try:
        return code.codebook[bytes(m)]
    except KeyError:
        raise NotInCodebook(f"message {bytes(m)!r} has no codeword") from None


def decode_prefix(code: PrefixCode, stream: BitString) -> tuple[bytes, int]:
    """Return the unique message whose codeword prefixes stream, plus its length."""
    size = len(stream)
    for n in code._lengths:
        if n > size:
            break
        m = code._table.get((n, stream.value >> (size - n)))
        if m is not None:
            return m, n
    raise NotACodeword(f"no codeword prefixes {stream}")


# --- codebook file format ------------------------------------------------
#
#   padcrypt-codebook 1 <codec-name> <L>
#   <index> <message-hex or -> <codeword as ASCII 0/1>

CODEBOOK_MAGIC = "padcrypt-codebook"
CODEBOOK_VERSION = 1


def save_codebook(code: PrefixCode, out: TextIO, codec_name: str = "custom") -> None:
    if " " in codec_name or not codec_name:
        raise ValueError("codec name must be a single nonempty token")
    out.write(f"{CODEBOOK_MAGIC} {CODEBOOK_VERSION} {codec_name} {len(code.codebook)}\n")
    for i, (m, w) in enumerate(code.codebook.items()):
        out.write(f"{i} {m.hex() or '-'} {w}\n")


def load_codebook(src: TextIO) -> tuple[PrefixCode, str]:
    """Parse a codebook file; returns (code, codec name)."""
    header = src.readline().split()
    if len(header) != 4 or header[0] != CODEBOOK_MAGIC:
        raise CodebookFormatError("bad codebook header")
    if header[1] != str(CODEBOOK_VERSION):
        raise CodebookFormatError(f"unsupported codebook version {header[1]}")
    codec_name = header[2]
    try:
        count = int(header[3])
    except ValueError:
        raise CodebookFormatError("bad record count") from None
    entries: list[tuple[int, bytes, BitString]] = []
    for lineno, line in enumerate(src, start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise CodebookFormatError(f"line {lineno}: expected 3 fields")
        try:
            idx = int(parts[0])
            msg = b"" if parts[1] == "-" else bytes.fromhex(parts[1])
            word = BitString.from_str(parts[2])
        except ValueError as exc:
            raise CodebookFormatError(f"line {lineno}: {exc}") from None
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
