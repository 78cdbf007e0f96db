"""Spans and counters recorded from outside padcrypt.

The tracer replaces public functions and methods of padcrypt's modules with
wrappers that record a span (name, start, end, parent span, operation id)
or bump an aggregate counter, and puts the originals back on `uninstall`.
Spans stay in memory; after each benchmark operation `fold` turns them into
per-name durations and per-layer self times, and keeps the raw spans of
the first operations for the trace file.

Secrecy contract: spans carry names and timings only, and counters are
summed over the whole run.  No argument, return value, key bit count or
cursor of a single message reaches the output or the trace file, so the
trace does not reopen the length channel.  For that reason
`BitString.__getitem__`, whose call count per message equals the codeword
length during decoding, is counted in aggregate and never spanned.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

SETUP = "setup"
RAW_SPAN_CAP = 20_000
# Counters whose per-message mean is the mean codeword length s.  Over a
# handful of messages that mean would disclose single lengths, so it is
# only reported once it averages at least MIN_MSGS_FOR_LENGTHS messages.
LENGTH_DEPENDENT = ("bits.getitem", "keystore.bits_taken", "rng.os_bits")
MIN_MSGS_FOR_LENGTHS = 64

_clock = time.perf_counter_ns


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack = [-1]
        self.pending: Counter = Counter()
        self.op_counts: Counter = Counter()  # summed over operations, not set-up
        self.durations: dict[str, array] = {}
        self.self_ns: Counter = Counter()
        self.root_ns = 0
        self.msgs = 0
        self.ops = 0
        self.raw: list[tuple] = []
        self._targets: list[tuple] = []
        self._saved: list[tuple] = []

    # --- wrappers ------------------------------------------------------

    def span(self, name: str, fn, tally: "tuple[str, int] | None" = None):
        """Wrap fn so each call records a span; tally=(key, i) also adds
        positional argument i to an aggregate counter."""
        spans, stack, pending = self.spans, self.stack, self.pending

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, _clock(), 0, stack[-1]])
            stack.append(i)
            if tally is not None:
                pending[tally[0]] += args[tally[1]]
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = _clock()

        traced.__wrapped__ = fn
        return traced

    def counter(self, key: str, fn):
        pending = self.pending

        def counted(*args, **kwargs):
            pending[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def target(self, owner, attr: str, name: str, *, count_only: bool = False,
               tally: "tuple[str, int] | None" = None) -> None:
        self._targets.append((owner, attr, name, count_only, tally))

    def install(self) -> None:
        for owner, attr, name, count_only, tally in self._targets:
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self.counter(name, fn) if count_only else self.span(name, fn, tally)
            setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            self._saved.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # --- aggregation ---------------------------------------------------

    def graft(self, spans: list, counts: dict) -> None:
        """Add spans and counts recorded by a child process under the
        innermost open span of this one."""
        base, root = len(self.spans), self.stack[-1]
        for name, start, end, parent in spans:
            self.spans.append([name, start, end, root if parent < 0 else base + parent])
        self.pending.update(counts)

    def fold(self, op, msgs: int = 0) -> None:
        """Aggregate the spans and counts recorded since the last fold."""
        spans = self.spans
        child = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        in_op = op != SETUP
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            self.durations.setdefault(name, array("q")).append(dur)
            if in_op:
                self.pending[name] += 1
                self.self_ns[layer_of(name)] += dur - child[i]
                if parent < 0:
                    self.root_ns += dur
        room = RAW_SPAN_CAP - len(self.raw)
        if room > 0:
            self.raw.extend((s[0], s[1], s[2], s[3], op) for s in spans[:room])
        if in_op:
            self.op_counts.update(self.pending)
        self.pending.clear()
        self.msgs += msgs
        self.ops += in_op
        spans.clear()

    def self_pct(self, layer: str) -> float:
        return 100.0 * self.self_ns[layer] / self.root_ns if self.root_ns else 0.0

    def per_msg(self, key: str) -> float:
        if key in LENGTH_DEPENDENT and self.msgs < MIN_MSGS_FOR_LENGTHS:
            return 0.0
        return self.op_counts[key] / self.msgs if self.msgs else 0.0

    def run_counts(self) -> dict:
        """Counts summed over the run, for the trace file."""
        return {k: v for k, v in self.op_counts.items()
                if k not in LENGTH_DEPENDENT or self.msgs >= MIN_MSGS_FOR_LENGTHS}

    def median(self, name: str) -> "tuple[float, int]":
        """Median duration of a span name in ns, with its sample count."""
        d = self.durations.get(name)
        if not d:
            return 0.0, 0
        return percentile(d, 50), len(d)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-len(ordered) * q // 100) - 1))
    return float(ordered[int(k)])


def install_padcrypt_targets(tracer: Tracer, bits, codec, keystore, rng,
                             cipher, verify) -> None:
    """Register every layer boundary the benchmark traces.

    Names that `cipher` and `verify` bound at import (`encode`,
    `decode_prefix`) are wrapped in those modules too, so calls through
    them are seen.
    """
    t = tracer.target
    t(bits.BitString, "__getitem__", "bits.getitem", count_only=True)
    for mod in (codec, cipher, verify):
        t(mod, "encode", "codec.encode")
    for mod in (codec, cipher):
        t(mod, "decode_prefix", "codec.decode_prefix")
    for attr in ("build_huffman", "trim_code", "save_codebook", "load_codebook"):
        t(codec, attr, f"codec.{attr}")
    t(keystore.KeyPool, "take", "keystore.take", tally=("keystore.bits_taken", 1))
    for attr in ("peek", "save", "load"):
        t(keystore.KeyPool, attr, f"keystore.{attr}")
    t(keystore, "generate_pool", "keystore.generate_pool")
    t(rng.OsRandomSource, "bits", "rng.bits", tally=("rng.os_bits", 1))
    t(rng.SeededRandomSource, "bits", "rng.bits")
    for attr in ("encrypt", "decrypt", "write_frame", "read_frame",
                 "code_fingerprint", "key_cost"):
        t(cipher, attr, f"cipher.{attr}")
    for attr in ("exact_secrecy_oracle", "key_discipline_equivalence",
                 "empirical_uniformity", "bound_report", "leak_mutual_information"):
        t(verify, attr, f"verify.{attr}")
