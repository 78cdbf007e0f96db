"""Harness shared by the workloads: set-up timing, closed-loop blocks,
output checks, samples and the metrics built from them."""

from __future__ import annotations

import json
import marshal
import os
import platform
import resource
import statistics
import time
from array import array
from importlib import metadata
from pathlib import Path

from tracing import SETUP, percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_BEFORE = 3   # set-ups timed before the measured loop
SETUP_GAP = 1 / 16  # then one after each block that ends this share of the run after the last
LAYERS = ("harness", "codec", "keystore", "rng", "cipher", "verify", "cli")

_clock = time.perf_counter_ns

_CAL_CODE = marshal.dumps(compile("".join(
    f"def f{i}(x, y={i}):\n    return [x * y + k for k in range({i % 7 + 1})]\n"
    for i in range(300)), "<calibration>", "exec"))


def calibration_ns() -> int:
    """Time of a fixed piece of interpreter work that padcrypt does not run:
    unmarshal and run a module of 300 functions, then a dict loop."""
    t0 = _clock()
    exec(marshal.loads(_CAL_CODE), {})
    d: dict = {}
    for i in range(20000):
        d[i % 997] = d.get(i % 997, 0) + i
    return _clock() - t0


def host_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "scipy": metadata.version("scipy"),
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


class Run:
    """State shared by a workload and the harness: checks, samples, tracing."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path,
                 tracer) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work = work
        self.tracer = tracer
        self.trace = tracer is not None
        self.attempted = 0
        self.failed = 0
        self.lines: list[tuple[str, float, str, int]] = []
        self.setup_ns: list[int] = []
        self.pool_file_bytes = 0
        self.rss_children = False
        self.peak_rss_mb = 0.0
        self._ops = {False: array("q"), True: array("q")}
        self._steps: dict = {}
        # (function timing one calibration, how many of them follow each
        # set-up and untraced block, the calibration's time on the reference
        # host); a workload may set its own before setup()
        self.calibrator = (calibration_ns, 8, 3_000_000)
        self.cal_ns = array("q")
        # share of the run between set-ups timed in the loop; None times
        # set-ups only before it
        self.setup_gap: "float | None" = SETUP_GAP
        # every `chunk` consecutive operations give one throughput sample
        self.chunk = 1
        # operations in one pass over a workload's steps (see op_ms)
        self.ops_per_pass = 1

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def record_step(self, key, ns: int) -> None:
        """Latency of one untraced step; a block repeats the same steps."""
        self._steps.setdefault(key, array("q")).append(ns)

    def record_op(self, ns: int, traced: bool) -> None:
        self._ops[traced].append(ns)

    def n_ops(self, traced: bool = False) -> int:
        return len(self._ops[traced])

    def op_ns(self, traced: bool = False) -> array:
        return self._ops[traced]

    def step_ns(self, key) -> array:
        return self._steps[key]

    def rates(self, traced: bool = False) -> list[float]:
        """Throughput samples: operations per second over each chunk of
        `chunk` consecutive operations."""
        ns, k = self.op_ns(traced), self.chunk
        return [k * 1e9 / sum(ns[i:i + k]) for i in range(0, len(ns) - k + 1, k)]

    def op_ms(self) -> float:
        """Sum over the steps of a block of each step's median time, per
        operation: the mean cost of one operation of the workload's own mix."""
        return sum(map(statistics.median, self._steps.values())) / self.ops_per_pass / 1e6

    def calibrate(self) -> None:
        """Samples of the host's speed: a few timed calibrations.  Set-ups
        and untraced blocks are each followed by them, so the samples see
        the same spells of the shared machine as the timed work."""
        fn, repeats, _ = self.calibrator
        self.cal_ns.extend(fn() for _ in range(repeats))

    def speed(self) -> float:
        """The calibration's reference-host time over its median in this run:
        scales a median time measured here to the reference host's speed."""
        return self.calibrator[2] / statistics.median(self.cal_ns)

    def metric(self, name: str, value: float, unit: str, n: int) -> None:
        self.lines.append((name, value, unit, n))

    def root(self, name: str, fn, traced: bool):
        """fn itself, or fn recording a top-level span in a traced block."""
        return self.tracer.span(f"harness.{name}", fn) if traced else fn

    def setup(self, fn):
        """Time the set-up SETUP_BEFORE times and return the last state.

        Unless `setup_gap` is None, `blocks` times it again through the
        run, so that the set-ups see the same spells of the shared machine
        as the operations."""
        self._setup_fn = fn
        return self._time_setup(SETUP_BEFORE)

    def _time_setup(self, repeats: int):
        state = None
        for _ in range(repeats):
            if self.tracer:
                self.tracer.install()
            t0 = _clock()
            try:
                state = self._setup_fn()
            finally:
                self.setup_ns.append(_clock() - t0)
                if self.tracer:
                    self.tracer.uninstall()
                    self.tracer.fold(SETUP)
            self.calibrate()
        return state

    def blocks(self, block) -> None:
        """Closed loop over blocks until --seconds have passed.

        block(traced) runs one block and records its operations.  A traced
        run alternates untraced and traced blocks, so the tracing overhead
        is measured under the same conditions as the layers.  After a block
        that ends `setup_gap` of the run after the last timed set-up, the
        set-up is timed once more; its state is dropped.
        """
        start = last_setup = _clock()
        took: list[int] = []
        while True:
            traced = self.trace and len(took) % 2 == 1
            t0 = _clock()
            if traced:
                self.tracer.install()
            try:
                block(traced)
            finally:
                if traced:
                    self.tracer.uninstall()
            took.append(_clock() - t0)
            if not traced:
                self.calibrate()
            if (self.setup_gap is not None
                    and _clock() - last_setup >= self.setup_gap * self.seconds * 1e9):
                self._time_setup(1)
                last_setup = _clock()
            # stop before a block that would end past the deadline
            if (_clock() - start + statistics.median(took) > self.seconds * 1e9
                    and len(took) >= (2 if self.trace else 1)):
                break
        who = resource.RUSAGE_CHILDREN if self.rss_children else resource.RUSAGE_SELF
        self.peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    # --- results -------------------------------------------------------

    def end_to_end(self) -> dict:
        rates, ops = self.rates(), self.op_ns()
        self.metric("ops_per_s", statistics.median(rates), "1/s", len(rates))
        self.metric("op_p50_ms", percentile(ops, 50) / 1e6, "ms", len(ops))
        # the highest percentile with at least ten samples beyond it
        for q, n in ((99, 1000), (90, 100)):
            if len(ops) >= n:
                self.metric(f"op_p{q}_ms", percentile(ops, q) / 1e6, "ms", len(ops))
                break
        setup_s, op_ms, speed = statistics.median(self.setup_ns) / 1e9, self.op_ms(), self.speed()
        # the same medians as timed on this host, before scaling
        self.metric("setup_here_s", setup_s, "s", len(self.setup_ns))
        self.metric("op_here_ms", op_ms, "ms", len(ops))
        self.metric("calibration_ms", statistics.median(self.cal_ns) / 1e6, "ms", len(self.cal_ns))
        self.metric("host_speed", speed, "ratio", len(self.cal_ns))
        return {
            "setup_s": (setup_s * speed, "s", len(self.setup_ns)),
            "op_ref_ms": (op_ms * speed, "ms", len(ops)),
            "peak_rss_mb": (self.peak_rss_mb, "MB", 1),
        }

    def per_layer(self) -> dict:
        t = self.tracer
        plain, traced = statistics.median(self.rates(False)), statistics.median(self.rates(True))
        self.metric("ops_per_s.untraced", plain, "1/s", len(self.rates(False)))
        self.metric("ops_per_s.traced", traced, "1/s", len(self.rates(True)))
        out = {"trace.overhead_pct": (100.0 * (1 - traced / plain), "%", 2)}
        for layer in LAYERS:
            out[f"{layer}.self_pct"] = (t.self_pct(layer), "%", t.ops)
        for name, unit, scale in (("codec.build_huffman", "ms", 1e6),
                                  ("codec.encode", "us", 1e3), ("rng.bits", "us", 1e3)):
            value, n = t.median(name)
            out[f"{name}_{unit}"] = (value / scale, unit, n)
        saves = t.per_msg("keystore.save")
        out["bits.getitem_calls_per_msg"] = (t.per_msg("bits.getitem"), "count", t.msgs)
        out["keystore.save_calls_per_msg"] = (saves, "count", t.msgs)
        # computed, not observed: whole-file rewrites times the pool file size
        out["keystore.bytes_written_per_msg"] = (saves * self.pool_file_bytes, "B", t.msgs)
        out["keystore.bits_taken_per_msg"] = (t.per_msg("keystore.bits_taken"), "bit", t.msgs)
        out["cipher.code_fingerprint_calls_per_msg"] = (
            t.per_msg("cipher.code_fingerprint"), "count", t.msgs)
        out["rng.pad_bits_per_msg"] = (t.per_msg("rng.os_bits"), "bit", t.msgs)
        return out

    def write_trace(self, host: dict) -> Path:
        t = self.tracer
        names = {}
        for name, d in sorted(t.durations.items()):
            names[name] = {"n": len(d), "p50_us": percentile(d, 50) / 1e3,
                           "p99_us": percentile(d, 99) / 1e3}
        path = OUT / f"trace-{self.workload}-{self.seed}.json"
        path.write_text(json.dumps({
            "workload": self.workload, "seed": self.seed, "host": host,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": t.raw, "spans_per_name": names,
            "self_pct": {layer: t.self_pct(layer) for layer in LAYERS},
            "run_counts": t.run_counts(), "msgs": t.msgs}))
        for name, s in names.items():
            self.metric(f"span.{name}.p50_us", s["p50_us"], "us", s["n"])
            self.metric(f"span.{name}.p99_us", s["p99_us"], "us", s["n"])
        return path
