"""Smoke check: every workload runs at a tiny size and emits every metric.

    python3 bench/smoke.py

Runs every workload for one second, untraced and traced,
and asserts that the last output line is the result object with exactly the
metric names and units BENCHMARK.json lists, with no failed operation.  It
also copies the benchmark without the package sources and asserts that it
exits non-zero without a result.  Takes about two minutes; not part of the
test suite, since it times nothing and gates nothing on speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# every workload run.py knows, gated in BENCHMARK.json or not
WORKLOADS = ("disk-session", "memory-session", "audit", "cli-session")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems: list[str] = []
    gated = {w["name"] for w in spec["workloads"]}
    if not gated <= set(WORKLOADS):
        problems.append(f"BENCHMARK.json names unknown workloads {gated - set(WORKLOADS)}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            before = len(problems)
            proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace))
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if units != expected[trace]:
                problems.append(f"{where}: metrics {units} != {expected[trace]}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{where}: non-numeric metric value")
            print(f"{'ok' if len(problems) == before else 'FAIL'} {where}", flush=True)

    (BENCH / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=BENCH / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, "--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("without src/ the benchmark still printed a result")
    finally:
        shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
