"""padcrypt benchmark: one workload per run, seeded, optionally traced.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: disk-session, memory-session, audit, cli-session (see README.md).
Every workload is a closed loop with one client in one process.  The run
prints one `metric` line per measurement (name, value, unit, sample count)
and, as its last line, a JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
alternates untraced and traced blocks and reports per-layer metrics, plus
the tracing overhead.  Raw spans go to bench/out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from harness import OUT, ROOT, SRC, Run, host_info


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "padcrypt" / "__init__.py").is_file():
        print(f"error: padcrypt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports padcrypt from SRC

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    host = host_info()
    run = Run(args.workload, args.seed, args.seconds, work,
              workloads.new_tracer() if args.trace else None)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = run.per_layer() if run.tracer else run.end_to_end()
    run.metric("failed_ratio", run.failed / max(run.attempted, 1), "ratio", run.attempted)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} host={json.dumps(host)}")
    if run.tracer:
        print(f"# trace file {run.write_trace(host).relative_to(ROOT)}")
    for name, value, unit, n in run.lines:
        print(f"metric {name} {value:.6g} {unit} n={n}")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} {value:.6g} {unit} n={n}")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
