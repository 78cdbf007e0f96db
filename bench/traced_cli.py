"""Run one padcrypt CLI command with the benchmark's layer wrappers in place.

    python3 bench/traced_cli.py <span-file> <padcrypt arguments...>

The spans and aggregate counts of the call are written to <span-file> as
JSON; the exit code is the command's own.  The import of padcrypt.cli is
recorded as the `cli.import` span and the command itself as `cli.main`.
"""

from __future__ import annotations

import json
import sys
import time

start = time.perf_counter_ns()

from tracing import Tracer, install_padcrypt_targets  # noqa: E402


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    from padcrypt import bits, cipher, cli, codec, keystore, rng, verify

    tracer = Tracer()
    tracer.spans.append(["cli.import", start, time.perf_counter_ns(), -1])
    install_padcrypt_targets(tracer, bits, codec, keystore, rng, cipher, verify)
    tracer.install()
    try:
        code = tracer.span("cli.main", cli.main)(argv)
    finally:
        tracer.uninstall()
        with open(span_file, "w") as f:
            json.dump({"spans": tracer.spans, "counts": tracer.pending}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
