"""Traced stand-in for `python -m wildfuncs.cli`.

Usage: cli_launcher.py OP_ID SUMS SPANS ARG...

Installs the same wrappers as a traced in-process run, calls
`wildfuncs.cli.main(ARG...)`, appends the span sums as one JSON line to SUMS
and the spans to SPANS, and exits with main's code.  Stdout and the exit code
must be identical to `python -m wildfuncs.cli ARG...`.
"""

from __future__ import annotations

import json
import sys

import wildfuncs.cli

import tracing


def main() -> int:
    op_id, sums_path, spans_path, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
    tracer = tracing.Tracer()
    tracer.op_id = op_id
    tracing.install(tracer)
    try:
        return wildfuncs.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(sums_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(tracing.reduce_spans(tracer)) + "\n")
        tracer.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
