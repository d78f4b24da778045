"""One in-process benchmark worker: a fresh interpreter per run or session.

Usage: worker.py '<json spec>' with keys workload, seed, first_block,
max_blocks, seconds, max_ops, tiny, op_base (the id of the first operation)
and spans (a path, or null for an untraced run).  Prints one JSON line with
per-operation latencies and pass flags.  Blocks run whole, until `seconds` of
operation wall time, `max_blocks` blocks or `max_ops` operations are reached;
a traced run also stops at a block boundary once it holds `MAX_SPANS` spans.

A latency is the CPU time (user + system) the worker spent in the
operation, scaled to the nominal host speed by common.HostSpeed, which
probes the host's speed throughout the run.  Operations are single-threaded,
in memory and do no I/O.  In a traced run the spans' own times are not
scaled, and include the probes that fell inside them, about 4 percent.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from array import array

import tracing
import workloads
from common import HostSpeed

MAX_SPANS = 400_000


def check(pending: list, passed: list, failures: list) -> None:
    for op, result in pending:
        ok = not isinstance(result, Exception) and workloads.check_op(op, result)
        passed.append(ok)
        if not ok and len(failures) < 5:
            failures.append(f"{op[0]}{tuple(map(str, op[1]))} -> {result!r}"[:300])
    pending.clear()


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["spans"]:
        tracer = tracing.Tracer()
        sites = tracing.install(tracer)
    starts, ends = array("d"), array("d")  # CPU clock readings around each operation
    passed, failures = [], []
    pending = []  # (op, result) not yet checked
    measured = 0.0
    block = spec["first_block"]
    blocks_done = 0
    perf, cpu = time.perf_counter, time.thread_time
    speed = HostSpeed()
    speed.start()
    while True:
        batch = workloads.make_block(spec["workload"], spec["seed"], block, spec["tiny"])
        if spec["max_ops"] is not None:
            batch = batch[: spec["max_ops"] - len(starts)]
        for op in batch:
            if tracer is not None:
                tracer.op_id = spec["op_base"] + len(starts)
            t0, c0 = perf(), cpu()
            try:
                result = workloads.call_op(op)
            except Exception as exc:  # a raising operation is a failed one
                result = exc
            c1, t1 = cpu(), perf()
            starts.append(c0)
            ends.append(c1)
            measured += t1 - t0
            pending.append((op, result))
        block += 1
        blocks_done += 1
        if tracer is None:  # check as we go, so memory does not grow with the run
            check(pending, passed, failures)
        if (measured >= spec["seconds"] or blocks_done == spec["max_blocks"]
                or (spec["max_ops"] is not None and len(starts) >= spec["max_ops"])
                or (tracer is not None and len(tracer) >= MAX_SPANS)):
            break
    speed.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the result is built
    latencies = [speed.scaled(c0, c1) for c0, c1 in zip(starts, ends)]

    sums = None
    if tracer is not None:
        tracing.uninstall(sites)
        sums = tracing.reduce_spans(tracer)
        tracer.write(spec["spans"])
        check(pending, passed, failures)
    print(json.dumps({
        "latencies": latencies,
        "passed": passed,
        "measured_s": measured,
        "busy_s": sum(latencies),
        "blocks": blocks_done,
        "rss_mb": rss_mb,
        "failures": failures,
        "sums": sums,
    }), flush=True)


if __name__ == "__main__":
    main()
