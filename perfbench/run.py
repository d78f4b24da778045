#!/usr/bin/env python3
"""wildfuncs benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1] [--seconds 15]

Workloads (BENCHMARK.json says why each was chosen):
  long-digits     expansion round trips and h/hs on criterion-1 rationals
  short-calls     many small exact calls, mostly surds/projections/qspan
  cantor-session  cf queries in a fresh process, placements built lazily
  cli             README-tour commands, one `python -m wildfuncs.cli` each

Load is one closed-loop caller: the next operation starts when the previous
one returns.  In-process workloads run in fresh worker processes, so every
cache in wildfuncs starts cold.  Every output is checked against references
in perfbench/reference.py, outside the timed region.

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics; with --trace 1 the same run is followed by a traced
replay of the same operations in fresh processes, and the JSON holds the
per-layer metrics, including tracing overhead (traced minus untraced time
over the replayed operations).  Spans are written to .perfbench-out/.

Times are CPU times (user + system) of the process doing the work: the
worker for an operation, the child for a cli command or a set-up probe,
scaled to a host of fixed speed by a probe run next to the work (an
in-process probe in workers, common.HostSpeed; a bare interpreter for
children, common.StartupSpeed): the host this was built on changes speed by
up to 2x from one second to the next, and unscaled times spread as widely
from run to run.  A cli command killed at its deadline counts the deadline
in ops_per_s.

Each run measures RUN_SECONDS of operation wall time, the `run_seconds` of
BENCHMARK.json.  The run length is part of the benchmark, so that two runs
compare like with like: --seconds is accepted only with that value, so the
command line can state it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

import clicmds
import tracing
from common import (BARE_NOMINAL_S, HERE, OUT, PYTHON, ROOT, StartupSpeed, check_checkout, child_env,
                    context, percentile, setup_seconds)

INPROCESS = ("long-digits", "short-calls", "cantor-session")
WORKLOADS = INPROCESS + ("cli",)
# the tail percentile is the highest one with at least ten samples beyond it
# in every run: in-process runs have >= 1000 operations, cli runs >= 100
TAIL = {"long-digits": 0.99, "short-calls": 0.99, "cantor-session": 0.99, "cli": 0.90}
RUN_SECONDS = 15
WORKER_TIMEOUT_S = 170
REPLAY_LIMIT = 1.5  # a traced in-process replay stops after this many times RUN_SECONDS


class Run:
    """Raw results of one untraced run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.passed: list[bool] = []
        self.expected_misses = 0      # runaway cli literals killed at the deadline or refused (exit 2)
        self.wall_s = 0.0             # run length: wall time of the operations
        self.busy_s = 0.0             # CPU time of the operations (deadline for a killed command)
        self.rss_mb = 0.0
        self.setup: list[float] = []
        self.bare: list[float] = []   # unscaled CPU times of bare interpreters
        self.notes: list[str] = []


def end_to_end(workload: str, run: Run) -> dict:
    timed = [lat if ok else math.inf for lat, ok in zip(run.latencies, run.passed)]
    return {
        "ops_per_s": (sum(run.passed) / run.busy_s, "op/s"),
        "op_p50_ms": (percentile(timed, 0.5) * 1e3, "ms"),
        "op_tail_ms": (percentile(timed, TAIL[workload]) * 1e3, "ms"),
        "setup_s": (statistics.median(run.setup), "s"),
        "peak_rss_mb": (run.rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# in-process workloads


def spawn_worker(spec: dict) -> dict:
    proc = subprocess.run([PYTHON, str(HERE / "worker.py"), json.dumps(spec)], capture_output=True,
                          text=True, env=child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def inprocess_run(workload: str, seed: int, seconds: float, tiny: bool) -> tuple[Run, list]:
    """Workers run whole blocks until `seconds` of operation time; each
    cantor-session block is a session of its own process."""
    run = Run()
    run.setup, run.bare = setup_seconds("wildfuncs")
    workers = []
    block = 0
    while run.wall_s < seconds or not workers:
        spec = {"workload": workload, "seed": seed, "first_block": block,
                "max_blocks": 1 if workload == "cantor-session" or tiny else None,
                "seconds": seconds - run.wall_s, "max_ops": None, "tiny": tiny, "spans": None, "op_base": 0}
        out = spawn_worker(spec)
        workers.append((spec, out))
        run.latencies += out["latencies"]
        run.passed += out["passed"]
        run.wall_s += out["measured_s"]
        run.busy_s += out["busy_s"]
        run.rss_mb = max(run.rss_mb, out["rss_mb"])
        run.notes += [f"failed: {f}" for f in out["failures"]]
        block += out["blocks"]
        if tiny:
            break
    return run, workers


def inprocess_replay(workload: str, seed: int, seconds: float, workers: list) -> tuple[dict, float, float, int]:
    spans = OUT / f"spans-{workload}-{seed}.csv"
    spans.unlink(missing_ok=True)
    sums: dict = {}
    traced_s = untraced_s = 0.0
    op_base = failed = 0
    for spec, out in workers:
        replay = dict(spec, max_ops=len(out["latencies"]), seconds=1e9, max_blocks=None,
                      spans=str(spans), op_base=op_base)
        traced = spawn_worker(replay)
        done = len(traced["latencies"])
        traced_s += traced["busy_s"]
        untraced_s += sum(out["latencies"][:done])
        failed += done - sum(traced["passed"])
        op_base += done
        tracing.merge(sums, traced["sums"])
        if traced_s > REPLAY_LIMIT * seconds:
            break
    return sums, traced_s, untraced_s, failed


# ---------------------------------------------------------------------------
# cli workload


def cli_run(seed: int, seconds: float, tiny: bool) -> tuple[Run, list]:
    run = Run()
    run.setup, run.bare = setup_seconds("wildfuncs.cli")
    workdir = OUT / f"cli-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    done = []
    block = 0
    speed = StartupSpeed()
    while run.wall_s < seconds or block < clicmds.MIN_BLOCKS:
        for command in clicmds.make_block(seed, block, workdir, tiny):
            outcome = clicmds.run(clicmds.cli_argv(command), speed)
            ok = clicmds.passed(command, outcome)
            done.append((command, outcome))
            run.latencies.append(outcome.cpu_s)
            run.passed.append(ok)
            run.wall_s += outcome.seconds
            run.busy_s += clicmds.DEADLINE_S if outcome.code is None else outcome.cpu_s
            if ok:
                run.rss_mb = max(run.rss_mb, outcome.rss_mb)
            elif outcome.code is None:
                run.notes.append(f"deadline missed ({clicmds.DEADLINE_S:.0f} s): {command.label()}")
                run.expected_misses += command.runaway
            else:
                run.notes.append(f"failed (exit {outcome.code}): {command.label()}")
                run.expected_misses += command.runaway and outcome.code == 2
        block += 1
        if tiny:
            break
    return run, done


def cli_layers(run: Run, done: list) -> dict:
    """Per-layer numbers that come from the untraced cli run itself.  Bare
    interpreter start-up includes whatever site-packages hooks the installed
    interpreter runs; that cost is the installation's, not wildfuncs', so
    cli.import_ms subtracts it: set-up times are scaled so that a bare
    interpreter takes BARE_NOMINAL_S.  cli.bare_interpreter_ms is unscaled."""
    out = {"cli.bare_interpreter_ms": statistics.median(run.bare) * 1e3,
           "cli.import_ms": (statistics.median(run.setup) - BARE_NOMINAL_S) * 1e3}
    for name in tracing.CLI_COMMANDS:
        times = [o.cpu_s for c, o in done if c.subcommand == name and clicmds.passed(c, o)]
        out[f"cli.{name}.p50_ms"] = statistics.median(times) * 1e3 if times else 0.0
    walls: dict = {}
    for command, outcome in done:
        if command.subcommand == "verify":
            for suite, ms in re.findall(r"^(\S+): ([0-9.]+) ms$", outcome.stderr, re.M):
                walls.setdefault(suite, []).append(float(ms))
    for suite, values in walls.items():
        out[f"verify.{suite}.wall_ms"] = statistics.median(values)
    return out


def cli_replay(seed: int, done: list) -> tuple[dict, float, float, list]:
    """Re-run every command through the traced launcher; its stdout and exit
    code must equal those of `python -m wildfuncs.cli`."""
    sums_path = OUT / f"sums-cli-{seed}.jsonl"
    spans = OUT / f"spans-cli-{seed}.csv"
    sums_path.unlink(missing_ok=True)
    spans.unlink(missing_ok=True)
    traced_s = untraced_s = 0.0
    mismatches = []
    speed = StartupSpeed()
    for i, (command, outcome) in enumerate(done):
        traced = clicmds.run([PYTHON, str(HERE / "cli_launcher.py"), str(i), str(sums_path), str(spans),
                              *command.argv], speed)
        if outcome.code is not None and (traced.code, traced.stdout) != (outcome.code, outcome.stdout):
            mismatches.append(command.label())
        traced_s += traced.cpu_s
        untraced_s += outcome.cpu_s
    sums: dict = {}
    if sums_path.exists():
        for line in sums_path.read_text().splitlines():
            tracing.merge(sums, json.loads(line))
    return sums, traced_s, untraced_s, mismatches


# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    OUT.mkdir(exist_ok=True)
    if workload == "cli":
        run, done = cli_run(seed, RUN_SECONDS, tiny=False)
    else:
        run, workers = inprocess_run(workload, seed, RUN_SECONDS, tiny=False)
    attempted = len(run.latencies)
    failed = attempted - sum(run.passed) - run.expected_misses
    e2e = end_to_end(workload, run)

    print(f"== {workload}  seed={seed}  seconds={RUN_SECONDS}  trace={int(trace)}")
    print("context: " + json.dumps(context(seed)))
    beyond = attempted - math.ceil(TAIL[workload] * attempted)
    tail_name = "op_p99_ms" if TAIL[workload] == 0.99 else "cmd_p90_ms"
    for name, (value, unit) in e2e.items():
        extra = ""
        if name == "op_tail_ms":
            extra = f"  ({tail_name}; {attempted} samples, {beyond} beyond)"
        elif name == "op_p50_ms":
            extra = f"  ({'cmd' if workload == 'cli' else 'op'}_p50_ms; {attempted} samples)"
        elif name == "setup_s":
            extra = f"  (median scaled CPU time of {len(run.setup)} fresh interpreters)"
        elif name == "ops_per_s":
            extra = f"  ({sum(run.passed)} passed in {run.busy_s:.2f} s CPU, {run.wall_s:.2f} s wall)"
        print(f"{name:<14} {value:12.4f} {unit}{extra}")
    print(f"{'fail_ratio':<14} {(attempted - sum(run.passed)) / attempted:12.4f} 1  "
          f"({attempted - sum(run.passed)} of {attempted}; {run.expected_misses} are runaway literals)")
    for note in run.notes[:20]:
        print("  " + note)

    if not trace:
        metrics = e2e
    else:
        if workload == "cli":
            sums, traced_s, untraced_s, mismatches = cli_replay(seed, done)
            layers = tracing.layer_metrics(sums)
            layers.update(cli_layers(run, done))
            mismatched = len(mismatches)
            for label in mismatches:
                print(f"  traced launcher output differs: {label}")
        else:
            sums, traced_s, untraced_s, mismatched = inprocess_replay(workload, seed, RUN_SECONDS, workers)
            layers = tracing.layer_metrics(sums)
        failed += mismatched
        layers["trace.overhead_s"] = traced_s - untraced_s
        layers["trace.overhead_ratio"] = traced_s / untraced_s - 1 if untraced_s else 0.0
        print(f"tracing overhead: {traced_s - untraced_s:.3f} s over {untraced_s:.3f} s untraced")
        metrics = {name: (layers[name], tracing.unit(name)) for name in tracing.LAYER_METRICS}
        for name, (value, unit) in metrics.items():
            if value:
                print(f"  {name:<52} {value:14.6g} {unit}")

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def pin_to_one_cpu() -> None:
    """Run this process and every child it starts on one CPU.  Load is one
    closed-loop caller, so one CPU is all the benchmark uses at a time; on
    the shared 2-CPU host this was built on the two CPUs ran at different
    speeds, and a child landing on either one spread cli times more than
    their drift over a run."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=f"run length; only {RUN_SECONDS}, the benchmark's own, is accepted")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        parser.error(f"--seconds is fixed at {RUN_SECONDS} (BENCHMARK.json run_seconds)")
    check_checkout()
    pin_to_one_cpu()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, bool(args.trace)) for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
