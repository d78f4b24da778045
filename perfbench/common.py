"""Paths, child-process helpers, statistics and input draws shared by the
benchmark files."""

from __future__ import annotations

import bisect
import importlib.util
import math
import os
import platform
import signal
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
PYTHON = sys.executable

# number of fresh interpreters timed for `setup_s`; the median is reported
SETUP_SAMPLES = 11


def child_env() -> dict:
    """Environment for every child: the checkout's `src` comes first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def check_checkout() -> None:
    if not (SRC / "wildfuncs" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no wildfuncs sources under {SRC}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# host speed
#
# The shared host this benchmark was built on changes speed by up to 2x
# from one second to the next, in CPU time as well as in wall time, and all
# work in a process slows together.  So the benchmark reports CPU times
# scaled to a host of fixed speed.  An in-process worker scales its CPU
# times by its own probe: a SIGPROF timer interrupts it after every
# PROBE_EVERY_S of its CPU time to run a fixed probe, and the CPU time
# between two probes is multiplied by PROBE_NOMINAL_S over the mean of their
# durations; probe time itself is left out.  On this host, sums of scaled
# times over 3 s spread a third as much as unscaled ones.  On a host that
# runs the probe in PROBE_NOMINAL_S the scaled times are the CPU times; on
# this one the probe median is about that.  The probe is pure Python
# Fraction and int arithmetic, as wildfuncs is, and shares no code with it.

PROBE_NOMINAL_S = 0.002
PROBE_EVERY_S = 0.05


def _probe_work() -> None:
    total, seen = F(0), {}
    for i in range(1, 400):
        total += F(i % 89 + 1, i % 97 + 2)
        seen[i % 131] = total.numerator % 1_000_003


class HostSpeed:
    """Probes while running, then maps intervals of this thread's CPU clock
    to scaled seconds.  The workers are single-threaded; the thread clock is
    used because while a process-wide CPU timer is armed, Linux reads the
    process clock from a sample taken at scheduler ticks."""

    def __init__(self):
        self.starts: list[float] = []
        self.lengths: list[float] = []
        self.prefix: list[float] = []

    def _probe(self, *_signal) -> None:
        start = time.thread_time()
        _probe_work()
        self.starts.append(start)
        self.lengths.append(time.thread_time() - start)

    def start(self) -> None:
        self._probe()
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._probe()
        # prefix[k]: scaled seconds from the end of probe 0 to the end of probe k
        self.prefix = [0.0]
        for k in range(len(self.starts) - 1):
            self.prefix.append(self.prefix[-1] + self._scale(k) * self._gap(k))

    def _gap(self, k: int) -> float:
        return self.starts[k + 1] - self.starts[k] - self.lengths[k]

    def _scale(self, k: int) -> float:
        """Scale of the gap between probes k and k + 1."""
        return 2 * PROBE_NOMINAL_S / (self.lengths[k] + self.lengths[k + 1])

    def _clock(self, t: float) -> float:
        k = bisect.bisect_right(self.starts, t) - 1
        past = t - self.starts[k] - self.lengths[k]
        if past <= 0:  # inside probe k
            return self.prefix[k]
        return self.prefix[k] + self._scale(min(k, len(self.starts) - 2)) * past

    def scaled(self, t0: float, t1: float) -> float:
        """Scaled seconds of CPU time between time.thread_time readings t0 <= t1
        taken between start() and stop()."""
        return self._clock(t1) - self._clock(t0)


def cpu_until_ready(statement: str) -> float:
    """CPU seconds (user + system) a fresh interpreter spends from its start
    until `statement` has run.  The child reports its own process time, then
    exits and is reaped."""
    code = f"import time; {statement}; print(time.process_time(), flush=True)"
    proc = subprocess.Popen([PYTHON, "-c", code], stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed: {statement}")
    return float(line)


# Child interpreters (cli commands, set-up probes) spend much of their time
# starting: exec, imports, unmarshalling.  That work drifts with the host by
# up to a third over minutes, and the in-process probe above does not follow
# it.  A bare interpreter does: on this host the ratio of a command's CPU
# time to that of a bare interpreter started next to it held within 2
# percent over 20 s windows, while either alone moved by 17.  So child CPU
# times are scaled by BARE_NOMINAL_S over the mean CPU time of the bare
# interpreters started just before and just after the child.

BARE_NOMINAL_S = 0.07


class StartupSpeed:
    """Scale factors for child CPU times, from bare interpreters."""

    def __init__(self):
        self.bare = [cpu_until_ready("pass")]  # unscaled CPU times

    def factor(self) -> float:
        """Factor for a child that ended since the previous call (or since
        construction)."""
        self.bare.append(cpu_until_ready("pass"))
        return 2 * BARE_NOMINAL_S / (self.bare[-2] + self.bare[-1])


def setup_seconds(module: str) -> tuple[list[float], list[float]]:
    """Scaled CPU times of fresh interpreters until `import <module>`
    returns, and the unscaled CPU times of the bare interpreters around them."""
    speed = StartupSpeed()
    times = [cpu_until_ready(f"import {module}") * speed.factor() for _ in range(SETUP_SAMPLES)]
    return times, speed.bare


def context(seed: int) -> dict:
    """Facts a reader needs to compare runs; exactcore branches on gmpy2."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


# ---------------------------------------------------------------------------
# input draws used by both the in-process and the cli workloads


def frac(rng, num_bound: int, den_bound: int) -> F:
    return F(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def density_rect(rng) -> tuple:
    """(fn, x1, x2, y1, y2): a density-witness query for p or q."""
    fn = rng.choice("pq")
    x1, y1 = frac(rng, 60, 9), frac(rng, 60, 9)
    return fn, x1, x1 + abs(frac(rng, 50, 9)) + F(1, 9), y1, y1 + abs(frac(rng, 50, 9)) + F(1, 9)


def ternary_preimage_args(rng, signed: bool) -> tuple:
    """(y, l, r): an h (or, if signed, hs) preimage query, y in [-100, 100]."""
    den = rng.randint(1, 500)
    y = F(rng.randint(-100 * den if signed else 0, 100 * den), den)
    l = frac(rng, 1000, 50)
    return y, l, l + F(rng.randint(1, 200), rng.randint(1, 50))
