"""The cli workload: README-tour commands, each run as a fresh
`python -m wildfuncs.cli` under a deadline, and the check of each output.

A block is 50 commands in seeded order: 47 short ones, `cantor --max-index
64`, `verify --suite all --trials 200` and one runaway literal.  The runaway
literals do not finish today; they stay in the workload on purpose, so that
work limits or faster engines show as fewer missed deadlines.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import selectors
import subprocess
import time
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

import reference as ref
from common import PYTHON, ROOT, StartupSpeed, child_env, density_rect, frac, ternary_preimage_args

# slowest legitimate command (verify --suite all) takes about 1.1 s; the
# runaway literals take 27 s and more than 5 min
DEADLINE_S = 4.0
# a run has at least 100 commands, so cmd_p90_ms has ten samples beyond it
MIN_BLOCKS = 2

RUNAWAY = (
    (["eval", "--fn", "h", "--x", "1/100000037"], "0\n"),
    (["preimage", "--fn", "cf", "--y", "1/2", "--interval", "1/3,1/2"], None),
    (["preimage", "--fn", "cf", "--y", "1/2", "--interval", "2,3"], None),
)

# stdout digests of the fixed-output commands; these outputs must stay
# byte-identical
HEAVY = (
    (["cantor", "--max-index", "64"], "a412551d7b544e18585b8eb46c4830cb155f8e9e4550a1f5d18ca29d61908c5f"),
    (["verify", "--suite", "all", "--trials", "200", "--seed", "7"],
     "520a341fa1ee55f6111a0775ae8051a2adb66d08c12dfea7c8684885559c9f96"),
)

SHORT_MIX = (("eval-h", 4), ("eval-hs", 3), ("eval-p", 3), ("eval-q", 3), ("eval-cf", 3),
             ("eval-recip", 2), ("eval-map", 3), ("preimage-h", 3), ("preimage-hs", 3),
             ("preimage-cf", 5), ("classify-pq", 3), ("classify-map", 2), ("density-witness", 4),
             ("hypo", 3), ("sample", 3))
TINY_MIX = tuple((kind, 1) for kind, _ in SHORT_MIX)

RADICANDS = (1, 2, 3)
# the README tour's interval, least enumeration index 52.  With 5 such
# preimages per block these set cmd_p90_ms: the slower commands (runaway,
# verify, cantor) stay below 10 percent of a block.
CF_INTERVAL = (F(0), F(1))


@dataclass
class Command:
    argv: list          # arguments after `python -m wildfuncs.cli`
    check: object       # stdout -> bool
    runaway: bool = False

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Outcome:
    code: int | None    # None: killed at the deadline
    stdout: str
    stderr: str
    seconds: float      # wall time, spawn to reaped
    cpu_s: float        # the child's CPU time, user + system, scaled by StartupSpeed
    rss_mb: float


def _surd_text(a, b) -> str:
    return f"{a}+{b}*s2"


def _lines_equal(expected: str):
    return lambda out: out == expected


def _apply(matrix, coords):
    return [sum((m * c for m, c in zip(row, coords)), F(0)) for row in matrix]


def _write_map(rng, workdir: Path, name: str):
    # singular half the time, so classify sees periods as well as quasiperiods
    if rng.random() < 0.5:
        u = [frac(rng, 5, 4) for _ in RADICANDS]
        v = [frac(rng, 5, 4) for _ in RADICANDS]
        matrix = [[a * b for b in v] for a in u]
    else:
        matrix = [[frac(rng, 9, 7) for _ in RADICANDS] for _ in RADICANDS]
    path = workdir / name
    path.write_text(json.dumps({"basis": ["1", "sqrt:2", "sqrt:3"],
                                "matrix": [[str(v) for v in row] for row in matrix]}))
    return matrix, path


def _h_argument(rng) -> F:
    if rng.random() < 0.5:
        k = rng.randint(4, 10)  # ternary denominators give nonzero values
        return F(rng.randint(1, 3**k - 1), 3**k) + rng.randint(-3, 3)
    return frac(rng, 10_000, 10_000)


def _preimage_check(y, l, r, signed):
    def check(out):
        lines = out.splitlines()
        if len(lines) != 2 or not lines[1].endswith(": OK"):
            return False
        x = F(lines[0])
        return l < x < r and ref.ternary_map(x, signed) == y
    return check


def _cf_preimage_check(l, r):
    def check(out):
        lines = out.splitlines()
        return (len(lines) == 3 and l < F(lines[0]) < r and lines[1].startswith("index: ")
                and lines[2].endswith(": OK"))
    return check


def _density_check(fn, x1, x2, y1, y2):
    def check(out):
        lines = out.splitlines()
        if len(lines) != 2 or not lines[1].endswith(": OK"):
            return False
        a, b = (F(part) for part in lines[0][: -len("*s2")].split("+", 1))
        inside_x = ref.sqrt2_sign(a - x1, b) > 0 and ref.sqrt2_sign(x2 - a, -b) > 0
        if fn == "p":
            return inside_x and y1 < a < y2
        return inside_x and ref.sqrt2_sign(-y1, b) > 0 and ref.sqrt2_sign(y2, -b) > 0
    return check


def _cf_eval_check(bound):
    def check(out):
        lines = out.splitlines()
        if len(lines) != 2 or not lines[1].startswith("verified_up_to: "):
            return False
        F(lines[0])
        return 0 <= int(lines[1].split(": ")[1]) <= bound
    return check


def _short(kind: str, rng, workdir: Path, maps: list) -> Command:
    if kind in ("eval-h", "eval-hs"):
        x = _h_argument(rng)
        fn = kind[5:]
        return Command(["eval", "--fn", fn, f"--x={x}"], _lines_equal(f"{ref.ternary_map(x, fn == 'hs')}\n"))
    if kind in ("eval-p", "eval-q"):
        a, b = frac(rng, 1000, 60), frac(rng, 1000, 60)
        want = _surd_text(a, 0) if kind == "eval-p" else _surd_text(0, b)
        return Command(["eval", "--fn", kind[5:], f"--x={_surd_text(a, b)}"], _lines_equal(want + "\n"))
    if kind == "eval-cf":
        x, bound = frac(rng, 300, 64), rng.choice((8, 16, 32))
        return Command(["eval", "--fn", "cf", f"--x={x}", "--max-index", str(bound)], _cf_eval_check(bound))
    if kind == "eval-recip":
        x = frac(rng, 1000, 1000)
        return Command(["eval", "--fn", "recip", f"--x={x}"], _lines_equal(f"{1 / x if x > 0 else 0}\n"))
    if kind == "eval-map":
        matrix, path = rng.choice(maps)
        coords = [frac(rng, 12, 8) for _ in RADICANDS]
        want = ",".join(map(str, _apply(matrix, coords))) + "\n"
        return Command(["eval", "--fn", f"map:{path}", "--x=" + ",".join(map(str, coords))], _lines_equal(want))
    if kind in ("preimage-h", "preimage-hs"):
        signed = kind == "preimage-hs"
        y, l, r = ternary_preimage_args(rng, signed)
        return Command(["preimage", "--fn", kind[9:], f"--y={y}", f"--interval={l},{r}"],
                       _preimage_check(y, l, r, signed))
    if kind == "preimage-cf":
        l, r = CF_INTERVAL
        y = F(rng.randint(-300, 300), rng.randint(1, 64))
        return Command(["preimage", "--fn", "cf", f"--y={y}", f"--interval={l},{r}"], _cf_preimage_check(l, r))
    if kind == "classify-pq":
        fn = rng.choice("pq")
        a, b = frac(rng, 60, 24), frac(rng, 60, 24)
        if a == b == 0:
            a = F(1)
        inc = (a, F(0)) if fn == "p" else (F(0), b)
        if inc == (0, 0):
            want = "period\n"
        else:
            same = ref.sqrt2_sign(a, b) == ref.sqrt2_sign(*inc)
            want = (f"quasiperiod increment={_surd_text(*inc)} "
                    f"direction={'increasing' if same else 'decreasing'}\n")
        return Command(["classify", "--fn", fn, f"--shift={_surd_text(a, b)}"], _lines_equal(want))
    if kind == "classify-map":
        matrix, path = rng.choice(maps)
        t = [frac(rng, 12, 8) for _ in RADICANDS]
        if not any(t):
            t[0] = F(1)
        inc = _apply(matrix, t)
        if not any(inc):
            want = "period\n"
        else:
            same = ref.surd_sum_sign(t, RADICANDS) == ref.surd_sum_sign(inc, RADICANDS)
            want = (f"quasiperiod increment={','.join(map(str, inc))} "
                    f"direction={'increasing' if same else 'decreasing'}\n")
        return Command(["classify", "--fn", f"map:{path}", "--shift=" + ",".join(map(str, t))], _lines_equal(want))
    if kind == "density-witness":
        fn, x1, x2, y1, y2 = density_rect(rng)
        return Command(["density-witness", "--fn", fn, f"--rect={x1},{x2},{y1},{y2}"],
                       _density_check(fn, x1, x2, y1, y2))
    if kind == "hypo":
        fn = rng.choice(("recip", "h"))
        x = frac(rng, 1000, 1000) if fn == "recip" else _h_argument(rng)
        value = (1 / x if x > 0 else F(0)) if fn == "recip" else ref.ternary_map(x)
        y = value + rng.choice((-1, 0, 1)) * frac(rng, 10, 10)
        return Command(["hypo", "--fn", fn, f"--x={x}", f"--y={y}"],
                       _lines_equal("true\n" if y <= value else "false\n"))
    if kind == "sample":
        out = workdir / f"sample-{rng.randrange(10**9)}.csv"
        start = rng.randint(-10, 10)
        if rng.random() < 0.5:
            fn, stop, step = rng.choice("pq"), start + rng.randint(1, 3), F(1, rng.randint(20, 100))
            rows, step_text = int((stop - start) / step) + 1, str(step)
        else:  # the float sampler takes a decimal step
            fn, stop, rows, step_text = "quasi:sin+x/2", start + 20, 2001, "0.01"
        argv = ["sample", "--fn", fn, f"--from={start}", f"--to={stop}", f"--step={step_text}", f"--out={out}"]
        return Command(argv, lambda text: text == f"wrote {rows} rows to {out}\n"
                       and len(out.read_text().splitlines()) == rows + 1)
    raise ValueError(kind)


def make_block(seed: int, block: int, workdir: Path, tiny: bool = False) -> list:
    rng = random.Random(f"cli/{seed}/{block}")
    maps = [_write_map(rng, workdir, f"map-{block}-{k}.json") for k in range(2)]
    commands = [_short(kind, rng, workdir, maps)
                for kind, count in (TINY_MIX if tiny else SHORT_MIX) for _ in range(count)]
    for argv, digest in HEAVY:
        commands.append(Command(argv, lambda out, d=digest: hashlib.sha256(out.encode()).hexdigest() == d))
    argv, want = RUNAWAY[(seed + block) % len(RUNAWAY)]
    check = _lines_equal(want) if want else (lambda out: out.rstrip().endswith(": OK"))
    commands.append(Command(argv, check, runaway=True))
    rng.shuffle(commands)
    return commands


def run(argv: list, speed: StartupSpeed, deadline: float = DEADLINE_S) -> Outcome:
    """Run one child to completion or to the deadline (then kill it),
    reading both pipes as they fill; the child is reaped with wait4 so its
    own CPU time and peak resident set are known.  `speed` scales the CPU
    time; its bare interpreter starts after the child has been reaped."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT)
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    killed = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + deadline - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                killed = True
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = b"".join(chunks[proc.stdout.fileno()]).decode(errors="replace")
    stderr = b"".join(chunks[proc.stderr.fileno()]).decode(errors="replace")
    proc.stdout.close()
    proc.stderr.close()
    return Outcome(None if killed else proc.returncode, stdout, stderr, seconds,
                   (usage.ru_utime + usage.ru_stime) * speed.factor(), usage.ru_maxrss / 1024)


def cli_argv(command: Command) -> list:
    return [PYTHON, "-m", "wildfuncs.cli", *command.argv]


def passed(command: Command, outcome: Outcome) -> bool:
    if outcome.code != 0:
        return False
    try:
        return bool(command.check(outcome.stdout))
    except (ValueError, OSError):
        return False
