"""Spans around wildfuncs' public functions, installed from outside the package.

`install` wraps each function in `TARGETS` and rebinds the wrapper in every
wildfuncs module that holds the original under any name, so calls made
through `from .exactcore import to_expansion` style imports are recorded
too.  Spans live in flat arrays until the run ends; `reduce_spans` turns
them into additive sums that merge across processes, and `layer_metrics`
turns merged sums into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import sys
import time
from array import array
from fractions import Fraction

perf = time.perf_counter

# base-coprime part of a denominator: today's expansion strategy bands
_BANDS = ((10_000, "small"), (1_000_000, "mid"))


def _band(den: int, base: int) -> str:
    while den % base == 0:
        den //= base
    for limit, name in _BANDS:
        if den <= limit:
            return name
    return "large"


def _note_to_expansion(args, result):
    x, base = args[0], args[1]
    digits = len(result.integer_digits) + len(result.prefix) + len(result.cycle)
    # digits that decide h: the preperiod and the cycle through its first 2
    needed = len(result.prefix) + (result.cycle.find(2) + 1 or len(result.cycle))
    generated = len(result.prefix) + len(result.cycle)
    return base, _band(Fraction(x).denominator, base), digits, needed, generated


def _note_from_expansion(args, result):
    return args[0].base


def _note_place(args, result):
    return args[0]


def _note_real_sign_offset(args, result):
    return Fraction(args[1]), result is None


def _note_surjection_witness(args, result):
    return Fraction(args[2])


# (module, attribute, span name, note); a note of "count" records calls only
TARGETS = (
    ("exactcore", "to_expansion", "exactcore.to_expansion", _note_to_expansion),
    ("exactcore", "from_expansion", "exactcore.from_expansion", _note_from_expansion),
    ("exactcore", "fraction_value", "exactcore.fraction_value", None),
    ("exactcore", "cylinder_for_interval", "exactcore.cylinder_for_interval", None),
    ("exactcore", "parse_rational", "exactcore.parse_rational", None),
    ("exactcore", "format_rational", "exactcore.format_rational", None),
    ("ternary", "evaluate", "ternary.evaluate", None),
    ("ternary", "evaluate_signed", "ternary.evaluate_signed", None),
    ("ternary", "preimage", "ternary.preimage", None),
    ("cantor", "ensure_placed", "cantor.ensure_placed", None),
    ("cantor", "_place", "cantor.place", _note_place),
    ("cantor", "basis_interval", "cantor.basis_interval", "count"),
    ("cantor", "preimage", "cantor.preimage", None),
    ("cantor", "evaluate", "cantor.evaluate", None),
    ("cantor", "encode_value", "cantor.encode_value", None),
    ("cantor", "decode_bits", "cantor.decode_bits", None),
    ("surds", "surd_compare", "surds.surd_compare", None),
    ("surds", "surd_sign", "surds.surd_sign", None),
    ("surds", "surd_floor", "surds.surd_floor", None),
    ("projections", "classify_shift", "projections.classify_shift", None),
    ("projections", "density_witness", "projections.density_witness", None),
    ("projections", "simplest_dyadic_between", "projections.simplest_dyadic_between", None),
    ("qspan", "kernel_basis", "qspan.kernel_basis", None),
    ("qspan", "rank", "qspan.rank", None),
    ("qspan", "solve_image", "qspan.solve_image", None),
    ("qspan", "classify_shift", "qspan.classify_shift", None),
    ("qspan", "surjection_witness", "qspan.surjection_witness", _note_surjection_witness),
    ("qspan", "real_sign", "qspan.real_sign", None),
    ("qspan", "real_sign_offset", "qspan.real_sign_offset", _note_real_sign_offset),
    ("qspan", "enclosure_value", "qspan.enclosure_value", None),
    ("cli", "main", "cli.main", None),
)

VERIFY_SUITES = (
    "expansion-roundtrip", "expansion-canonical", "surd-order", "cylinder-soundness",
    "projection-identity", "classify-soundness", "density-witness", "h-roundtrip",
    "h-periodic", "h-zero-cases", "cantor-codec", "cantor-placement", "cantor-roundtrip",
    "additive-periodic-iff-noninjective", "additive-homogeneity", "additive-symmetry",
    "surjection-witness",
)
CLI_COMMANDS = ("eval", "preimage", "classify", "density-witness", "sample", "hypo", "cantor", "verify")


def _calls_self(*names):
    return [f"{n}.{s}" for n in names for s in ("calls", "self_s")]


LAYER_METRICS = (
    _calls_self("exactcore.to_expansion")
    + ["exactcore.to_expansion.digits"]
    + [f"exactcore.to_expansion.self_s.b{b}.{band}" for b in (2, 3) for band in ("small", "mid", "large")]
    + _calls_self("exactcore.from_expansion.b2", "exactcore.from_expansion.b3")
    + _calls_self("exactcore.fraction_value", "exactcore.cylinder_for_interval")
    + ["exactcore.parse_rational.calls", "exactcore.format_rational.calls"]
    + _calls_self("ternary.evaluate", "ternary.evaluate_signed")
    + ["ternary.evaluate.useful_digit_ratio"]
    + _calls_self("ternary.preimage", "cantor.ensure_placed")
    + ["cantor.placements_built", "cantor.place.0-63.s", "cantor.place.64-127.s", "cantor.place.128-.s"]
    + ["cantor.basis_interval.calls"]
    + _calls_self("cantor.preimage", "cantor.evaluate", "cantor.encode_value", "cantor.decode_bits")
    + _calls_self("surds.surd_compare", "surds.surd_sign", "surds.surd_floor")
    + _calls_self("projections.classify_shift", "projections.density_witness",
                  "projections.simplest_dyadic_between")
    + _calls_self("qspan.kernel_basis", "qspan.rank", "qspan.solve_image", "qspan.classify_shift",
                  "qspan.surjection_witness", "qspan.real_sign_offset", "qspan.enclosure_value")
    + ["qspan.enclosure_value.calls_per_sign", "qspan.surjection_witness.candidates_per_witness",
       "qspan.undecided_ratio"]
    + [f"verify.{s}.wall_ms" for s in VERIFY_SUITES]
    + ["cli.bare_interpreter_ms", "cli.import_ms", "cli.main.self_s"]
    + [f"cli.{c}.p50_ms" for c in CLI_COMMANDS]
    + ["trace.overhead_s", "trace.overhead_ratio"]
)


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith((".calls", ".digits", "placements_built")):
        return "count"
    if name.endswith(("_ratio", "_per_sign", "_per_witness")):
        return "1"
    if name.endswith("_ms"):
        return "ms"
    return "s"


class Tracer:
    """In-memory span store.  Span i has a name, start, end, the index of the
    span that was open when it started (-1 for none) and the id of the
    benchmark operation it belongs to."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.op = array("l")
        self.notes: dict[int, object] = {}
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []
        self.op_id = -1

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn, note=None):
        nid = len(self.names)
        self.names.append(name)
        starts, ends, parents, names, ops = self.start, self.end, self.parent, self.name, self.op
        stack, notes = self.stack, self.notes

        def traced(*args, **kwargs):
            i = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(nid)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if note is not None:
                notes[i] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def write(self, path) -> None:
        """Append the spans as CSV rows (the header goes into a new file).
        Span and parent ids count from 0 in each process, so they identify a
        span together with its operation id."""
        with open(path, "a", encoding="utf-8") as fh:
            if fh.tell() == 0:
                fh.write("op,span,parent,name,start,end\n")
            for i in range(len(self.start)):
                fh.write(f"{self.op[i]},{i},{self.parent[i]},{self.names[self.name[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f}\n")


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target and rebind it at each import site; returns the
    rebound sites as (module, attribute, original) for `uninstall`."""
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == "wildfuncs" or key.startswith("wildfuncs."))]
    sites = []
    for module_name, attr, span_name, note in TARGETS:
        home = sys.modules.get(f"wildfuncs.{module_name}")
        if home is None:
            continue
        original = getattr(home, attr)
        if note == "count":
            wrapper = tracer.counter(span_name, original)
        else:
            wrapper = tracer.wrap(span_name, original, note)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    sites.append((module, key, original))
    return sites


def uninstall(sites: list[tuple]) -> None:
    for module, key, original in sites:
        setattr(module, key, original)


def _add(sums: dict, key: str, value) -> None:
    sums[key] = sums.get(key, 0) + value


def reduce_spans(tracer: Tracer) -> dict:
    """Additive sums over all spans: per name `calls`, `self_s` (duration
    minus the time covered by child spans) and `busy_s` (duration of spans
    not nested in a span of the same name), plus the layer-specific tallies
    behind the ratios."""
    n = len(tracer)
    names = tracer.names
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    sums: dict = {}
    for name, count in tracer.counts.items():
        _add(sums, f"{name}.calls", count)
    for i in range(n):
        nid = tracer.name[i]
        name = names[nid]
        self_s = dur[i] - child[i]
        _add(sums, f"{name}.calls", 1)
        _add(sums, f"{name}.self_s", self_s)
        p = tracer.parent[i]
        while p >= 0 and tracer.name[p] != nid:
            p = tracer.parent[p]
        if p < 0:
            _add(sums, f"{name}.busy_s", dur[i])
        note = tracer.notes.get(i)
        if note is None:  # no note: the call raised, or its target takes none
            continue
        parent_name = names[tracer.name[tracer.parent[i]]] if tracer.parent[i] >= 0 else ""
        if name == "exactcore.to_expansion":
            base, band, digits, needed, generated = note
            _add(sums, "exactcore.to_expansion.digits", digits)
            _add(sums, f"exactcore.to_expansion.self_s.b{base}.{band}", self_s)
            if parent_name in ("ternary.evaluate", "ternary.evaluate_signed"):
                _add(sums, "ternary.useful_digits", needed)
                _add(sums, "ternary.generated_digits", generated)
        elif name == "exactcore.from_expansion":
            _add(sums, f"exactcore.from_expansion.b{note}.calls", 1)
            _add(sums, f"exactcore.from_expansion.b{note}.self_s", self_s)
        elif name == "cantor.place":
            band = "0-63" if note < 64 else "64-127" if note < 128 else "128-"
            _add(sums, "cantor.placements_built", 1)
            _add(sums, f"cantor.place.{band}.s", dur[i])
        elif name == "qspan.real_sign_offset":
            offset, undecided = note
            _add(sums, "qspan.undecided", int(undecided))
            if parent_name == "qspan.surjection_witness" and offset == tracer.notes.get(tracer.parent[i]):
                _add(sums, "qspan.surjection_witness.candidates", 1)
    return sums


def merge(total: dict, part: dict) -> None:
    for key, value in part.items():
        _add(total, key, value)


def layer_metrics(sums: dict) -> dict:
    """Per-layer metrics from merged sums; layers a workload never calls read 0."""

    def ratio(num, den):
        return sums.get(num, 0) / sums[den] if sums.get(den) else 0.0

    out = {name: sums.get(name, 0) for name in LAYER_METRICS}
    out["ternary.evaluate.useful_digit_ratio"] = ratio("ternary.useful_digits", "ternary.generated_digits")
    out["qspan.enclosure_value.calls_per_sign"] = ratio("qspan.enclosure_value.calls", "qspan.real_sign_offset.calls")
    out["qspan.surjection_witness.candidates_per_witness"] = ratio(
        "qspan.surjection_witness.candidates", "qspan.surjection_witness.calls")
    out["qspan.undecided_ratio"] = ratio("qspan.undecided", "qspan.real_sign_offset.calls")
    return out
