"""Command-line front end.

Commands: eval, preimage, classify, density-witness, sample, hypo, cantor,
verify.  Exact kinds read and print the rational/surd literal syntaxes and
never go through floating point; only the two sine-based sample kinds are
floating-point, and exist purely to emit plot data.

Every exact input (--x, --y, --shift, --interval, --rect, the bounds of the
exact sample kinds, map coordinates, map entries and sqrt: radicands) is a
rational literal `n` or `n/d` with an optional leading minus, read by
`exactcore.parse_rational`: no exponent, no decimal point, and at most
4300 digits per integer.  Only the sine-based sample kinds take decimals.
Exact answers print at any size.

Exit codes: 0 success, 1 property failure, 2 usage or parse errors, and a
`sample` of more than MAX_SAMPLE_ROWS rows.

A command imports `cantor`, `projections`, `ternary`, `json` and `csv`
inside the handlers that use them, so it loads only the modules its
subcommand needs.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

# verify is imported here, not in _cmd_verify: perfbench imports this module
# and then rebinds the names verify imported (its IMPORT_SITES)
from . import qspan, verify
from .exactcore import format_rational, parse_rational
from .surds import QuadraticSurd, parse_surd, format_surd

QUASI_FNS = {"quasi:sin+x/2": 1, "quasi:sin-x/2": -1}

# rows of one `sample` run; more exit 2 before any row is evaluated
MAX_SAMPLE_ROWS = 10**6


def quasi_value(fn: str, x: float) -> float:
    """The two sine-based sample kinds (floating point, plot data only)."""
    return math.sin(x) + QUASI_FNS[fn] * x / 2.0


def _parse_float(text: str) -> float:
    """A bound of the sine-based sample kinds: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_pair(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected `l,r`, got {text!r}")
    return parse_rational(parts[0]), parse_rational(parts[1])


def _parse_rect(text: str) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected `x1,x2,y1,y2`, got {text!r}")
    return tuple(parse_rational(p) for p in parts)  # type: ignore[return-value]


def nonnegative_int(text: str) -> int:
    """argparse type of the count options: an integer >= 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _reciprocal(x: Fraction) -> Fraction:
    return 1 / x if x > 0 else Fraction(0)


def _rational_fn(fn: str, max_index: int):
    """(evaluate, format) for an exact function token on rational inputs."""
    if fn in ("p", "q"):
        from . import projections
        return (lambda x: projections.PROJECTIONS[fn](QuadraticSurd(x, 0))), format_surd
    if fn == "cf":
        from . import cantor
        return (lambda x: cantor.evaluate(x, max_index)[0]), format_rational
    from . import ternary
    table = {"h": ternary.evaluate, "hs": ternary.evaluate_signed, "recip": _reciprocal}
    if fn not in table:
        raise ValueError(f"not an exactly evaluable function: {fn!r}")
    return table[fn], format_rational


def _load_map(token: str) -> qspan.AdditiveMap:
    return qspan.load_map(token.split(":", 1)[1])


def _cmd_eval(args) -> int:
    fn = args.fn
    if fn in ("p", "q"):
        from . import projections
        x = parse_surd(args.x)
        value = projections.PROJECTIONS[fn](x)
        print(format_surd(value))
        return 0
    if fn in ("h", "hs", "recip"):
        x = parse_rational(args.x)
        if not args.show_digits or fn == "recip":
            point, fmt = _rational_fn(fn, args.max_index)
            print(fmt(point(x)))
        else:
            from . import ternary
            audit = ternary.digit_audit(x)  # one expansion gives the value and the digits
            print(audit["value"] if fn == "h" else audit["value_signed"])
            print(f"expansion: {audit['expansion']}")
            print(f"two_positions: {audit['two_positions']}")
            print(f"block_digits: {audit['block_digits'] or '-'}")
            print(f"tail_digits: {audit['tail_digits'] or '-'}")
        return 0
    if fn == "cf":
        from . import cantor
        x = parse_rational(args.x)
        value, upto = cantor.evaluate(x, args.max_index)
        print(format_rational(value))
        print(f"verified_up_to: {upto}")
        return 0
    if fn.startswith("map:"):
        f = _load_map(fn)
        x = qspan.parse_coords(args.x, f.basis)
        print(qspan.format_element(qspan.apply_map(f, x)))
        return 0
    raise ValueError(f"unknown function: {fn!r}")


def _cmd_preimage(args) -> int:
    y = parse_rational(args.y)
    l, r = _parse_pair(args.interval)
    if args.fn in ("h", "hs"):
        from . import ternary
        signed = args.fn == "hs"
        x = ternary.preimage(y, l, r, signed=signed)
        print(format_rational(x))
        value = ternary.evaluate_signed(x) if signed else ternary.evaluate(x)
        ok = value == y and l < x < r
        print(f"{args.fn}({format_rational(x)}) = {format_rational(value)}: "
              f"{'OK' if ok else 'FAIL'}")
        return 0 if ok else 1
    if args.fn == "cf":
        from . import cantor
        x, idx = cantor.preimage(y, l, r)
        print(format_rational(x))
        print(f"index: {idx}")
        value, at = cantor.evaluate(x, idx + 1)
        ok = value == y and at == idx and l < x < r
        print(f"cf({format_rational(x)}) = {format_rational(value)}: "
              f"{'OK' if ok else 'FAIL'}")
        return 0 if ok else 1
    raise ValueError(f"preimage supports h, hs, cf; got {args.fn!r}")


def _cmd_classify(args) -> int:
    if args.fn in ("p", "q"):
        from . import projections
        cls = projections.classify_shift(args.fn, parse_surd(args.shift))
        inc = format_surd(cls.increment)
    elif args.fn.startswith("map:"):
        f = _load_map(args.fn)
        t = qspan.parse_coords(args.shift, f.basis)
        cls = qspan.classify_shift(f, t)
        inc = qspan.format_element(cls.increment)
    else:
        raise ValueError(f"classify supports p, q, map:<file>; got {args.fn!r}")
    if cls.kind is qspan.ShiftKind.PERIOD:
        print("period")
    else:
        print(f"quasiperiod increment={inc} direction={cls.direction.value}")
    return 0


def _cmd_density_witness(args) -> int:
    from . import projections
    x1, x2, y1, y2 = _parse_rect(args.rect)
    w = projections.density_witness(args.fn, x1, x2, y1, y2)
    print(format_surd(w))
    value = projections.PROJECTIONS[args.fn](w)
    print(f"{args.fn}(x) = {format_surd(value)}: OK")
    return 0


def _sample_rows(args):
    fn = args.fn
    parse = _parse_float if fn in QUASI_FNS else parse_rational
    start, stop, step = parse(args.start), parse(args.stop), parse(args.step)
    if start >= stop or step <= 0:
        raise ValueError("need start < stop and positive step")
    if fn in QUASI_FNS:
        span = (stop - start) / step
        if not math.isfinite(span):
            raise ValueError("too many rows: (to - from) / step overflows a float")
        count = int(math.floor(span + 1e-9)) + 1
    else:
        count = (stop - start) // step + 1
    if count > MAX_SAMPLE_ROWS:
        raise ValueError(f"too many rows: {count}, at most {MAX_SAMPLE_ROWS}")
    xs = (start + i * step for i in range(count))
    if fn in QUASI_FNS:
        return [(x, quasi_value(fn, x)) for x in xs]
    point, fmt = _rational_fn(fn, args.max_index)
    return [(format_rational(x), fmt(point(x))) for x in xs]


def _cmd_sample(args) -> int:
    rows = _sample_rows(args)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        if args.format == "csv":
            import csv
            writer = csv.writer(fh)
            writer.writerow(["x", args.fn])
            writer.writerows(rows)
        else:
            import json
            json.dump({"fn": args.fn, "rows": [list(r) for r in rows]}, fh)
            fh.write("\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_hypo(args) -> int:
    x = parse_rational(args.x)
    y = parse_rational(args.y)
    value = _rational_fn(args.fn, args.max_index)[0](x)
    if isinstance(value, QuadraticSurd):
        value = value.a  # rational inputs stay rational under p and q
    print("true" if y <= value else "false")
    return 0


def _cmd_cantor(args) -> int:
    import json

    from . import cantor
    cantor.ensure_placed(args.max_index)
    for i in range(args.max_index):
        rec = cantor.placement_record(i)
        print(json.dumps({k: str(v) if type(v) is Fraction else v for k, v in rec.items()}, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    worst = 0
    for name in names:
        report = verify.run_suite(name, args.trials, args.seed)
        print(verify.report_json(report))
        print(f"{name}: {report.wall_ms:.1f} ms", file=sys.stderr)
        if not report.passed:
            worst = 1
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wildfuncs",
        description="Exact evaluation, classification and witness construction "
        "for pathological real functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a function exactly")
    p_eval.add_argument("--fn", required=True)
    p_eval.add_argument("--x", required=True)
    p_eval.add_argument("--max-index", type=nonnegative_int, default=32)
    p_eval.add_argument("--show-digits", action="store_true")
    p_eval.set_defaults(run=_cmd_eval)

    p_pre = sub.add_parser("preimage", help="in-interval preimage of a target")
    p_pre.add_argument("--fn", required=True)
    p_pre.add_argument("--y", required=True)
    p_pre.add_argument("--interval", required=True, metavar="l,r")
    p_pre.set_defaults(run=_cmd_preimage)

    p_cls = sub.add_parser("classify", help="period/quasiperiod of a shift")
    p_cls.add_argument("--fn", required=True)
    p_cls.add_argument("--shift", required=True)
    p_cls.set_defaults(run=_cmd_classify)

    p_dw = sub.add_parser("density-witness", help="graph point in a rectangle")
    p_dw.add_argument("--fn", required=True, choices=("p", "q"))
    p_dw.add_argument("--rect", required=True, metavar="x1,x2,y1,y2")
    p_dw.set_defaults(run=_cmd_density_witness)

    p_smp = sub.add_parser("sample", help="emit plot data")
    p_smp.add_argument("--fn", required=True)
    p_smp.add_argument("--from", dest="start", required=True)
    p_smp.add_argument("--to", dest="stop", required=True)
    p_smp.add_argument("--step", required=True)
    p_smp.add_argument("--out", required=True)
    p_smp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_smp.add_argument("--max-index", type=nonnegative_int, default=32)
    p_smp.set_defaults(run=_cmd_sample)

    p_hyp = sub.add_parser("hypo", help="hypograph membership y <= f(x)")
    p_hyp.add_argument("--fn", required=True)
    p_hyp.add_argument("--x", required=True)
    p_hyp.add_argument("--y", required=True)
    p_hyp.add_argument("--max-index", type=nonnegative_int, default=32)
    p_hyp.set_defaults(run=_cmd_hypo)

    p_can = sub.add_parser("cantor", help="placement audit dump (JSON lines)")
    p_can.add_argument("--max-index", type=nonnegative_int, required=True)
    p_can.set_defaults(run=_cmd_cantor)

    p_ver = sub.add_parser("verify", help="run a seeded property suite")
    p_ver.add_argument("--suite", required=True)
    p_ver.add_argument("--trials", type=nonnegative_int, default=200)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(run=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # parse_rational bounds every exact input, so CPython's guard on int/str
    # conversion (3.10.7 and later) is lifted to let exact answers print at
    # any size, and restored for the caller
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.run(args)
    except (ValueError, ZeroDivisionError, OSError, qspan.UndecidedComparisonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
