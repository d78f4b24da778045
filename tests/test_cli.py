import csv
import hashlib
import json
import math
import subprocess
import sys
import time

import pytest

from wildfuncs import cantor, cli, projections, qspan, ternary
from wildfuncs.cli import main
from wildfuncs.exactcore import format_rational, parse_rational
from wildfuncs.surds import QuadraticSurd, parse_surd

from test_qspan import BAD_MAP_FILES

LONG = "1" * 4301  # one digit past the bound of parse_rational
OK_MAP = {"basis": ["1", "sqrt:2"], "matrix": [["1", "0"], ["0", "0"]]}
# (map file text or None for `--fn h`, --x): exponents and over-long
# integers in every exact input that eval reads
REFUSED_LITERALS = {
    "exponent-x": (None, "1e3"),
    "long-x": (None, LONG),
    "exponent-coordinate": (json.dumps(OK_MAP), "1e-999999999,0"),
    "long-coordinate": (json.dumps(OK_MAP), f"{LONG},0"),
    "long-json-integer": ('{"basis": ["1", "sqrt:2"], "matrix": [[%s, 0], [0, 0]]}' % LONG, "1,0"),
    **{name: (json.dumps(BAD_MAP_FILES[name]), "1,0") for name in (
        "exponent-entry", "long-entry", "long-radicand", "fraction-radicand", "underscore-radicand"
    )},
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_h(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "h", "--x", "226/243")
        assert code == 0 and out.strip() == "5/8"

    def test_p_surd(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "p", "--x", "3+2*s2")
        assert code == 0 and out.strip() == "3+0*s2"

    def test_recip(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "recip", "--x", "2")
        assert code == 0 and out.strip() == "1/2"
        code, out, _ = run(capsys, "eval", "--fn", "recip", "--x", "-1")
        assert out.strip() == "0"

    def test_cf_prints_bound(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "cf", "--x", "1000", "--max-index", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "0"
        assert lines[1] == "verified_up_to: 6"

    def test_show_digits(self, capsys):
        code, out, _ = run(capsys, "eval", "--fn", "h", "--x", "70/81", "--show-digits")
        assert code == 0
        assert out.splitlines()[0] == "3/2"
        assert "expansion: 0.2121" in out
        assert "two_positions: (0, 2)" in out

    def test_map_file(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"basis": ["1", "sqrt:2"], "matrix": [["1", "0"], ["0", "0"]]}))
        code, out, _ = run(capsys, "eval", "--fn", f"map:{path}", "--x", "3,2")
        assert code == 0 and out.strip() == "3,0"

    def test_map_file_repeated_symbol_exit_two(self, capsys, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({
            "basis": ["1", "opaque:pi", "opaque:pi"],
            "matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        }))
        code, out, err = run(capsys, "eval", "--fn", f"map:{path}", "--x", "0,1,-1")
        assert code == 2 and out == "" and "pairwise distinct" in err
        code, _, err = run(capsys, "classify", "--fn", f"map:{path}", "--shift", "0,1,-1")
        assert code == 2 and "pairwise distinct" in err

    @pytest.mark.parametrize("radicand, accepted", [
        (15, True), (999999999989, True), (18, False), (50, False), (1000000000039, False),
    ])
    def test_map_file_radicand(self, capsys, tmp_path, radicand, accepted):
        # squarefree is checked by trial division, so radicands above
        # 10**12 are refused before it starts
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"basis": ["1", f"sqrt:{radicand}"], "matrix": [["1", "0"], ["0", "0"]]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--fn", f"map:{path}", "--x", "3,2")
        assert time.perf_counter() - start < 1
        if accepted:
            assert code == 0 and out.strip() == "3,0"
        else:
            assert code == 2 and out == "" and err.startswith("error: radicand must be")
            assert ("10**12" in err) == (radicand > 10**12)

    @pytest.mark.parametrize("name", BAD_MAP_FILES)
    def test_map_file_bad_shape_exit_two(self, capsys, tmp_path, name):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(BAD_MAP_FILES[name]))
        code, out, err = run(capsys, "eval", "--fn", f"map:{path}", "--x", "3,2")
        assert code == 2 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("name", REFUSED_LITERALS)
    def test_literal_refused_at_once(self, capsys, tmp_path, name):
        map_text, x = REFUSED_LITERALS[name]
        fn = "h"
        if map_text is not None:
            path = tmp_path / "m.json"
            path.write_text(map_text)
            fn = f"map:{path}"
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--fn", fn, "--x", x)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and err.startswith("error: ")
        assert ("at most 4300 digits" in err) == name.startswith("long-")

    def test_4300_digit_literals_accepted(self, capsys, tmp_path):
        n = "9" * 4300
        code, out, _ = run(capsys, "eval", "--fn", "h", "--x", n)
        assert code == 0 and out == "0\n"
        # a JSON integer and a string entry at the bound; the answer is longer
        path = tmp_path / "m.json"
        path.write_text('{"basis": ["1", "sqrt:2"], "matrix": [[%s, 0], [0, "%s"]]}' % (n, n))
        code, out, _ = run(capsys, "eval", "--fn", f"map:{path}", "--x", f"10,{n}")
        # (10**4300 - 1)**2 = 10**8600 - 2 * 10**4300 + 1
        assert code == 0 and out == f"{n}0,{'9' * 4299}8{'0' * 4299}1\n"

    def test_show_digits_expands_once(self, capsys, monkeypatch):
        calls = []
        expand = ternary.to_expansion

        def counted(*args):
            calls.append(args)
            return expand(*args)

        monkeypatch.setattr(ternary, "to_expansion", counted)
        for fn in ("h", "hs"):
            calls.clear()
            code, out, _ = run(capsys, "eval", "--fn", fn, "--x", "70/81", "--show-digits")
            assert code == 0 and out.splitlines()[0] == ("3/2" if fn == "h" else "1/2")
            assert len(calls) == 1

    def test_runaway_cycles_decided_by_their_lead(self, capsys):
        # cycles of about 10**8 and 5*10**8 digits, each with an early 2
        for fn, x in (("h", "1/100000037"), ("hs", "1/1000000007")):
            code, out, _ = run(capsys, "eval", "--fn", fn, "--x", x)
            assert code == 0 and out.strip() == "0"

    def test_cf_runaway_cycle_decided_at_first_one(self, capsys):
        # x lies in hull 3, where t has a base-3 cycle of about 5*10**8
        # digits whose first digit is a 1; the whole cycle took 11 s and
        # 1.45 GB to build
        start = time.process_time()
        code, out, _ = run(capsys, "eval", "--fn", "cf", "--x", "1/1000000007", "--max-index", "8")
        assert time.process_time() - start < 1
        assert code == 0 and out.splitlines() == ["0", "verified_up_to: 8"]

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(capsys, "eval", "--fn", "h", "--x", "not-a-number")
        assert code == 2 and "error:" in err

    def test_zero_denominator_rational(self, capsys):
        code, out, err = run(capsys, "eval", "--fn", "h", "--x", "1/0")
        assert code == 2 and out == ""
        assert err.strip() == "error: zero denominator in rational literal: '1/0'"

    def test_zero_denominator_surd(self, capsys):
        for x in ("1/0+1*s2", "1+3/0*s2"):
            code, out, err = run(capsys, "eval", "--fn", "p", "--x", x)
            assert code == 2 and out == ""
            assert "zero denominator in rational literal" in err and "/0'" in err

    def test_exact_output_parses_back(self, capsys):
        _, out, _ = run(capsys, "eval", "--fn", "h", "--x", "70/81")
        assert parse_rational(out.strip()) * 2 == 3
        _, out, _ = run(capsys, "eval", "--fn", "q", "--x", "5+-7/3*s2")
        assert parse_surd(out.strip()).b * 3 == -7


class TestPreimage:
    def test_h_golden(self, capsys):
        code, out, _ = run(capsys, "preimage", "--fn", "h", "--y", "5/8", "--interval", "1/2,2/3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "3628/6561"
        assert lines[1].endswith(": OK")

    def test_cf(self, capsys):
        # values starting with a dash use the `=` form, as argparse expects
        code, out, _ = run(capsys, "preimage", "--fn", "cf", "--y=-4/3", "--interval=-3/2,1/2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].startswith("index: ")
        assert lines[2].endswith(": OK")

    def test_unsigned_negative_target(self, capsys):
        code, _, err = run(capsys, "preimage", "--fn", "h", "--y", "-1", "--interval", "0,1")
        assert code == 2 and "error:" in err

    def test_empty_interval(self, capsys):
        code, _, err = run(capsys, "preimage", "--fn", "h", "--y", "1", "--interval", "1/3,1/3")
        assert code == 2

    def test_malformed_interval_exit_two(self, capsys):
        for interval in ("1/3", "0,1,2", "0,x"):
            code, out, err = run(capsys, "preimage", "--fn", "h", "--y", "1", "--interval", interval)
            assert code == 2 and out == "" and err.startswith("error: "), interval

    def test_unsupported_function_exit_two(self, capsys):
        code, out, err = run(capsys, "preimage", "--fn", "p", "--y", "1", "--interval", "0,1")
        assert code == 2 and out == "" and "preimage supports h, hs, cf" in err

    def test_runaway_cf_literals(self, capsys):
        # the least basis intervals inside these are indices 2053 and 2227;
        # placing that many sets from cold took 10-12 s before the hull forest
        for interval in ("1/3,1/2", "2,3"):
            cantor._reset_state()
            start = time.perf_counter()
            code, out, _ = run(capsys, "preimage", "--fn", "cf", "--y", "1/2", "--interval", interval)
            assert time.perf_counter() - start < 4, interval
            assert code == 0 and out.strip().endswith(": OK")

    def test_answer_longer_than_4300_digits(self, capsys):
        # the witness has 15656 decimal digits in one integer
        code, out, _ = run(capsys, "preimage", "--fn", "h", "--y", "1/65539", "--interval", "0,1")
        assert code == 0 and out.rstrip().endswith(": OK")
        assert len(out.splitlines()[0]) == 31275


class TestClassify:
    def test_period(self, capsys):
        code, out, _ = run(capsys, "classify", "--fn", "p", "--shift", "0+1*s2")
        assert code == 0 and out.strip() == "period"

    def test_quasiperiod(self, capsys):
        code, out, _ = run(capsys, "classify", "--fn", "p", "--shift=-1+1*s2")
        assert code == 0
        assert out.strip() == "quasiperiod increment=-1+0*s2 direction=decreasing"

    def test_zero_shift(self, capsys):
        code, _, err = run(capsys, "classify", "--fn", "q", "--shift", "0+0*s2")
        assert code == 2

    @pytest.mark.parametrize("shift, want", [
        ("0,1", "period"),
        ("1,1", "quasiperiod increment=1,0 direction=increasing"),
        ("1,-1", "quasiperiod increment=1,0 direction=decreasing"),
    ])
    def test_map_file(self, capsys, tmp_path, shift, want):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"basis": ["1", "sqrt:2"], "matrix": [["1", "0"], ["0", "0"]]}))
        code, out, _ = run(capsys, "classify", "--fn", f"map:{path}", "--shift", shift)
        assert code == 0 and out.strip() == want
        f = qspan.load_map(str(path))
        cls = qspan.classify_shift(f, qspan.parse_coords(shift, f.basis))
        if cls.kind is qspan.ShiftKind.PERIOD:
            assert want == "period"
        else:
            assert want.split()[1:] == [
                f"increment={qspan.format_element(cls.increment)}", f"direction={cls.direction.value}"
            ]

    def test_unsupported_function_exit_two(self, capsys):
        code, out, err = run(capsys, "classify", "--fn", "h", "--shift", "1")
        assert code == 2 and out == "" and "classify supports" in err


class TestDensityWitness:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "density-witness", "--fn", "p", "--rect", "0,1,5,6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "11/2+-7/2*s2"
        assert lines[1].endswith(": OK")

    def test_malformed_rect_exit_two(self, capsys):
        code, out, err = run(capsys, "density-witness", "--fn", "p", "--rect", "0,1,5")
        assert code == 2 and out == "" and "expected `x1,x2,y1,y2`" in err


class TestSample:
    def test_quasi_csv(self, capsys, tmp_path):
        out_file = tmp_path / "g.csv"
        code, out, _ = run(
            capsys, "sample", "--fn", "quasi:sin+x/2",
            "--from", "-10", "--to", "10", "--step", "0.01", "--out", str(out_file),
        )
        assert code == 0
        with open(out_file) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "quasi:sin+x/2"]
        assert len(rows) - 1 == 2001
        xs = [float(r[0]) for r in rows[1:]]
        assert xs == sorted(xs)
        # g(0) = 0
        mid = min(rows[1:], key=lambda r: abs(float(r[0])))
        assert abs(float(mid[1])) < 1e-12
        # rows hold sin(x) + x/2
        for r in (rows[1], rows[1001], rows[2001]):
            x = float(r[0])
            assert abs(float(r[1]) - (math.sin(x) + x / 2)) < 1e-12
        # quasiperiod spot check on the emitted data
        data = [(float(r[0]), float(r[1])) for r in rows[1:]]
        for i in (0, 500, 1000):
            x, gx = data[i]
            assert abs((math.sin(x + 2 * math.pi) + (x + 2 * math.pi) / 2) - gx - math.pi) < 1e-9

    def test_exact_rational_grid(self, capsys, tmp_path):
        out_file = tmp_path / "p.csv"
        code, _, _ = run(
            capsys, "sample", "--fn", "p",
            "--from", "0", "--to", "1", "--step", "1/100", "--out", str(out_file),
        )
        assert code == 0
        with open(out_file) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 101
        assert rows[1] == ["0", "0+0*s2"]
        assert rows[2] == ["1/100", "1/100+0*s2"]

    def test_json_format(self, capsys, tmp_path):
        out_file = tmp_path / "h.json"
        code, _, _ = run(
            capsys, "sample", "--fn", "h",
            "--from", "0", "--to", "1", "--step", "1/4",
            "--out", str(out_file), "--format", "json",
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["fn"] == "h"
        assert len(data["rows"]) == 5

    def test_cf_matches_evaluate(self, capsys, tmp_path):
        # the grid meets the hulls of sets 0 and 1, at Cantor points and not
        out_file = tmp_path / "cf.csv"
        code, _, _ = run(
            capsys, "sample", "--fn", "cf", "--max-index", "8",
            "--from=-1", "--to", "1", "--step", "1/16", "--out", str(out_file),
        )
        assert code == 0
        with open(out_file) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "cf"] and len(rows) - 1 == 33
        for x, value in rows[1:]:
            assert value == format_rational(cantor.evaluate(parse_rational(x), 8)[0]), x
        assert {value for _, value in rows[1:]} != {"0"}

    def test_malformed_from_exit_two(self, capsys, tmp_path):
        out_file = tmp_path / "x.csv"
        code, out, err = run(
            capsys, "sample", "--fn", "h",
            "--from", "one", "--to", "1", "--step", "1/4", "--out", str(out_file),
        )
        assert code == 2 and out == "" and "not a number: 'one'" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("fn, start, step", [
        ("h", "0", "1e-999999999"),
        ("h", "0", "0.25"),
        ("quasi:sin+x/2", "-inf", "0.01"),
        ("quasi:sin+x/2", "0", "nan"),
        ("quasi:sin+x/2", "0", "1e-999999999"),
    ])
    def test_bound_refused_at_once(self, capsys, tmp_path, fn, start, step):
        # exact kinds take rational literals only; the float samplers take
        # finite floats and a positive step
        out_file = tmp_path / "x.csv"
        t0 = time.perf_counter()
        code, out, err = run(
            capsys, "sample", "--fn", fn,
            f"--from={start}", "--to", "1", "--step", step, "--out", str(out_file),
        )
        assert time.perf_counter() - t0 < 1
        assert code == 2 and out == "" and err.startswith("error: ")
        assert not out_file.exists()

    def test_float_span_overflow_exit_two(self, capsys, tmp_path):
        # (to - from) / step is inf: refused before any row is counted
        out_file = tmp_path / "q.csv"
        code, out, err = run(
            capsys, "sample", "--fn", "quasi:sin+x/2",
            "--from=-1e308", "--to", "1e308", "--step", "1", "--out", str(out_file),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_file.exists()

    @pytest.mark.parametrize("fn, step, count", [
        ("h", "1/1000000000", "1000000001"),
        ("quasi:sin+x/2", "1e-300", "9999999999999999038"),
    ])
    def test_row_cap_refused_at_once(self, capsys, tmp_path, fn, step, count):
        # the rows are counted before any is evaluated; both ran until killed
        out_file = tmp_path / "s.csv"
        t0 = time.perf_counter()
        code, out, err = run(
            capsys, "sample", "--fn", fn,
            "--from", "0", "--to", "1", "--step", step, "--out", str(out_file),
        )
        assert time.perf_counter() - t0 < 3
        assert code == 2 and out == ""
        assert err.startswith(f"error: too many rows: {count}") and err.count("\n") == 1
        assert not out_file.exists()

    def test_row_cap_boundary(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SAMPLE_ROWS", 5)
        out_file = tmp_path / "h.csv"
        argv = ["sample", "--fn", "h", "--from", "0", "--to", "1", "--out", str(out_file)]
        assert run(capsys, *argv, "--step", "1/4") == (0, f"wrote 5 rows to {out_file}\n", "")
        code, _, err = run(capsys, *argv, "--step", "1/5")
        assert code == 2 and err == "error: too many rows: 6, at most 5\n"

    def test_bad_range(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sample", "--fn", "h",
            "--from", "1", "--to", "0", "--step", "1/4",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2


class TestHypo:
    def test_examples(self, capsys):
        assert run(capsys, "hypo", "--fn", "recip", "--x", "2", "--y", "2/5")[1].strip() == "true"
        assert run(capsys, "hypo", "--fn", "recip", "--x", "2", "--y", "3/5")[1].strip() == "false"
        assert run(capsys, "hypo", "--fn", "recip", "--x", "-1", "--y", "0")[1].strip() == "true"

    @pytest.mark.parametrize("fn", ["p", "q"])
    def test_projections(self, capsys, fn):
        # on a rational x, p gives x and q gives 0
        for x, y in (("5/3", "5/3"), ("5/3", "2"), ("-2", "-2"), ("-2", "0"), ("0", "1/9")):
            value = projections.PROJECTIONS[fn](QuadraticSurd(parse_rational(x), 0))
            want = "true" if parse_rational(y) <= value.a else "false"
            code, out, _ = run(capsys, "hypo", "--fn", fn, f"--x={x}", f"--y={y}")
            assert code == 0 and out.strip() == want, (x, y)

    def test_cf(self, capsys):
        x, index = cantor.preimage(parse_rational("5/2"), parse_rational("-1/2"), 2)
        assert index == 1 and cantor.evaluate(x, 8) == (parse_rational("5/2"), index)
        for y, want in (("5/2", "true"), ("2", "true"), ("3", "false")):
            code, out, _ = run(capsys, "hypo", "--fn", "cf", f"--x={x}", "--y", y, "--max-index", "8")
            assert code == 0 and out.strip() == want, y
        # past the bound every x reads 0
        code, out, _ = run(capsys, "hypo", "--fn", "cf", f"--x={x}", "--y", "1", "--max-index", str(index))
        assert code == 0 and out.strip() == "false"


class TestCantorDump:
    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "cantor", "--max-index", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first == {
            "index": 0, "a": "-1", "b": "0", "c": "-3/4", "d": "-1/4", "depth": 0,
        }


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "h-roundtrip", "--trials", "25", "--seed", "42")
        assert code == 0
        body = json.loads(out)
        assert body["passed"] is True and body["failures"] == []

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "cantor-codec", "--trials", "30", "--seed", "9")
        _, out2, _ = run(capsys, "verify", "--suite", "cantor-codec", "--trials", "30", "--seed", "9")
        assert out1 == out2

    def test_unknown_suite_exit_two(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nosuch")
        assert code == 2 and "error:" in err

    def test_suite_all_one_report_per_suite(self, capsys):
        from wildfuncs import verify

        code, out, _ = run(capsys, "verify", "--suite", "all", "--trials", "5", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(verify.SUITES)
        assert [json.loads(l)["suite"] for l in lines] == list(verify.SUITES)

    def test_cross_process_determinism(self):
        # byte-identical output across interpreter processes, not just calls
        cmd = [
            sys.executable, "-m", "wildfuncs.cli",
            "verify", "--suite", "cantor-codec", "--trials", "40", "--seed", "13",
        ]
        a = subprocess.run(cmd, capture_output=True, text=True)
        b = subprocess.run(cmd, capture_output=True, text=True)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_failing_suite_exit_one(self, capsys, monkeypatch):
        from wildfuncs import verify

        monkeypatch.setitem(
            verify.SUITES,
            "always-fails",
            lambda trials, seed: [{"trial": 0, "input": "x", "expected": "1", "got": "2"}],
        )
        code, out, _ = run(capsys, "verify", "--suite", "always-fails", "--trials", "1")
        assert code == 1
        assert json.loads(out)["passed"] is False


class TestCountOptions:
    # --max-index and --trials take integers >= 0; a negative one is a
    # usage error before any work starts
    def test_negative_max_index(self, capsys):
        for argv in (("cantor",), ("eval", "--fn", "cf", "--x", "1/4"),
                     ("hypo", "--fn", "cf", "--x", "1/4", "--y", "0")):
            code, out, err = run(capsys, *argv, "--max-index=-3")
            assert code == 2 and out == ""
            assert "usage:" in err and "--max-index: must be >= 0, got -3" in err

    def test_negative_trials(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "h-roundtrip", "--trials=-1")
        assert code == 2 and out == ""
        assert "usage:" in err and "--trials: must be >= 0, got -1" in err

    def test_not_an_integer(self, capsys):
        code, _, err = run(capsys, "cantor", "--max-index", "x")
        assert code == 2 and "usage:" in err

    def test_zero_is_valid(self, capsys):
        code, out, _ = run(capsys, "cantor", "--max-index", "0")
        assert code == 0 and out == ""
        code, out, _ = run(capsys, "verify", "--suite", "h-roundtrip", "--trials", "0")
        assert code == 0 and json.loads(out)["trials"] == 0


class TestPinnedDigests:
    # sha256 of the stdout of canonical dumps; any change to a verify
    # report, a Cantor placement, a digit audit or a preimage changes them
    def test_verify_all(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--trials", "200", "--seed", "7")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "520a341fa1ee55f6111a0775ae8051a2adb66d08c12dfea7c8684885559c9f96"

    def test_cantor_dump(self, capsys):
        code, out, _ = run(capsys, "cantor", "--max-index", "64")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "a412551d7b544e18585b8eb46c4830cb155f8e9e4550a1f5d18ca29d61908c5f"

    def test_show_digits(self, capsys):
        out = ""
        for fn in ("h", "hs"):
            for x in ("226/243", "70/81", "1/3", "5/7", "-13/9", "2/27"):
                code, o, _ = run(capsys, "eval", "--fn", fn, f"--x={x}", "--show-digits")
                assert code == 0
                out += o
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "d1cbe44a825426a94b33970d97aeaf601ec6e9800d01e6b2cca8f6ed8c55fe6b"

    def test_preimages(self, capsys):
        cases = (
            ("h", "5/8", "1/2,2/3"), ("h", "0", "0,1"), ("h", "22/7", "-1,1/3"), ("h", "1/3", "5,6"),
            ("hs", "-5/2", "0,1"), ("hs", "7/3", "1/4,1/3"), ("hs", "0", "-2,-1"),
            ("cf", "-4/3", "0,1"), ("cf", "5/2", "1/3,2/3"), ("cf", "0", "-1,0"),
            ("cf", "1/7", "-1/2,1/2"), ("cf", "-22/7", "0,1"),
        )
        out = ""
        for fn, y, interval in cases:
            code, o, _ = run(capsys, "preimage", "--fn", fn, f"--y={y}", f"--interval={interval}")
            assert code == 0
            out += o
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "ee175c1a0e24723a57f1552c6511e10d3e145b2f5428cf6ea9ff2f01af80984c"

    def test_far_cf_preimage(self, capsys):
        # index 2227; taken apart from the set above, where it took 12 s
        code, out, _ = run(capsys, "preimage", "--fn", "cf", "--y", "1/7", "--interval", "2,3")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "f186d60ade458a6758f8583d2026f396a5d4bbcce4948583385f264bc5539949"


class TestUsage:
    def test_missing_command(self, capsys):
        assert main([]) == 2

    def test_package_import_loads_no_submodule(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, wildfuncs; print([m for m in sys.modules if m.startswith('wildfuncs.')])"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0 and proc.stdout == "[]\n"

    @pytest.mark.parametrize("argv, absent", [
        ([], ("dataclasses", "wildfuncs.cantor", "wildfuncs.projections", "wildfuncs.ternary")),
        (["eval", "--fn", "h", "--x", "226/243"], ("dataclasses", "wildfuncs.cantor", "wildfuncs.projections")),
        (["preimage", "--fn", "h", "--y", "5/8", "--interval", "1/2,2/3"],
         ("dataclasses", "wildfuncs.cantor", "wildfuncs.projections")),
    ])
    def test_start_loads_only_what_the_command_needs(self, argv, absent):
        # a CLI start pays for the imports of its own subcommand only
        script = (
            "import sys, wildfuncs.cli\n"
            "code = wildfuncs.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
            "print(*sys.modules, file=sys.stderr)\n"
            "raise SystemExit(code)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stderr.split())
        assert "wildfuncs.cli" in loaded and not loaded & set(absent)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="CPython before 3.10.7 has no int/str digit guard")
    def test_digit_guard_restored(self, capsys):
        # main lifts the guard while a command runs and restores the
        # caller's value, on success and on error
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            for x, want in (("226/243", 0), ("1e3", 2)):
                assert run(capsys, "eval", "--fn", "h", "--x", x)[0] == want
                assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(before)

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wildfuncs.cli", "eval", "--fn", "h", "--x", "226/243"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "5/8"
