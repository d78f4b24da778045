import random
from fractions import Fraction

import pytest

from wildfuncs import cantor, projections, qspan, ternary, verify
from wildfuncs.cli import main
from wildfuncs.surds import QuadraticSurd


def _raise_assertion(*args):
    raise AssertionError("witness check failed")


# per suite: (owner, name, faulty stand-in built from the original); each
# owner is verify itself or a module verify calls through
FAULTS = {
    "expansion-roundtrip": (verify, "from_expansion", lambda f: lambda e: f(e) + 1),
    "expansion-canonical": (verify, "to_expansion", lambda f: lambda x, base: f(x + Fraction(1, 7), base)),
    "surd-order": (verify, "surd_compare", lambda f: lambda u, v: 1),
    "cylinder-soundness": (verify, "cylinder_for_interval", lambda f: lambda l, r, base: f(r, r + 1, base)),
    "projection-identity": (projections, "rational_component", lambda f: lambda x: f(x) + QuadraticSurd(1, 0)),
    "classify-soundness": (projections, "classify_shift", lambda f: lambda fn, t: f(fn, t + t)),
    "density-witness": (projections, "density_witness", lambda f: _raise_assertion),
    "h-roundtrip": (ternary, "preimage", lambda f: lambda y, l, r, signed: l),
    "h-periodic": (ternary, "shift_pair", lambda f: lambda x, k: (f(x, k)[0], f(x, k)[1] + 1)),
    "h-zero-cases": (ternary, "evaluate", lambda f: lambda x: f(x) + 1),
    "cantor-codec": (cantor, "decode_bits", lambda f: lambda stream: f(stream) + 1),
    "cantor-placement": (cantor, "_clipped_cover", lambda f: lambda c, d, lo, hi, t: [(lo, hi)]),
    "cantor-roundtrip": (cantor, "evaluate", lambda f: lambda x, bound: (f(x, bound)[0] + 1, f(x, bound)[1])),
    "additive-periodic-iff-noninjective": (verify, "kernel_basis", lambda f: lambda m: []),
    "additive-homogeneity": (qspan, "graph_translation_identity", lambda f: lambda *args: False),
    "additive-symmetry": (qspan, "point_symmetry_identity", lambda f: lambda *args: False),
    "surjection-witness": (verify, "real_sign_offset", lambda f: lambda w, x: 0),
}


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            verify.run_suite("nosuch", 10, 0)

    def test_reports_are_byte_identical(self):
        a = verify.run_suite("h-roundtrip", 40, 42)
        b = verify.run_suite("h-roundtrip", 40, 42)
        assert verify.report_json(a) == verify.report_json(b)

    def test_seed_changes_report_inputs(self):
        # different seed, same machinery: both must still pass
        a = verify.run_suite("projection-identity", 50, 1)
        b = verify.run_suite("projection-identity", 50, 2)
        assert a.passed and b.passed

    @pytest.mark.parametrize("name", sorted(verify.SUITES))
    def test_every_suite_passes_smoke(self, name):
        report = verify.run_suite(name, 25, 7)
        assert report.passed, report.failures[:3]

    def test_report_shape(self):
        report = verify.run_suite("cantor-codec", 30, 5)
        body = verify.report_json(report)
        assert '"suite":"cantor-codec"' in body
        assert '"trials":30' in body
        assert '"seed":5' in body
        assert '"passed":true' in body
        assert "wall" not in body
        assert report.wall_ms >= 0.0


class TestPerTrial:
    def test_matches_explicit_loop(self):
        # 0, 1 or 2 failures per trial, each drawing from the trial's rng
        def check(rng):
            n = rng.randrange(3)
            for k in range(n):
                yield (n, k), rng.randint(0, 99), "got"

        expected = []
        for i in range(50):
            rng = random.Random(7 * 1_000_003 + i)
            n = rng.randrange(3)
            for k in range(n):
                expected.append(
                    {"trial": i, "input": str((n, k)), "expected": str(rng.randint(0, 99)), "got": "got"}
                )
        assert verify._per_trial(check)(50, 7) == expected
        per_trial = [sum(f["trial"] == i for f in expected) for i in range(50)]
        assert {0, 1, 2} <= set(per_trial)


class TestFailureReports:
    @pytest.mark.parametrize("name", sorted(verify.SUITES))
    def test_faulty_kernel_is_reported(self, capsys, monkeypatch, name):
        owner, attr, faulty = FAULTS[name]
        monkeypatch.setattr(owner, attr, faulty(getattr(owner, attr)))
        trials, seed = 12, 3
        report = verify.run_suite(name, trials, seed)
        assert not report.passed
        trial_order = [f["trial"] for f in report.failures]
        assert trial_order == sorted(trial_order) and 0 <= trial_order[0] <= trial_order[-1] < trials
        for failure in report.failures:
            assert sorted(failure) == ["expected", "got", "input", "trial"]
            assert all(isinstance(failure[k], str) for k in ("input", "expected", "got"))
        if name == "cantor-placement":
            assert any(f["expected"] == "disjoint covers" for f in report.failures)
        body = verify.report_json(report)
        assert body == verify.report_json(verify.run_suite(name, trials, seed))
        assert main(["verify", "--suite", name, "--trials", str(trials), "--seed", str(seed)]) == 1
        assert capsys.readouterr().out.strip() == body
