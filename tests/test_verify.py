import random

import pytest

from wildfuncs import verify


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
