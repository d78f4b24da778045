"""Self-test of the benchmark: each workload at a tiny size, traced.

Run from the root of a checkout:  python3 perfbench/selftest.py

It checks that the wrappers are rebound at every import site and that calls
through those sites are recorded with their caller as parent; that each
workload's outputs pass their checks and that every per-layer metric the
workload is expected to move has calls (or time) > 0; that self time never
exceeds busy time; and that BENCHMARK.json and predictions.json name the
metrics and workloads the code produces.  Exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from common import HERE, OUT, ROOT, SRC, check_checkout

# metrics that must be nonzero after a tiny traced run of each workload
EXPECTED = {
    "long-digits": [
        "exactcore.to_expansion.calls", "exactcore.to_expansion.digits",
        "exactcore.to_expansion.self_s.b2.small", "exactcore.to_expansion.self_s.b3.small",
        "exactcore.to_expansion.self_s.b3.mid", "exactcore.to_expansion.self_s.b2.large",
        "exactcore.to_expansion.self_s.b3.large", "exactcore.from_expansion.b2.calls",
        "exactcore.from_expansion.b3.calls", "exactcore.fraction_value.calls",
        "ternary.evaluate.calls", "ternary.evaluate_signed.calls", "ternary.evaluate.useful_digit_ratio",
    ],
    "short-calls": [
        "surds.surd_compare.calls", "surds.surd_sign.calls", "surds.surd_floor.calls",
        "projections.classify_shift.calls", "projections.density_witness.calls",
        "projections.simplest_dyadic_between.calls", "qspan.kernel_basis.calls", "qspan.rank.calls",
        "qspan.solve_image.calls", "qspan.classify_shift.calls", "qspan.surjection_witness.calls",
        "qspan.real_sign_offset.calls", "qspan.enclosure_value.calls",
        "qspan.enclosure_value.calls_per_sign", "qspan.surjection_witness.candidates_per_witness",
        "ternary.preimage.calls", "exactcore.cylinder_for_interval.calls",
        "cantor.encode_value.calls", "cantor.decode_bits.calls",
    ],
    "cantor-session": [
        "cantor.ensure_placed.calls", "cantor.placements_built", "cantor.place.0-63.s",
        "cantor.place.64-127.s", "cantor.place.128-.s", "cantor.basis_interval.calls",
        "cantor.preimage.calls", "cantor.evaluate.calls", "cantor.encode_value.calls",
        "cantor.decode_bits.calls",
    ],
    "cli": [
        "cli.main.self_s", "cli.bare_interpreter_ms", "cli.import_ms", "exactcore.parse_rational.calls",
        "exactcore.format_rational.calls", "verify.surjection-witness.wall_ms", "verify.h-roundtrip.wall_ms",
    ] + [f"cli.{c}.p50_ms" for c in ("eval", "preimage", "classify", "density-witness", "sample", "hypo",
                                     "cantor", "verify")],
}

# names that other wildfuncs modules import from the defining module
IMPORT_SITES = (
    "wildfuncs.ternary.to_expansion", "wildfuncs.ternary.fraction_value",
    "wildfuncs.ternary.cylinder_for_interval", "wildfuncs.cantor.to_expansion",
    "wildfuncs.cantor.fraction_value", "wildfuncs.verify.cylinder_for_interval",
    "wildfuncs.verify.to_expansion", "wildfuncs.verify.from_expansion", "wildfuncs.verify.surd_compare",
    "wildfuncs.verify.surjection_witness", "wildfuncs.verify.real_sign_offset",
    "wildfuncs.verify.kernel_basis", "wildfuncs.verify.rank", "wildfuncs.cli.parse_rational",
    "wildfuncs.cli.format_rational", "wildfuncs.projections.surd_compare",
)

# (caller, callee) span pairs that appear only if the callee was rebound in
# the caller's module; verify suites run under cli.main
NESTED = (
    ("ternary.evaluate", "exactcore.to_expansion"), ("ternary.evaluate", "exactcore.fraction_value"),
    ("ternary.preimage", "exactcore.cylinder_for_interval"), ("cantor.encode_value", "exactcore.to_expansion"),
    ("cantor.decode_bits", "exactcore.fraction_value"), ("cantor.evaluate", "cantor.decode_bits"),
    ("projections.density_witness", "projections.simplest_dyadic_between"),
    ("projections.simplest_dyadic_between", "surds.surd_floor"), ("projections.classify_shift", "surds.surd_sign"),
    ("qspan.surjection_witness", "qspan.kernel_basis"), ("qspan.real_sign_offset", "qspan.enclosure_value"),
    ("cli.main", "exactcore.parse_rational"), ("cli.main", "exactcore.format_rational"),
    ("cli.main", "exactcore.cylinder_for_interval"), ("cli.main", "exactcore.from_expansion"),
    ("cli.main", "surds.surd_compare"), ("cli.main", "qspan.surjection_witness"),
    ("cli.main", "qspan.rank"),
)


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    raise SystemExit(1)


def check_import_sites() -> None:
    sys.path.insert(0, str(SRC))
    import tracing
    import wildfuncs.cli
    from fractions import Fraction
    from wildfuncs import cantor, projections, qspan, surds, ternary

    tracer = tracing.Tracer()
    sites = tracing.install(tracer)
    names = {f"{module.__name__}.{key}" for module, key, _ in sites}
    for site in IMPORT_SITES:
        if site not in names:
            fail(f"wrapper not rebound at {site}")
    try:
        ternary.evaluate(Fraction(226, 243))
        ternary.preimage(Fraction(5, 8), Fraction(1, 2), Fraction(2, 3))
        x, n = cantor.preimage(Fraction(-4, 3), Fraction(0), Fraction(1))
        cantor.evaluate(x, n + 1)
        cantor.decode_bits(cantor.encode_value(Fraction(5, 2)))
        projections.density_witness("p", 0, 1, 5, 6)
        projections.classify_shift("p", surds.QuadraticSurd(-1, 1))
        basis = qspan.SpanBasis.from_strings(["1", "sqrt:2", "sqrt:3"])
        f = qspan.AdditiveMap(basis, [[1, 1, 0], [0, 0, 0], [0, 0, 0]])
        qspan.surjection_witness(f, qspan.SpanElement(basis, [1, 0, 0]), 5, 6)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            wildfuncs.cli.main(["eval", "--fn", "h", "--x", "226/243"])
            for suite in ("cylinder-soundness", "expansion-roundtrip", "surd-order", "surjection-witness",
                          "additive-periodic-iff-noninjective"):
                wildfuncs.cli.main(["verify", "--suite", suite, "--trials", "5"])
    finally:
        tracing.uninstall(sites)
    pairs = set()
    for i in range(len(tracer)):
        p = tracer.parent[i]
        if p >= 0:
            pairs.add((tracer.names[tracer.name[p]], tracer.names[tracer.name[i]]))
    for pair in NESTED:
        if pair not in pairs:
            fail(f"no {pair[1]} span under {pair[0]}")
    print(f"import sites: {len(sites)} rebound, {len(NESTED)} caller/callee pairs recorded")


def check_self_le_busy(workload: str, sums: dict) -> None:
    for key, busy in sums.items():
        if key.endswith(".busy_s"):
            self_s = sums[key[: -len("busy_s")] + "self_s"]
            if self_s > busy + 1e-9:
                fail(f"{workload}: {key[:-7]} self_s {self_s} > busy_s {busy}")


def check_workloads() -> None:
    import run
    import tracing

    OUT.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        if workload == "cli":
            result, done = run.cli_run(1, 1, tiny=True)
            sums, _, _, mismatches = run.cli_replay(1, done)
            if mismatches:
                fail(f"cli launcher output differs: {mismatches}")
            layers = tracing.layer_metrics(sums)
            layers.update(run.cli_layers(result, done))
            unexpected = [c.label() for (c, o), ok in zip(done, result.passed) if not ok and not c.runaway]
        else:
            result, workers = run.inprocess_run(workload, 1, 1, tiny=True)
            sums, _, _, failed = run.inprocess_replay(workload, 1, 1e9, workers)
            if failed:
                fail(f"{workload}: {failed} traced operations failed their checks")
            layers = tracing.layer_metrics(sums)
            unexpected = result.notes
        if unexpected:
            fail(f"{workload}: failed operations {unexpected}")
        check_self_le_busy(workload, sums)
        for name in EXPECTED[workload]:
            if not layers.get(name):
                fail(f"{workload}: {name} is 0")
        print(f"{workload}: {len(result.latencies)} operations passed, "
              f"{len(EXPECTED[workload])} layer metrics recorded")


def check_declarations() -> None:
    import run
    import tracing

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [(m["name"], m["unit"]) for m in bench["per_layer"]] != [(n, tracing.unit(n)) for n in tracing.LAYER_METRICS]:
        fail("BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")
    if bench["run_seconds"] != run.RUN_SECONDS:
        fail("BENCHMARK.json run_seconds differs from run.RUN_SECONDS")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    sample = run.Run()
    sample.latencies, sample.passed, sample.busy_s, sample.setup = [0.1], [True], 0.1, [0.1]
    e2e = [m["name"] for m in bench["end_to_end"]]
    if e2e != list(run.end_to_end("cli", sample)):
        fail("BENCHMARK.json end_to_end differs from run.end_to_end")
    predictions = json.loads((HERE / "predictions.json").read_text())
    claimable = set(e2e) | {"fail_ratio"}
    for entry in predictions["predictions"]:
        for metric in entry["metrics"]:
            if metric not in tracing.LAYER_METRICS:
                fail(f"predictions.json names unknown layer metric {metric}")
        for claim in entry["moves"] + entry["unchanged"]:
            workload, metric = claim.split(":")
            if workload not in run.WORKLOADS or metric not in claimable:
                fail(f"predictions.json names unknown pair {claim}")
    print("BENCHMARK.json and predictions.json match the code")


def main() -> int:
    check_checkout()
    check_declarations()
    check_import_sites()
    check_workloads()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
