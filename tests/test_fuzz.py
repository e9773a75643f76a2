"""Tests for the repro.fuzz subsystem: generator, oracles, campaign,
reducer, and the determinism contract of the ``repro.fuzz/v1`` report.
"""

import json
import random

import pytest

from repro.fuzz import (
    BUG_KINDS, EXPECTED_CLASS, FuzzCoverage, generate_program,
    plan_programs, probe_program, classify_program, reduce_source,
    run_fuzz,
)
from repro.fuzz.campaign import FuzzCell, _crash_signature, _signatures_of
from repro.harness.parallel import SweepExecutor
from repro.sim.machine import STATUS_EXIT, STATUS_SPATIAL, STATUS_TEMPORAL


SCHEMES = ("gcc", "sbcets", "hwst128")


class TestGenerator:
    def test_deterministic(self):
        a = generate_program(5, 3, "safe")
        b = generate_program(5, 3, "safe")
        assert a.source == b.source and a.features == b.features

    def test_seed_changes_program(self):
        a = generate_program(5, 3, "safe")
        b = generate_program(6, 3, "safe")
        assert a.source != b.source

    def test_plan_is_deterministic_and_windowed(self):
        full = plan_programs(9, 20)
        tail = plan_programs(9, 12, start=8)
        assert full[8:] == tail
        assert [index for index, _ in full] == list(range(20))

    def test_plan_mixes_safe_and_planted(self):
        kinds = {kind for _, kind in plan_programs(0, 40)}
        assert "safe" in kinds
        assert kinds & set(BUG_KINDS)

    def test_expected_class_covers_bug_kinds(self):
        assert set(BUG_KINDS) == set(EXPECTED_CLASS)
        assert set(EXPECTED_CLASS.values()) == {"spatial", "temporal"}

    def test_global_rng_untouched(self):
        random.seed(1234)
        before = random.getstate()
        generate_program(7, 0, "safe")
        generate_program(7, 1, "oob_write")
        plan_programs(7, 10)
        assert random.getstate() == before


class TestOracles:
    def test_safe_program_agrees(self):
        program = generate_program(42, 0, "safe")
        probe = probe_program(program.source, SCHEMES)
        verdicts, divergences = classify_program(
            "safe", "", probe, SCHEMES)
        assert not divergences
        assert verdicts["scheme"] == "agree"
        assert probe.profiles["hwst128"].status == STATUS_EXIT

    @pytest.mark.parametrize("kind", ["oob_write", "uaf", "double_free"])
    def test_planted_bug_detected(self, kind):
        program = generate_program(42, 1, kind)
        probe = probe_program(program.source, SCHEMES)
        verdicts, divergences = classify_program(
            kind, program.expect, probe, SCHEMES)
        assert not [d for d in divergences if d.oracle == "scheme"]
        wanted = STATUS_SPATIAL if program.expect == "spatial" \
            else STATUS_TEMPORAL
        assert probe.profiles["hwst128"].status == wanted
        assert probe.profiles["sbcets"].status == wanted

    def test_misclassified_safe_program_diverges(self):
        # A planted bug classified as "safe" must trip the scheme oracle
        # (this is the seeded-divergence path the reducer test uses).
        program = generate_program(42, 3, "oob_write")
        probe = probe_program(program.source, SCHEMES)
        _, divergences = classify_program("safe", "", probe, SCHEMES)
        assert {d.kind for d in divergences} >= {
            "safe_trap.sbcets", "safe_trap.hwst128"}

    def test_crash_signature_parsing(self):
        trace = ("Traceback (most recent call last):\n"
                 "  ...\n"
                 "repro.errors.SemanticError: boom\n")
        assert _crash_signature(trace) == ("harness", "crash.SemanticError")


class TestCoverage:
    def test_weights_prefer_rare_productions(self):
        coverage = FuzzCoverage()
        coverage.observe(["stmt.if", "stmt.if", "stmt.for"], ["malloc"])
        weights = coverage.weights()
        assert weights["stmt.while"] > weights["stmt.if"]
        assert weights["stmt.for"] > weights["stmt.if"]

    def test_to_dict_sorted(self):
        coverage = FuzzCoverage()
        coverage.observe(["stmt.print", "stmt.if"], ["memset", "malloc"])
        snapshot = coverage.to_dict()
        assert list(snapshot["productions"]) == sorted(
            snapshot["productions"])
        assert list(snapshot["runtime_functions"]) == sorted(
            snapshot["runtime_functions"])


class TestCampaign:
    def test_small_campaign_is_clean(self):
        report = run_fuzz(8, seed=42, jobs=1)
        assert report.clean
        board = report.scoreboard()
        assert board["programs"] == 8
        assert board["oracles"]["scheme"].get("agree") == 8

    def test_report_byte_identical_across_jobs(self):
        with SweepExecutor(jobs=2) as executor:
            parallel = run_fuzz(8, seed=42, executor=executor)
        serial = run_fuzz(8, seed=42, jobs=1)
        assert parallel.to_json() == serial.to_json()

    def test_report_schema_and_shape(self):
        report = run_fuzz(4, seed=1, jobs=1)
        payload = json.loads(report.to_json())
        assert payload["schema"] == "repro.fuzz/v1"
        assert payload["seed"] == 1 and payload["n"] == 4
        assert len(payload["programs"]) == 4
        indices = [p["index"] for p in payload["programs"]]
        assert indices == sorted(indices)

    def test_campaign_global_rng_untouched(self):
        random.seed(99)
        before = random.getstate()
        run_fuzz(4, seed=3, jobs=1)
        assert random.getstate() == before

    def test_fuzz_cell_execute_roundtrip(self):
        program = generate_program(11, 0, "safe")
        cell = FuzzCell(index=0, name=program.name, kind="safe",
                        expect="", source=program.source)
        result = cell.execute()
        assert result.ok and result.status == "agree"
        assert result.extra["verdicts"]["scheme"] == "agree"


class TestFuzzerFoundRegressions:
    """Regressions for divergences the fuzzer actually found.

    Campaign ``--n 500 --seed 100`` (2026-08-06) surfaced three
    divergent programs with one root cause: the generator indexed a
    buffer with a loop variable whose bound exceeded the buffer's
    element count, so nominally safe programs trapped spatially and
    planted temporal bugs were pre-empted by a spatial trap.  The
    ddmin-reduced repros are pinned here verbatim.
    """

    # fuzz-100-108 reduced: countdown var t4 reaches 6 on a 6-long buf.
    REDUCED_COUNTDOWN = (
        "int main(void) {\n"
        "    long acc = 5;\n"
        "    long *h1 = (long *)malloc(6 * sizeof(long));\n"
        "    long t4 = 6;\n"
        "    h1[t4] *= acc | acc;\n"
        "}\n")
    # fuzz-100-242 reduced: for-loop bound 7 writing a 6-long buffer.
    REDUCED_FOR = (
        "int main(void) {\n"
        "    long *h0 = (long *)malloc(6 * sizeof(long));\n"
        "    long *h1 = (long *)malloc(8 * sizeof(long));\n"
        "    for (long i2 = 0; i2 < 7; i2++) {\n"
        "        h0[i2] = i2 >> 4 ^ h1[4] >> 4;\n"
        "    }\n"
        "}\n")

    @pytest.mark.parametrize("source", [REDUCED_COUNTDOWN, REDUCED_FOR],
                             ids=["countdown", "for"])
    def test_reduced_repros_do_trap(self, source):
        # The repros are genuinely unsafe — the checked schemes must
        # trap them spatially (this is what derailed the oracle).
        probe = probe_program(source, SCHEMES)
        assert probe.profiles["hwst128"].status == STATUS_SPATIAL
        assert probe.profiles["sbcets"].status == STATUS_SPATIAL

    def test_generator_never_reproduces_the_bug(self):
        # The exact (seed, index) triples that diverged must now be
        # oracle-clean: loop variables may only index a buffer when
        # their whole range fits it.
        plan = dict(plan_programs(100, 250))
        for index in (45, 108, 242):
            program = generate_program(100, index, plan[index])
            probe = probe_program(program.source, SCHEMES)
            _, divergences = classify_program(
                program.kind, program.expect, probe, SCHEMES)
            assert not divergences, (index, divergences)

    def test_loop_bounds_respect_buffer_counts(self):
        # Static check over a corpus slice: every `buf[var]` whose
        # index is a loop variable must sit under a bound that fits.
        import re

        for index, kind in plan_programs(17, 40):
            program = generate_program(17, index, kind)
            counts = {name: int(count) for name, count in re.findall(
                r"long (\w+)\[(\d+)\]", program.source)}
            counts.update({
                name: int(count) for name, count in re.findall(
                    r"long \*(\w+) = \(long \*\)malloc\((\d+) \* ",
                    program.source)})
            for match in re.finditer(r"(\w+)\[([a-z]\w*)\]",
                                     program.source):
                buf, var = match.groups()
                if buf not in counts or not var.startswith(("i", "t")):
                    continue
                bound = re.search(
                    rf"{var} = 0; {var} < (\d+)|long {var} = (\d+);",
                    program.source)
                if bound:
                    limit = int(bound.group(1) or bound.group(2))
                    maximum = limit - 1 if bound.group(1) else limit
                    assert maximum < counts[buf], \
                        (program.name, buf, var, maximum, counts[buf])


class TestReducer:
    def test_reduces_seeded_divergence_to_minimal_repro(self):
        # Mislabel a planted OOB write as "safe": the scheme oracle
        # reports safe_trap divergences, which the reducer must preserve
        # while shrinking the program to a handful of statements.
        program = generate_program(42, 3, "oob_write")
        target = _signatures_of(program.source, "safe", "",
                                SCHEMES, 2_000_000)
        assert target

        def predicate(candidate):
            return target <= _signatures_of(candidate, "safe", "",
                                            SCHEMES, 2_000_000)

        result = reduce_source(program.source, predicate, max_checks=200)
        assert result.reduced
        assert result.statements <= 10
        assert predicate(result.source)

    def test_budget_respected(self):
        program = generate_program(42, 3, "oob_write")
        target = _signatures_of(program.source, "safe", "",
                                SCHEMES, 2_000_000)

        def predicate(candidate):
            return target <= _signatures_of(candidate, "safe", "",
                                            SCHEMES, 2_000_000)

        result = reduce_source(program.source, predicate, max_checks=5)
        assert result.checks <= 5

    def test_vacuous_predicate_keeps_source(self):
        source = "long main(void) { return 0; }"
        result = reduce_source(source, lambda s: False)
        assert result.source == source and not result.reduced


class TestInterrupt:
    def test_stop_truncates_at_a_round_boundary(self):
        polls = []

        def stop():
            polls.append(True)
            return len(polls) > 1    # first round runs, then stop

        report = run_fuzz(75, seed=42, jobs=1, stop=stop)
        assert report.interrupted
        assert len(report.programs) == 25     # one ROUND_SIZE
        doc = report.to_dict()
        assert doc["interrupted"] is True
        assert doc["completed"] == 25

    def test_interrupted_prefix_matches_the_full_run(self):
        # Stopping after round 2 covers the hand-off of coverage-derived
        # weights from round 1 to round 2, not only round 1's programs.
        polls = []

        def stop_after_second_round():
            polls.append(True)
            return len(polls) > 2

        partial = run_fuzz(75, seed=42, jobs=1,
                           stop=stop_after_second_round)
        full = run_fuzz(75, seed=42, jobs=1)
        assert len(partial.programs) == 50
        assert partial.programs == full.programs[:50]

    def test_immediate_stop_yields_empty_valid_report(self):
        report = run_fuzz(50, seed=42, jobs=1, stop=lambda: True)
        assert report.interrupted
        assert report.programs == []
        doc = report.to_dict()
        assert doc["completed"] == 0

    def test_uninterrupted_report_carries_no_interrupt_keys(self):
        report = run_fuzz(8, seed=42, jobs=1, stop=lambda: False)
        assert not report.interrupted
        assert "interrupted" not in report.to_dict()
        assert "completed" not in report.to_dict()
