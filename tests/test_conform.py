"""Conformance layer: the executable spec vs the ISS engines.

Four contracts:

* **Independence** — ``repro.spec`` imports nothing from the simulator
  (or any other implementation package); the spec is a second opinion,
  not a re-export.
* **Completeness** — every mnemonic in the encoding tables has a spec
  handler and a per-instruction equivalence battery, and the battery
  finds zero divergences.
* **Agreement** — lockstep co-simulation over real programs (workload
  kernels, fuzz programs) diffs the full architectural state at every
  retire and finds nothing; trap classification (class/pc/instret)
  matches across ref, fast and spec, including traps inside the fast
  engine's fused check pairs.
* **Determinism** — the ``repro.spec/v1`` report is byte-identical for
  a fixed seed at any ``--jobs``, and the lockstep mnemonic coverage
  of the pinned corpus never shrinks (``tests/data/spec_coverage.json``).
"""

import ast
import json
import os
from pathlib import Path

import pytest

import repro.spec
from repro.core.compression import MetadataCompressor, MetadataRangeError
from repro.core.config import FieldWidths, HwstConfig
from repro.harness.conform import (
    EquivBench,
    build_cells,
    report_to_json,
    run_conform,
)
from repro.harness.runner import WORKLOADS
from repro.isa.instructions import SPEC_TABLE
from repro.obs.metrics import MetricsRegistry
from repro.schemes import compile_source
from repro.sim import make_machine
from repro.sim.machine import Machine
from repro.spec import geometry
from repro.spec.equiv import all_mnemonics, cases_for, run_mnemonic
from repro.spec.lockstep import run_lockstep, run_spec
from repro.spec.table import SPEC_EXEC

SPEC_DIR = Path(repro.spec.__file__).resolve().parent
DATA_DIR = Path(__file__).resolve().parent / "data"
SEED = 20260807


def _widths(config):
    w = config.widths
    return (w.base, w.range, w.lock, w.key)


def _lockstep(source, scheme, config=None, **kwargs):
    config = config or HwstConfig()
    program = compile_source(source, scheme, config)
    machine = Machine(config, timing=None)
    return run_lockstep(machine, program, widths=_widths(config),
                        lock_base=config.lock_base,
                        shadow_budget=config.shadow_budget, **kwargs)


# ---------------------------------------------------------------------------
# Independence
# ---------------------------------------------------------------------------

class TestSpecIndependence:
    #: The only first-party packages the spec may touch: its own
    #: modules and the pure encoding tables. Everything else
    #: (simulator, compiler, schemes, core, harness, ...) is an
    #: implementation the spec must stay independent of.
    ALLOWED_PREFIXES = ("repro.spec", "repro.isa")

    @staticmethod
    def _imports_of(path: Path):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.level:        # relative import: inside repro.spec
                    continue
                yield node.module or ""

    def test_spec_never_imports_an_implementation(self):
        violations = []
        for path in sorted(SPEC_DIR.glob("*.py")):
            for module in self._imports_of(path):
                if module.split(".")[0] != "repro":
                    continue          # stdlib
                if not module.startswith(self.ALLOWED_PREFIXES):
                    violations.append(f"{path.name}: imports {module}")
        assert violations == [], violations

    def test_the_audit_sees_through_function_level_imports(self):
        # The walker must catch imports hidden inside function bodies,
        # or the independence guarantee is decorative.
        sample = ast.parse("def f():\n    from repro.sim import x\n")
        found = [node.module for node in ast.walk(sample)
                 if isinstance(node, ast.ImportFrom)]
        assert found == ["repro.sim"]

    def test_table_covers_every_encoded_mnemonic(self):
        assert set(SPEC_EXEC) == set(SPEC_TABLE)


# ---------------------------------------------------------------------------
# Geometry functions vs the production compressor
# ---------------------------------------------------------------------------

class TestGeometryFunctions:
    @pytest.mark.parametrize("geom", range(len(geometry.GEOMETRIES)))
    def test_matches_metadata_compressor(self, geom):
        import random

        widths = geometry.GEOMETRIES[geom]
        base_b, range_b, lock_b, key_b = widths
        config = HwstConfig(widths=FieldWidths(*widths),
                            lock_entries=min(1 << lock_b, 1 << 20))
        compressor = MetadataCompressor(config)
        rng = random.Random(f"spec-geometry/{geom}")
        lock_base = config.lock_base

        for _ in range(300):
            base = rng.getrandbits(40)
            bound = base + rng.getrandbits(20)
            try:
                expected = compressor.compress_spatial(base, bound)
            except MetadataRangeError:
                with pytest.raises(geometry.GeometryError):
                    geometry.spatial_pack(base, bound, base_b, range_b)
                continue
            lower = geometry.spatial_pack(base, bound, base_b, range_b)
            assert lower == expected
            assert geometry.spatial_unpack(lower, base_b, range_b) == \
                compressor.decompress_spatial(lower)

        for _ in range(300):
            key = rng.getrandbits(key_b + (2 if rng.random() < 0.2 else 0))
            lock = 0 if rng.random() < 0.2 else \
                lock_base + 8 * rng.getrandbits(lock_b + 1)
            try:
                expected = compressor.compress_temporal(key, lock)
            except MetadataRangeError:
                with pytest.raises(geometry.GeometryError):
                    geometry.temporal_pack(key, lock, lock_b, key_b,
                                           lock_base)
                continue
            upper = geometry.temporal_pack(key, lock, lock_b, key_b,
                                           lock_base)
            assert upper == expected
            assert geometry.temporal_unpack(upper, lock_b, key_b,
                                            lock_base) == \
                compressor.decompress_temporal(upper)

    def test_misaligned_and_negative_locks_error(self):
        with pytest.raises(geometry.GeometryError):
            geometry.temporal_pack(1, 0x1000_0004, 20, 44, 0x1000_0000)
        with pytest.raises(geometry.GeometryError):
            geometry.temporal_pack(1, 0x0FFF_FFF8, 20, 44, 0x1000_0000)
        with pytest.raises(geometry.GeometryError):
            geometry.spatial_pack(16, 8, 35, 29)  # bound < base


# ---------------------------------------------------------------------------
# Per-instruction equivalence
# ---------------------------------------------------------------------------

class TestEquivalenceSweep:
    def test_case_generation_is_deterministic(self):
        for mnemonic in ("add", "div", "bndrs", "tchk", "ld.chk",
                         "vchk", "ecall"):
            assert cases_for(mnemonic, SEED) == cases_for(mnemonic, SEED)

    def test_every_mnemonic_has_edge_cases(self):
        for mnemonic in all_mnemonics():
            assert cases_for(mnemonic, SEED), mnemonic

    def test_full_sweep_finds_zero_divergences(self):
        bench = EquivBench()
        total = 0
        for mnemonic in all_mnemonics():
            result = run_mnemonic(mnemonic, SEED, bench)
            assert result["divergences"] == [], \
                f"{mnemonic}: {result['divergences'][:2]}"
            total += result["cases"]
        assert total > 5000
        assert set(all_mnemonics()) == set(SPEC_TABLE)

    def test_metadata_geometry_cases_span_all_four(self):
        geoms = {case.geom for case in cases_for("bndrs", SEED)}
        assert geoms == set(range(len(geometry.GEOMETRIES)))


# ---------------------------------------------------------------------------
# Lockstep over real programs
# ---------------------------------------------------------------------------

TREEADD = WORKLOADS["treeadd"].source("small")

UAF_SOURCE = """
int main(void) {
    long *p = (long*)malloc(8);
    free(p);
    return (int)(p[0] & 0);
}
"""

OOB_SOURCE = """
int main(void) {
    long *p = (long*)malloc(8);
    long v = p[20];
    free(p);
    return (int)(v & 0);
}
"""


class TestLockstep:
    @pytest.mark.parametrize("scheme", ("hwst128_tchk", "bogo",
                                        "wdl_wide"))
    def test_workload_agrees(self, scheme):
        result = _lockstep(TREEADD, scheme)
        assert result.divergence is None, result.divergence
        assert result.outcome.status == "exit"
        assert result.retires > 1000

    def test_fuzz_sample_agrees(self):
        from repro.fuzz.gen import generate_program, plan_programs

        for index, kind in plan_programs(SEED, 12):
            generated = generate_program(SEED, index, kind)
            result = _lockstep(generated.source, "hwst128")
            assert result.divergence is None, \
                (generated.name, result.divergence)

    def test_detects_an_injected_state_divergence(self):
        # A machine that silently corrupts x10 mid-run must be caught
        # at exactly the corrupted retire with a field-level delta.
        class Corrupted(Machine):
            def step(self):
                super().step()
                if self.instret == 50:
                    self.regs[10] ^= 1

        config = HwstConfig()
        program = compile_source(TREEADD, "hwst128_tchk", config)
        result = run_lockstep(Corrupted(config, timing=None), program,
                              widths=_widths(config),
                              lock_base=config.lock_base)
        assert result.divergence is not None
        assert result.divergence["reason"] == "state mismatch"
        assert result.divergence["retire"] == 49
        assert any(delta["field"] == "x10"
                   for delta in result.divergence["deltas"])

    def test_run_spec_standalone_matches_the_iss(self):
        # The spec executes the whole program with no simulator in the
        # loop (SpecMemory + tables) and must land on the same
        # run-level observables.
        config = HwstConfig()
        program = compile_source(TREEADD, "hwst128_tchk", config)
        iss = Machine(config, timing=None).run(program)
        outcome, _ = run_spec(program, widths=_widths(config),
                              lock_base=config.lock_base,
                              lock_limit=config.lock_limit)
        assert (outcome.status, outcome.exit_code, outcome.instret,
                outcome.output) == \
            (iss.status, iss.exit_code, iss.instret, iss.output)


class TestTrapParity:
    @pytest.mark.parametrize("source,status", (
        (UAF_SOURCE, "temporal_violation"),
        (OOB_SOURCE, "spatial_violation"),
    ), ids=("temporal-first-half", "spatial-second-half"))
    def test_trap_in_fused_pair_is_identical_everywhere(self, source,
                                                        status):
        # hwst128_tchk fuses tchk + checked access in the fast engine;
        # a trap in either half must report identical class, pc and
        # retire count on ref, fast and the spec.
        config = HwstConfig()
        program = compile_source(source, "hwst128_tchk", config)
        ref = make_machine("ref", config=config, timing=None).run(program)
        fast_machine = make_machine("fast", config=config, timing=None)
        # Translate on first entry: the trap is in run-once code.
        fast_machine.TRANSLATE_ON_VISIT = 1
        fast = fast_machine.run(program)
        assert fast_machine.fast_stats()["fused_pairs"] > 0
        spec, _ = run_spec(program, widths=_widths(config),
                           lock_base=config.lock_base,
                           lock_limit=config.lock_limit)
        for name in ("status", "trap_class", "trap_pc", "instret"):
            ref_value = getattr(ref, name)
            assert getattr(fast, name) == ref_value, name
            assert getattr(spec, name) == ref_value, name
        assert ref.status == status
        lockstep = _lockstep(source, "hwst128_tchk")
        assert lockstep.divergence is None
        assert lockstep.outcome.trap_class == ref.trap_class
        assert lockstep.outcome.trap_pc == ref.trap_pc


# ---------------------------------------------------------------------------
# Campaign report: determinism + obs counters
# ---------------------------------------------------------------------------

class TestConformReport:
    def _run(self, jobs, registry=None):
        return run_conform(workloads=["treeadd"],
                           schemes=["hwst128_tchk"],
                           fuzz_count=4, seed=SEED, jobs=jobs,
                           equiv=False, heartbeat_s=0,
                           registry=registry)

    def test_byte_identical_across_jobs_and_reruns(self):
        first = report_to_json(self._run(jobs=1))
        again = report_to_json(self._run(jobs=1))
        pooled = report_to_json(self._run(jobs=2))
        assert first == again
        assert first == pooled

    def test_report_shape_and_obs_counters(self):
        registry = MetricsRegistry()
        report = self._run(jobs=1, registry=registry)
        assert report["schema"] == "repro.spec/v1"
        assert report["totals"]["divergences"] == 0
        assert report["totals"]["retires"] > 0
        assert registry.counter("spec.retires").value == \
            report["totals"]["retires"]
        assert registry.counter("spec.divergences").value == 0
        assert registry.gauge("spec.mnemonics_covered").value == \
            report["totals"]["mnemonics_covered"]
        covered = set(report["coverage"]["exercised"])
        never = set(report["coverage"]["never_exercised"])
        assert covered | never == set(SPEC_TABLE)
        assert not covered & never

    def test_cell_list_is_deterministic(self):
        cells = build_cells(workloads=["treeadd"], fuzz_count=2,
                            seed=SEED)
        again = build_cells(workloads=["treeadd"], fuzz_count=2,
                            seed=SEED)
        assert [cell.tag for cell in cells] == \
            [cell.tag for cell in again]


# ---------------------------------------------------------------------------
# Mnemonic-coverage ratchet (tests/data/spec_coverage.json)
# ---------------------------------------------------------------------------

class TestCoverageRatchet:
    def test_pinned_corpus_coverage_never_shrinks(self):
        with open(DATA_DIR / "spec_coverage.json",
                  encoding="utf-8") as fh:
            ratchet = json.load(fh)
        assert ratchet["schema"] == "repro.spec-coverage/v1"
        corpus = ratchet["corpus"]
        report = run_conform(workloads=corpus["workloads"],
                             schemes=corpus["schemes"],
                             scale=corpus["scale"],
                             fuzz_count=corpus["fuzz_count"],
                             seed=corpus["seed"],
                             equiv=False, jobs=1, heartbeat_s=0)
        assert report["totals"]["divergences"] == 0
        exercised = set(report["coverage"]["exercised"])
        pinned = set(ratchet["mnemonics"])
        missing = sorted(pinned - exercised)
        assert not missing, (
            f"lockstep coverage shrank: {missing} were exercised when "
            "the ratchet was recorded but are no longer; extend the "
            "corpus or regenerate tests/data/spec_coverage.json "
            "consciously")
        assert pinned <= set(SPEC_TABLE)
