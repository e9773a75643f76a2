"""Tests for the performance-trajectory bench (repro.obs.bench) and
its comparison/gating engine (repro.obs.compare).

The contracts under test:

* the ``repro.bench/v1`` envelope round-trips through save/load and
  its :func:`strip_measured` skeleton is byte-identical across reruns
  at the same seed (host timing lives only under ``"measured"`` and
  the top-level ``"host"`` section);
* the gate is noise-aware — self-comparison is always clean, a median
  shift inside the IQR band never fails, and a real slowdown past
  tolerance exits with the documented code 11 and a differential
  profile naming the guest functions/counters that moved;
* the checked-in ``BENCH_SIM.json`` is a golden for the timing model:
  both engines reproduce every workload cell's guest instructions,
  cycles and counter census, and the reference loop its profile.
"""

import copy
import json
import pathlib

import pytest

from repro import errors
from repro.cli import main
from repro.harness.runner import timed_run
from repro.obs.bench import (
    ENVELOPE_SCHEMA, QUICK_SCENARIOS, SCENARIOS, _band, _quantile,
    envelope_to_json, load_envelope, run_bench, run_scenario,
    save_envelope, scenario_names, strip_measured,
)
from repro.obs.compare import (
    BenchComparison, ScenarioDelta, compare_envelopes, diff_counters,
    diff_profiles,
)
from repro.workloads import WORKLOADS

#: The cheapest real scenario — every end-to-end test runs just this.
FAST = "treeadd/baseline"

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "BENCH_SIM.json"
WORKLOAD_CELLS = [name for name, scenario in SCENARIOS.items()
                  if scenario.kind == "workload"]


@pytest.fixture(scope="module")
def envelope():
    """One real envelope, shared across the module (runs once)."""
    return run_bench(scenarios=[FAST], reps=2, seed=7)


# ---------------------------------------------------------------------------
# Registry + aggregation math
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_suite_composition(self):
        names = scenario_names()
        assert len(names) == 14
        kinds = {SCENARIOS[n].kind for n in names}
        assert kinds == {"workload", "campaign"}
        assert "sha/baseline" in names
        assert "sha/hwst128_tchk" in names
        assert "fuzz_smoke" in names and "faultinject_smoke" in names

    def test_quick_subset(self):
        assert set(QUICK_SCENARIOS) < set(SCENARIOS)
        # campaign smokes ride in the quick subset too
        assert "fuzz_smoke" in QUICK_SCENARIOS
        assert scenario_names(quick=True) == list(QUICK_SCENARIOS)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown bench scenarios"):
            run_bench(scenarios=["nope"], reps=1)

    def test_reps_validated(self):
        from repro.obs.bench import run_scenario

        with pytest.raises(ValueError, match="reps"):
            run_scenario(SCENARIOS[FAST], reps=0)


class TestAggregation:
    def test_quantile_interpolates(self):
        ordered = [1.0, 2.0, 3.0, 4.0]
        assert _quantile(ordered, 0.0) == 1.0
        assert _quantile(ordered, 1.0) == 4.0
        assert _quantile(ordered, 0.5) == 2.5

    def test_quantile_degenerate(self):
        assert _quantile([], 0.5) == 0.0
        assert _quantile([7.0], 0.99) == 7.0

    def test_band_median_iqr(self):
        band = _band([10.0, 30.0, 20.0, 40.0])
        assert band["median"] == 25.0
        assert band["min"] == 10.0 and band["max"] == 40.0
        assert band["reps"] == 4
        assert band["iqr"] == pytest.approx(15.0)


# ---------------------------------------------------------------------------
# Envelope: shape, round-trip, determinism
# ---------------------------------------------------------------------------

class TestEnvelope:
    def test_shape(self, envelope):
        assert envelope["schema"] == ENVELOPE_SCHEMA
        assert envelope["seed"] == 7 and envelope["reps"] == 2
        entry = envelope["scenarios"][FAST]
        assert entry["kind"] == "workload"
        assert entry["guest_instructions"] > 0
        assert entry["guest_cycles"] > 0
        assert {"loads", "stores", "cyc_base"} <= set(entry["counters"])
        assert entry["profile"][0]["cycles"] > 0
        measured = entry["measured"]
        assert measured["wall_ms"]["reps"] == 2
        assert measured["guest_mips"]["median"] > 0
        assert measured["compile_ms"]["median"] > 0
        assert measured["compile_phases_ms"]["lex"] >= 0
        assert measured["peak_rss_kb"] > 0
        assert "python" in envelope["host"]

    def test_round_trip(self, envelope, tmp_path):
        path = tmp_path / "b.json"
        save_envelope(envelope, path)
        loaded = load_envelope(path)
        assert loaded == json.loads(envelope_to_json(envelope))
        assert envelope_to_json(loaded) == envelope_to_json(envelope)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "repro.fuzz/v1"}\n')
        with pytest.raises(ValueError, match="expected schema"):
            load_envelope(path)

    def test_strip_measured_removes_host_timing(self, envelope):
        skeleton = strip_measured(envelope)
        assert "host" not in skeleton
        assert "measured" not in skeleton["scenarios"][FAST]
        # the deterministic guts survive
        assert skeleton["scenarios"][FAST]["guest_instructions"] == \
            envelope["scenarios"][FAST]["guest_instructions"]
        # and the original envelope was not mutated
        assert "measured" in envelope["scenarios"][FAST]

    def test_byte_determinism_at_fixed_seed(self, envelope):
        """The acceptance contract: rerunning at the same seed gives a
        byte-identical envelope modulo the measured timing fields."""
        again = run_bench(scenarios=[FAST], reps=2, seed=7)
        assert envelope_to_json(strip_measured(envelope)) == \
            envelope_to_json(strip_measured(again))

    def test_campaign_scenario_digest(self):
        entry = run_bench(scenarios=["faultinject_smoke"], reps=1,
                          seed=7)["scenarios"]["faultinject_smoke"]
        assert entry["kind"] == "campaign"
        assert entry["cells"] == SCENARIOS["faultinject_smoke"].n
        assert sum(entry["scoreboard"].values()) == entry["cells"]
        assert entry["measured"]["cells_per_sec"]["median"] > 0


# ---------------------------------------------------------------------------
# Differential profiling primitives
# ---------------------------------------------------------------------------

class TestDiffs:
    BASE = [{"name": "main", "cycles": 100, "retired": 80},
            {"name": "work", "cycles": 50, "retired": 40}]

    def test_profile_movers_sorted_by_magnitude(self):
        new = [{"name": "main", "cycles": 160, "retired": 80},
               {"name": "work", "cycles": 45, "retired": 40},
               {"name": "memcpy", "cycles": 10, "retired": 10}]
        movers = diff_profiles(self.BASE, new)
        assert [m["function"] for m in movers] == \
            ["main", "memcpy", "work"]
        assert movers[0]["delta_cycles"] == 60
        assert movers[0]["delta_pct"] == pytest.approx(60.0)
        assert movers[1]["base_cycles"] == 0     # new function
        assert movers[1]["delta_pct"] is None

    def test_identical_profiles_no_movers(self):
        assert diff_profiles(self.BASE, copy.deepcopy(self.BASE)) == []

    def test_top_n_truncation(self):
        new = [{"name": f"f{i}", "cycles": i + 1, "retired": 1}
               for i in range(10)]
        assert len(diff_profiles([], new, top=3)) == 3

    def test_counter_movers(self):
        movers = diff_counters({"loads": 10, "stores": 5, "kb_hits": 2},
                               {"loads": 30, "stores": 5, "kb_hits": 1})
        assert [m["counter"] for m in movers] == ["loads", "kb_hits"]
        assert movers[0]["delta"] == 20
        assert movers[1]["delta"] == -1


# ---------------------------------------------------------------------------
# Regression gate
# ---------------------------------------------------------------------------

def _fake_envelope(wall_ms=100.0, iqr=1.0, instret=1000, mips=10.0,
                   cycles=2000, profile=None, counters=None,
                   name="w/s"):
    return {
        "schema": ENVELOPE_SCHEMA, "seed": 7, "reps": 3, "quick": False,
        "scenarios": {
            name: {
                "kind": "workload", "workload": "w", "scheme": "s",
                "scale": "small",
                "guest_instructions": instret,
                "guest_cycles": cycles,
                "counters": counters or {"retired": instret},
                "profile": profile or
                [{"name": "main", "cycles": cycles, "retired": instret}],
                "measured": {
                    "wall_ms": {"median": wall_ms, "iqr": iqr,
                                "min": wall_ms - iqr,
                                "max": wall_ms + iqr, "reps": 3},
                    "guest_mips": {"median": mips, "iqr": 0.1,
                                   "min": mips, "max": mips, "reps": 3},
                },
            },
        },
        "host": {"python": "3.x"},
    }


class TestGate:
    def test_self_comparison_clean(self, envelope):
        comparison = compare_envelopes(envelope, envelope)
        assert comparison.ok
        assert [d.verdict for d in comparison.deltas] == ["ok"]
        assert "bench gate: OK" in comparison.table()

    def test_regression_past_tolerance_and_noise(self):
        base = _fake_envelope(wall_ms=100.0, iqr=2.0)
        slow = _fake_envelope(wall_ms=150.0, iqr=2.0, mips=6.6)
        comparison = compare_envelopes(base, slow)
        assert not comparison.ok
        (delta,) = comparison.regressions
        assert delta.slowdown_pct == pytest.approx(50.0)
        assert "REGRESSED" in comparison.table()

    def test_iqr_noise_guard(self):
        """A big relative slowdown hidden inside wide noise bands must
        not gate: the median shift has to clear base_iqr + new_iqr."""
        base = _fake_envelope(wall_ms=10.0, iqr=30.0)
        slow = _fake_envelope(wall_ms=15.0, iqr=30.0)
        comparison = compare_envelopes(base, slow)
        assert comparison.ok                 # +50% but noise_ms=60

    def test_min_wall_floor(self):
        base = _fake_envelope(wall_ms=0.5, iqr=0.0)
        slow = _fake_envelope(wall_ms=1.5, iqr=0.0)
        assert compare_envelopes(base, slow).ok
        assert not compare_envelopes(base, slow, min_wall_ms=0.1).ok

    def test_improved_verdict(self):
        base = _fake_envelope(wall_ms=150.0, iqr=1.0)
        fast = _fake_envelope(wall_ms=100.0, iqr=1.0, mips=15.0)
        comparison = compare_envelopes(base, fast)
        assert comparison.ok
        assert comparison.deltas[0].verdict == "improved"

    def test_new_and_missing_scenarios(self):
        base = _fake_envelope(name="old/s")
        new = _fake_envelope(name="new/s")
        comparison = compare_envelopes(base, new)
        verdicts = {d.name: d.verdict for d in comparison.deltas}
        assert verdicts == {"old/s": "missing", "new/s": "new"}
        assert comparison.ok                 # neither blocks the gate

    def test_differential_profile_on_regression(self):
        base = _fake_envelope(
            wall_ms=100.0, iqr=1.0,
            profile=[{"name": "main", "cycles": 900, "retired": 800},
                     {"name": "check", "cycles": 100, "retired": 90}],
            counters={"retired": 1000, "kb_hits": 50})
        slow = _fake_envelope(
            wall_ms=200.0, iqr=1.0,
            profile=[{"name": "main", "cycles": 900, "retired": 800},
                     {"name": "check", "cycles": 800, "retired": 700}],
            counters={"retired": 1000, "kb_hits": 950})
        comparison = compare_envelopes(base, slow)
        (delta,) = comparison.regressions
        assert delta.profile_movers[0]["function"] == "check"
        assert delta.counter_movers[0]["counter"] == "kb_hits"
        table = comparison.table()
        assert "fn check" in table and "ct kb_hits" in table

    def test_identical_profile_flags_interpreter_slowdown(self):
        base = _fake_envelope(wall_ms=100.0, iqr=1.0)
        slow = _fake_envelope(wall_ms=200.0, iqr=1.0)
        comparison = compare_envelopes(base, slow)
        assert not comparison.ok
        assert "interpreter/host-side slowdown" in comparison.table()

    def test_guest_instruction_drift_noted(self):
        base = _fake_envelope(instret=1000)
        new = _fake_envelope(instret=1100)
        comparison = compare_envelopes(base, new)
        assert any("guest instructions changed" in note
                   for note in comparison.deltas[0].notes)

    def test_comparison_document(self):
        base = _fake_envelope()
        doc = compare_envelopes(base, base).to_dict()
        assert doc["schema"] == "repro.bench.compare/v1"
        assert doc["ok"] is True
        assert doc["deltas"][0]["verdict"] == "ok"
        json.dumps(doc)                      # serialisable


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "sha/baseline" in out and "fuzz_smoke" in out
        assert "quick" in out

    def test_run_out_and_self_gate(self, tmp_path, capsys):
        """End-to-end: run one scenario, save the envelope, then gate
        the saved envelope against itself (exit 0)."""
        out = tmp_path / "BENCH_SIM.json"
        rc = main(["bench", "--scenarios", FAST, "--reps", "1",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        doc = load_envelope(out)
        assert FAST in doc["scenarios"]
        rc = main(["bench", "--replay", str(out),
                   "--against", str(out)])
        assert rc == 0
        assert "bench gate: OK" in capsys.readouterr().out

    def test_perturbed_copy_exits_regression_code(self, tmp_path,
                                                  capsys):
        out = tmp_path / "base.json"
        rc = main(["bench", "--scenarios", FAST, "--reps", "1",
                   "--out", str(out)])
        assert rc == 0
        doc = json.load(open(out))
        band = doc["scenarios"][FAST]["measured"]["wall_ms"]
        band["median"] *= 3.0
        band["iqr"] = 0.01
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(doc) + "\n")
        rc = main(["bench", "--replay", str(slow),
                   "--against", str(out)])
        assert rc == errors.EXIT_BENCH_REGRESSION == 11
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "BenchRegression" in captured.err

    def test_unknown_scenario_is_usage_error(self, capsys):
        rc = main(["bench", "--scenarios", "bogus", "--reps", "1"])
        assert rc == errors.EXIT_USAGE
        assert "unknown bench scenarios" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# BENCH_SIM.json golden: an independent oracle for the timing model
# ---------------------------------------------------------------------------

class TestSimGolden:
    """Engine lockstep cannot catch a cost error both engines share
    (they read one cost table); the checked-in envelope can."""

    @pytest.fixture(scope="class")
    def golden(self):
        return load_envelope(GOLDEN)["scenarios"]

    def test_covers_every_workload_cell(self, golden):
        assert len(WORKLOAD_CELLS) == 12
        assert set(WORKLOAD_CELLS) <= set(golden)

    @pytest.mark.parametrize("name", WORKLOAD_CELLS)
    def test_reference_engine(self, golden, name):
        # Profiled: runs on the reference loop, retire() per instruction.
        entry = run_scenario(SCENARIOS[name], reps=1)
        for key in ("guest_instructions", "guest_cycles", "counters",
                    "profile"):
            assert entry[key] == golden[name][key], (name, key)

    @pytest.mark.parametrize("name", WORKLOAD_CELLS)
    def test_fast_engine(self, golden, name):
        # No profiler: hot code runs as translated blocks and their fold.
        scenario = SCENARIOS[name]
        result, _ = timed_run(
            WORKLOADS[scenario.workload].source(scenario.scale),
            scenario.scheme, engine="fast")
        want = golden[name]
        assert result.metrics["sim.fast.block_runs"] > 0
        assert result.instret == want["guest_instructions"]
        assert result.cycles == want["guest_cycles"]
        assert {key: int(value) for key, value in
                sorted(result.stats.items())} == want["counters"]
