"""Self-test of the end-to-end benchmark at ``--smoke`` sizes.

Run from the repository root with ``python -m pytest benchmarks/e2e``
(about a minute). It checks the benchmark, not the program: every
declared metric is emitted with its unit, every traced boundary still
resolves where it is called, the self-time budget adds up, and the seed
drives the inputs of every workload except the fixed Fig. 4 rows.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import scenarios  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

_results = {}


def smoke_run(workload: str, trace: int) -> dict:
    """One ``--smoke`` run of the benchmark command (memoised)."""
    key = (workload, trace)
    if key not in _results:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace),
             "--smoke"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr[-3000:]
        _results[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _results[key]


def test_workloads_match_spec():
    assert WORKLOADS == list(scenarios.SCENARIOS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace):
    result = smoke_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_traced_wall(workload):
    metrics = {name: entry["value"] for name, entry
               in smoke_run(workload, 1)["metrics"].items()}
    self_ms = sum(metrics[f"{layer}.ms"] for layer in layers.LAYERS)
    assert abs(self_ms + metrics["unattributed.ms"]
               - metrics["trace.wall.ms"]) <= 1.0
    assert metrics["unattributed.ms"] <= 0.15 * metrics["trace.wall.ms"]


def test_every_boundary_resolves_at_its_call_site():
    resolved = layers.resolve_all()
    assert len(resolved) == len(layers.BOUNDARIES)
    declared = {m["name"] for m in SPEC["per_layer"]}
    for layer in layers.LAYERS:
        assert f"{layer}.ms" in declared, layer


def test_region_wraps_and_restores_the_call_sites():
    originals = {(b.module, b.qualname): fn
                 for b, fn in layers.resolve_all()}
    tracer = layers.Tracer()
    with tracer.region():
        for boundary in layers.BOUNDARIES:
            _, _, current = layers.resolve(boundary)
            assert current is not originals[
                (boundary.module, boundary.qualname)]
    for boundary, fn in layers.resolve_all():
        assert fn is originals[(boundary.module, boundary.qualname)]


def test_spans_nest_and_self_time_is_exact():
    from repro.harness import runner

    tracer = layers.Tracer()
    with tracer.region():
        runner.run_program("int main(void) { return 0; }", "hwst128_tchk",
                           timing=False)
    spans = {span[0]: span for span in tracer.spans}
    layers_seen = {span[1] for span in spans.values()}
    assert {"compile", "minic.lex", "minic.parse", "codegen.lower",
            "sim.run"} <= layers_seen
    for span_id, _, start, end, parent, _ in spans.values():
        if parent is not None:
            assert spans[parent][2] <= start <= end <= spans[parent][3]
    assert sum(tracer.self_ns.values()) == tracer.root_ns
    assert tracer.counts["compile.programs"] == 1
    assert tracer.counts["sim.runs"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_drives_inputs_except_fig4(workload):
    cls = scenarios.SCENARIOS[workload]
    digests = {seed: cls(seed, 20, smoke=False).inputs_digest()
               for seed in (7, 11)}
    if workload == "fig4_small":
        assert digests[7] == digests[11]
    else:
        assert digests[7] != digests[11]
    assert digests[7] == cls(7, 20, smoke=False).inputs_digest()
