"""End-to-end benchmark of the HWST128 reproduction.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload fig4_small --seed 7 \\
        --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --workload all --trace 1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps each layer's entry points (see ``layers.py``) and
reports the per-layer metrics instead, writes a Chrome trace under
``.bench_e2e/`` and prints the per-layer self-time table on stderr.
Every metric is printed by name with its unit; the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs each workload in a fresh subprocess.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5
_PROBE_TIMEOUT_S = 120.0


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _probe_setup(args, speed) -> float:
    """Seconds from launching a fresh benchmark process until its
    workload is ready for the first timed operation (reference-host
    time, calibrated around the probe)."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--probe-setup"]
    if args.smoke:
        command.append("--smoke")
    speed.begin()
    began = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - began
        proc.stdout.read()
        code = proc.wait(timeout=_PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return speed.normalise(ready)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _end_to_end(scenario, setup_samples) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": scenario.wall_s(),
        "latency_p50_ms": statistics.median(scenario.op_ms),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _per_layer(scenario, tracer, timing) -> dict:
    units = max(1, tracer.units)
    wall_ms = tracer.wall_ns / 1e6
    values = {f"{layer}.ms": ns / 1e6 / units
              for layer, ns in tracer.self_ns.items()}
    for name, total in tracer.counts.items():
        values[name] = total / units
    instret = tracer.counts.get("sim.guest_instret", 0)
    values["sim.host_ns_per_instr"] = \
        tracer.self_ns["sim.run"] / instret if instret else 0.0
    cache = scenario.cache_totals
    hits = cache.get("compile.cache.hits", 0)
    misses = cache.get("compile.cache.misses", 0) + \
        cache.get("compile.cache.unit_misses", 0)
    values["compile_cache.hits"] = hits / units
    values["compile_cache.misses"] = misses / units
    values["compile_cache.hit_ratio"] = \
        hits / (hits + misses) if hits + misses else 0.0
    values["pipeline.timing.ms"], values["pipeline.timing_share"] = timing
    values["unattributed.ms"] = tracer.unattributed_ns / 1e6 / units
    values["trace.wall.ms"] = wall_ms / units
    values["trace.overhead_pct"] = 100.0 * len(tracer.spans) * \
        tracer.span_cost_ns() / tracer.wall_ns if tracer.wall_ns else 0.0
    values["host.calib_ms"] = statistics.median(scenario.speed.samples)
    values.update(scenario.extra)
    return values


def run_one(args) -> int:
    from layers import NullTracer, Tracer
    from scenarios import SCENARIOS, WORK_DIR, HostSpeed, timing_model_cost

    spec = _load_spec()
    cls = SCENARIOS[args.workload]
    if args.probe_setup:
        scenario = cls(args.seed, args.seconds, args.smoke)
        try:
            scenario.setup()
            print("ready", flush=True)
        finally:
            scenario.close()
        return 0

    speed = HostSpeed(per_op=not args.trace)
    probes = 1 if args.smoke else SETUP_PROBES
    setup_samples = [] if args.trace else \
        [_probe_setup(args, speed) for _ in range(probes)]
    scenario = cls(args.seed, args.seconds, args.smoke, speed)
    tracer = Tracer() if args.trace else NullTracer()
    try:
        scenario.setup()
        speed.sample()
        scenario.measure(args.seconds, tracer)
        speed.sample()
        scenario.finish(tracer)
    finally:
        scenario.close()

    if args.trace:
        values = _per_layer(scenario, tracer, timing_model_cost())
        declared = spec["per_layer"]
        out = WORK_DIR / f"{args.workload}-seed{args.seed}.trace.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_chrome_trace(out)
        print(tracer.layer_table(), file=sys.stderr)
        print(f"chrome trace -> {out}", file=sys.stderr)
    else:
        values = _end_to_end(scenario, setup_samples)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in declared}

    for failure in scenario.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"{args.workload}: seed={args.seed} passes={scenario.passes}"
          f" ops={scenario.attempted} failed={len(scenario.failures)}")
    for name, metric in metrics.items():
        print(f"  {name:<28}{metric['value']:>16.4f} {metric['unit']}")
    result = {"correct": not scenario.failures,
              "attempted": max(1, scenario.attempted),
              "failed": len(scenario.failures),
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in a fresh subprocess; metrics keyed
    ``<workload>.<metric>`` in the combined result line."""
    from scenarios import SCENARIOS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in SCENARIOS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark process failed "
                  f"(exit {proc.returncode})", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined), flush=True)
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)")
    parser.add_argument("--workload", default="all",
                        help="fig4_small | juliet_sweep | campaign_mix | "
                        "serve_check | all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input sets, for the self-test")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected.json from this checkout")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.write_expected:
        from scenarios import write_expected
        write_expected()
        return 0
    if args.workload == "all":
        return run_all(args)
    from scenarios import SCENARIOS
    if args.workload not in SCENARIOS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(SCENARIOS)} or all", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
