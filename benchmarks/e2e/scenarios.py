"""The four end-to-end workloads of the benchmark.

Each workload runs the program's own entry points with their defaults
(no engine or ``jobs`` argument is passed), checks every output, and
records the latency of each operation a user waits for:

* ``fig4_small`` — Fig. 4 rows at ``scale="small"``; one operation is
  one row (a workload under baseline, sbcets, hwst128, hwst128_tchk and
  hwst128_tchk with check elision). Host time goes to ``Machine.run``.
* ``juliet_sweep`` — Fig. 6 coverage over a seeded draw of Juliet bad
  cases, stratified by (CWE, subtype); one operation is one case under
  the four Fig. 6 schemes. Programs are tiny, so compile dominates.
* ``campaign_mix`` — a fuzz, a fault-injection and a conformance
  campaign; one operation is one campaign.
* ``serve_check`` — ``repro serve`` as a subprocess under an open loop of
  distinct Juliet sources; one operation is one ``/v1/check`` request,
  timed from when it was due.

The batch workloads repeat a fixed *pass* (their whole input set) while
time remains; a pass is what a user regenerating that artefact waits
for. The compile cache is emptied before each pass, as in a fresh
process.

Operation times are reported in *reference-host* time (see
:class:`HostSpeed`): other tenants of the machine slow this host by up
to 2x for minutes at a time, and a fixed pure-Python loop timed around
each operation slows by the same factor.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib
import io
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import loadgen  # noqa: E402  (sibling module; needs no repro import)

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Scratch space inside the checkout (serve artifact stores, traces).
WORK_DIR = ROOT / ".bench_e2e"


def canonical_digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def process_cache():
    return importlib.import_module(
        "repro.harness.compile_cache").process_cache()


def percentile(ordered: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

CALIBRATION_LOOP = 100_000

#: Milliseconds the calibration loop takes on the reference host (the
#: median on an idle 2-vCPU Intel Xeon VM, Python 3.11). A normalised
#: time is what the operation would have taken on that host.
REFERENCE_CALIBRATION_MS = 6.6


def calibration_ms() -> float:
    """One timing of a fixed pure-Python loop: the host's current speed."""
    began = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i % 7
    return (time.perf_counter() - began) * 1e3


class HostSpeed:
    """Converts host time into reference-host time.

    :meth:`begin` samples the calibration loop before an operation and
    :meth:`normalise` samples it again after, scaling the operation's
    time by the reference over the mean of the two samples. A code change
    moves the operation but not the loop; a slower host moves both.
    With ``per_op`` off (traced runs) operations are left unscaled and
    unsampled, so calibration never lands inside a traced region.
    """

    def __init__(self, per_op: bool = True):
        self.per_op = per_op
        self.samples: List[float] = []

    def sample(self) -> float:
        value = calibration_ms()
        self.samples.append(value)
        return value

    def begin(self) -> None:
        if self.per_op:
            self.sample()

    def normalise(self, raw: float) -> float:
        if not self.per_op:
            return raw
        before = self.samples[-1]
        return raw * self.factor(before, self.sample())

    @staticmethod
    def factor(before_ms: float, after_ms: float) -> float:
        """Reference over the host's speed across one operation."""
        return 2 * REFERENCE_CALIBRATION_MS / (before_ms + after_ms)


# ---------------------------------------------------------------------------
# Workload base
# ---------------------------------------------------------------------------

class Scenario:
    """One workload: set-up, a measured window, output checks."""

    name = ""

    def __init__(self, seed: int, seconds: float, smoke: bool = False,
                 speed: Optional[HostSpeed] = None):
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.speed = speed or HostSpeed(per_op=False)
        self.passes = 0
        self.op_ms: List[float] = []       # normalised, every operation
        self.op_by_index: List[List[float]] = []  # per position in a pass
        self.attempted = 0
        self.failures: List[str] = []
        self.outputs: List[object] = []    # checked after the window
        self.cache_totals: Dict[str, int] = {}
        self.extra: Dict[str, float] = {}  # workload-specific layer metrics
        self._index = 0

    # -- hooks ---------------------------------------------------------

    def setup(self) -> None:
        """Imports and input generation (timed as ``setup_s``)."""

    def inputs_digest(self) -> str:
        """Digest of the generated inputs (seed-dependence self-test)."""
        raise NotImplementedError

    def run_pass(self) -> None:
        """One pass over the input set; records ops and outputs."""
        raise NotImplementedError

    def check(self) -> None:
        """Check ``self.outputs``; record failures."""

    def close(self) -> None:
        """Release what :meth:`setup` started."""

    # -- driver --------------------------------------------------------

    def measure(self, seconds: float, tracer) -> None:
        """Repeat whole passes while the next one is expected to fit."""
        start = time.perf_counter()
        pass_s: List[float] = []
        with tracer.region():
            while True:
                tracer.unit = self.passes
                process_cache().clear()
                began = time.perf_counter()
                self._index = 0
                self.speed.begin()
                self.run_pass()
                pass_s.append(time.perf_counter() - began)
                self.passes += 1
                self._fold_cache_stats()
                tracer.units += 1
                elapsed = time.perf_counter() - start
                if elapsed + statistics.median(pass_s) > seconds:
                    break

    def finish(self, tracer) -> None:
        """Post-window work: output checks (never timed)."""
        self.check()

    def wall_s(self) -> float:
        """Time of one pass: each operation's median over the passes,
        summed over the operations of a pass."""
        return sum(statistics.median(times)
                   for times in self.op_by_index) / 1e3

    def _fold_cache_stats(self) -> None:
        for name, value in process_cache().stats_snapshot().items():
            self.cache_totals[name] = self.cache_totals.get(name, 0) + value

    def _timed(self, fn, *args, **kwargs):
        began = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed_ms = self.speed.normalise(time.perf_counter() - began) * 1e3
        if self._index == len(self.op_by_index):
            self.op_by_index.append([])
        self.op_by_index[self._index].append(elapsed_ms)
        self._index += 1
        self.op_ms.append(elapsed_ms)
        self.attempted += 1
        return result


# ---------------------------------------------------------------------------
# fig4_small
# ---------------------------------------------------------------------------

#: One row per suite (mibench, olden, spec), each spending over 75% of
#: its host time in Machine.run, as the full figure does (~90%).
FIG4_ROWS = ("math", "mst", "hmmer")
FIG4_SMOKE_ROWS = ("treeadd",)


class Fig4Small(Scenario):
    name = "fig4_small"

    @property
    def rows(self) -> Tuple[str, ...]:
        return FIG4_SMOKE_ROWS if self.smoke else FIG4_ROWS

    def setup(self) -> None:
        self.experiments = importlib.import_module(
            "repro.harness.experiments")

    def inputs_digest(self) -> str:
        # The inputs are the fixed workload sources; the seed is unused.
        from repro.workloads import WORKLOADS
        return canonical_digest(
            [WORKLOADS[name].source("small") for name in self.rows])

    def run_pass(self) -> None:
        for name in self.rows:
            data = self._timed(self.experiments.fig4_overhead,
                               scale="small", workloads=[name])
            self.outputs.append((name, data))

    def check(self) -> None:
        golden = load_expected()["fig4_rows"]
        for name, data in self.outputs:
            if data.get("failures") or len(data["rows"]) != 1:
                self.failures.append(f"{name}: {data.get('failures')}")
                continue
            row = data["rows"][0]
            if canonical_digest(row) != golden.get(name):
                self.failures.append(f"{name}: row digest differs from "
                                     "expected.json")
            elif not row["sbcets"] > row["hwst128"] >= row["hwst128_tchk"]:
                self.failures.append(f"{name}: overhead ordering broken")


def fig4_row_digests(rows) -> Dict[str, str]:
    from repro.harness.experiments import fig4_overhead
    return {name: canonical_digest(
        fig4_overhead(scale="small", workloads=[name])["rows"][0])
        for name in rows}


# ---------------------------------------------------------------------------
# juliet_sweep
# ---------------------------------------------------------------------------

JULIET_PER_SUBTYPE = 2
JULIET_SMOKE_PER_SUBTYPE = 1


def draw_juliet_cases(seed: int, per_subtype: int):
    """Seeded stratified draw: ``per_subtype`` cases of every
    (CWE, subtype) of the 8366-case corpus."""
    from repro.workloads.juliet.generator import CWE_PLAN, _build_case

    rng = random.Random(seed)
    cases = []
    for cwe, plan in CWE_PLAN.items():
        for subtype, count in plan:
            for index in sorted(rng.sample(range(count), per_subtype)):
                cases.append(_build_case(cwe, subtype, index))
    return cases


def expected_detection(case, scheme: str) -> bool:
    """The designed detection contract of a bad case (test_juliet.py)."""
    if scheme == "sbcets":
        return case.expected["pointer"]
    if scheme == "hwst128_tchk":
        return case.expected["pointer"] and \
            not case.expected.get("hwst_misses")
    return case.expected[scheme]


class JulietSweep(Scenario):
    name = "juliet_sweep"

    def _draw(self):
        return draw_juliet_cases(
            self.seed, JULIET_SMOKE_PER_SUBTYPE if self.smoke
            else JULIET_PER_SUBTYPE)

    def setup(self) -> None:
        self.coverage = importlib.import_module("repro.harness.coverage")
        self.schemes = importlib.import_module(
            "repro.harness.experiments").FIG6_SCHEMES
        self.cases = self._draw()

    def inputs_digest(self) -> str:
        return canonical_digest([case.case_id for case in self._draw()])

    def run_pass(self) -> None:
        for case in self.cases:
            results = self._timed(self.coverage.evaluate_coverage,
                                  self.schemes, cases=[case])
            self.outputs.append((case, results))

    def check(self) -> None:
        for case, results in self.outputs:
            wrong = [scheme for scheme in self.schemes
                     if results[scheme].failures or
                     bool(results[scheme].detected)
                     != expected_detection(case, scheme)]
            if wrong:
                self.failures.append(f"{case.case_id}: {wrong}")


# ---------------------------------------------------------------------------
# campaign_mix
# ---------------------------------------------------------------------------

CAMPAIGN_SIZES = {
    "full": {"fuzz_n": 8, "fault_n": 24, "conform_workloads": ["treeadd"],
             "conform_fuzz": 0},
    "smoke": {"fuzz_n": 3, "fault_n": 6, "conform_workloads": ["treeadd"],
              "conform_fuzz": 0},
}


def run_campaign_mix(seed: int, sizes: dict, timed=None):
    """The three campaigns; returns ``{campaign: (digest, clean)}``."""
    fuzz = importlib.import_module("repro.fuzz.campaign")
    fault = importlib.import_module("repro.faultinject.campaign")
    conform = importlib.import_module("repro.harness.conform")
    timed = timed or (lambda fn, *a, **k: fn(*a, **k))

    report = timed(fuzz.run_fuzz, n=sizes["fuzz_n"], seed=seed)
    out = {"fuzz": (text_digest(report.to_json()), report.clean)}
    report = timed(fault.run_campaign, "hwst128", n=sizes["fault_n"],
                   seed=seed)
    out["faultinject"] = (canonical_digest(report.to_dict()),
                          report.clean)
    report = timed(conform.run_conform,
                   workloads=sizes["conform_workloads"],
                   fuzz_count=sizes["conform_fuzz"], seed=seed,
                   heartbeat_stream=io.StringIO())
    out["conform"] = (text_digest(conform.report_to_json(report)),
                      conform.divergences_of(report) == 0)
    return out


class CampaignMix(Scenario):
    name = "campaign_mix"

    @property
    def profile(self) -> str:
        return "smoke" if self.smoke else "full"

    def setup(self) -> None:
        for module in ("repro.fuzz.campaign", "repro.faultinject.campaign",
                       "repro.harness.conform"):
            importlib.import_module(module)

    def inputs_digest(self) -> str:
        from repro.fuzz.gen import generate_program, plan_programs
        sizes = CAMPAIGN_SIZES[self.profile]
        return canonical_digest(
            [generate_program(self.seed, index, kind).source
             for index, kind in plan_programs(self.seed, sizes["fuzz_n"])])

    def run_pass(self) -> None:
        self.outputs.append(run_campaign_mix(
            self.seed, CAMPAIGN_SIZES[self.profile], self._timed))

    def check(self) -> None:
        golden = load_expected()["campaign"][self.profile].get(
            str(self.seed))
        # Seeds without a golden must at least repeat byte for byte.
        reference = golden or {name: digest for name, (digest, _)
                               in self.outputs[0].items()}
        for out in self.outputs:
            for name, (digest, clean) in out.items():
                if not clean:
                    self.failures.append(f"{name}: divergence, crash or "
                                         "hang")
                elif digest != reference[name]:
                    self.failures.append(f"{name}: report digest differs")


# ---------------------------------------------------------------------------
# serve_check
# ---------------------------------------------------------------------------

#: 10 req/s keeps the two workers under ~40% busy even when the host runs
#: at half speed, so latency measures service time rather than queueing.
SERVE_RATE = 10.0
SERVE_INFLIGHT = 2         # at most this many connections (nproc = 2)
SERVE_WARMUP = 20
SERVE_BLOCK = 20           # requests per reported block (2 s)
SERVE_SAMPLE = 0.05        # share replayed offline for byte identity
SERVE_LATE_LIMIT_MS = 20.0
SERVE_SCHEMES = ["hwst128_tchk"]
SERVE_SMOKE = {"warmup": 4, "block": 10}


def draw_serve_requests(seed: int, count: int) -> List[Tuple[bytes, bool]]:
    """``count`` distinct Juliet sources, alternating bad and good, as
    ``(request body, expected detected)`` pairs."""
    from repro.workloads.juliet.generator import CWE_PLAN, _build_case

    bad: Dict[str, bool] = {}
    good: Dict[str, bool] = {}
    for cwe, plan in CWE_PLAN.items():
        for subtype, total in plan:
            for index in range(total):
                case = _build_case(cwe, subtype, index)
                bad.setdefault(case.bad_source,
                               expected_detection(case, "hwst128_tchk"))
                good.setdefault(case.good_source, False)
    rng = random.Random(seed)
    pools = [list(bad.items()), list(good.items())]
    for pool in pools:
        rng.shuffle(pool)
    if count > 2 * min(len(pool) for pool in pools):
        raise ValueError(f"only {2 * min(map(len, pools))} distinct "
                         f"request sources for {count} requests")
    picked = [pools[i % 2][i // 2] for i in range(count)]
    return [(json.dumps({"source": source, "schemes": SERVE_SCHEMES})
             .encode("utf-8"), expect) for source, expect in picked]


class ServeCheck(Scenario):
    """One open loop; the calibration loop samples host speed in the
    client's idle gaps between requests."""

    name = "serve_check"

    def __init__(self, seed: int, seconds: float, smoke: bool = False,
                 speed: Optional[HostSpeed] = None):
        super().__init__(seed, seconds, smoke, speed)
        self.warmup = SERVE_SMOKE["warmup"] if smoke else SERVE_WARMUP
        self.block = SERVE_SMOKE["block"] if smoke else SERVE_BLOCK
        self.blocks = max(1, int(seconds * SERVE_RATE) // self.block)
        self.server: Optional[loadgen.ServeProcess] = None
        self.block_s: List[float] = []
        self.late_ms: List[float] = []
        self.replies: List[tuple] = []

    def _draw(self) -> List[Tuple[bytes, bool]]:
        return draw_serve_requests(
            self.seed, self.warmup + self.blocks * self.block)

    def setup(self) -> None:
        self.protocol = importlib.import_module("repro.serve.protocol")
        self.requests = self._draw()
        self.server = loadgen.ServeProcess(
            ROOT, WORK_DIR / f"serve-{os.getpid()}")
        self.server.start()
        warm = loadgen.closed_loop(
            self.server.address,
            [body for body, _ in self.requests[:self.warmup]],
            SERVE_INFLIGHT)
        bad = [r.status for r in warm if r.status != 200]
        if bad:
            raise RuntimeError(f"serve warm-up failed: statuses {bad}")

    def inputs_digest(self) -> str:
        return canonical_digest([body.decode() for body, _ in self._draw()])

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def measure(self, seconds: float, tracer) -> None:
        window = self.requests[self.warmup:]
        idle = self.speed.sample if self.speed.per_op else None
        replies, late_s, samples = loadgen.open_loop(
            self.server.address, [body for body, _ in window],
            SERVE_RATE, SERVE_INFLIGHT, idle)
        self.replies = list(zip(window, replies))
        self.op_ms = [(r.done - r.due) * 1e3 * _bracket_factor(samples, r)
                      for r in replies]
        for start in range(0, len(replies), self.block):
            block = replies[start:start + self.block]
            # Dominated by the arrival schedule, so left unscaled.
            self.block_s.append(max(r.done for r in block) - block[0].due)
            self.passes += 1
        self.late_ms = [s * 1e3 for s in late_s]
        self.attempted = len(self.replies)
        self.server_metrics = loadgen.scrape_metrics(self.server.address)

    def wall_s(self) -> float:
        """Time until every verdict of a block is back."""
        return statistics.median(self.block_s)

    def finish(self, tracer) -> None:
        """Check verdicts, load-generator validity, and replay a seeded
        sample offline (traced on ``--trace 1``) for byte identity."""
        for (_, expect), reply in self.replies:
            if reply.status != 200:
                self.failures.append(f"HTTP {reply.status}")
                continue
            verdict = json.loads(reply.body)["verdicts"][SERVE_SCHEMES[0]]
            if verdict["detected"] != expect:
                self.failures.append("wrong detected verdict")
        late_p99 = percentile(sorted(self.late_ms), 99)
        if late_p99 > SERVE_LATE_LIMIT_MS:
            self.failures.append(f"load generator late p99 "
                                 f"{late_p99:.1f} ms")
        metrics = self.server_metrics
        for name in ("repro_serve_requests_cache_hits",
                     "repro_serve_requests_coalesced"):
            if metrics.get(name, 0):
                self.failures.append(f"{name} = {metrics[name]:g}: the "
                                     "result LRU served a request")

        # Replay through the worker's own path (evaluate with the process
        # compile cache), so the layer split explains the served latency.
        rng = random.Random(self.seed)
        count = max(1, round(SERVE_SAMPLE * len(self.replies)))
        sample = sorted(rng.sample(range(len(self.replies)), count))
        evaluate_ms = []
        cache = process_cache()
        cache.clear()
        with tracer.region():
            for index in sample:
                (body, _), reply = self.replies[index]
                tracer.unit = index
                began = time.perf_counter()
                request = self.protocol.parse_request(body)
                envelope = self.protocol.evaluate(
                    request["source"], request["schemes"],
                    request["elide_checks"], request["max_instructions"],
                    cache=cache)
                evaluate_ms.append((time.perf_counter() - began) * 1e3)
                tracer.units += 1
                self.attempted += 1
                if reply.status != 200:
                    continue
                served = json.loads(reply.body)
                served.pop("transport", None)
                if self.protocol.canonical_json(served) != \
                        self.protocol.canonical_json(envelope):
                    self.failures.append("served envelope differs from "
                                         "offline evaluate()")
        self._fold_cache_stats()

        ordered = sorted(self.op_ms)
        server_p50 = metrics.get(
            'repro_serve_latency_s{quantile="0.5"}', 0.0) * 1e3
        self.extra = {
            "serve.client_p95_ms": percentile(ordered, 95),
            "serve.server_p50_ms": server_p50,
            "serve.server_p99_ms": metrics.get(
                'repro_serve_latency_s{quantile="0.99"}', 0.0) * 1e3,
            "serve.transport_p50_ms": percentile(ordered, 50) - server_p50,
            "serve.evaluate.ms": statistics.median(evaluate_ms),
            "serve.requests_ok": metrics.get(
                "repro_serve_requests_ok", 0.0),
            "serve.shed": metrics.get("repro_serve_requests_shed", 0.0),
            "serve.cache_hits": metrics.get(
                "repro_serve_requests_cache_hits", 0.0),
            "serve.coalesced": metrics.get(
                "repro_serve_requests_coalesced", 0.0),
            "serve.worker_deaths": metrics.get(
                "repro_serve_worker_deaths", 0.0),
            "loadgen.late_p99_ms": late_p99,
        }


def _bracket_factor(samples: List[Tuple[float, float]], reply) -> float:
    """Host-speed factor from the calibration samples taken last before
    ``reply`` was due and first after it completed (1 without samples)."""
    if not samples:
        return 1.0
    times = [t for t, _ in samples]
    before = max(bisect.bisect_right(times, reply.due) - 1, 0)
    after = min(bisect.bisect_left(times, reply.done), len(samples) - 1)
    return HostSpeed.factor(samples[before][1], samples[after][1])


SCENARIOS = {cls.name: cls for cls in
             (Fig4Small, JulietSweep, CampaignMix, ServeCheck)}


# ---------------------------------------------------------------------------
# Timing-model cost and goldens
# ---------------------------------------------------------------------------

def timing_model_cost() -> Tuple[float, float]:
    """Host ms the timing model adds on the quick ``repro bench`` kernel
    cells (timed minus untimed ``Machine.run``), and its share of the
    timed runs."""
    import gc

    from repro.obs.bench import QUICK_SCENARIOS, SCENARIOS as BENCH
    from repro.pipeline.timing import InOrderPipeline
    from repro.schemes import compile_source
    from repro.sim import make_machine
    from repro.workloads import WORKLOADS

    timed_s = untimed_s = 0.0
    for name in QUICK_SCENARIOS:
        cell = BENCH[name]
        if cell.kind != "workload":
            continue
        program = compile_source(
            WORKLOADS[cell.workload].source(cell.scale), cell.scheme)
        for timing in (InOrderPipeline(), None):
            machine = make_machine(timing=timing)
            gc.collect()
            began = time.perf_counter()
            machine.run(program)
            elapsed = time.perf_counter() - began
            if timing is None:
                untimed_s += elapsed
            else:
                timed_s += elapsed
    cost = timed_s - untimed_s
    return cost * 1e3, cost / timed_s


#: Seeds whose campaign report digests are pinned in expected.json.
GOLDEN_SEEDS = (7, 11)


def write_expected() -> None:
    """Regenerate expected.json: per-row Fig. 4 digests and campaign
    report digests. Run only when a change is meant to alter them."""
    expected = {
        "fig4_rows": fig4_row_digests(FIG4_ROWS + FIG4_SMOKE_ROWS),
        "campaign": {
            profile: {str(seed): {
                name: digest for name, (digest, _) in
                run_campaign_mix(seed, sizes).items()}
                for seed in GOLDEN_SEEDS}
            for profile, sizes in CAMPAIGN_SIZES.items()},
    }
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2,
                                        sort_keys=True) + "\n")
