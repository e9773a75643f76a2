"""Tests for ``repro serve``: protocol, stores, supervision, HTTP app.

The soak test at the bottom is the issue's acceptance criterion: 300+
requests at concurrency 8 against a live server with a planted worker
crash and a corrupted disk artifact mid-run — zero hung or dropped
requests, every served verdict byte-identical to the offline
:func:`repro.serve.protocol.evaluate` result, and ``/metrics``
reporting the planted shed/restart/repair counts.
"""

import asyncio
import json
import os
import pickle
import subprocess
import sys
import time

import pytest

from repro import errors
from repro.core.config import HwstConfig
from repro.harness.compile_cache import CACHE_FORMAT, CompileCache, \
    DiskArtifactStore
from repro.obs.metrics import MetricsRegistry, to_prometheus
from repro.serve.app import ServeApp
from repro.serve.protocol import DEFAULT_MAX_INSTRUCTIONS, \
    DEFAULT_SCHEMES, MAX_INSTRUCTIONS_CAP, RequestError, SCHEMA, \
    canonical_json, evaluate, parse_request, request_fingerprint
from repro.serve.store import ResultCache
from repro.serve.supervisor import CRASH_EXIT_CODE, STATUS_DEGRADED, \
    STATUS_QUARANTINED, STATUS_SERVED, ServeCell, Supervisor

CLEAN = """
int main(void) {
    long *p = (long*)malloc(8);
    p[0] = 41;
    long v = p[0] + 1;
    free(p);
    print_int(v);
    return 0;
}
"""

TEMPORAL = """
int main(void) {
    long *p = (long*)malloc(8);
    free(p);
    return (int)(p[0] & 0);
}
"""

BAD_SYNTAX = "int main(void) { return undeclared; }"

INFINITE_LOOP = "int main(void) { while (1) {} return 0; }"

#: Distinct deterministic soak workloads (indexed by %d).
SOAK_TEMPLATE = """
int main(void) {
    long acc = %d;
    long i = 0;
    while (i < %d) { acc = acc + i; i = i + 1; }
    long *p = (long*)malloc(16);
    p[0] = acc;
    p[1] = 2;
    print_int(p[0] + p[1]);
    free(p);
    return 0;
}
"""


def _soak_sources(count=10):
    return [SOAK_TEMPLATE % (i, 8 + i) for i in range(count)]


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


def _body(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


class TestParseRequest:
    def test_defaults(self):
        req = parse_request(_body({"source": CLEAN}))
        assert req["schemes"] == DEFAULT_SCHEMES
        assert req["elide_checks"] is False
        assert req["max_instructions"] == DEFAULT_MAX_INSTRUCTIONS
        assert req["debug"] == {}
        assert len(req["fingerprint"]) == 64

    def test_fingerprint_is_stable_and_content_addressed(self):
        one = parse_request(_body({"source": CLEAN}))["fingerprint"]
        two = parse_request(_body({"source": CLEAN}))["fingerprint"]
        other = parse_request(_body({"source": TEMPORAL}))["fingerprint"]
        assert one == two
        assert one != other
        assert one == request_fingerprint(
            CLEAN, DEFAULT_SCHEMES, False, DEFAULT_MAX_INSTRUCTIONS)

    def test_options_change_the_fingerprint(self):
        base = parse_request(_body({"source": CLEAN}))["fingerprint"]
        elide = parse_request(_body(
            {"source": CLEAN, "elide_checks": True}))["fingerprint"]
        budget = parse_request(_body(
            {"source": CLEAN, "max_instructions": 1000}))["fingerprint"]
        assert len({base, elide, budget}) == 3

    def test_budget_is_capped_not_rejected(self):
        req = parse_request(_body(
            {"source": CLEAN,
             "max_instructions": MAX_INSTRUCTIONS_CAP * 10}))
        assert req["max_instructions"] == MAX_INSTRUCTIONS_CAP

    @pytest.mark.parametrize("body,kind,status", [
        (b"not json {", "bad_json", 400),
        (b"[1, 2]", "bad_request", 400),
        (_body({"source": ""}), "bad_source", 400),
        (_body({"source": 7}), "bad_source", 400),
        (_body({"source": "int main(void){return 0;}",
                "schemes": []}), "bad_schemes", 400),
        (_body({"source": "int main(void){return 0;}",
                "schemes": ["clang"]}), "unknown_scheme", 400),
        (_body({"source": "int main(void){return 0;}",
                "elide_checks": "yes"}), "bad_request", 400),
        (_body({"source": "int main(void){return 0;}",
                "max_instructions": 0}), "bad_request", 400),
        (_body({"source": "int main(void){return 0;}",
                "max_instructions": True}), "bad_request", 400),
        (_body({"source": "int main(void){return 0;}",
                "debug": {"crash": True}}), "bad_request", 400),
    ])
    def test_refusals(self, body, kind, status):
        with pytest.raises(RequestError) as err:
            parse_request(body)
        assert err.value.kind == kind
        assert err.value.http_status == status

    def test_oversized_source_is_413(self):
        big = "int main(void) { return 0; } //" + "x" * 70000
        with pytest.raises(RequestError) as err:
            parse_request(_body({"source": big}))
        assert err.value.kind == "source_too_large"
        assert err.value.http_status == 413

    def test_debug_block_gets_its_own_fingerprint(self):
        plain = parse_request(_body({"source": CLEAN}))
        faulty = parse_request(_body(
            {"source": CLEAN, "debug": {"crash": True}}),
            allow_debug=True)
        assert faulty["debug"] == {"crash": True}
        assert faulty["fingerprint"] != plain["fingerprint"]


class TestEvaluate:
    def test_envelope_is_deterministic_bytes(self):
        cache = CompileCache()
        one = evaluate(CLEAN, schemes=("gcc",), cache=cache)
        two = evaluate(CLEAN, schemes=("gcc",), cache=cache)
        assert canonical_json(one) == canonical_json(two)
        assert one["schema"] == SCHEMA
        verdict = one["verdicts"]["gcc"]
        assert verdict["status"] == "exit"
        assert verdict["cli_exit_code"] == errors.EXIT_OK
        assert "42" in verdict["output"]
        assert one["overhead"]["baseline_cycles"] > 0
        assert "gcc" in one["overhead"]["pct_by_scheme"]

    def test_verdict_exit_code_matches_the_cli(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "temporal.c"
        path.write_text(TEMPORAL)
        cli_rc = main(["run", str(path), "--scheme", "hwst128_tchk"])
        envelope = evaluate(TEMPORAL, schemes=("hwst128_tchk",))
        verdict = envelope["verdicts"]["hwst128_tchk"]
        assert verdict["detected"] is True
        assert verdict["trap"]["class"] == "TemporalViolation"
        assert verdict["cli_exit_code"] == cli_rc == errors.EXIT_TEMPORAL

    def test_toolchain_failure_is_data_not_an_exception(self):
        envelope = evaluate(BAD_SYNTAX, schemes=("gcc",))
        verdict = envelope["verdicts"]["gcc"]
        assert verdict["status"] == "toolchain_error"
        assert verdict["cli_exit_code"] == errors.EXIT_TOOLCHAIN
        assert envelope["overhead"]["baseline_cycles"] is None


class TestResultCache:
    def test_lru_and_counters(self):
        cache = ResultCache(max_entries=2)
        assert cache.get("a") is None
        cache.put("a", {"n": 1})
        cache.put("b", {"n": 2})
        assert cache.get("a") == {"n": 1}   # refreshes a
        cache.put("c", {"n": 3})            # evicts b, the oldest
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        snap = cache.stats_snapshot()
        assert snap["serve.result_cache.entries"] == 2
        assert snap["serve.result_cache.hits"] == 3
        assert snap["serve.result_cache.misses"] == 2
        assert snap["serve.result_cache.evictions"] == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)


class TestPrometheusRendering:
    def test_scalars_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("serve.requests.total").inc(3)
        registry.gauge("serve.active_requests").set(1)
        for value in (0.1, 0.2, 0.3):
            registry.histogram("serve.latency_s").observe(value)
        text = to_prometheus(registry.snapshot())
        assert "repro_serve_requests_total 3" in text
        assert "repro_serve_active_requests 1" in text
        assert "# TYPE repro_serve_latency_s summary" in text
        assert 'repro_serve_latency_s{quantile="0.5"}' in text
        assert "repro_serve_latency_s_count 3" in text
        assert text.endswith("\n")


# ---------------------------------------------------------------------------
# on-disk artifact store hardening
# ---------------------------------------------------------------------------


class TestDiskArtifactStore:
    def test_roundtrip_and_miss(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        assert store.load("deadbeef") is None
        store.store("deadbeef", {"payload": 1})
        assert store.load("deadbeef") == {"payload": 1}
        assert store.misses == 1 and store.hits == 1

    def test_corruption_is_repaired_not_fatal(self, tmp_path):
        store = DiskArtifactStore(tmp_path)
        store.store("k", [1, 2, 3])
        artifact = store._artifact("k")
        artifact.write_bytes(b"not a pickled sealed entry")
        assert store.load("k") is None
        assert store.corrupt == 1
        assert not artifact.exists()    # deleted, ready for re-publish
        store.store("k", [1, 2, 3])
        assert store.load("k") == [1, 2, 3]

    @pytest.mark.parametrize("tamper", ["stale_format", "wrong_fingerprint"])
    def test_bad_seal_is_repaired_by_recompiling(self, tmp_path, tamper):
        store = DiskArtifactStore(tmp_path)
        program = CompileCache(disk=store).compile(CLEAN, "gcc")
        artifact = store._artifact(
            CompileCache.program_key(CLEAN, "gcc", HwstConfig()))
        version, fingerprint, blob = pickle.loads(artifact.read_bytes())
        if tamper == "stale_format":
            version = CACHE_FORMAT + 1
        else:
            fingerprint = "0" * 64
        artifact.write_bytes(pickle.dumps((version, fingerprint, blob)))
        # The next process finds the bad seal, recompiles and
        # re-publishes ...
        cache = CompileCache(disk=store)
        repaired = cache.compile(CLEAN, "gcc")
        assert (store.corrupt, cache.misses) == (1, 1)
        assert pickle.dumps(repaired) == pickle.dumps(program)
        # ... and the one after it loads the repaired artefact.
        again = CompileCache(disk=store)
        again.compile(CLEAN, "gcc")
        assert (again.misses, store.hits, store.corrupt) == (0, 1, 1)

    def test_stale_lock_of_dead_holder_is_broken(self, tmp_path):
        store = DiskArtifactStore(tmp_path, stale_lock_s=3600)
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True)
        dead_pid = int(probe.stdout.strip())
        store._lockfile("k").write_text(f"{dead_pid}\n")
        assert store.acquire("k") is True
        assert store.lock_breaks == 1
        store._unlock("k")

    def test_overaged_lock_is_broken(self, tmp_path):
        store = DiskArtifactStore(tmp_path, stale_lock_s=1.0)
        lock = store._lockfile("k")
        lock.write_text(f"{os.getpid()}\n")
        past = time.time() - 60
        os.utime(lock, (past, past))
        assert store.acquire("k") is True
        assert store.lock_breaks == 1
        store._unlock("k")

    def test_live_lock_is_respected(self, tmp_path):
        store = DiskArtifactStore(tmp_path, stale_lock_s=3600)
        lock = store._lockfile("k")
        # A fresh lock whose holder (us) is alive must be respected.
        lock.write_text(f"{os.getpid()}\n")
        assert store.acquire("k") is False
        assert store.lock_breaks == 0

    def test_wait_for_returns_published_artifact(self, tmp_path):
        store = DiskArtifactStore(tmp_path, poll_s=0.01, lock_wait_s=5)
        store._lockfile("k").write_text(f"{os.getpid()}\n")
        store.store("k", "published")   # holder publishes...
        assert store.wait_for("k") == "published"
        assert store.lock_waits == 1

    def test_eviction_drops_oldest(self, tmp_path):
        store = DiskArtifactStore(tmp_path, max_bytes=1)
        store.store("old", "x" * 100)
        time.sleep(0.02)
        store.store("new", "y" * 100)
        # Cap of 1 byte: everything but the newest publish gets evicted.
        assert store.evictions >= 1
        assert not store._artifact("old").exists()


_RACE_CHILD = """
import json, sys, time
sys.path.insert(0, {src!r})
from repro.harness.compile_cache import CompileCache, DiskArtifactStore

root, go, out, source = sys.argv[1:5]
cache = CompileCache(disk=DiskArtifactStore(root, stale_lock_s=30.0))
import os
deadline = time.monotonic() + 30
while not os.path.exists(go):
    if time.monotonic() > deadline:
        raise SystemExit("never released")
    time.sleep(0.001)
program = cache.compile(open(source).read(), "gcc")
with open(out, "w") as fh:
    json.dump({{"ok": program is not None,
                "stats": cache.stats_snapshot()}}, fh)
"""


class TestConcurrentWriters:
    def test_two_processes_race_one_key(self, tmp_path):
        """Two processes compiling the identical program key must end
        with one valid artifact, no leftover locks, and coherent
        counters — never a crash or a torn blob."""
        src_dir = str((os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))) + "/src")
        script = tmp_path / "race_child.py"
        script.write_text(_RACE_CHILD.format(src=src_dir))
        source_file = tmp_path / "prog.c"
        source_file.write_text(CLEAN)
        root = tmp_path / "store"
        go = tmp_path / "go"
        outs = [tmp_path / "out_a.json", tmp_path / "out_b.json"]
        procs = [subprocess.Popen(
            [sys.executable, str(script), str(root), str(go),
             str(out), str(source_file)])
            for out in outs]
        time.sleep(0.3)             # both children polling for the gate
        go.write_text("go")
        for proc in procs:
            assert proc.wait(timeout=60) == 0
        reports = [json.loads(out.read_text()) for out in outs]
        assert all(report["ok"] for report in reports)

        artifacts = list((root / "objects").glob("*.art"))
        locks = list((root / "objects").glob("*.lock"))
        assert len(artifacts) == 1
        assert locks == []
        # The survivor must be loadable by a third party.
        fresh = DiskArtifactStore(root)
        key = artifacts[0].name[:-len(".art")]
        assert fresh.load(key) is not None
        # Coherence: at least one child actually compiled; nothing was
        # flagged corrupt by the race.
        total = lambda name: sum(
            r["stats"][f"compile.cache.{name}"] for r in reports)
        assert total("misses") >= 1
        assert total("disk_corrupt") == 0

    def test_crashed_holder_does_not_wedge_the_key(self, tmp_path):
        """A lock left by a holder that died mid-compile is broken and
        the key recompiled — cross-process stale-lock recovery."""
        root = tmp_path / "store"
        store = DiskArtifactStore(root, stale_lock_s=3600)
        cache = CompileCache(disk=store)
        key = cache.program_key(CLEAN, "gcc", HwstConfig())
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True)
        store._lockfile(key).write_text(f"{probe.stdout.strip()}\n")
        program = cache.compile(CLEAN, "gcc")
        assert program is not None
        assert store.lock_breaks == 1
        assert store._artifact(key).exists()
        assert not store._lockfile(key).exists()


# ---------------------------------------------------------------------------
# supervisor
# ---------------------------------------------------------------------------


def _cell(source=CLEAN, fingerprint="fp", **kwargs):
    return ServeCell(source=source, schemes=("gcc",),
                     fingerprint=fingerprint, **kwargs)


class TestSupervisor:
    def test_happy_cell_returns_envelope_and_delta(self, tmp_path):
        with Supervisor(jobs=1, disk_root=str(tmp_path)) as sup:
            result, delta, meta = sup.run_cell(_cell())
            assert result.status == STATUS_SERVED
            envelope = result.extra["envelope"]
            assert envelope["verdicts"]["gcc"]["status"] == "exit"
            assert meta.attempts == 1 and meta.worker_deaths == 0
            assert any(name.startswith("compile.cache.")
                       for name in delta)
            assert sup.cells_completed == 1

    def test_crash_storm_quarantine_and_recovery(self, tmp_path):
        sup = Supervisor(jobs=1, disk_root=str(tmp_path),
                         max_attempts=2, backoff_base_s=0.01,
                         backoff_cap_s=0.05, breaker_threshold=2,
                         breaker_cooldown_s=0.4, degraded_after=50)
        with sup:
            crash = _cell(fingerprint="crasher", debug_crash=True)
            result, _, meta = sup.run_cell(crash)
            assert result.status == "worker_died"
            assert meta.attempts == 2 and meta.worker_deaths == 2
            assert meta.breaker_opened
            assert sup.total_deaths == 2 and sup.total_restarts == 2

            # Identical fingerprint while the breaker is open: refused
            # without touching the pool.
            result, _, meta = sup.run_cell(crash)
            assert result.status == STATUS_QUARANTINED
            assert meta.quarantined and meta.worker_deaths == 0
            assert sup.open_breakers() == 1

            # An innocent request recovers on a fresh pool generation.
            result, _, _ = sup.run_cell(_cell(fingerprint="innocent"))
            assert result.status == STATUS_SERVED
            assert not sup.degraded

            # After the cooldown one half-open trial goes through (and
            # crashes again here).
            time.sleep(0.45)
            result, _, meta = sup.run_cell(crash)
            assert result.status == "worker_died"
            assert meta.worker_deaths == 2

    def test_degraded_mode_refuses_until_restart(self, tmp_path):
        sup = Supervisor(jobs=1, disk_root=str(tmp_path),
                         max_attempts=3, backoff_base_s=0.01,
                         backoff_cap_s=0.05, degraded_after=3)
        with sup:
            result, _, _ = sup.run_cell(
                _cell(fingerprint="crasher", debug_crash=True))
            assert result.status == "worker_died"
            assert sup.degraded
            result, _, meta = sup.run_cell(_cell(fingerprint="other"))
            assert result.status == STATUS_DEGRADED
            assert meta.degraded

    def test_crash_exit_code_is_distinctive(self):
        assert CRASH_EXIT_CODE == 86


# ---------------------------------------------------------------------------
# HTTP app
# ---------------------------------------------------------------------------


async def _http(port, method, path, payload=b"", raw_head=None,
                timeout=60.0):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        if raw_head is None:
            head = (f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    f"Connection: close\r\n\r\n").encode("latin-1")
        else:
            head = raw_head
        writer.write(head + payload)
        await writer.drain()
        blob = await asyncio.wait_for(reader.read(), timeout=timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head_blob, _, body = blob.partition(b"\r\n\r\n")
    lines = head_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


async def _post_check(port, doc, timeout=60.0):
    return await _http(port, "POST", "/v1/check",
                       payload=_body(doc), timeout=timeout)


def _stripped(body: bytes):
    doc = json.loads(body)
    transport = doc.pop("transport")
    return doc, transport


class _RunningApp:
    """Async context manager: started app + its run() task."""

    def __init__(self, app):
        self.app = app
        self.task = None

    async def __aenter__(self):
        await self.app.start()
        self.task = asyncio.create_task(self.app.run())
        return self.app

    async def __aexit__(self, exc_type, exc, tb):
        self.app.request_shutdown()
        try:
            await self.task
        except errors.DrainTimeout:
            if exc_type is None:
                raise
        return False


@pytest.fixture(scope="module")
def shared_supervisor(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifact-store")
    with Supervisor(jobs=2, disk_root=str(root),
                    backoff_base_s=0.01, backoff_cap_s=0.1) as sup:
        sup.warm()
        yield sup


class TestServeApp:
    def test_roundtrip_cache_and_coalescing(self, shared_supervisor):
        offline = evaluate(CLEAN, schemes=("gcc",),
                           cache=CompileCache())
        expected = canonical_json(offline)

        async def scenario():
            app = ServeApp(shared_supervisor, port=0)
            async with _RunningApp(app):
                doc = {"source": CLEAN, "schemes": ["gcc"]}
                status, headers, body = await _post_check(app.port, doc)
                assert status == 200
                assert headers["content-type"] == "application/json"
                served, transport = _stripped(body)
                assert canonical_json(served) == expected
                assert transport == {"cached": False,
                                     "coalesced": False}

                # Identical request: answered from the result cache.
                status, _, body = await _post_check(app.port, doc)
                assert status == 200
                served, transport = _stripped(body)
                assert canonical_json(served) == expected
                assert transport["cached"] is True

                # Two concurrent identical *fresh* requests coalesce.
                fresh = {"source": _soak_sources()[9],
                         "schemes": ["gcc"]}
                pair = await asyncio.gather(
                    _post_check(app.port, fresh),
                    _post_check(app.port, fresh))
                assert [status for status, _, _ in pair] == [200, 200]
                flags = sorted(_stripped(body)[1]["coalesced"]
                               for _, _, body in pair)
                assert flags == [False, True]
                bodies = {canonical_json(_stripped(body)[0])
                          for _, _, body in pair}
                assert len(bodies) == 1

        asyncio.run(scenario())

    def test_refusals_and_routes(self, shared_supervisor):
        async def scenario():
            app = ServeApp(shared_supervisor, port=0)
            async with _RunningApp(app):
                port = app.port
                status, _, body = await _http(
                    port, "POST", "/v1/check", payload=b"{nope")
                assert status == 400
                assert json.loads(body)["error"]["kind"] == "bad_json"

                status, _, body = await _post_check(
                    port, {"source": CLEAN, "schemes": ["clang"]})
                assert status == 400
                assert json.loads(body)["error"]["kind"] == \
                    "unknown_scheme"

                status, _, _ = await _http(port, "GET", "/v1/check")
                assert status == 405
                status, _, _ = await _http(port, "GET", "/nothing")
                assert status == 404

                big = "int main(void) { return 0; }" + " " * 70000
                status, _, body = await _post_check(
                    port, {"source": big})
                assert status == 413

                # A debug block is refused without --debug-faults.
                status, _, body = await _post_check(
                    port, {"source": CLEAN, "debug": {"crash": True}})
                assert status == 400

                # Compile errors are verdicts, not HTTP errors.
                status, _, body = await _post_check(
                    port, {"source": BAD_SYNTAX, "schemes": ["gcc"]})
                assert status == 200
                served, _ = _stripped(body)
                verdict = served["verdicts"]["gcc"]
                assert verdict["status"] == "toolchain_error"
                assert verdict["cli_exit_code"] == errors.EXIT_TOOLCHAIN

        asyncio.run(scenario())

    def test_healthz_and_metrics(self, shared_supervisor):
        async def scenario():
            app = ServeApp(shared_supervisor, port=0)
            async with _RunningApp(app):
                await _post_check(app.port,
                                  {"source": CLEAN, "schemes": ["gcc"]})
                status, _, body = await _http(app.port, "GET",
                                              "/healthz")
                assert status == 200
                health = json.loads(body)
                assert health["status"] == "ok"
                assert health["draining"] is False
                assert health["cells_completed"] >= 1

                status, headers, body = await _http(app.port, "GET",
                                                    "/metrics")
                assert status == 200
                assert headers["content-type"].startswith("text/plain")
                text = body.decode()
                assert "repro_serve_requests_total" in text
                assert "repro_serve_result_cache_entries" in text

        asyncio.run(scenario())

    def test_admission_control_sheds_with_retry_after(
            self, shared_supervisor):
        async def scenario():
            app = ServeApp(shared_supervisor, port=0, queue_limit=1,
                           allow_debug=True)
            async with _RunningApp(app):
                slow = asyncio.create_task(_post_check(
                    app.port, {"source": CLEAN, "schemes": ["gcc"],
                               "debug": {"sleep_s": 0.6}}))
                await asyncio.sleep(0.2)    # slow request is admitted
                status, headers, body = await _post_check(
                    app.port,
                    {"source": _soak_sources()[8], "schemes": ["gcc"]})
                assert status == 429
                assert headers["retry-after"] == "1"
                assert json.loads(body)["error"]["kind"] == "overloaded"

                status, _, _ = await slow
                assert status == 200

                # Capacity is back: the shed request succeeds on retry.
                status, _, _ = await _post_check(
                    app.port,
                    {"source": _soak_sources()[8], "schemes": ["gcc"]})
                assert status == 200
                snapshot = app.registry.snapshot()
                assert snapshot["serve.requests.shed"] == 1

        asyncio.run(scenario())

    def test_deadline_maps_to_504(self, shared_supervisor):
        async def scenario():
            app = ServeApp(shared_supervisor, port=0, deadline_s=0.5)
            async with _RunningApp(app):
                status, _, body = await _post_check(
                    app.port,
                    {"source": INFINITE_LOOP, "schemes": ["gcc"],
                     "max_instructions": MAX_INSTRUCTIONS_CAP})
                assert status == 504
                assert json.loads(body)["error"]["kind"] == \
                    "deadline_exceeded"

        asyncio.run(scenario())

    def test_draining_rejects_new_completes_inflight(
            self, shared_supervisor):
        async def scenario():
            app = ServeApp(shared_supervisor, port=0, allow_debug=True,
                           drain_timeout_s=10)
            await app.start()
            run_task = asyncio.create_task(app.run())
            slow = asyncio.create_task(_post_check(
                app.port, {"source": CLEAN, "schemes": ["gcc"],
                           "debug": {"sleep_s": 0.5}}))
            await asyncio.sleep(0.2)
            # Connect *before* the drain closes the listener; the
            # request itself lands after shutdown and is shed.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", app.port)
            app.request_shutdown()
            await asyncio.sleep(0.05)
            payload = _body({"source": _soak_sources()[7],
                             "schemes": ["gcc"]})
            writer.write((f"POST /v1/check HTTP/1.1\r\nHost: t\r\n"
                          f"Content-Length: {len(payload)}\r\n\r\n")
                         .encode("latin-1") + payload)
            await writer.drain()
            blob = await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()
            head, _, body = blob.partition(b"\r\n\r\n")
            assert b"503" in head.split(b"\r\n")[0]
            assert b"Retry-After: 1" in head
            assert json.loads(body)["error"]["kind"] == "draining"
            status, _, _ = await slow   # in-flight request completes
            assert status == 200
            await run_task              # drain finishes cleanly

        asyncio.run(scenario())

    def test_drain_timeout_raises_and_counts_dropped(
            self, shared_supervisor):
        async def scenario():
            app = ServeApp(shared_supervisor, port=0, allow_debug=True,
                           drain_timeout_s=0.2)
            await app.start()
            run_task = asyncio.create_task(app.run())
            slow = asyncio.create_task(_post_check(
                app.port, {"source": CLEAN, "schemes": ["gcc"],
                           "debug": {"sleep_s": 1.0}}))
            await asyncio.sleep(0.2)
            app.request_shutdown()
            with pytest.raises(errors.DrainTimeout) as err:
                await run_task
            assert err.value.dropped >= 1
            snapshot = app.registry.snapshot()
            assert snapshot["serve.drain.dropped"] >= 1
            slow.cancel()

        asyncio.run(scenario())
        assert errors.exit_code_for(
            errors.DrainTimeout(1, 0.2)) == errors.EXIT_DRAIN_TIMEOUT


# ---------------------------------------------------------------------------
# soak: the issue's acceptance criterion
# ---------------------------------------------------------------------------


def _prom_value(text, metric):
    for line in text.splitlines():
        if line.startswith(metric + " "):
            return float(line.split()[-1])
    raise AssertionError(f"{metric} not in /metrics output")


class TestSoak:
    def test_soak_under_planted_faults(self, tmp_path):
        """300+ requests at concurrency 8 with a planted worker crash
        and a corrupted disk artifact mid-run: zero hung or dropped
        requests, byte-identical verdicts, honest planted-fault
        counters in /metrics, clean drain."""
        sources = _soak_sources()
        budgets = (DEFAULT_MAX_INSTRUCTIONS, 4_000_000)
        offline_cache = CompileCache()
        expected = {}
        for budget in budgets:
            for idx, source in enumerate(sources):
                envelope = evaluate(source, schemes=("gcc",),
                                    max_instructions=budget,
                                    cache=offline_cache)
                expected[(idx, budget)] = canonical_json(envelope)

        stats = asyncio.run(self._soak(tmp_path, sources, expected))

        assert stats["issued"] == stats["answered"]   # nothing dropped
        assert stats["issued"] >= 300
        metrics = stats["metrics"]
        assert _prom_value(metrics, "repro_serve_requests_shed") == 2
        assert _prom_value(metrics, "repro_serve_worker_deaths") == 4
        assert _prom_value(metrics, "repro_serve_worker_restarts") == 4
        assert _prom_value(metrics,
                           "repro_compile_cache_disk_corrupt") >= 1
        assert _prom_value(metrics,
                           "repro_serve_requests_total") >= 300

    async def _soak(self, tmp_path, sources, expected):
        supervisor = Supervisor(
            jobs=2, disk_root=str(tmp_path / "store"),
            max_attempts=4, backoff_base_s=0.01, backoff_cap_s=0.1,
            breaker_cooldown_s=60.0, degraded_after=100)
        app = ServeApp(supervisor, port=0, queue_limit=8,
                       deadline_s=60.0, drain_timeout_s=30.0,
                       allow_debug=True)
        stats = {"issued": 0, "answered": 0}
        gate = asyncio.Semaphore(8)

        async def check(idx, budget, debug=None):
            doc = {"source": sources[idx], "schemes": ["gcc"],
                   "max_instructions": budget}
            if debug:
                doc["debug"] = debug
            async with gate:
                for _ in range(40):
                    stats["issued"] += 1
                    status, headers, body = await _post_check(
                        app.port, doc)
                    stats["answered"] += 1
                    if status != 429:
                        break
                    assert headers["retry-after"] == "1"
                    await asyncio.sleep(0.1)
            assert status == 200, body
            served, _ = _stripped(body)
            assert canonical_json(served) == expected[(idx, budget)]
            return status

        async def shed_probe(tag):
            doc = {"source": sources[tag % len(sources)],
                   "schemes": ["gcc"],
                   "max_instructions": DEFAULT_MAX_INSTRUCTIONS,
                   "debug": {"sleep_s": 0.4, "tag": tag}}
            stats["issued"] += 1
            status, headers, body = await _post_check(app.port, doc)
            stats["answered"] += 1
            assert status in (200, 429), body
            if status == 200:
                served, _ = _stripped(body)
                assert canonical_json(served) == \
                    expected[(tag % len(sources),
                              DEFAULT_MAX_INSTRUCTIONS)]
            return status

        try:
            await app.start()
            run_task = asyncio.create_task(app.run())
            default = DEFAULT_MAX_INSTRUCTIONS

            # Phase 1: 150 requests over 10 distinct programs.
            await asyncio.gather(*(
                check(i % len(sources), default) for i in range(150)))

            # Planted fault 1: corrupt one on-disk artifact.
            artifacts = sorted(
                (tmp_path / "store" / "objects").glob("*.art"))
            assert artifacts, "phase 1 published no artifacts"
            artifacts[0].write_bytes(b"flipped bits, not a pickle")

            # Planted fault 2: a crashing request. Four attempts die
            # (metrics: 4 deaths, 4 restarts), the verdict is an
            # honest worker_died, and the breaker opens.
            stats["issued"] += 1
            status, _, body = await _post_check(
                app.port,
                {"source": sources[0], "schemes": ["gcc"],
                 "debug": {"crash": True}})
            stats["answered"] += 1
            assert status == 500
            assert json.loads(body)["error"]["kind"] == "worker_died"

            # Phase 2: 150 requests on a different budget. Fresh
            # post-crash workers must reload from disk, trip over the
            # corrupted artifact, and repair it.
            await asyncio.gather(*(
                check(i % len(sources), 4_000_000)
                for i in range(150)))

            # Planted fault 3: a burst of 10 concurrent slow requests
            # against queue_limit=8 — exactly two are shed with 429.
            outcomes = await asyncio.gather(*(
                shed_probe(tag) for tag in range(10)))
            assert sorted(outcomes).count(429) == 2

            status, _, body = await _http(app.port, "GET", "/metrics")
            assert status == 200
            stats["metrics"] = body.decode()

            status, _, body = await _http(app.port, "GET", "/healthz")
            health = json.loads(body)
            assert health["worker_deaths"] == 4
            assert status == 200        # crash storm did not degrade

            app.request_shutdown()
            await run_task              # clean drain: no DrainTimeout
        finally:
            supervisor.close()
        return stats
