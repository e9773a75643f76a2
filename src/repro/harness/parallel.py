"""Process-pool sweep executor with per-cell fault tolerance.

Every paper artefact is a sweep over (workload x scheme x config x
scale) cells. This module runs those cells through one engine:

* **Job specs are picklable.** A :class:`CellSpec` names either a
  registered workload or carries raw source, plus the scheme, scale,
  config and simulation knobs. Workers rebuild everything else. Any
  other picklable object exposing ``execute() -> CellResult`` (plus
  ``tag``/``scheme``/``group_key``) runs through the same machinery —
  the fault-injection campaign's cells take this path.
* **Cells never abort the sweep.** Each cell returns a
  :class:`CellResult` envelope (``ok``/``status``/``error``/``cycles``/
  ``stats``/``metrics``); exceptions — compile errors, simulator bugs,
  bad configs — are caught in the worker and come back as
  ``status="error"`` with the traceback in ``error``. The experiment
  layer assembles rows from the survivors and reports the casualties.
* **Cells are bounded in time.** ``max_instructions`` is the
  deterministic step budget (the simulator raises SimLimitExceeded);
  ``wallclock_budget`` arms a per-cell thread-based deadline watchdog
  in the worker, so a wedged cell comes back as ``status="hang"``
  instead of stalling the sweep. The watchdog works off the main
  thread (unlike the SIGALRM timer it replaced), which is what lets
  ``repro.serve`` run deadline-bounded cells inside server workers.
* **Worker deaths are retried once.** A group whose worker process
  dies (BrokenProcessPool) is resubmitted exactly once on a fresh
  pool; a second death produces ``status="worker_died"`` envelopes.
  Retries are counted under ``sweep.worker_retries``.
* **Compilation is cached.** Workers share a per-process
  :class:`~repro.harness.compile_cache.CompileCache`; cells are grouped
  (by workload, by default) so one worker sees all schemes of a
  workload and compiles its front end exactly once.
* **Telemetry flows home.** Worker-side registry snapshots and cache
  counters merge into the parent executor's ``MetricsRegistry``
  (``compile.cache.hits`` etc.) and its merged ``obs`` snapshot.

* **Campaigns run in chunks.** :func:`run_chunks` drives the fuzz,
  fault-injection and conformance campaigns: chunks run one after
  another on one executor, with a stop flag polled between them and
  each chunk's results folded before the next is drawn.
  :func:`run_cells` is its one-chunk case.

``jobs=1`` runs every cell inline in the parent process — same code
path, no pool — and produces bit-identical experiment dicts to the
pre-executor serial harness.
"""

from __future__ import annotations

import ctypes
import json
import threading
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.core.config import HwstConfig
from repro.harness.compile_cache import process_cache
from repro.harness.runner import WORKLOADS, run_program
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.pipeline.timing import TimingParams

__all__ = ["CellSpec", "CellResult", "SweepExecutor", "run_cells",
           "run_chunks", "report_to_json",
           "WallclockTimeout", "wallclock_guard", "DeadlineGuard",
           "STATUS_HANG", "STATUS_WORKER_DIED"]

#: Envelope statuses minted by the executor itself (never by the
#: simulator): the per-cell watchdog fired / the worker process died
#: twice.
STATUS_HANG = "hang"
STATUS_WORKER_DIED = "worker_died"


class WallclockTimeout(Exception):
    """Raised inside a worker when the per-cell watchdog fires.

    ``budget`` is optional because the asynchronous delivery path
    (``PyThreadState_SetAsyncExc``) instantiates the class with no
    arguments; :func:`wallclock_guard` re-raises with the budget
    attached so envelopes keep their informative detail line.
    """

    def __init__(self, budget: Optional[float] = None):
        if budget is None:
            super().__init__("wallclock budget exceeded")
        else:
            super().__init__(f"wallclock budget {budget:g}s exceeded")
        self.budget = budget


#: Asynchronous cross-thread raises need the CPython C API; on any
#: other interpreter the watchdog degrades to a no-op (the
#: deterministic step budget still bounds every cell).
_CAN_ASYNC_RAISE = hasattr(ctypes, "pythonapi") and \
    hasattr(ctypes.pythonapi, "PyThreadState_SetAsyncExc")


def _async_raise(tid: int, exc_type) -> int:
    """Schedule ``exc_type`` to be raised in thread ``tid`` at its next
    bytecode boundary. Returns the number of thread states modified."""
    modified = ctypes.pythonapi.PyThreadState_SetAsyncExc(
        ctypes.c_ulong(tid), ctypes.py_object(exc_type))
    if modified > 1:           # invalid tid matched several states:
        _clear_async_raise(tid)  # undo, never poison a random thread
    return modified


def _clear_async_raise(tid: int) -> None:
    ctypes.pythonapi.PyThreadState_SetAsyncExc(ctypes.c_ulong(tid), None)


class DeadlineGuard:
    """One armed deadline for the *current* thread.

    A daemon :class:`threading.Timer` fires after ``budget`` seconds
    and schedules :class:`WallclockTimeout` in the guarded thread via
    ``PyThreadState_SetAsyncExc`` — no signals, no main-thread
    requirement, so it works inside pool workers and server threads
    alike. The fire/disarm race is resolved under a lock: once
    :meth:`disarm` returns, the timer can no longer raise, and a fire
    that won the race but whose exception has not surfaced yet is
    converted into a deterministic raise by the caller
    (:func:`wallclock_guard`).
    """

    __slots__ = ("budget", "_tid", "_lock", "_state", "_timer")

    def __init__(self, budget: float):
        self.budget = budget
        self._tid = threading.get_ident()
        self._lock = threading.Lock()
        self._state = "armed"          # armed -> fired | disarmed
        self._timer = threading.Timer(budget, self._fire)
        self._timer.daemon = True

    def start(self):
        self._timer.start()

    def _fire(self):
        with self._lock:
            if self._state != "armed":
                return
            self._state = "fired"
            _async_raise(self._tid, WallclockTimeout)

    def disarm(self) -> bool:
        """Cancel the timer; True when it already fired."""
        with self._lock:
            fired = self._state == "fired"
            self._state = "disarmed"
        self._timer.cancel()
        return fired


@contextmanager
def wallclock_guard(budget: Optional[float]):
    """Arm a deadline watchdog for ``budget`` seconds around a cell.

    Yields True when the watchdog is armed. Degrades to a no-op (yields
    False) when no budget is set or asynchronous cross-thread raises
    are unavailable (non-CPython) — the deterministic step budget still
    bounds the cell in that case. Unlike the SIGALRM watchdog this
    replaces, the guard works on *any* thread, which is what lets
    ``repro.serve`` enforce per-request deadlines inside worker
    processes and threads.
    """
    usable = budget is not None and budget > 0 and _CAN_ASYNC_RAISE
    if not usable:
        yield False
        return

    guard = DeadlineGuard(budget)
    guard.start()
    delivered = False
    try:
        yield True
    except WallclockTimeout:
        delivered = True
        # Normalise: the async path raises the bare class; re-raise
        # with the budget attached for an informative envelope detail.
        raise WallclockTimeout(budget) from None
    finally:
        fired = guard.disarm()
        if fired and not delivered:
            # The timer won the race but its exception has not surfaced
            # in the body (it would detonate at some later bytecode
            # boundary — possibly far outside this guard). Clear the
            # pending raise and convert it into a deterministic one.
            _clear_async_raise(threading.get_ident())
            raise WallclockTimeout(budget)


@dataclass(frozen=True)
class CellSpec:
    """One picklable sweep cell: what to compile, how to run it.

    Exactly one of ``workload`` (registered name, rendered at
    ``scale``) or ``source`` (raw mini-C text) must be set. ``tag`` is
    the caller's cookie for finding this cell among the results;
    ``group`` keys worker affinity (cells sharing a group run on the
    same worker, in order, maximising compile-cache locality).
    """

    scheme: str
    workload: Optional[str] = None
    source: Optional[str] = None
    scale: str = "default"
    config: Optional[HwstConfig] = None
    timing: bool = True
    timing_params: Optional[TimingParams] = None
    max_instructions: int = 200_000_000
    # Per-cell wallclock watchdog (seconds); None leaves only the
    # deterministic step budget above. See wallclock_guard().
    wallclock_budget: Optional[float] = None
    collect_registry: bool = False
    group: Optional[str] = None
    tag: str = ""

    def __post_init__(self):
        if (self.workload is None) == (self.source is None):
            raise ValueError(
                "CellSpec needs exactly one of workload= or source=")

    @property
    def group_key(self) -> str:
        if self.group is not None:
            return self.group
        return self.workload if self.workload is not None else self.tag

    @property
    def label(self) -> str:
        name = self.workload if self.workload is not None else \
            (self.tag or "<source>")
        return f"{name}/{self.scheme}"


@dataclass
class CellResult:
    """Result envelope of one cell — failure is data, not control flow.

    ``error`` is non-empty only for infrastructure failures (the cell
    raised instead of producing a ``RunResult``); a simulated trap
    (violation, fault, abort) is a *measured* outcome with ``ok`` False
    and ``error`` empty.
    """

    tag: str
    workload: Optional[str]
    scheme: str
    ok: bool
    status: str
    exit_code: int = 0
    detail: str = ""
    error: str = ""
    cycles: int = 0
    instret: int = 0
    stats: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    obs: Dict[str, object] = field(default_factory=dict)
    # Uniform trap classification (RunResult.trap_class/trap_pc).
    trap_class: str = ""
    trap_pc: Optional[int] = None
    # Free-form payload for generic cells (fault-injection verdicts …).
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def measured(self) -> bool:
        """True when the simulator produced a result (even a trap)."""
        return not self.error and self.status not in (
            STATUS_HANG, STATUS_WORKER_DIED)

    def failure_line(self) -> str:
        """One-line summary for the sweep failure report."""
        name = self.workload or self.tag or "<source>"
        if self.error:
            reason = self.error.strip().splitlines()[-1]
        else:
            reason = self.status
            if self.status == "exit":
                reason = f"exit code {self.exit_code}"
            if self.detail:
                reason += f" ({self.detail})"
        return f"{name}/{self.scheme}: {reason}"


def _spec_identity(spec) -> Tuple[str, Optional[str], str]:
    """(tag, workload, scheme) for envelope construction, tolerant of
    generic (non-CellSpec) job specs."""
    return (getattr(spec, "tag", "") or "",
            getattr(spec, "workload", None),
            getattr(spec, "scheme", "") or "")


def _run_cellspec(spec: CellSpec) -> CellResult:
    """The classic compile-and-simulate cell body (may raise)."""
    if spec.source is not None:
        source = spec.source
    else:
        workload = WORKLOADS.get(spec.workload)
        if workload is None:
            raise ValueError(
                f"unknown workload {spec.workload!r}; known: "
                f"{sorted(WORKLOADS)}")
        source = workload.source(spec.scale)
    registry = MetricsRegistry() if spec.collect_registry else None
    result = run_program(source, spec.scheme, spec.config,
                         timing=spec.timing,
                         timing_params=spec.timing_params,
                         max_instructions=spec.max_instructions,
                         metrics=registry, cache=process_cache())
    return CellResult(
        tag=spec.tag, workload=spec.workload, scheme=spec.scheme,
        ok=result.ok, status=result.status,
        exit_code=result.exit_code, detail=result.detail,
        cycles=result.cycles, instret=result.instret,
        stats=result.stats, metrics=result.metrics,
        trap_class=result.trap_class, trap_pc=result.trap_pc,
        obs=registry.snapshot() if registry is not None else {})


def _execute_cell(spec) -> CellResult:
    """Run one cell in this process; never raises.

    ``spec`` is either a :class:`CellSpec` or any picklable object with
    an ``execute() -> CellResult`` method (generic cells — e.g.
    fault-injection jobs). Both run under the wallclock watchdog when
    the spec carries a ``wallclock_budget``.
    """
    tag, workload, scheme = _spec_identity(spec)
    budget = getattr(spec, "wallclock_budget", None)
    try:
        with wallclock_guard(budget):
            execute = getattr(spec, "execute", None)
            if execute is not None:
                return execute()
            return _run_cellspec(spec)
    except WallclockTimeout as timeout:
        return CellResult(
            tag=tag, workload=workload, scheme=scheme,
            ok=False, status=STATUS_HANG, detail=str(timeout),
            extra={"watchdog_fired": True})
    except Exception:
        return CellResult(
            tag=tag, workload=workload, scheme=scheme,
            ok=False, status="error", error=traceback.format_exc())


def _run_group(specs: Sequence[CellSpec]
               ) -> Tuple[List[CellResult], Dict[str, int]]:
    """Worker entry point: run a group of cells on one process.

    Returns the envelopes plus the *delta* of this process's compile
    cache counters, so the parent can aggregate cache behaviour across
    a pool without double counting earlier groups.
    """
    cache = process_cache()
    before = cache.stats_snapshot()
    results = [_execute_cell(spec) for spec in specs]
    delta = {name: value - before[name]
             for name, value in cache.stats_snapshot().items()}
    return results, delta


class SweepExecutor:
    """Fan (workload, scheme, config, scale) cells across processes.

    ``jobs=1`` executes inline (deterministically identical to the old
    serial harness); ``jobs>1`` keeps a ``ProcessPoolExecutor`` alive
    across :meth:`run` calls so worker-side compile caches persist
    between experiments of an ``all`` sweep. Use as a context manager
    or call :meth:`close`.
    """

    def __init__(self, jobs: int = 1,
                 registry: Optional[MetricsRegistry] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1: {jobs}")
        self.jobs = jobs
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.obs: Dict[str, object] = {}
        self.cells_run = 0
        self.cells_failed = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._progress: Optional[Callable[[int, int], None]] = None
        self._progress_done = 0
        self._progress_total = 0

    # -- lifecycle ---------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self):
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- execution ---------------------------------------------------------

    def run(self, cells: Sequence[CellSpec],
            progress: Optional[Callable[[int, int], None]] = None,
            ) -> List[CellResult]:
        """Run every cell; results come back in input order.

        ``progress(done, total)`` — when given — is called in the
        parent process after each cell *group* completes (in
        completion order under a pool), with the running count of
        finished cells. Campaign heartbeats hang off this hook; a
        callback that raises aborts the sweep, so keep it cheap.
        """
        cells = list(cells)
        groups: Dict[str, List[int]] = {}
        for index, spec in enumerate(cells):
            key = getattr(spec, "group_key", None)
            if key is None:
                key = getattr(spec, "tag", "") or str(index)
            groups.setdefault(key, []).append(index)
        results: List[Optional[CellResult]] = [None] * len(cells)
        self._progress_done = 0
        self._progress = progress
        self._progress_total = len(cells)
        if self.jobs == 1:
            for indices in groups.values():
                envelopes, delta = _run_group([cells[i] for i in indices])
                self._place(results, indices, envelopes, delta)
        else:
            self._run_pooled(cells, list(groups.values()), results)
        self._progress = None
        done = [result for result in results if result is not None]
        assert len(done) == len(cells)
        self.cells_run += len(done)
        # Only infrastructure failures count against the sweep: a
        # simulated trap is a measurement (fig6 cells are *supposed*
        # to trap), not a failed cell.
        self.cells_failed += sum(1 for r in done if not r.measured)
        return done

    def _run_pooled(self, cells, pending: List[List[int]], results):
        """Fan groups over the pool; retry dead workers exactly once.

        A worker process dying (os._exit, segfault, OOM-kill) breaks
        the whole ProcessPoolExecutor: *every* unfinished future raises
        instead of returning envelopes — including groups that were
        merely queued behind the culprit. Each failed group is
        therefore retried once in its own isolated single-worker pool,
        so a persistently dying group cannot poison a healthy group's
        retry. The cells are deterministic, so a *transient* death
        (e.g. memory pressure) recovers with identical results; a group
        that dies again on its isolated retry gets
        ``status="worker_died"`` envelopes.
        """
        pool = self._ensure_pool()
        futures = {
            pool.submit(_run_group, [cells[i] for i in indices]):
            indices for indices in pending}
        failed: List[List[int]] = []
        for future in as_completed(futures):
            try:
                envelopes, delta = future.result()
            except Exception:
                failed.append(futures[future])
                continue
            self._place(results, futures[future], envelopes, delta)
        if not failed:
            return
        # The shared pool is broken; drop it (the next run() call
        # rebuilds it lazily) and retry each casualty in isolation.
        self.close()
        self.registry.counter("sweep.worker_retries").inc(len(failed))
        for indices in failed:
            try:
                with ProcessPoolExecutor(max_workers=1) as solo:
                    envelopes, delta = solo.submit(
                        _run_group,
                        [cells[i] for i in indices]).result()
            except Exception:
                for i in indices:
                    tag, workload, scheme = _spec_identity(cells[i])
                    results[i] = CellResult(
                        tag=tag, workload=workload, scheme=scheme,
                        ok=False, status=STATUS_WORKER_DIED,
                        error="worker process died twice running "
                              "this cell group")
                self._note_progress(len(indices))
                continue
            self._place(results, indices, envelopes, delta)

    def _place(self, results, indices, envelopes, delta):
        for index, envelope in zip(indices, envelopes):
            results[index] = envelope
        self._absorb(delta)
        for envelope in envelopes:
            if envelope.obs:
                self.obs = merge_snapshots(self.obs, envelope.obs)
        self._note_progress(len(envelopes))

    def _note_progress(self, completed: int):
        self._progress_done += completed
        if self._progress is not None:
            self._progress(self._progress_done, self._progress_total)

    def _absorb(self, delta: Dict[str, int]):
        """Fold a worker's cache-counter delta into the parent registry."""
        for name, value in delta.items():
            if isinstance(value, int) and value > 0:
                self.registry.counter(name).inc(value)
        self.obs = merge_snapshots(self.obs, delta)

    # -- reporting ---------------------------------------------------------

    def summary(self) -> str:
        hits = self.registry.counter("compile.cache.hits").value
        misses = self.registry.counter("compile.cache.misses").value
        line = (f"sweep: cells={self.cells_run} "
                f"failed={self.cells_failed} jobs={self.jobs} "
                f"compile-cache hits={hits} misses={misses}")
        retries = self.registry.counter("sweep.worker_retries").value
        if retries:
            line += f" worker-retries={retries}"
        return line


def run_chunks(chunks: Iterable[Iterable[CellSpec]],
               executor: Optional[SweepExecutor] = None,
               jobs: int = 1,
               stop: Optional[Callable[[], bool]] = None,
               progress: Optional[Callable[[int], None]] = None,
               fold: Optional[Callable[[List, List[CellResult]],
                                       None]] = None,
               ) -> Tuple[List[CellResult], bool]:
    """Run a campaign's ``chunks`` of cells, one after another.

    Every chunk runs on ``executor``, or on one transient executor
    with ``jobs`` workers that is closed after the last chunk.
    ``stop`` (a zero-argument flag) is polled before each chunk, and a
    chunk is listed only after that poll, so a lazily generated chunk
    costs nothing once ``stop`` is set. ``progress(done)`` ticks with
    the campaign-wide count of finished cells; ``fold(cells,
    results)`` receives each chunk's results before the next chunk is
    drawn, so a lazy chunk may depend on everything folded so far.
    Returns the results in input order and whether ``stop`` cut the
    run short.
    """
    if executor is None:
        with SweepExecutor(jobs=jobs) as transient:
            return run_chunks(chunks, transient, stop=stop,
                              progress=progress, fold=fold)
    results: List[CellResult] = []
    for chunk in chunks:
        if stop is not None and stop():
            return results, True
        cells = list(chunk)
        tick = None
        if progress is not None:
            def tick(done, _total, _base=len(results)):
                progress(_base + done)
        done = executor.run(cells, progress=tick)
        results.extend(done)
        if fold is not None:
            fold(cells, done)
    return results, False


def run_cells(cells: Sequence[CellSpec],
              executor: Optional[SweepExecutor] = None,
              jobs: int = 1) -> List[CellResult]:
    """Run cells on ``executor``, or a transient one (closed after)."""
    return run_chunks([cells], executor, jobs)[0]


def report_to_json(doc: dict) -> str:
    """The one rendering of a campaign report, ``--out`` file or fuzz
    corpus record: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
