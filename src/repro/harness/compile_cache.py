"""Content-addressed compile cache for sweep-style evaluation.

Every figure of the paper is a sweep of (workload x scheme x config)
cells, and most cells share compilation work: the per-scheme runtime
unit is identical across all workloads, the front-end result of a
workload source is identical across all schemes, and whole programs
repeat verbatim across experiments (fig4's baseline build is fig2's,
abl_compression's and abl_shadow's too). :class:`CompileCache` keys
each artefact by SHA-256 of everything that can change it. A full tier
(``max_entries``) drops its oldest entry to make room:

* **unit tier** — the front-end ``Module`` (lex/parse/sema/irgen) of
  one translation unit, keyed by source text + unit name. Scheme- and
  config-independent: instrumentation runs after this stage. Stored
  as *sealed pickles*, so a hit hands back a fresh ``Module`` that
  instrumentation may mutate freely.
* **runtime tier** — each scheme's runtime library as a
  :class:`~repro.codegen.link.RuntimeImage` (front end, verification
  and lowering done once), keyed by the runtime source + the
  ``CodegenOptions``. It holds live objects, not blobs: the linker
  never mutates an image (it copies the instructions it patches), so
  every program linked against one shares it.
* **program tier** — the fully linked ``Program``, keyed by source +
  scheme + a fingerprint of the complete :class:`HwstConfig` (any
  config change conservatively invalidates, including runtime-only
  knobs like ``keybuffer_entries`` — the unit tier still hits). A
  ``Program`` is immutable, so every hit hands back the same live one.

Counters land under ``compile.cache.*`` (``hits`` = unit + program
hits; the runtime tier counts ``runtime_hits``/``runtime_misses``) via
:meth:`CompileCache.stats_snapshot`, which the sweep executor merges
into the parent registry.

An optional **cross-process** tier, :class:`DiskArtifactStore`,
is an on-disk content-addressed store of sealed program pickles, shared
by every worker of a ``repro serve`` pool (and any other process
pointed at the same directory). It is hardened for long-lived service
use:

* **atomic publishes** — artifacts are written to a temp file and
  ``os.replace``\\ d into place, so a reader never observes a partial
  write;
* **advisory per-key file locks with stale-lock recovery** — a
  compiling process takes ``<key>.lock`` (``O_CREAT|O_EXCL`` with its
  pid inside) so racing processes wait for the artifact instead of
  duplicating the compile; a lock whose holder is dead (or that is
  older than ``stale_lock_s``) is broken and counted
  (``compile.cache.disk_lock_breaks``);
* **corruption means repair, not failure** — a blob that fails the
  format-version/sha-256 guard (or does not unpickle) is deleted and
  recompiled, and the fresh artifact is re-published
  (``compile.cache.disk_corrupt`` counts the repair);
* **size-capped LRU eviction** — reads refresh the artifact mtime;
  when the store grows past ``max_bytes`` the oldest artifacts are
  evicted (``compile.cache.disk_evictions``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional

from repro.core.config import HwstConfig

__all__ = ["CompileCache", "DiskArtifactStore", "config_fingerprint",
           "configure_process_cache", "process_cache"]


def config_fingerprint(config: HwstConfig) -> str:
    """Deterministic serialisation of every config field."""
    return json.dumps(asdict(config), sort_keys=True, default=str)


def _digest(*parts: str) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        blob = part.encode("utf-8")
        hasher.update(len(blob).to_bytes(8, "little"))
        hasher.update(blob)
    return hasher.hexdigest()


#: Bump when the shape of cached entries changes: entries written by
#: an older layout are treated as corrupt (-> recompile), never
#: unpickled blind. 2: a ``Program`` pickles its instructions as plain
#: field tuples.
CACHE_FORMAT = 2


def _seal(payload) -> tuple:
    """Wrap a pickled artefact with its format version + fingerprint."""
    blob = pickle.dumps(payload)
    return (CACHE_FORMAT, hashlib.sha256(blob).hexdigest(), blob)


def _unseal(entry) -> object:
    """Verified unpickle of a sealed entry; raises on any corruption."""
    version, fingerprint, blob = entry
    if version != CACHE_FORMAT or \
            hashlib.sha256(blob).hexdigest() != fingerprint:
        raise ValueError("cache entry failed integrity check")
    return pickle.loads(blob)


class DiskArtifactStore:
    """Cross-process on-disk content-addressed artifact store.

    Artifacts live under ``root/objects/<key>.art`` as pickled sealed
    entries (format version + sha-256 fingerprint + blob). See the
    module docstring for the hardening contract (atomic publish,
    advisory locks with stale recovery, repair-on-corruption, LRU
    eviction). All counters are process-local and folded into the
    parent registry the same way the in-memory tiers' are.
    """

    def __init__(self, root, max_bytes: int = 256 * 1024 * 1024,
                 stale_lock_s: float = 30.0,
                 lock_wait_s: float = 60.0,
                 poll_s: float = 0.02):
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.stale_lock_s = stale_lock_s
        self.lock_wait_s = lock_wait_s
        self.poll_s = poll_s
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.evictions = 0
        self.lock_breaks = 0
        self.lock_waits = 0

    # -- paths --------------------------------------------------------------

    def _artifact(self, key: str) -> Path:
        return self.objects / f"{key}.art"

    def _lockfile(self, key: str) -> Path:
        return self.objects / f"{key}.lock"

    # -- artifacts ----------------------------------------------------------

    def load(self, key: str):
        """Verified load; None on miss. Corruption deletes the artifact
        (the caller recompiles and re-publishes: repair, not failure)."""
        return self._read(key, count_miss=True)

    def _read(self, key: str, count_miss: bool):
        path = self._artifact(key)
        try:
            entry = pickle.loads(path.read_bytes())
            payload = _unseal(entry)
        except FileNotFoundError:
            if count_miss:
                self.misses += 1
            return None
        except Exception:
            self.corrupt += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        try:                       # LRU touch; best-effort under races
            os.utime(path)
        except OSError:
            pass
        return payload

    def store(self, key: str, payload) -> None:
        """Atomically publish ``payload`` under ``key``, then evict."""
        data = pickle.dumps(_seal(payload))
        fd, tmp = tempfile.mkstemp(dir=self.objects, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, self._artifact(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._evict()

    def _evict(self) -> None:
        """Drop oldest artifacts until the store fits ``max_bytes``."""
        entries = []
        total = 0
        for path in self.objects.glob("*.art"):
            try:
                stat = path.stat()
            except OSError:        # concurrently evicted
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        for _mtime, size, path in sorted(entries):
            try:
                path.unlink()
            except OSError:
                continue
            self.evictions += 1
            total -= size
            if total <= self.max_bytes:
                return

    # -- advisory locks -----------------------------------------------------

    def _try_lock(self, key: str) -> bool:
        """O_CREAT|O_EXCL lockfile containing our pid; False if held."""
        try:
            fd = os.open(self._lockfile(key),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()}\n")
        return True

    def _unlock(self, key: str) -> None:
        try:
            self._lockfile(key).unlink()
        except OSError:
            pass

    def _lock_is_stale(self, key: str) -> bool:
        """A lock is stale when its holder is dead or it outlived
        ``stale_lock_s`` (crashed holder mid-write / clock-skewed NFS)."""
        path = self._lockfile(key)
        try:
            stat = path.stat()
            pid_text = path.read_text().strip()
        except OSError:
            return False           # released under us: not stale, gone
        if time.time() - stat.st_mtime > self.stale_lock_s:
            return True
        if pid_text.isdigit():
            pid = int(pid_text)
            if pid == os.getpid():
                return False
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True        # holder crashed without unlocking
            except (OSError, PermissionError):
                return False       # alive (or unknowable): trust it
        return False

    def _break_stale_lock(self, key: str) -> None:
        self.lock_breaks += 1
        self._unlock(key)

    def acquire(self, key: str) -> bool:
        """Acquire the per-key compile lock; True when we hold it.

        False means another live process holds it — the caller should
        poll :meth:`wait_for` for the artifact the holder is about to
        publish. Stale locks (dead holder / too old) are broken and
        re-tried.
        """
        while True:
            if self._try_lock(key):
                return True
            if self._lock_is_stale(key):
                self._break_stale_lock(key)
                continue
            return False

    def wait_for(self, key: str):
        """Poll for ``key`` while another process compiles it.

        Returns the artifact, or None when the holder crashed (its
        stale lock gets broken — our caller then compiles) or the wait
        budget ran out.
        """
        self.lock_waits += 1
        deadline = time.monotonic() + self.lock_wait_s
        while time.monotonic() < deadline:
            payload = self._read(key, count_miss=False)
            if payload is not None:
                return payload
            if self._lock_is_stale(key):
                self._break_stale_lock(key)
                return None
            if not self._lockfile(key).exists():
                # Holder released without publishing (its compile
                # failed); don't spin the rest of the budget.
                return self.load(key)
            time.sleep(self.poll_s)
        return None

    # -- accounting ---------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, int]:
        return {
            "compile.cache.disk_hits": self.hits,
            "compile.cache.disk_misses": self.misses,
            "compile.cache.disk_corrupt": self.corrupt,
            "compile.cache.disk_evictions": self.evictions,
            "compile.cache.disk_lock_breaks": self.lock_breaks,
            "compile.cache.disk_lock_waits": self.lock_waits,
        }


class CompileCache:
    """Three-tier content-addressed cache of compile artefacts.

    One instance is process-local (see :func:`process_cache`); pool
    workers each grow their own copy, and the sweep executor folds the
    per-worker counters back into the parent's registry.
    """

    def __init__(self, max_entries: int = 1024,
                 disk: Optional[DiskArtifactStore] = None):
        self.max_entries = max_entries
        # Optional cross-process tier for the program artefacts (the
        # unit tier stays process-local: units are cheap relative to
        # linked programs and are subsumed by program-tier hits).
        self.disk = disk
        # key -> (format_version, sha256-of-blob, pickled blob). The
        # seal is checked on every load so a corrupt or stale-format
        # entry falls back to recompilation instead of raising
        # UnpicklingError mid-sweep.
        self._units: Dict[str, tuple] = {}
        # key -> RuntimeImage / Program, shared read-only by callers.
        self._runtimes: Dict[str, object] = {}
        self._programs: Dict[str, object] = {}
        self.program_hits = 0
        self.unit_hits = 0
        self.runtime_hits = 0
        self.misses = 0
        self.unit_misses = 0
        self.runtime_misses = 0
        self.corrupt = 0

    def _keep(self, tier: Dict[str, object], key: str, value) -> None:
        """Insert into an in-memory tier; a full tier first drops its
        oldest entry (dict insertion order)."""
        if tier and len(tier) >= self.max_entries:
            del tier[next(iter(tier))]
        tier[key] = value

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def program_key(source: str, scheme: str, config: HwstConfig) -> str:
        return _digest("program", source, scheme,
                       config_fingerprint(config))

    @staticmethod
    def unit_key(source: str, name: str) -> str:
        return _digest("unit", source, name)

    @staticmethod
    def runtime_key(source: str, options) -> str:
        return _digest("runtime", source,
                       json.dumps(asdict(options), sort_keys=True))

    # -- unit tier (used by schemes.compile_source) -------------------------

    def load_unit(self, source: str, name: str):
        """Fresh front-end ``Module`` for ``source``, or None on miss.
        An entry that fails its seal is dropped and counted as
        ``corrupt``; the caller then recompiles as on a miss."""
        key = self.unit_key(source, name)
        entry = self._units.get(key)
        if entry is not None:
            try:
                module = _unseal(entry)
            except Exception:
                self.corrupt += 1
                del self._units[key]
            else:
                self.unit_hits += 1
                return module
        self.unit_misses += 1
        return None

    def store_unit(self, source: str, name: str, module) -> None:
        self._keep(self._units, self.unit_key(source, name), _seal(module))

    # -- runtime tier (used by schemes.compile.runtime_image) ---------------

    def load_runtime(self, source: str, options):
        """The shared runtime image for ``source`` lowered under
        ``options`` (a ``CodegenOptions``), or None on miss."""
        image = self._runtimes.get(self.runtime_key(source, options))
        if image is None:
            self.runtime_misses += 1
        else:
            self.runtime_hits += 1
        return image

    def store_runtime(self, source: str, options, image) -> None:
        self._keep(self._runtimes, self.runtime_key(source, options),
                   image)

    # -- program tier -------------------------------------------------------

    def compile(self, source: str, scheme: str,
                config: Optional[HwstConfig] = None,
                metrics=None, tracer=None):
        """Compile ``source`` under ``scheme``, reusing cached artefacts.

        A program-tier hit returns the cached ``Program`` itself and
        replays its analysis summary (check elision counts) into
        ``metrics`` so the ``compile.analyze.*`` counters read the same
        whether the build was cached or fresh; phase wall-times are
        only recorded for work actually performed.

        With a :class:`DiskArtifactStore` attached, a memory miss
        consults the shared store next (corrupt entries are repaired:
        deleted, recompiled, re-published), and a fresh compile is
        published for every other process — under a per-key advisory
        lock so concurrent identical compiles coalesce into one.
        """
        config = config or HwstConfig()
        key = self.program_key(source, scheme, config)
        program = self._programs.get(key)
        if program is not None:
            self.program_hits += 1
            self._replay_analyze(program, metrics)
            return program
        if self.disk is not None:
            program = self.disk.load(key)
            if program is not None:
                self._keep(self._programs, key, program)
                self._replay_analyze(program, metrics)
                return program
        self.misses += 1
        program = self._compile_and_publish(
            source, scheme, config, key, metrics, tracer)
        self._keep(self._programs, key, program)
        return program

    def _compile_and_publish(self, source, scheme, config, key,
                             metrics, tracer):
        """Compile (coalescing with concurrent processes via the disk
        store's per-key lock when one is attached) and publish."""
        if self.disk is None:
            return self._compile(source, scheme, config, metrics, tracer)
        if not self.disk.acquire(key):
            # Another live process is compiling this very key: wait for
            # its publish instead of duplicating the work. A crashed
            # holder leaves a stale lock; wait_for breaks it and
            # returns None — then we compile (holding no lock: worst
            # case two processes publish the same bytes atomically).
            program = self.disk.wait_for(key)
            if program is not None:
                return program
            return self._publish(key, self._compile(
                source, scheme, config, metrics, tracer))
        try:
            # Double-check under the lock: the artifact may have been
            # published between our miss and the acquire.
            program = self.disk._read(key, count_miss=False)
            if program is not None:
                return program
            return self._publish(key, self._compile(
                source, scheme, config, metrics, tracer))
        finally:
            self.disk._unlock(key)

    def _publish(self, key, program):
        try:
            self.disk.store(key, program)
        except OSError:
            pass                   # store full/unwritable: serve anyway
        return program

    def _compile(self, source, scheme, config, metrics, tracer):
        from repro.schemes import compile_source

        phases = None
        if metrics is not None:
            from repro.obs.phases import PhaseTimers

            phases = PhaseTimers(metrics=metrics, tracer=tracer)
        return compile_source(source, scheme, config, phases=phases,
                              cache=self)

    @staticmethod
    def _replay_analyze(program, metrics) -> None:
        if metrics is None:
            return
        summary = program.meta.get("analyze")
        if not isinstance(summary, dict):
            return
        scope = metrics.scope("compile.analyze")
        for key, value in summary.items():
            scope.counter(key).inc(int(value))

    # -- accounting ---------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.program_hits + self.unit_hits

    def stats_snapshot(self) -> Dict[str, int]:
        """Flat ``compile.cache.*`` counter snapshot (mergeable)."""
        snap = {
            "compile.cache.hits": self.hits,
            "compile.cache.program_hits": self.program_hits,
            "compile.cache.unit_hits": self.unit_hits,
            "compile.cache.misses": self.misses,
            "compile.cache.unit_misses": self.unit_misses,
            "compile.cache.runtime_hits": self.runtime_hits,
            "compile.cache.runtime_misses": self.runtime_misses,
            "compile.cache.corrupt": self.corrupt,
        }
        if self.disk is not None:
            snap.update(self.disk.stats_snapshot())
        return snap

    def clear(self) -> None:
        self._programs.clear()
        self._units.clear()
        self._runtimes.clear()
        self.program_hits = self.unit_hits = self.runtime_hits = 0
        self.misses = self.unit_misses = self.runtime_misses = 0
        self.corrupt = 0


_PROCESS_CACHE: Optional[CompileCache] = None


def process_cache() -> CompileCache:
    """The per-process cache shared by every sweep in this process."""
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = CompileCache()
    return _PROCESS_CACHE


def configure_process_cache(disk_root=None,
                            max_bytes: int = 256 * 1024 * 1024,
                            stale_lock_s: float = 30.0) -> CompileCache:
    """(Re)build the process cache, optionally with a shared disk tier.

    ``repro serve`` worker initialisers call this so every worker of a
    pool shares one on-disk artifact store; ``disk_root=None`` resets
    to a plain in-memory cache. Returns the new cache.
    """
    global _PROCESS_CACHE
    disk = None
    if disk_root is not None:
        disk = DiskArtifactStore(disk_root, max_bytes=max_bytes,
                                 stale_lock_s=stale_lock_s)
    _PROCESS_CACHE = CompileCache(disk=disk)
    return _PROCESS_CACHE
