"""``repro serve`` as a subprocess, and the HTTP load generator for it.

The server runs in its own session (process group) so that stopping it
also reaches the forkserver and worker processes it started. The client
speaks the server's HTTP/1.1 subset: one request per connection,
``Connection: close``.
"""

from __future__ import annotations

import asyncio
import ctypes
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

Address = Tuple[str, int]

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")
_BOOT_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0
_MAX_TMPDIR_LEN = 107 - len("/pymp-XXXXXXXX/listener-XXXXXXXX")
_PR_SET_CHILD_SUBREAPER = 36
#: The idle probe runs only when the next request is due this far off.
_IDLE_MARGIN_S = 0.02


class ServeProcess:
    """``python -m repro serve`` with a fresh artifact-store directory.

    Only the port and the store location are chosen here; worker count,
    queue limit and deadlines are the server's defaults.
    """

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.proc = None
        self.address: Address = ("127.0.0.1", 0)

    def start(self) -> None:
        _become_subreaper()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(self.root / "src"), env.get("PYTHONPATH")]))
        # Keep the forkserver's socket directory inside the checkout. Its
        # socket path ($TMPDIR/pymp-XXXXXXXX/listener-XXXXXXXX) must fit
        # the 107-byte AF_UNIX limit, else the system default is kept.
        if len(str(self.workdir)) <= _MAX_TMPDIR_LEN:
            env["TMPDIR"] = str(self.workdir)
        with open(self.workdir / "serve.log", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--cache-dir", str(self.workdir / "store")],
                cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, start_new_session=True)
        deadline = time.monotonic() + _BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode()
                match = _LISTENING.search(line)
                if match:
                    self.address = (match.group(1), int(match.group(2)))
                    return
                if not line:
                    break
            if self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("repro serve did not start; see "
                           f"{self.workdir / 'serve.log'}")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait until every process of the
        server's group has ended, escalating to SIGKILL."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.wait()
        proc.stdout.close()
        deadline = time.monotonic() + _STOP_TIMEOUT_S
        while _wait_group(proc.pid):
            if time.monotonic() > deadline:
                _kill_group(proc.pid)
            time.sleep(0.05)
        shutil.rmtree(self.workdir, ignore_errors=True)


def _become_subreaper() -> None:
    """Have the server's workers, orphaned when it exits, reparented to
    this process (not init) so that :func:`_wait_group` can reap them."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group(pgid: int) -> bool:
    """Reap the exited members of process group ``pgid``; True while any
    member is still running."""
    running = False
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # pid (comm) state ppid pgrp ...; comm may contain spaces.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) != pgid:
            continue
        if fields[0] != "Z":
            running = True
            continue
        try:
            os.waitpid(int(entry.name), os.WNOHANG)
        except ChildProcessError:
            pass                # not ours: its own parent reaps it
    return running


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

@dataclass
class Reply:
    due: float      # loop time the request was scheduled for
    done: float     # loop time the full response had arrived
    status: int
    body: bytes


async def _exchange(address: Address, head: str, body: bytes = b""
                    ) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    status_line, _, rest = data.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), payload


async def _post_check(address: Address, body: bytes) -> Tuple[int, bytes]:
    head = (f"POST /v1/check HTTP/1.1\r\nHost: {address[0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n")
    return await _exchange(address, head, body)


async def _send_all(address: Address, bodies: Sequence[bytes],
                    rate: float, inflight: int, idle=None):
    """Open loop: request ``i`` is due at ``start + i / rate`` whatever
    earlier requests are doing; at most ``inflight`` are on the wire, so
    a request waiting for a connection is late, and that wait counts in
    its latency. Returns the replies, how late the generator itself woke
    for each request (its own validity measure), and ``(loop time,
    value)`` samples of ``idle()``: a blocking probe called only while no
    request is pending and the next is not due for a while, so it never
    delays a request."""
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(inflight)
    pending = 0
    next_due = loop.time() + 0.05
    samples: List[Tuple[float, float]] = []

    async def one(due: float, body: bytes) -> Reply:
        nonlocal pending
        try:
            async with slots:
                status, payload = await _post_check(address, body)
            return Reply(due, loop.time(), status, payload)
        finally:
            pending -= 1

    def probe() -> None:
        began = loop.time()
        value = idle()
        samples.append(((began + loop.time()) / 2, value))

    async def prober() -> None:
        while True:
            await asyncio.sleep(0.005)
            if pending == 0 and next_due - loop.time() > _IDLE_MARGIN_S:
                probe()

    prober_task = asyncio.create_task(prober()) if idle else None
    start = next_due
    tasks, late = [], []
    try:
        for index, body in enumerate(bodies):
            due = start + (index / rate if rate else 0.0)
            next_due = due
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, loop.time() - due))
            pending += 1
            tasks.append(asyncio.create_task(one(due, body)))
            next_due = start + ((index + 1) / rate if rate else 0.0)
        next_due = float("inf")
        replies = list(await asyncio.gather(*tasks))
    finally:
        if prober_task is not None:
            prober_task.cancel()
            await asyncio.gather(prober_task, return_exceptions=True)
    if idle:
        probe()
    return replies, late, samples


def open_loop(address: Address, bodies: Sequence[bytes], rate: float,
              inflight: int, idle=None):
    """See :func:`_send_all`."""
    return asyncio.run(_send_all(address, bodies, rate, inflight, idle))


def closed_loop(address: Address, bodies: Sequence[bytes],
                inflight: int) -> List[Reply]:
    """Every request due at once; ``inflight`` connections drain them."""
    return open_loop(address, bodies, 0.0, inflight)[0]


def scrape_metrics(address: Address) -> Dict[str, float]:
    """``GET /metrics`` as ``{sample name with labels: value}``."""
    head = f"GET /metrics HTTP/1.1\r\nHost: {address[0]}\r\n\r\n"
    status, payload = asyncio.run(_exchange(address, head))
    if status != 200:
        raise RuntimeError(f"/metrics answered HTTP {status}")
    samples = {}
    for line in payload.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return samples
