"""One served GSS process: spawn, time its set-up, measure it, reap it.

A :class:`ServedGSS` is ``python -m repro serve --backend native --workers 2
--port 0`` run as a child process in its own session, so the server, its
shard workers and the multiprocessing resource tracker can all be reaped as
one process group on any exit path, and the shared-memory rings it mapped
unlinked if it left them behind.  Set-up time runs from the spawn to the
first ``hello`` reply.
"""

from __future__ import annotations

import contextlib
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.serve.client import ServeClient

#: Server start-up (spawn → "serving on" line) may take this long at most.
START_TIMEOUT_S = 60.0
#: Graceful drain after SIGTERM before the process group is killed.
STOP_TIMEOUT_S = 15.0
SHM_DIR = Path("/dev/shm")

#: Turns the server's silent ``native`` → numpy fallback into a start-up
#: failure, so no run ever measures another backend under the native name.
_NATIVE_FALLBACK_IS_FATAL = (
    "error:GSSConfig.backend='native' but the compiled placement kernel:RuntimeWarning"
)
_SERVING_LINE = re.compile(r"serving on [^\s:]+:(\d+) ")


def bench_env(root: Path) -> Dict[str, str]:
    """Environment of every benchmark process: sources and kernel cache in
    the checkout, nothing written outside it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_NATIVE_CACHE"] = str(root / ".bench_build" / "native")
    return env


def mapped_shm(pids: Iterable[int]) -> Set[str]:
    """The ``psm_*`` shared-memory segments mapped by ``pids`` (and not yet
    unlinked): the rings a cluster owns, read from ``/proc/<pid>/maps``."""
    names: Set[str] = set()
    for pid in pids:
        try:
            maps = Path(f"/proc/{pid}/maps").read_text()
        except OSError:
            continue
        for line in maps.splitlines():
            path = line.split(maxsplit=5)[-1]
            if path.startswith(f"{SHM_DIR}/psm_") and not path.endswith("(deleted)"):
                names.add(path.rsplit("/", 1)[1])
    return names


def unlink_shm(names: Iterable[str]) -> List[str]:
    """Unlink those of ``names`` that still exist; returns them."""
    leaked = sorted(name for name in names if (SHM_DIR / name).exists())
    for name in leaked:
        try:
            (SHM_DIR / name).unlink()
        except OSError:
            pass
    return leaked


@contextlib.contextmanager
def in_process(summary) -> Iterator:
    """Close an in-process summary on exit and unlink any ring it left."""
    try:
        yield summary
    finally:
        owned = mapped_shm([os.getpid()])
        summary.close()
        unlink_shm(owned)


def _stat_fields(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` from field 3 (state) on, or ``None`` if gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # Split after the parenthesised command name, which may hold spaces.
    return stat.rsplit(")", 1)[1].split()


def _parent_of(pid: int) -> Optional[int]:
    fields = _stat_fields(pid)
    return int(fields[1]) if fields else None


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid`` (workers, resource tracker)."""
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            parent = _parent_of(int(entry.name))
            if parent is not None:
                children.setdefault(parent, []).append(int(entry.name))
    found: List[int] = []
    frontier = [pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def rss_bytes(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


class ServedGSS:
    """A fresh ``repro serve`` process on a free port.

    ``expected_edges`` sizes the summary; ``obs=False`` passes ``--no-obs``
    (every untraced run).  Construction blocks until the first ``hello``
    reply and records the elapsed time as :attr:`setup_s`.
    """

    def __init__(self, root: Path, expected_edges: int, *, obs: bool, workers: int = 2) -> None:
        command = [
            sys.executable,
            "-W",
            _NATIVE_FALLBACK_IS_FATAL,
            "-m",
            "repro",
            "serve",
            "--backend",
            "native",
            "--workers",
            str(workers),
            "--transport",
            "auto",
            "--port",
            "0",
            "--expected-edges",
            str(expected_edges),
        ]
        if not obs:
            command.append("--no-obs")
        self.host = "127.0.0.1"
        self._worker_pids: List[int] = []
        self._owned_shm: Set[str] = set()
        begin = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=str(root),
            env=bench_env(root),
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        try:
            self.port = self._read_port()
            hello = ServeClient(self.host, self.port, timeout=30.0)
            self.setup_s = time.perf_counter() - begin
            self.info = dict(hello.server_info)
            hello.close()
            self._worker_pids = descendants(self.process.pid)
            self._owned_shm = mapped_shm([self.process.pid, *self._worker_pids])
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        assert self.process.stdout is not None
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited during start-up (code {self.process.wait()})"
                )
            match = _SERVING_LINE.search(line)
            if match:
                return int(match.group(1))
        raise RuntimeError("server did not report its port in time")

    def client(self, **options) -> ServeClient:
        options.setdefault("timeout", 30.0)
        return ServeClient(self.host, self.port, **options)

    def rss_mb(self) -> float:
        """VmRSS of the server plus every process below it, in MiB."""
        pids = [self.process.pid, *descendants(self.process.pid)]
        return sum(rss_bytes(pid) for pid in pids) / (1024 * 1024)

    def stop(self) -> List[str]:
        """Drain and stop the server, reap its group, unlink its shm rings.

        Returns the names of the server's shared-memory segments that had to
        be unlinked (empty when the server cleaned up after itself).
        """
        process = self.process
        self._owned_shm |= mapped_shm([process.pid, *descendants(process.pid)])
        if process.poll() is None:
            try:
                process.send_signal(signal.SIGTERM)
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait()
        if process.stdout is not None:
            process.stdout.close()
        # Workers are reparented once the server exits; wait until each is gone.
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in self._worker_pids:
            while alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
        return unlink_shm(self._owned_shm)
