"""The server under test as a subprocess, and the closed-loop clients.

:class:`ServerProcess` boots ``repro-serve`` (or the traced launcher) in
its own process group, reads the port from the banner, reports peak RSS
from ``/proc`` and, on :meth:`ServerProcess.stop`, shuts it down with
SIGTERM and makes sure no process of the group outlives it.

:class:`Client` is one keep-alive HTTP/1.1 connection (``http.client``).
:func:`run_window` drives a closed loop: each client sends its next
request only when the previous answer has arrived, for a fixed number of
seconds.  :func:`run_all` sends a fixed list the same way (set-up and
probes).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from checks import Outcome
from workloads import Request

BANNER_RE = re.compile(r"repro-serve listening on http://(?P<host>[\d.]+):(?P<port>\d+) ")
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 120.0


def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` (peak resident set) of ``pid`` in kB, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


class ServerProcess:
    def __init__(self, root: str, argv: Sequence[str], workdir: str,
                 traced: bool = False, span_path: Optional[str] = None):
        self.root = root
        self.argv = list(argv)
        self.workdir = workdir
        self.traced = traced
        self.span_path = span_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.extra_pids: List[int] = []  # shard workers, learnt from /healthz
        self._log = None
        self._drain: Optional[threading.Thread] = None

    @property
    def command(self) -> List[str]:
        if self.traced:
            launcher = os.path.join(self.root, "loadbench", "traced_serve.py")
            return [sys.executable, launcher, *self.argv]
        return [
            sys.executable, "-c",
            "import sys; from repro.service.server import main; "
            "sys.exit(main(sys.argv[1:]))",
            *self.argv,
        ]

    def start(self) -> int:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        env.pop("REPRO_FAULTS", None)
        if self.span_path:
            env["LOADBENCH_SPANS"] = self.span_path
        self._log = open(os.path.join(self.workdir, "server.log"), "ab")
        self.proc = subprocess.Popen(
            self.command, cwd=self.workdir, env=env, stdout=subprocess.PIPE,
            stderr=self._log, start_new_session=True,
        )
        found = threading.Event()

        def read() -> None:
            assert self.proc is not None and self.proc.stdout is not None
            for raw in self.proc.stdout:  # keep draining after the banner
                if not found.is_set():
                    match = BANNER_RE.search(raw.decode("utf-8", "replace"))
                    if match:
                        self.port = int(match.group("port"))
                        found.set()

        self._drain = threading.Thread(target=read, daemon=True)
        self._drain.start()
        if not found.wait(BOOT_TIMEOUT_S):
            self.stop()
            raise RuntimeError("repro-serve printed no banner (see server.log)")
        return self.port

    def peak_rss_mb(self) -> float:
        pids = ([self.proc.pid] if self.proc else []) + self.extra_pids
        return sum(peak_rss_kb(pid) for pid in pids) / 1024.0

    def stop(self, graceful: bool = True) -> None:
        """SIGTERM and wait for the graceful drain (or SIGKILL right away),
        then reap the whole process group."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
        try:
            proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # anything the server left behind
        except (ProcessLookupError, PermissionError):
            pass
        limit = time.monotonic() + STOP_TIMEOUT_S
        while any(_alive(pid) for pid in self.extra_pids) and time.monotonic() < limit:
            time.sleep(0.05)
        if self._drain is not None:
            self._drain.join(STOP_TIMEOUT_S)
        if proc.stdout is not None:
            proc.stdout.close()
        if self._log is not None:
            self._log.close()
        self.proc = None


class Client:
    """One persistent HTTP/1.1 connection, numbering its POSTs from 1."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        self.conn.connect()
        self.sock = self.conn.sock
        self.local_port = self.sock.getsockname()[1]
        self.seq = 0
        self.reconnects = 0

    def _exchange(self, method: str, path: str, body: Optional[bytes]):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        if self.conn.sock is not self.sock:  # http.client reopened it
            self.reconnects += 1
            self.sock = self.conn.sock
        return response.status, data

    def post(self, req: Request) -> Outcome:
        self.seq += 1
        rid = f"{self.local_port}:{self.seq}"
        start = time.perf_counter()
        try:
            status, data = self._exchange("POST", req.path, req.body)
        except (OSError, http.client.HTTPException) as exc:
            return Outcome(req, rid, time.perf_counter() - start, 0, None,
                           ok=False, reason=f"transport: {exc!r}")
        latency = time.perf_counter() - start
        try:
            payload = json.loads(data)
        except ValueError:
            payload = None
        return Outcome(req, rid, latency, status, payload)

    def get_json(self, path: str) -> dict:
        status, data = self._exchange("GET", path, None)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()


Check = Callable[[Outcome], bool]


def _drive(clients: Sequence[Client], queues: Sequence[Sequence[Request]],
           check: Check, deadline: Optional[float]) -> List[List[Outcome]]:
    results: List[List[Outcome]] = [[] for _ in clients]
    errors: List[BaseException] = []

    def loop(i: int) -> None:
        try:
            for req in queues[i]:
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                out = clients[i].post(req)
                check(out)
                results[i].append(out)
        except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(len(clients))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def run_window(clients: Sequence[Client], schedules: Sequence[Sequence[Request]],
               seconds: float, check: Check) -> Dict[str, object]:
    """Closed loop for ``seconds``; returns outcomes and the window's span."""
    start = time.perf_counter()
    per_client = _drive(clients, schedules, check, start + seconds)
    end = time.perf_counter()
    outcomes = [o for outs in per_client for o in outs]
    exhausted = any(len(outs) == len(s) for outs, s in zip(per_client, schedules))
    return {"outcomes": outcomes, "elapsed_s": end - start, "exhausted": exhausted}


def run_all(clients: Sequence[Client], requests: Sequence[Request],
            check: Check) -> List[Outcome]:
    """Send every request once, round-robin over the clients, closed loop."""
    queues = [list(requests[i::len(clients)]) for i in range(len(clients))]
    return [o for outs in _drive(clients, queues, check, None) for o in outs]
