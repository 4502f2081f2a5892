"""End-to-end: ``repro-serve --workers N`` with a SIGKILL chaos drill.

Boots the real HTTP server as a subprocess with a 2-shard fleet, drives
it over HTTP, SIGKILLs one shard worker, and asserts the availability
contract: every request still answered (failed over + recomputed), the
supervisor restarts the worker, and the restarted worker warm-starts
from its journal (the key is a cache hit served by its primary again).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.service.client import ServiceClient

pytestmark = pytest.mark.slow

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)
PARAMS = {"mu": 3.0, "sigma": 0.5}


@pytest.fixture
def sharded_server(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import sys; from repro.service.server import main; "
            "sys.exit(main(sys.argv[1:]))",
            "--port", "0",
            "--workers", "2",
            "--shard-dir", str(tmp_path / "shards"),
            "--n-samples", "400",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    port = None
    for _ in range(40):
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match:
            port = int(match.group(1))
            break
    assert port is not None, "sharded repro-serve never printed its banner"
    yield proc, port
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def wait_until(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.2)
    return False


def test_sharded_serve_survives_shard_sigkill(sharded_server):
    proc, port = sharded_server
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=30)

    shards = client.shards()
    assert set(shards) == {"0", "1"}
    assert all(s["up"] and "pid" in s for s in shards.values()), shards

    cold = client.plan("lognormal", PARAMS)
    assert cold["cached"] is False
    assert cold["shard"]["failover"] is False
    warm = client.plan("lognormal", PARAMS)
    assert warm["cached"] is True

    victim = int(warm["shard"]["served_by"])
    victim_pid = int(shards[str(victim)]["pid"])
    os.kill(victim_pid, signal.SIGKILL)

    # Immediately after the kill every request must still be answered —
    # the router fails the key over and recomputes.
    resp = client.plan("lognormal", PARAMS)
    assert resp["key"] == cold["key"]
    assert resp["statistics"]["expected_cost"] > 0

    # The supervisor restarts the worker with a new pid and it replays
    # its journal, so the key is warm on its primary again.
    def restarted():
        current = client.shards().get(str(victim), {})
        return bool(current.get("up")) and current.get("pid") not in (
            None,
            victim_pid,
        )

    assert wait_until(restarted), "victim shard never came back"

    def warm_on_primary():
        again = client.plan("lognormal", PARAMS)
        return again["cached"] and again["shard"]["served_by"] == victim

    assert wait_until(warm_on_primary, timeout=10.0), (
        "restarted shard did not warm-start from its journal"
    )

    counters = client.metrics()["metrics"]["counters"]
    assert counters.get("shard.deaths", 0) >= 1, counters
    assert counters.get("shard.failovers", 0) >= 1, counters
    assert counters.get("shard.restarts", 0) >= 1, counters

    # Graceful shutdown still exits 0 with the fleet attached.
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 0
