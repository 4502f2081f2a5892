"""Graceful shutdown under load, against a real ``repro-serve`` subprocess.

A ``server.request:delay`` fault keeps requests in flight long enough to
SIGTERM the server mid-response.  The contract: every admitted request
completes, new connections are refused, and the plan store is closed only
after the drain — so a reboot over the same ``--shard-dir`` serves the
in-flight plans from its journal.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

REQUEST_BODY = json.dumps(
    {
        "distribution": {"law": "lognormal", "params": {"mu": 3.0, "sigma": 0.5}},
        "strategy": "mean_by_mean",
        "n_samples": 200,
    }
).encode()


def post_plan(port, results, index):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/plan",
        data=REQUEST_BODY,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            results[index] = (resp.status, json.loads(resp.read().decode()))
    except Exception as exc:  # recorded for the assertion message
        results[index] = ("error", repr(exc))


def boot(shard_dir, faults_spec=None):
    """Start ``repro-serve`` over ``shard_dir``; returns ``(proc, port)``."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    if faults_spec:
        env["REPRO_FAULTS"] = faults_spec
    env["PYTHONPATH"] = (
        os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.server",
            "--port", "0",
            "--n-samples", "200", "--shard-dir", shard_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=root,
    )
    port = None
    for _ in range(20):
        line = proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", line or "")
        if match:
            port = int(match.group(1))
            break
    return proc, port


def stop(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)
    proc.stdout.close()


@pytest.mark.slow
def test_sigterm_mid_flight_drains_then_snapshots(tmp_path):
    shard_dir = str(tmp_path / "shards")
    # Every admitted request is delayed ~1.2s — the SIGTERM window.
    proc, port = boot(shard_dir, "server.request:delay:1:seconds=1.2")
    try:
        assert port, "repro-serve never printed its listening line"

        results = {}
        threads = [
            threading.Thread(target=post_plan, args=(port, results, i))
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.5)  # requests are now in flight, held by the delay fault
        proc.send_signal(signal.SIGTERM)

        for thread in threads:
            thread.join(timeout=30)
        statuses = {i: results.get(i, ("missing",))[0] for i in range(3)}
        assert all(s == 200 for s in statuses.values()), results

        code = proc.wait(timeout=30)
        assert code == 0, f"repro-serve exited with {code}"

        # The listening socket is closed: new requests are refused.
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=2
            )

        output = proc.stdout.read()
        assert "Drain timed out" not in output, output
    finally:
        stop(proc)

    # The store closed after the drain, so the in-flight plan is journaled:
    # a reboot over the same directory answers it from the cache.
    proc, port = boot(shard_dir)
    try:
        assert port, "rebooted repro-serve never printed its listening line"
        results = {}
        post_plan(port, results, 0)
        status, body = results[0]
        assert status == 200, body
        assert body["cached"] is True, body
    finally:
        stop(proc)
