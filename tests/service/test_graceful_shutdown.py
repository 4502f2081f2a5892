"""Graceful shutdown under load, against a real ``repro-serve`` subprocess.

A ``server.request:delay`` fault keeps requests in flight long enough to
SIGTERM the server mid-response.  The contract: every admitted request
completes, new connections are refused, and the cache snapshot is written
exactly once — after the drain, so it contains the in-flight plans.
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


@pytest.mark.slow
def test_sigterm_mid_flight_drains_then_snapshots(tmp_path):
    snapshot = str(tmp_path / "snap.json")
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env = dict(os.environ)
    # Every admitted request is delayed ~1.2s — the SIGTERM window.
    env["REPRO_FAULTS"] = "server.request:delay:1:seconds=1.2"
    env["PYTHONPATH"] = (
        os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.server",
            "--port", "0",
            "--n-samples", "200", "--snapshot-out", snapshot,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=root,
    )
    try:
        port = None
        for _ in range(20):
            line = proc.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", line or "")
            if match:
                port = int(match.group(1))
                break
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
        assert output.count("Snapshot:") == 1, output  # exactly once

        # The snapshot was written after the drain: the in-flight plan is in it.
        doc = json.loads(open(snapshot).read())
        assert len(doc["entries"]) == 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
