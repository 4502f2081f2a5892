"""End-to-end: ``repro-serve`` keeps its plans across a SIGKILL.

``--workers 0`` serves from one in-process journaled store in
``--shard-dir/shard-0``, and every cached plan is fsync'd before it is
answered.  So a server killed without any shutdown step reboots over the
same directory with the plan still cached — and so does a ``--workers 1``
fleet, whose shard 0 owns that very directory: one on-disk format.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys

import pytest

from repro.service.client import ServiceClient

pytestmark = pytest.mark.slow

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)
PARAMS = {"mu": 3.0, "sigma": 0.5}


def boot(shard_dir, *extra_args):
    """Start ``repro-serve`` over ``shard_dir``; returns ``(proc, client)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service.server",
            "--port", "0",
            "--shard-dir", str(shard_dir),
            "--n-samples", "400",
            *extra_args,
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
    if port is None:
        proc.kill()
        proc.wait()
        raise AssertionError("repro-serve never printed its listening line")
    return proc, ServiceClient(f"http://127.0.0.1:{port}", timeout=30)


def stop(proc, sig=signal.SIGTERM) -> int:
    if proc.poll() is None:
        proc.send_signal(sig)
    try:
        code = proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    proc.stdout.close()
    return code


def plan(client):
    return client.plan("lognormal", PARAMS, strategy="mean_by_mean")


def test_in_process_plans_survive_sigkill_in_the_shard_format(tmp_path):
    shard_dir = tmp_path / "shards"

    proc, client = boot(shard_dir)
    try:
        cold = plan(client)
        assert cold["cached"] is False
    finally:
        stop(proc, signal.SIGKILL)  # no drain, no shutdown hook
    assert (shard_dir / "shard-0" / "journal.jsonl").exists()

    proc, client = boot(shard_dir)
    try:
        again = plan(client)
        assert again["cached"] is True, "SIGKILL lost the journaled plan"
        assert again["key"] == cold["key"]
        assert again["plan"] == cold["plan"]
    finally:
        assert stop(proc) == 0

    proc, client = boot(shard_dir, "--workers", "1")
    try:
        sharded = plan(client)
        assert sharded["cached"] is True, "shard 0 did not replay the journal"
        assert sharded["key"] == cold["key"]
        assert sharded["shard"]["served_by"] == 0
    finally:
        assert stop(proc) == 0
