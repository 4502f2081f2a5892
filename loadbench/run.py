"""Keep-alive closed-loop load benchmark for ``repro-serve``.

Run from the repository root::

    python3 loadbench/run.py --workload hit_local --seed 1 --seconds 8 --trace 0

Workloads (``loadbench/rationale.json`` says why each exists and which
layers it should stress or bypass): ``hit_local``, ``mixed_sharded``,
``cold_plan``, ``evaluate_mc``.

One run boots ``repro-serve`` with its default flags (plus ``--port 0``,
and ``--workers 2 --shard-dir`` on ``mixed_sharded``) as a subprocess,
plans the hot set over two persistent HTTP/1.1 connections, and then
drives a closed loop of two clients, one connection each, for
``--seconds``.  Every response is checked (``checks.py``); request kinds
the window's mix lacks are measured by a short probe afterwards, so every
metric exists on every workload.  Afterwards a seeded sample of the served
plans is planned again in-process and must agree.

``--trace 0`` reports the end-to-end metrics; set-up (boot through the
planned hot set) is repeated three times and its median reported.
``--trace 1`` runs the same window once untraced and once on a server
started through ``traced_serve.py``, and reports the per-layer metrics
from the spans.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when every check passed; 2 means the benchmark
could not run at all (for example, no ``src/repro`` to benchmark).
All scratch files live under ``.loadbench_work/`` in the repository root
and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".loadbench_work"
SETUP_REPEATS = 3
FSYNC_PROBE_APPENDS = 100
WORKLOAD_NAMES = ("hit_local", "mixed_sharded", "cold_plan", "evaluate_mc")


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------
def git_sha(root: Path) -> Optional[str]:
    """HEAD's sha read from ``.git`` directly (``None`` outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256(root: Path) -> str:
    """Content hash of every ``src/**/*.py`` (identifies a tree without git)."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(server_argv: Sequence[str]) -> dict:
    import numpy

    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": src_sha256(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "server_argv": list(server_argv),
    }


# ----------------------------------------------------------------------
# One booted server and its two clients
# ----------------------------------------------------------------------
class Session:
    """Boot → set-up → window → probes → stop, for one server process."""

    def __init__(self, workload, inputs, checker, workdir: Path, traced: bool):
        from loadgen import Client, ServerProcess
        from workloads import CLIENTS

        workdir.mkdir(parents=True)
        self.workload, self.inputs, self.checker = workload, inputs, checker
        argv = ["--port", "0"]
        if workload.workers:  # the server runs in workdir: shards land there
            argv += ["--workers", str(workload.workers), "--shard-dir", "shards"]
        self.span_path = str(workdir / "spans.jsonl") if traced else None
        self.server = ServerProcess(str(ROOT), argv, str(workdir), traced, self.span_path)
        self.clients: List = []
        start = time.perf_counter()
        try:
            port = self.server.start()
            self.clients = [Client(port) for _ in range(CLIENTS)]
            self.setup_outcomes = self._plan_setup()
            self.health()  # the shard fleet answers its stats RPC too
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _plan_setup(self):
        from loadgen import run_all

        self.checker.reset_references()
        return run_all(self.clients, self.inputs.setup,
                       lambda o: self.checker.check(o, record=True))

    def _check(self, out) -> bool:
        return self.checker.check(out, record=out.request.kind == "miss")

    def health(self) -> dict:
        health = self.clients[0].get_json("/healthz")
        shards = (health.get("cache") or {}).get("shards") or {}
        pids = [int(s["pid"]) for s in shards.values() if s.get("pid")]
        self.server.extra_pids = sorted(set(self.server.extra_pids) | set(pids))
        return health

    def window(self, seconds: float) -> dict:
        from loadgen import run_window

        return run_window(self.clients, self.inputs.schedules, seconds, self._check)

    def probe(self, kind: str) -> Tuple[list, float]:
        from loadgen import run_all

        start = time.perf_counter()
        outcomes = run_all(self.clients, self.inputs.probe(kind), self._check)
        return outcomes, time.perf_counter() - start

    @property
    def reconnects(self) -> int:
        return sum(c.reconnects for c in self.clients)

    def close(self, graceful: bool = True) -> None:
        for client in self.clients:
            client.close()
        self.server.stop(graceful)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _latency_ms(outcomes) -> List[float]:
    return [o.latency_s * 1e3 if o.ok else math.inf for o in outcomes]


def _kind_outcomes(outcomes, kind: str):
    """Outcomes that count for ``kind``: served hits/misses by the cached
    flag; a failed request counts for the kind it was sent as."""
    if kind == "evaluate":
        return [o for o in outcomes if o.request.path == "/evaluate"]
    cached = kind == "hit"
    return [
        o for o in outcomes
        if o.request.path == "/plan"
        and (o.payload.get("cached") is cached if o.ok else o.request.kind == kind)
    ]


def _samples_per_s(outcomes, elapsed_s: float) -> float:
    served = sum(o.payload["evaluation"]["n_samples"] or 0 for o in outcomes if o.ok)
    return served / elapsed_s if elapsed_s > 0 else 0.0


def end_to_end(window: dict, probes: Dict[str, Tuple[list, float]],
               setups: Sequence[float], rss_mb: float) -> Dict[str, Tuple[float, str, str]]:
    """``name -> (value, unit, detail)``; detail names the sample behind it."""
    from spans import percentile

    outs, elapsed = window["outcomes"], window["elapsed_s"]
    lat = _latency_ms(outs)
    ok = sum(1 for o in outs if o.ok)

    def source(kind: str):
        sample, span, where = probes[kind] + ("probe",) if kind in probes else (
            outs, elapsed, "window")
        return _kind_outcomes(sample, kind), span, where

    hits, _, hit_src = source("hit")
    misses, _, miss_src = source("miss")
    evals, eval_elapsed, eval_src = source("evaluate")
    return {
        "throughput_rps": (ok / elapsed, "1/s", f"{ok} ok in {elapsed:.2f} s"),
        "latency_p50_ms": (percentile(lat, 0.5), "ms", f"n={len(lat)}"),
        "latency_p90_ms": (percentile(lat, 0.9), "ms", f"n={len(lat)}"),
        "hit_p50_ms": (percentile(_latency_ms(hits), 0.5), "ms",
                       f"{hit_src}, n={len(hits)}"),
        "miss_p50_ms": (percentile(_latency_ms(misses), 0.5), "ms",
                        f"{miss_src}, n={len(misses)}"),
        "mc_samples_per_s": (_samples_per_s(evals, eval_elapsed), "1/s",
                             f"{eval_src}, n={len(evals)}"),
        "error_rate": ((len(outs) - ok) / len(outs) if outs else 0.0, "ratio",
                       f"{len(outs) - ok} of {len(outs)} window requests"),
        "setup_s": (statistics.median(setups), "s",
                    "median of " + ", ".join(f"{s:.3f}" for s in setups)),
        "server_rss_mb": (rss_mb, "MB", "peak RSS, front end + shard workers"),
    }


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def fsync_probe(directory: Path, payload: dict) -> float:
    """Median µs of one fsync'd ShardJournal.append on this filesystem."""
    from repro.service.journal import ShardJournal
    from spans import median

    journal = ShardJournal(str(directory))
    times = []
    try:
        for i in range(FSYNC_PROBE_APPENDS):
            record = {"op": "put", "key": f"probe-{i}", "created_at": 0.0,
                      "payload": payload}
            start = time.perf_counter_ns()
            journal.append(record)
            times.append((time.perf_counter_ns() - start) / 1e3)
    finally:
        journal.close()
    return median(times)


def run_untraced(workload, inputs, checker, work: Path, seconds: float) -> dict:
    setups = []
    session = None
    for i in range(SETUP_REPEATS):
        if session is not None:
            session.close(graceful=False)  # only its set-up time was wanted
        session = Session(workload, inputs, checker, work / f"boot-{i}", traced=False)
        setups.append(session.setup_s)
    try:
        window = session.window(seconds)
        probes = {}
        for kind in workload.probe_kinds:
            probes[kind] = session.probe(kind)
        session.health()
        rss = session.server.peak_rss_mb()
        reconnects = session.reconnects
    finally:
        session.close()
    served = list(session.setup_outcomes) + window["outcomes"]
    served += [o for outs, _ in probes.values() for o in outs]
    return {
        "window": window, "metrics": end_to_end(window, probes, setups, rss),
        "served": served, "argv": session.server.argv, "reconnects": reconnects,
    }


def run_traced(workload, inputs, checker, work: Path, seconds: float) -> dict:
    import layers
    import spans

    plain = Session(workload, inputs, checker, work / "untraced", traced=False)
    try:
        untraced = plain.window(seconds)
    finally:
        plain.close()
    session = Session(workload, inputs, checker, work / "traced", traced=True)
    try:
        before = layers.journal_totals(session.health())
        window = session.window(seconds)
        after = layers.journal_totals(session.health())
        reconnects = plain.reconnects + session.reconnects
    finally:
        session.close()
    recorded = spans.load(session.span_path)
    payload = next(iter(checker.references.values()))
    fsync_us = fsync_probe(work / "journal-probe", payload)
    served = list(session.setup_outcomes) + window["outcomes"]
    return {
        "window": window, "untraced": untraced, "spans": recorded,
        "journal": (before, after), "fsync_us": fsync_us, "served": served,
        "argv": session.server.argv, "reconnects": reconnects,
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _number(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "service" / "server.py").is_file():
        print(f"loadbench: {ROOT / 'src'} holds no repro package to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import checks
    import layers
    from workloads import WORKLOADS, build_inputs

    workload = WORKLOADS[args.workload]
    inputs = build_inputs(workload, args.seed, args.seconds)
    checker = checks.Checker()
    work = WORK_ROOT / f"run-{os.getpid()}"
    try:
        if args.trace:
            run = run_traced(workload, inputs, checker, work, args.seconds)
        else:
            run = run_untraced(workload, inputs, checker, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    red = checks.rederive(run["served"], args.seed)
    window = run["window"]

    print(f"loadbench workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("stamp " + json.dumps(stamp(run["argv"]), sort_keys=True))
    why = json.loads((HERE / "rationale.json").read_text())["workloads"][workload.name]
    print(f"why: {why['why']}")
    print(f"predicted dominant: {', '.join(why['dominant'])}; "
          f"bypassed: {', '.join(why['bypassed'])}")
    if window["exhausted"]:
        print("warning: a client ran out of pre-built requests before the "
              "window closed", file=sys.stderr)
    print(f"re-derived {red.checked} plans in-process; brute_force "
          f"{red.brute_force_differ}/{red.brute_force} differ (fresh entropy)")
    print(f"client reconnects: {run['reconnects']}")

    if args.trace:
        untraced = run["untraced"]
        tput = {
            key: sum(1 for o in w["outcomes"] if o.ok) / w["elapsed_s"]
            for key, w in (("traced", window), ("untraced", untraced))
        }
        metrics = layers.per_layer(
            run["spans"], window["outcomes"], *run["journal"], run["fsync_us"],
            red.nondeterministic_frac, tput["traced"], tput["untraced"],
        )
        print(f"traced window: {len(window['outcomes'])} requests, "
              f"{tput['traced']:.3f}/s (untraced {tput['untraced']:.3f}/s), "
              f"{len(run['spans'])} spans")
        for name, (value, unit) in metrics.items():
            print(f"  {name:44s} {value:14.6g} {unit}")
        for name, value, text, held in layers.verdicts(workload.name, metrics):
            print(f"predicted {name} {text}: {value:.4g} -> "
                  f"{'confirmed' if held else 'NOT confirmed'}")
        shown = metrics
    else:
        e2e = run["metrics"]
        for name, (value, unit, detail) in e2e.items():
            print(f"  {name:18s} {value:14.6g} {unit:6s} ({detail})")
        shown = {k: (v, u) for k, (v, u, _) in e2e.items() if k != "error_rate"}

    failures = checker.failures + red.failures
    for line in failures[: checks.MAX_REPORTED_FAILURES]:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = checker.attempted + red.checked
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": _number(v), "unit": u} for k, (v, u) in shown.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
