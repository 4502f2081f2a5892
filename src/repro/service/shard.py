"""One plan-cache shard: journaled store, worker process, and RPC client.

A shard owns a contiguous arc of the consistent-hashing ring (see
:mod:`repro.service.router`) and keeps its slice of the plan cache both in
memory (:class:`~repro.service.plancache.PlanCache`) and on disk
(:class:`~repro.service.journal.ShardJournal`).  Three pieces live here:

* :class:`ShardStore` — a plan cache whose every ``put`` / ``invalidate`` /
  capacity eviction is journaled *before* the in-memory mutation, so a
  SIGKILL at any instant recovers to the exact committed state via
  ``base + journal`` replay (:meth:`ShardStore.recover`).
  :func:`open_store` is the one boot step (replay, or start cold) shared
  by the shard worker and ``repro-serve --workers 0``, which serves from
  one in-process store in the same directory layout as shard 0;
* :class:`ShardServer` + :func:`main` — the worker process:
  ``python -m repro.service.shard --shard-id K --data-dir D`` binds a
  localhost TCP port, replays its journal (per-shard warm start), prints a
  banner the parent parses, and answers newline-delimited JSON requests;
* :class:`ShardClient` — the router side of that protocol.  Every call
  passes the ``shard.rpc`` fault site; transport failures raise
  :class:`ShardUnavailable`, which the router treats as "fail this
  shard's keys over to the surviving ring".

The protocol is deliberately one JSON line per request over a fresh
connection — no framing state to corrupt, no pooled sockets to leak into
a killed worker, and trivially testable with in-process servers.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import socketserver
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.observability import metrics
from repro.observability import names
from repro.resilience import faults
from repro.service.journal import ShardJournal
from repro.service.plancache import PlanCache

__all__ = [
    "ShardError",
    "ShardUnavailable",
    "ShardStore",
    "shard_dir",
    "open_store",
    "ShardServer",
    "ShardClient",
    "serve_shard",
    "main",
]

MAX_LINE_BYTES = 16 * 1024 * 1024


class ShardError(RuntimeError):
    """The shard answered, but with an application-level error."""


class ShardUnavailable(RuntimeError):
    """The shard could not be reached (dead, wedged, or injected fault)."""


# ----------------------------------------------------------------------
# Journaled store
# ----------------------------------------------------------------------
class ShardStore(PlanCache):
    """A :class:`PlanCache` whose every mutation is journaled first.

    Ordering contract: the journal record is durable *before* the
    in-memory mutation happens.  A crash after the append but before the
    cache write replays to the post-mutation state — which is exactly what
    the caller was promised when the call returned (it never did).  A
    crash (or injected ``shard.journal.append`` fault) *during* the append
    leaves the cache untouched and the journal's committed prefix intact.

    Reads (``get`` and the hit path of ``get_or_compute``) are inherited
    unchanged and never touch the journal; a miss in ``get_or_compute``
    stores its result through the journaled :meth:`put`.
    """

    def __init__(
        self,
        directory: str,
        maxsize: int = 4096,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.time,
        max_segment_bytes: int = 1 << 20,
        max_segment_age_s: Optional[float] = None,
        fsync: bool = True,
    ):
        super().__init__(maxsize=maxsize, ttl=ttl, clock=clock)
        self.journal = ShardJournal(
            directory,
            max_segment_bytes=max_segment_bytes,
            max_segment_age_s=max_segment_age_s,
            clock=clock,
            fsync=fsync,
        )
        # Serializes journal-then-cache mutations so the record order is
        # the mutation order; the inherited cache lock guards reads.
        self._mutation_lock = threading.RLock()

    @property
    def cache(self) -> PlanCache:
        """The in-memory view of the store: the store itself."""
        return self

    def keys(self) -> List[str]:
        return [str(entry["key"]) for entry in self.entries()]

    # -- journaled mutations -------------------------------------------
    def put(
        self, key: str, payload: dict, created_at: Optional[float] = None
    ) -> List[str]:
        with self._mutation_lock:
            stamp = self._clock() if created_at is None else float(created_at)
            self.journal.append(
                {"op": "put", "key": key, "created_at": stamp, "payload": payload}
            )
            evicted = super().put(key, payload, created_at=stamp)
            for victim in evicted:
                # Record capacity evictions so replay removes exactly what
                # the live cache removed — recovered state stays
                # bit-identical to live state, never a resurrection.
                self.journal.append({"op": "evict", "key": victim})
            self._maybe_compact()
            return evicted

    def invalidate(self, key: str) -> bool:
        with self._mutation_lock:
            # Journal first: an invalidate for an absent key replays as a
            # no-op, but a removed key missing its record would resurrect.
            self.journal.append({"op": "invalidate", "key": key})
            removed = super().invalidate(key)
            self._maybe_compact()
            return removed

    def clear(self) -> None:
        with self._mutation_lock:
            self.journal.append({"op": "clear"})
            super().clear()

    # -- compaction / recovery -----------------------------------------
    def _maybe_compact(self) -> None:
        if self.journal.should_compact():
            self.compact()

    def compact(self) -> int:
        with self._mutation_lock:
            entries = self.entries()
            self.journal.compact(entries)
            return len(entries)

    def recover(self) -> int:
        """Replay base + journal into the cache; returns entries restored.

        Entries keep their original ``created_at`` (TTLs age across the
        crash) and already-expired entries are dropped.  Replay applies
        records through a plain dict, so capacity evictions recorded in
        the journal — not the LRU's mood during replay — decide what was
        removed.
        """
        with self._mutation_lock:
            result = self.journal.replay()
            restored = 0
            for key, (created_at, payload) in result.entries.items():
                if self._expired(created_at):
                    continue
                super().put(key, payload, created_at=created_at)
                restored += 1
            metrics.inc(names.SHARD_RECOVERED_ENTRIES, restored)
            return restored

    def close(self) -> None:
        self.journal.close()

    def stats(self) -> Dict[str, object]:
        stats = super().stats()
        stats["journal"] = self.journal.stats()
        return stats


def shard_dir(root: str, shard_id: int) -> str:
    """The directory shard ``shard_id`` keeps its journal in under ``root``."""
    return os.path.join(root, f"shard-{shard_id}")


def open_store(
    directory: str, label: str, **options: Any
) -> Tuple[ShardStore, int]:
    """Open a :class:`ShardStore` and replay it: ``(store, recovered)``.

    The one boot step of every store ``repro-serve`` runs, in-process
    (``--workers 0``) or in a ``repro-shard`` worker.  A cold store beats
    no store: an unreadable base (torn by something outside the journal's
    control) degrades to an empty store, reported on stderr under
    ``label``, and its keys recompute.
    """
    store = ShardStore(directory, **options)
    try:
        recovered = store.recover()
    except Exception as exc:  # noqa: BLE001 - boot must not fail on a bad base
        print(f"{label} recovery skipped ({exc})", file=sys.stderr)
        recovered = 0
    return store, recovered


# ----------------------------------------------------------------------
# Worker-process server
# ----------------------------------------------------------------------
class _ShardHandler(socketserver.StreamRequestHandler):
    server: "ShardServer"

    def handle(self) -> None:
        try:
            line = self.rfile.readline(MAX_LINE_BYTES)
            if not line.strip():
                return
            try:
                request = json.loads(line.decode("utf-8"))
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
                response = self.server.dispatch(request)
            except Exception as exc:  # noqa: BLE001 - a shard must answer,
                # never die per-request: malformed input, an injected
                # journal fault, or a full disk all surface as a
                # structured error the router can fail over on.
                response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            self.wfile.write(
                json.dumps(response, separators=(",", ":")).encode("utf-8") + b"\n"
            )
        except OSError:
            pass  # peer vanished mid-exchange; nothing left to answer


class ShardServer(socketserver.ThreadingTCPServer):
    """Newline-JSON RPC server around one :class:`ShardStore`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        store: ShardStore,
        shard_id: int,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        super().__init__((host, port), _ShardHandler)
        self.store = store
        self.shard_id = int(shard_id)

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    def dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True, "shard": self.shard_id}
        if op == "get":
            payload = self.store.get(str(request["key"]))
            return {"ok": True, "hit": payload is not None, "payload": payload}
        if op == "put":
            payload = request["payload"]
            if not isinstance(payload, dict):
                raise ShardError("put payload must be an object")
            created_at = request.get("created_at")
            self.store.put(
                str(request["key"]),
                payload,
                created_at=None if created_at is None else float(created_at),
            )
            return {"ok": True}
        if op == "invalidate":
            removed = self.store.invalidate(str(request["key"]))
            return {"ok": True, "removed": removed}
        if op == "keys":
            return {"ok": True, "keys": self.store.keys()}
        if op == "clear":
            self.store.clear()
            return {"ok": True}
        if op == "compact":
            return {"ok": True, "entries": self.store.compact()}
        if op == "stats":
            stats = self.store.stats()
            stats["shard_id"] = self.shard_id
            stats["pid"] = os.getpid()
            return {"ok": True, "stats": stats}
        raise ShardError(f"unknown shard op {op!r}")


def serve_shard(
    store: ShardStore, shard_id: int, host: str = "127.0.0.1", port: int = 0
) -> ShardServer:
    """Bind a :class:`ShardServer` (``port=0`` picks an ephemeral port)."""
    return ShardServer(store, shard_id, host=host, port=port)


# ----------------------------------------------------------------------
# Router-side client
# ----------------------------------------------------------------------
class ShardClient:
    """One shard's endpoint as seen from the router.

    Every call passes the ``shard.rpc`` fault site and is counted; any
    transport-level failure — connection refused (dead worker), timeout
    (wedged worker), injected fault — raises :class:`ShardUnavailable`,
    the router's signal to fail the key over to the surviving ring.
    """

    def __init__(
        self, host: str, port: int, shard_id: int, timeout: float = 2.0
    ):
        self.host = host
        self.port = int(port)
        self.shard_id = int(shard_id)
        self.timeout = float(timeout)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ShardClient shard={self.shard_id} {self.host}:{self.port}>"

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        metrics.inc(names.SHARD_RPC_CALLS)
        try:
            faults.fire("shard.rpc")  # repro-lint: disable=RS203 -- the very next clause catches InjectedFault and re-raises ShardUnavailable, which ShardedPlanCache absorbs (bench + fail over); routes past that are name-based CHA conflating ShardClient.call with unrelated call() methods
            with socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            ) as conn:
                conn.sendall(
                    json.dumps(request, separators=(",", ":")).encode("utf-8")
                    + b"\n"
                )
                with conn.makefile("rb") as fh:
                    line = fh.readline(MAX_LINE_BYTES)
        except (OSError, faults.InjectedFault) as exc:
            metrics.inc(names.SHARD_RPC_FAILURES)
            raise ShardUnavailable(
                f"shard {self.shard_id} at {self.host}:{self.port} "
                f"unreachable: {exc}"
            ) from exc
        if not line:
            metrics.inc(names.SHARD_RPC_FAILURES)
            raise ShardUnavailable(
                f"shard {self.shard_id} closed the connection without answering"
            )
        try:
            response = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            metrics.inc(names.SHARD_RPC_FAILURES)
            raise ShardUnavailable(
                f"shard {self.shard_id} sent a malformed response"
            ) from exc
        if not isinstance(response, dict) or not response.get("ok", False):
            error = ""
            if isinstance(response, dict):
                error = str(response.get("error", ""))
            raise ShardError(f"shard {self.shard_id} error: {error}")
        return response

    # -- typed helpers --------------------------------------------------
    def ping(self) -> bool:
        try:
            return bool(self.call({"op": "ping"}).get("pong", False))
        except (ShardUnavailable, ShardError):
            # Unreachable or misbehaving both read as "not healthy"; the
            # supervisor counts consecutive failures before acting.
            return False

    def get(self, key: str) -> Optional[dict]:
        response = self.call({"op": "get", "key": key})
        if not response.get("hit"):
            return None
        payload = response.get("payload")
        return payload if isinstance(payload, dict) else None

    def put(
        self, key: str, payload: dict, created_at: Optional[float] = None
    ) -> None:
        self.call(
            {"op": "put", "key": key, "payload": payload, "created_at": created_at}
        )

    def invalidate(self, key: str) -> bool:
        return bool(self.call({"op": "invalidate", "key": key}).get("removed"))

    def stats(self) -> Dict[str, object]:
        stats = self.call({"op": "stats"}).get("stats", {})
        return stats if isinstance(stats, dict) else {}


# ----------------------------------------------------------------------
# Worker-process entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-shard",
        description="One plan-cache shard worker: journaled store behind a "
        "localhost JSON RPC port (spawned by repro-serve --workers N).",
    )
    parser.add_argument("--shard-id", type=int, required=True)
    parser.add_argument(
        "--data-dir", required=True, help="journal + base directory for this shard"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--maxsize", type=int, default=4096)
    parser.add_argument("--ttl", type=float, default=None)
    parser.add_argument(
        "--journal-max-bytes",
        type=int,
        default=1 << 20,
        help="journal segment size that triggers compaction",
    )
    parser.add_argument(
        "--journal-max-age",
        type=float,
        default=None,
        help="journal segment age (seconds) that triggers compaction",
    )
    args = parser.parse_args(argv)

    store, recovered = open_store(
        args.data_dir,
        f"shard {args.shard_id}",
        maxsize=args.maxsize,
        ttl=args.ttl,
        max_segment_bytes=args.journal_max_bytes,
        max_segment_age_s=args.journal_max_age,
    )
    server = serve_shard(store, args.shard_id, host=args.host, port=args.port)

    def _shutdown(signum: int, frame: Any) -> None:
        threading.Thread(target=server.shutdown, daemon=True).start()

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, _shutdown)

    print(
        f"repro-shard {args.shard_id} listening on "
        f"{args.host}:{server.port} pid={os.getpid()} recovered={recovered}",
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
        store.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
