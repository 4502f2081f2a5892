"""Correctness checks for every response, and the in-process re-derivation.

A response is correct when all of these hold:

* it is a 200 with a JSON object body;
* it carries the ``key`` that ``repro.service.keys.plan_key`` gives for
  its request;
* on ``/plan``, its reservations strictly increase and reach the
  coverage quantile;
* on a hit, it repeats the plan the server gave for that key earlier
  (set-up, or the window on ``cold_plan``) bit for bit;
* on ``/evaluate``, its cost is finite and
  ``normalized_cost >= 1 - 4 * std_error / omniscient_cost``.

After the window, :func:`rederive` plans a seeded sample of the served
requests again through the public :class:`PlannerService` API and demands
the same key and reservations.  BRUTE-FORCE without a ``seed`` knob draws
fresh entropy on every call, so its plans are only checked for validity
and the share that differ is reported instead.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from workloads import Request

#: Payload fields that legitimately differ between two answers for one key.
_VOLATILE = ("cached", "shard")
MAX_REPORTED_FAILURES = 10


@dataclass
class Outcome:
    """One request as the client saw it."""

    request: Request
    rid: str  # "<client port>:<sequence number on that connection>"
    latency_s: float
    status: int
    payload: Optional[dict]
    ok: bool = True
    reason: str = ""


def _stable(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in _VOLATILE}


def valid_reservations(values, cover: float) -> Optional[str]:
    """Reason the reservation list is invalid, or ``None``."""
    if not isinstance(values, list) or not values:
        return "no reservations"
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return "non-finite reservation"
    if any(b <= a for a, b in zip(values, values[1:])):
        return "reservations do not strictly increase"
    if values[-1] < cover:
        return f"last reservation {values[-1]!r} below coverage quantile {cover!r}"
    return None


class Checker:
    """Validates outcomes and keeps the reference plan of every key."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.references: Dict[str, dict] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def reset_references(self) -> None:
        with self._lock:
            self.references.clear()

    def check(self, out: Outcome, record: bool = False) -> bool:
        """Validate ``out`` in place; ``record`` keeps it as the key's reference."""
        reason = self._reason(out) if out.ok else out.reason
        with self._lock:
            self.attempted += 1
            if reason is None and record:
                self.references[out.request.key] = _stable(out.payload)
            if reason is not None:
                self.failures.append(f"{out.rid} {out.request.path}: {reason}")
        out.ok = reason is None
        out.reason = reason or ""
        return out.ok

    def _reason(self, out: Outcome) -> Optional[str]:
        req, payload = out.request, out.payload
        if out.status != 200:
            return f"HTTP {out.status}"
        if not isinstance(payload, dict):
            return "body is not a JSON object"
        if payload.get("key") != req.key:
            return f"key {payload.get('key')!r} != plan_key {req.key!r}"
        if req.path == "/evaluate":
            return _evaluation_reason(payload.get("evaluation"))
        plan = payload.get("plan")
        if not isinstance(plan, dict):
            return "no plan"
        reason = valid_reservations(plan.get("reservations"), req.cover)
        if reason is not None or req.kind != "hit":
            return reason
        with self._lock:
            reference = self.references.get(req.key)
        if reference is None:
            return "hit on a key with no earlier plan"
        if payload.get("cached") is True:
            if _stable(payload) != reference:
                return "hit differs from the earlier plan"
        elif req.strategy != "brute_force":
            # Evicted and recomputed: a deterministic strategy must agree.
            if plan.get("reservations") != reference["plan"]["reservations"]:
                return "recomputed plan differs from the earlier plan"
        return None


def _evaluation_reason(evaluation) -> Optional[str]:
    if not isinstance(evaluation, dict):
        return "no evaluation"
    cost = evaluation.get("expected_cost")
    omniscient = evaluation.get("omniscient_cost")
    normalized = evaluation.get("normalized_cost")
    if not all(isinstance(v, (int, float)) for v in (cost, omniscient, normalized)):
        return "evaluation fields missing"
    if not (math.isfinite(cost) and math.isfinite(normalized) and omniscient > 0):
        return "non-finite evaluation"
    std_error = evaluation.get("std_error") or 0.0
    floor = 1.0 - 4.0 * std_error / omniscient
    if normalized < floor:
        return f"normalized_cost {normalized!r} < 1 - 4 se/E^o = {floor!r}"
    return None


@dataclass
class Rederivation:
    checked: int = 0
    brute_force: int = 0
    brute_force_differ: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def nondeterministic_frac(self) -> float:
        return self.brute_force_differ / self.brute_force if self.brute_force else 0.0


def rederive(
    outcomes: Sequence[Outcome],
    seed: int,
    n_plans: int = 8,
    n_brute_force: int = 4,
) -> Rederivation:
    """Re-plan a seeded sample of served plans in-process and compare."""
    from repro.service.planner import PlannerService

    served: Dict[str, Tuple[Request, list]] = {}
    for out in outcomes:
        if out.ok and out.request.path == "/plan" and out.payload is not None:
            served.setdefault(out.request.key, (out.request, out.payload["plan"]["reservations"]))
    keys = sorted(served)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 9]))
    order = [keys[int(i)] for i in rng.permutation(len(keys))]
    bf = [k for k in order if served[k][0].strategy == "brute_force"][:n_brute_force]
    other = [k for k in order if served[k][0].strategy != "brute_force"][:n_plans]

    result = Rederivation()
    service = PlannerService()
    for key in other + bf:
        req, reservations = served[key]
        response = service.plan(req.plan_body())
        result.checked += 1
        mine = response["plan"]["reservations"]
        if response["key"] != req.key:
            result.failures.append(f"rederive {key[:12]}: key differs")
            continue
        if req.strategy == "brute_force":
            result.brute_force += 1
            reason = valid_reservations(mine, req.cover)
            if reason is not None:
                result.failures.append(f"rederive {key[:12]}: {reason}")
            elif mine != reservations:
                result.brute_force_differ += 1
        elif mine != reservations:
            result.failures.append(f"rederive {key[:12]}: reservations differ")
    return result
