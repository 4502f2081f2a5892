"""Canonical content-hash cache keys for reservation plans.

A reservation plan is a pure function of (distribution, cost model, strategy
+ knobs, discretization / coverage settings): same inputs, same sequence.
That makes the SHA-256 of a *canonical* encoding of those inputs the natural
cache key for the plan cache and the service front end.

Canonicalization rules (``canonical_json``):

* floats are encoded with ``float.hex()`` — exact, locale-free, and stable
  across platforms and Python versions (``repr`` round-trips too, but hex
  makes the no-information-loss property obvious);
* mappings are emitted with sorted keys, so construction order never leaks
  into the key;
* numpy scalars and arrays are reduced to builtin numbers / lists first, so
  ``EmpiricalDistribution`` traces and ``DiscreteDistribution`` supports
  hash by content.

Keys embed a schema version (``KEY_VERSION``): bump it whenever the meaning
of any keyed field changes, and every old journaled entry silently misses
instead of serving a stale plan.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Mapping, Optional

import numpy as np

from repro.core.cost import CostModel

__all__ = [
    "KEY_VERSION",
    "canonical_json",
    "distribution_token",
    "cost_model_token",
    "strategy_token",
    "plan_key",
    "stable_key_hash",
]

#: Bump on any change to the canonical encoding or the keyed fields.
KEY_VERSION = 1


def stable_key_hash(key: str) -> int:
    """Process-independent 64-bit integer derived from a cache key.

    Plan keys are SHA-256 hex digests, so the first 16 hex characters *are*
    64 uniformly distributed bits — reuse them directly.  Non-hex keys
    (tests, ad-hoc callers) fall back to hashing the key's UTF-8 bytes.

    This is the only hash the stripe locks and the consistent-hashing ring
    may use: the builtin ``hash()`` is randomized per process
    (``PYTHONHASHSEED``), which would scatter one key across different
    stripes/shards in different workers.
    """
    try:
        return int(key[:16], 16)
    except ValueError:
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")


def _canonical(obj):
    """Reduce ``obj`` to a JSON-safe structure with exact float encoding."""
    if isinstance(obj, bool) or obj is None:  # bool before int: bool is int
        return obj
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, np.floating):
        return float(obj).hex()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.tolist()]
    if isinstance(obj, Mapping):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for a cache key; "
        "use numbers, strings, arrays, sequences or mappings"
    )


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, exact floats, no spaces)."""
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))


def distribution_token(distribution) -> Dict[str, object]:
    """``{law, params}`` identity of a distribution via its ``params()``."""
    params = distribution.params()
    name = getattr(distribution, "name", None)
    if not name:
        raise TypeError(f"distribution {distribution!r} has no name")
    return {"law": str(name), "params": params}


def cost_model_token(cost_model: CostModel) -> Dict[str, float]:
    return {
        "alpha": cost_model.alpha,
        "beta": cost_model.beta,
        "gamma": cost_model.gamma,
    }


def strategy_token(name: str, knobs: Optional[Mapping] = None) -> Dict[str, object]:
    """Strategy identity: canonical name plus every behavior-affecting knob.

    Knobs must include anything that changes the produced sequence (grid
    sizes, sample counts, seeds, epsilon) — the caller owns completeness
    here, the encoder only guarantees stability.
    """
    return {
        "name": str(name).lower().replace("-", "_"),
        "knobs": dict(knobs or {}),
    }


def plan_key(
    distribution,
    cost_model: CostModel,
    strategy: str,
    knobs: Optional[Mapping] = None,
    coverage: Optional[float] = None,
    extra: Optional[Mapping] = None,
) -> str:
    """SHA-256 content hash identifying one reservation plan.

    ``coverage`` is the quantile the materialized sequence is extended to
    cover (it changes the concrete reservation list, so it is part of the
    identity); ``extra`` is an escape hatch for callers with additional
    discretization knobs.
    """
    payload = {
        "version": KEY_VERSION,
        "distribution": distribution_token(distribution),
        "cost_model": cost_model_token(cost_model),
        "strategy": strategy_token(strategy, knobs),
        "coverage": coverage,
        "extra": dict(extra or {}),
    }
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()
