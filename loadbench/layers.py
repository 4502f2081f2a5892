"""Per-layer metrics from the traced run's spans and the server's stats.

Only spans whose request id belongs to a window request count, so set-up
and probes never leak into the per-layer figures.  Every metric is
returned as ``name -> (value, unit)``; a layer that did no work in the
window reads 0.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Sequence, Tuple

from spans import children_index, covered_ns, duration_ns, median, self_ns

STRATEGIES = (
    "brute_force", "mean_by_mean", "mean_stdev", "mean_doubling",
    "median_by_median", "equal_time_dp", "equal_probability_dp",
)
BACKEND_KINDS = ("serial", "thread", "process", "auto")
TOP_SPANS = ("planner.plan", "planner.evaluate")

Metrics = Dict[str, Tuple[float, str]]


def _us(ns: float) -> float:
    return ns / 1e3


def _ms(ns: float) -> float:
    return ns / 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def journal_totals(health: dict) -> Tuple[int, int]:
    """(appends, compactions) summed over the shards in a ``/healthz`` body."""
    shards = (health.get("cache") or {}).get("shards") or {}
    appends = compactions = 0
    for shard in shards.values():
        journal = shard.get("journal") or {}
        appends += int(journal.get("appends", 0))
        compactions += int(journal.get("compactions", 0))
    return appends, compactions


def per_layer(
    spans: Sequence[dict],
    window: Sequence,  # checks.Outcome
    journal_before: Tuple[int, int],
    journal_after: Tuple[int, int],
    fsync_append_us: float,
    nondeterministic_frac: float,
    throughput_traced: float,
    throughput_untraced: float,
) -> Metrics:
    outcomes = {o.rid: o for o in window}
    index = children_index(spans)
    in_window = [s for s in spans if s["rid"] in outcomes]
    by_name: Dict[str, List[dict]] = defaultdict(list)
    for span in in_window:
        by_name[span["name"]].append(span)
    tops = [s for s in in_window if s["parent"] is None and s["name"] in TOP_SPANS]
    n_requests = len(tops)
    m: Metrics = {}

    # server: what the client waited for beyond the planner call
    residual, latency_ns = [], 0.0
    for top in tops:
        out = outcomes[top["rid"]]
        if out.ok:
            residual.append(out.latency_s * 1e9 - duration_ns(top))
            latency_ns += out.latency_s * 1e9
    m["server.residual_ms_p50"] = (_ms(median(residual)), "ms")
    connections = sum(1 for s in spans if s["name"] == "server.connection")
    m["server.connections_opened"] = (float(connections), "count")

    # planner: self time of every planner span of the request, summed
    planner_self: Dict[str, float] = defaultdict(float)
    for span in in_window:
        if span["name"] in TOP_SPANS:
            planner_self[span["rid"]] += self_ns(span, index.get(span["id"], ()))
    m["planner.self_us_p50"] = (_us(median(list(planner_self.values()))), "us")

    keys = by_name["keys.plan_key"]
    m["keys.plan_key_us_p50"] = (_us(median([duration_ns(s) for s in keys])), "us")
    m["keys.calls_per_request"] = (_ratio(len(keys), n_requests), "count")

    lookups = by_name["cache.lookup"]
    lookup_ns = [
        duration_ns(s) - covered_ns(
            s, [c for c in index.get(s["id"], ()) if c["name"] == "cache.compute"])
        for s in lookups
    ]
    m["cache.lookup_us_p50"] = (_us(median(lookup_ns)), "us")
    hits = sum(1 for s in lookups if s["attrs"].get("cached"))
    m["cache.hit_ratio"] = (_ratio(hits, len(lookups)), "ratio")

    rpcs = by_name["shard.rpc"]
    all_rpcs = [s for s in spans if s["name"] == "shard.rpc"]
    connects = sum(1 for s in spans if s["name"] == "shard.connect")
    m["shard.rpc_us_p50"] = (_us(median([duration_ns(s) for s in rpcs])), "us")
    m["shard.rpcs_per_request"] = (_ratio(len(rpcs), n_requests), "count")
    m["shard.connects_per_rpc"] = (_ratio(connects, len(all_rpcs)), "count")
    m["shard.rpc_failures"] = (
        float(sum(1 for s in all_rpcs if "error" in s["attrs"])), "count")

    writes = sum(
        1 for o in window
        if o.ok and o.request.path == "/plan" and o.payload.get("cached") is False
    )
    m["journal.appends_per_write"] = (
        _ratio(journal_after[0] - journal_before[0], writes), "count")
    m["journal.compactions"] = (float(journal_after[1] - journal_before[1]), "count")
    m["journal.fsync_append_us_p50"] = (fsync_append_us, "us")

    strategy_ns = 0.0
    for name in STRATEGIES:
        calls = by_name[f"strategy.{name}"]
        strategy_ns += sum(duration_ns(s) for s in calls)
        m[f"strategy.{name}.ms_p50"] = (_ms(median([duration_ns(s) for s in calls])), "ms")
    m["strategy.brute_force.nondeterministic_frac"] = (nondeterministic_frac, "ratio")

    grids, kernels = by_name["brute_force.grid"], by_name["brute_force.kernel"]
    m["brute_force.grid_ms_p50"] = (_ms(median([duration_ns(s) for s in grids])), "ms")
    m["brute_force.kernel_ms_p50"] = (_ms(median([duration_ns(s) for s in kernels])), "ms")
    elements = [s["attrs"]["S"] * s["attrs"]["N"] for s in kernels]
    # Computed, not measured: the (S, L) grid and N samples read, the
    # (S, N) cost matrix written, 8 bytes each.
    kernel_bytes = [
        8 * (a["S"] * a["L"] + a["N"] + a["S"] * a["N"])
        for a in (s["attrs"] for s in kernels)
    ]
    m["brute_force.kernel_elements"] = (float(median(elements)), "count")
    m["brute_force.kernel_bytes"] = (float(median(kernel_bytes)), "bytes")

    mc = by_name["mc"]
    mc_ns = sum(duration_ns(s) for s in mc)
    m["mc.ms_p50"] = (_ms(median([duration_ns(s) for s in mc])), "ms")
    m["mc.samples_per_s"] = (
        _ratio(sum(s["attrs"]["n_samples"] for s in mc), mc_ns / 1e9), "1/s")
    kinds = Counter(s["attrs"]["backend"] for s in mc)
    for kind in BACKEND_KINDS:
        m[f"mc.calls.{kind}"] = (float(kinds.get(kind, 0)), "count")

    maps = by_name["pool.map"]
    map_ns = sum(duration_ns(s) for s in maps)
    map_self = sum(self_ns(s, index.get(s["id"], ())) for s in maps)
    m["pool.tasks_per_map"] = (
        _ratio(sum(s["attrs"].get("tasks", 0) for s in maps), len(maps)), "count")
    m["pool.overhead_frac"] = (_ratio(map_self, map_ns), "ratio")

    answered = [o for o in window if o.ok]
    m["ladder.degraded_frac"] = (
        _ratio(sum(1 for o in answered if o.payload.get("degraded")), len(answered)),
        "ratio")
    m["ladder.attempts_per_request"] = (
        _ratio(sum(len(o.payload.get("attempts") or ()) for o in answered),
               len(answered)), "count")

    top_ns = sum(duration_ns(s) for s in tops)
    m["trace.coverage"] = (_ratio(top_ns - sum(planner_self.values()), top_ns), "ratio")
    m["trace.overhead_frac"] = (
        1.0 - _ratio(throughput_traced, throughput_untraced), "ratio")

    # The predicted split, as shares of the time they are predicted to dominate.
    m["split.server_residual_share"] = (_ratio(sum(residual), latency_ns), "ratio")
    m["split.strategy_share"] = (_ratio(strategy_ns, latency_ns), "ratio")
    m["split.mc_share"] = (_ratio(mc_ns, top_ns), "ratio")
    return m


_NO_SHARDS = ("shard.rpcs_per_request", "== 0", lambda v: v == 0)

#: The split each workload's traced run should confirm:
#: workload -> [(metric, predicate as text, predicate)].
PREDICTIONS = {
    "hit_local": [("split.server_residual_share", ">= 0.8", lambda v: v >= 0.8),
                  _NO_SHARDS],
    "mixed_sharded": [("shard.rpcs_per_request", "> 0", lambda v: v > 0)],
    "cold_plan": [("split.strategy_share", ">= 0.8", lambda v: v >= 0.8), _NO_SHARDS],
    "evaluate_mc": [("split.mc_share", ">= 0.8", lambda v: v >= 0.8), _NO_SHARDS],
}


def verdicts(workload: str, metrics: Metrics) -> List[Tuple[str, float, str, bool]]:
    return [
        (name, metrics[name][0], text, bool(test(metrics[name][0])))
        for name, text, test in PREDICTIONS[workload]
    ]
