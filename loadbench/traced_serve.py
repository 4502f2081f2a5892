"""``repro-serve`` with every layer's public entry points timed as spans.

Usage (the benchmark's traced run starts it this way)::

    LOADBENCH_SPANS=spans.jsonl PYTHONPATH=src \\
        python loadbench/traced_serve.py --port 0 [repro-serve flags...]

The arguments go to :func:`repro.service.server.main` unchanged.  Before
that, this launcher replaces a handful of functions and methods with
wrappers from :class:`spans.Recorder`; nothing under ``src/`` changes.
Spans stay in memory and are written to ``$LOADBENCH_SPANS`` when the
server returns from its graceful shutdown.

Span names (layer in brackets):

* ``server.connection`` [server] — an event per accepted connection;
* ``planner.plan`` / ``planner.evaluate`` [planner] — request entry points;
  a top-level call numbers the request ``<client port>:<n>``, the same id
  the load generator gives the n-th POST on that connection;
* ``keys.plan_key`` [keys];
* ``cache.lookup`` [plancache / router] — ``get_or_compute`` or
  ``get_or_compute_routed``; its ``cache.compute`` child is the factory;
* ``shard.rpc`` [shard] — ``ShardClient.call``, with ``shard.connect``
  children for each ``socket.create_connection``;
* ``strategy.<name>`` [strategies] — each strategy's ``sequence``;
* ``brute_force.grid`` / ``brute_force.kernel`` [core.recurrence /
  simulation.batch] — ``ReservationBatch.from_grid`` and the scan's
  ``batch_cost_matrix`` / ``batch_expected_costs``;
* ``mc`` [simulation.monte_carlo] — ``monte_carlo_expected_cost``;
* ``pool.map`` / ``pool.task`` [service.pool] — backend ``map`` and each
  task it runs (thread and serial backends).
"""

from __future__ import annotations

import atexit
import os
import socket
import sys

from spans import Recorder

RECORDER = Recorder()


def _install() -> None:
    import repro.service.planner as planner_mod
    import repro.strategies.brute_force as brute_force_mod
    from repro.service import pool
    from repro.service.plancache import PlanCache
    from repro.service.router import ShardedPlanCache
    from repro.service.server import PlanServer
    from repro.service.shard import ShardClient
    from repro.simulation.batch import ReservationBatch
    from repro.strategies import registry

    rec = RECORDER

    # server: one event per accepted connection, on the connection's thread.
    finish_request = PlanServer.finish_request

    def traced_finish_request(self, request, client_address):
        rec.set_connection(int(client_address[1]))
        rec.event("server.connection")
        return finish_request(self, request, client_address)

    PlanServer.finish_request = traced_finish_request

    # planner + keys
    PlannerService = planner_mod.PlannerService
    PlannerService.plan = rec.wrap("planner.plan", PlannerService.plan, top=True)
    PlannerService.evaluate = rec.wrap(
        "planner.evaluate", PlannerService.evaluate, top=True
    )
    planner_mod.plan_key = rec.wrap("keys.plan_key", planner_mod.plan_key)

    # plancache / router: the lookup span minus its compute child.
    def cache_attrs(args, kwargs, result, error):
        return {} if result is None else {"cached": bool(result[1])}

    def traced_lookup(method):
        def lookup(self, key, factory):
            return method(self, key, rec.wrap("cache.compute", factory))

        return rec.wrap("cache.lookup", lookup, attrs=cache_attrs)

    PlanCache.get_or_compute = traced_lookup(PlanCache.get_or_compute)
    ShardedPlanCache.get_or_compute_routed = traced_lookup(
        ShardedPlanCache.get_or_compute_routed
    )

    # shard RPC and its connections
    ShardClient.call = rec.wrap(
        "shard.rpc", ShardClient.call,
        attrs=lambda a, k, r, e: {"op": a[1].get("op")},
    )
    socket.create_connection = rec.wrap("shard.connect", socket.create_connection)

    # strategies (the DP classes name their instances, not the class)
    for name, cls in (
        ("brute_force", registry.BruteForce),
        ("mean_by_mean", registry.MeanByMean),
        ("mean_stdev", registry.MeanStdev),
        ("mean_doubling", registry.MeanDoubling),
        ("median_by_median", registry.MedianByMedian),
        ("equal_time_dp", registry.EqualTimeDP),
        ("equal_probability_dp", registry.EqualProbabilityDP),
    ):
        cls.sequence = rec.wrap(f"strategy.{name}", cls.sequence)

    # BRUTE-FORCE grid and costing kernels
    from_grid = ReservationBatch.__dict__["from_grid"].__func__
    ReservationBatch.from_grid = classmethod(rec.wrap("brute_force.grid", from_grid))

    def kernel_attrs(args, kwargs, result, error):
        batch, times = args[0], args[1]
        s, width = batch.matrix.shape
        return {"S": int(s), "L": int(width), "N": int(times.size)}

    for name in ("batch_cost_matrix", "batch_expected_costs"):
        setattr(brute_force_mod, name, rec.wrap(
            "brute_force.kernel", getattr(brute_force_mod, name),
            attrs=lambda a, k, r, e, kernel=name: {**kernel_attrs(a, k, r, e),
                                                   "kernel": kernel},
        ))

    # Monte-Carlo evaluation, as the planner calls it
    def mc_attrs(args, kwargs, result, error):
        backend = kwargs.get("backend")
        return {
            "n_samples": int(kwargs.get("n_samples", 1000)),
            "backend": getattr(backend, "kind", "serial"),
        }

    planner_mod.monte_carlo_expected_cost = rec.wrap(
        "mc", planner_mod.monte_carlo_expected_cost, attrs=mc_attrs
    )

    # execution backends: map, and each task re-parented under it
    def traced_map(method, bind_tasks):
        def map_(self, fn, items, *args, **kwargs):
            if bind_tasks:
                fn = rec.bind("pool.task", fn)
            return method(self, fn, items, *args, **kwargs)

        return rec.wrap(
            "pool.map", map_,
            attrs=lambda a, k, r, e: {"kind": a[0].kind,
                                      "tasks": 0 if r is None else len(r)},
        )

    # Process workers unpickle the task function by name, so their tasks
    # cannot carry a span wrapper; only the map itself is timed there.
    for cls, bind_tasks in ((pool.SerialBackend, True), (pool.ThreadBackend, True),
                            (pool.ProcessBackend, False)):
        cls.map = traced_map(cls.map, bind_tasks)


def _dump() -> None:
    path = os.environ.get("LOADBENCH_SPANS")
    if path:
        RECORDER.dump(path)


def main(argv=None) -> int:
    _install()
    from repro.service.server import main as serve_main

    atexit.register(_dump)
    return serve_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
