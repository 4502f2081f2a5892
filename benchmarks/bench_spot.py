"""Benchmark: extension E7 — spot vs reserved economics (calm market)."""

import math

from conftest import run_once

from repro.experiments.spot_market_exp import run_spot_market_experiment


def test_ext_spot(benchmark, bench_config):
    (cell,) = run_once(
        benchmark,
        run_spot_market_experiment,
        volatilities=(0.0,),
        base_rates=(0.1,),
        overheads=(0.05,),
        mean_hours_sweep=(0.5, 8.0, 72.0),
        config=bench_config,
    )
    by_mean = {r.mean_hours: r for r in cell.rows}
    # Crossover: short jobs on raw spot, long jobs must checkpoint or reserve.
    assert by_mean[0.5].winner == "spot"
    assert by_mean[72.0].winner != "spot"
    # Restart-from-scratch blows up exponentially with job length.
    assert (
        math.isinf(by_mean[72.0].spot_restart_cost)
        or by_mean[72.0].spot_restart_cost > 100 * by_mean[72.0].reserved_cost
    )
    # Checkpointed spot stays proportional to the work.
    assert by_mean[72.0].spot_checkpointed_cost < 10 * 72.0
