"""Micro-benchmarks of the library's hot paths.

These time the primitives the experiment harness leans on: the vectorized
Monte-Carlo cost engine, the O(n^2) Theorem 5 DP, Eq. (11) sequence
generation, and the Theorem 1 series evaluator.  They guard against
accidental de-vectorization (the hpc-parallel guides' main failure mode).

A full run also writes its timings to ``BENCH_core.json`` at the repo root
(override with the ``BENCH_CORE_JSON`` env var), so successive PRs leave a
comparable trajectory of the core numbers.
"""

import json
import os
import time

import pytest

import numpy as np

from repro import (
    CostModel,
    Exponential,
    LogNormal,
    ReservationSequence,
    expected_cost_series,
    generate_optimal_sequence,
    solve_discrete_dp,
)
from repro.core.sequence import constant_extender
from repro.discretization import equal_probability
from repro.simulation.batch import ReservationBatch, batch_expected_costs
from repro.simulation.monte_carlo import costs_for_times, kernel_costs_and_indices

_TIMINGS = {}


def _record(name, benchmark):
    """Capture a benchmark's summary stats for the BENCH_core.json dump."""
    meta = getattr(benchmark, "stats", None)
    if meta is None:  # --benchmark-disable: nothing was measured
        return
    stats = meta.stats
    _TIMINGS[name] = {
        "mean_s": stats.mean,
        "stddev_s": stats.stddev,
        "min_s": stats.min,
        "max_s": stats.max,
        "rounds": stats.rounds,
    }


@pytest.fixture(scope="module", autouse=True)
def _dump_timings():
    """After the module's benchmarks finish, persist the collected timings."""
    yield
    if not _TIMINGS:
        return
    default = os.path.join(os.path.dirname(__file__), "..", "BENCH_core.json")
    path = os.environ.get("BENCH_CORE_JSON", default)
    payload = {"generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
               "benchmarks": _TIMINGS}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def test_monte_carlo_engine_100k(benchmark):
    """Vectorized costing of 100k samples against a 30-step ladder."""
    d = LogNormal(3.0, 0.5)
    cm = CostModel.reservation_only()
    times = d.rvs(100_000, seed=0)
    seq = ReservationSequence([d.mean()], extend=constant_extender(d.mean()))
    seq.ensure_covers(float(times.max()))

    out = benchmark(costs_for_times, seq, times, cm)
    assert out.shape == times.shape
    assert float(out.min()) > 0
    _record("monte_carlo_engine_100k", benchmark)


def test_discrete_dp_n1000(benchmark):
    """Theorem 5 DP at the paper's n=1000."""
    d = LogNormal(3.0, 0.5)
    cm = CostModel.reservation_only()
    discrete = equal_probability(d, 1000, 1e-7)

    result = benchmark(solve_discrete_dp, discrete, cm)
    assert result.reservations[-1] == discrete.values[-1]
    _record("discrete_dp_n1000", benchmark)


def test_eq11_sequence_generation(benchmark):
    """Eq. (11) sequence materialization down to survival 1e-12."""
    d = LogNormal(3.0, 0.5)
    cm = CostModel.reservation_only()

    values = benchmark(generate_optimal_sequence, 30.64, d, cm)
    assert len(values) >= 3
    _record("eq11_sequence_generation", benchmark)


def test_series_evaluator(benchmark):
    """Theorem 1 series on a mean-spaced ladder (Exponential)."""
    d = Exponential(1.0)
    cm = CostModel(alpha=1.0, beta=1.0, gamma=0.5)

    def run():
        seq = ReservationSequence([1.0], extend=constant_extender(1.0))
        return expected_cost_series(seq, d, cm)

    cost = benchmark(run)
    assert cost > 0
    _record("series_evaluator", benchmark)


def test_sampling_inverse_transform_1m(benchmark):
    """Inverse-transform sampling throughput (1M variates)."""
    d = LogNormal(3.0, 0.5)
    out = benchmark(d.rvs, 1_000_000, 42)
    assert out.shape == (1_000_000,)
    _record("sampling_inverse_transform_1m", benchmark)


def _median_time(fn, repeats):
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return float(np.median(samples))


def test_mc_batch_grid():
    """Batched moments kernel vs a per-sequence loop over a t1 grid.

    This is the brute-force scan's workload: S grid candidates costed
    against one shared sample block.  The batched kernel replaces S python
    round-trips (searchsorted + gather + mean each) with one (S, L) pass,
    and must keep a >=10x single-core win — the guard CI enforces on
    ``BENCH_core.json``.  Timed by hand: pytest-benchmark can't express a
    two-path ratio in one test.
    """
    d = LogNormal(3.0, 0.5)
    cm = CostModel.reservation_only()
    times = d.rvs(4_000, seed=3)
    cover = float(times.max())
    t1s = np.linspace(d.quantile(0.05), d.quantile(0.95), 400)
    batch = ReservationBatch.from_grid(t1s, d, cm, cover=cover)
    rows = [batch.row_values(s) for s in range(batch.n_sequences)
            if batch.feasible[s]]

    def looped():
        return [
            float(kernel_costs_and_indices(values, times, cm)[0].mean())
            for values in rows
        ]

    def batched():
        return batch_expected_costs(batch, times, cm)

    # Same numbers before timing them: means agree to kernel regrouping ulps.
    summary = batched()
    loop_means = np.array(looped())
    np.testing.assert_allclose(
        summary.mean_cost[batch.feasible], loop_means, rtol=1e-10
    )

    loop_s = _median_time(looped, repeats=3)
    batch_s = _median_time(batched, repeats=5)
    speedup = loop_s / batch_s if batch_s > 0 else float("inf")
    _TIMINGS["mc_batch_grid"] = {
        "n_sequences": int(batch.n_sequences),
        "n_samples": int(times.size),
        "loop_median_s": loop_s,
        "batch_median_s": batch_s,
        "speedup": speedup,
    }
    assert speedup >= 10.0, (
        f"batched grid costing only {speedup:.1f}x over the python loop"
    )


def test_spot_eval_batch():
    """Vectorized spot Monte-Carlo vs a per-path pure-Python simulator.

    Same semantics on both sides — checkpoint segments, single-uniform
    inverse-transform interruption draws, busy time billed at the constant
    price — so both must sit on the closed form; the vectorized active-set
    stepping must keep a >=5x win (guarded in CI off ``BENCH_core.json``).
    Timed by hand like ``test_mc_batch_grid``: the ratio needs both paths.
    """
    import math

    from repro.platforms.spot import (
        ConstantHazard,
        ConstantPrice,
        SpotScenario,
        expected_spot_time_checkpointed,
    )
    from repro.platforms.spot.evaluator import spot_monte_carlo_cost

    job, rate, price = 2.0, 0.8, 0.3
    tau, overhead, dt = 0.5, 0.05, 0.05
    n_paths = 2048
    scenario = SpotScenario(
        price=ConstantPrice(price),
        hazard=ConstantHazard(rate),
        checkpoint_overhead=overhead,
        step=dt,
    )
    # ceil(job/tau) segments: full ones tau+overhead, final one the leftover.
    m = math.ceil(job / tau)
    segments = [tau + overhead] * (m - 1) + [job - (m - 1) * tau]

    def vectorized():
        return spot_monte_carlo_cost(
            job,
            scenario,
            recovery="checkpoint",
            checkpoint_interval=tau,
            n_paths=n_paths,
            seed=123,
        )

    def looped():
        rng = np.random.default_rng(123)
        total = 0.0
        for _ in range(n_paths):
            busy = 0.0
            for seg_len in segments:
                rem = seg_len
                while True:
                    delta = min(dt, rem)
                    u = rng.random()
                    if u < -math.expm1(-rate * delta):
                        busy += -math.log1p(-u) / rate
                        rem = seg_len
                    else:
                        busy += delta
                        rem -= delta
                        if rem <= 0.0:
                            break
            total += price * busy
        return total / n_paths

    # Same numbers before timing: both estimators sit on the closed form.
    closed = price * expected_spot_time_checkpointed(job, rate, tau, overhead)
    vec = vectorized()
    loop_mean = looped()
    band = 8.0 * vec.std_error
    assert abs(vec.mean_cost - closed) <= band, (vec.mean_cost, closed)
    assert abs(loop_mean - closed) <= band, (loop_mean, closed)

    loop_s = _median_time(looped, repeats=3)
    vec_s = _median_time(vectorized, repeats=5)
    speedup = loop_s / vec_s if vec_s > 0 else float("inf")
    _TIMINGS["spot_eval_batch"] = {
        "n_paths": n_paths,
        "loop_median_s": loop_s,
        "vectorized_median_s": vec_s,
        "speedup": speedup,
    }
    assert speedup >= 5.0, (
        f"vectorized spot evaluator only {speedup:.1f}x over the per-path loop"
    )
