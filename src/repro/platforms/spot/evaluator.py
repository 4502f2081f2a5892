"""Interruption-aware spot cost evaluation.

Two evaluation paths, built to agree in their common regime:

* :func:`spot_monte_carlo_cost` — vectorized Monte-Carlo: each path draws a
  job length, steps the price process on a wall-clock grid, draws
  interruptions from the (possibly price-dependent) hazard, and bills the
  busy time against the *realized* price path.  Chunked per
  ``simulation.batch`` conventions and backend-invariant: for a fixed
  ``(seed, jobs)`` the result is bit-identical on serial, thread and process
  backends, because every backend runs the same module-level task
  on the same ``SeedSequence``-spawned streams.

* :func:`expected_spot_busy_time` / :func:`expected_spot_cost` — the
  closed-form/quadrature path for the memoryless constant-price case,
  marginalizing the scalar closed forms over the job-length law.  For a
  scalar job it *is* :func:`expected_spot_time_restart` (the renewal
  argument gives ``E[T] = (e^{lam t} - 1)/lam`` busy hours until the first
  uninterrupted window of length ``t``) / :func:`expected_spot_time_checkpointed`
  (each checkpoint segment is an independent restart problem).
  :func:`optimal_checkpoint_interval` is the numeric Young/Daly optimum.

The Monte-Carlo stepping is exact, not Euler-biased, for the constant-hazard
case: within a step of effective length ``delta`` the single uniform ``u``
both decides interruption (``u < 1 - e^{-h delta}``) and, via the shared
inverse transform ``-log1p(-u)/h``, locates the interruption instant as an
exact truncated exponential.  Only the work done before the interruption is
billed; the remainder of the wall-clock step is unpaid downtime (the price
grid stays global).  Consequently the busy time of each checkpoint segment
has exactly the renewal-equation law behind ``(e^{lam L} - 1)/lam``, and the
z=4 differential contract against the closed forms is a statistics check,
not a discretization-tolerance check.

Checkpoint semantics match the (fixed) closed form: ``m = ceil(x/tau)``
segments, the first ``m - 1`` of length ``tau + overhead`` (checkpoint
written inside the protected window), the final one of true length
``x - (m-1) tau`` with no trailing checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union

import numpy as np

from repro.observability import metrics
from repro.utils.rng import SeedLike, as_generator, spawn_seed_sequences

__all__ = [
    "SpotScenario",
    "SpotCostResult",
    "spot_monte_carlo_cost",
    "expected_spot_busy_time",
    "expected_spot_cost",
    "expected_spot_time_restart",
    "expected_spot_time_checkpointed",
    "optimal_checkpoint_interval",
]

#: Survival mass below which the segment series / window sweep terminates.
_SERIES_TAIL = 1e-12


@dataclass(frozen=True)
class SpotScenario:
    """A spot market: price process, interruption hazard, and the job-side
    checkpoint overhead, plus the Monte-Carlo wall-clock grid.

    ``step`` only controls the *price* resolution (and the hazard's coupling
    to it): interruption draws within a step are exact, so coarse grids bias
    nothing in the constant-price limit.
    """

    price: object  # PriceProcess
    hazard: object  # HazardModel
    checkpoint_overhead: float = 0.05
    step: float = 0.05
    max_steps: int = 200_000

    def __post_init__(self) -> None:
        if self.checkpoint_overhead < 0:
            raise ValueError(
                f"checkpoint overhead must be nonnegative, got "
                f"{self.checkpoint_overhead}"
            )
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.max_steps <= 0:
            raise ValueError(f"max_steps must be positive, got {self.max_steps}")

    def certainty_equivalent(self) -> Tuple[float, float]:
        """``(price, rate)`` a constant-price planner should use: the
        stationary mean price and the hazard evaluated there."""
        price = float(self.price.stationary_mean())
        return price, float(self.hazard.rate_at_price(price))


@dataclass(frozen=True)
class SpotCostResult:
    """Monte-Carlo estimate of the spot monetary cost of a job."""

    mean_cost: float
    std_error: float
    mean_busy_time: float
    mean_interruptions: float
    n_paths: int

    def confidence_interval(self, z: float = 4.0) -> Tuple[float, float]:
        half = z * self.std_error
        return self.mean_cost - half, self.mean_cost + half


def _segment_lengths(
    lengths: np.ndarray,
    seg_index: np.ndarray,
    seg_count: np.ndarray,
    tau: float,
    overhead: float,
) -> np.ndarray:
    """Work+overhead length of 0-based segment ``seg_index`` of each job."""
    if math.isinf(tau):
        return lengths.copy()
    return np.where(
        seg_index < seg_count - 1,
        tau + overhead,
        lengths - (seg_count - 1) * tau,
    )


def _simulate_spot_paths(
    lengths: np.ndarray,
    scenario: SpotScenario,
    tau: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Step every path to completion; returns (cost, busy, n_int, n_steps).

    The active set is kept compressed (finished paths drop out), so the
    wall-clock loop length is the slowest path, not the sum of paths.
    """
    price_model, hazard = scenario.price, scenario.hazard
    overhead, dt = scenario.checkpoint_overhead, scenario.step
    n = lengths.size
    cost = np.zeros(n)
    busy = np.zeros(n)
    if math.isinf(tau):
        seg_count = np.ones(n, dtype=np.int64)
    else:
        seg_count = np.maximum(
            np.ceil(lengths / tau - 1e-12).astype(np.int64), 1
        )
    idx = np.nonzero(lengths > 0.0)[0]
    x_a = lengths[idx]
    m_a = seg_count[idx]
    k_a = np.zeros(idx.size, dtype=np.int64)
    cur = _segment_lengths(x_a, k_a, m_a, tau, overhead)
    rem = cur.copy()
    p_a = np.asarray(price_model.initial_prices(idx.size, rng), dtype=float)
    cost_a = np.zeros(idx.size)
    busy_a = np.zeros(idx.size)
    t = 0.0
    interruptions = 0
    steps = 0
    for _ in range(scenario.max_steps):
        if idx.size == 0:
            break
        steps += idx.size
        h = np.asarray(hazard.rate(p_a), dtype=float)
        delta = np.minimum(dt, rem)
        u = rng.random(idx.size)
        hit = u < -np.expm1(-h * delta)
        if hit.any():
            # Exact conditional interruption instant: the same uniform,
            # inverse-transformed, is a truncated Exp(h) on [0, delta).
            with np.errstate(divide="ignore", invalid="ignore"):
                t_int = -np.log1p(-u) / h
            paid = np.where(hit, t_int, delta)
            interruptions += int(np.count_nonzero(hit))
        else:
            paid = delta
        busy_a += paid
        cost_a += p_a * paid
        rem = np.where(hit, cur, rem - delta)
        completed = ~hit & (rem <= 0.0)
        finished = np.zeros(idx.size, dtype=bool)
        if completed.any():
            k_a[completed] += 1
            finished = completed & (k_a >= m_a)
            load = completed & ~finished
            if load.any():
                cur[load] = _segment_lengths(
                    x_a[load], k_a[load], m_a[load], tau, overhead
                )
                rem[load] = cur[load]
        if finished.any():
            done = np.nonzero(finished)[0]
            cost[idx[done]] = cost_a[done]
            busy[idx[done]] = busy_a[done]
            keep = ~finished
            idx = idx[keep]
            x_a, m_a, k_a = x_a[keep], m_a[keep], k_a[keep]
            cur, rem = cur[keep], rem[keep]
            p_a, cost_a, busy_a = p_a[keep], cost_a[keep], busy_a[keep]
        if idx.size:
            p_a = np.asarray(price_model.step(p_a, t, dt, rng), dtype=float)
        t += dt
    if idx.size:
        raise RuntimeError(
            f"{idx.size} spot path(s) unfinished after {scenario.max_steps} "
            f"steps ({scenario.max_steps * dt:g}h of wall clock); raise "
            f"max_steps, checkpoint more often, or lower the hazard"
        )
    return cost, busy, interruptions, steps


def _simulate_spot_chunk(
    args: Tuple[Any, ...]
) -> Tuple[float, float, float, int, int, int]:
    """One pool task: draw ``n`` paths on a spawned stream, return moments.

    Module-level so the process backend can pickle it; the partials are
    ``(sum_cost, sum_cost_sq, sum_busy, n_interruptions, n_steps, n)``.
    """
    job, scenario, tau, n, child_seed = args
    rng = as_generator(child_seed)
    if hasattr(job, "rvs"):
        lengths = np.asarray(job.rvs(n, seed=rng), dtype=float)
    else:
        lengths = np.full(n, float(job))
    cost, busy, interruptions, steps = _simulate_spot_paths(
        lengths, scenario, tau, rng
    )
    return (
        float(cost.sum()),
        float(np.dot(cost, cost)),
        float(busy.sum()),
        interruptions,
        steps,
        n,
    )


def spot_monte_carlo_cost(
    job: Union[float, object],
    scenario: SpotScenario,
    recovery: str = "restart",
    checkpoint_interval: Optional[float] = None,
    n_paths: int = 2000,
    seed: SeedLike = None,
    backend: Any = None,
    jobs: int = 1,
) -> SpotCostResult:
    """Monte-Carlo spot cost of ``job`` (a length or a Distribution).

    ``recovery="restart"`` loses all work at each interruption;
    ``recovery="checkpoint"`` keeps completed ``checkpoint_interval``
    segments (overhead per the scenario) and replays only the active one.

    **Backend-invariant:** paths are split into ``max(jobs, 1)`` chunks,
    each a ``SeedSequence``-spawned stream run by the same module-level
    task — so for fixed ``(seed, jobs)`` the estimate is bit-identical on
    every backend, and ``jobs=1`` is one chunk regardless of backend.
    """
    if n_paths <= 0:
        raise ValueError(f"n_paths must be positive, got {n_paths}")
    if recovery == "restart":
        if checkpoint_interval is not None:
            raise ValueError("checkpoint_interval requires recovery='checkpoint'")
        tau = math.inf
    elif recovery == "checkpoint":
        if checkpoint_interval is None or checkpoint_interval <= 0:
            raise ValueError(
                "recovery='checkpoint' needs a positive checkpoint_interval, "
                f"got {checkpoint_interval}"
            )
        tau = float(checkpoint_interval)
    else:
        raise ValueError(f"unknown recovery mode {recovery!r}")

    metrics.inc("spot.eval_calls")
    metrics.inc("spot.paths", n_paths)

    from repro.service.pool import chunk_sizes, resolve_backend

    sizes = [s for s in chunk_sizes(n_paths, max(int(jobs), 1)) if s > 0]
    children = spawn_seed_sequences(seed, len(sizes))
    tasks = [
        (job, scenario, tau, n, child) for n, child in zip(sizes, children)
    ]
    metrics.inc("spot.tasks", len(tasks))

    kind, pool, _, owned = resolve_backend(backend, jobs)
    metrics.inc(f"spot.backend.{kind}")
    with metrics.timer("spot.eval"):
        try:
            if pool is None:
                partials = [_simulate_spot_chunk(task) for task in tasks]
            else:
                partials = pool.map(_simulate_spot_chunk, tasks)
        finally:
            if owned and pool is not None:
                pool.close()

    sum_cost = sum(p[0] for p in partials)
    sum_sq = sum(p[1] for p in partials)
    sum_busy = sum(p[2] for p in partials)
    interruptions = sum(p[3] for p in partials)
    steps = sum(p[4] for p in partials)
    metrics.inc("spot.steps", steps)
    metrics.inc("spot.interruptions", interruptions)

    mean = sum_cost / n_paths
    if n_paths > 1:
        var = max(sum_sq - n_paths * mean * mean, 0.0) / (n_paths - 1)
        std_error = math.sqrt(var / n_paths)
    else:
        std_error = math.inf
    return SpotCostResult(
        mean_cost=mean,
        std_error=std_error,
        mean_busy_time=sum_busy / n_paths,
        mean_interruptions=interruptions / n_paths,
        n_paths=n_paths,
    )


# ----------------------------------------------------------------------
# Closed-form / quadrature path (constant price, memoryless hazard)
# ----------------------------------------------------------------------


def expected_spot_time_restart(job_length: float, interruption_rate: float) -> float:
    """``E[T] = (e^{lam t} - 1)/lam`` (limit ``t`` as ``lam -> 0``)."""
    if job_length < 0:
        raise ValueError(f"job length must be nonnegative, got {job_length}")
    if interruption_rate < 0:
        raise ValueError(f"rate must be nonnegative, got {interruption_rate}")
    if interruption_rate == 0.0:
        return job_length
    x = interruption_rate * job_length
    if x > 700.0:
        return math.inf  # astronomically unlikely to ever finish
    if x < 1e-8:
        # expm1(x)/lam loses all precision when lam is subnormal (the product
        # lam*t rounds to a few ulp, and dividing by lam amplifies that to
        # O(1) error).  Use the series t*(1 + x/2 + ...) instead.
        return job_length * (1.0 + 0.5 * x)
    return math.expm1(x) / interruption_rate


def expected_spot_time_checkpointed(
    job_length: float,
    interruption_rate: float,
    checkpoint_interval: float,
    checkpoint_overhead: float = 0.0,
) -> float:
    """Expected spot busy time with checkpoints every ``checkpoint_interval``."""
    if checkpoint_interval <= 0:
        raise ValueError(
            f"checkpoint interval must be positive, got {checkpoint_interval}"
        )
    if checkpoint_overhead < 0:
        raise ValueError(
            f"checkpoint overhead must be nonnegative, got {checkpoint_overhead}"
        )
    if job_length <= 0:
        return 0.0
    segments = math.ceil(job_length / checkpoint_interval - 1e-12)
    full_segments = segments - 1
    per_full_segment = expected_spot_time_restart(
        checkpoint_interval + checkpoint_overhead, interruption_rate
    )
    # The final segment runs only the leftover work and writes no checkpoint
    # — the job completes when it does.  Pricing it at its true length makes
    # tau >= t collapse exactly to expected_spot_time_restart(t).
    last_length = job_length - full_segments * checkpoint_interval
    last_segment = expected_spot_time_restart(last_length, interruption_rate)
    return full_segments * per_full_segment + last_segment


def optimal_checkpoint_interval(
    interruption_rate: float, checkpoint_overhead: float
) -> float:
    """Interval minimizing the per-unit-work overhead factor
    ``f(tau) = (e^{lam (tau + C)} - 1) / (lam tau)``.

    Solved numerically (the optimum satisfies a transcendental equation close
    to the Young/Daly approximation ``tau* ~ sqrt(2 C / lam)`` for small
    ``lam C``).
    """
    if interruption_rate <= 0:
        raise ValueError("needs a positive interruption rate")
    if checkpoint_overhead <= 0:
        raise ValueError("needs a positive checkpoint overhead")
    from scipy import optimize

    lam, C = interruption_rate, checkpoint_overhead

    def per_work(tau: float) -> float:
        return math.expm1(min(lam * (tau + C), 700.0)) / (lam * tau)

    daly = math.sqrt(2.0 * C / lam)
    result = optimize.minimize_scalar(
        per_work, bounds=(daly / 50.0, daly * 50.0 + 10.0 / lam), method="bounded"
    )
    return float(result.x)


def _job_upper(distribution: Any, tail: float) -> float:
    upper = float(distribution.upper)
    if math.isfinite(upper):
        return upper
    return float(distribution.quantile(1.0 - tail))


def expected_spot_busy_time(
    distribution: Any,
    interruption_rate: float,
    checkpoint_interval: float = math.inf,
    checkpoint_overhead: float = 0.0,
    work_cap: float = math.inf,
    tail: float = 1e-10,
) -> float:
    """Expected spot busy time marginalized over the job-length law.

    * ``checkpoint_interval=inf``: restart-from-scratch —
      ``int E_restart(t) f(t) dt`` (heavy tails truncated at
      ``quantile(1 - tail)``, because ``E[e^{lam X}]`` may diverge).
    * finite ``checkpoint_interval``: the ``m - 1`` full segments are the
      exact survival series ``E_restart(tau + C) sum_{k>=1} P(X > k tau)``;
      the true-length final segment is integrated per checkpoint window
      ``((m-1) tau, m tau]``.  For a point mass this reproduces
      ``expected_spot_time_checkpointed`` exactly.
    * finite ``work_cap`` (checkpointing only): the job runs on spot only
      for its first ``work_cap`` hours of work, checkpointing through; jobs
      longer than the cap hand the saved state over after
      ``ceil(work_cap / tau)`` full segments (the cap is rounded up to the
      segment grid).  Used by the spot-then-reserve tier strategies; the
      reserved-phase cost is priced separately on the conditional law.
    """
    if interruption_rate < 0:
        raise ValueError(f"rate must be nonnegative, got {interruption_rate}")
    if checkpoint_overhead < 0:
        raise ValueError(
            f"checkpoint overhead must be nonnegative, got {checkpoint_overhead}"
        )
    if work_cap < 0:
        raise ValueError(f"work cap must be nonnegative, got {work_cap}")
    if work_cap == 0.0:
        return 0.0
    metrics.inc("spot.quadrature_calls")
    from scipy import integrate

    lo = float(distribution.lower)
    upper = _job_upper(distribution, tail)
    tau = checkpoint_interval
    if math.isinf(tau):
        if math.isfinite(work_cap):
            raise ValueError(
                "a finite work_cap needs checkpointing (restart-from-scratch "
                "cannot hand partial work over)"
            )
        val, _ = integrate.quad(
            lambda t: expected_spot_time_restart(t, interruption_rate)
            * distribution.pdf(t),
            lo,
            upper,
            limit=300,
        )
        return float(val)
    if tau <= 0:
        raise ValueError(f"checkpoint interval must be positive, got {tau}")

    cap_segments = (
        math.ceil(work_cap / tau - 1e-12) if math.isfinite(work_cap) else None
    )

    # E[#full segments] = sum_{k=1}^{m_u} P(X > k tau) (every term, capped).
    full_expectation = 0.0
    k = 1
    while cap_segments is None or k <= cap_segments:
        surv = float(distribution.sf(k * tau))
        if surv < _SERIES_TAIL:
            break
        full_expectation += surv
        k += 1
        if k > 10_000_000:
            raise RuntimeError("spot segment series failed to converge")
    # Priced only when some full segment exists: with tau beyond the whole
    # law, per-segment time may overflow to inf and 0 * inf would poison
    # the (purely restart-shaped) answer.
    full_cost = 0.0
    if full_expectation > 0.0:
        full_cost = full_expectation * expected_spot_time_restart(
            tau + checkpoint_overhead, interruption_rate
        )

    # Final-partial-segment windows: jobs with X in ((m-1) tau, m tau] run a
    # last segment of length X - (m-1) tau (no trailing checkpoint).  Jobs
    # beyond the cap hand over instead and contribute no partial.
    partial = 0.0
    m = 1
    while True:
        a = (m - 1) * tau
        if a >= upper or float(distribution.sf(a)) < _SERIES_TAIL:
            break
        if cap_segments is not None and m > cap_segments:
            break
        b = min(m * tau, upper)
        if b > max(a, lo):
            start = m  # bind the window index for the integrand
            val, _ = integrate.quad(
                lambda t, s=start: expected_spot_time_restart(
                    t - (s - 1) * tau, interruption_rate
                )
                * distribution.pdf(t),
                max(a, lo),
                b,
                limit=200,
            )
            partial += float(val)
        m += 1
    return full_cost + partial


def expected_spot_cost(
    distribution: Any,
    price: Union[float, object],
    interruption_rate: float,
    checkpoint_interval: float = math.inf,
    checkpoint_overhead: float = 0.0,
    work_cap: float = math.inf,
    tail: float = 1e-10,
) -> float:
    """Certainty-equivalent monetary cost: the stationary mean price times
    the expected busy time.  ``price`` is a scalar or a ``PriceProcess``."""
    if hasattr(price, "stationary_mean"):
        price = float(price.stationary_mean())
    if price <= 0:
        raise ValueError(f"price must be positive, got {price}")
    return price * expected_spot_busy_time(
        distribution,
        interruption_rate,
        checkpoint_interval=checkpoint_interval,
        checkpoint_overhead=checkpoint_overhead,
        work_cap=work_cap,
        tail=tail,
    )
