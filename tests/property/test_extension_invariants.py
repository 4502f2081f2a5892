"""Property tests for the extension modules' invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import CostModel, DiscreteDistribution, Exponential, LogNormal
from repro.extensions.checkpoint import (
    CheckpointPlan,
    checkpoint_costs_for_times,
    solve_checkpoint_dp,
)
from repro.extensions.deadline import DeadlineInfeasible, solve_deadline_dp
from repro.extensions.multiresource import (
    AmdahlSpeedup,
    MultiResourceCostModel,
    solve_multiresource_dp,
)
from repro.platforms.spot import expected_spot_time_restart
from repro.strategies.dynamic_programming import solve_discrete_dp

discrete_supports = st.lists(
    st.floats(min_value=0.2, max_value=30.0), min_size=2, max_size=8, unique=True
).map(sorted)


def make_discrete(values, rng_seed=0):
    values = np.asarray(values)
    if values.size < 2 or np.min(np.diff(values)) < 1e-6:
        return None
    rng = np.random.default_rng(rng_seed)
    masses = rng.dirichlet(np.ones(values.size))
    return DiscreteDistribution(values, masses)


@settings(max_examples=40, deadline=None)
@given(values=discrete_supports, overhead=st.floats(min_value=0.0, max_value=2.0))
def test_checkpoint_dp_never_worse_than_plain_dp_at_zero_overhead(values, overhead):
    """At any overhead, the checkpoint DP's realized cost is a valid plan
    cost; at zero overhead it is never worse than restart-from-scratch."""
    d = make_discrete(values)
    assume(d is not None)
    cm = CostModel(alpha=1.0, beta=0.4, gamma=0.1)
    plan = solve_checkpoint_dp(d, cm, overhead)
    # Thresholds form a strictly increasing subset ending at the max value.
    assert plan.thresholds[-1] == d.values[-1]
    assert np.all(np.diff(plan.thresholds) > 0)
    if overhead == 0.0:
        ckpt_cost = float(
            sum(
                p * checkpoint_costs_for_times(plan, np.array([v]), cm)[0]
                for v, p in zip(d.values, d.masses / d.masses.sum())
            )
        )
        plain = solve_discrete_dp(d, cm).expected_cost
        assert ckpt_cost <= plain + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    values=discrete_supports,
    a1=st.floats(min_value=0.0, max_value=2.0),
    serial=st.floats(min_value=0.0, max_value=1.0),
)
def test_multiresource_single_proc_choice_matches_theorem5(values, a1, serial):
    """With P = {1}, the multi-resource DP is Theorem 5 for any speedup."""
    d = make_discrete(values)
    assume(d is not None)
    cm = MultiResourceCostModel(alpha0=0.5, alpha1=a1, beta=0.3, gamma=0.1)
    base = CostModel(alpha=0.5 + a1, beta=0.3, gamma=0.1)
    plan = solve_multiresource_dp(d, cm, AmdahlSpeedup(serial), [1])
    ref = solve_discrete_dp(d, base)
    np.testing.assert_allclose(
        [r.duration for r in plan.reservations], ref.reservations, rtol=1e-10
    )


@settings(max_examples=30, deadline=None)
@given(values=discrete_supports, factor=st.floats(min_value=1.0, max_value=20.0))
def test_deadline_plan_cost_bounded_by_unconstrained_and_single_shot(values, factor):
    """E_unconstrained <= E_deadline <= E_single-shot (the two extremes)."""
    d = make_discrete(values)
    assume(d is not None)
    cm = CostModel.reservation_only()
    f = d.masses / d.masses.sum()
    q_idx = min(int(np.searchsorted(np.cumsum(f), 0.95)), len(d) - 1)
    deadline = float(d.values[q_idx]) * factor
    try:
        plan = solve_deadline_dp(d, cm, deadline, 0.95, budget_buckets=300)
    except DeadlineInfeasible:
        assume(False)
        return
    unconstrained = solve_discrete_dp(d, cm).expected_cost
    # Reference feasible plan: (v_q, v_n) — the quantile job completes in the
    # first reservation (worst case v_q <= deadline), everyone else in the
    # second.  Reservation-only cost: v_q + P(X > v_q) v_n.
    v_q, v_n = float(d.values[q_idx]), float(d.values[-1])
    tail = float(f[q_idx + 1 :].sum())
    reference = v_q + tail * v_n if v_q < v_n else v_n
    assert plan.expected_cost >= unconstrained - 1e-9
    assert plan.expected_cost <= reference + 1e-9
    assert plan.worst_case_completion <= deadline + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(min_value=0.0, max_value=50.0),
    lam=st.floats(min_value=0.0, max_value=5.0),
)
def test_spot_restart_time_dominates_job_length(t, lam):
    """E[T] >= t always, with equality iff lam = 0 (or t = 0)."""
    expected = expected_spot_time_restart(t, lam)
    # Relative tolerance: expm1(lam t)/lam rounds a hair below t at tiny lam.
    assert expected >= t * (1.0 - 1e-9) - 1e-12
    if lam == 0.0 or t == 0.0:
        assert expected == pytest.approx(t)
    elif math.isfinite(expected) and lam * t > 1e-6:
        # Strict dominance only when the inflation is resolvable in floats.
        assert expected > t


@settings(max_examples=30, deadline=None)
@given(
    lam=st.floats(min_value=0.01, max_value=2.0),
    t1=st.floats(min_value=0.1, max_value=5.0),
    t2=st.floats(min_value=0.1, max_value=5.0),
)
def test_spot_restart_superadditive(lam, t1, t2):
    """Splitting a job at a free checkpoint never hurts:
    E[T(t1+t2)] >= E[T(t1)] + E[T(t2)] (convexity of expm1)."""
    whole = expected_spot_time_restart(t1 + t2, lam)
    parts = expected_spot_time_restart(t1, lam) + expected_spot_time_restart(t2, lam)
    assume(math.isfinite(whole))
    assert whole >= parts - 1e-9
