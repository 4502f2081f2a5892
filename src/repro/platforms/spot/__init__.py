"""Spot-market platform: stochastic prices, interruptions, tiered costing.

The paper's RESERVATIONONLY platform sells capacity at a fixed price and
never revokes it.  Real clouds also sell *spot* capacity: deeply discounted,
priced by a stochastic process, and interruptible.  This package makes spot
a first-class scenario next to :class:`~repro.platforms.ReservationOnlyPlatform`:

* :mod:`~repro.platforms.spot.price` — ``PriceProcess`` protocol plus
  constant, Ornstein--Uhlenbeck, 2-state regime-switching, and trace-driven
  replay models, all seeded through ``utils.rng``.
* :mod:`~repro.platforms.spot.hazard` — interruption-hazard models, either
  constant (the memoryless closed-form regime) or price-dependent (high
  price -> more preemption pressure).
* :mod:`~repro.platforms.spot.evaluator` — interruption-aware expected-cost
  evaluation: a vectorized, backend-invariant Monte-Carlo path integrator
  (cost accrues along the realized price path), the scalar closed forms
  ``expected_spot_time_restart``/``expected_spot_time_checkpointed`` plus
  the Young/Daly ``optimal_checkpoint_interval``, and a quadrature path
  that marginalizes those closed forms over the job-length law.

Strategy variants that pick reservation length *and* tier live in
:mod:`repro.strategies.spot_tier`; the volatility/interruption/overhead sweep
is the ``spot-market`` experiment.  See ``docs/SPOT.md``.
"""

from repro.platforms.spot.evaluator import (
    SpotCostResult,
    SpotScenario,
    expected_spot_busy_time,
    expected_spot_cost,
    expected_spot_time_checkpointed,
    expected_spot_time_restart,
    optimal_checkpoint_interval,
    spot_monte_carlo_cost,
)
from repro.platforms.spot.hazard import (
    ConstantHazard,
    HazardModel,
    LinearPriceHazard,
)
from repro.platforms.spot.price import (
    ConstantPrice,
    OUPriceProcess,
    PriceProcess,
    RegimeSwitchingPrice,
    TracePrice,
)

__all__ = [
    "PriceProcess",
    "ConstantPrice",
    "OUPriceProcess",
    "RegimeSwitchingPrice",
    "TracePrice",
    "HazardModel",
    "ConstantHazard",
    "LinearPriceHazard",
    "SpotScenario",
    "SpotCostResult",
    "spot_monte_carlo_cost",
    "expected_spot_busy_time",
    "expected_spot_cost",
    "expected_spot_time_restart",
    "expected_spot_time_checkpointed",
    "optimal_checkpoint_interval",
]
