"""Interruption-hazard models.

A hazard model maps the current spot price vector to an instantaneous
preemption rate per path (interruptions per hour).  ``ConstantHazard`` is
the memoryless regime of the closed forms in
:mod:`~repro.platforms.spot.evaluator`; price-dependent hazards capture the empirical pattern that preemptions cluster
when the market is contended (price high).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["HazardModel", "ConstantHazard", "LinearPriceHazard"]


@runtime_checkable
class HazardModel(Protocol):
    """Protocol: price vector -> instantaneous interruption rate vector."""

    def rate(self, prices: np.ndarray) -> np.ndarray:
        """Per-path interruption rate (per hour) at the given prices."""
        ...  # pragma: no cover - protocol

    def rate_at_price(self, price: float) -> float:
        """Scalar convenience for planners (certainty-equivalent rate)."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class ConstantHazard:
    """Poisson preemptions at a fixed rate — the closed-form regime."""

    interruption_rate: float = 0.1

    def __post_init__(self) -> None:
        if self.interruption_rate < 0:
            raise ValueError(
                f"interruption rate must be nonnegative, got {self.interruption_rate}"
            )

    def rate(self, prices: np.ndarray) -> np.ndarray:
        return np.full(prices.shape, self.interruption_rate, dtype=float)

    def rate_at_price(self, price: float) -> float:
        return self.interruption_rate


@dataclass(frozen=True)
class LinearPriceHazard:
    """Rate rising linearly with price above a reference level:

    ``rate(p) = max(0, base_rate + sensitivity * (p - reference_price))``.

    With ``sensitivity = 0`` this is :class:`ConstantHazard`; positive
    sensitivity makes expensive market epochs also the risky ones, which is
    what couples the price path into the interruption process.
    """

    base_rate: float = 0.1
    sensitivity: float = 0.0
    reference_price: float = 0.3

    def __post_init__(self) -> None:
        if self.base_rate < 0:
            raise ValueError(f"base rate must be nonnegative, got {self.base_rate}")
        if self.reference_price <= 0:
            raise ValueError(
                f"reference price must be positive, got {self.reference_price}"
            )

    def rate(self, prices: np.ndarray) -> np.ndarray:
        raw = self.base_rate + self.sensitivity * (prices - self.reference_price)
        return np.maximum(raw, 0.0)

    def rate_at_price(self, price: float) -> float:
        return max(self.base_rate + self.sensitivity * (price - self.reference_price), 0.0)
