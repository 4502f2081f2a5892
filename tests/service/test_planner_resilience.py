"""Planner degradation ladder: bit-compatibility and fallbacks."""

from __future__ import annotations

import pytest

from repro import observability as obs
from repro.core.cost import CostModel
from repro.core.sequence import ReservationSequence
from repro.distributions.registry import make_distribution
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultRule
from repro.service.planner import PlannerService, ResilienceOptions
from repro.simulation.monte_carlo import monte_carlo_expected_cost

REQUEST = {
    "distribution": {"law": "lognormal", "params": {"mu": 3.0, "sigma": 0.5}},
    "strategy": "mean_by_mean",
    "n_samples": 400,
    "seed": 5,
}


@pytest.fixture()
def registry(isolated_obs):
    reg, _ = isolated_obs
    obs.enable()
    return reg


MC_FAULT = FaultPlan([FaultRule(site="planner.mc", mode="error")])


class TestBitCompatibility:
    def test_serial_no_fault_plan_matches_raw_kernel(self, registry):
        """The resilience-enabled default must not perturb the numbers: the
        first rung reproduces the exact historical serial MC evaluation."""
        service = PlannerService()  # resilience on, serial backend
        response = service.plan(REQUEST)
        assert response["degraded"] is False
        assert response["evaluator"] == "mc"

        distribution = make_distribution("lognormal", mu=3.0, sigma=0.5)
        cost_model = CostModel(alpha=1.0, beta=0.0, gamma=0.0)
        sequence = ReservationSequence(
            response["plan"]["reservations"],
            extend=lambda values: float(values[-1]) * 2.0,
        )
        mc = monte_carlo_expected_cost(
            sequence, distribution, cost_model, n_samples=400, seed=5
        )
        assert response["statistics"]["expected_cost"] == mc.mean_cost
        assert response["statistics"]["std_error"] == mc.std_error

    def test_enabled_equals_disabled_without_faults(self, registry):
        enabled = PlannerService().plan(REQUEST)
        disabled = PlannerService(resilience=ResilienceOptions.disabled()).plan(
            REQUEST
        )
        assert (
            enabled["statistics"]["expected_cost"]
            == disabled["statistics"]["expected_cost"]
        )
        assert disabled["degraded"] is False
        assert disabled["evaluator"] == "mc"


class TestDegradation:
    def test_mc_fault_degrades_to_quadrature(self, registry):
        service = PlannerService()
        with faults.installed(FaultPlan.from_spec("planner.mc:error:1")):
            response = service.plan(REQUEST)
        assert response["degraded"] is True
        assert response["evaluator"] == "quadrature"
        outcomes = {a["evaluator"]: a["outcome"] for a in response["attempts"]}
        assert outcomes == {"mc": "error", "quadrature": "ok"}
        assert "InjectedFault" in response["attempts"][0]["error"]
        # The analytic rung has no sampling statistics to report.
        assert response["statistics"]["std_error"] is None
        assert response["statistics"]["n_samples"] is None

    def test_degraded_answer_is_close_to_truth(self, registry):
        truth = PlannerService().plan(REQUEST)["statistics"]["expected_cost"]
        service = PlannerService()
        with faults.installed(MC_FAULT):
            degraded = service.plan(REQUEST)["statistics"]["expected_cost"]
        assert degraded == pytest.approx(truth, rel=0.2)

    def test_disabled_ladder_never_fires_the_mc_site(self, registry):
        service = PlannerService(resilience=ResilienceOptions.disabled())
        with faults.installed(MC_FAULT):
            response = service.plan(REQUEST)
        assert response["degraded"] is False
        assert response["evaluator"] == "mc"

    def test_expired_deadline_falls_back_to_series(self, registry):
        service = PlannerService(
            resilience=ResilienceOptions(request_deadline_s=0.0)
        )
        response = service.evaluate(REQUEST)
        assert response["degraded"] is True
        assert response["evaluator"] == "series"
        outcomes = [(a["evaluator"], a["outcome"]) for a in response["attempts"]]
        assert outcomes == [
            ("mc", "skipped"), ("quadrature", "skipped"), ("series", "ok"),
        ]
        assert response["evaluation"]["std_error"] is None
        assert response["evaluation"]["ci95"] is None
        assert response["evaluation"]["expected_cost"] > 0

    def test_cached_payload_keeps_its_original_stamp(self, registry):
        service = PlannerService()
        first = service.plan(REQUEST)
        second = service.plan(REQUEST)
        assert first["cached"] is False and second["cached"] is True
        assert second["degraded"] is False
        assert second["evaluator"] == "mc"


class TestIntrospection:
    def test_health_exposes_resilience(self, registry):
        health = PlannerService().health()
        assert health["resilience"] == {"enabled": True, "faults": None}
        with faults.installed(MC_FAULT):
            health = PlannerService().health()
        assert health["resilience"]["faults"] is not None
