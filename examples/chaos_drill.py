#!/usr/bin/env python3
"""Chaos drill tour: fault injection and graceful degradation.

Runs the planner service in-process under seeded fault plans and walks the
degradation ladder (``mc → quadrature → series``) end to end:

1. a clean request — full-fidelity serial Monte-Carlo, ``degraded: false``;
2. a failed MC rung — a ``planner.mc`` fault makes rung one raise, and the
   ladder answers from the Eq. 3 quadrature instead, marked degraded;
3. recovery — with the fault plan gone, the next request is full fidelity
   again;
4. an expired deadline — the ladder skips straight to the Theorem 1 series
   (an exact analytic answer: late beats never).

Every step ends in an ``assert``; the CI ``chaos`` job runs this verbatim.

Run:  python examples/chaos_drill.py
"""

from repro import observability as obs
from repro.resilience import FaultPlan, FaultRule, faults
from repro.service.planner import PlannerService, ResilienceOptions

obs.enable()

REQUEST = {
    "distribution": {"law": "lognormal", "params": {"mu": 3.0, "sigma": 0.5}},
    "strategy": "mean_by_mean",
    "n_samples": 4000,
    "seed": 0,
}


def stamp(tag, response):
    stats = response.get("statistics") or response["evaluation"]
    print(f"{tag:<22} evaluator={response['evaluator']:<18} "
          f"degraded={response['degraded']!s:<5} "
          f"E[cost]={stats['expected_cost']:.2f}")


service = PlannerService()

# 1. No faults: full-fidelity serial MC.
clean = service.plan(REQUEST)
assert not clean["degraded"] and clean["evaluator"] == "mc"
stamp("clean", clean)

# 2. The MC rung raises -> the ladder falls back to the quadrature.
storm = FaultPlan([FaultRule(site="planner.mc", mode="error")], seed=7)
with faults.installed(storm):
    stormy = service.evaluate({**REQUEST, "seed": 1})
assert stormy["degraded"] and stormy["evaluator"] == "quadrature"
failed = stormy["attempts"][0]
assert failed["evaluator"] == "mc" and failed["outcome"] == "error"
assert "InjectedFault" in failed["error"]
stamp("mc fault", stormy)

# 3. Faults are gone: the very next request is full fidelity again.
recovered = service.evaluate({**REQUEST, "seed": 2})
assert not recovered["degraded"] and recovered["evaluator"] == "mc"
stamp("recovered", recovered)

# 4. A zero deadline: intermediate rungs are skipped, the final rung
#    (Theorem 1 series — exact, cheap) still answers.
hurried = PlannerService(
    resilience=ResilienceOptions(request_deadline_s=0.0)
).evaluate(REQUEST)
assert hurried["degraded"] and hurried["evaluator"] == "series"
assert hurried["evaluation"]["std_error"] is None  # analytic answer
stamp("expired deadline", hurried)

counters = obs.get_registry().to_dict()["counters"]
assert counters["resilience.degraded_responses"] >= 2
print(f"\nfaults injected={counters['resilience.faults_injected']} "
      f"degraded responses={counters['resilience.degraded_responses']}")
print("All chaos drill checks passed.")
