"""Resilience layer: fault injection, retry/backoff, graceful degradation,
shard supervision.

The serving stack (:mod:`repro.service`) assumes workers, journal I/O and
HTTP requests can all fail; this package supplies the machinery that keeps
it answering anyway:

* :mod:`repro.resilience.faults` — deterministic, seedable fault-injection
  harness (``REPRO_FAULTS`` env spec, decorators/context managers);
* :mod:`repro.resilience.policies` — :class:`RetryPolicy` (exponential
  backoff, full jitter, retry budgets), :class:`Deadline` (propagated
  wall-clock budget);
* :mod:`repro.resilience.degradation` — :func:`run_ladder`, the
  evaluator fallback chain used by the planner;
* :mod:`repro.resilience.supervisor` — :class:`Supervisor`, the probe /
  failover / restart loop over the shard worker processes.

See ``docs/RESILIENCE.md`` for the fault-spec format, the policy knobs,
and the planner's degradation ladder.
"""

from repro.resilience.degradation import LadderExhausted, LadderReport, run_ladder
from repro.resilience.faults import (
    ENV_VAR,
    FaultPlan,
    FaultRule,
    InjectedFault,
    fault_point,
    fire,
    injection_point,
    install,
    installed,
    uninstall,
)
from repro.resilience.policies import (
    Deadline,
    DeadlineExceeded,
    RetryBudget,
    RetryPolicy,
)
from repro.resilience.supervisor import Supervisor, SupervisorPolicy, Ward

__all__ = [
    "ENV_VAR",
    "Deadline",
    "DeadlineExceeded",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "LadderExhausted",
    "LadderReport",
    "RetryBudget",
    "RetryPolicy",
    "Supervisor",
    "SupervisorPolicy",
    "Ward",
    "fault_point",
    "fire",
    "injection_point",
    "install",
    "installed",
    "run_ladder",
    "uninstall",
]
