"""Seeded request generation for the load benchmark's four workloads.

Everything the server will receive is built here, before any window
starts, from the ``--seed`` argument alone: the hot set, the per-client
request schedules, and the probe requests.  Each request carries the plan
key that :func:`repro.service.keys.plan_key` gives for it and the
coverage quantile its reservations must reach, so the load loop checks a
response without recomputing anything.

Schedules are balanced so that a window sees nearly the same mix on every
seed: hot-set requests are drawn in shuffled passes over the set, cold
requests cycle through the laws, cost models and strategies in a fixed
order, and sample sizes are drawn one per stratum.  The seed changes the
order, the jittered parameters (and so every key), the evaluate seeds and
the sample sizes.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.core.cost import CostModel
from repro.distributions.registry import (
    PAPER_ORDER,
    make_distribution,
    paper_distribution,
)
from repro.service.keys import plan_key

CLIENTS = 2
COVERAGE = 0.999

#: The paper's two platform cost models.
COST_MODELS: Dict[str, CostModel] = {
    "reservation_only": CostModel.reservation_only(),
    "neurohpc": CostModel.neurohpc(),
}

HOT_LAWS = ("exponential", "weibull", "lognormal", "uniform")
HEURISTICS = ("mean_by_mean", "mean_stdev", "mean_doubling", "median_by_median")
#: Jittered parameter variants per (law, heuristic, cost model): 4*4*2*4 = 128.
HOT_VARIANTS = 4
HOT_JITTER = 0.05
COLD_JITTER = 0.10

#: cold_plan strategy cycle: mostly BRUTE-FORCE, one of each Thm 5 DP.
COLD_STRATEGIES = (
    "brute_force", "brute_force", "brute_force", "equal_time_dp",
    "brute_force", "brute_force", "brute_force", "equal_probability_dp",
)
#: mixed_sharded: one cold request in each block of five (20%).
MIXED_BLOCK = 5
#: evaluate_mc: n_samples log-uniform over [1k, 200k], one draw per stratum.
EVAL_MIN_SAMPLES = 1_000
EVAL_MAX_SAMPLES = 200_000
EVAL_STRATA = 8

#: cold_plan plans these in set-up, so lazy first-call work is not timed
#: in the window; probe hits and evaluates on cold_plan target them.
WARMUP_STRATEGIES = ("brute_force", "equal_time_dp", "brute_force", "equal_probability_dp")

#: Probe sizes (per client) for the request kinds a window's mix lacks.
PROBE_PER_CLIENT = {"hit": 16, "miss": 16, "evaluate": 16}
PROBE_EVAL_SAMPLES = 100_000


@dataclass(frozen=True)
class Request:
    """One pre-built HTTP request and what a correct answer must satisfy."""

    path: str  # "/plan" or "/evaluate"
    kind: str  # "hit", "miss" or "evaluate"
    body: bytes
    key: str  # plan_key of the request
    cover: float  # quantile(COVERAGE): the last reservation must reach it
    strategy: str

    def plan_body(self) -> dict:
        """The request as a /plan body (evaluate fields are not keyed)."""
        body = json.loads(self.body)
        body.pop("n_samples", None)
        body.pop("seed", None)
        return body


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int  # --workers for repro-serve (0 = in-process cache)
    hot_set: bool  # set-up plans the hot set (else a few cold warm-up plans)
    window_kinds: Tuple[str, ...]  # request kinds the window sends
    #: Fastest plausible request, used only to size the pre-built schedule
    #: so that a much faster server still finds enough distinct requests.
    floor_s: float

    @property
    def probe_kinds(self) -> Tuple[str, ...]:
        """Kinds measured after the window because the window has none."""
        return tuple(k for k in ("hit", "miss", "evaluate") if k not in self.window_kinds)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("hit_local", 0, True, ("hit",), 0.00025),
        Workload("mixed_sharded", 2, True, ("hit", "miss"), 0.002),
        Workload("cold_plan", 0, False, ("miss",), 0.01),
        Workload("evaluate_mc", 0, True, ("evaluate",), 0.002),
    )
}


# ----------------------------------------------------------------------
# Request construction
# ----------------------------------------------------------------------
def _jitter(rng: np.random.Generator, params: dict, width: float) -> dict:
    """Scale every parameter by an independent factor in [1-width, 1+width]."""
    return {
        name: float(value) * float(rng.uniform(1.0 - width, 1.0 + width))
        for name, value in params.items()
    }


def plan_request(law: str, params: dict, model: str, strategy: str, kind: str) -> Request:
    cost = COST_MODELS[model]
    body = {
        "distribution": {"law": law, "params": params},
        "cost_model": {"alpha": cost.alpha, "beta": cost.beta, "gamma": cost.gamma},
        "strategy": strategy,
        "coverage": COVERAGE,
    }
    distribution = make_distribution(law, **params)
    return Request(
        path="/plan",
        kind=kind,
        body=json.dumps(body).encode("utf-8"),
        key=plan_key(distribution, cost, strategy, knobs={}, coverage=COVERAGE),
        cover=float(distribution.quantile(COVERAGE)),
        strategy=strategy,
    )


def with_evaluation(req: Request, n_samples: int, seed: int) -> Request:
    """The /evaluate twin of a /plan request (same key and coverage)."""
    body = req.plan_body()
    body["n_samples"] = int(n_samples)
    body["seed"] = int(seed)
    return Request(
        path="/evaluate",
        kind="evaluate",
        body=json.dumps(body).encode("utf-8"),
        key=req.key,
        cover=req.cover,
        strategy=req.strategy,
    )


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *tags]))


class _ColdSource:
    """Never-repeating cold requests with jittered parameters.

    Laws, cost models and strategies cycle in a fixed order from
    ``offset``, so every window sees the same mix; the seed moves only the
    parameters (and so every key).
    """

    def __init__(self, rng, laws, strategies, seen: set, offset: int = 0):
        self._rng = rng
        self._combos = [(law, m) for law in laws for m in COST_MODELS]
        self._strategies = list(strategies)
        self._seen = seen
        self._i = offset

    def next(self) -> Request:
        while True:
            law, model = self._combos[self._i % len(self._combos)]
            strategy = self._strategies[self._i % len(self._strategies)]
            self._i += 1
            params = _jitter(self._rng, paper_distribution(law).params(), COLD_JITTER)
            req = plan_request(law, params, model, strategy, "miss")
            if req.key not in self._seen:
                self._seen.add(req.key)
                return req


def build_hot_set(seed: int) -> List[Request]:
    rng = _rng(seed, 1)
    hot: List[Request] = []
    seen: set = set()
    for law in HOT_LAWS:
        defaults = paper_distribution(law).params()
        for strategy in HEURISTICS:
            for model in COST_MODELS:
                for _ in range(HOT_VARIANTS):
                    while True:
                        params = _jitter(rng, defaults, HOT_JITTER)
                        req = plan_request(law, params, model, strategy, "hit")
                        if req.key not in seen:
                            break
                    seen.add(req.key)
                    hot.append(req)
    return hot


def _shuffled_cycle(rng: np.random.Generator, items: List[Request]) -> Iterator[Request]:
    """Uniform draws from ``items`` in shuffled passes: every pass uses each
    item once, so a window's mix barely depends on the seed."""
    while True:
        for i in rng.permutation(len(items)):
            yield items[int(i)]


def _log_uniform_sizes(rng: np.random.Generator) -> Iterator[int]:
    """Log-uniform sample sizes, one draw from each stratum per block."""
    lo, hi = math.log(EVAL_MIN_SAMPLES), math.log(EVAL_MAX_SAMPLES)
    width = (hi - lo) / EVAL_STRATA
    while True:
        for stratum in rng.permutation(EVAL_STRATA):
            u = float(rng.uniform(0.0, 1.0))
            yield int(round(math.exp(lo + (int(stratum) + u) * width)))


@dataclass
class Inputs:
    """Every request of one run, built from the seed before any window."""

    setup: List[Request]  # planned in set-up: the hot set or the warm-up
    schedules: List[List[Request]]  # one per client
    cold_probe: List[Request]  # fresh cheap-heuristic misses (probe)
    probe_seeds: List[int]  # evaluate-probe seeds

    def probe(self, kind: str) -> List[Request]:
        """Probe requests of ``kind``; hits and evaluates target set-up plans,
        so a probe hit is a hit by construction."""
        n = PROBE_PER_CLIENT[kind] * CLIENTS
        if kind == "miss":
            return self.cold_probe[:n]
        # Evenly spaced over the set-up plans, so every seed probes the same mix.
        picks = [self.setup[i * len(self.setup) // n] for i in range(n)]
        if kind == "hit":
            return [dataclasses.replace(r, kind="hit") for r in picks]
        return [
            with_evaluation(r, PROBE_EVAL_SAMPLES, s)
            for r, s in zip(picks, self.probe_seeds)
        ]


def build_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    per_client = int(math.ceil(seconds / workload.floor_s)) + 64
    seen: set = set()
    if workload.hot_set:
        hot = build_hot_set(seed)
        setup = [dataclasses.replace(r, kind="miss") for r in hot]
    else:
        hot = []
        warmup = _ColdSource(_rng(seed, 8), PAPER_ORDER, WARMUP_STRATEGIES, seen)
        setup = [warmup.next() for _ in WARMUP_STRATEGIES]
    seen.update(r.key for r in setup)
    cold_probe_src = _ColdSource(_rng(seed, 5), PAPER_ORDER, HEURISTICS, seen)
    schedules: List[List[Request]] = []
    for client in range(CLIENTS):
        rng = _rng(seed, 2, client)
        if workload.name == "hit_local":
            picks = _shuffled_cycle(rng, hot)
            schedule = [next(picks) for _ in range(per_client)]
        elif workload.name == "mixed_sharded":
            cold = _ColdSource(_rng(seed, 3, client), PAPER_ORDER, HEURISTICS, seen,
                               offset=client * len(PAPER_ORDER))
            picks = _shuffled_cycle(rng, hot)
            schedule = []
            while len(schedule) < per_client:
                slot = int(rng.integers(0, MIXED_BLOCK))
                for j in range(MIXED_BLOCK):
                    schedule.append(cold.next() if j == slot else next(picks))
        elif workload.name == "cold_plan":
            cold = _ColdSource(
                _rng(seed, 3, client), PAPER_ORDER, COLD_STRATEGIES, seen,
                offset=client * len(PAPER_ORDER)
            )
            schedule = [cold.next() for _ in range(per_client)]
        elif workload.name == "evaluate_mc":
            sizes = _log_uniform_sizes(_rng(seed, 4, client))
            seeds = rng.choice(2**31, size=per_client, replace=False) + client * 2**31
            picks = _shuffled_cycle(rng, hot)
            schedule = [with_evaluation(next(picks), next(sizes), int(s)) for s in seeds]
        else:  # pragma: no cover - WORKLOADS is closed
            raise KeyError(workload.name)
        schedules.append(schedule)
    cold_probe = [
        cold_probe_src.next() for _ in range(PROBE_PER_CLIENT["miss"] * CLIENTS)
    ]
    probe_seeds = [
        int(s) for s in _rng(seed, 6).choice(2**31, size=64, replace=False)
    ]
    return Inputs(setup, schedules, cold_probe, probe_seeds)
