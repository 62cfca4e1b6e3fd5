"""Random restart search — the sanity floor for the iterative heuristics.

Samples independent uniformly random valid strings and keeps the best.
Any metaheuristic worth publishing must beat this at equal evaluation
budget; the baseline-grid benchmark includes it for exactly that check.

Scoring runs on the shared optim core: an
:class:`~repro.optim.evaluation.EvaluationService` owns the backend and
routes chunks of samples through the network's batch kernel
(:class:`~repro.schedule.vectorized.BatchSimulator`) where one is
registered — several times faster than the scalar loop on the
contention-free model and bit-identical to it.  Samples are drawn in
the usual RNG order either way, so chunking never changes the result.

A ``time_limit`` no longer disables the batch kernel (historically it
did, silently costing the whole speedup): the deadline is simply
checked **between chunks**, so a run overshoots by at most one chunk of
``batch_size`` samples and every drawn sample still counts toward the
reported ``evaluations``.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.trace import ConvergenceTrace, IterationRecord
from repro.baselines.base import BaselineResult
from repro.model.workload import Workload
from repro.optim import BestTracker, EvaluationService, StopPolicy
from repro.schedule.backend import DEFAULT_NETWORK, DEFAULT_PLATFORM
from repro.schedule.operations import random_valid_string
from repro.utils.rng import RandomSource, as_rng
from repro.utils.timers import Stopwatch


def random_search(
    workload: Workload,
    samples: int = 1000,
    seed: RandomSource = None,
    time_limit: Optional[float] = None,
    trace: Optional[ConvergenceTrace] = None,
    network: str = DEFAULT_NETWORK,
    batch_size: int = 128,
    platform=DEFAULT_PLATFORM,
    objective: str = "makespan",
    scenarios: int = 0,
    distribution: str = "deterministic",
    scenario_seed: int = 0,
) -> BaselineResult:
    """Best of *samples* uniformly random valid strings.

    Parameters
    ----------
    workload:
        The MSHC problem instance.
    samples:
        Number of random strings to draw (>= 1).
    seed:
        Randomness source.
    time_limit:
        Optional wall-clock cap in seconds, checked between scoring
        chunks (so a batched run can overshoot by at most one chunk;
        at least one sample is always scored).
    trace:
        Optional :class:`ConvergenceTrace` to append best-so-far records
        to (for time-vs-quality comparisons).
    network:
        Simulator backend scoring the samples (and the result).
    batch_size:
        Chunk size for vectorized scoring (>= 1).  Chunking applies on
        backends with a batch kernel; results are bit-identical to the
        scalar loop either way.
    platform:
        Platform (machine catalog) name samples are priced against; the
        default ``"uniform"`` changes nothing (see
        :mod:`repro.model.platform`).
    objective:
        ``"makespan"`` (default), ``"weighted:<w_m>:<w_c>"``, or a
        scenario (risk) objective ``mean`` / ``quantile:<q>`` /
        ``cvar:<q>`` / ``saa:<T>:<eps>`` — the scalar the best sample
        minimises (see :mod:`repro.optim.objective`).
    scenarios, distribution, scenario_seed:
        Monte-Carlo axis of the scenario objectives (see
        :mod:`repro.stochastic`); only valid together with a scenario
        objective.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = as_rng(seed)
    service = EvaluationService(
        workload,
        network,
        platform=platform,
        objective=objective,
        scenarios=scenarios,
        distribution=distribution,
        scenario_seed=scenario_seed,
    )
    use_batch = batch_size > 1 and service.is_vectorized
    policy = StopPolicy(max_iterations=samples, time_limit=time_limit)
    watch = Stopwatch()

    # strings are drawn fresh and never mutated — no copy on improvement
    tracker: BestTracker = BestTracker(copy=lambda s: s)
    drawn = 0
    while not policy.exhausted(drawn):
        if policy.out_of_time(watch.elapsed()) and drawn:
            break
        if use_batch:
            # same RNG draw order as the scalar loop, scored chunk-wise
            chunk = [
                random_valid_string(workload.graph, workload.num_machines, rng)
                for _ in range(min(batch_size, samples - drawn))
            ]
            costs = service.batch_string_makespans(chunk, validate=False)
        else:
            chunk = [
                random_valid_string(workload.graph, workload.num_machines, rng)
            ]
            costs = [service.string_makespan(chunk[0])]
        for s, cost in zip(chunk, costs):
            drawn += 1
            tracker.update(cost, s)
            if trace is not None:
                trace.append(
                    IterationRecord(
                        iteration=drawn,
                        current_makespan=cost,
                        best_makespan=tracker.best_cost,
                        elapsed_seconds=watch.elapsed(),
                        evaluations=drawn,
                    )
                )

    best_string = tracker.best  # drawn >= 1 by construction
    schedule = service.schedule_of(best_string)
    cm = service.cost_model
    return BaselineResult(
        name="random-search",
        string=best_string,
        schedule=schedule,
        # under a weighted objective tracker.best_cost is the scalar;
        # report the schedule's real makespan in that mode
        makespan=(
            tracker.best_cost
            if service.objective.is_makespan
            else schedule.makespan
        ),
        evaluations=drawn,
        network=network,
        platform=service.platform,
        cost=cm.cost(best_string.machines) if cm is not None else 0.0,
    )
