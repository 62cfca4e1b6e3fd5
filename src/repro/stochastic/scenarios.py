"""Scenario scoring: B schedules × S scenarios through the batch tier.

A risk objective needs the makespan of every candidate schedule under
every sampled scenario.  The batch kernels of PR 3/5 are the natural
engine for that: scoring B schedules under scenario ``s`` is one
``batch_string_makespans`` call against a kernel built from scenario
``s``'s matrices, so the full ``(S, B)`` matrix is ``S`` kernel sweeps —
no new walk code, and both network models (``"contention-free"`` and
``"nic"``) come for free.  A single schedule skips the kernels: its
``(S,)`` vector is one scalar walk per scenario, bit-identical.

Two classes:

* :class:`ScenarioEvaluator` — owns the per-scenario scalar backends
  and kernels (one per scenario; the kernels share DAG-structure tables
  via ``WorkloadPack(w_s, like=base)``, since only the matrices differ)
  and produces scenario-makespan vectors/matrices;
* :class:`ScenarioBackend` — the
  :class:`~repro.schedule.backend.SimulatorBackend`-shaped wrapper the
  :class:`~repro.optim.evaluation.EvaluationService` installs for
  scenario objectives: every scalar an engine compares (``makespan``,
  delta scalars, batch columns) is the *reduced risk statistic*, while
  ``evaluate`` still reports the nominal schedule (result assembly and
  SE's goodness phase run on nominal durations).
  The incremental tier is exact but unaccelerated: ``evaluate_delta``
  re-scores the full string over all scenarios and ignores the cutoff
  (a risk statistic has no per-position lower bound to prune on).

>>> from repro.optim.objective import resolve_objective
>>> from repro.schedule.operations import random_valid_string
>>> from repro.stochastic.distributions import sample_scenarios
>>> from repro.workloads import small_workload
>>> w = small_workload(seed=3)
>>> ev = ScenarioEvaluator(sample_scenarios(w, "uniform:0.3", 16, seed=5))
>>> s = random_valid_string(w.graph, w.num_machines, 0)
>>> ev.string_matrix([s]).shape  # (S, B)
(16, 1)
>>> p95 = resolve_objective("quantile:0.95")
>>> p95.reduce(ev.samples_string(s)) >= float(ev.samples_string(s).mean())
True
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.optim.objective import ScenarioObjective, _ScalarizedState
from repro.schedule.backend import (
    DEFAULT_NETWORK,
    batch_kernel_factory,
    make_simulator,
)
from repro.schedule.encoding import ScheduleString
from repro.schedule.vectorized import WorkloadPack
from repro.stochastic.distributions import ScenarioSet

__all__ = ["ScenarioEvaluator", "ScenarioBackend"]

_INF = float("inf")


class ScenarioEvaluator:
    """Scores schedules under every scenario of a
    :class:`~repro.stochastic.distributions.ScenarioSet`.

    The input's shape picks the path: one schedule (:meth:`samples`)
    walks each scenario's scalar backend once; a batch (:meth:`matrix`)
    runs one kernel of the network's active tier per scenario, built on
    the first batch call with the DAG-structure tables shared across
    scenarios.  Both are bit-identical to a simulator built from each
    scenario's matrices.

    Parameters
    ----------
    scenario_set:
        The sampled scenarios (see :func:`~repro.stochastic.
        distributions.sample_scenarios`).
    network:
        Simulator-backend name; scenario walks run under this network
        model, exactly like deterministic scoring.
    """

    __slots__ = ("_set", "_network", "_backends", "_kernels")

    def __init__(
        self, scenario_set: ScenarioSet, network: str = DEFAULT_NETWORK
    ):
        self._set = scenario_set
        self._network = network
        self._backends: Optional[list] = None
        self._kernels: Optional[list] = None

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def scenario_set(self) -> ScenarioSet:
        return self._set

    @property
    def scenarios(self) -> int:
        """The scenario count ``S``."""
        return self._set.scenarios

    @property
    def network(self) -> str:
        return self._network

    @property
    def workload(self):
        """The *nominal* workload the scenarios perturb."""
        return self._set.workload

    @property
    def kernel_tier(self) -> str:
        """The tier of the per-scenario batch kernels (``jit`` /
        ``vectorized``)."""
        return batch_kernel_factory(self._network).kernel_tier

    def _workloads(self) -> list:
        return [self._set.workload_for(s) for s in range(self.scenarios)]

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------

    def matrix(
        self, orders: Any, machines: Any, validate: bool = True
    ) -> np.ndarray:
        """The ``(S, B)`` scenario-makespan matrix of a batch.

        Row ``s`` holds every schedule's makespan under scenario ``s``
        — bit-identical to scoring the batch against a simulator built
        from that scenario's matrices.  Validation (permutation /
        precedence checks) runs once, on the first scenario: validity
        is a property of the strings, not of the matrices.
        """
        if self._kernels is None:
            factory = batch_kernel_factory(self._network)
            base_pack: Optional[WorkloadPack] = None
            self._kernels = []
            for w_s in self._workloads():
                pack = WorkloadPack(w_s, like=base_pack)
                base_pack = base_pack or pack
                self._kernels.append(factory(w_s, pack=pack))
        return np.stack(
            [
                kernel.makespans(orders, machines, validate=validate and s == 0)
                for s, kernel in enumerate(self._kernels)
            ]
        )

    def string_matrix(
        self, strings: Sequence[ScheduleString], validate: bool = True
    ) -> np.ndarray:
        """:meth:`matrix` over :class:`ScheduleString` objects."""
        if not strings:
            return np.empty((self.scenarios, 0))
        orders = np.array([s.order for s in strings], dtype=np.intp)
        machines = np.array([s.machines for s in strings], dtype=np.intp)
        return self.matrix(orders, machines, validate=validate)

    def samples(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> np.ndarray:
        """One schedule's ``(S,)`` scenario-makespan vector."""
        if self._backends is None:
            self._backends = [
                make_simulator(w_s, self._network) for w_s in self._workloads()
            ]
        return np.array(
            [b.makespan(order, machine_of) for b in self._backends],
            dtype=float,
        )

    def samples_string(self, string: ScheduleString) -> np.ndarray:
        """:meth:`samples` for a :class:`ScheduleString`."""
        return self.samples(string.order, string.machines)


class ScenarioBackend:
    """A backend whose every scalar is the reduced risk statistic.

    The scenario-objective twin of
    :class:`~repro.optim.objective.ObjectiveBackend`: built by the
    :class:`~repro.optim.evaluation.EvaluationService` when a scenario
    objective is configured, never by engines directly.  Engines
    compare scalars; here each scalar is ``objective.reduce`` over the
    schedule's scenario makespans.  ``evaluate`` and the decoded
    schedules stay *nominal* — reported makespans in result assembly
    are real nominal makespans, and SE's goodness phase ranks subtasks
    by nominal finish times.
    """

    def __init__(
        self,
        nominal: Any,
        evaluator: ScenarioEvaluator,
        objective: ScenarioObjective,
    ):
        self._nominal = nominal
        self._evaluator = evaluator
        self._objective = objective

    # ------------------------------------------------------------------
    # identity / passthrough
    # ------------------------------------------------------------------

    @property
    def objective(self) -> ScenarioObjective:
        return self._objective

    @property
    def workload(self):
        return self._nominal.workload

    @property
    def kernel_tier(self) -> str:
        return self._evaluator.kernel_tier

    def evaluate(self, string: ScheduleString) -> Any:
        """The nominal backend's full result (real schedule/makespan)."""
        return self._nominal.evaluate(string)

    # ------------------------------------------------------------------
    # reduced (risk) scoring
    # ------------------------------------------------------------------

    def makespan(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> float:
        return self._objective.reduce(
            self._evaluator.samples(order, machine_of)
        )

    def string_makespan(self, string: ScheduleString) -> float:
        return self._objective.reduce(
            self._evaluator.samples_string(string)
        )

    def prepare(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> _ScalarizedState:
        state = self._nominal.prepare(order, machine_of)
        return _ScalarizedState(state, self.makespan(order, machine_of))

    def evaluate_delta(
        self,
        order: Sequence[int],
        machine_of: Sequence[int],
        first_changed: int,
        state: Any,
        cutoff: float = _INF,
        region_end: Optional[int] = None,
    ) -> float:
        """The candidate's risk scalar (full scenario re-evaluation).

        A risk statistic over scenarios admits no incremental
        suffix-only shortcut (every scenario's walk differs), so this
        scores the whole string and ignores *cutoff* — exact, never a
        spurious ``inf``, just without branch-and-bound savings.
        """
        return self.makespan(order, machine_of)

    def batch_makespans(
        self, orders: Any, machines: Any, validate: bool = True
    ) -> np.ndarray:
        return self._objective.reduce_matrix(
            self._evaluator.matrix(orders, machines, validate=validate)
        )

    def batch_string_makespans(
        self, strings: Sequence[ScheduleString], validate: bool = True
    ) -> np.ndarray:
        return self._objective.reduce_matrix(
            self._evaluator.string_matrix(strings, validate=validate)
        )
