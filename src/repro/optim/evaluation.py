"""The evaluation service: one object owning backend selection and cost.

Before this module every engine hand-wired the scoring stack itself —
its own backend construction, an ``is_vectorized`` sniff, direct kernel
calls, its own ``evaluations`` arithmetic.
:class:`EvaluationService` centralises all of it:

* **backend selection** — the ``network`` name resolves through
  :func:`repro.schedule.backend.make_simulator` exactly once, so
  single, delta and batch scoring share one backend instance;
* **transparent routing** — :meth:`batch_makespans` /
  :meth:`batch_string_makespans` run the network's vectorized kernel
  (built on the first batch call, so services that never batch never
  pack one), or a sequential scalar loop under initial machine state;
  :meth:`prepare` / :meth:`evaluate_delta` expose the incremental tier;
  engines never touch kernel classes directly;
* **cost accounting** — every scoring call increments one
  ``evaluations`` counter (full evaluation = 1, prepare = 1, delta = 1,
  batch = one per schedule — the same arithmetic the engines used to
  maintain by hand), read back for the per-iteration trace records.

>>> from repro.workloads import small_workload
>>> svc = EvaluationService(small_workload(seed=1))
>>> svc.is_vectorized  # every network ships a batch kernel
True
>>> svc.evaluations
0
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.model.workload import Workload
from repro.optim.objective import ObjectiveBackend, resolve_objective
from repro.schedule.backend import (
    DEFAULT_NETWORK,
    DEFAULT_PLATFORM,
    make_simulator,
    plain_schedule,
    resolve_platform,
)
from repro.schedule.encoding import ScheduleString
from repro.schedule.scoring import CostModel, ScheduleScore
from repro.schedule.simulator import Schedule


class EvaluationService:
    """Schedule-cost oracle for one ``(workload, network)`` pair.

    Parameters
    ----------
    workload:
        The MSHC problem instance.
    network:
        Simulator-backend name (see :mod:`repro.schedule.backend`).
    initial_avail, initial_nic_free:
        Optional per-machine busy state the backend is constructed
        against (see :func:`repro.schedule.backend.make_simulator`) —
        the residual-schedule evaluation mode of the online service:
        engines handed such a service optimise a job's schedule *given*
        machines still occupied by earlier jobs.  Batch calls route
        through the sequential scalar path in this mode.
    platform:
        Platform name (or :class:`~repro.model.platform.PlatformSpec`):
        the backend is built against the speed-scaled matrix, boot
        state and billing table of that platform (see
        :func:`~repro.schedule.backend.make_simulator`).  The default
        ``"uniform"`` changes nothing, bit for bit.
    objective:
        What the scalar every engine optimises *is*: ``"makespan"``
        (the default — the raw backend, no wrapping, bit-identical) or
        a weighted sum (``"weighted:<w_m>:<w_c>"`` / an
        :class:`~repro.optim.objective.WeightedObjective`), routed by
        wrapping the backend in an
        :class:`~repro.optim.objective.ObjectiveBackend` so SE, GA, SA
        and tabu optimise cost-aware without engine changes.
    pareto:
        Optional :class:`~repro.optim.tracking.ParetoTracker`; every
        point scored through this service is offered to it, so a run
        accumulates the (makespan, cost) front as a side effect.
    scenarios, distribution, scenario_seed:
        The Monte-Carlo axis of the *scenario* objectives (``mean`` /
        ``quantile:<q>`` / ``cvar:<q>`` / ``saa:<T>:<eps>`` — see
        :mod:`repro.stochastic` and ``docs/risk_aware.md``): the
        backend is wrapped in a :class:`~repro.stochastic.scenarios.
        ScenarioBackend` scoring every engine-compared scalar as the
        objective's reduction over ``scenarios`` sampled perturbations
        of the (platform-scaled) matrices.  ``scenarios``/non-default
        ``distribution`` without a scenario objective — or a scenario
        objective without ``scenarios >= 1`` — raise immediately.
        Scenario objectives cannot combine with residual initial state,
        Pareto tracking, or platforms with boot delays (boot is initial
        state).
    """

    __slots__ = (
        "_backend",
        "_raw",
        "_workload",
        "_network",
        "_calls",
        "_platform",
        "_objective",
        "_pareto",
        "_cost_model",
        "_scenario",
    )

    def __init__(
        self,
        workload: Workload,
        network: str = DEFAULT_NETWORK,
        initial_avail: Optional[Sequence[float]] = None,
        initial_nic_free: Optional[Sequence[float]] = None,
        platform=DEFAULT_PLATFORM,
        objective="makespan",
        pareto=None,
        scenarios: int = 0,
        distribution="deterministic",
        scenario_seed: int = 0,
    ):
        self._workload = workload
        self._network = network
        self._platform = platform
        self._raw = make_simulator(
            workload,
            network,
            initial_avail=initial_avail,
            initial_nic_free=initial_nic_free,
            platform=platform,
        )
        from repro.stochastic.distributions import validate_scenario_settings

        self._objective, dist_spec = validate_scenario_settings(
            objective, scenarios, distribution
        )
        self._pareto = pareto
        self._cost_model = self._raw.cost_model
        self._scenario = None
        if self._objective.is_scenario:
            if pareto is not None:
                raise ValueError(
                    "Pareto tracking is not supported with scenario "
                    "objectives (risk objectives are makespan-only)"
                )
            if initial_avail is not None or initial_nic_free is not None:
                raise ValueError(
                    "scenario objectives do not support residual "
                    "(initial-state) evaluation"
                )
            if resolve_platform(platform).has_boot:
                raise ValueError(
                    f"platform {self.platform!r} has boot delays (initial "
                    "state), which scenario objectives do not support"
                )
            from repro.stochastic import ScenarioBackend, ScenarioEvaluator
            from repro.stochastic.distributions import sample_scenarios

            self._scenario = ScenarioEvaluator(
                sample_scenarios(
                    self.effective_workload,
                    dist_spec,
                    scenarios,
                    seed=scenario_seed,
                ),
                network=network,
            )
            self._backend = ScenarioBackend(
                self._raw, self._scenario, self._objective
            )
        elif self._objective.is_makespan and pareto is None:
            # the default: the unwrapped backend, bit-identical
            self._backend = self._raw
        else:
            cm = self._cost_model
            if cm is None:
                cm = self._cost_model = CostModel.zero(
                    self.effective_workload.exec_times.values
                )
            self._backend = ObjectiveBackend(
                self._raw, self._objective, cm, pareto
            )
        self._calls = 0

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def workload(self) -> Workload:
        return self._workload

    @property
    def network(self) -> str:
        return self._network

    @property
    def platform(self) -> str:
        """Canonical name of the platform this service evaluates under."""
        return resolve_platform(self._platform).name

    @property
    def objective(self) -> Any:
        """The resolved objective (``MAKESPAN`` unless configured)."""
        return self._objective

    @property
    def pareto(self) -> Any:
        """The attached :class:`ParetoTracker`, or ``None``."""
        return self._pareto

    @property
    def scenario_evaluator(self) -> Any:
        """The :class:`~repro.stochastic.scenarios.ScenarioEvaluator`
        behind a scenario objective, or ``None`` (the default)."""
        return self._scenario

    @property
    def scenarios(self) -> int:
        """Scenario count ``S`` of a scenario objective (0 otherwise)."""
        return 0 if self._scenario is None else self._scenario.scenarios

    @property
    def effective_workload(self) -> Workload:
        """The workload the backend actually evaluates — the platform's
        speed-scaled matrix, or the original object on ``"uniform"``.
        Heuristic phases (SE goodness, allocator candidate ranking)
        read this so their decisions see the same machine model their
        schedules are scored under."""
        return self._raw.workload

    @property
    def cost_model(self) -> Any:
        """The platform billing table (``None`` on the uniform platform
        with the default objective)."""
        return self._cost_model

    @property
    def backend(self) -> Any:
        """The underlying backend (for components like the SE allocator
        that take a :class:`~repro.schedule.backend.SimulatorBackend`)."""
        return self._backend

    @property
    def kernel_tier(self) -> str:
        """The active batch-kernel tier: ``jit``/``vectorized``/``sequential``.

        ``jit`` means batch calls run the compiled (numba) kernels of
        :mod:`repro.schedule.jit`; ``vectorized`` the NumPy kernels;
        ``sequential`` the scalar loop of a busy-state backend.  Known
        before the first batch call, which is when the kernel is built.
        """
        return self._backend.kernel_tier

    @property
    def is_vectorized(self) -> bool:
        """True when batch calls run a vectorized or compiled kernel."""
        return self.kernel_tier != "sequential"

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------

    @property
    def evaluations(self) -> int:
        """Simulator calls made through (or reported to) this service."""
        return self._calls

    def count(self, calls: int) -> None:
        """Fold in calls a collaborator made on :attr:`backend` directly
        (e.g. the SE allocator's probe trials)."""
        self._calls += calls

    # ------------------------------------------------------------------
    # single-schedule tier
    # ------------------------------------------------------------------

    def makespan(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> float:
        self._calls += 1
        return self._backend.makespan(order, machine_of)

    def string_makespan(self, string: ScheduleString) -> float:
        self._calls += 1
        return self._backend.string_makespan(string)

    def evaluate(self, string: ScheduleString) -> Any:
        """Full evaluation (counted); returns the backend's result."""
        self._calls += 1
        return self._backend.evaluate(string)

    def schedule_of(self, string: ScheduleString) -> Schedule:
        """The plain :class:`Schedule` of *string* — **not** counted.

        Result assembly (re-evaluating the best string once at the end
        of a run) was never part of any engine's ``evaluations``
        accounting; this keeps it that way.  Always the *real* schedule
        (true makespan), whatever the objective.
        """
        return plain_schedule(self._raw.evaluate(string))

    def score_of(self, string: ScheduleString) -> ScheduleScore:
        """The ``(makespan, cost, busy)`` score of *string* — **not**
        counted, like :meth:`schedule_of`; real makespan, real dollars,
        whatever the objective."""
        return self._raw.string_score(string)

    def scalarize(self, makespan: float, cost: float) -> float:
        """The configured objective's scalar for one scored point."""
        return self._objective.scalarize(makespan, cost)

    # ------------------------------------------------------------------
    # incremental (delta) tier
    # ------------------------------------------------------------------

    def prepare(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> Any:
        """Snapshot *order*/*machine_of* for suffix-only re-evaluation
        (costs — and counts as — one full evaluation)."""
        self._calls += 1
        return self._backend.prepare(order, machine_of)

    def evaluate_delta(
        self,
        order: Sequence[int],
        machine_of: Sequence[int],
        first_changed: int,
        state: Any,
        cutoff: float = float("inf"),
        region_end: Optional[int] = None,
    ) -> float:
        self._calls += 1
        return self._backend.evaluate_delta(
            order, machine_of, first_changed, state, cutoff, region_end
        )

    # ------------------------------------------------------------------
    # batch tier
    # ------------------------------------------------------------------

    def batch_makespans(
        self, orders: Any, machines: Any, validate: bool = True
    ) -> list[float]:
        """One makespan per ``(orders[i], machines[i])`` schedule.

        Routed through the backend's kernel (see :attr:`kernel_tier`)
        — bit-identical on every tier.
        """
        costs = self._backend.batch_makespans(
            orders, machines, validate=validate
        ).tolist()
        self._calls += len(costs)
        return costs

    def batch_string_makespans(
        self, strings: Sequence[ScheduleString], validate: bool = True
    ) -> list[float]:
        """:meth:`batch_makespans` over :class:`ScheduleString` objects."""
        costs = self._backend.batch_string_makespans(
            strings, validate=validate
        ).tolist()
        self._calls += len(costs)
        return costs
