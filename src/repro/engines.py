"""The engine catalog: one :class:`EngineEntry` per iterative engine.

Every surface that runs SE, GA, SA or tabu search (the ``repro``
subcommands, the runner registry, the portfolio islands, the online
re-optimisation window and the head-to-head harness) looks the engine
up here instead of branching on its name; the engine's quirks live in
its entry as data.  Configs and engines are imported lazily by dotted
path, so importing the catalog imports no engine.  Adding an engine is
one entry in :data:`ENGINES` (see ``docs/architecture.md``).

>>> engine("ga").limits(None, 2.0, stall=False)
{'max_generations': 1000000000, 'time_limit': 2.0, 'stall_generations': None}
>>> warm_start_engines()
('sa', 'tabu')
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from importlib import import_module
from typing import Optional

#: Effectively-unbounded iteration cap for wall-clock-bound runs.
UNBOUNDED = 10**9

#: SE selection bias used by default in head-to-head comparisons.
#:
#: Under a wall-clock budget, sustained selection pressure matters more
#: than cheap iterations: on converged solutions the goodness vector
#: saturates near 1, and with the paper's positive large-problem bias
#: (§4.4) almost nothing gets selected — SE idles while the GA keeps
#: improving.  A mildly negative bias keeps ~10% of subtasks churning and
#: reproduces the paper's Figs. 5-6 outcome (SE ahead of GA); see
#: EXPERIMENTS.md for the calibration data.
COMPARISON_SE_BIAS = -0.1


def _load(path: str):
    module, _, name = path.partition(":")
    return getattr(import_module(module), name)


@dataclass(frozen=True)
class EngineEntry:
    """One iterative engine and its quirks.

    ``scale`` is the native iterations granted per requested iteration
    on surfaces that take an SE-sized count: an SA iteration is one
    ~25 µs move proposal, so SA gets 50.  ``strides`` thins SA's trace
    (``record_every``) under a wall-clock ``"budget"`` and in a
    ``"race"`` island, where a per-proposal trace would grow without
    bound.  ``warm_start`` engines accept ``initial=`` / ``service=``.
    """

    name: str
    engine_path: str  # "module:Class", imported on first use
    config_path: str
    label: str  # `repro run` prints "<label> finished: <n> <unit>, ..."
    unit: str
    interval: int  # default incumbent poll stride of a race island
    cap_field: str = "max_iterations"
    stall_field: str = "stall_iterations"
    count_field: str = "iterations"  # the result's iteration count
    scale: int = 1
    strides: dict = field(default_factory=dict)
    warm_start: bool = False
    compare_defaults: dict = field(default_factory=dict)  # head-to-head
    extras: tuple = ()  # result attributes a runner cell reports
    variants: tuple = ()  # registry names running it on its config

    def config_class(self) -> type:
        return _load(self.config_path)

    def field_names(self) -> tuple:
        """The config's field names (the registry's parameter names)."""
        return tuple(f.name for f in fields(self.config_class()))

    def config(self, **params):
        """The engine's config from flat params (ValueError if invalid)."""
        return self.config_class()(**params)

    def limits(
        self,
        iterations: Optional[int] = None,
        time_limit: Optional[float] = None,
        *,
        stall: bool = True,
        trace: Optional[str] = None,
    ) -> dict:
        """Config overrides that bound a run.

        *iterations* fills the cap field (``None`` lifts it to
        :data:`UNBOUNDED`, leaving the wall clock to bind) and
        *time_limit* is set only when given.  ``stall=False`` switches
        off a stall rule the config enables by default (the GA's), so
        the run lasts to its cap or clock.  *trace* names a stride in
        :attr:`strides` to apply as ``record_every``.
        """
        out: dict = {self.cap_field: UNBOUNDED if iterations is None else iterations}
        if time_limit is not None:
            out["time_limit"] = time_limit
        if not stall:
            default = {f.name: f.default for f in fields(self.config_class())}
            if default[self.stall_field] is not None:
                out[self.stall_field] = None
        if trace in self.strides:
            out["record_every"] = self.strides[trace]
        return out

    def run(
        self,
        workload,
        cfg,
        observers=(),
        exchange=None,
        initial=None,
        service=None,
    ):
        """Run the engine on *workload* under config *cfg*."""
        warm = {}
        if initial is not None or service is not None:
            if not self.warm_start:
                raise ValueError(f"engine {self.name!r} takes no initial= or service=")
            warm = {"initial": initial, "service": service}
        engine_class = _load(self.engine_path)
        return engine_class(cfg).run(
            workload, observers=observers, exchange=exchange, **warm
        )

    def iterations_of(self, result) -> int:
        return getattr(result, self.count_field)


#: The iterative engines, in the portfolio's default cycling order.
ENGINES = {
    e.name: e
    for e in (
        EngineEntry(
            "se",
            "repro.core.engine:SimulatedEvolution",
            "repro.core.config:SEConfig",
            label="SE",
            unit="iterations",
            interval=5,
            compare_defaults={"selection_bias": COMPARISON_SE_BIAS},
            extras=("bias", "y_candidates"),
            variants=("hybrid",),
        ),
        EngineEntry(
            "ga",
            "repro.baselines.ga.engine:GeneticAlgorithm",
            "repro.baselines.ga.config:GAConfig",
            label="GA",
            unit="generations",
            interval=5,
            cap_field="max_generations",
            stall_field="stall_generations",
            count_field="generations",
        ),
        EngineEntry(
            "sa",
            "repro.optim.annealing:SimulatedAnnealing",
            "repro.optim.annealing:SAConfig",
            label="SA",
            unit="proposals",
            interval=500,  # a proposal is ~25 µs, a shared poll ~0.1 ms
            scale=50,
            strides={"budget": 50, "race": 100},
            warm_start=True,
        ),
        EngineEntry(
            "tabu",
            "repro.optim.tabu:TabuSearch",
            "repro.optim.tabu:TabuConfig",
            label="tabu",
            unit="iterations",
            interval=10,
            warm_start=True,
        ),
    )
}


def engine(name: str) -> EngineEntry:
    """The catalog entry of engine *name*; ValueError when unknown."""
    try:
        return ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine kind {name!r}; expected one of "
            f"{', '.join(ENGINES)}"
        ) from None


def engine_for(algorithm: str) -> Optional[EngineEntry]:
    """The entry behind registry *algorithm* (variants included), or None."""
    for e in ENGINES.values():
        if algorithm == e.name or algorithm in e.variants:
            return e
    return None


def warm_start_engines() -> tuple:
    """Engines that accept ``initial=`` / ``service=``."""
    return tuple(e.name for e in ENGINES.values() if e.warm_start)
