"""Algorithm registry: names the runner can execute in worker processes.

Multiprocessing cannot ship closures across process boundaries, so the
experiment runner refers to algorithms **by name**: an
:class:`~repro.runner.spec.AlgorithmSpec` carries a registry key plus a
flat parameter mapping, and every worker resolves the key against this
module-level registry after import.  The built-in entries cover every
algorithm in the library; downstream code can add its own with
:func:`register_algorithm` (the registration must happen at import time
of a module the workers also import — e.g. the module defining the
experiment).

>>> from repro.runner import available_algorithms
>>> "se" in available_algorithms() and "heft" in available_algorithms()
True
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional

from repro.engines import ENGINES
from repro.model.workload import Workload
from repro.schedule.backend import DEFAULT_NETWORK


@dataclass
class CellOutcome:
    """What one algorithm run reports back to the experiment runner.

    ``trace_rows`` uses the plain-dict row format of
    :meth:`repro.analysis.trace.ConvergenceTrace.to_rows` so outcomes
    stay picklable and JSON-serialisable; deterministic heuristics leave
    it ``None``.
    """

    makespan: float
    evaluations: int = 0
    iterations: int = 0
    stopped_by: str = ""
    trace_rows: Optional[List[dict]] = None
    extras: dict = field(default_factory=dict)


#: An algorithm entry: (workload, seed, params) -> CellOutcome.
AlgorithmFn = Callable[[Workload, int, dict], CellOutcome]

#: Parameter-name source: a tuple of names, or a zero-arg callable
#: returning one (lazy, so declaring params never imports engine code).
ParamSource = Callable[[], tuple] | tuple

_REGISTRY: Dict[str, AlgorithmFn] = {}
_PARAMS: Dict[str, ParamSource] = {}


def register_algorithm(name: str, params: Optional[ParamSource] = None):
    """Decorator registering *fn* under *name* (lowercase, unique).

    *params* optionally declares the parameter names the entry accepts
    in its ``params`` dict (see :func:`algorithm_parameters`) — either a
    tuple of names or a lazy zero-arg callable returning one (e.g.
    reading a config dataclass's fields without importing it up front).
    """

    def deco(fn: AlgorithmFn) -> AlgorithmFn:
        key = name.lower()
        if key in _REGISTRY:
            raise ValueError(f"algorithm {key!r} already registered")
        _REGISTRY[key] = fn
        if params is not None:
            _PARAMS[key] = params
        return fn

    return deco


def resolve_algorithm(name: str) -> AlgorithmFn:
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: "
            f"{', '.join(available_algorithms())}"
        ) from None


def available_algorithms() -> List[str]:
    return sorted(_REGISTRY)


def algorithm_parameters(name: str) -> tuple:
    """Registry parameter names of algorithm *name* (may be empty).

    These are the keys accepted in ``AlgorithmSpec.make(name, ...)`` —
    for the engine-backed entries, the fields of the engine's config
    dataclass.  Raises :class:`KeyError` for unknown algorithms with
    the same message as :func:`resolve_algorithm`.
    """
    resolve_algorithm(name)  # uniform unknown-name error
    source = _PARAMS.get(name.lower(), ())
    return tuple(source() if callable(source) else source)


# ----------------------------------------------------------------------
# built-in entries
# ----------------------------------------------------------------------


def _string_pairs(string) -> dict:
    """A ScheduleString as plain lists (JSON/pickle-safe extras payload).

    Rebuild with ``ScheduleString(doc["order"], doc["machines"], l)``.
    """
    return {"order": list(string.order), "machines": list(string.machines)}


def _seed_of(seed: int, params: dict) -> int:
    """Explicit ``seed`` in params overrides the derived per-cell seed.

    The derived seed keeps cells statistically independent; pinning is
    for benchmarks that must reproduce one specific published trajectory.
    """
    return params.pop("seed", seed)


def _engine_cell(entry):
    """Registry entry running catalog engine *entry* on one cell."""

    def run(workload: Workload, seed: int, params: dict) -> CellOutcome:
        params = dict(params)
        seed = _seed_of(seed, params)
        res = entry.run(workload, entry.config(seed=seed, **params))
        extras = {name: getattr(res, name) for name in entry.extras}
        extras["best_string"] = _string_pairs(res.best_string)
        return CellOutcome(
            makespan=res.best_makespan,
            evaluations=res.evaluations,
            iterations=entry.iterations_of(res),
            stopped_by=res.stopped_by,
            trace_rows=res.trace.to_rows(),
            extras=extras,
        )

    return run


for _entry in ENGINES.values():
    register_algorithm(_entry.name, params=_entry.field_names)(
        _engine_cell(_entry)
    )


@register_algorithm("hybrid", params=ENGINES["se"].field_names)
def _run_hybrid(workload: Workload, seed: int, params: dict) -> CellOutcome:
    """HEFT-seeded SE (the EXT-HYBRID warm-start extension)."""
    from repro.extensions.hybrid import heft_seeded_se

    params = dict(params)
    seed = _seed_of(seed, params)
    res = heft_seeded_se(workload, ENGINES["se"].config(seed=seed, **params))
    return CellOutcome(
        makespan=res.best_makespan,
        evaluations=res.evaluations,
        iterations=res.iterations,
        stopped_by=res.stopped_by,
        trace_rows=res.trace.to_rows(),
        extras={"best_string": _string_pairs(res.best_string)},
    )


def _deterministic(fn_name: str):
    def run(workload: Workload, seed: int, params: dict) -> CellOutcome:
        import repro.baselines as baselines

        # Deterministic heuristics take no seed; a spec may still pin one
        # (e.g. a grid sharing params across algorithms) — strip it
        # instead of crashing the worker with an unexpected kwarg.
        params = dict(params)
        params.pop("seed", None)
        res = getattr(baselines, fn_name)(workload, **params)
        return CellOutcome(
            makespan=res.makespan,
            evaluations=res.evaluations,
            extras={"best_string": _string_pairs(res.string)},
        )

    return run


for _name, _fn in (
    ("heft", "heft"),
    ("minmin", "min_min"),
    ("maxmin", "max_min"),
    ("olb", "olb"),
):
    register_algorithm(_name, params=("network", "platform"))(
        _deterministic(_fn)
    )


def _race_params() -> tuple:
    from repro.portfolio import RaceConfig

    return tuple(f.name for f in fields(RaceConfig))


@register_algorithm("portfolio", params=_race_params)
def _run_portfolio(workload: Workload, seed: int, params: dict) -> CellOutcome:
    """The anytime portfolio race as a sweep-able algorithm entry.

    Runner cells already execute inside worker processes, so the entry
    defaults to the GIL-sharing ``thread`` mode instead of nesting a
    second process pool per cell; a spec can still pin ``mode=
    "process"`` explicitly.
    """
    from repro.portfolio import RaceConfig, run_race

    params = dict(params)
    seed = _seed_of(seed, params)
    params.setdefault("mode", "thread")
    res = run_race(workload, RaceConfig(seed=seed, **params))
    winner = res.islands[res.best_island]
    return CellOutcome(
        makespan=res.best_makespan,
        evaluations=res.evaluations,
        iterations=res.iterations,
        stopped_by=winner.stopped_by,
        extras={
            "best_string": dict(res.best_string),
            "best_island": res.best_island,
            "best_kind": winner.kind,
            "islands": [
                {
                    "island": o.island,
                    "kind": o.kind,
                    "best_makespan": o.best_makespan,
                    "published": o.published,
                    "received": o.received,
                    "kernel_tier": o.kernel_tier,
                }
                for o in res.islands
            ],
        },
    )


@register_algorithm(
    "random",
    params=(
        "samples",
        "batch_size",
        "time_limit",
        "network",
        "platform",
        "objective",
        "scenarios",
        "distribution",
        "scenario_seed",
        "seed",
    ),
)
def _run_random(workload: Workload, seed: int, params: dict) -> CellOutcome:
    from repro.baselines import random_search
    from repro.schedule.backend import DEFAULT_PLATFORM

    params = dict(params)
    seed = _seed_of(seed, params)
    res = random_search(
        workload,
        samples=params.get("samples", 1000),
        seed=seed,
        time_limit=params.get("time_limit"),
        network=params.get("network", DEFAULT_NETWORK),
        batch_size=params.get("batch_size", 128),
        platform=params.get("platform", DEFAULT_PLATFORM),
        objective=params.get("objective", "makespan"),
        scenarios=int(params.get("scenarios", 0) or 0),
        distribution=params.get("distribution", "deterministic"),
        scenario_seed=int(params.get("scenario_seed", 0) or 0),
    )
    return CellOutcome(
        makespan=res.makespan,
        evaluations=res.evaluations,
        extras={"best_string": _string_pairs(res.string)},
    )
