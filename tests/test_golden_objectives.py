"""Exact results of every engine under the non-default objectives.

``tests/data/golden_objectives.json`` pins the objective paths of the
evaluation stack — the weighted scalar, Pareto tracking through a
caller-built service, and the scenario (risk) objectives — for SE, GA,
SA and tabu on preset ``small`` (seed 1) with fixed iteration caps:

* ``weighted``: ``objective="weighted:0.5:0.5"`` on platform ``spot``
  — best string, best makespan, the best string's real cost and the
  evaluation count;
* ``pareto``: SA and tabu each handed an :class:`EvaluationService`
  with a :class:`ParetoTracker` — best string, every front point and
  the number of scored offers;
* ``quantile``: ``objective="quantile:0.9"`` over 8 ``lognormal:0.25``
  scenarios — best string, nominal best makespan, evaluation count;
* ``cli_pareto``: the full stdout of ``repro pareto --algo tabu``.

Floats are compared exactly: the batch, delta and scalar tiers are
bit-identical, so any refactor of how the stack routes a call must
reproduce these numbers to the last bit.

Regenerate (only for an intended semantic change) with::

    PYTHONPATH=src python tests/test_golden_objectives.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import PRESETS, main
from repro.engines import ENGINES
from repro.optim import EvaluationService, ParetoTracker

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_objectives.json"

ENGINE_NAMES = ("se", "ga", "sa", "tabu")

#: Per-engine run caps: small enough for tier-1, long enough to search.
CAPS = {
    "se": {"max_iterations": 6},
    "ga": {"max_generations": 5, "population_size": 8, "stall_generations": None},
    "sa": {"max_iterations": 300},
    "tabu": {"max_iterations": 6},
}

WEIGHTED = {"platform": "spot", "objective": "weighted:0.5:0.5"}

QUANTILE = {
    "objective": "quantile:0.9",
    "scenarios": 8,
    "distribution": "lognormal:0.25",
}

CLI_PARETO = [
    "pareto", "--algo", "tabu", "--preset", "small", "--platform", "spot",
    "--iterations", "20", "--weights", "0,0.5,1",
]


def _workload():
    return PRESETS["small"](1)


def _string(s):
    return {"order": list(s.order), "machines": list(s.machines)}


def _run(name, service=None, **params):
    entry = ENGINES[name]
    cfg = entry.config(seed=1, **CAPS[name], **params)
    return entry.run(_workload(), cfg, service=service)


def weighted_case(name):
    res = _run(name, **WEIGHTED)
    cost = EvaluationService(_workload(), platform="spot").score_of(
        res.best_string
    ).cost
    return {
        "best_string": _string(res.best_string),
        "best_makespan": res.best_makespan,
        "cost": cost,
        "evaluations": res.evaluations,
    }


def pareto_case(name):
    tracker = ParetoTracker()
    service = EvaluationService(
        _workload(), **WEIGHTED, pareto=tracker
    )
    res = _run(name, service=service, **WEIGHTED)
    return {
        "best_string": _string(res.best_string),
        "front": [[p.makespan, p.cost] for p in tracker.front],
        "offers": tracker.offers,
    }


def quantile_case(name):
    res = _run(name, **QUANTILE)
    return {
        "best_string": _string(res.best_string),
        "nominal_makespan": res.best_schedule.makespan,
        "evaluations": res.evaluations,
    }


def cli_pareto_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(CLI_PARETO) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_weighted_objective(golden, name):
    assert weighted_case(name) == golden["weighted"][name]


@pytest.mark.parametrize("name", ("sa", "tabu"))
def test_pareto_through_caller_built_service(golden, name):
    assert pareto_case(name) == golden["pareto"][name]


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_quantile_objective(golden, name):
    assert quantile_case(name) == golden["quantile"][name]


def test_cli_pareto_stdout(golden):
    assert cli_pareto_stdout() == golden["cli_pareto"]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    doc = {
        "weighted": {n: weighted_case(n) for n in ENGINE_NAMES},
        "pareto": {n: pareto_case(n) for n in ("sa", "tabu")},
        "quantile": {n: quantile_case(n) for n in ENGINE_NAMES},
        "cli_pareto": cli_pareto_stdout(),
    }
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
