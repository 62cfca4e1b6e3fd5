"""Pinned engine dispatch: the configs every surface builds, byte for byte.

Every surface that runs SE/GA/SA/tabu maps its own options onto engine
configs — ``repro sweep`` onto :class:`~repro.runner.spec.AlgorithmSpec`
params (whose fingerprints key the resume cache), the runner-backed
head-to-head onto specs of its own, the portfolio onto
:class:`~repro.portfolio.islands.IslandSpec` recipes, and ``repro run``
onto printed output.  This module records all of them in
``tests/data/dispatch_pins.json`` so a refactor of the dispatch code
keeps sweep caches valid and CLI output byte-identical.

Island specs are pinned by the *effective* engine config they build
(``repr`` of the config dataclass), not by the raw override dict: an
override equal to the config default is not behaviour.

Regenerate only after an intentional dispatch change with::

    PYTHONPATH=src python tests/test_dispatch_pins.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.baselines import GAConfig
from repro.cli import main
from repro.core import SEConfig
from repro.optim import SAConfig, TabuConfig
from repro.portfolio import build_islands

PINS_PATH = Path(__file__).parent / "data" / "dispatch_pins.json"

_SUITE = [
    "--tasks", "10", "--machines", "3", "--connectivities", "low",
    "--heterogeneities", "low", "--ccrs", "0.1", "--seeds", "2",
    "--iterations", "7", "--quiet",
]
_ALL = "se,hybrid,ga,sa,tabu,random,portfolio,heft"
_RISKY = "se,hybrid,ga,sa,tabu,random"
_RISK = [
    "--objective", "cvar:0.9", "--scenarios", "8",
    "--distribution", "lognormal:0.2", "--scenario-seed", "3",
]

SWEEPS = {
    "capped": ["--algorithms", _ALL],
    "budget": ["--algorithms", _ALL, "--budget", "1.5"],
    "nic-spot": ["--algorithms", _ALL, "--network", "nic",
                 "--platform", "spot"],
    "risk": ["--algorithms", _RISKY, *_RISK],
    "risk-budget": ["--algorithms", _RISKY, *_RISK, "--budget", "2"],
}

ISLANDS = {
    "deadline": dict(
        islands=5, base_seed=4, deadline=2.0, max_iterations=None,
        network="nic", platform="uniform",
    ),
    "capped": dict(
        islands=4, base_seed=9, deadline=None, max_iterations=6,
        network="contention-free", platform="spot",
    ),
    "both": dict(
        islands=4, base_seed=1, deadline=1.0, max_iterations=30,
        network="contention-free", platform="uniform", interval=3,
    ),
}

RUN_ALGOS = ("se", "ga", "sa", "tabu")

_CONFIGS = {"se": SEConfig, "ga": GAConfig, "sa": SAConfig, "tabu": TabuConfig}


class _Captured(Exception):
    """Stops a command right after it built its experiment spec."""


def _capture_experiment(monkeypatch, call) -> list:
    """Cells of the ExperimentSpec *call* hands to ``run_experiment``."""
    import repro.runner

    seen = []

    def fake(spec, **kwargs):
        seen.append(spec)
        raise _Captured

    monkeypatch.setattr(repro.runner, "run_experiment", fake)
    with pytest.raises(_Captured):
        call()
    (spec,) = seen
    return [
        {
            "cell": cell.cell_id(),
            "kind": cell.algo.kind,
            "params": cell.algo.params_dict(),
            "fingerprint": cell.fingerprint(),
        }
        for cell in spec.cells()
    ]


def sweep_cells(monkeypatch, name: str) -> list:
    argv = ["sweep", "--name", f"pin-{name}", *_SUITE, *SWEEPS[name]]
    return _capture_experiment(monkeypatch, lambda: main(argv))


def head_to_head_cells(monkeypatch, algorithms) -> list:
    from repro.analysis.compare import head_to_head_experiment
    from repro.workloads.presets import WorkloadSpec

    spec = WorkloadSpec(num_tasks=10, num_machines=3, seed=5, name="h2h")
    return _capture_experiment(
        monkeypatch,
        lambda: head_to_head_experiment(
            spec, time_budget=1.5, algorithms=algorithms, seed=3,
            network="nic",
        ),
    )


def island_specs(name: str) -> list:
    return [
        {
            "island": s.island,
            "kind": s.kind,
            "seed": s.seed,
            "interval": s.interval,
            "config": repr(_CONFIGS[s.kind](seed=s.seed, **s.params)),
        }
        for s in build_islands(("se", "ga", "sa", "tabu"), **ISLANDS[name])
    ]


def _normalise_tier(text: str) -> str:
    # the batch tier is a property of the host (numba installed or not),
    # not of the dispatch code; pin the NumPy-tier wording everywhere
    return text.replace("jit kernel (numba-compiled)", "vectorized kernel")


def cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return _normalise_tier(buf.getvalue())


def algorithms_stdout() -> str:
    """``repro algorithms`` in a fresh interpreter.

    Other tests register extra algorithms, networks and platforms in
    this process; the listing pinned here is the built-in one.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-m", "repro", "algorithms"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return _normalise_tier(out)


def run_argv(algo: str) -> list:
    return ["run", "--algo", algo, "--preset", "small", "--iterations", "5"]


def collect(monkeypatch) -> dict:
    return {
        "sweep": {name: sweep_cells(monkeypatch, name) for name in SWEEPS},
        "head_to_head": {
            "default": head_to_head_cells(monkeypatch, None),
            "engines": head_to_head_cells(
                monkeypatch,
                {"SE": {}, "GA": {}, "SA": {}, "TABU": {"tenure": 5}},
            ),
        },
        "islands": {name: island_specs(name) for name in ISLANDS},
        "algorithms_stdout": algorithms_stdout(),
        "run_stdout": {a: cli_stdout(run_argv(a)) for a in RUN_ALGOS},
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_specs_and_fingerprints(name, pins, monkeypatch):
    assert sweep_cells(monkeypatch, name) == pins["sweep"][name]


def test_head_to_head_default_specs(pins, monkeypatch):
    got = head_to_head_cells(monkeypatch, None)
    assert got == pins["head_to_head"]["default"]


def test_head_to_head_engine_specs(pins, monkeypatch):
    got = head_to_head_cells(
        monkeypatch, {"SE": {}, "GA": {}, "SA": {}, "TABU": {"tenure": 5}}
    )
    assert got == pins["head_to_head"]["engines"]


@pytest.mark.parametrize("name", sorted(ISLANDS))
def test_island_specs(name, pins):
    assert island_specs(name) == pins["islands"][name]


def test_algorithms_stdout(pins):
    assert algorithms_stdout() == pins["algorithms_stdout"]


@pytest.mark.parametrize("algo", RUN_ALGOS)
def test_run_stdout(algo, pins):
    assert cli_stdout(run_argv(algo)) == pins["run_stdout"][algo]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    with pytest.MonkeyPatch.context() as mp:
        doc = collect(mp)
    PINS_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")
