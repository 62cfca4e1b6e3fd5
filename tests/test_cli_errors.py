"""Bad configuration values fail with one line and exit status 2.

Engine, race and re-optimisation configs validate their fields in
``__post_init__``; the CLI turns that ValueError into a one-line error
instead of a traceback, before any run starts.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

_TINY_SWEEP = [
    "--tasks", "8", "--machines", "2", "--connectivities", "low",
    "--heterogeneities", "low", "--ccrs", "0.1", "--quiet",
]



def _sweep_with(flag, value):
    """A tiny heft sweep with *flag* set to the bad *value*."""
    rest = list(_TINY_SWEEP)
    if flag in rest:
        del rest[rest.index(flag):rest.index(flag) + 2]
    return ["sweep", flag, value, "--algos", "heft", *rest]


BAD_INPUT = [
    (["run", "--budget", "-1"], "time_limit"),
    (["run", "--y", "0"], "y_candidates"),
    (["run", "--bias", "9"], "selection_bias"),
    (["run", "--algo", "ga", "--iterations", "-5"], "max_generations"),
    (["sweep", "--algos", "se", "--iterations", "-3", *_TINY_SWEEP],
     "max_iterations"),
    (["sweep", "--algos", "portfolio", "--iterations", "-3", *_TINY_SWEEP],
     "max_iterations"),
    (["race", "--islands", "-1"], "islands"),
    (["compare", "--budget", "0"], "budget"),
    (["pareto", "--iterations", "-5"], "max_iterations"),
    (["serve", "--reopt", "tabu", "--reopt-interval", "0"], "interval"),
    (_sweep_with("--tasks", "0"), "num_tasks"),
    (_sweep_with("--machines", "0"), "num_machines"),
    (_sweep_with("--connectivities", "bogus"), "connectivity"),
    (_sweep_with("--ccrs", "-1"), "ccr"),
    (_sweep_with("--seeds", "a"), "--seeds"),
    (_sweep_with("--replicates", "0"), "replicates"),
    (["serve", "--tasks", "0"], "num_tasks"),
    (["serve", "--machines", "0"], "num_machines"),
    (["serve", "--ccr", "-1"], "ccr"),
    (["figure", "3a", "--iterations", "0"], "iterations"),
    (["figure", "5", "--budget", "-1"], "budget"),
    (["figure", "5", "--points", "0"], "points"),
    (["pareto", "--factor", "0.5"], "factor"),
    (["serve", "--util", "0"], "utilisation"),
    (["serve", "--rate", "-1"], "rate"),
    (["serve", "--jobs", "-1"], "num_jobs"),
    (["run", "--algo", "random", "--iterations", "0"], "samples"),
    (["export", "--schedule", "--iterations", "-1"], "max_iterations"),
    (["describe", "--seed", "-1"], "--seed"),
    (["run", "--seed", "-1"], "--seed"),
    (["compare", "--seed", "-1"], "--seed"),
    (["race", "--seed", "-1"], "--seed"),
]


@pytest.mark.parametrize(
    "argv, field", BAD_INPUT, ids=[" ".join(a[:3]) for a, _ in BAD_INPUT]
)
def test_config_error_is_one_line_exit_2(argv, field, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"{argv[0]}: ") and field in err


def test_process_exit_status_and_stderr():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "--algo", "ga",
         "--iterations", "-5"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "run: max_generations must be >= 0, got -5\n"
    assert proc.stdout == ""


def test_existing_usage_errors_keep_their_message():
    # UsageError is still a SystemExit whose text is the message
    with pytest.raises(SystemExit, match="race: unknown engine kind") as exc:
        main(["race", "--engines", "se,heft"])
    assert exc.value.code == 2
