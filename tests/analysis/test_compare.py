"""Unit tests for the time-budget comparison harness."""

import math

import pytest

from repro.analysis.compare import (
    ComparisonSeries,
    compare_algorithms,
    engine_runner,
    make_time_grid,
    se_vs_ga,
)
from repro.analysis.trace import ConvergenceTrace, IterationRecord


def fake_runner(values_at):
    """Runner returning a synthetic trace: list of (elapsed, best)."""

    def run(workload, time_limit):
        t = ConvergenceTrace()
        for i, (elapsed, best) in enumerate(values_at, start=1):
            t.append(
                IterationRecord(
                    iteration=i,
                    current_makespan=best,
                    best_makespan=best,
                    elapsed_seconds=elapsed,
                )
            )
        return t

    return run


class TestMakeTimeGrid:
    def test_points_and_endpoint(self):
        grid = make_time_grid(10.0, 5)
        assert grid == (2.0, 4.0, 6.0, 8.0, 10.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="budget"):
            make_time_grid(0.0, 5)
        with pytest.raises(ValueError, match="points"):
            make_time_grid(1.0, 0)


class TestCompareAlgorithms:
    def test_sampling_on_grid(self, tiny_workload):
        runners = {
            "A": fake_runner([(0.1, 100.0), (0.5, 80.0), (0.9, 60.0)]),
            "B": fake_runner([(0.3, 90.0), (0.7, 50.0)]),
        }
        res = compare_algorithms(tiny_workload, runners, time_budget=1.0, grid_points=4)
        a = res.by_name("A")
        assert a.best_at == (100.0, 80.0, 80.0, 60.0)
        b = res.by_name("B")
        # B's record at 0.7s lands inside the 0.75s grid point
        assert b.best_at == (math.inf, 90.0, 50.0, 50.0)

    def test_winner_at(self, tiny_workload):
        runners = {
            "A": fake_runner([(0.1, 100.0)]),
            "B": fake_runner([(0.1, 90.0)]),
        }
        res = compare_algorithms(tiny_workload, runners, 1.0, grid_points=2)
        assert res.winner_at(0) == "B"
        assert res.final_winner() == "B"

    def test_tie_returns_none(self, tiny_workload):
        runners = {
            "A": fake_runner([(0.1, 90.0)]),
            "B": fake_runner([(0.1, 90.0)]),
        }
        res = compare_algorithms(tiny_workload, runners, 1.0, grid_points=1)
        assert res.winner_at(0) is None

    def test_no_data_returns_none(self, tiny_workload):
        runners = {"A": fake_runner([]), "B": fake_runner([])}
        res = compare_algorithms(tiny_workload, runners, 1.0, grid_points=1)
        assert res.winner_at(0) is None

    def test_advantage_ratio(self, tiny_workload):
        runners = {
            "A": fake_runner([(0.1, 50.0)]),
            "B": fake_runner([(0.1, 100.0)]),
        }
        res = compare_algorithms(tiny_workload, runners, 1.0, grid_points=1)
        assert res.advantage("A", "B") == [pytest.approx(2.0)]

    def test_advantage_nan_when_missing(self, tiny_workload):
        runners = {
            "A": fake_runner([]),
            "B": fake_runner([(0.1, 100.0)]),
        }
        res = compare_algorithms(tiny_workload, runners, 1.0, grid_points=1)
        assert math.isnan(res.advantage("A", "B")[0])

    def test_unknown_series_name(self, tiny_workload):
        runners = {"A": fake_runner([(0.1, 1.0)])}
        res = compare_algorithms(tiny_workload, runners, 1.0, grid_points=1)
        with pytest.raises(KeyError):
            res.by_name("Z")

    def test_empty_runners_rejected(self, tiny_workload):
        with pytest.raises(ValueError, match="runner"):
            compare_algorithms(tiny_workload, {}, 1.0)

    def test_first_finite_index(self):
        s = ComparisonSeries(
            name="x",
            time_grid=(1.0, 2.0),
            best_at=(math.inf, 5.0),
            final_best=5.0,
            iterations=1,
        )
        assert s.first_finite_index() == 1


class TestRealRunners:
    def test_se_runner_respects_budget(self, tiny_workload):
        trace = engine_runner("se", seed=1)(tiny_workload, 0.3)
        assert len(trace) > 0
        assert trace.elapsed()[-1] <= 0.6  # small overshoot slack

    def test_ga_runner_respects_budget(self, tiny_workload):
        trace = engine_runner("ga", seed=1)(tiny_workload, 0.3)
        assert len(trace) > 0
        assert trace.elapsed()[-1] <= 0.6

    def test_se_vs_ga_end_to_end(self, tiny_workload):
        res = se_vs_ga(tiny_workload, time_budget=0.4, grid_points=4, seed=2)
        names = {s.name for s in res.series}
        assert names == {"SE", "GA"}
        for s in res.series:
            finite = [v for v in s.best_at if math.isfinite(v)]
            assert finite, "each algorithm produced at least one solution"
            # best-so-far curves are monotone non-increasing
            assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(finite, finite[1:]))

    def test_winner_timeline_length(self, tiny_workload):
        res = se_vs_ga(tiny_workload, time_budget=0.3, grid_points=5, seed=2)
        assert len(res.winner_timeline()) == 5

    def test_compare_named_under_nic(self, tiny_workload):
        from repro.analysis.compare import compare_named

        res = compare_named(
            tiny_workload,
            ["se", "tabu"],
            time_budget=0.2,
            grid_points=3,
            seed=1,
            network="nic",
        )
        assert {s.name for s in res.series} == {"SE", "TABU"}
        for s in res.series:
            assert any(math.isfinite(v) for v in s.best_at)


class TestHeadToHeadNetwork:
    def test_network_threads_to_known_kinds(self, tiny_workload):
        from repro.analysis.compare import head_to_head_experiment
        from repro.workloads import WorkloadSpec

        spec = WorkloadSpec(
            num_tasks=6, num_machines=2, seed=3, name="h2h-nic"
        )
        res = head_to_head_experiment(
            spec,
            time_budget=0.2,
            algorithms={"SE": {}, "HEFT": {}},
            grid_points=3,
            seed=1,
            network="nic",
        )
        assert {s.name for s in res.series} == {"SE", "HEFT"}

    def test_network_skipped_for_algorithms_without_parameter(
        self, tiny_workload, tmp_path
    ):
        """A custom-registered algorithm that declares no ``network``
        parameter must keep working when the harness-wide network is
        set (the selector is only injected where it is accepted)."""
        from repro.analysis.compare import head_to_head_experiment
        from repro.runner import registry
        from repro.workloads import WorkloadSpec

        if "nonet" not in registry.available_algorithms():

            @registry.register_algorithm("nonet")
            def _nonet(workload, seed, params):
                from repro.baselines import olb

                assert "network" not in params  # nothing injected
                res = olb(workload)
                return registry.CellOutcome(
                    makespan=res.makespan, evaluations=res.evaluations
                )

        spec = WorkloadSpec(
            num_tasks=6, num_machines=2, seed=3, name="h2h-nonet"
        )
        res = head_to_head_experiment(
            spec,
            time_budget=0.2,
            algorithms={"NONET": {"kind": "nonet"}},
            grid_points=3,
            seed=1,
            network="nic",
        )
        assert {s.name for s in res.series} == {"NONET"}
