"""Tests for runner configuration plumbing in the comparison harness."""

from repro.analysis.compare import (
    COMPARISON_SE_BIAS,
    engine_runner,
    se_vs_ga,
)
from repro.baselines import GAConfig
from repro.core import SEConfig


class TestSeRunnerConfig:
    def test_base_config_respected(self, tiny_workload):
        """Custom Y propagates: Y=1 forces best-machine assignments,
        visible through determinism of the outcome vs another Y."""
        trace_y1 = engine_runner(
            "se", SEConfig(y_candidates=1, seed=1), seed=1
        )(tiny_workload, 0.2)
        trace_all = engine_runner("se", SEConfig(seed=1), seed=1)(
            tiny_workload, 0.2
        )
        assert len(trace_y1) > 0 and len(trace_all) > 0

    def test_seed_overrides_base_seed(self, tiny_workload):
        base = SEConfig(seed=1)
        a = engine_runner("se", base, seed=7)(tiny_workload, 0.15)
        b = engine_runner("se", base, seed=7)(tiny_workload, 0.15)
        # same explicit seed -> same iteration-indexed makespans
        n = min(len(a), len(b))
        assert a.current_makespans()[:n] == b.current_makespans()[:n]

    def test_time_limit_binding(self, tiny_workload):
        trace = engine_runner("se", SEConfig(seed=1, max_iterations=5))(
            tiny_workload, 0.3
        )
        # the runner lifts the iteration cap; must exceed 5 iterations
        assert len(trace) > 5


class TestGaRunnerConfig:
    def test_stall_disabled(self, tiny_workload):
        """The runner must disable the stall rule so the wall clock is
        binding (Wang's 150-generation stop would end tiny runs early)."""
        trace = engine_runner("ga", GAConfig(seed=1, stall_generations=2))(
            tiny_workload, 0.3
        )
        assert len(trace) > 10

    def test_population_size_respected(self, tiny_workload):
        small = engine_runner("ga", GAConfig(seed=1, population_size=4))(
            tiny_workload, 0.15
        )
        big = engine_runner("ga", GAConfig(seed=1, population_size=64))(
            tiny_workload, 0.15
        )
        # smaller populations complete more generations per second
        assert len(small) > len(big)


class TestSeVsGaDefaults:
    def test_default_bias_constant(self):
        assert COMPARISON_SE_BIAS == -0.1

    def test_explicit_config_overrides_default(self, tiny_workload):
        res = se_vs_ga(
            tiny_workload,
            time_budget=0.2,
            se_config=SEConfig(selection_bias=0.1),
            grid_points=3,
            seed=2,
        )
        assert {s.name for s in res.series} == {"SE", "GA"}
