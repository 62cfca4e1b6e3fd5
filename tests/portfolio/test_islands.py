"""Unit tests for island specs, race defaults, and run_island."""

import pytest

from repro.engines import ENGINES, UNBOUNDED
from repro.portfolio import (
    LocalChannel,
    build_islands,
    run_island,
)
from repro.runner.spec import derive_seed
from repro.schedule.backend import kernel_tier
from repro.workloads import small_workload

ENGINE_KINDS = tuple(ENGINES)


def island_params(kind, deadline, max_iterations, network="contention-free"):
    """Race-default params of a single *kind* island."""
    (spec,) = build_islands(
        (kind,), 1, 0, deadline, max_iterations, network, "uniform"
    )
    return spec.params


def island_config(kind, params):
    return ENGINES[kind].config(**params)


class TestEngineDefaults:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown engine kind"):
            island_params("heft", 1.0, None)

    def test_deadline_run_is_unbounded_and_stall_free(self):
        p = island_params("se", 2.0, None, network="nic")
        assert p["max_iterations"] == UNBOUNDED
        assert p["time_limit"] == 2.0
        assert island_config("se", p).stall_iterations is None
        assert p["network"] == "nic"

    def test_ga_cap_field_is_generations(self):
        p = island_params("ga", None, 6)
        assert p["max_generations"] == 6
        assert "max_iterations" not in p
        assert p["stall_generations"] is None
        assert "time_limit" not in p

    def test_sa_gets_coarse_trace_stride(self):
        p = island_params("sa", 1.0, None)
        assert p["record_every"] == 100
        assert island_config("sa", p).stall_iterations is None


class TestBuildIslands:
    def build(self, **kw):
        args = dict(
            engines=ENGINE_KINDS,
            islands=6,
            base_seed=9,
            deadline=None,
            max_iterations=4,
            network="contention-free",
            platform="uniform",
        )
        args.update(kw)
        return build_islands(**args)

    def test_validation(self):
        with pytest.raises(ValueError, match="islands"):
            self.build(islands=0)
        with pytest.raises(ValueError, match="engines"):
            self.build(engines=())

    def test_kinds_cycle_then_restart(self):
        specs = self.build()
        assert [s.kind for s in specs] == [
            "se", "ga", "sa", "tabu", "se", "ga",
        ]
        assert [s.island for s in specs] == list(range(6))

    def test_seeds_derive_per_island(self):
        specs = self.build()
        assert [s.seed for s in specs] == [
            derive_seed(9, "island", i, s.kind)
            for i, s in enumerate(specs)
        ]
        # restarts of the same kind get distinct streams
        assert specs[0].seed != specs[4].seed

    def test_single_island_keeps_base_seed(self):
        (spec,) = self.build(engines=("tabu",), islands=1)
        assert spec.seed == 9  # the --islands 1 bit-identity contract

    def test_intervals_default_per_kind(self):
        specs = self.build()
        assert [s.interval for s in specs[:4]] == [
            ENGINES[k].interval for k in ENGINE_KINDS
        ]

    def test_interval_override_applies_to_all(self):
        specs = self.build(interval=3)
        assert {s.interval for s in specs} == {3}

    def test_engine_params_override_race_defaults(self):
        specs = self.build(
            engine_params={"ga": {"population_size": 8}, "se": {"bias": 0.1}}
        )
        assert specs[1].params["population_size"] == 8
        assert specs[0].params["bias"] == 0.1
        assert "population_size" not in specs[0].params


class TestRunIsland:
    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_each_kind_runs_solo(self, kind):
        iters = 200 if kind == "sa" else 4
        (spec,) = build_islands(
            (kind,), 1, 3, None, iters, "contention-free", "uniform"
        )
        out = run_island(spec, small_workload(seed=3))
        assert out.kind == kind
        assert out.best_makespan > 0
        assert out.evaluations > 0
        assert out.published == out.received == 0  # no channel attached
        assert out.kernel_tier in ("vectorized", "jit")
        # the anytime list is the strict best-so-far staircase
        costs = [c for _, c in out.anytime]
        assert costs == sorted(costs, reverse=True)
        assert len(set(costs)) == len(costs)
        assert costs and costs[-1] == out.best_makespan

    @pytest.mark.parametrize(
        "platform, network",
        [("cloud", "contention-free"), ("uniform", "contention-free"),
         ("uniform", "nic")],
    )
    def test_reports_the_tier_its_backend_scores_on(self, platform, network):
        (spec,) = build_islands(
            ("tabu",), 1, 3, None, 2, network, platform
        )
        out = run_island(spec, small_workload(seed=3))
        # boot delays are initial state: the batches run sequentially
        want = "sequential" if platform == "cloud" else kernel_tier(network)
        assert out.kernel_tier == want

    def test_channel_wires_exchange_counters(self):
        channel = LocalChannel()
        (spec,) = build_islands(
            ("tabu",), 1, 3, None, 4, "contention-free", "uniform",
            interval=1,
        )
        out = run_island(spec, small_workload(seed=3), channel)
        # the island published its improvements into the channel…
        assert out.published >= 1
        assert channel.best().cost == out.best_makespan
        # …and adopted nothing (it raced alone)
        assert out.received == 0

    def test_start_offset_measured_against_race_epoch(self):
        import time

        (spec,) = build_islands(
            ("tabu",), 1, 3, None, 2, "contention-free", "uniform"
        )
        out = run_island(
            spec, small_workload(seed=3), race_epoch=time.time() - 5.0
        )
        assert out.start_offset >= 5.0
