"""The benchmark's four workloads.

Each workload turns ``--seed`` into generated program inputs
(``WorkloadSpec`` / ``SEConfig``, ``ExperimentSpec``, ``JobStream``,
``RaceConfig``) and runs them through the public API as a closed loop:
one client, the next request only after the last one returned.

Every workload's request set is a fixed catalogue with fixed instance
and engine seeds; ``--seed`` draws the order in which the loop issues
them.  Runs with different seeds therefore time the same work, which is
what keeps the medians steady across seeds, while the order still
changes from seed to seed.  Each catalogue is sized so that one pass
over it takes about twenty seconds on a 2-core x86-64 box.

A request's outputs are checked after its clock stops (see
:mod:`harness.verify`); a request that raises or fails a check is
returned as a failed :class:`Sample`.
"""

from __future__ import annotations

import math
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from harness.env import cpu_count
from harness.verify import Reference, VerificationError, check_constraints, check_schedule, digest

NETWORKS = ("contention-free", "nic")
NET_TAG = {"contention-free": "cf", "nic": "nic"}

#: Paper presets (IPPS 2001 §5) and the fixed instance seeds drawn from them.
PRESETS = ("fig3", "fig4b", "fig6", "fig7")


def preset_spec(preset: str, seed: int):
    from repro.workloads import presets

    maker = {
        "fig3": presets.figure3_spec,
        "fig4b": presets.figure4b_spec,
        "fig6": presets.figure6_spec,
        "fig7": presets.figure7_spec,
    }[preset]
    return maker(seed=seed)


@dataclass
class Sample:
    """One timed unit of work: a solve, a sweep cell, a stream or a race."""

    key: str
    start: float  # perf_counter() when the sample's clock started
    wall: float
    jobs: int = 1
    norm: float = math.nan
    error: Optional[str] = None
    extras: Dict[str, Any] = field(default_factory=dict)


def _failed(key: str, start: float) -> Sample:
    return Sample(
        key, start, time.perf_counter() - start, jobs=0,
        error=traceback.format_exc(limit=3),
    )


def _ordered(items: list, seed: int) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


class BenchWorkload:
    name = ""
    #: requests start worker processes (peak memory must cover them)
    forks = False
    #: request times are set by a wall-clock deadline, not by work, so
    #: they are reported unscaled (see :mod:`harness.calibrate`)
    deadline_bound = False
    #: span names the traced run may install; ``None`` means every probe
    traced_spans: Optional[frozenset] = None

    def __init__(self, reference: Reference):
        self.reference = reference
        self.workloads: Dict[Any, Any] = {}

    def requests(self, seed: int) -> list:
        raise NotImplementedError

    def warmup(self) -> Any:
        raise NotImplementedError

    def build(self, requests: Sequence[Any]) -> None:
        """Materialise the workloads *requests* need (set-up work)."""
        raise NotImplementedError

    def run(self, request: Any) -> List[Sample]:
        raise NotImplementedError

    def _lower_bound(self, workload: Any) -> float:
        from repro.schedule.metrics import makespan_lower_bound

        return makespan_lower_bound(workload)


# ----------------------------------------------------------------------
# se-paper: iteration-capped SE solves
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SolveRequest:
    key: str
    spec: Any  # WorkloadSpec
    config: Any  # SEConfig


class SEPaper(BenchWorkload):
    name = "se-paper"
    INSTANCE_SEEDS = (1, 2)
    SE_SEEDS = (1, 2)
    CAPS = {"contention-free": 60, "nic": 6}
    WARMUP_CAPS = {"contention-free": 10, "nic": 1}

    def _request(self, preset, inst, net, se_seed, caps) -> SolveRequest:
        from repro.core import SEConfig

        return SolveRequest(
            key=f"{preset}-w{inst}-{NET_TAG[net]}-se{se_seed}-i{caps[net]}",
            spec=preset_spec(preset, inst),
            config=SEConfig(seed=se_seed, max_iterations=caps[net], network=net),
        )

    def requests(self, seed: int) -> list:
        return _ordered(
            [
                self._request(p, inst, net, s, self.CAPS)
                for p in PRESETS
                for inst in self.INSTANCE_SEEDS
                for net in NETWORKS
                for s in self.SE_SEEDS
            ],
            seed,
        )

    def warmup(self) -> list:
        return [self._request("fig3", 1, net, 1, self.WARMUP_CAPS) for net in NETWORKS]

    def build(self, requests) -> None:
        from repro.workloads import presets

        self.workloads = {}
        for req in requests:
            if req.spec not in self.workloads:
                self.workloads[req.spec] = presets.build_workload(req.spec)

    def run(self, req: SolveRequest) -> List[Sample]:
        from repro.core import engine

        w = self.workloads[req.spec]
        t0 = time.perf_counter()
        try:
            res = engine.SimulatedEvolution(req.config).run(w)
            wall = time.perf_counter() - t0
            check_schedule(
                w, req.config.network, res.best_string.order,
                res.best_string.machines, res.best_makespan, res.best_schedule,
            )
            self.reference.check(self.name, req.key, {
                "best_makespan": res.best_makespan,
                "evaluations": res.evaluations,
                "iterations": res.iterations,
            })
        except Exception:
            return [_failed(req.key, t0)]
        return [Sample(req.key, t0, wall, norm=res.best_makespan / self._lower_bound(w))]


# ----------------------------------------------------------------------
# engine-sweep: one inline run_experiment over SA, tabu and GA cells
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRequest:
    key: str
    spec: Any  # ExperimentSpec


class EngineSweep(BenchWorkload):
    name = "engine-sweep"
    INSTANCE_SEED = 1
    REPLICATES = (0, 1)
    # engine -> network -> iteration cap (GA: generations).  Each engine
    # costs about the same on both networks, so the 48 cell times form
    # three clusters of 16 (GA < tabu < SA) and the median and the tail
    # (index 37) fall inside a cluster instead of on a boundary.
    CAPS = {
        "sa": {"contention-free": 3000, "nic": 1800},
        "tabu": {"contention-free": 150, "nic": 90},
        "ga": {"contention-free": 45, "nic": 28},
    }
    WARMUP_DIVISOR = 10

    def _spec(self, key, algorithms, workloads, seeds):
        from repro.runner.spec import ExperimentSpec

        return SweepRequest(key, ExperimentSpec(key, algorithms, workloads, seeds=seeds))

    def _algorithms(self, divisor: int) -> list:
        from repro.runner.spec import AlgorithmSpec

        out = []
        for engine, caps in self.CAPS.items():
            field_name = "max_generations" if engine == "ga" else "max_iterations"
            for net in NETWORKS:
                params = {field_name: max(1, caps[net] // divisor), "network": net}
                out.append((f"{engine}-{NET_TAG[net]}", AlgorithmSpec.make(engine, **params)))
        return out

    def requests(self, seed: int) -> list:
        return [
            self._spec(
                "sweep",
                _ordered(self._algorithms(1), seed),
                _ordered([preset_spec(p, self.INSTANCE_SEED) for p in PRESETS], seed + 1),
                self.REPLICATES,
            )
        ]

    def warmup(self) -> list:
        return [
            self._spec(
                "warmup",
                self._algorithms(self.WARMUP_DIVISOR),
                [preset_spec("fig3", self.INSTANCE_SEED)],
                (0,),
            )
        ]

    def build(self, requests) -> None:
        from repro.schedule.vectorized import get_workload_pack
        from repro.workloads import presets

        self.workloads = {}
        for req in requests:
            for spec in req.spec.workloads:
                if spec.name not in self.workloads:
                    w = self.workloads[spec.name] = presets.build_workload(spec)
                    get_workload_pack(w)

    def run(self, req: SweepRequest) -> List[Sample]:
        from repro.runner import pool

        stamps = [time.perf_counter()]
        results: list = []

        def progress(done, total, cell, cached):
            stamps.append(time.perf_counter())
            results.append(cell)

        try:
            pool.run_experiment(req.spec, workers=1, progress=progress, keep_traces=False)
        except Exception:
            return [_failed(req.key, stamps[0])]
        samples = []
        for cell, start, end in zip(results, stamps, stamps[1:]):
            key = f"{req.key}/{cell.cell_id}"
            try:
                w = self.workloads[cell.workload]
                best = cell.extras["best_string"]
                check_schedule(w, cell.network, best["order"], best["machines"], cell.makespan)
                self.reference.check(self.name, key, {
                    "best_makespan": cell.makespan,
                    "evaluations": cell.evaluations,
                    "iterations": cell.iterations,
                })
                samples.append(Sample(key, start, end - start, norm=cell.normalized))
            except Exception:
                samples.append(_failed(key, start))
        if len(samples) != len(req.spec.cells()):
            samples.append(Sample(req.key, stamps[-1], 0.0, jobs=0, error="missing cells"))
        return samples


# ----------------------------------------------------------------------
# online-reopt: DynamicSimulator over Poisson job streams
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StreamRequest:
    key: str
    stream: Any  # JobStream
    reopt: Any  # ReoptConfig
    network: str
    policy: str
    seed: int


class OnlineReopt(BenchWorkload):
    name = "online-reopt"
    STREAM_SEEDS = (1, 2, 3, 4)
    JOBS = 20
    UTILISATION = 0.7
    NETWORK = "nic"
    POLICY = "heft"
    WARMUP_JOBS = 6

    def _request(self, stream_seed: int, jobs: int) -> StreamRequest:
        from repro.online import ReoptConfig, poisson_stream, rate_for_utilisation
        from repro.workloads.presets import WorkloadSpec

        template = WorkloadSpec(num_tasks=20, num_machines=8)
        rate = rate_for_utilisation(template, self.UTILISATION)
        return StreamRequest(
            key=f"stream{stream_seed}-j{jobs}",
            stream=poisson_stream(rate, jobs, template, seed=stream_seed),
            reopt=ReoptConfig(interval=50.0, engine="tabu", max_iterations=40),
            network=self.NETWORK,
            policy=self.POLICY,
            seed=stream_seed,
        )

    def requests(self, seed: int) -> list:
        return _ordered([self._request(s, self.JOBS) for s in self.STREAM_SEEDS], seed)

    def warmup(self) -> list:
        return [self._request(0, self.WARMUP_JOBS)]

    def build(self, requests) -> None:
        from repro.workloads import presets

        self.workloads = {}
        for req in requests:
            for arr in req.stream:
                self.workloads[(req.key, arr.job_id)] = presets.build_workload(arr.spec)

    def run(self, req: StreamRequest) -> List[Sample]:
        from repro.online import simulator

        t0 = time.perf_counter()
        try:
            res = simulator.DynamicSimulator(
                req.stream, network=req.network, policy=req.policy,
                reopt=req.reopt, seed=req.seed,
            ).run()
            wall = time.perf_counter() - t0
            if len(res.records) != len(req.stream):
                raise VerificationError(
                    f"{len(res.records)} of {len(req.stream)} jobs completed"
                )
            flow = {rec.job_id: rec.flow_time for rec in res.records}
            slowdowns = []
            for view in res.jobs:
                w = self.workloads[(req.key, view.job_id)]
                check_constraints(w, view.schedule)
                slowdowns.append(flow[view.job_id] / self._lower_bound(w))
            windows = sum(1 for e in res.events if e["type"] == "reopt")
            self.reference.check(self.name, req.key, {
                "mean_flow": res.metrics.mean_flow,
                "p99_flow": res.metrics.p99_flow,
                "events": digest(res.event_log_json()),
            })
        except Exception:
            return [_failed(req.key, t0)]
        return [Sample(
            req.key, t0, wall, jobs=len(req.stream),
            norm=statistics.median(slowdowns),
            extras={"events": len(res.events), "windows": windows},
        )]


# ----------------------------------------------------------------------
# race-deadline: the portfolio race under a wall-clock deadline
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RaceRequest:
    key: str
    spec: Any  # WorkloadSpec
    config: Any  # RaceConfig


class RaceDeadline(BenchWorkload):
    name = "race-deadline"
    forks = True
    deadline_bound = True
    # islands run in worker processes; only parent-side layers are traced
    traced_spans = frozenset({"workloads.build", "schedule.pack", "portfolio.race"})
    RACE_PRESETS = ("fig3", "fig6", "fig7")
    INSTANCE_SEED = 1
    RACE_SEEDS = (1,)
    DEADLINE = 2.0
    WARMUP_DEADLINE = 0.25

    def _request(self, preset, race_seed, deadline) -> RaceRequest:
        from repro.portfolio import RaceConfig

        return RaceRequest(
            key=f"{preset}-r{race_seed}-d{deadline:g}",
            spec=preset_spec(preset, self.INSTANCE_SEED),
            config=RaceConfig(
                engines=("se", "ga", "sa", "tabu"),
                islands=4,
                deadline=deadline,
                mode="process",
                workers=min(4, cpu_count()),
                network="contention-free",
                seed=race_seed,
            ),
        )

    def requests(self, seed: int) -> list:
        return _ordered(
            [self._request(p, s, self.DEADLINE) for p in self.RACE_PRESETS for s in self.RACE_SEEDS],
            seed,
        )

    def warmup(self) -> list:
        return [self._request("fig3", 0, self.WARMUP_DEADLINE)]

    def build(self, requests) -> None:
        from repro.workloads import presets

        self.workloads = {}
        for req in requests:
            if req.spec not in self.workloads:
                self.workloads[req.spec] = presets.build_workload(req.spec)

    def run(self, req: RaceRequest) -> List[Sample]:
        from repro.portfolio import driver

        w = self.workloads[req.spec]
        net = req.config.network
        t0 = time.perf_counter()
        try:
            res = driver.run_race(w, req.config)
            wall = time.perf_counter() - t0
            best = res.best_string
            check_schedule(w, net, best["order"], best["machines"], res.best_makespan)
            for isl in res.islands:
                s = isl.best_string
                check_schedule(w, net, s["order"], s["machines"], isl.best_makespan)
        except Exception:
            return [_failed(req.key, t0)]
        return [Sample(
            req.key, t0, wall, norm=res.best_makespan / self._lower_bound(w),
            extras={
                "deadline": req.config.deadline,
                "overshoot_s": wall - req.config.deadline,
                "start_offsets": [i.start_offset for i in res.islands],
                "evaluations": sum(i.evaluations for i in res.islands),
                "island_seconds": sum(i.runtime_seconds for i in res.islands),
                "published": sum(i.published for i in res.islands),
                "adopted": sum(i.received for i in res.islands),
            },
        )]


WORKLOADS: Dict[str, Callable[[Reference], BenchWorkload]] = {
    cls.name: cls for cls in (SEPaper, EngineSweep, OnlineReopt, RaceDeadline)
}
