"""Per-layer probes, and the per-layer metrics of a traced pass.

Layers are the ``src/repro`` modules.  Each probe wraps a public
callable at the name its callers resolve.  The comment above each group
names the end-to-end metric a change in that layer should move, and on
which workload; ``perfbench/README.md`` carries the same list.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence, Tuple

from harness.trace import Probe, Tracer

INF = float("inf")


def _delta_wins(prefix: str):
    def count(tracer, args, kwargs, result, duration):
        # evaluate_delta(self, order, machine_of, first_changed, state, cutoff, ...)
        cutoff = args[5] if len(args) > 5 else kwargs.get("cutoff", INF)
        if result < cutoff:
            tracer.add(prefix + ".wins")

    return count


def _rows(key: str):
    def count(tracer, args, kwargs, result, duration):
        tracer.add(key, len(args[1]))

    return count


def _iterations(key: str, attr: str):
    def count(tracer, args, kwargs, result, duration):
        tracer.add(key, getattr(result, attr))

    return count


def _selected(tracer, args, kwargs, result, duration):
    tracer.add("core.selected", len(result))


def _allocated(tracer, args, kwargs, result, duration):
    tracer.add("core.allocated", len(args[2]))
    tracer.add("core.moved", result.moved)


def _cell_overhead(tracer, args, kwargs, result, duration):
    tracer.add("runner.cell_overhead_s", duration - result.runtime_seconds)


def _improved(tracer, args, kwargs, result, duration):
    tracer.add("online.reopt_job.improved", int(result[2]))


_SIM = "repro.schedule.simulator:Simulator."
_CON = "repro.extensions.contention:ContentionSimulator."
_VEC = "repro.schedule.vectorized:"
_SA = "repro.optim.annealing:"
_GA = "repro.baselines.ga.engine:"

PROBES: Tuple[Probe, ...] = (
    # workloads: setup_s everywhere, solves_per_s on engine-sweep
    Probe("repro.workloads.presets:build_workload", "workloads.build"),
    Probe("repro.runner.pool:build_workload", "workloads.build"),
    Probe("repro.online.simulator:build_workload", "workloads.build"),
    Probe("repro.portfolio.driver:build_workload", "workloads.build"),
    # schedule scalar tier: delta -> se-paper; prepare -> engine-sweep
    Probe(_SIM + "makespan", "schedule.simulator.makespan"),
    Probe(_SIM + "prepare", "schedule.simulator.prepare"),
    Probe(_SIM + "evaluate_delta", "schedule.simulator.delta",
          _delta_wins("schedule.simulator.delta")),
    # extensions (nic): delta -> se-paper; makespan -> online-reopt;
    # prepare -> engine-sweep
    Probe(_CON + "makespan", "extensions.contention.makespan"),
    Probe(_CON + "prepare", "extensions.contention.prepare"),
    Probe(_CON + "evaluate_delta", "extensions.contention.delta",
          _delta_wins("extensions.contention.delta")),
    # schedule batch tier: vectorized -> engine-sweep; sequential ->
    # online-reopt; pack -> setup_s and engine-sweep
    Probe(_VEC + "BatchKernel.makespans", "schedule.batch",
          _rows("schedule.batch.rows")),
    Probe(_VEC + "SequentialBatchKernel.makespans", "schedule.batch.sequential",
          _rows("schedule.batch.sequential_rows")),
    Probe(_VEC + "SequentialBatchKernel.string_makespans", "schedule.batch.sequential",
          _rows("schedule.batch.sequential_rows")),
    Probe(_VEC + "get_workload_pack", "schedule.pack"),
    # core (SE): se-paper only
    Probe("repro.core.goodness:GoodnessEvaluator.goodness", "core.goodness"),
    Probe("repro.core.engine:select_subtasks", "core.select", _selected),
    Probe("repro.core.allocation:machine_slot_indices", "core.slots"),
    Probe("repro.core.allocation:valid_insertion_range", "core.slots"),
    Probe("repro.core.allocation:Allocator.allocate", "core.allocate", _allocated),
    Probe("repro.core.engine:SimulatedEvolution.run", "core.se.run",
          _iterations("core.se.iterations", "iterations")),
    # optim: engine-sweep and online-reopt
    Probe("repro.optim.loop:SearchLoop.run", "optim.loop",
          _iterations("optim.loop.steps", "iterations"),
          wrap_arg=(3, "step", "optim.step")),
    Probe(_SA + "random_move", "optim.neighborhood"),
    Probe(_SA + "first_changed_position", "optim.neighborhood"),
    Probe(_SA + "inverse_move", "optim.neighborhood"),
    Probe(_SA + "apply_move", "optim.neighborhood"),
    Probe("repro.optim.tabu:random_move", "optim.neighborhood"),
    Probe("repro.optim.tabu:applied_copy", "optim.neighborhood"),
    Probe(_SA + "SimulatedAnnealing.run", "optim.sa.run"),
    Probe("repro.optim.tabu:TabuSearch.run", "optim.tabu.run"),
    # baselines: GA cells on engine-sweep, HEFT dispatch on online-reopt
    Probe(_GA + "GeneticAlgorithm.run", "baselines.ga.run",
          _iterations("baselines.ga.generations", "generations")),
    Probe(_GA + "matching_crossover", "baselines.ga.operators"),
    Probe(_GA + "scheduling_crossover", "baselines.ga.operators"),
    Probe(_GA + "matching_mutation", "baselines.ga.operators"),
    Probe(_GA + "scheduling_mutation", "baselines.ga.operators"),
    Probe("repro.online.policies:DISPATCH_POLICIES.heft", "baselines.dispatch"),
    # runner: solves_per_s on engine-sweep
    Probe("repro.runner.pool:run_cell", "runner.cell", _cell_overhead),
    # online: jobs_per_s on online-reopt
    Probe("repro.online.simulator:dispatch", "online.dispatch"),
    Probe("repro.online.simulator:improve_residual", "online.reopt_job", _improved),
    # portfolio: race_wall_s and race_norm_makespan on race-deadline
    Probe("repro.portfolio.driver:run_race", "portfolio.race"),
)

#: Spans reported with calls, self time and share of request time.
TIMED: Tuple[str, ...] = (
    "workloads.build",
    "schedule.simulator.makespan",
    "schedule.simulator.prepare",
    "schedule.simulator.delta",
    "extensions.contention.makespan",
    "extensions.contention.prepare",
    "extensions.contention.delta",
    "schedule.batch",
    "schedule.batch.sequential",
    "schedule.pack",
    "core.goodness",
    "core.select",
    "core.slots",
    "core.allocate",
    "optim.loop",
    "optim.step",
    "optim.neighborhood",
    "baselines.ga.operators",
    "baselines.dispatch",
    "runner.cell",
    "online.dispatch",
    "online.reopt_job",
    "portfolio.race",
    # the benchmark's own host-speed walks (see harness.calibrate)
    "calibrate",
)

ENGINE_SPANS = ("core.se.run", "optim.sa.run", "optim.tabu.run", "baselines.ga.run")

#: Metrics beyond TIMED's calls/self_s/share, with their units.
EXTRA_UNITS: Dict[str, str] = {
    "cli.import_s": "s",
    "workloads.build.s": "s",
    "schedule.simulator.delta.win_ratio": "ratio",
    "extensions.contention.delta.win_ratio": "ratio",
    "schedule.batch.rows": "count",
    "schedule.batch.sequential_rows": "count",
    "schedule.batch.sequential_s": "s",
    "schedule.pack.hits": "count",
    "schedule.pack.misses": "count",
    "schedule.pack.build_s": "s",
    "core.selected_per_iter": "count",
    "core.moved_ratio": "ratio",
    "optim.loop.steps": "count",
    "optim.sa.accept_ratio": "ratio",
    "baselines.ga.generations": "count",
    "runner.cells": "count",
    "runner.cell_overhead_s": "s",
    "online.events": "count",
    "online.windows": "count",
    "online.dispatch.p50_ms": "ms",
    "online.reopt_job.p50_ms": "ms",
    "online.reopt_job.improved_ratio": "ratio",
    "portfolio.max_start_offset_s": "s",
    "portfolio.islands_late": "count",
    "portfolio.overshoot_s": "s",
    "portfolio.evals_per_s": "1/s",
    "portfolio.published": "count",
    "portfolio.adopted": "count",
    "request.calls": "count",
    "request.wall_s": "s",
    "unattributed.self_s": "s",
    "unattributed.share": "%",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units: Dict[str, str] = {}
    for span in TIMED:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        units[f"{span}.share"] = "%"
    units.update(EXTRA_UNITS)
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(
    tracer: Tracer,
    samples: Sequence,
    import_s: float,
    overhead_ratio: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (see :func:`metric_units`).

    *samples* are the pass's request samples; race and stream samples
    carry the per-island and event counts that spans cannot see.
    """
    summary = tracer.summary()
    counts = tracer.counts
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    request = summary.get("request", zero)
    wall = request["total_s"]
    out: Dict[str, float] = {}
    for span in TIMED:
        agg = summary.get(span, zero)
        out[f"{span}.calls"] = agg["calls"]
        out[f"{span}.self_s"] = agg["self_s"]
        out[f"{span}.share"] = 100.0 * _ratio(agg["self_s"], wall)

    def get(span: str, key: str) -> float:
        return summary.get(span, zero)[key]

    sa_prepares = sum(
        tracer.count_under(ENGINE_SPANS, "optim.sa.run", f"{layer}.prepare")
        for layer in ("schedule.simulator", "extensions.contention")
    )
    sa_probes = sum(
        tracer.count_under(ENGINE_SPANS, "optim.sa.run", f"{layer}.delta")
        for layer in ("schedule.simulator", "extensions.contention")
    )
    races = [s.extras for s in samples if "start_offsets" in s.extras]
    streams = [s.extras for s in samples if "windows" in s.extras]
    c = counts.get
    out.update({
        "cli.import_s": import_s,
        "workloads.build.s": get("workloads.build", "total_s"),
        "schedule.simulator.delta.win_ratio": _ratio(
            c("schedule.simulator.delta.wins", 0), get("schedule.simulator.delta", "calls")),
        "extensions.contention.delta.win_ratio": _ratio(
            c("extensions.contention.delta.wins", 0), get("extensions.contention.delta", "calls")),
        "schedule.batch.rows": c("schedule.batch.rows", 0),
        "schedule.batch.sequential_rows": c("schedule.batch.sequential_rows", 0),
        "schedule.batch.sequential_s": get("schedule.batch.sequential", "total_s"),
        "schedule.pack.hits": c("schedule.pack.hits", 0),
        "schedule.pack.misses": c("schedule.pack.misses", 0),
        "schedule.pack.build_s": get("schedule.pack", "total_s"),
        "core.selected_per_iter": _ratio(c("core.selected", 0), c("core.se.iterations", 0)),
        "core.moved_ratio": _ratio(c("core.moved", 0), c("core.allocated", 0)),
        "optim.loop.steps": c("optim.loop.steps", 0),
        # each accepted proposal re-prepares; one prepare per run anchors
        "optim.sa.accept_ratio": _ratio(
            sa_prepares - get("optim.sa.run", "calls"), sa_probes),
        "baselines.ga.generations": c("baselines.ga.generations", 0),
        "runner.cells": get("runner.cell", "calls"),
        "runner.cell_overhead_s": c("runner.cell_overhead_s", 0.0),
        "online.events": sum(s["events"] for s in streams),
        "online.windows": sum(s["windows"] for s in streams),
        "online.dispatch.p50_ms": 1e3 * _median(tracer.durations("online.dispatch")),
        "online.reopt_job.p50_ms": 1e3 * _median(tracer.durations("online.reopt_job")),
        "online.reopt_job.improved_ratio": _ratio(
            c("online.reopt_job.improved", 0), get("online.reopt_job", "calls")),
        "portfolio.max_start_offset_s": _median([max(r["start_offsets"]) for r in races]),
        "portfolio.islands_late": sum(
            sum(1 for o in r["start_offsets"] if o > r["deadline"] / 2) for r in races),
        "portfolio.overshoot_s": _median([r["overshoot_s"] for r in races]),
        "portfolio.evals_per_s": _ratio(
            sum(r["evaluations"] for r in races), sum(r["island_seconds"] for r in races)),
        "portfolio.published": sum(r["published"] for r in races),
        "portfolio.adopted": sum(r["adopted"] for r in races),
        "request.calls": request["calls"],
        "request.wall_s": wall,
        "unattributed.self_s": request["self_s"],
        "unattributed.share": 100.0 * _ratio(request["self_s"], wall),
        "trace.spans": len(tracer),
        "trace.overhead_ratio": overhead_ratio,
    })
    return out
