#!/usr/bin/env python
"""The platform axis end to end: priced catalogs, cost-aware search.

Three short acts on one workload:

1. price the deterministic baselines on the "spot" catalog — same
   machines, two objectives (makespan vs dollars);
2. run simulated annealing twice, pure-makespan vs a weighted
   (makespan, cost) objective, and show what the cost term buys;
3. trace the Pareto front with a shared tracker across a small weight
   sweep and pick the cheapest schedule within 1.2x of the best
   makespan.

Run:  python examples/platform_study.py
"""

from repro.analysis.pareto import cheapest_within, pareto_table
from repro.baselines import heft, min_min, olb
from repro.optim import ParetoTracker, SAConfig, run_sa
from repro.optim.evaluation import EvaluationService
from repro.workloads import small_workload

PLATFORM = "spot"


def main() -> None:
    w = small_workload(seed=3)
    print(f"workload: {w.name} ({w.num_tasks} tasks, {w.num_machines} machines)")
    print(f"platform: {PLATFORM!r} (zero-boot, wide price-per-work spread)\n")

    print("deterministic baselines, priced:")
    for fn in (heft, min_min, olb):
        res = fn(w, platform=PLATFORM)
        print(
            f"  {res.name:8s} makespan {res.makespan:8.2f}   "
            f"cost {res.cost:8.2f} usd"
        )

    tracker = ParetoTracker()

    def annealed(objective: str, seed: int):
        service = EvaluationService(
            w,
            platform=PLATFORM,
            objective=objective,
            pareto=tracker,
        )
        res = run_sa(
            w,
            SAConfig(
                seed=seed,
                max_iterations=3000,
                record_every=100,
                platform=PLATFORM,
                objective=objective,
            ),
            service=service,
        )
        return service.score_of(res.best_string)

    ref = annealed("makespan", seed=1)
    print(
        f"\nSA, pure makespan:    makespan {ref.makespan:8.2f}   "
        f"cost {ref.cost:8.2f} usd"
    )
    # weights normalized by the reference point: w_cost is the fraction
    # of the scalar devoted to cost
    for i, w_cost in enumerate((0.2, 0.4, 0.6), start=2):
        objective = (
            f"weighted:{(1 - w_cost) / ref.makespan!r}"
            f":{w_cost / ref.cost!r}"
        )
        sc = annealed(objective, seed=i)
        print(
            f"SA, w_cost={w_cost:.1f}:       makespan {sc.makespan:8.2f}   "
            f"cost {sc.cost:8.2f} usd"
        )

    front = tracker.front
    print(f"\npareto front ({len(front)} points from {tracker.offers} offers):")
    print(pareto_table(front, reference=front[0]))
    pick = cheapest_within(front, factor=1.2)
    print(
        f"\ncheapest within 1.2x of best makespan: "
        f"makespan {pick.makespan:.2f} "
        f"({pick.makespan / front[0].makespan:.3f}x), "
        f"cost {pick.cost:.2f} usd"
    )


if __name__ == "__main__":
    main()
