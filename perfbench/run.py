#!/usr/bin/env python3
"""Benchmark of the ``repro`` package, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload se-paper --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass plus the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results (environment,
every pass, and for traced runs the spans) are written under
``.perfbench/`` in the checkout.

``--record-reference`` re-records ``perfbench/reference.json``, the
outputs every deterministic request must reproduce.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = ROOT / "perfbench" / "reference.json"
SETUP_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solves_per_s": "1/s",
    "solve_p50_s": "s",
    "solve_tail_s": "s",
    "jobs_per_s": "1/s",
    "race_wall_s": "s",
    "race_norm_makespan": "ratio",
    "verified_frac": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    if not args.record_reference and not args.workload:
        p.error("--workload is required")
    return args


# after the import, the child times the calibration walk on its own core
IMPORT_PROBE = """
import repro.cli
from harness.calibrate import Calibrator
cal = Calibrator()
for _ in range(5):
    cal.measure()
print(*cal.durations)
"""


def import_seconds(scaled: bool) -> float:
    """Wall time of a fresh interpreter that imports ``repro.cli``.

    The child's closing walks are taken off the wall time; when *scaled*,
    their median scales it (the child may run on another core than this
    process, whose own walks would not describe it).
    """
    from harness.calibrate import REFERENCE_S
    from harness.stats import median

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT / "perfbench")]))
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, check=True,
        timeout=120, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    walks = [float(x) for x in out.stdout.split()]
    wall -= sum(walks)
    return wall * REFERENCE_S / median(walks) if scaled else wall


def run_request(wl, request, tracer=None, request_id=-1):
    """Run one request on a fresh pack cache, as a new CLI process would."""
    from repro.schedule.vectorized import clear_pack_cache, pack_cache_stats

    clear_pack_cache()
    if tracer is None:
        samples = wl.run(request)
    else:
        with tracer.span("request", request=request_id):
            samples = wl.run(request)
        stats = pack_cache_stats()
        tracer.add("schedule.pack.hits", stats["hits"])
        tracer.add("schedule.pack.misses", stats["misses"])
    return samples


def run_pass(wl, requests, tracer=None):
    """One closed-loop pass over *requests*: back to back, one client."""
    t0 = time.perf_counter()
    per_request = [run_request(wl, req, tracer, i) for i, req in enumerate(requests)]
    return {
        "wall": time.perf_counter() - t0,
        "samples": [s for got in per_request for s in got],
        "per_request": per_request,
    }


def pass_metrics(p, cal) -> dict:
    """End-to-end metrics of one pass; times in reference-host seconds
    when a calibrator *cal* sampled the pass (see harness.calibrate),
    raw wall seconds when it is ``None``."""
    from harness.stats import median, tail

    def t(s):
        return cal.scale(s.start, s.wall) if cal else s.wall

    ok = [s for s in p["samples"] if s.error is None]
    walls = [t(s) for s in ok] or [math.nan]
    busy = sum(walls)
    tl = tail(walls)
    return {
        "solves_per_s": len(ok) / busy,
        "solve_p50_s": median(walls),
        "solve_tail_s": tl.value,
        "tail_label": tl.label(),
        "jobs_per_s": sum(s.jobs for s in ok) / busy,
        # a request's wall: its samples' time in the call, checks excluded
        "race_wall_s": median([
            sum(t(s) for s in got if s.error is None)
            for got in p["per_request"]
        ]),
        "race_norm_makespan": median([s.norm for s in ok] or [math.nan]),
        "raw_busy_s": sum(cal.net(s.start, s.wall) if cal else s.wall for s in ok),
    }


def record_reference() -> int:
    from harness.verify import Reference
    from harness.workloads import WORKLOADS

    ref = Reference(REFERENCE, recording=True)
    for name, cls in WORKLOADS.items():
        wl = cls(ref)
        requests = wl.requests(0) + wl.warmup()
        wl.build(requests)
        failed = [s for s in run_pass(wl, requests)["samples"] if s.error]
        for s in failed:
            print(f"{name}/{s.key} FAILED\n{s.error}", file=sys.stderr)
        if failed:
            return 1
        print(f"{name}: {len(ref.entries.get(name, {}))} reference entries")
    ref.save()
    return 0


def set_up(wl, requests, warmups, samples, cal):
    """Set-up time: a cold ``import repro.cli`` in a fresh interpreter,
    then input generation, workload and pack builds and the warm-up
    requests.  Each part runs SETUP_REPEATS times; medians are added."""
    from harness.stats import median

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        return cal.scale(t0, wall) if cal else wall

    def build_and_warm_up():
        wl.build(requests + warmups)
        for req in warmups:
            samples.extend(run_request(wl, req))

    import_s = median([import_seconds(cal is not None) for _ in range(SETUP_REPEATS)])
    build_s = median([timed(build_and_warm_up) for _ in range(SETUP_REPEATS)])
    return import_s, build_s


def measure(wl, requests, seconds, trace, cal):
    """Untraced passes (as many whole ones as fit in *seconds*, at least
    one), then with *trace* one traced pass; returns both and the peak
    resident memory of the process tree."""
    from harness.env import TreeRssSampler, self_peak_rss_mb
    from harness.layers import PROBES
    from harness.trace import Tracer, installed

    passes, traced = [], None
    with TreeRssSampler() if wl.forks else contextlib.nullcontext() as sampler:
        t0 = time.perf_counter()
        while True:
            passes.append(run_pass(wl, requests))
            elapsed = time.perf_counter() - t0
            if trace or elapsed + elapsed / len(passes) > seconds:
                break
        if trace:
            tracer = Tracer()
            probes = [
                p for p in PROBES
                if wl.traced_spans is None or p.span in wl.traced_spans
            ]
            if cal:
                cal.on_walk = tracer.exclude
            try:
                with installed(tracer, probes):
                    traced = run_pass(wl, requests, tracer)
            finally:
                if cal:
                    cal.on_walk = None
            traced["tracer"] = tracer
    peak = max(self_peak_rss_mb(), sampler.peak_mb if sampler is not None else 0.0)
    return passes, traced, peak


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if sys.flags.optimize:
        print("perfbench: run without -O (output checks use assert)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    if args.record_reference:
        return record_reference()

    from harness.calibrate import PERIOD, REFERENCE_S, Calibrator
    from harness.env import environment
    from harness.layers import metric_units, per_layer
    from harness.stats import median
    from harness.verify import Reference
    from harness.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](Reference(REFERENCE))
    # work-bound times are sampled against the calibration walk
    cal = None if wl.deadline_bound else Calibrator()
    requests = wl.requests(args.seed)
    samples = []
    with cal.sampling() if cal else contextlib.nullcontext():
        import_s, build_s = set_up(wl, requests, wl.warmup(), samples, cal)
        passes, traced, peak_rss_mb = measure(wl, requests, args.seconds, args.trace, cal)

    per_pass = [pass_metrics(p, cal) for p in passes]
    for p in passes + ([traced] if traced else []):
        samples.extend(p["samples"])
    attempted = len(samples)
    failed = sum(1 for s in samples if s.error is not None)
    for s in samples:
        if s.error is not None:
            print(f"FAILED {args.workload}/{s.key}:\n{s.error}", file=sys.stderr)

    env = environment(ROOT)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"{len(requests)} requests and {len(passes[0]['samples'])} samples per pass")
    print(f"  tail: {per_pass[0]['tail_label']}; failed_frac={failed / attempted:g} "
          f"({failed} of {attempted})")
    raw_busy = median([m["raw_busy_s"] for m in per_pass])
    if cal:
        print(f"  times in reference-host seconds; raw busy time per pass "
              f"{raw_busy:.4g} s; calibration walk every {PERIOD} s, median "
              f"{median(cal.durations):.4g} s (reference {REFERENCE_S} s)")
    else:
        print(f"  times in raw wall seconds; busy time per pass {raw_busy:.4g} s")

    if traced is None:
        units = dict(E2E_UNITS)
        values = {key: median([m[key] for m in per_pass]) for key in units
                  if key in per_pass[0]}
        values["setup_s"] = import_s + build_s
        values["peak_rss_mb"] = peak_rss_mb
        values["verified_frac"] = (attempted - failed) / attempted
    else:
        units = metric_units()
        overhead = (per_pass[0]["solves_per_s"]
                    / pass_metrics(traced, cal)["solves_per_s"])
        values = per_layer(traced["tracer"], traced["samples"], import_s, overhead)
    for name, unit in units.items():
        print(f"  {name:<44} {values[name]:>14.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced is not None:
        traced["tracer"].dump(str(OUT / f"{stem}.spans.npz"))
    (OUT / f"{stem}.json").write_text(json.dumps({
        "env": env,
        "args": vars(args),
        "setup": {"import_s": import_s, "build_and_warmup_s": build_s},
        "passes": per_pass,
        "result": result,
    }, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
