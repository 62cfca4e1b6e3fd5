"""Exact values of full evaluation, pinned against a committed golden.

``tests/data/golden_evaluate.json`` holds the complete output of
``evaluate()`` — ``order`` / ``machine_of`` / ``start`` / ``finish`` /
``makespan`` and, under ``"nic"``, every :class:`TransferRecord` field —
for both network models on small workloads and one Fig. 3 instance,
each from idle machines and from busy initial state
(``initial_avail`` / ``initial_nic_free``).  The property suites check
transfer *invariants* (non-overlap, arrival order); this file pins the
values themselves, so any rewrite of full evaluation must reproduce
them bit for bit.

Regenerate (only for an intended semantic change) with::

    PYTHONPATH=src python tests/schedule/test_golden_evaluate.py
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.schedule import make_simulator, random_valid_string
from repro.workloads import (
    WorkloadSpec,
    build_workload,
    figure3_workload,
    small_workload,
)

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_evaluate.json"

#: name -> (workload factory, string seeds)
WORKLOADS = {
    "small-s1": (lambda: small_workload(seed=1), (0, 1)),
    "small-s3": (lambda: small_workload(seed=3), (2,)),
    "spec-12x3": (
        lambda: build_workload(
            WorkloadSpec(num_tasks=12, num_machines=3, seed=5, name="g1")
        ),
        (3, 4),
    ),
    "fig3-s1": (lambda: figure3_workload(seed=1), (5,)),
}

NETWORKS = ("contention-free", "nic")

STATES = ("idle", "busy")


def _state_kwargs(network, state, l):
    """Simulator keywords of one machine-state case."""
    if state == "idle":
        return {}
    kwargs = {"initial_avail": [13.25 * ((3 * m) % l) for m in range(l)]}
    if network == "nic":
        kwargs["initial_nic_free"] = [
            7.5 * ((5 * m + 1) % l) + 0.125 for m in range(l)
        ]
    return kwargs


def _cases():
    for wname, (factory, seeds) in WORKLOADS.items():
        for network in NETWORKS:
            for state in STATES:
                for seed in seeds:
                    yield f"{wname}|{network}|{state}|r{seed}"


def _evaluate(key):
    wname, network, state, r = key.split("|")
    factory, _seeds = WORKLOADS[wname]
    w = factory()
    sim = make_simulator(
        w, network, **_state_kwargs(network, state, w.num_machines)
    )
    string = random_valid_string(w.graph, w.num_machines, int(r[1:]))
    return sim.evaluate(string)


def _record(result):
    doc = {
        "order": list(result.order),
        "machine_of": list(result.machine_of),
        "start": list(result.start),
        "finish": list(result.finish),
        "makespan": result.makespan,
    }
    transfers = getattr(result, "transfers", None)
    if transfers is not None:
        doc["transfers"] = [list(dataclasses.astuple(t)) for t in transfers]
    return doc


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(_cases())


@pytest.mark.parametrize("key", sorted(_cases()))
def test_evaluate_matches_golden(key):
    want = _golden()[key]
    got = _record(_evaluate(key))
    assert got.keys() == want.keys()
    for field in ("order", "machine_of", "start", "finish", "makespan"):
        assert got[field] == want[field], field
    if "transfers" in want:
        assert len(got["transfers"]) == len(want["transfers"])
        assert got["transfers"] == want["transfers"]


if __name__ == "__main__":
    doc = {key: _record(_evaluate(key)) for key in sorted(_cases())}
    GOLDEN_PATH.write_text(json.dumps(doc, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cases to {GOLDEN_PATH}")
