"""Output checks applied to every request the benchmark makes.

Each returned schedule is re-simulated from its string under the same
network model (the makespan must match bit for bit) and checked against
every model constraint by :func:`repro.schedule.timeline.verify_schedule`.
Deterministic requests must also reproduce the reference recorded with
the benchmark (``perfbench/reference.json``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Optional, Sequence


class VerificationError(Exception):
    """A request returned an output that fails a check."""


def check_schedule(
    workload: Any,
    network: str,
    order: Sequence[int],
    machines: Sequence[int],
    claimed_makespan: float,
    schedule: Any = None,
) -> None:
    """Re-simulate ``(order, machines)`` and verify the result.

    *schedule*, when given, is the schedule object the program returned
    alongside the string; it must satisfy the model constraints too and
    report the same makespan.
    """
    from repro.schedule.backend import make_simulator, plain_schedule
    from repro.schedule.encoding import ScheduleString
    from repro.schedule.simulator import InvalidScheduleError

    sim = make_simulator(workload, network)
    try:
        string = ScheduleString(list(order), list(machines), workload.num_machines)
        evaluated = sim.evaluate(string)
    except (InvalidScheduleError, ValueError, IndexError) as exc:
        raise VerificationError(f"string does not simulate: {exc}") from None
    resimulated = sim.string_makespan(string)
    if resimulated != claimed_makespan:
        raise VerificationError(
            f"claimed makespan {claimed_makespan!r} but the string "
            f"re-simulates to {resimulated!r}"
        )
    check_constraints(workload, plain_schedule(evaluated))
    if schedule is not None:
        check_constraints(workload, schedule)
        if schedule.makespan != claimed_makespan:
            raise VerificationError(
                f"returned schedule has makespan {schedule.makespan!r}, "
                f"claimed {claimed_makespan!r}"
            )


def check_constraints(workload: Any, schedule: Any) -> None:
    """:func:`verify_schedule` with its failure as a VerificationError."""
    from repro.schedule.timeline import verify_schedule

    try:
        verify_schedule(workload, schedule)
    except AssertionError as exc:
        raise VerificationError(f"schedule violates the model: {exc}") from None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Reference:
    """Recorded outputs of deterministic requests, keyed by workload/key.

    With ``recording`` set, the file is not read, :meth:`check` stores
    what it is given instead of comparing, and :meth:`save` writes it.
    """

    def __init__(self, path: Path, recording: bool = False):
        self.path = path
        self.recording = recording
        self.entries: Dict[str, Dict[str, dict]] = {}
        if not recording:
            self.entries = json.loads(path.read_text())

    def check(self, workload: str, key: str, observed: Dict[str, Any]) -> None:
        if self.recording:
            self.entries.setdefault(workload, {})[key] = observed
            return
        expected: Optional[dict] = self.entries.get(workload, {}).get(key)
        if expected is None:
            raise VerificationError(f"no reference recorded for {workload}/{key}")
        if expected != observed:
            diff = {
                k: (expected.get(k), observed.get(k))
                for k in sorted(set(expected) | set(observed))
                if expected.get(k) != observed.get(k)
            }
            raise VerificationError(
                f"{workload}/{key} differs from the reference "
                f"(expected, observed): {diff}"
            )

    def save(self) -> None:
        self.path.write_text(json.dumps(self.entries, indent=1, sort_keys=True) + "\n")
