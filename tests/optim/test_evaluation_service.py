"""EvaluationService: routing, fallbacks, and call accounting."""

import pytest

from repro.extensions.contention import ContentionSimulator
from repro.optim import EvaluationService
from repro.schedule import Simulator
from repro.schedule.operations import random_valid_string
from repro.workloads import small_workload


@pytest.fixture(scope="module")
def workload():
    return small_workload(seed=2)


@pytest.fixture(scope="module")
def strings(workload):
    return [
        random_valid_string(workload.graph, workload.num_machines, s)
        for s in range(6)
    ]


class TestRouting:
    def test_contention_free_batch_is_vectorized(self, workload):
        assert EvaluationService(workload).is_vectorized is True

    def test_nic_batch_is_vectorized(self, workload):
        # since the NIC kernel registered, "nic" batches are vectorized
        assert EvaluationService(workload, "nic").is_vectorized is True

    def test_unkernelled_network_falls_back_sequential(self, workload):
        # with initial machine state the service loops the scalar backend
        # and *visibly* reports so — the sequential path must never be silent
        svc = EvaluationService(
            workload, "nic", initial_avail=[0.0] * workload.num_machines
        )
        assert svc.is_vectorized is False
        assert svc.kernel_tier == "sequential"
        ref = ContentionSimulator(workload)
        strings = [
            random_valid_string(workload.graph, workload.num_machines, s)
            for s in range(3)
        ]
        assert svc.batch_string_makespans(strings) == [
            ref.string_makespan(s) for s in strings
        ]
        assert svc.evaluations == len(strings)

    def test_unknown_network_rejected(self, workload):
        with pytest.raises(ValueError, match="unknown network"):
            EvaluationService(workload, "token-ring")

    def test_batch_matches_scalar_reference(self, workload, strings):
        svc = EvaluationService(workload)
        ref = Simulator(workload)
        got = svc.batch_string_makespans(strings)
        assert got == [ref.string_makespan(s) for s in strings]

    def test_batch_matches_scalar_reference_nic(self, workload, strings):
        svc = EvaluationService(workload, "nic")
        ref = ContentionSimulator(workload)
        got = svc.batch_string_makespans(strings)
        assert got == [ref.string_makespan(s) for s in strings]

    def test_batch_without_wrapper_loops_scalar(self, workload, strings):
        svc = EvaluationService(
            workload, initial_avail=[0.0] * workload.num_machines
        )
        ref = Simulator(workload)
        assert svc.batch_string_makespans(strings) == [
            ref.string_makespan(s) for s in strings
        ]
        orders = [list(s.order) for s in strings]
        machines = [list(s.machines) for s in strings]
        assert svc.batch_makespans(orders, machines) == [
            ref.makespan(o, m) for o, m in zip(orders, machines)
        ]

    def test_delta_matches_full(self, workload, strings):
        svc = EvaluationService(workload)
        base = strings[0]
        state = svc.prepare(base.order, base.machines)
        probe = base.copy()
        task = probe.order[-1]
        probe.assign(task, (probe.machine_of(task) + 1) % workload.num_machines)
        got = svc.evaluate_delta(
            probe.order, probe.machines, probe.position_of(task), state
        )
        assert got == svc.string_makespan(probe)


class TestAccounting:
    def test_each_tier_counts_calls(self, workload, strings):
        svc = EvaluationService(workload)
        assert svc.evaluations == 0
        svc.string_makespan(strings[0])
        assert svc.evaluations == 1
        svc.makespan(list(strings[0].order), list(strings[0].machines))
        assert svc.evaluations == 2
        svc.evaluate(strings[0])
        assert svc.evaluations == 3
        state = svc.prepare(strings[0].order, strings[0].machines)
        assert svc.evaluations == 4
        svc.evaluate_delta(strings[0].order, strings[0].machines, 0, state)
        assert svc.evaluations == 5
        svc.batch_string_makespans(strings)
        assert svc.evaluations == 5 + len(strings)

    def test_schedule_of_is_free(self, workload, strings):
        svc = EvaluationService(workload)
        sched = svc.schedule_of(strings[0])
        assert sched.makespan > 0
        assert svc.evaluations == 0

    def test_external_calls_fold_in(self, workload):
        svc = EvaluationService(workload)
        svc.count(17)
        assert svc.evaluations == 17

    def test_empty_batch_counts_nothing(self, workload):
        svc = EvaluationService(workload)
        assert svc.batch_string_makespans([]) == []
        assert svc.evaluations == 0
