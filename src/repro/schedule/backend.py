"""Simulator backends: one cost model per network assumption.

The paper's model (and :class:`~repro.schedule.simulator.Simulator`)
assumes a fully connected, contention-free network.  Realistic models —
starting with the one-NIC-per-machine serialisation of
:class:`~repro.extensions.contention.ContentionSimulator` — change the
cost of the *same* schedule string, and therefore change what the
optimisers should optimise.  This module makes the choice a first-class,
string-keyed parameter:

* :class:`SimulatorBackend` — the structural protocol every backend
  implements: ``makespan`` / ``evaluate`` plus the incremental tier
  (``prepare`` → delta state → ``evaluate_delta``) that the SE allocator
  and the GA offspring loop run on;
* :func:`network_table` — the closed table of shipped network models,
  each with its scalar backend, NumPy batch kernel and compiled kernel;
* :func:`make_simulator` — ``(workload, network)`` → backend instance.

Because the selector is a plain string, it travels everywhere the
algorithms do: ``SEConfig(network="nic")``, ``GAConfig(network="nic")``,
``heft(w, network="nic")``, ``AlgorithmSpec.make("se", network="nic")``,
``repro sweep --network nic``.

The **platform** axis works the same way, orthogonally to the network:
a :class:`~repro.model.platform.PlatformSpec` (instance catalog with
speed factors, $/hour prices and boot delays) looked up by name in
:data:`PLATFORMS`.  ``make_simulator(w, network, platform="cloud")``
scales the execution-time matrix by instance speed, folds boot delays
into the initial availability, and attaches the billing table so the
backend's ``score`` / ``batch_scores`` report dollar cost next to
makespan.  The default ``"uniform"`` platform changes *nothing* — same
workload object, no billing table — so it is bit-identical to the
historical ETC path (golden-pinned).

>>> from repro.schedule.backend import available_networks, make_simulator
>>> available_networks()
['contention-free', 'nic']
>>> available_platforms()
['cloud', 'spot', 'uniform']
>>> from repro.workloads import small_workload
>>> w = small_workload(seed=1)
>>> type(make_simulator(w, "contention-free")).__name__
'Simulator'
>>> type(make_simulator(w, "nic")).__name__
'ContentionSimulator'
>>> make_simulator(w, "contention-free", platform="spot").cost_model.is_free
False
>>> make_simulator(w, "contention-free").cost_model is None
True
"""

from __future__ import annotations

from functools import lru_cache
from typing import (
    Any,
    Dict,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.model.platform import (
    CLOUD_PLATFORM,
    SPOT_PLATFORM,
    UNIFORM_PLATFORM,
    PlatformSpec,
)
from repro.model.workload import Workload
from repro.schedule.encoding import ScheduleString
from repro.schedule.simulator import Schedule, Simulator

#: The paper's model; the default everywhere a ``network`` is accepted.
DEFAULT_NETWORK = "contention-free"

#: The built-in NIC-serialisation model (see ``repro.extensions.contention``).
NIC_NETWORK = "nic"

#: The identity platform; the default everywhere a ``platform`` is accepted.
DEFAULT_PLATFORM = "uniform"


@runtime_checkable
class SimulatorBackend(Protocol):
    """What every schedule-cost backend must offer.

    The contract mirrors :class:`~repro.schedule.simulator.Simulator`:

    * ``makespan`` / ``string_makespan`` — scalar cost of a string;
    * ``evaluate`` — full evaluation; the result must expose ``makespan``
      and per-task ``start`` / ``finish`` / ``order`` / ``machine_of``
      (richer backends may return a wrapper, e.g.
      :class:`~repro.extensions.contention.ContentionSchedule`);
    * ``prepare`` / ``evaluate_delta`` — the incremental tier: a
      per-position snapshot of the evaluation state such that a string
      sharing a prefix with the base can be re-scored suffix-only, with
      ``cutoff`` branch-and-bound pruning.  ``evaluate_delta`` results
      must be **bit-identical** to a full ``makespan`` call on the same
      string (property-tested for both built-in backends).

    The delta state is backend-specific; callers treat it as opaque
    apart from ``makespan`` / ``pos_of`` / ``as_schedule()``.
    """

    @property
    def workload(self) -> Workload: ...

    def makespan(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> float: ...

    def string_makespan(self, string: ScheduleString) -> float: ...

    def evaluate(self, string: ScheduleString) -> Any: ...

    def prepare(
        self, order: Sequence[int], machine_of: Sequence[int]
    ) -> Any: ...

    def evaluate_delta(
        self,
        order: Sequence[int],
        machine_of: Sequence[int],
        first_changed: int,
        state: Any,
        cutoff: float = float("inf"),
        region_end: Optional[int] = None,
    ) -> float: ...


class NetworkImpl(NamedTuple):
    """One network model's implementation on each evaluation tier."""

    #: The scalar :class:`SimulatorBackend` class.
    backend: type
    #: The NumPy batch kernel (a :class:`~repro.schedule.vectorized.BatchKernel`).
    kernel: type
    #: The compiled drop-in for ``kernel`` (see :mod:`repro.schedule.jit`).
    jit_kernel: type


@lru_cache(maxsize=None)
def network_table() -> Dict[str, NetworkImpl]:
    """Every network model, keyed by name: the one place the mapping
    from network to implementation is written.

    Built on first use: the NIC backend lives one layer up
    (:mod:`repro.extensions.contention`), and importing it here lazily
    keeps :mod:`repro.schedule` free of an import-time dependency on the
    extension layer.
    """
    from repro.extensions.contention import ContentionSimulator
    from repro.schedule.jit import JitBatchSimulator, JitContentionBatchSimulator
    from repro.schedule.vectorized import BatchSimulator
    from repro.schedule.vectorized_contention import ContentionBatchSimulator

    return {
        DEFAULT_NETWORK: NetworkImpl(
            Simulator, BatchSimulator, JitBatchSimulator
        ),
        NIC_NETWORK: NetworkImpl(
            ContentionSimulator,
            ContentionBatchSimulator,
            JitContentionBatchSimulator,
        ),
    }


def _network(network: str) -> NetworkImpl:
    try:
        return network_table()[network.lower()]
    except KeyError:
        raise ValueError(
            f"unknown network model {network!r}; available: "
            f"{', '.join(available_networks())}"
        ) from None


#: The built-in platform catalogs (see ``repro.model.platform``), by name.
PLATFORMS: Dict[str, PlatformSpec] = {
    spec.name: spec for spec in (UNIFORM_PLATFORM, CLOUD_PLATFORM, SPOT_PLATFORM)
}


def available_platforms() -> list[str]:
    """All platform names, sorted."""
    return sorted(PLATFORMS)


def resolve_platform(platform) -> PlatformSpec:
    """*platform* (name or spec object) as a
    :class:`~repro.model.platform.PlatformSpec`.

    Raises
    ------
    ValueError
        If a string names no platform.
    """
    if not isinstance(platform, str):
        return platform  # an ad-hoc PlatformSpec, used directly
    try:
        return PLATFORMS[platform.lower()]
    except KeyError:
        raise ValueError(
            f"unknown platform {platform!r}; available: "
            f"{', '.join(available_platforms())}"
        ) from None


def platform_cost_vectorized(platform) -> bool:
    """Whether *platform*'s cost path stays vectorized in the batch tier.

    Boot delays become initial machine state, and initial state always
    routes batch evaluation through the sequential kernel (the
    vectorized kernels pack idle machines) — so only zero-boot platforms
    keep the one-gather vectorized cost column.  Surfaced by ``repro
    algorithms`` / ``repro run --verbose`` next to the per-network batch
    modes.

    >>> platform_cost_vectorized("uniform"), platform_cost_vectorized("spot")
    (True, True)
    >>> platform_cost_vectorized("cloud")  # 0.3 boot on every tier
    False
    """
    return not resolve_platform(platform).has_boot


def platform_state(
    workload: Workload,
    platform,
    network: str = DEFAULT_NETWORK,
    initial_avail: Optional[Sequence[float]] = None,
    initial_nic_free: Optional[Sequence[float]] = None,
):
    """Resolve *platform* into plain simulator inputs.

    Returns ``(workload, initial_avail, initial_nic_free)`` with the
    execution-time matrix speed-scaled and boot delays folded into the
    initial state (NIC state too under NIC-style networks — an unbooted
    machine's NIC is down).  The uniform platform returns the inputs
    unchanged (same objects), preserving bit-identity.

    This is the entry point the incremental baselines (HEFT, min-min,
    OLB, ...) use so their EFT decision phase sees exactly the machine
    model their reported schedule is measured under.

    Raises
    ------
    ValueError
        If ``initial_nic_free`` is given for a network other than
        ``"nic"`` (only the NIC model has NIC state), or *platform*
        names no platform.
    """
    nic = network.lower() == NIC_NETWORK
    if initial_nic_free is not None and not nic:
        raise ValueError(
            f"initial_nic_free applies only to the {NIC_NETWORK!r} "
            f"network, not {network!r}"
        )
    spec = resolve_platform(platform)
    if spec.is_uniform:
        return workload, initial_avail, initial_nic_free
    bound = spec.bind(workload.num_machines)
    workload = bound.apply(workload)
    if bound.has_boot:
        initial_avail = bound.combine_avail(initial_avail)
        if nic:
            initial_nic_free = bound.combine_avail(initial_nic_free)
    return workload, initial_avail, initial_nic_free


def available_networks() -> list[str]:
    """All network-model names, sorted."""
    return sorted(network_table())


def batch_kernel_factory(network: str) -> type:
    """The batch-kernel class of *network*'s active tier.

    The compiled kernel when :func:`~repro.schedule.jit.jit_selected`
    (numba importable, or ``REPRO_KERNEL=jit`` forcing it), else the
    NumPy kernel.  For callers that build kernels directly against
    pre-packed tensors (the scenario tier constructs one kernel per
    sampled scenario, sharing DAG-structure tables across them);
    everyone else calls a backend's ``batch_*`` methods, which build
    the kernel on first use.

    Raises
    ------
    ValueError
        If *network* names no network model, ``REPRO_KERNEL`` is set to
        an unknown mode, or it demands ``jit`` on an installation
        without numba.
    """
    from repro.schedule.jit import jit_selected

    impl = _network(network)
    return impl.jit_kernel if jit_selected() else impl.kernel


def kernel_tier(network: str) -> str:
    """The tier an idle backend of *network* runs its batch calls on.

    ``"jit"`` when the compiled tier is selected, else ``"vectorized"``
    (see :func:`batch_kernel_factory`).  Backends constructed with
    initial machine state run ``"sequential"`` regardless of this answer
    (the kernels pack idle machines); a backend's own ``kernel_tier``
    knows which.  Surfaced by ``repro algorithms`` and ``repro run
    --verbose`` so the active tier is visible, not guessed.

    Raises
    ------
    ValueError
        As :func:`batch_kernel_factory`.
    """
    return batch_kernel_factory(network).kernel_tier


def make_simulator(
    workload: Workload,
    network: str = DEFAULT_NETWORK,
    initial_avail: Optional[Sequence[float]] = None,
    initial_nic_free: Optional[Sequence[float]] = None,
    platform=DEFAULT_PLATFORM,
) -> SimulatorBackend:
    """A simulator backend for *workload* under the *network* model.

    Besides the scalar and incremental tiers, every backend scores
    batches: ``batch_makespans(orders, machines)`` /
    ``batch_string_makespans(strings)`` and the ``batch_scores`` pair
    run on a kernel the backend builds on its first batch call —
    compiled :mod:`~repro.schedule.jit` kernels when numba imports
    (override with ``REPRO_KERNEL=numpy|jit``), else the NumPy kernel
    (:class:`~repro.schedule.vectorized.BatchSimulator` for
    ``"contention-free"``, :class:`~repro.schedule.vectorized_contention.
    ContentionBatchSimulator` for ``"nic"``).  All tiers are
    bit-identical; a backend never asked for a batch never packs one.

    ``initial_avail`` (and, for ``"nic"`` only, ``initial_nic_free``)
    construct the backend against machines that are already busy with
    earlier work — the substrate of the online scheduling service
    (:mod:`repro.online`).  Because the vectorized kernels pack
    idle-machine state, batch calls with initial state always run the
    :class:`~repro.schedule.vectorized.SequentialBatchKernel`
    (``kernel_tier`` reports ``"sequential"``), keeping results exact.

    ``platform`` selects a :class:`~repro.model.platform.PlatformSpec`
    by name (or takes one directly): the backend is built against the
    speed-scaled execution matrix, with boot delays as initial state (so
    platforms with boot also take the sequential kernel) and the billing
    table attached — its ``score`` / ``string_score`` and
    ``batch_scores`` then report dollar cost next to makespan.  The
    default ``"uniform"`` platform leaves the workload object and the
    initial state untouched and attaches no billing table, so it is
    bit-identical to the historical path.

    Raises
    ------
    ValueError
        If *network* names no network model, *platform* no platform, or
        ``initial_nic_free`` is given for a network other than ``"nic"``.
    """
    impl = _network(network)
    key = network.lower()
    spec = resolve_platform(platform)
    workload, initial_avail, initial_nic_free = platform_state(
        workload, spec, key, initial_avail, initial_nic_free
    )
    cost_model = None
    if not spec.is_uniform:
        from repro.schedule.scoring import CostModel

        cost_model = CostModel(
            workload.exec_times.values, spec.bind(workload.num_machines).prices
        )
    nic_state = {"initial_nic_free": initial_nic_free} if key == NIC_NETWORK else {}
    return impl.backend(
        workload, initial_avail=initial_avail, cost_model=cost_model, **nic_state
    )


def plain_schedule(evaluated: Any) -> Schedule:
    """The plain :class:`Schedule` inside a backend's ``evaluate`` result.

    ``Simulator.evaluate`` already returns one; wrapper results (e.g.
    ``ContentionSchedule``) are unwrapped via their ``schedule``
    attribute.
    """
    inner = getattr(evaluated, "schedule", evaluated)
    if not isinstance(inner, Schedule):
        raise TypeError(
            f"cannot extract a Schedule from {type(evaluated).__name__}"
        )
    return inner
