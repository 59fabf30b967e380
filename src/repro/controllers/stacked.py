"""Stacked IO control: a cgroup gate above a classic scheduler.

In the kernel, IOCost is not an IO scheduler — it is an ``rq_qos`` policy
that throttles bios *before* they reach whatever scheduler the device uses
(commonly ``none`` or ``mq-deadline``; see the paper's Figure 2).  This
module reproduces that stacking: a *gate* controller (IOCost, blk-throttle)
meters bios by cgroup policy, and a *scheduler* controller (mq-deadline,
kyber) orders the metered stream for the device.

The gate runs against a shim that looks like a block layer but whose
``dispatch`` feeds the scheduler's queue instead of the device, so both
components run unmodified.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.block.bio import Bio
from repro.cgroup import Cgroup
from repro.controllers.base import Features, IOController

if TYPE_CHECKING:  # pragma: no cover
    from repro.block.layer import BlockLayer


class _GateShim:
    """Adapter: presents the scheduler's queue to the gate as a layer.

    The gate throttles by its own budgets; request slots and device
    backpressure are the scheduler's concern, so ``can_dispatch`` is always
    true here and ``dispatch`` simply hands the bio down.
    """

    #: The same fact for callers that inline the slot test as
    #: ``inflight < nr_slots`` (IOCost's pump).
    inflight = 0
    nr_slots = float("inf")

    def __init__(self, stacked: "StackedController", real: "BlockLayer"):
        self._stacked = stacked
        self._real = real

    def can_dispatch(self) -> bool:
        return True

    def dispatch(self, bio: Bio) -> None:
        scheduler = self._stacked.scheduler
        scheduler.enqueue(bio)
        scheduler.pump()

    def __getattr__(self, name):
        # sim, device, latency windows, slot_utilization, stats...
        return getattr(self._real, name)


class StackedController(IOController):
    """Gate (cgroup policy) stacked above a scheduler (device ordering)."""

    name = "stacked"

    def __init__(self, gate: IOController, scheduler: IOController):
        super().__init__()
        self.gate = gate
        self.scheduler = scheduler
        # The stack has the gate's control properties; overhead compounds
        # (the worse of the two low-overhead ratings wins).
        gate_features = gate.features
        rank = ("yes", "partial", "no").index
        worst_overhead = max(
            gate_features.low_overhead,
            scheduler.features.low_overhead,
            key=rank,
        )
        self.features = Features(
            low_overhead=worst_overhead,
            work_conserving=gate_features.work_conserving,
            memory_management_aware=gate_features.memory_management_aware,
            proportional_fairness=gate_features.proportional_fairness,
            cgroup_control=gate_features.cgroup_control,
        )
        self.issue_overhead = gate.issue_overhead + scheduler.issue_overhead

    def attach(self, layer: "BlockLayer") -> None:
        super().attach(layer)
        self.scheduler.attach(layer)
        self.gate.attach(_GateShim(self, layer))

    def detach(self) -> None:
        self.gate.detach()
        self.scheduler.detach()

    def enqueue(self, bio: Bio) -> None:
        self.gate.enqueue(bio)

    def pump(self) -> None:
        self.gate.pump()
        self.scheduler.pump()

    def on_complete(self, bio: Bio) -> None:
        self.gate.on_complete(bio)
        self.scheduler.on_complete(bio)

    def userspace_delay(self, cgroup: Cgroup) -> float:
        """Forward the §3.5 debt hook to the gate when it has one."""
        hook = getattr(self.gate, "userspace_delay", None)
        return hook(cgroup) if hook is not None else 0.0
