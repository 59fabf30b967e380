"""Wake-driven budget retries in IOCost (docs/PERF.md, "Parked groups").

A group whose head bio blocks on budget is parked with its wake armed;
``pump()`` skips it until the wake fires, hweights or vrate change, or its
budget test passes.  These tests pin both halves of that contract: the work
per bio stays flat with several blocked tenants, and every issue decision
matches the retry-every-group behaviour it replaced.
"""

import pytest

from repro.block.bio import IOOp
from repro.core.controller import IOCost
from repro.core.debt import SwapChargeMode
from repro.core.qos import QoSParams
from repro.obs.prof import PROF
from repro.obs.trace import TRACE
from repro.testbed import Testbed
from repro.workloads.memleak import MemoryLeaker
from repro.workloads.rcbench import WebServer

#: vrate pinned below device capacity, so every saturating tenant binds on
#: budget (the host-mixed shape, shorter).
PINNED_QOS = QoSParams(
    read_lat_target=400e-6, read_pct=90, vrate_min=0.8, vrate_max=0.8, period=0.025
)
STOP = 0.04
DRAINED = 0.06


def saturating_rig():
    """Four weighted tenants, all blocked on budget most of the time; the
    workloads stop at STOP and everything has completed by DRAINED."""
    bed = Testbed("ssd_new", "iocost", seed=7, qos=PINNED_QOS)
    a = bed.add_cgroup("workload.slice/a", weight=400)
    b = bed.add_cgroup("workload.slice/b", weight=200)
    c = bed.add_cgroup("workload.slice/c", weight=100)
    d = bed.add_cgroup("workload.slice/d", weight=100)
    workloads = {
        "a": bed.saturate(a, depth=32, stop_at=STOP),
        "b": bed.saturate(b, depth=32, stop_at=STOP),
        "c": bed.saturate(c, depth=32, op=IOOp.WRITE, stop_at=STOP),
        "d": bed.saturate(d, depth=8, size=128 * 1024, sequential=True, stop_at=STOP),
    }
    return bed, workloads


def test_throttled_counts_bios_not_retries():
    bed, _ = saturating_rig()
    bed.run(DRAINED)
    bed.detach()
    layer = bed.layer
    assert layer.submitted_ios == layer.completed_ios
    throttled = bed.controller.throttled_by_cgroup
    assert set(throttled) == set(layer.completed_by_cgroup)
    for path, completed in layer.completed_by_cgroup.items():
        assert throttled[path] <= completed, path
    assert bed.controller.throttled_ios == sum(throttled.values())


def test_blocked_tenants_do_not_multiply_heap_work(monkeypatch):
    counts = {"scheduled": 0, "dispatched": 0}
    wake = IOCost._wake

    def counting_wake(self, group):
        counts["dispatched"] += 1
        wake(self, group)

    monkeypatch.setattr(IOCost, "_wake", counting_wake)
    bed, _ = saturating_rig()
    schedule = bed.sim.schedule

    def counting_schedule(delay, callback, *args):
        if getattr(callback, "__func__", None) is counting_wake:
            counts["scheduled"] += 1
        return schedule(delay, callback, *args)

    monkeypatch.setattr(bed.sim, "schedule", counting_schedule)
    PROF.reset()
    with PROF:
        bed.run(DRAINED)
    bed.detach()
    bios = PROF.bios_completed
    assert bios == bed.layer.completed_ios > 5000
    # Retrying every blocked group on every pump re-armed its wake each
    # time: 7.6 heap pushes per bio here, 10.7 on four weighted tenants.
    assert PROF.heap_pushes / bios <= 3.5
    assert counts["dispatched"] > 0
    # Retrying every group left ~6 cancelled wakes per bio in the heap.
    # Now a wake is cancelled only when its group is retried early: after
    # an hweight/vrate change, at a planning tick, or when the budget test
    # passes within its 1e-12 slack a few femtoseconds before the wake.
    assert counts["scheduled"] - counts["dispatched"] <= 0.1 * bios


#: Recorded from the retry-every-group implementation on this rig.
RETRY_ALL_EVENTS = 22800
RETRY_ALL_COMPLETED = {
    "workload.slice/a": 5570,
    "workload.slice/b": 2801,
    "workload.slice/c": 1160,
    "workload.slice/d": 90,
}
RETRY_ALL_BYTES = {
    "workload.slice/a": 22814720,
    "workload.slice/b": 11472896,
    "workload.slice/c": 4751360,
    "workload.slice/d": 11796480,
}
RETRY_ALL_LATENCY_SUMS = {
    "a": 1.2851321531746116,
    "b": 1.2902979830197352,
    "c": 1.2877662246119324,
    "d": 0.33311286337449925,
}


def test_issue_decisions_match_retrying_every_group():
    bed, workloads = saturating_rig()
    bed.run(DRAINED)
    bed.detach()
    assert bed.sim.events_processed == RETRY_ALL_EVENTS
    assert dict(bed.layer.completed_by_cgroup) == RETRY_ALL_COMPLETED
    assert dict(bed.layer.bytes_by_cgroup) == RETRY_ALL_BYTES
    # A wake fires at its first-armed time rather than at a re-armed one,
    # which can move a latency by its last bit; nothing else may differ.
    for name, expected in RETRY_ALL_LATENCY_SUMS.items():
        assert sum(workloads[name].latencies) == pytest.approx(expected, rel=1e-12)


def test_planning_tick_counts_groups_that_stay_blocked():
    # vrate pinned above device capacity and no donation: the heavy tenant
    # never waits on budget, and no planning tick bumps the tree
    # generation.  The weight-1 tenant's 1 MiB bios put it in debt for many
    # periods, so it stays parked across ticks; each period must still
    # report it as budget-blocked (the vrate loop's budget_starved input).
    qos = QoSParams(
        read_lat_target=400e-6, read_pct=90, vrate_min=2.0, vrate_max=2.0, period=0.005
    )
    bed = Testbed("ssd_new", "iocost", seed=3, qos=qos, donation_enabled=False)
    light = bed.add_cgroup("workload.slice/light", weight=1)
    heavy = bed.add_cgroup("workload.slice/heavy", weight=1000)
    events = []
    subscription = TRACE.subscribe(
        events.append, ["bio_throttle", "bio_issue", "qos_period"]
    )
    try:
        bed.saturate(light, depth=2, size=1024 * 1024, sequential=True, stop_at=0.06)
        bed.saturate(heavy, depth=32, stop_at=0.06)
        bed.run(0.06)
    finally:
        subscription.close()
    bed.detach()

    first_throttle, issued, periods = {}, {}, []
    for event in events:
        if event.name == "bio_throttle":
            first_throttle.setdefault(event.fields["id"], event.time)
        elif event.name == "bio_issue":
            issued[event.fields["id"]] = event.time
        else:
            periods.append((event.time, event.fields["budget_blocked"]))
    spanning = 0
    for (start, _), (end, blocked) in zip(periods, periods[1:]):
        stays_blocked = any(
            throttled_at < start and issued.get(bio_id, float("inf")) > end
            for bio_id, throttled_at in first_throttle.items()
        )
        if stays_blocked:
            spanning += 1
            assert blocked > 0, f"period ending at {end} reported no blocked group"
    assert spanning >= 5


# Pinned values for the two issue-path features the rigs above leave out:
# a free vrate with donation (rescinds, vrate moving both ways) and §3.5
# debt-charged swap.  Recorded before the pump kept its cached group order
# and inline parked test; any issue decision that moves changes them.

FREE_QOS = QoSParams(
    read_lat_target=120e-6, read_pct=90, vrate_min=0.5, vrate_max=2.0, period=0.01
)
DONATING_EVENTS = 46102
DONATING_COMPLETED = {
    "workload.slice/heavy": 9319,
    "workload.slice/light": 3993,
    "workload.slice/writer": 4740,
}
DONATING_BYTES = {
    "workload.slice/heavy": 38170624,
    "workload.slice/light": 16355328,
    "workload.slice/writer": 19415040,
}
DONATING_LATENCY_SUMS = {
    "heavy": 2.567843605630074,
    "light": 0.022501158929663572,
    "burst": 0.4044862321175383,
    "writer": 0.6407456780523947,
}
DONATING_VRATES = [
    0.8524349410993233, 0.8972999379992878, 0.95, 0.9610983684743161,
    0.9974999999999999, 1.0265779245423035, 1.047375, 1.0969943906250001,
    1.09974375, 1.1547309375,
]


def test_free_vrate_with_donation_matches_pinned_values():
    bed = Testbed("ssd_new", "iocost", seed=11, qos=FREE_QOS)
    heavy = bed.add_cgroup("workload.slice/heavy", weight=100)
    light = bed.add_cgroup("workload.slice/light", weight=400)
    writer = bed.add_cgroup("workload.slice/writer", weight=100)
    workloads = {
        "heavy": bed.saturate(heavy, depth=32, stop_at=0.08),
        # A trickle makes light a donor; a burst mid-period rescinds.
        "light": bed.paced(light, rate=5000, stop_at=0.05),
        "writer": bed.saturate(writer, depth=8, op=IOOp.WRITE, stop_at=0.08),
    }

    def burst():
        workloads["burst"] = bed.saturate(light, depth=16, stop_at=0.08)

    bed.sim.schedule(0.055, burst)
    bed.run(0.1)
    bed.detach()
    ctl = bed.controller
    assert ctl.rescinds == 2
    assert ctl.donation_passes == 8
    assert sorted(set(ctl.vrate_ctl.vrate_series.values)) == DONATING_VRATES
    assert bed.sim.events_processed == DONATING_EVENTS
    assert dict(bed.layer.completed_by_cgroup) == DONATING_COMPLETED
    assert dict(bed.layer.bytes_by_cgroup) == DONATING_BYTES
    for name, expected in DONATING_LATENCY_SUMS.items():
        assert sum(workloads[name].latencies) == pytest.approx(expected, rel=1e-12)


MB = 1 << 20
SWAP_EVENTS = 14239
SWAP_COMPLETED = {"system.slice": 1988, "workload.slice/web": 3898}
SWAP_BYTES = {"system.slice": 128928763, "workload.slice/web": 142309651}


def test_debt_charged_swap_matches_pinned_values():
    qos = QoSParams(
        read_lat_target=5e-3, read_pct=90, vrate_min=0.4, vrate_max=2.0, period=0.05
    )
    bed = Testbed(
        "ssd_new", "iocost", seed=5, qos=qos, mem_bytes=256 * MB,
        swap_bytes=2048 * MB, protected={"workload.slice/web": 64 * MB},
    )
    web_cg = bed.add_cgroup("workload.slice/web", weight=500)
    system = bed.cgroups.lookup("system.slice")
    web = WebServer(
        bed.sim, bed.layer, bed.mm, web_cg, working_set=160 * MB, load=0.9,
        workers=4, touch_per_request=512 * 1024, stop_at=1.0, seed=5,
    ).start()
    leaker = MemoryLeaker(
        bed.sim, bed.layer, bed.mm, system, rate_bps=512 * MB, chunk=8 * MB,
        stop_at=1.0, seed=6,
    ).start()
    bed.run(1.2)
    bed.detach()
    ctl = bed.controller
    assert ctl.swap_mode is SwapChargeMode.DEBT
    assert ctl.urgent_ios == 3332
    assert ctl.debt_charged == pytest.approx(0.12471874722221758, rel=1e-12)
    assert bed.sim.events_processed == SWAP_EVENTS
    assert dict(bed.layer.completed_by_cgroup) == SWAP_COMPLETED
    assert dict(bed.layer.bytes_by_cgroup) == SWAP_BYTES
    assert (leaker.allocated, leaker.killed) == (251658240, False)
    assert web.requests_done == 766
    assert sum(web.request_latencies) == pytest.approx(4.929060261045263, rel=1e-12)
