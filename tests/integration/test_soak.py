"""Soak: what one host retains is bounded by its configuration, not by how
long it runs.

One iocost host (weighted tenants, device errors, periodic hangs reclaimed
by the block-layer timeout) runs for a base duration and for ``K`` times
that.  Every retained per-bio structure is sampled as the run goes, and the
long run's peaks must stay within a small margin of the short run's:

* latency windows: the registered ones (one tracked cgroup, IOCost's QoS
  windows) hold at most a window's length of samples, and the unregistered
  ones (device-wide, untracked cgroups) hold nothing at all;
* the block layer's armed timeouts and backed-off retries;
* the simulator heap and IOCost's backlogged groups;
* the cgroups' per-device io.stat records.

Sizes are structure lengths, never RSS, which is too noisy to assert on.
"""

from dataclasses import replace
from typing import Dict

from repro.block.bio import IOOp
from repro.block.device_models import get_device_spec
from repro.core.qos import QoSParams
from repro.faults import ErrorBurst, FaultPlan, Hang
from repro.testbed import Testbed

#: A slow device, so a run spans several latency windows (1 s) cheaply,
#: with few request slots, so backed-off retries sometimes find none free.
SPEC = replace(get_device_spec("ssd_new").scaled(0.02), nr_slots=12)
QOS = QoSParams(read_lat_target=2e-3, read_pct=90, vrate_min=0.5, vrate_max=1.5)
BASE = 1.5
K = 4
SAMPLE_EVERY = 0.05
#: Hangs fall in the first BASE seconds of every run: the fault plan is
#: configuration, so it must not grow with the run either.
HANGS = [Hang(start=0.1 + 0.25 * index, duration=0.01) for index in range(5)]


def soak(duration: float) -> Dict[str, int]:
    """Peak size of every retained structure over a ``duration`` run."""
    errors = ErrorBurst(start=0.0, duration=float("inf"), error_rate=0.02)
    plan = FaultPlan([errors, *HANGS])
    bed = Testbed(
        SPEC, "iocost", seed=2, qos=QOS, faults=plan, io_timeout=0.02, max_retries=2
    )
    tracked = bed.add_cgroup("workload.slice/tracked", weight=300)
    quiet = bed.add_cgroup("workload.slice/quiet", weight=100)
    writer = bed.add_cgroup("workload.slice/writer", weight=100)
    bed.track_latency(tracked)
    bed.saturate(tracked, depth=16, stop_at=duration)
    bed.saturate(quiet, depth=16, stop_at=duration)
    bed.saturate(writer, depth=4, op=IOOp.WRITE, stop_at=duration)

    layer, ctl, sim = bed.layer, bed.controller, bed.sim
    peaks: Dict[str, int] = {}

    def sample() -> None:
        sizes = {
            "tracked window": len(layer.cgroup_window(tracked.path)._samples),
            "iocost read window": len(ctl._read_window._samples),
            "iocost write window": len(ctl._write_window._samples),
            "unregistered windows": (
                (0 if layer._device_windows is None else 1)
                + len(set(layer.cgroup_latency) - {tracked.path})
            ),
            "timeouts": len(layer._timeouts),
            "retryq": len(layer._retryq),
            "heap": len(sim._heap),
            "backlogged": len(ctl._backlogged),
            "iostat records": sum(len(cg.stats.per_device) for cg in bed.cgroups),
        }
        for name, size in sizes.items():
            peaks[name] = max(peaks.get(name, 0), size)

    while sim.now < duration:
        bed.run(SAMPLE_EVERY)
        sample()
    bed.detach()
    assert layer.completed_ios > 1000 * duration
    assert layer.requeued_ios > 0 and layer.timed_out_ios > 0
    assert peaks["retryq"] > 0
    return peaks


def test_retained_structures_do_not_grow_with_run_length():
    short, long = soak(BASE), soak(K * BASE)
    assert long["unregistered windows"] == short["unregistered windows"] == 0
    assert long["timeouts"] <= SPEC.nr_slots
    for name, peak in short.items():
        assert long[name] <= 1.5 * peak + 16, (name, peak, long[name])
