"""One-machine workloads: ``host-mixed`` and ``host-memleak``.

An *episode* builds one :class:`repro.testbed.Testbed`, runs its workloads
for a fixed simulated time, drains every queued and in-flight bio, and
checks the block layer's books.  Everything under ``Episode.stats`` is
simulated, so one host seed gives the same stats on every repetition,
traced or not; CPU times (see ``common.CalibratedClock``) are recorded
beside them.

A run simulates a few hosts (``HOSTS``), each from its own seed derived
from ``--seed``, and cycles through them (each followed by its edited-weight
twin) until ``--seconds`` are used.  Simulated metrics pool the first
episode of every host, so they depend on the seed alone.  CPU-time metrics
take each host's median over its episodes, then sum or take percentiles
over hosts or over all measurement-window slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.block.bio import IOOp
from repro.core.controller import IOCost
from repro.core.qos import QoSParams
from repro.obs.metrics import exact_percentile
from repro.obs.prof import PROF
from repro.obs.spans import SpanTracker
from repro.testbed import Testbed
from repro.workloads.memleak import MemoryLeaker
from repro.workloads.rcbench import WebServer

from perfbench.common import (
    CalibratedClock,
    Calibration,
    Result,
    digest,
    failed_frac,
    median,
    repeat_until,
    tail_percentile,
)
from perfbench.tracer import Tracer, coverage_problems, install_host_layers

MB = 1024 * 1024

#: Clock readings per calibration kernel sample in an episode (two
#: readings per window slice).
CLOCK_SAMPLE_EVERY = 4
#: Simulated seconds the drain loop advances per step, and its limit.
DRAIN_STEP = 0.05
DRAIN_LIMIT = 5.0


@dataclass
class Episode:
    """One simulated host: simulated results plus CPU timings."""

    #: Deterministic simulated statistics (the digest input).
    stats: Dict[str, Any]
    #: Measurement-window results pooled across hosts (see pooled_sim_metrics).
    window: Dict[str, Any]
    #: Deterministic per-layer figures (block errors, mm swap, vrate ...).
    layers: Dict[str, float]
    construct_s: float
    run_s: float
    bios_completed: int
    bios_submitted: int
    #: (bios completed, CPU seconds, simulated seconds) per window slice.
    slices: List[Tuple[int, float, float]]
    problems: List[str] = field(default_factory=list)
    #: Factor scaling the CPU times above to the reference speed (see
    #: common.CalibratedClock); the properties below apply it.
    factor: float = 1.0

    @property
    def wall_s(self) -> float:
        return (self.construct_s + self.run_s) * self.factor

    @property
    def window_s(self) -> float:
        return sum(cpu_s for _, cpu_s, _ in self.slices) * self.factor

    @property
    def slice_s(self) -> List[float]:
        return [cpu_s * self.factor for _, cpu_s, _ in self.slices]


def _share_error(usage: Dict[str, float], entitled: Dict[str, float]) -> float:
    """Max relative gap between each cgroup's cost share and its entitled
    share (both normalised over the cgroups given)."""
    total_usage = sum(usage.values())
    total_entitled = sum(entitled.values())
    gaps = []
    for path, used in usage.items():
        share = entitled[path] / total_entitled
        gaps.append(abs(used / total_usage - share) / share)
    return max(gaps)


class _Window:
    """Runs a measurement window in equal slices.

    Each slice is timed on the episode's CPU clock, and between slices
    every watched cgroup's hweight is sampled.  Slicing ``sim.run`` changes no event, so neither
    perturbs the simulation.
    """

    def __init__(self, bed: Testbed, cgroups: List[Any], clock: CalibratedClock) -> None:
        ctl = bed.controller
        if not isinstance(ctl, IOCost):
            raise TypeError("host episodes run under iocost")
        self.bed, self.ctl, self.cgroups, self.clock = bed, ctl, cgroups, clock
        self.slices: List[Tuple[int, float, float]] = []
        self.usage: Dict[str, float] = {}
        self.hweight: Dict[str, float] = {}

    def run(self, duration: float, slices: int) -> None:
        bed, ctl = self.bed, self.ctl
        start = {cg.path: ctl.cost_stat(cg)["cost.usage"] for cg in self.cgroups}
        self.hweight = {cg.path: 0.0 for cg in self.cgroups}
        step = duration / slices
        for _ in range(slices):
            done, sim_start, cpu_start = bed.layer.completed_ios, bed.sim.now, self.clock()
            bed.run(step)
            self.slices.append((
                bed.layer.completed_ios - done,
                self.clock() - cpu_start,
                bed.sim.now - sim_start,
            ))
            for cg in self.cgroups:
                self.hweight[cg.path] += ctl.hweight_of(cg) / slices
        self.usage = {
            cg.path: ctl.cost_stat(cg)["cost.usage"] - start[cg.path] for cg in self.cgroups
        }


def _drain(bed: Testbed) -> List[str]:
    """Run until no bio is queued or in flight, then stop the timers.

    Returns the bookkeeping violations found after the drain: per device,
    submitted must equal completed (terminal failures included) with no
    bio in flight, in the device queue, or waiting on iocost budget.
    """
    def busy() -> bool:
        return any(
            layer.inflight or layer.submitted_ios != layer.completed_ios
            for layer in bed.devices.layers()
        )

    drained = 0.0
    while busy() and drained < DRAIN_LIMIT:
        bed.run(DRAIN_STEP)
        drained += DRAIN_STEP
    bed.detach()
    bed.sim.run()
    problems = []
    for name, layer in bed.devices.items():
        device = layer.device
        if layer.submitted_ios != layer.completed_ios:
            problems.append(
                f"{name}: {layer.submitted_ios} bios submitted but "
                f"{layer.completed_ios} completed"
            )
        if layer.inflight or device.in_flight or device.queue_depth:
            problems.append(
                f"{name}: bios left at drain (layer {layer.inflight}, "
                f"device {device.in_flight}, queued {device.queue_depth})"
            )
        ctl = layer.controller
        if isinstance(ctl, IOCost):
            queued = sum(ctl.stat(cg)["queued"] for cg in bed.cgroups)
            if queued:
                problems.append(f"{name}: {queued} bios left on iocost waitqs")
    if bed.sim.peek() is not None:
        problems.append("simulator heap not empty after the drain")
    return problems


def _book(bed: Testbed) -> Dict[str, Any]:
    layer = bed.layer
    return {
        "now": bed.sim.now,
        "events": bed.sim.events_processed,
        "submitted": layer.submitted_ios,
        "completed": layer.completed_ios,
        "completed_bytes": layer.completed_bytes,
        "errored": layer.errored_ios,
        "requeued": layer.requeued_ios,
        "timed_out": layer.timed_out_ios,
        "by_cgroup": dict(sorted(layer.completed_by_cgroup.items())),
        "bytes_by_cgroup": dict(sorted(layer.bytes_by_cgroup.items())),
        "vrate": list(bed.controller.vrate_ctl.vrate_series.values),  # type: ignore[attr-defined]
    }


def _layer_stats(bed: Testbed) -> Dict[str, float]:
    layer = bed.layer
    series = bed.controller.vrate_ctl.vrate_series.values  # type: ignore[attr-defined]
    return {
        "block.errors": float(layer.errored_ios),
        "block.requeues": float(layer.requeued_ios),
        "block.timeouts": float(layer.timed_out_ios),
        "core.vrate_mean": sum(series) / len(series) if series else 0.0,
    }


def _episode(bed: Testbed, started: float, constructed: float, window: _Window,
             results: Dict[str, Any], stats: Dict[str, Any],
             problems: List[str], layers: Dict[str, float]) -> Episode:
    finished = window.clock()
    results["measure_s"] = sum(sim_s for _, _, sim_s in window.slices)
    stats["book"] = _book(bed)
    stats["window"] = {
        key: {name: sum(lat) for name, lat in value.items()} if key == "reads" else value
        for key, value in results.items()
    }
    return Episode(
        stats=stats,
        window=results,
        layers={**_layer_stats(bed), **layers},
        construct_s=constructed - started,
        run_s=finished - constructed,
        bios_completed=bed.layer.completed_ios,
        bios_submitted=bed.layer.submitted_ios,
        slices=window.slices,
        problems=problems,
        factor=window.clock.factor(),
    )


def pooled_sim_metrics(episodes: List[Episode]) -> Dict[str, float]:
    """The simulated end-to-end metrics over one run's hosts.

    Read latencies are pooled per reading cgroup across the hosts; the
    first reading cgroup is the protected one.
    """
    names = list(episodes[0].window["reads"])
    p99s = {
        name: exact_percentile(
            [lat for ep in episodes for lat in ep.window["reads"][name]], 99
        )
        for name in names
    }
    return {
        "protected_read_p99_sim_ms": p99s[names[0]] * 1e3,
        "share_error": sum(ep.window["share_error"] for ep in episodes) / len(episodes),
        "web_rps_sim": (
            sum(ep.window["served"] for ep in episodes)
            / sum(ep.window["measure_s"] for ep in episodes)
        ),
        "fleet_p99_of_p99_sim_ms": exact_percentile(list(p99s.values()), 99) * 1e3,
    }


# -- host-mixed --------------------------------------------------------------

#: vrate is pinned (min = max): budgets bind at 80% of the device's modelled
#: capacity.  Left free, the QoS loop settles into different latency
#: regimes from seed to seed, and every figure inherits that spread.
MIXED_QOS = QoSParams(
    read_lat_target=400e-6, read_pct=90, vrate_min=0.8, vrate_max=0.8, period=0.025
)
MIXED_WARMUP = 0.05
MIXED_MEASURE = 0.1
MIXED_SLICES = 80
#: The protected reader's open-loop rate: well below its weight share.
PROTECTED_RATE = 20_000


def run_mixed(seed: int, edited: bool = False,
              calibration: Optional[Calibration] = None) -> Episode:
    """Four weighted cgroups on ``ssd_new`` under iocost (callback fast path).

    ``edited`` raises the random reader's weight 200 -> 300: the
    one-cgroup edit whose re-run ``fleet_resweep_s`` times on a host.
    ``calibration``, when given, is sampled during the episode.
    """
    clock = CalibratedClock(calibration, CLOCK_SAMPLE_EVERY)
    started = clock()
    bed = Testbed("ssd_new", "iocost", seed=seed, qos=MIXED_QOS)
    stop = MIXED_WARMUP + MIXED_MEASURE
    protected = bed.add_cgroup("workload.slice/protected", weight=400)
    randread = bed.add_cgroup("workload.slice/randread", weight=300 if edited else 200)
    randwrite = bed.add_cgroup("workload.slice/randwrite", weight=100)
    seqread = bed.add_cgroup("workload.slice/seqread", weight=100)
    workloads = {
        "protected": bed.paced(protected, rate=PROTECTED_RATE, stop_at=stop),
        "randread": bed.saturate(randread, depth=64, stop_at=stop),
        "randwrite": bed.saturate(randwrite, depth=64, op=IOOp.WRITE, stop_at=stop),
        "seqread": bed.saturate(
            seqread, depth=16, size=128 * 1024, sequential=True, stop_at=stop
        ),
    }
    constructed = clock()

    bed.run(MIXED_WARMUP)
    marks = {name: len(wl.latencies) for name, wl in workloads.items()}
    window = _Window(bed, [protected, randread, randwrite, seqread], clock)
    window.run(MIXED_MEASURE, MIXED_SLICES)
    reads = {
        name: workloads[name].latencies[marks[name]:]
        for name in ("protected", "randread")
    }
    problems = _drain(bed)

    completions = sum(wl.completed for wl in workloads.values())
    if completions != bed.layer.completed_ios:
        problems.append(
            f"workloads saw {completions} completions, the block layer "
            f"{bed.layer.completed_ios}"
        )
    results = {
        "reads": reads,
        "served": len(reads["protected"]),
        # The protected reader is in the set: its kept hweight carries
        # iocost's donation headroom, a systematic gap that seed noise
        # cannot swamp (over the saturating cgroups alone it is noise).
        "share_error": _share_error(window.usage, window.hweight),
    }
    stats = {
        "workloads": {
            name: [wl.completed, wl.bytes_done, sum(wl.latencies)]
            for name, wl in sorted(workloads.items())
        },
    }
    return _episode(bed, started, constructed, window, results, stats, problems, {})


# -- host-memleak ------------------------------------------------------------

#: The Figure 14 iocost tuning.
MEMLEAK_QOS = QoSParams(
    read_lat_target=5e-3, read_pct=90, vrate_min=0.4, vrate_max=2.0, period=0.05
)
MEMLEAK_WARMUP = 2.0
MEMLEAK_MEASURE = 3.5
MEMLEAK_SLICES = 28
LEAKERS = 3


def run_memleak(seed: int, edited: bool = False,
                calibration: Optional[Calibration] = None) -> Episode:
    """Figure 14's shape: a protected web server beside memory leakers.

    1 GiB machine, swap on the same SSD, iocost with debt-charged swap.
    ``edited`` raises the web cgroup's weight 500 -> 600.
    ``calibration``, when given, is sampled during the episode.
    """
    clock = CalibratedClock(calibration, CLOCK_SAMPLE_EVERY)
    started = clock()
    bed = Testbed(
        "ssd_new", "iocost", seed=seed, qos=MEMLEAK_QOS,
        mem_bytes=1024 * MB, swap_bytes=8192 * MB,
        protected={"workload.slice/web": 320 * MB},
    )
    stop = MEMLEAK_WARMUP + MEMLEAK_MEASURE
    mm = bed.mm
    if mm is None:
        raise RuntimeError("host-memleak needs a memory manager")
    web_cg = bed.add_cgroup("workload.slice/web", weight=600 if edited else 500)
    system = bed.cgroups.lookup("system.slice")
    web = WebServer(
        bed.sim, bed.layer, mm, web_cg,
        working_set=640 * MB, load=0.9, workers=8,
        touch_per_request=512 * 1024, stop_at=stop, seed=seed,
    ).start()
    leakers = [
        MemoryLeaker(
            bed.sim, bed.layer, mm, system,
            rate_bps=1024 * MB, chunk=8 * MB, stop_at=stop, seed=seed * LEAKERS + index,
        ).start()
        for index in range(LEAKERS)
    ]
    constructed = clock()

    bed.run(MEMLEAK_WARMUP)
    mark = (web.requests_done, len(web.latencies))
    window = _Window(bed, [web_cg, system], clock)
    window.run(MEMLEAK_MEASURE, MEMLEAK_SLICES)
    reads = web.latencies[mark[1]:]
    served = web.requests_done - mark[0]
    problems = _drain(bed)

    # Entitled shares come from the configured slice weights: the web
    # donates what it does not use, so hweights swing with its demand and
    # seed noise dominates their average.  Against the configured shares
    # the figure reads how far the debt-charged swap IO of system.slice
    # runs past its own share.
    entitled = {web_cg.path: web_cg.parent.weight, system.path: system.weight}
    results = {
        "reads": {"web": reads},
        "served": served,
        "share_error": _share_error(window.usage, entitled),
    }
    mem = {
        path: mm.state_of(bed.cgroups.lookup(path))
        for path in ("workload.slice/web", "system.slice")
    }
    layers = {
        "mm.swap_out_bytes": float(sum(s.swapped_out_total for s in mem.values())),
        "mm.swap_in_bytes": float(sum(s.faulted_in_total for s in mem.values())),
        "mm.oom_kills": float(len(mm.oom_kills)),
    }
    stats = {
        "web": [web.requests_done, web.requests_shed, sum(web.request_latencies)],
        "leakers": [[leaker.allocated, leaker.killed] for leaker in leakers],
        "mm": {
            path: [s.resident, s.swapped, s.swapped_out_total, s.faulted_in_total]
            for path, s in mem.items()
        },
        "oom": [[kill.time, kill.cgroup_path, kill.freed_bytes] for kill in mm.oom_kills],
    }
    return _episode(bed, started, constructed, window, results, stats, problems, layers)


#: Episode runners by workload name.
EPISODES: Dict[str, Callable[..., Episode]] = {
    "host-mixed": run_mixed,
    "host-memleak": run_memleak,
}
#: Hosts simulated per run.  host-mixed repeats one machine, so each of
#: its CPU-time figures is a median over several episodes.  host-memleak's
#: trajectories differ from seed to seed (reclaim is chaotic), so its
#: simulated figures pool six hosts.
HOSTS = {"host-mixed": 1, "host-memleak": 6}


# -- measurement -------------------------------------------------------------


def host_seed(seed: int, hosts: int, index: int) -> int:
    return seed * hosts + index


def _check_repeats(result: Result, runs: List[Tuple[int, Episode]]) -> Dict[int, str]:
    """Episodes of one host seed must simulate the same thing; returns the
    digest per host index."""
    digests: Dict[int, str] = {}
    for index, episode in runs:
        found = digest(episode.stats)
        expected = digests.setdefault(index, found)
        result.check(found == expected, f"host {index}: episodes disagree ({expected} vs {found})")
        for problem in episode.problems:
            if problem not in result.problems:
                result.problems.append(problem)
    return digests


def _cycle(seed: int, hosts: int,
           make: Callable[[int], Any]) -> Callable[[], Tuple[int, Any]]:
    """A step that visits host indices 0, 1, ..., hosts-1, 0, ..."""
    count = [0]

    def step() -> Tuple[int, Any]:
        index = count[0] % hosts
        count[0] += 1
        return index, make(host_seed(seed, hosts, index))

    return step


def measure(result: Result, workload: str, seed: int, seconds: float,
            trace: bool, import_s: float, calibration: Calibration) -> None:
    """Fill ``result`` for one host workload run; ``calibration`` is
    sampled during every untraced episode."""
    if trace:
        _measure_traced(result, EPISODES[workload], HOSTS[workload], seed, seconds)
    else:
        _measure(result, EPISODES[workload], HOSTS[workload], seed, seconds, import_s,
                 calibration)


def _slice_profile(runs: List[Tuple[int, Episode]]) -> List[float]:
    """Every host's window slices, each slice's CPU time the median over
    the host's episodes (the same simulated work each time)."""
    slices: Dict[int, List[List[float]]] = {}
    for index, episode in runs:
        slices.setdefault(index, []).append(episode.slice_s)
    return [
        median(list(repeats)) for index in sorted(slices) for repeats in zip(*slices[index])
    ]


def _per_host(runs: List[Tuple[int, Episode]], cost: Callable[[Episode], float]) -> List[float]:
    """Per host index, the median of ``cost`` over its episodes."""
    costs: Dict[int, List[float]] = {}
    for index, episode in runs:
        costs.setdefault(index, []).append(cost(episode))
    return [median(costs[index]) for index in sorted(costs)]


def _measure(result: Result, runner: Callable[..., Episode], hosts: int,
             seed: int, seconds: float, import_s: float, calibration: Calibration) -> None:
    def timed(host_seed: int, edited: bool = False) -> Episode:
        return runner(host_seed, edited=edited, calibration=calibration)

    # Each host's episode is followed by its edited-weight twin, so both
    # see the same machine conditions over the run.
    steps = repeat_until(
        seconds, _cycle(seed, hosts, lambda s: (timed(s), timed(s, edited=True))), hosts
    )
    base = [(index, pair[0]) for index, pair in steps]
    edited = [(index, pair[1]) for index, pair in steps]
    base_digests = _check_repeats(result, base)
    edited_digests = _check_repeats(result, edited)
    episodes = [ep for _, ep in base + edited]
    result.attempted = sum(ep.bios_submitted for ep in episodes)
    result.failed = sum(ep.bios_submitted - ep.bios_completed for ep in episodes)

    first = [ep for _, ep in base[:hosts]]
    # Window bios and simulated seconds are the same in every episode of
    # a host; its window CPU time is the median over them.
    window_s = sum(_per_host(base, lambda ep: ep.window_s))
    slice_s = _slice_profile(base)
    pct, tail = tail_percentile(slice_s)
    walls = _per_host(base, lambda ep: ep.wall_s)
    submitted = sum(ep.bios_submitted for ep in first)
    completed = sum(ep.bios_completed for ep in first)
    result.metrics.update({
        "setup_s": (
            import_s * calibration.factor()
            + median([ep.construct_s * ep.factor for _, ep in base])
        ),
        "host_bios_per_s": sum(bios for ep in first for bios, _, _ in ep.slices) / window_s,
        "sim_speed": sum(sim_s for ep in first for _, _, sim_s in ep.slices) / window_s,
        "fleet_hosts_per_s": len(walls) / sum(walls),
        # The host analogue of per-host time: CPU time per window slice
        # (equal simulated time), over every host's slices.
        "fleet_host_wall_p50_s": median(slice_s),
        "fleet_host_wall_p95_s": tail,
        "fleet_resweep_s": median(_per_host(edited, lambda ep: ep.wall_s)),
        "ops_failed_frac": failed_frac(submitted - completed, submitted),
        **pooled_sim_metrics(first),
    })
    result.notes += [
        f"digest {digest(base_digests, edited_digests)} over {hosts} hosts, "
        f"{len(base)}+{len(edited)} episodes",
        f"{completed} bios per {hosts} hosts; slice CPU tail is p{pct:g} of "
        f"{len(slice_s)} window slices, each the median over its host's "
        f"episodes ({len(base)} in all)",
    ]


def _traced(runner: Callable[..., Episode], seed: int) -> Tuple[Episode, Tracer, Dict[str, int], Dict[str, Any]]:
    """One episode with wrapper spans, PROF counters and bio spans on."""
    tracer = Tracer()
    install_host_layers(tracer)
    spans = SpanTracker(capacity=16)
    PROF.reset()
    PROF.enable()
    spans.attach()
    try:
        episode = runner(seed)
    finally:
        spans.detach()
        PROF.disable()
        tracer.restore()
    counters = {name: getattr(PROF, name) for name in PROF.COUNTERS}
    PROF.reset()
    return episode, tracer, counters, spans.breakdown()


def _stage(breakdown: Dict[str, Any], stage: str, pct: str) -> float:
    summary = breakdown["stages"].get(stage)
    return float(summary[pct]) if summary else 0.0


def _layer_metrics(episode: Episode, tracer: Tracer, prof: Dict[str, int],
                   breakdown: Dict[str, Any]) -> Dict[str, float]:
    bios = prof["bios_completed"] or 1
    pump_calls = tracer.calls("core.pump")
    metrics = {
        "sim.run.self_s": tracer.self_s("sim.run"),
        "sim.events_per_bio": prof["events_dispatched"] / bios,
        "sim.heap_pushes_per_bio": prof["heap_pushes"] / bios,
        "block.submit.calls": float(tracer.calls("block.submit")),
        "block.submit.self_s": tracer.self_s("block.submit"),
        "block.dispatch.self_s": tracer.self_s("block.dispatch"),
        "block.device.self_s": tracer.self_s("block.device"),
        "block.queue_wait_sim_p99_us": _stage(breakdown, "queue_wait", "p99"),
        "block.service_sim_p50_us": _stage(breakdown, "service", "p50"),
        "block.service_sim_p99_us": _stage(breakdown, "service", "p99"),
        "core.enqueue.self_s": tracer.self_s("core.enqueue"),
        "core.pump.calls_per_bio": prof["pump_calls"] / bios,
        "core.pump.self_s": tracer.self_s("core.pump"),
        "core.pump.useful_ratio": (
            tracer.counts["core.pump.useful"] / pump_calls if pump_calls else 0.0
        ),
        "core.throttle_wait_sim_p99_us": _stage(breakdown, "throttle_wait:iocost", "p99"),
        "core.plan_ticks": float(prof["plan_ticks"]),
        "mm.calls": float(tracer.calls("mm")),
        "mm.self_s": tracer.self_s("mm"),
        "mm.swap_out_bytes": 0.0,
        "mm.swap_in_bytes": 0.0,
        "mm.oom_kills": 0.0,
        "workloads.self_s": tracer.self_s("workloads"),
    }
    metrics.update(episode.layers)
    return metrics


#: Layers a host run never enters: reported as zero.
_IDLE_LAYERS = (
    "exp.run_sweep.wall_s", "exp.cache.lookup_s", "exp.store.write_s",
    "exp.cache.hit_ratio", "exp.pool.busy_ratio", "exp.runs.failed",
    "fleet.capacities_s", "fleet.place_s", "fleet.rollup_s",
)


def _measure_traced(result: Result, runner: Callable[..., Episode], hosts: int,
                    seed: int, seconds: float) -> None:
    steps = repeat_until(
        seconds, _cycle(seed, hosts, lambda s: (runner(s), _traced(runner, s))), 1
    )
    per_pair = []
    for index, (plain, (traced, tracer, prof, breakdown)) in steps:
        result.check(
            digest(traced.stats) == digest(plain.stats),
            f"host {index}: the traced episode simulated something else",
        )
        result.problems.extend(
            p for p in coverage_problems(tracer, prof) if p not in result.problems
        )
        metrics = _layer_metrics(traced, tracer, prof, breakdown)
        metrics["obs.trace_overhead_ratio"] = traced.run_s / plain.run_s
        metrics["obs.untraced_wall_s"] = plain.run_s
        per_pair.append(metrics)
    runs = [(index, ep) for index, (plain, traced) in steps for ep in (plain, traced[0])]
    digests = _check_repeats(result, runs)
    result.attempted = sum(ep.bios_submitted for _, ep in runs)
    result.failed = sum(ep.bios_submitted - ep.bios_completed for _, ep in runs)
    result.metrics.update({name: 0.0 for name in _IDLE_LAYERS})
    for name in per_pair[0]:
        result.metrics[name] = median([metrics[name] for metrics in per_pair])
    result.notes.append(
        f"{len(steps)} untraced/traced episode pairs; digests {digests}"
    )
