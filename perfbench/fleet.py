"""The ``fleet-region`` workload: a pooled, cached 200-host region.

Set-up profiles each host group's device and places the region
(``best_fit`` plus a ``balance`` pass).  One *round* then runs every host
through :func:`run_fleet_sweep` into a cold store and checks the result,
edits one workload template's weight and re-sweeps, so only the hosts
carrying that template re-execute.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.exp.cache import ResultCache
from repro.exp.spec import canonical_json
from repro.exp.store import META_FILE, ArtifactStore
from repro.fleet.rollup import fleet_rollup
from repro.fleet import scheduler as fleet_scheduler
from repro.fleet.runner import FleetReport, run_fleet_sweep
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.spec import FleetSpec
from repro.obs.metrics import Histogram

from perfbench.common import (
    CalibratedClock,
    Calibration,
    Result,
    cpu_seconds,
    digest,
    failed_frac,
    median,
    repeat_until,
    tail_percentile,
)
from perfbench.tracer import Tracer, install_fleet_layers

#: Simulated seconds each host runs.
HOST_DURATION = 0.1
#: Devices run at a fraction of catalogue speed, so the placed demand loads
#: the busy hosts to ~0.9 and the brownout backs work up.
DEVICE_SCALE = 0.04
#: The iolatency group gets the largest devices: only they fit a ``db``.
IOLATENCY_SCALE = 0.05
#: Placement passes after ``best_fit``; :func:`setup` runs the same pass.
POLICIES = ("balance",)
#: The template whose weight the re-sweep edits.  Its instances fit only
#: the iolatency group's hosts, so exactly that group re-executes.
EDITED_TEMPLATE = "db"
#: The latency-sensitive template the QoS metrics follow.
FRONTEND = "frontend"
#: Capacities are profiled under this seed, not the run's: a device's
#: capacity is a property of the device, and the profiler's noise (several
#: percent) would otherwise reshuffle the placement from seed to seed.
PROFILE_SEED = 0
#: Set-ups timed per run for ``setup_s``.
SETUP_REPEATS = 3
#: Injected-clock readings per calibration kernel sample in a timed sweep
#: (two readings per executed host).
CLOCK_SAMPLE_EVERY = 10
#: Upper bound on pool workers (each is a forked copy of this process).
MAX_WORKERS = 4


def pool_workers() -> int:
    """Pool size: the CPUs this process may run on, capped."""
    return max(1, min(MAX_WORKERS, len(os.sched_getaffinity(0))))


def region_spec(seed: int, capacities: Optional[Dict[str, float]] = None,
                edited: bool = False) -> FleetSpec:
    """The region: three host groups, one of them mid-incident.

    * ``iocost-new`` — iocost on ``ssd_new``;
    * ``iocost-old`` — iocost on ``ssd_old`` with a brownout and an error
      burst (``repro.faults``), so the block retry path runs;
    * ``iolatency`` — hosts not yet migrated off iolatency.

    ``capacities`` pins each group's profiled capacity (``capacity_iops``).
    """
    faults = [
        {"kind": "brownout", "start": 0.25 * HOST_DURATION,
         "duration": 0.3 * HOST_DURATION, "latency_mult": 4.0},
        {"kind": "error_burst", "start": 0.6 * HOST_DURATION,
         "duration": 0.1 * HOST_DURATION, "error_rate": 0.05},
    ]
    hosts: Dict[str, Dict[str, Any]] = {
        "iocost-new": {"count": 90, "device": "ssd_new", "device_scale": DEVICE_SCALE},
        "iocost-old": {
            "count": 60, "device": "ssd_old", "device_scale": DEVICE_SCALE, "faults": faults,
        },
        "iolatency": {
            "count": 50, "device": "ssd_new", "device_scale": IOLATENCY_SCALE,
            "controller": "iolatency",
        },
    }
    for name, capacity in (capacities or {}).items():
        hosts[name]["capacity_iops"] = capacity
    return FleetSpec.from_dict({
        "name": "perfbench-region",
        "seed": seed,
        "policy": "best_fit",
        "capacity": "profiled",
        "duration": HOST_DURATION,
        "percentiles": [50, 95, 99],
        "hosts": hosts,
        "workloads": [
            {"name": EDITED_TEMPLATE, "count": 50, "cgroup": "workload.slice/db",
             "weight": 150 if edited else 100, "type": "paced", "rate": 11500},
            # Many small frontend placements: the p99 of their per-host
            # p99s then has several placements beyond it.
            {"name": FRONTEND, "count": 900, "cgroup": "workload.slice/fe",
             "weight": 200, "type": "paced", "rate": 500},
            {"name": "batch", "count": 150, "cgroup": "workload.slice/batch",
             "weight": 50, "type": "paced", "rate": 1000},
        ],
    })


def setup(seed: int) -> Tuple[FleetSpec, FleetSpec]:
    """Capacity profiling and placement, ahead of the timed sweeps.

    Returns the region spec with its profiled capacities pinned, and its
    twin with the edited template weight.
    """
    capacities = fleet_scheduler.group_capacities(region_spec(PROFILE_SEED))
    spec = region_spec(seed, capacities)
    scheduler = FleetScheduler(spec, capacities)
    scheduler.place()
    scheduler.balance()
    return spec, region_spec(seed, capacities, edited=True)


@dataclass
class Round:
    """One cold sweep plus one incremental re-sweep, with their checks."""

    cold: FleetReport
    resweep: FleetReport
    #: CPU seconds of each sweep (see timed_sweep), and the cold sweep's wall.
    cold_s: float
    cold_wall_s: float
    resweep_s: float
    #: Throughput figures of the cold sweep (see sweep_rates).
    rates: Dict[str, float]
    #: Per-host CPU time of the cold sweep, from ``meta.json``.
    walls: Dict[str, float]
    digest: str
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)


def _carrying(plan: Dict[str, Any], template: str) -> List[str]:
    return sorted(
        host_id
        for host_id, host in plan["hosts"].items()
        if any(p["workload"] == template for p in host["workloads"])
    )


def _recomputed_rollup(report: FleetReport, store: ArtifactStore,
                       spec: FleetSpec) -> Tuple[Dict[str, Any], List[str]]:
    """The rollup rebuilt from the cache's copies of the host results."""
    cache = ResultCache(store)
    results: Dict[str, Dict[str, Any]] = {}
    problems = []
    for outcome in report.sweep.outcomes:
        decision = cache.lookup(outcome.run)
        host_id = str(outcome.run.params["host"]["id"])
        if not decision.hit or decision.result is None:
            problems.append(f"cache miss for {host_id}: {decision.reason}")
            continue
        results[host_id] = decision.result
    return fleet_rollup(report.plan, results, spec.percentiles), problems


@dataclass
class Timing:
    """What one sweep cost."""

    #: CPU seconds of this process and its pool workers, calibration
    #: kernel excluded.
    cpu_s: float
    wall_s: float
    #: Factor scaling the sweep's CPU times to the reference speed.
    factor: float


def timed_sweep(spec: FleetSpec, store_dir: Path, workers: int,
                calibration: Optional[Calibration] = None) -> Tuple[FleetReport, Timing]:
    """One :func:`run_fleet_sweep` and its cost.

    The runner's injected clock is a CPU clock, so each host's
    ``meta.json`` ``wall_sec`` holds the CPU seconds its run took.  With
    ``calibration`` the clock also samples the calibration kernel while
    the sweep runs, which needs the runs in this process (``workers=1``).
    """
    if calibration is not None and workers != 1:
        raise ValueError("a calibrated sweep runs in this process")
    clock = CalibratedClock(calibration, CLOCK_SAMPLE_EVERY)
    cpu_start, wall_start = cpu_seconds(), time.perf_counter()
    report = run_fleet_sweep(
        spec, store_dir, workers=workers,
        # Without a calibration the clock may travel to pool workers.
        clock=clock if calibration is not None else time.process_time,
        policies=POLICIES,
    )
    cpu_s = cpu_seconds() - cpu_start - clock.kernel_s
    return report, Timing(cpu_s, time.perf_counter() - wall_start, clock.factor())


def cold_sweep(spec: FleetSpec, store_dir: Path, workers: int,
               calibration: Optional[Calibration] = None
               ) -> Tuple[FleetReport, Timing, List[str]]:
    """Place and run the region into an empty store; check it.  Returns
    the report, its cost and the problems found."""
    shutil.rmtree(store_dir, ignore_errors=True)
    report, timing = timed_sweep(spec, store_dir, workers, calibration)
    problems = []
    sweep = report.sweep
    if sweep.failures or sweep.cache_hits:
        problems.append(
            f"cold sweep: {sweep.failures} failed cells, {sweep.cache_hits} "
            "cache hits in an empty store"
        )
    missing = report.rollup["hosts"]["missing"]
    if missing:
        problems.append(f"cold sweep: hosts missing from the rollup: {missing[:5]}")
    recomputed, cache_problems = _recomputed_rollup(report, ArtifactStore(store_dir), spec)
    problems.extend(cache_problems)
    if canonical_json(recomputed) != canonical_json(report.rollup):
        problems.append("rollup recomputed from cached host results differs")
    return report, timing, problems


def cold_digest(report: FleetReport) -> str:
    return digest(report.plan, report.rollup, report.results)


def run_round(specs: Tuple[FleetSpec, FleetSpec], store_dir: Path, workers: int,
              calibration: Optional[Calibration] = None) -> Round:
    """A cold sweep of ``specs[0]``, then a re-sweep of its edited twin.

    With ``calibration`` (and ``workers=1``) every CPU time is scaled to
    the reference speed by its sweep's factor.
    """
    spec, edited = specs
    cold, timing, problems = cold_sweep(spec, store_dir, workers, calibration)
    store = ArtifactStore(store_dir)
    walls = {
        str(outcome.run.params["host"]["id"]):
            float(store.read_json(outcome.run.run_hash, META_FILE)["wall_sec"]) * timing.factor
        for outcome in cold.sweep.outcomes
    }
    cold_s = timing.cpu_s * timing.factor

    resweep, resweep_timing = timed_sweep(edited, store_dir, workers, calibration)
    resweep_s = resweep_timing.cpu_s * resweep_timing.factor
    expected = _carrying(resweep.plan, EDITED_TEMPLATE)
    executed = sorted(
        str(outcome.run.params["host"]["id"])
        for outcome in resweep.sweep.outcomes
        if not outcome.cached
    )
    if executed != expected:
        problems.append(
            f"re-sweep executed {len(executed)} hosts, expected the "
            f"{len(expected)} carrying {EDITED_TEMPLATE!r}"
        )
    if resweep.sweep.failures:
        problems.append(f"re-sweep: {resweep.sweep.failures} failed cells")
    return Round(
        cold=cold,
        resweep=resweep,
        cold_s=cold_s,
        cold_wall_s=timing.wall_s,
        resweep_s=resweep_s,
        rates=sweep_rates(cold, cold_s),
        walls=walls,
        digest=digest(cold_digest(cold), resweep.rollup, resweep.results),
        attempted=cold.sweep.executed + resweep.sweep.executed,
        failed=cold.sweep.failures + resweep.sweep.failures,
        problems=problems,
    )


# -- figures -------------------------------------------------------------------


def _completed_bios(report: FleetReport) -> int:
    return sum(
        round(cell["iops"] * result["duration"])
        for result in report.results.values()
        for cell in result["cgroups"].values()
    )


def sim_metrics(report: FleetReport) -> Dict[str, float]:
    """The simulated QoS figures of one cold sweep."""
    workloads = report.rollup["workloads"]
    frontend = workloads[FRONTEND]
    demand: Dict[str, float] = {}
    host_p99s = []
    for host_id, host in report.plan["hosts"].items():
        for placement in host["workloads"]:
            name = placement["workload"]
            demand[name] = demand.get(name, 0.0) + placement["demand_iops"]
            if name == FRONTEND:
                cell = report.results[host_id]["cgroups"][placement["cgroup"]]
                host_p99s.append(cell["read_p99"])
    delivered = {name: workloads[name]["iops_total"] for name in demand}
    total_demand, total_delivered = sum(demand.values()), sum(delivered.values())
    share_error = max(
        abs(delivered[name] / total_delivered - demand[name] / total_demand)
        / (demand[name] / total_demand)
        for name in demand
    )
    return {
        # The typical frontend placement's p99 (exact, unlike the pooled
        # percentile, which is quantised to histogram buckets).
        "protected_read_p99_sim_ms": median(host_p99s) * 1e3,
        "share_error": share_error,
        "web_rps_sim": frontend["iops_total"],
        "fleet_p99_of_p99_sim_ms": frontend["read_latency"]["p99"]["of_host_percentiles"] * 1e3,
    }


def sweep_rates(cold: FleetReport, elapsed: float) -> Dict[str, float]:
    """Throughput of a cold sweep that took ``elapsed`` CPU seconds."""
    executed = cold.sweep.executed
    return {
        "host_bios_per_s": _completed_bios(cold) / elapsed,
        "sim_speed": executed * HOST_DURATION / elapsed,
        "fleet_hosts_per_s": executed / elapsed,
    }


def timing_metrics(rounds: List[Round]) -> Tuple[Dict[str, float], float]:
    """CPU-time figures over a run's rounds, and the percentile
    ``fleet_host_wall_p95_s`` reports.  Rates and the re-sweep take the
    median over rounds; each host's time takes the median over rounds
    before the percentiles over hosts."""
    walls = sorted(
        median([rnd.walls[host] for rnd in rounds]) for host in rounds[0].walls
    )
    pct, tail = tail_percentile(walls)
    metrics = {
        name: median([rnd.rates[name] for rnd in rounds]) for name in rounds[0].rates
    }
    metrics.update({
        "fleet_host_wall_p50_s": median(walls),
        "fleet_host_wall_p95_s": tail,
        "fleet_resweep_s": median([rnd.resweep_s for rnd in rounds]),
    })
    return metrics, pct


def host_layers(report: FleetReport) -> Dict[str, float]:
    """Per-host layer figures read back from the host results (the pool
    children's own spans never reach this process)."""
    root = [result["iostat"].get("", {}) for result in report.results.values()]
    bios = sum(entry.get("rios", 0.0) + entry.get("wios", 0.0) for entry in root)
    events = sum(result["events_processed"] for result in report.results.values())
    service = Histogram("service")
    for result in report.results.values():
        for payload in result["latency_hist"].values():
            service.merge(Histogram.from_dict(payload))
    vrates = [
        result["vrate_mean"] for result in report.results.values()
        if result["vrate_mean"] is not None
    ]
    return {
        "sim.events_per_bio": events / bios if bios else 0.0,
        "block.submit.calls": bios,
        "block.errors": sum(entry.get("errors", 0.0) for entry in root),
        "block.requeues": sum(entry.get("requeues", 0.0) for entry in root),
        "block.service_sim_p50_us": service.percentile(50) * 1e6 if service.count else 0.0,
        "block.service_sim_p99_us": service.percentile(99) * 1e6 if service.count else 0.0,
        "core.vrate_mean": sum(vrates) / len(vrates) if vrates else 0.0,
    }


def pool_busy_ratio(report: FleetReport, wall_s: float) -> float:
    """Worker CPU seconds over the sweep's wall seconds times its workers."""
    sweep = report.sweep
    return sweep.executed_wall_sec / (wall_s * sweep.workers)


# -- measurement -------------------------------------------------------------


def measure(result: Result, seed: int, seconds: float, trace: bool,
            import_s: float, store_dir: Path, calibration: Calibration) -> None:
    """Fill ``result`` for one fleet-region run; the store is removed after.
    ``calibration`` is sampled after every untraced set-up and sweep."""
    workers = pool_workers()
    try:
        if trace:
            _measure_traced(result, seed, seconds, store_dir, workers)
        else:
            _measure(result, seed, seconds, import_s, store_dir, workers, calibration)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


def _check_rounds(result: Result, rounds: List[Round]) -> None:
    digests = sorted({rnd.digest for rnd in rounds})
    result.check(len(digests) == 1, f"repeated rounds disagree: digests {digests}")
    for rnd in rounds:
        for problem in rnd.problems:
            if problem not in result.problems:
                result.problems.append(problem)
        result.attempted += rnd.attempted
        result.failed += rnd.failed


def _measure(result: Result, seed: int, seconds: float, import_s: float,
             store_dir: Path, workers: int, calibration: Calibration) -> None:
    placing = []
    for _ in range(SETUP_REPEATS):
        start = cpu_seconds()
        specs = setup(seed)
        placing.append(cpu_seconds() - start)
        calibration.sample()
    rounds: List[Round] = []

    # Timed sweeps run in this process: pool workers on a shared machine
    # slow each other down by an amount that varies from run to run, and
    # the calibration kernel can only sample the process it runs in.  The
    # pool runs once below, for the determinism check.
    def step() -> Round:
        rnd = run_round(specs, store_dir, 1, calibration)
        if rounds:
            # Only the first round's reports are read again; holding every
            # round's would make peak memory depend on the round count.
            rnd.cold = rnd.resweep = None  # type: ignore[assignment]
        rounds.append(rnd)
        return rnd

    repeat_until(seconds, step, 2)
    _check_rounds(result, rounds)
    first = rounds[0]
    pooled, _, problems = cold_sweep(specs[0], store_dir, workers)
    result.problems.extend(problems)
    result.check(
        cold_digest(pooled) == cold_digest(first.cold),
        f"cold sweep differs between 1 worker and {workers} workers",
    )
    del pooled
    timings, tail_pct = timing_metrics(rounds)
    faults = host_layers(first.cold)
    result.metrics.update({
        "setup_s": (import_s + median(placing)) * calibration.factor(),
        **timings,
        "ops_failed_frac": failed_frac(first.failed, first.attempted),
        **sim_metrics(first.cold),
    })
    result.notes += [
        f"digest {first.digest} over {len(rounds)} rounds at 1 worker "
        f"(cold sweep {cold_digest(first.cold)} also at {workers} workers)",
        f"{first.cold.sweep.executed} hosts cold, {first.resweep.sweep.executed} "
        f"re-executed after the {EDITED_TEMPLATE!r} weight edit; host wall tail is "
        f"p{tail_pct:g} of {first.cold.sweep.executed} hosts",
        f"injected faults: {faults['block.errors']:g} EIO, "
        f"{faults['block.requeues']:g} requeues (not failures)",
    ]


def _traced_round(seed: int, store_dir: Path, workers: int) -> Tuple[Round, Tracer]:
    """Set-up plus one round, with wrapper spans on."""
    tracer = Tracer()
    install_fleet_layers(tracer)
    try:
        rnd = run_round(setup(seed), store_dir, workers)
    finally:
        tracer.restore()
    return rnd, tracer


def _coverage(tracer: Tracer, rnd: Round) -> List[str]:
    """Wrapper call counts against the sweep reports' own counts."""
    cold, resweep = rnd.cold.sweep, rnd.resweep.sweep
    expected = {
        "exp.run_sweep": 2,
        # Both sweeps look every cell up; the rollup check looks the cold
        # cells up once more.
        "exp.cache.lookup": 2 * cold.runs_total + resweep.runs_total,
        "exp.cache.commit": cold.executed + resweep.executed,
        # Set-up profiles once; each sweep reads the pinned capacities.
        "fleet.capacities": 3,
        "fleet.place": 3,
        "fleet.rollup": 2,
    }
    return [
        f"wrapper coverage: {name} calls={tracer.calls(name)}, expected {count}"
        for name, count in expected.items()
        if tracer.calls(name) != count
    ]


#: Per-host layers whose spans stay in the pool children.
_CHILD_LAYERS = (
    "sim.run.self_s", "sim.heap_pushes_per_bio", "block.submit.self_s",
    "block.dispatch.self_s", "block.device.self_s", "block.queue_wait_sim_p99_us",
    "block.timeouts", "core.enqueue.self_s", "core.pump.calls_per_bio",
    "core.pump.self_s", "core.pump.useful_ratio", "core.throttle_wait_sim_p99_us",
    "core.plan_ticks", "mm.calls", "mm.self_s", "mm.swap_out_bytes",
    "mm.swap_in_bytes", "mm.oom_kills", "workloads.self_s",
)


def _layer_metrics(rnd: Round, tracer: Tracer) -> Dict[str, float]:
    cold, resweep = rnd.cold.sweep, rnd.resweep.sweep
    lookups = cold.runs_total + resweep.runs_total
    metrics = {name: 0.0 for name in _CHILD_LAYERS}
    metrics.update(host_layers(rnd.cold))
    metrics.update({
        "exp.run_sweep.wall_s": tracer.total_s("exp.run_sweep"),
        "exp.cache.lookup_s": tracer.total_s("exp.cache.lookup"),
        "exp.store.write_s": tracer.total_s("exp.store.write"),
        "exp.cache.hit_ratio": (cold.cache_hits + resweep.cache_hits) / lookups,
        "exp.pool.busy_ratio": pool_busy_ratio(rnd.cold, rnd.cold_wall_s),
        "exp.runs.failed": float(cold.failures + resweep.failures),
        "fleet.capacities_s": tracer.total_s("fleet.capacities"),
        "fleet.place_s": tracer.total_s("fleet.place") + tracer.total_s("fleet.balance"),
        "fleet.rollup_s": tracer.total_s("fleet.rollup"),
    })
    return metrics


def _measure_traced(result: Result, seed: int, seconds: float,
                    store_dir: Path, workers: int) -> None:
    specs = setup(seed)
    pairs = repeat_until(
        seconds,
        lambda: (run_round(specs, store_dir, workers), _traced_round(seed, store_dir, workers)),
        1,
    )
    per_pair = []
    for plain, (traced, tracer) in pairs:
        result.problems.extend(
            p for p in _coverage(tracer, traced) if p not in result.problems
        )
        metrics = _layer_metrics(traced, tracer)
        untraced_s = plain.cold_s + plain.resweep_s
        metrics["obs.trace_overhead_ratio"] = (traced.cold_s + traced.resweep_s) / untraced_s
        metrics["obs.untraced_wall_s"] = untraced_s
        per_pair.append(metrics)
    _check_rounds(result, [rnd for pair in pairs for rnd in (pair[0], pair[1][0])])
    for name in per_pair[0]:
        result.metrics[name] = median([metrics[name] for metrics in per_pair])
    result.notes.append(
        f"{len(pairs)} untraced/traced round pairs; digest {pairs[0][0].digest}"
    )
