"""Wrapper spans around the public entry points of each ``repro`` layer.

The benchmark never edits ``src/``: for the traced run it replaces public
methods and module functions with timing wrappers, and puts the originals
back afterwards.  Each wrapper is one span boundary.  Spans nest through
one stack, so a layer's *self time* is its spans' duration minus the part
covered by child spans (a block-layer ``submit`` that calls
``IOCost.pump`` does not count the pump's time as its own).

Spans are aggregated per name (calls, total seconds, self seconds) rather
than stored one by one: a host run makes millions of calls.

Wrappers are installed on classes and modules, so every call that looks the
attribute up at call time goes through them.  A bound method cached before
installation (``device.on_complete = layer._device_completed`` style)
bypasses its wrapper; :func:`coverage_problems` catches that by comparing
wrapper call counts with the program's own ``PROF`` counters.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Tuple

_clock = time.perf_counter


class Tracer:
    """Span stack plus per-name aggregates; installs and removes wrappers."""

    def __init__(self) -> None:
        #: One ``[child_seconds]`` cell per open span.
        self._stack: List[List[float]] = []
        #: name -> [calls, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        #: Plain counters measured at span boundaries.
        self.counts: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- aggregates ------------------------------------------------------------

    def acc(self, name: str) -> List[float]:
        return self.spans.setdefault(name, [0, 0.0, 0.0])

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return float(self.spans.get(name, (0, 0.0, 0.0))[1])

    def self_s(self, name: str) -> float:
        return float(self.spans.get(name, (0, 0.0, 0.0))[2])

    # -- wrapper factories -------------------------------------------------------

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a plain callable in a span named ``name``."""
        return functools.wraps(fn)(self.timed(self.acc(name), fn))

    def timed(self, acc: List[float], fn: Callable[..., Any]) -> Callable[..., Any]:
        """The bare span wrapper, accumulating into ``acc`` (cheap enough to
        build once per bio)."""
        stack = self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def generator_span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap a generator function: every resumption of its body is one
        span, so simulated waits between yields are not counted.  The
        wrapper yields exactly what the wrapped generator yields and
        forwards sends, throws and close, so callers using ``yield from``
        see no difference."""
        acc = self.acc(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            acc[0] += 1
            inner = fn(*args, **kwargs)
            value: Any = None
            thrown: Any = None
            while True:
                frame = [0.0]
                stack.append(frame)
                start = _clock()
                try:
                    if thrown is None:
                        out = inner.send(value)
                    else:
                        out = inner.throw(thrown)
                except StopIteration as stop:
                    return stop.value
                finally:
                    elapsed = _clock() - start
                    stack.pop()
                    acc[1] += elapsed
                    acc[2] += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed
                thrown = None
                try:
                    value = yield out
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # forwarded into the body
                    thrown = exc

        return wrapper

    # -- installation ------------------------------------------------------------

    def patch(self, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        """Replace ``owner.attr`` (class or module) until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install_host_layers(tracer: Tracer) -> None:
    """Spans around the per-bio layers: sim, block, core, mm, workloads."""
    from repro.block.device import Device
    from repro.block.layer import BlockLayer
    from repro.core.controller import IOCost
    from repro.mm.memory import MemoryManager
    from repro.sim.engine import Simulator

    counts = tracer.counts
    counts.setdefault("sim.events", 0)
    counts.setdefault("core.pump.useful", 0)

    run = tracer.span("sim.run", Simulator.run)

    def sim_run(sim: Any, until: Any = None) -> None:
        before = sim.events_processed
        try:
            run(sim, until)
        finally:
            counts["sim.events"] += sim.events_processed - before

    tracer.patch(Simulator, "run", sim_run)

    # Completion callbacks belong to the workload that submitted the bio.
    workloads = tracer.acc("workloads")
    submit = tracer.span("block.submit", BlockLayer.submit)

    def layer_submit(layer: Any, bio: Any, on_done: Any = None) -> Any:
        if on_done is not None:
            on_done = tracer.timed(workloads, on_done)
        return submit(layer, bio, on_done)

    tracer.patch(BlockLayer, "submit", layer_submit)
    tracer.patch(BlockLayer, "dispatch", tracer.span("block.dispatch", BlockLayer.dispatch))
    tracer.patch(Device, "submit", tracer.span("block.device", Device.submit))

    tracer.patch(IOCost, "enqueue", tracer.span("core.enqueue", IOCost.enqueue))
    tracer.patch(IOCost, "on_complete", tracer.span("core.on_complete", IOCost.on_complete))
    pump = tracer.span("core.pump", IOCost.pump)
    dispatched = tracer.acc("block.dispatch")

    def iocost_pump(ctl: Any) -> None:
        before = dispatched[0]
        pump(ctl)
        if dispatched[0] > before:
            counts["core.pump.useful"] += 1

    tracer.patch(IOCost, "pump", iocost_pump)

    for name in ("alloc", "touch"):
        tracer.patch(
            MemoryManager, name,
            tracer.generator_span("mm", getattr(MemoryManager, name)),
        )
    tracer.patch(MemoryManager, "free", tracer.span("mm", MemoryManager.free))


def install_fleet_layers(tracer: Tracer) -> None:
    """Parent-side spans around the sweep machinery: exp and fleet.

    ``run_fleet_sweep`` calls ``run_sweep``, ``group_capacities`` and
    ``fleet_rollup`` through ``repro.fleet.runner``'s globals, so those are
    patched there (``group_capacities`` also in its own module).  Pool children inherit the wrappers but their spans stay
    in the child, so per-host layers are read from the host results.
    """
    import repro.fleet.runner as runner
    import repro.fleet.scheduler as scheduler
    from repro.exp.cache import ResultCache
    from repro.exp.store import ArtifactStore
    from repro.fleet.scheduler import FleetScheduler

    tracer.patch(runner, "run_sweep", tracer.span("exp.run_sweep", runner.run_sweep))
    tracer.patch(ResultCache, "lookup", tracer.span("exp.cache.lookup", ResultCache.lookup))
    tracer.patch(ResultCache, "commit", tracer.span("exp.cache.commit", ResultCache.commit))
    tracer.patch(
        ArtifactStore, "write_json",
        tracer.span("exp.store.write", ArtifactStore.write_json),
    )
    capacities = tracer.span("fleet.capacities", scheduler.group_capacities)
    tracer.patch(runner, "group_capacities", capacities)
    tracer.patch(scheduler, "group_capacities", capacities)
    tracer.patch(FleetScheduler, "place", tracer.span("fleet.place", FleetScheduler.place))
    tracer.patch(
        FleetScheduler, "balance", tracer.span("fleet.balance", FleetScheduler.balance)
    )
    tracer.patch(runner, "fleet_rollup", tracer.span("fleet.rollup", runner.fleet_rollup))


def coverage_problems(tracer: Tracer, prof: Dict[str, int]) -> List[str]:
    """Wrapper call counts that disagree with the program's PROF counters."""
    pairs = (
        ("block.submit calls", tracer.calls("block.submit"), "bios_submitted"),
        ("core.pump calls", tracer.calls("core.pump"), "pump_calls"),
        ("sim.run events", tracer.counts.get("sim.events", 0), "events_dispatched"),
    )
    return [
        f"wrapper coverage: {label}={seen} but PROF.{counter}={prof[counter]}"
        for label, seen, counter in pairs
        if seen != prof[counter]
    ]
