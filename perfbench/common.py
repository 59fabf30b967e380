"""Helpers shared by the host and fleet workloads."""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exp.spec import canonical_json


class Result:
    """What one run reports: checks, operation counts and metrics."""

    def __init__(self) -> None:
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its reaped children.

    Host time is measured as CPU time rather than wall time: on a shared
    machine the wall clock also counts the time the benchmark waited for a
    CPU (and, in a VM, time the hypervisor stole), which varies from run to
    run with everyone else's load.  Pool workers are joined before a sweep
    returns, so their CPU time is included.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


#: Iterations of the calibration kernel, and the CPU seconds it takes at
#: the reference speed (the fast end measured on a 2-CPU x86-64 VM,
#: CPython 3.11).
CALIBRATION_LOOPS = 100_000
CALIBRATION_NOMINAL_S = 0.01


def _calibration_kernel() -> int:
    counts: Dict[int, int] = {}
    for i in range(CALIBRATION_LOOPS):
        key = i & 255
        counts[key] = counts.get(key, 0) + i
    return len(counts)


class Calibration:
    """Scales CPU times to a reference machine speed.

    The speed of a shared machine drifts over seconds to minutes with
    other tenants' load, and CPU time drifts with it (contention for
    shared cores and caches slows the benchmark's own instructions).  A
    fixed pure-Python kernel that is not part of the program is run
    between and during the timed steps; :meth:`factor` is the reference
    kernel time over the median kernel time measured.  CPU times
    multiplied by it (rates divided by it) are what they would be at the
    speed at which the kernel takes ``CALIBRATION_NOMINAL_S``: a change to
    the program moves them as much as the raw times, while a slow spell of
    the machine moves the kernel too and cancels out.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: CPU seconds spent in the kernel so far.
        self.spent_s = 0.0

    def sample(self) -> None:
        start = time.process_time()
        _calibration_kernel()
        elapsed = time.process_time() - start
        self.samples.append(elapsed)
        self.spent_s += elapsed

    def factor(self, since: int = 0) -> float:
        """The factor from the samples taken from index ``since`` on."""
        return CALIBRATION_NOMINAL_S / median(self.samples[since:])

    def note(self) -> str:
        return (
            f"calibration kernel: median {median(self.samples) * 1e3:.2f} ms CPU over "
            f"{len(self.samples)} runs (reference {CALIBRATION_NOMINAL_S * 1e3:g} ms); "
            "CPU-time figures are scaled to the reference"
        )


class CalibratedClock:
    """A CPU clock for one timed step that samples the calibration kernel
    on every ``every``-th reading.

    The kernel's own CPU time is taken out of the readings, so intervals
    between them hold only the program's; :meth:`factor` scales them to
    the reference speed from the samples taken during the step.  Without
    a calibration it is the plain CPU clock and the factor is 1.
    """

    def __init__(self, calibration: Optional[Calibration], every: int) -> None:
        self.calibration = calibration
        self.every = every
        self.calls = 0
        self.first = len(calibration.samples) if calibration else 0
        self.spent_start = calibration.spent_s if calibration else 0.0

    def __call__(self) -> float:
        calibration = self.calibration
        if calibration is None:
            return time.process_time()
        self.calls += 1
        if self.calls % self.every == 0:
            calibration.sample()
        return time.process_time() - calibration.spent_s

    @property
    def kernel_s(self) -> float:
        """CPU seconds spent in the kernel since the clock was made."""
        if self.calibration is None:
            return 0.0
        return self.calibration.spent_s - self.spent_start

    def factor(self) -> float:
        """Samples the kernel once more; the factor for this step."""
        if self.calibration is None:
            return 1.0
        self.calibration.sample()
        return self.calibration.factor(self.first)


def failed_frac(failed: int, attempted: int) -> float:
    """Failures over attempts by the rule of succession, (f+1)/(n+2): never
    0, and a single failure at least doubles it on these counts."""
    return (failed + 1) / (attempted + 2)


def digest(*docs: Any) -> str:
    """Short hash of canonical JSON: equal inputs, equal digest."""
    return hashlib.sha256(canonical_json(list(docs)).encode()).hexdigest()[:16]


def tail_percentile(values: List[float]) -> Tuple[float, float]:
    """(pct, value): the highest percentile with at least ten samples
    beyond it; the maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def repeat_until(seconds: float, step: Callable[[], Any], minimum: int) -> List[Any]:
    """Call ``step`` at least ``minimum`` times, then while one more call
    is expected to end within ``seconds`` of the first."""
    results: List[Any] = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        per_step = elapsed / len(results)
        if len(results) >= minimum and elapsed + per_step > seconds:
            return results
