"""Timing, summary statistics and the per-run tally of operations."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def median(values) -> float:
    return float(statistics.median(values))


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def settle() -> None:
    """Collect garbage so a timed interval starts from a settled heap."""
    gc.collect()


#: A run stops making rounds once this many times ``--seconds`` of wall
#: time have passed, though its operations have not run for ``--seconds``
#: yet.  Only operations that fail fast reach it: the time between them
#: (collections, checks, speed probes) then outweighs their own.
WALL_LIMIT = 4.0


def keep_going(rounds: int, minimum: int, spent: float, seconds: float,
               deadline: float) -> bool:
    """Whether a run makes another whole round: at least ``minimum``
    rounds, then until its operations have run for ``seconds`` or the
    wall clock passes ``deadline``."""
    if rounds < minimum:
        return True
    return spent < seconds and time.perf_counter() < deadline


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y

    def distance(self, other: "_Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def _speed_kernel(n: int = 6000) -> float:
    """A fixed piece of interpreter work shaped like the program's: small
    objects, method calls, float math, dict and list traffic, and a few
    small NumPy calls.  It belongs to the benchmark, so no change to the
    program can make it faster or slower."""
    table: dict = {}
    words: list[str] = []
    total = 0.0
    previous = _Point(0.0, 0.0)
    for i in range(n):
        point = _Point(i * 0.5, (i * 7) % 13 * 1.5)
        total += point.distance(previous)
        previous = point
        table[i & 127] = (point, total)
        words.append(str(i & 15))
        if i % 500 == 0:
            total += float(np.arange(64, dtype=np.float64).sum())
    words.sort()
    return total


class SpeedProbe:
    """The machine's momentary speed, for normalizing times.

    On a shared machine the same code runs up to half again slower for
    seconds to minutes at a time, as other tenants load the cores; wall
    times then vary more between runs than any change worth detecting.
    The probe times :func:`_speed_kernel` every ``interval_s`` between
    operations.  A time normalized to the reference speed is the measured
    time scaled by ``REFERENCE_S`` over the kernel time interpolated at
    the operation's midpoint: what the operation would have taken had
    the kernel run in exactly ``REFERENCE_S``."""

    #: kernel duration that defines the reference speed
    REFERENCE_S = 0.004

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.at: list[float] = []
        self.took: list[float] = []
        self._last = -math.inf

    def probe(self) -> None:
        # With the collector off, the kernel's allocations cannot trigger
        # a collection whose cost grows with the program's live heap.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _speed_kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.at.append((start + end) / 2.0)
        self.took.append(end - start)
        self._last = end

    def maybe(self) -> None:
        """Probe when the last probe is older than the interval."""
        if time.perf_counter() - self._last >= self.interval_s:
            self.probe()

    def scale(self, when):
        """Factor(s) from measured to reference-speed time at ``when``
        (perf_counter seconds; scalar or array)."""
        took = np.interp(when, self.at, self.took)
        return self.REFERENCE_S / took

    def normalize(self, seconds, start):
        """Durations that began at ``start`` (arrays or scalars),
        normalized to the reference speed."""
        seconds = np.asarray(seconds, dtype=np.float64)
        return seconds * self.scale(np.asarray(start) + seconds / 2.0)


class Samples:
    """Timed operations, stored compactly: kind, duration and start."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.kind = array("H")
        self.seconds = array("d")
        self.start = array("d")

    def add(self, kind: str, seconds: float, start: float) -> None:
        code = self._codes.get(kind)
        if code is None:
            code = self._codes[kind] = len(self.names)
            self.names.append(kind)
        self.kind.append(code)
        self.seconds.append(seconds)
        self.start.append(start)

    def __len__(self) -> int:
        return len(self.seconds)

    def values(self, probe: "SpeedProbe | None") -> np.ndarray:
        """Durations in seconds, normalized when ``probe`` is given."""
        if probe is None:
            return np.asarray(self.seconds)
        return probe.normalize(self.seconds, self.start)

    def kind_medians_ms(self, probe: "SpeedProbe | None") -> dict:
        values = self.values(probe)
        kinds = np.asarray(self.kind)
        return {name: float(np.median(values[kinds == code])) * 1000.0
                for code, name in sorted(enumerate(self.names),
                                         key=lambda item: item[1])}

    def ops_per_s(self, probe: "SpeedProbe | None") -> float:
        return len(self) / float(self.values(probe).sum())


def timed_setups(setup: Callable[[], object], repeats: int,
                 probe: SpeedProbe
                 ) -> tuple[object, list[float], list[float]]:
    """Run ``setup`` ``repeats`` times from a settled heap, probing the
    machine's speed around each; returns the last product, the
    normalized durations and the measured ones.  ``setup_s`` is the
    median of the normalized durations."""
    samples = Samples()
    product = None
    for _ in range(max(1, repeats)):
        product = None
        settle()
        probe.probe()
        start = time.perf_counter()
        product = setup()
        samples.add("setup", time.perf_counter() - start, start)
        probe.probe()
    return (product, samples.values(probe).tolist(),
            samples.values(None).tolist())


@dataclass
class Tally:
    """Operations attempted and failed in one run, with the reasons.

    An operation fails when it raises or when its output disagrees with
    the independently computed answer.  A wrong answer also makes the run
    incorrect; an operation that raises does not (it produced no answer
    to be wrong about)."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: list[str] = field(default_factory=list)

    def raised(self, label: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self._note(f"{label}: raised {type(exc).__name__}: {exc}")

    def check(self, label: str, problem: str | None) -> bool:
        """Count one operation; ``problem`` is None when its output
        matched."""
        self.attempted += 1
        if problem is None:
            return True
        self.failed += 1
        self.wrong += 1
        self._note(f"{label}: {problem}")
        return False

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    def _note(self, text: str) -> None:
        if len(self.reasons) < 20:
            self.reasons.append(text)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


#: The end-to-end metrics: (name, unit, better, bound).  Every workload
#: reports every one of them.  An operation is one timed, checked step: a
#: grid query, a lookup, or an ingest pipeline step; its kind is the
#: query number, the lookup kind, or the step.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("latency_geomean_ms", "ms", "lower", 0.2),
    ("latency_p50_ms", "ms", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def end_to_end(samples: Samples, probe: SpeedProbe, setup_s: list[float]
               ) -> dict:
    """The end-to-end metrics from the untraced timed operations and the
    set-up durations, normalized to the probe's reference speed."""
    return {
        "setup_s": metric(median(setup_s), "s"),
        "ops_per_s": metric(samples.ops_per_s(probe), "1/s"),
        "latency_geomean_ms": metric(
            geomean(samples.kind_medians_ms(probe).values()), "ms"),
        "latency_p50_ms": metric(
            float(np.median(samples.values(probe))) * 1000.0, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def raw_figures(samples: Samples, setup_s: list[float]) -> dict:
    """The time metrics as measured, before normalization (diagnostics)."""
    return {
        "setup_s": median(setup_s),
        "ops_per_s": samples.ops_per_s(None),
        "latency_geomean_ms": geomean(
            samples.kind_medians_ms(None).values()),
        "latency_p50_ms": float(np.median(samples.values(None))) * 1000.0,
    }
