"""Statistics of one phase: percentiles, SLO verdicts, generator validity,
and the capacity search."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

from loadgen import PhaseResult

#: a reported percentile needs at least this many samples beyond it
TAIL_SAMPLES = 10

#: the generator is behind its schedule when a phase's send lateness exceeds
#: these shares of the workload's SLO; such a phase is invalid and is
#: retried, never reported
LATE_P99_SLO_SHARE = 0.25
LATE_MAX_SLO_SHARE = 1.00


#: the fixed pure-Python loop's time on a quiet 2-vCPU box; the gated
#: capacity is scaled to it (see ``at_reference``)
REFERENCE_CALIBRATION_MS = 30.0


def calibration_ms() -> float:
    """Milliseconds for one pass of a fixed pure-Python loop: the machine's
    speed for interpreted code, right now."""
    begun = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - begun) * 1e3


def at_reference(value: float, calibration: float, per_time: bool) -> float:
    """``value`` as it would read on the reference machine.

    A time (``per_time=False``) scales by REFERENCE / calibration, a rate
    (``per_time=True``) by calibration / REFERENCE.  The calibration is
    measured in the server process itself, so a host that drifts in speed
    between runs moves the loop and the server together.
    """
    ratio = calibration / REFERENCE_CALIBRATION_MS
    return value * ratio if per_time else value / ratio


class NotEnoughSamples(ValueError):
    pass


def min_samples(q: float) -> int:
    """Smallest sample count whose ``q`` percentile has TAIL_SAMPLES beyond it."""
    return math.ceil(TAIL_SAMPLES / (1.0 - q) - 1e-9)


def tail_percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` percentile; refuses when fewer than TAIL_SAMPLES
    samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = math.ceil(q * n - 1e-9)
    if n == 0 or n - rank < TAIL_SAMPLES:
        raise NotEnoughSamples(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"need {TAIL_SAMPLES} (>= {min_samples(q)} samples)"
        )
    return ordered[max(rank - 1, 0)]


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` percentile with no sample-count rule (diagnostics)."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered) - 1e-9) - 1, 0)]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise NotEnoughSamples("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# -- outcomes ---------------------------------------------------------------------

#: accounting buckets of one response
COMMITTED, REJECTED, VERDICT_ABORT, READ, FAILED = (
    "committed", "rejected", "verdict-abort", "read", "failed",
)


def outcome(status: int, body: bytes) -> str:
    """The accounting bucket of one response (``FAILED`` = no definitive outcome)."""
    if status != 200:
        return FAILED
    payload = json.loads(body)
    if "result" in payload:
        return READ
    verdict = payload.get("status")
    if verdict == "committed":
        return COMMITTED
    if verdict == "rejected":
        return REJECTED
    if verdict == "aborted":
        return FAILED if payload.get("retryable") else VERDICT_ABORT
    raise ValueError(f"unrecognised response body {payload!r}")


@dataclass
class PhaseStats:
    rate: float
    attempted: int
    outcomes: List[str]
    latencies_ms: List[float]        # failed requests are +inf
    late_p99_ms: float
    late_max_ms: float
    gen_cpu_s: float
    backlog_end: int

    @property
    def failed(self) -> int:
        return self.outcomes.count(FAILED)

    def generator_kept_up(self, slo_ms: float) -> bool:
        return (self.late_p99_ms <= LATE_P99_SLO_SHARE * slo_ms
                and self.late_max_ms <= LATE_MAX_SLO_SHARE * slo_ms)

    def p(self, q: float) -> float:
        return tail_percentile(self.latencies_ms, q)

    def meets(self, slo_ms: float) -> bool:
        """p99 within the SLO while completions keep pace with arrivals: no
        more requests outstanding at the last send than arrive in one SLO."""
        return (self.p(0.99) <= slo_ms
                and self.backlog_end <= self.rate * slo_ms / 1e3)


def merge(parts: Sequence[PhaseStats]) -> PhaseStats:
    """One set of samples from several windows at the same rate."""
    return PhaseStats(
        rate=parts[0].rate,
        attempted=sum(p.attempted for p in parts),
        outcomes=[o for p in parts for o in p.outcomes],
        latencies_ms=[x for p in parts for x in p.latencies_ms],
        late_p99_ms=max(p.late_p99_ms for p in parts),
        late_max_ms=max(p.late_max_ms for p in parts),
        gen_cpu_s=sum(p.gen_cpu_s for p in parts),
        backlog_end=max(p.backlog_end for p in parts),
    )


def summarize(result: PhaseResult) -> PhaseStats:
    outcomes = [outcome(s, b) for s, b in zip(result.status, result.body)]
    latencies = [
        math.inf if o == FAILED or lat is None else lat * 1e3
        for o, lat in zip(outcomes, result.latency)
    ]
    late = sorted(result.lateness)
    end = result.scheduled[-1] if result.scheduled else 0.0
    return PhaseStats(
        rate=result.rate,
        attempted=result.attempted,
        outcomes=outcomes,
        latencies_ms=latencies,
        late_p99_ms=nearest_rank(late, 0.99) * 1e3,
        late_max_ms=late[-1] * 1e3,
        gen_cpu_s=result.gen_cpu_s,
        backlog_end=result.backlog_at(end),
    )


# -- capacity ---------------------------------------------------------------------

@dataclass
class CapacityResult:
    capacity: float
    trail: List[Tuple[float, bool]] = field(default_factory=list)


class NoCapacity(RuntimeError):
    pass


def find_capacity(meets: Callable[[float], bool], start: float, step: float,
                  floor: float, refine: int,
                  floor_known: bool = True) -> CapacityResult:
    """Highest rate that ``meets`` the SLO, to within ``step ** (1 / 2**refine)``.

    A ladder from ``start`` by factors of ``step`` (upwards while rates meet
    the SLO, downwards towards ``floor`` while they miss), then ``refine``
    geometric bisections between the last rate that met the SLO and the
    first that missed.  The ladder never offers more than one step past
    the knee, so no probe leaves the server in deep overload.  ``floor`` is
    the lowest rate tried; ``floor_known`` says it already met the SLO (the
    nominal window did), else it is probed and a miss raises NoCapacity.
    """
    result = CapacityResult(0.0)

    def probe(rate: float) -> bool:
        verdict = meets(rate)
        result.trail.append((rate, verdict))
        return verdict

    if probe(start):
        lo, hi = start, start * step
        while probe(hi):
            lo, hi = hi, hi * step
    else:
        lo, hi = start / step, start
        while lo > floor and not probe(lo):
            lo, hi = lo / step, lo
        if lo <= floor:
            lo = floor
            if not floor_known and not probe(lo):
                raise NoCapacity(f"no rate down to {floor:g} req/s meets the SLO")
    for _ in range(refine):
        mid = math.sqrt(lo * hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    result.capacity = lo
    return result
