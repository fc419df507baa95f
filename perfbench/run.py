"""Open-loop socket benchmark of the transaction server.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload commit-durable --seed 1 --seconds 36 --trace 0

The server runs in its own process (``server_main.py``) and this process
drives it over TCP with an open-loop, pipelined generator (``loadgen.py``).
An untraced run (``--trace 0``) sets the server up three times (``setup_s``
is the median), warms it up, measures a window at the workload's fixed
nominal rate, searches for the capacity at the workload's p99 SLO, and ends
with the correctness gate (``checks.py``).  A traced run (``--trace 1``)
measures the nominal window twice, on an untraced and on a traced server
from the same initial state and requests, and reports the per-layer metrics
of ``layers.py``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exit codes: 0 ok,
1 a correctness check failed, 2 usage or missing sources, 3 the generator
fell behind its schedule, 4 not even a quarter of the nominal rate meets the
SLO.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import checks
import layers
import measure
import workloads as wl
from loadgen import run_open_loop
from serverproc import ServerProcess, split_cpus

#: server set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3

#: shares of ``--seconds``: warm-up, nominal window, one capacity probe
WARMUP_SHARE = 0.05
NOMINAL_SHARE = 0.25
PROBE_SHARE = 0.07

#: the nominal window is this many parts, each started from a full
#: collection (see ``server_main.py``) and each with enough samples for its
#: own p99; p50_ms and p99_ms are the medians of the parts' figures, so one
#: part hit by a stall of the machine does not move them
NOMINAL_PARTS = 3

#: tries per measured phase before a generator that keeps falling behind
#: makes the run invalid
GENERATOR_ATTEMPTS = 3

#: capacity ladder: start at CAPACITY_START x nominal (the nominal rates keep
#: the server about 40% busy, so the capacity lies well above), step by
#: CAPACITY_STEP, then CAPACITY_REFINE bisections: the resolution is
#: 1.25 ** (1 / 4) - 1 = 5.7%, finer than the bound on capacity_rps
CAPACITY_START = 3.0
CAPACITY_STEP = 1.25
CAPACITY_REFINE = 2

#: each phase must leave the server idle before the next one starts
DRAIN_S = 10.0


class GeneratorBehind(RuntimeError):
    pass


#: the end-to-end metrics of BENCHMARK.json, the only ones an untraced run
#: writes to its JSON line.  capacity_rps is scaled to the reference
#: calibration (``measure.at_reference``); the capacity as measured, p50_ms,
#: p99_ms and failed_frac are printed only, since on a shared 2-CPU host
#: their run-to-run spread exceeds any bound the benchmark may set (see
#: README.md)
GATED = ("capacity_rps", "cpu_ms_per_req", "ok_frac", "rss_mb", "setup_s")


@dataclass
class Metric:
    value: Optional[float]  # None: n/a
    unit: str
    samples: str            # what the figure was computed from


class Ledger:
    """Every request sent in a run, for the correctness gate."""

    def __init__(self) -> None:
        self.kinds: List[str] = []
        self.outcomes: List[str] = []

    def add(self, kinds: List[str], stats: measure.PhaseStats) -> None:
        self.kinds.extend(kinds)
        self.outcomes.extend(stats.outcomes)


def phase_size(rate: float, seconds: float) -> int:
    return max(math.ceil(rate * seconds), measure.min_samples(0.99) + 100)


class Run:
    def __init__(self, args: argparse.Namespace, root: str):
        self.workload = wl.WORKLOADS[args.workload]
        self.seed = args.seed
        self.seconds = args.seconds
        self.src = os.path.join(root, "src")
        self.dir = os.path.join(
            root, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}"
        )
        os.makedirs(self.dir)
        self.edges = wl.initial_graph(self.workload, self.seed)
        self.graph_path = os.path.join(self.dir, "graph.json")
        with open(self.graph_path, "w") as handle:
            json.dump(self.edges, handle)
        self.stream = wl.op_stream(self.workload, self.seed, self.edges)
        #: the requests each server was sent, for its correctness gate
        self.ledgers: Dict[ServerProcess, Ledger] = {}

    def take(self, n: int) -> List[Tuple[str, bytes]]:
        return list(itertools.islice(self.stream, n))

    def spawn(self, name: str, traced: bool = False) -> ServerProcess:
        trace_out = os.path.join(self.dir, f"{name}.spans") if traced else ""
        server = ServerProcess(self.src, self.graph_path,
                               os.path.join(self.dir, name), trace_out)
        self.ledgers[server] = Ledger()
        return server

    def close(self) -> None:
        for server in self.ledgers:
            server.kill()
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.dir))
        except OSError:
            pass

    # -- phases ---------------------------------------------------------------

    def run_phase(self, server: ServerProcess, ops: List[Tuple[str, bytes]],
                  rate: float) -> Tuple[measure.PhaseStats, float]:
        """Offer ``ops`` at ``rate``; returns the stats and server CPU seconds."""
        server.collect_and_calibrate()
        cpu0 = server.cpu_s()
        result = run_open_loop(server.address, [body for _, body in ops], rate,
                               drain_s=DRAIN_S)
        cpu = server.cpu_s() - cpu0
        stats = measure.summarize(result)
        self.ledgers[server].add([kind for kind, _ in ops], stats)
        return stats, cpu

    def measured(self, server: ServerProcess, ops, rate: float,
                 what: str) -> Tuple[measure.PhaseStats, float, list]:
        """A phase whose generator kept its schedule, on fresh requests each
        try; after GENERATOR_ATTEMPTS tries the run is invalid."""
        for attempt in range(1, GENERATOR_ATTEMPTS + 1):
            stats, cpu = self.run_phase(server, ops, rate)
            if stats.generator_kept_up(self.workload.slo_ms):
                return stats, cpu, ops
            print(f"  {what}: generator behind (late p99 "
                     f"{stats.late_p99_ms:.2f} ms, max {stats.late_max_ms:.2f} ms)"
                     f"; attempt {attempt} of {GENERATOR_ATTEMPTS}")
            ops = self.take(len(ops))
        raise GeneratorBehind(
            f"{what}: generator fell behind {GENERATOR_ATTEMPTS} times"
        )

    def nominal_window(self, server: ServerProcess, warm_ops, parts):
        """Warm-up (not measured, so not checked) then the nominal window."""
        rate = self.workload.nominal_rps
        if warm_ops:
            self.run_phase(server, warm_ops, rate)
        measured = [self.measured(server, ops, rate, f"nominal {i + 1}")
                    for i, ops in enumerate(parts)]
        return ([stats for stats, _, _ in measured],
                sum(cpu for _, cpu, _ in measured),
                [ops for _, _, ops in measured])

    def nominal_ops(self):
        rate = self.workload.nominal_rps
        warm = self.take(math.ceil(rate * self.seconds * WARMUP_SHARE))
        part = phase_size(rate, self.seconds * NOMINAL_SHARE / NOMINAL_PARTS)
        return warm, [self.take(part) for _ in range(NOMINAL_PARTS)]

    def gate(self, server: ServerProcess) -> Tuple[List[str], float]:
        """The correctness checks; returns failures and recovery ms."""
        ledger = self.ledgers[server]
        failures: List[str] = []
        counts, problems = checks.accounting(ledger.outcomes)
        failures += problems
        failures += checks.loops_refused(ledger.kinds, ledger.outcomes,
                                         wl.LOOP_INSERT)
        failures += checks.server_agrees(counts, server.metrics())
        status, payload = server.request("POST", "/read", {"scan": "E"})
        if status != 200:
            failures.append(f"final scan failed: {status} {payload}")
            return failures, 0.0
        served = [tuple(edge) for edge in payload["result"]]
        failures += checks.constraints_hold(served)
        server.kill()
        problems, recover_s = checks.recovered_matches(server.wal_dir, served)
        failures += problems
        print(f"gate: {len(served)} live edges (initial "
                 f"{len(self.edges)}); outcomes {counts}; recovery "
                 f"{recover_s * 1e3:.1f} ms")
        return failures, recover_s * 1e3

    # -- the two kinds of run ---------------------------------------------------

    def untraced(self) -> Tuple[Dict[str, Metric], List[str]]:
        w = self.workload
        setups = []
        for i in range(SETUPS):
            server = self.spawn(f"server{i}")
            setups.append(server.setup_s)
            if i < SETUPS - 1:
                server.stop()
        print(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")

        warm, parts = self.nominal_ops()
        parts, cpu, _ = self.nominal_window(server, warm, parts)
        nominal = measure.merge(parts)
        answered = nominal.attempted - nominal.failed
        rss = server.peak_rss_mb()
        print(f"probe p99 pooled {nominal.p(0.99):.3f} ms; nominal parts: " + "; ".join(
            f"p50 {p.p(0.5):.3f} p99 {p.p(0.99):.3f} ms ({p.attempted})"
            for p in parts))
        print(f"nominal {w.nominal_rps:g} req/s: {nominal.attempted} samples, "
                 f"generator late p99 {nominal.late_p99_ms:.3f} ms / max "
                 f"{nominal.late_max_ms:.3f} ms, generator CPU "
                 f"{nominal.gen_cpu_s:.2f} s")

        def meets(rate: float) -> bool:
            # a miss may be one stall (a full collection, a checkpoint, a
            # descheduled CPU) rather than overload: a rate meets the SLO
            # when either of two probes does
            for attempt in (1, 2):
                ops = self.take(phase_size(rate, self.seconds * PROBE_SHARE))
                stats, _, _ = self.measured(server, ops, rate, f"probe {rate:.0f}")
                ok = stats.meets(w.slo_ms)
                print(f"  probe {rate:8.1f} req/s: p99 {stats.p(0.99):9.2f} ms, "
                         f"backlog {stats.backlog_end:5d}, {len(ops)} samples -> "
                         f"{'meets' if ok else 'misses'} the {w.slo_ms:g} ms SLO")
                if ok:
                    break
            return ok

        nominal_ok = all(p.meets(w.slo_ms) for p in parts)
        capacity = measure.find_capacity(
            meets, w.nominal_rps * CAPACITY_START, CAPACITY_STEP,
            w.nominal_rps if nominal_ok else w.nominal_rps / 4, CAPACITY_REFINE,
            floor_known=nominal_ok,
        )
        failures, _ = self.gate(server)
        n = nominal.attempted
        nominal_samples = f"{n} requests in {NOMINAL_PARTS} parts"
        probes = f"{len(capacity.trail)} probes of >= {measure.min_samples(0.99)}"
        speed = server.calibration()
        metrics = {
            "capacity_rps": Metric(
                measure.at_reference(capacity.capacity, speed, per_time=True),
                "req/s", f"at {measure.REFERENCE_CALIBRATION_MS:g} ms "
                f"calibration; {probes}"),
            "cpu_ms_per_req": Metric(cpu * 1e3 / answered, "ms", nominal_samples),
            "ok_frac": Metric(1.0 - nominal.failed / n, "ratio", nominal_samples),
            "setup_s": Metric(measure.median(setups), "s", f"{SETUPS} set-ups"),
            "rss_mb": Metric(rss, "MB", "1 server"),
            "capacity_rps_measured": Metric(capacity.capacity, "req/s", probes),
            "calibration_ms": Metric(speed, "ms", f"median of "
                                     f"{len(server.calibrations)} in the server"),
            "p50_ms": Metric(measure.median([p.p(0.50) for p in parts]), "ms",
                             f"median of {NOMINAL_PARTS} parts, {n} requests"),
            "p99_ms": Metric(measure.median([p.p(0.99) for p in parts]), "ms",
                             f"median of {NOMINAL_PARTS} parts, {n} requests"),
            "failed_frac": Metric(nominal.failed / n, "ratio", nominal_samples),
        }
        return metrics, failures

    def traced(self) -> Tuple[Dict[str, Metric], List[str]]:
        warm, parts = self.nominal_ops()
        plain = self.spawn("plain")
        stats, cpu_plain, parts = self.nominal_window(plain, warm, parts)
        stats = measure.merge(stats)
        plain_ms = cpu_plain * 1e3 / (stats.attempted - stats.failed)
        plain.stop()

        server = self.spawn("traced", traced=True)
        self.run_phase(server, warm, self.workload.nominal_rps)
        before = server.metrics()
        w0 = time.perf_counter()
        nominal, cpu, _ = self.nominal_window(server, [], parts)
        nominal = measure.merge(nominal)
        w1 = time.perf_counter()
        after = server.metrics()
        server.dump_trace()
        spans = layers.load_spans(server.trace_out)
        self.calibration = server.calibration()
        failures, recover_ms = self.gate(server)
        answered = [lat for lat, o in zip(nominal.latencies_ms, nominal.outcomes)
                    if o != measure.FAILED]
        counters = {k: after[k] - before.get(k, 0.0) for k in after}
        values = layers.compute(
            spans, (w0, w1), len(answered),
            nominal.outcomes.count(measure.READ),
            sum(answered) / len(answered), counters, recover_ms,
        )
        values["trace.overhead_ms"] = cpu * 1e3 / len(answered) - plain_ms
        print(f"traced window: {nominal.attempted} requests, {len(spans)} spans, "
                 f"mean latency {sum(answered) / len(answered):.3f} ms; "
                 f"cpu_ms_per_req untraced {plain_ms:.4f}, traced "
                 f"{cpu * 1e3 / len(answered):.4f}")
        units = {name: unit for name, unit, *_ in layers.LAYERS}
        window = f"traced window, {nominal.attempted} requests"
        source = {"db.recover_ms": "recovery after SIGKILL"}
        metrics = {
            name: Metric(value, units[name], source.get(
                name, "set-up" if name.startswith("core.") else window))
            for name, value in values.items()
        }
        return metrics, failures


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no repro sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]

    # a stopped harness must still stop its servers (run.close in finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    server_cpus, harness_cpus = split_cpus()
    os.sched_setaffinity(0, harness_cpus)
    calibration = measure.median([measure.calibration_ms() for _ in range(3)])
    w = wl.WORKLOADS[args.workload]
    run = Run(args, root)
    print(f"workload {w.name}: {w.accounts} accounts x {w.edges_per} edges, "
          f"SLO p99 <= {w.slo_ms:g} ms, nominal {w.nominal_rps:g} req/s, "
          f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"calibration {calibration:.2f} ms; server on CPUs "
          f"{sorted(server_cpus)}, generator on {sorted(harness_cpus)}",
          flush=True)
    try:
        if args.trace:
            metrics, failures = run.traced()
            metrics["machine.calibration_ms"] = Metric(
                run.calibration, "ms", "median over the traced server's phases")
        else:
            metrics, failures = run.untraced()
    except GeneratorBehind as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 3
    except measure.NoCapacity as exc:
        print(f"failed run: {exc}", file=sys.stderr)
        return 4
    finally:
        run.close()

    outcomes = [o for ledger in run.ledgers.values() for o in ledger.outcomes]
    attempted = len(outcomes)
    failed = outcomes.count(measure.FAILED)
    reported = [name for name in metrics if args.trace or name in GATED]
    for name, m in metrics.items():
        shown = "n/a" if m.value is None else f"{m.value:.6g}"
        note = "" if name in reported else ", not gated"
        print(f"{name:26s} {shown:>12s} {m.unit:6s} ({m.samples}{note})")
    if failures:
        for failure in failures:
            print(f"CORRECTNESS FAILURE: {failure}")
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        # n/a (a layer the workload never reached) is written as 0
        "metrics": {
            name: {"value": metrics[name].value or 0.0, "unit": metrics[name].unit}
            for name in reported
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
