"""E22 — availability under injected faults: the resilience stack, measured.

E21 measured the serving front-end on a healthy machine; E22 measures it on
a *faulty* one.  The same open-loop methodology drives two phases against
durable WAL services: a fault-free baseline, then the identical arrival
schedule with a deterministic fault mix installed — probabilistic fsync and
commit-batch failures plus leader stalls, the REPRO_FAULTS production knob
exercised through its programmatic twin.  The figures of merit are
*availability* (definitive successful responses / offered), *goodput*
(acked commits per second), the shed rate of the overload guard, and the
latency tail the retries cost.

Wall-clock figures are recorded in the trajectory but not baseline-gated
(they are hardware- and scheduler-shaped); the deterministic durability
check — every acked commit survives crash+recovery even under the fault
mix — is asserted inline.
"""

import json
import os
import time

import pytest

from repro import faults
from repro.db import WalStorageEngine
from repro.engine import active_backend
from repro.serve import ServerThread, drive_open_loop, encode_request, preregister
from repro.service import build_service, forward_graph

CLIENTS = 96
REQUESTS_PER_CLIENT = 4
WINDOW_S = 2.5
ACCOUNTS, EDGES_PER = 100, 4
MAX_INFLIGHT = 16  # small enough that stalls make the overload guard visible


def bench_seed() -> int:
    try:
        return int(os.environ.get("REPRO_SEED", "0"))
    except ValueError:
        return 0


def emit_metric(name: str, payload: dict) -> None:
    print(f"BENCH-METRIC {json.dumps({'metric': name, **payload}, sort_keys=True)}")


def percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def fault_mix(seed: int) -> faults.FaultPlan:
    """The fixed chaos recipe: storage failures + leader stalls."""
    return (
        faults.FaultPlan(seed=seed)
        .site("wal.fsync", probability=0.05, exc="storage", limit=40)
        .site("storage.commit_batch", probability=0.05, exc="storage", limit=40)
        .site("service.leader.stall", probability=0.25, latency=0.002, exc="none")
    )


def build_schedules(generation: int):
    """Pipelined bursts of disjoint fresh edges, staggered across the window."""
    schedules = []
    index = generation * CLIENTS * REQUESTS_PER_CLIENT
    for client in range(CLIENTS):
        offset = (client / CLIENTS) * WINDOW_S
        burst = []
        for _ in range(REQUESTS_PER_CLIENT):
            a = 2_000_000 + 2 * index
            body = {"template": "link-forward", "params": [a, a + 1]}
            burst.append((offset, encode_request("POST", "/txn", body)))
            index += 1
        schedules.append(burst)
    return schedules


def run_phase(tmp_path, name: str, generation: int, plan=None):
    """One open-loop pass against a fresh durable service; returns figures."""
    seed = bench_seed()
    initial = forward_graph(ACCOUNTS, EDGES_PER, seed=1 + seed)
    engine = WalStorageEngine(
        str(tmp_path / f"wal-{name}"), fsync="commit", checkpoint_interval=0
    )
    service = build_service(initial, commit_timeout=60.0, engine=engine)
    schedules = build_schedules(generation)
    total = CLIENTS * REQUESTS_PER_CLIENT
    try:
        with ServerThread(
            service, owns_service=False, max_inflight=MAX_INFLIGHT
        ) as harness:
            preregister(harness.server)
            host, port = harness.address
            if plan is not None:
                faults.install(plan)
            try:
                started = time.perf_counter()
                results = drive_open_loop(host, port, schedules, warmup=1.0)
                elapsed = time.perf_counter() - started - 1.0
            finally:
                faults.uninstall()
            shed = harness.server._shed_total
        # results come back in client-then-schedule order; pair each with
        # its request body to recover which edges were acked
        acked = []
        flat_requests = [raw for schedule in schedules for _offset, raw in schedule]
        for raw, result in zip(flat_requests, results):
            if result is None:
                continue
            _latency, status, payload = result
            if status == 200 and payload["status"] == "committed":
                body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
                acked.append(tuple(body["params"]))
        service.store.engine.crash()
    finally:
        service.close()

    dead = sum(1 for r in results if r is None)
    committed = len(acked)
    latencies_ms = sorted(
        lat * 1000.0 for lat, _s, _p in (r for r in results if r is not None)
    )
    stats = service.stats.as_dict()
    figures = {
        "offered": total,
        "dead": dead,
        "committed": committed,
        "availability": round(committed / total, 3),
        "goodput_txn_s": round(committed / elapsed, 1) if elapsed > 0 else 0.0,
        "p50_ms": round(percentile(latencies_ms, 0.50), 3),
        "p99_ms": round(percentile(latencies_ms, 0.99), 3),
        "shed": shed,
        "shed_rate": round(shed / total, 3),
        "transient_retries": stats.get("transient_retries", 0),
        "commit_failures": stats.get("commit_failures", 0),
    }
    # the deterministic half of the phase: acked implies durable, faults or
    # not — recover the WAL independently and look for every acked edge
    from repro.db import GRAPH_SCHEMA, Store

    with Store(
        GRAPH_SCHEMA, engine=WalStorageEngine(str(tmp_path / f"wal-{name}"))
    ) as reborn:
        recovered = reborn.snapshot().relation("E")
        lost = [edge for edge in acked if edge not in recovered]
        assert not lost, f"acked edges lost under {name}: {lost[:5]}"
    return figures


def test_e22_availability_under_faults(benchmark, tmp_path):
    """Baseline vs fault-mix open loop: availability, goodput, tails, sheds."""
    if active_backend().name == "naive":
        pytest.skip("the serving stack rides the compiled engine's fast paths")
    seed = bench_seed()
    phases = {}

    def run():
        baseline = run_phase(tmp_path, "baseline", generation=0, plan=None)
        faulty = run_phase(tmp_path, "faulty", generation=1, plan=fault_mix(seed))
        return baseline, faulty

    baseline, faulty = benchmark.pedantic(run, rounds=1, iterations=1)
    phases["baseline"], phases["faulty"] = baseline, faulty

    total = CLIENTS * REQUESTS_PER_CLIENT
    assert baseline["dead"] == 0 and faulty["dead"] == 0
    assert baseline["committed"] == total, "fault-free phase must ack everything"
    # under the mix the service keeps serving: transient failures are
    # absorbed by retries, sheds are explicit, goodput stays positive
    assert faulty["committed"] >= total * 0.5, faulty
    assert faulty["goodput_txn_s"] > 0
    assert faulty["transient_retries"] + faulty["commit_failures"] > 0, (
        "the fault mix never bit — the chaos phase measured nothing"
    )
    emit_metric(
        "e22-availability",
        {
            "cpus": os.cpu_count(),
            "seed": seed,
            "clients": CLIENTS,
            "requests": total,
            "window_s": WINDOW_S,
            "max_inflight": MAX_INFLIGHT,
            "baseline_p50_ms": baseline["p50_ms"],
            "baseline_p99_ms": baseline["p99_ms"],
            "baseline_goodput_txn_s": baseline["goodput_txn_s"],
            "faulty_p50_ms": faulty["p50_ms"],
            "faulty_p99_ms": faulty["p99_ms"],
            "faulty_goodput_txn_s": faulty["goodput_txn_s"],
            "availability": faulty["availability"],
            "shed_rate": faulty["shed_rate"],
            "transient_retries": faulty["transient_retries"],
            "commit_failures": faulty["commit_failures"],
        },
    )

