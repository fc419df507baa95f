"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/test_harness.py -q

They cover the tail-percentile rule, the capacity search against a stub
server with a known knee, the durability check on a WAL whose last acked
frame is torn, the naive-oracle constraint check, and the seeding and
steady-edge-count properties of the op streams.
"""

from __future__ import annotations

import itertools
import os
import selectors
import shutil
import socket
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from loadgen import run_open_loop  # noqa: E402


# -- BENCHMARK.json ---------------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.GATED)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in layers.LAYERS
    ]
    assert set(bench["paths"]) == {"perfbench"}
    assert {w["name"] for w in bench["workloads"]} <= set(wl.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# -- the tail-percentile rule -----------------------------------------------------

def test_p99_needs_ten_samples_beyond_it():
    assert measure.min_samples(0.99) == 1000
    assert measure.min_samples(0.50) == 20
    with pytest.raises(measure.NotEnoughSamples):
        measure.tail_percentile(range(999), 0.99)
    # nearest rank: the 990th of 1..1000, with ten samples above it
    assert measure.tail_percentile(range(1, 1001), 0.99) == 990


def test_median_and_p50():
    assert measure.median([3, 1, 2]) == 2
    assert measure.median([4, 1, 2, 3]) == 2.5
    assert measure.tail_percentile(range(1, 101), 0.50) == 50


def test_reference_scaling():
    ref = measure.REFERENCE_CALIBRATION_MS
    # on a machine twice as slow, times halve and rates double
    assert measure.at_reference(10.0, 2 * ref, per_time=False) == 5.0
    assert measure.at_reference(100.0, 2 * ref, per_time=True) == 200.0


def test_failed_requests_count_as_missing_the_slo():
    # 1% of 1000 may fail and p99 still holds; the eleventh failure breaks it
    assert measure.tail_percentile([1.0] * 990 + [float("inf")] * 10, 0.99) == 1.0
    assert measure.tail_percentile([1.0] * 989 + [float("inf")] * 11,
                                   0.99) == float("inf")


# -- the capacity search ----------------------------------------------------------

def test_capacity_search_climbs_to_a_known_step():
    knee = 437.0
    found = measure.find_capacity(lambda rate: rate <= knee, 100.0, 1.25, 50.0, 2)
    assert knee / 1.25 ** 0.25 <= found.capacity <= knee
    # one ladder step past the knee at most
    assert max(rate for rate, _ in found.trail) <= knee * 1.25


def test_capacity_search_descends_below_the_start():
    found = measure.find_capacity(lambda rate: rate <= 70.0, 300.0, 1.25, 50.0, 3)
    assert 70.0 / 1.25 ** 0.125 <= found.capacity <= 70.0


def test_capacity_search_stops_at_the_floor():
    found = measure.find_capacity(lambda rate: rate <= 10.0, 300.0, 1.25, 50.0, 2)
    assert found.capacity == 50.0  # the floor is known to meet the SLO
    with pytest.raises(measure.NoCapacity):
        measure.find_capacity(lambda rate: rate <= 10.0, 300.0, 1.25, 50.0, 2,
                              floor_known=False)


def _serve_stub(service_s: float, port_pipe) -> None:
    """A single-queue server with a fixed service time: the knee is 1/service.

    Responses are released at their virtual completion times (arrival, or
    the previous completion, plus ``service_s``), so the queue is an exact
    D/D/1 queue whatever the scheduler's sleep precision.  It runs in its
    own process so that it never waits for the generator's interpreter lock.
    """
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    port_pipe.send(listener.getsockname()[1])
    sel = selectors.SelectSelector()
    sel.register(listener, selectors.EVENT_READ, None)
    buffers = {}
    due = []  # (completion time, connection), in completion order
    busy_until = 0.0
    body = b'{"result":true}'
    reply = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
             b"Content-Length: %d\r\n\r\n" % len(body)) + body
    while True:
        now = time.perf_counter()
        while due and due[0][0] <= now:
            due.pop(0)[1].sendall(reply)
        timeout = 0.05 if not due else max(0.0, due[0][0] - now)
        for key, _ in sel.select(timeout):
            if key.data is None:
                conn, _ = listener.accept()
                buffers[conn] = b""
                sel.register(conn, selectors.EVENT_READ, conn)
                continue
            conn = key.data
            data = conn.recv(1 << 16)
            if not data:
                sel.unregister(conn)
                conn.close()
                continue
            buffers[conn] += data
            arrived = time.perf_counter()
            while True:
                end = buffers[conn].find(b"\r\n\r\n")
                if end < 0:
                    break
                head = buffers[conn][:end].lower()
                at = head.find(b"content-length:")
                length = int(head[at + 15:].split(b"\r\n")[0]) if at >= 0 else 0
                if len(buffers[conn]) < end + 4 + length:
                    break
                buffers[conn] = buffers[conn][end + 4 + length:]
                busy_until = max(arrived, busy_until) + service_s
                due.append((busy_until, conn))


def test_capacity_search_against_a_stub_server():
    import multiprocessing

    knee = 400.0
    slo_ms = 50.0
    ctx = multiprocessing.get_context("spawn")
    ours, theirs = ctx.Pipe()
    stub = ctx.Process(target=_serve_stub, args=(1.0 / knee, theirs), daemon=True)
    stub.start()
    request = b"POST /read HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
    try:
        assert ours.poll(30), "stub server did not start"
        address = ("127.0.0.1", ours.recv())

        def meets(rate: float) -> bool:
            n = max(measure.min_samples(0.99), int(rate * 2.0))
            result = run_open_loop(address, [request] * n, rate, drain_s=5.0)
            return measure.summarize(result).meets(slo_ms)

        found = measure.find_capacity(meets, 200.0, 1.25, 100.0, 2)
    finally:
        stub.terminate()
        stub.join(timeout=10)
    assert not stub.is_alive()
    assert knee / 1.25 ** 0.25 / 1.02 <= found.capacity <= knee * 1.01, found.trail


# -- the durability check ---------------------------------------------------------

def _durable_state(wal_dir: str):
    from repro.db import Database, WalStorageEngine
    from repro.serve import TransactionServer, preregister
    from repro.service import build_service

    service = build_service(Database.graph([(0, 1), (1, 2)]),
                            engine=WalStorageEngine(wal_dir, fsync="commit"))
    preregister(TransactionServer(service))
    try:
        for a, b in [(2, 3), (3, 4), (4, 5)]:
            work = lambda handle, a=a, b=b: handle.insert("E", (a, b))  # noqa: E731
            outcome = service.execute(work, template="link-forward", params=(a, b))
            assert outcome.committed
        return set(service.snapshot().relation("E"))
    finally:
        service.close()


def test_durability_check_passes_an_intact_wal(tmp_path):
    wal_dir = str(tmp_path / "wal")
    served = _durable_state(wal_dir)
    problems, _ = checks.recovered_matches(wal_dir, served)
    assert problems == []


def test_durability_check_catches_a_torn_last_frame(tmp_path):
    wal_dir = str(tmp_path / "wal")
    served = _durable_state(wal_dir)
    torn = str(tmp_path / "torn")
    shutil.copytree(wal_dir, torn)
    log = os.path.join(torn, "wal.log")
    with open(log, "r+b") as handle:
        handle.truncate(os.path.getsize(log) - 3)
    problems, _ = checks.recovered_matches(torn, served)
    assert problems and "1 edge(s) missing" in problems[0]


# -- the naive oracle -------------------------------------------------------------

def test_oracle_flags_loops_and_triangles():
    assert checks.constraints_hold([(0, 1), (1, 2), (0, 2)]) == []
    assert len(checks.constraints_hold([(3, 3)])) == 2  # a loop is a triangle too
    problems = checks.constraints_hold([(0, 1), (1, 2), (2, 0)])
    assert problems == ["served state violates 'no-triangles' under NaiveBackend"]


# -- the op streams ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_op_streams_are_seeded(name):
    workload = wl.WORKLOADS[name]

    def ops(seed):
        edges = wl.initial_graph(workload, seed)
        stream = wl.op_stream(workload, seed, edges)
        return edges, b"".join(body for _, body in itertools.islice(stream, 3000))

    assert ops(7) == ops(7)
    assert ops(7)[0] != ops(8)[0]
    assert ops(7)[1] != ops(8)[1]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_live_edge_count_stays_steady(name):
    """Replaying the stream as if every write committed: the edge count stays
    within PENDING_LAG of its initial value."""
    import json

    workload = wl.WORKLOADS[name]
    edges = wl.initial_graph(workload, 3)
    live = set(edges)
    for kind, body in itertools.islice(wl.op_stream(workload, 3, edges), 20000):
        payload = json.loads(body.split(b"\r\n\r\n", 1)[1])
        if kind in (wl.GUARDED_INSERT, wl.ADHOC_INSERT):
            pair = tuple(payload.get("params") or payload["ops"][0]["insert"][1])
            assert pair not in live
            live.add(pair)
        elif kind == wl.UNLINK:
            pair = tuple(payload.get("params") or payload["ops"][0]["delete"][1])
            assert pair in live
            live.discard(pair)
        assert abs(len(live) - len(edges)) <= wl.PENDING_LAG
