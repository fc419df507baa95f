"""The server over real sockets: conformance, batching, failure handling, drain.

The central test is an *oracle comparison*: the same deterministic submission
sequence is driven once over the wire and once directly through an in-process
``TransactionService``, and the outcomes and final states must agree exactly
— the network layer may add latency, never semantics.  Around it: the forced
one-batch pipelining test (wedge the group-commit leader, pipeline N
transactions, release — all N must commit at one version), malformed-input
and disconnect handling, tracing/metrics plumbing, and the graceful-shutdown
contract (drained commits, zero leaked threads).
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.obs import trace as _trace
from repro.serve import ServeClient, ServerThread, encode_request, preregister
from repro.serve.server import SERVE_WORKERS_ENV, default_serve_workers
from repro.service.workloads import build_service, forward_graph


# a deterministic mixed sequence: forward links, risky adds (loops and
# back-edges), deletes, and an ad-hoc multi-op transaction
def _script():
    steps = []
    for i in range(6):
        steps.append({"template": "link-forward", "params": [100 + i, 200 + i]})
    steps.append({"template": "add-edge", "params": [7, 7]})        # loop: refused
    steps.append({"template": "add-edge", "params": [201, 101]})    # back-edge
    steps.append({"template": "unlink", "params": [100, 200]})
    steps.append({"ops": [
        {"insert": ["E", [300, 301]]},
        {"insert": ["E", [301, 302]]},
    ]})
    return steps


class TestConformance:
    def test_wire_outcomes_equal_in_process_oracle(self, served):
        service, _harness, client = served
        oracle = build_service(forward_graph(40, 2, seed=9), commit_timeout=30.0)
        try:
            from repro.serve.server import standard_wire_templates

            wires = {w.name: w for w in standard_wire_templates()}
            for step in _script():
                status, wire_outcome = client.request("POST", "/txn", step)
                assert status == 200
                if "template" in step:
                    name, params = step["template"], tuple(step["params"])
                    work = wires[name].tracked_work(params)
                    local = oracle.execute(work, template=name, params=params)
                else:
                    from repro.serve import WireTemplate

                    adhoc = WireTemplate(
                        {"name": "_adhoc", "ops": step["ops"], "samples": [[]]}
                    )
                    local = oracle.execute(adhoc.tracked_work(()))
                assert wire_outcome["status"] == local.status, step
            assert client.scan("E")["result"] == sorted(
                (list(row) for row in oracle.snapshot().relation("E")), key=repr
            )
            assert service.invariant_holds()
            assert oracle.invariant_holds()
        finally:
            oracle.close()

    def test_reads_are_pinned_and_consistent(self, served):
        service, _harness, client = served
        client.submit("link-forward", [500, 501])
        assert client.contains("E", [500, 501])["result"] is True
        assert client.contains("E", [501, 500])["result"] is False
        assert client.evaluate("exists y . E(x, y)", x=500)["result"] is True
        assert client.evaluate("forall u . ~E(u, u)")["result"] is True
        scan = client.scan("E")
        assert [500, 501] in scan["result"]
        assert scan["version"] == service.store.version

    def test_template_listing_reflects_registrations(self, served):
        _service, _harness, client = served
        listed = client.request("GET", "/templates")[1]["templates"]
        names = {t["name"] for t in listed}
        assert {"link-forward", "unlink", "add-edge"} <= names
        spec = {
            "name": "listed",
            "ops": [{"insert": ["E", ["$0", "$1"]]}],
            "samples": [[0, 1]],
        }
        reply = client.register_template(spec)
        assert reply["registered"] == "listed"
        assert set(reply["verdicts"]) == {"no-loops", "no-triangles"}
        listed = client.request("GET", "/templates")[1]["templates"]
        assert any(t["name"] == "listed" for t in listed)
        # re-registering the same shape is idempotent; a different shape is not
        client.register_template(spec)
        status, payload = client.request(
            "POST", "/templates",
            {**spec, "ops": [{"delete": ["E", ["$0", "$1"]]}]},
        )
        assert status == 400 and "different shape" in payload["error"]


class TestBatching:
    def test_pipelined_batch_commits_at_one_version(self, served):
        """One network flush -> one group-commit batch -> one store apply."""
        service, _harness, client = served
        count = 6
        batches_before = service.stats.as_dict()["batches"]
        # wedge the leader seat so every pipelined transaction queues up
        assert service._commit_lock.acquire(timeout=5)
        released = threading.Event()

        def release_when_queued():
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with service._queue_lock:
                    if len(service._queue) >= count:
                        break
                time.sleep(0.002)
            with service._commit_cond:
                service._commit_lock.release()
                service._commit_cond.notify_all()
            released.set()

        releaser = threading.Thread(target=release_when_queued)
        releaser.start()
        try:
            outcomes = client.submit_many(
                [
                    {"template": "link-forward", "params": [600 + i, 700 + i]}
                    for i in range(count)
                ]
            )
        finally:
            releaser.join()
        assert released.is_set()
        statuses = [payload["status"] for _s, payload in outcomes]
        assert statuses == ["committed"] * count
        versions = {payload["version"] for _s, payload in outcomes}
        assert len(versions) == 1, (
            f"one pipelined flush must commit as one batch; saw versions {versions}"
        )
        stats = service.stats.as_dict()
        assert stats["max_batch"] >= count
        assert stats["batches"] == batches_before + 1

    def test_mixed_batch_answers_in_request_order(self, served):
        # point reads are answered on the event loop, evaluate/scan/txn in
        # the worker pool: one pipelined flush mixing them must still get
        # its responses back in request order
        _service, _harness, client = served
        replies = client.pipeline([
            ("POST", "/txn", {"template": "link-forward", "params": [760, 761]}),
            ("POST", "/read", {"contains": ["E", [760, 761]]}),
            ("POST", "/read", {"evaluate": {"formula": "exists y . E(x, y)",
                                            "assignment": {"x": 760}}}),
            ("GET", "/health", None),
            ("POST", "/read", {"contains": ["E", [761, 760]]}),
            ("POST", "/read", {"scan": "E"}),
        ])
        assert [status for status, _ in replies] == [200] * 6
        txn, probe, evaluated, health, absent, scan = (p for _s, p in replies)
        assert txn["status"] == "committed"
        assert isinstance(probe["result"], bool)
        assert isinstance(evaluated["result"], bool)
        assert health["status"] == "ok"
        assert absent["result"] is False
        assert isinstance(scan["result"], list)
        assert client.contains("E", [760, 761])["result"] is True

    def test_batch_metrics_are_recorded(self, served):
        _service, _harness, client = served
        client.submit_many(
            [{"template": "link-forward", "params": [800 + i, 900 + i]}
             for i in range(4)]
        )
        snapshot = client.stats()["metrics"]
        assert snapshot["serve.batches"] >= 1
        assert snapshot["serve.batched_requests"] >= 4
        # the /stats request observing the gauge is control-plane: it is
        # neither shed nor counted against the dispatch-bound capacity
        assert snapshot["serve.inflight"] == 0
        assert snapshot["serve.txn.latency_ms"]["count"] >= 4


class TestFailureHandling:
    def test_malformed_requests_get_400_and_service_survives(self, served):
        service, harness, client = served
        host, port = harness.address
        # broken framing: 400 then the connection is closed
        with socket.create_connection((host, port), timeout=10) as raw:
            raw.sendall(b"COMPLETE GARBAGE\r\n\r\n")
            reply = raw.recv(65536)
            assert b"400" in reply.split(b"\r\n", 1)[0]
            assert raw.recv(65536) == b""
        # bad JSON, unknown route, unknown template, bad params: per-request
        # errors on a connection that stays usable
        status, _ = client.request("POST", "/txn", None)
        assert status == 400
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("POST", "/txn", {"template": "ghost"})[0] == 400
        assert client.request("POST", "/txn", {"template": "unlink"})[0] == 400
        assert client.request("POST", "/read", {"scan": "NoSuchRelation"})[0] == 400
        assert client.request("POST", "/read", {"peek": "E"})[0] == 400
        assert client.request(
            "POST", "/read", {"contains": ["NoSuchRelation", [1, 2]]}
        )[0] == 400
        assert client.request("POST", "/read", {"contains": "E"})[0] == 400
        # ...and the service still commits fine afterwards
        status, outcome = client.submit("link-forward", [950, 951])
        assert status == 200 and outcome["status"] == "committed"
        assert service.invariant_holds()

    def test_disconnect_mid_commit_still_commits(self, served):
        service, harness, client = served
        host, port = harness.address
        edge = [970, 971]
        raw = socket.create_connection((host, port), timeout=10)
        raw.sendall(encode_request(
            "POST", "/txn", {"template": "link-forward", "params": edge}
        ))
        raw.close()  # gone before the response
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if client.contains("E", edge)["result"]:
                break
            time.sleep(0.01)
        assert client.contains("E", edge)["result"] is True
        assert service.invariant_holds()


class TestObservability:
    def test_service_txn_spans_nest_under_serve_request(self, served):
        _service, _harness, client = served
        _trace.configure("on")
        try:
            _trace.clear()
            client.submit("link-forward", [980, 981])
            spans = _trace.finished()
        finally:
            _trace.configure("off")
        serves = [s for s in spans if s["name"] == "serve.request"]
        assert serves, "the txn endpoint must open a serve.request span"
        assert serves[-1].get("attrs", {}).get("route") == "txn"
        children = [
            s for s in spans
            if s["name"] == "service.txn" and s["parent_id"] == serves[-1]["span_id"]
        ]
        assert children, "service.txn must be parented under serve.request"

    def test_prometheus_exposition_includes_serve_metrics(self, served):
        _service, _harness, client = served
        client.submit("link-forward", [985, 986])
        text = client.metrics_text()
        assert "serve_requests" in text
        assert "serve_txn_latency_ms" in text


class TestLifecycle:
    def test_graceful_shutdown_drains_and_leaks_no_threads(self):
        baseline = set(threading.enumerate())
        service = build_service(forward_graph(30, 2, seed=4), commit_timeout=30.0)
        harness = ServerThread(service, owns_service=True).start()
        preregister(harness.server)
        host, port = harness.address
        with ServeClient(host, port) as client:
            outcomes = client.submit_many(
                [{"template": "link-forward", "params": [20 + i, 60 + i]}
                 for i in range(5)]
            )
            assert all(p["status"] == "committed" for _s, p in outcomes)
        harness.stop()
        # stop() must have closed the owned service (idempotent close proves it)
        assert service._owns_store is False
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            leaked = set(threading.enumerate()) - baseline
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked, f"threads leaked past shutdown: {leaked}"

    def test_stop_ends_an_idle_keep_alive_connection(self):
        baseline = set(threading.enumerate())
        service = build_service(forward_graph(30, 2, seed=6), commit_timeout=30.0)
        harness = ServerThread(service, owns_service=True).start()
        preregister(harness.server)
        host, port = harness.address
        with socket.create_connection((host, port), timeout=10.0) as idle:
            idle.sendall(encode_request("GET", "/health"))
            blob = b""
            while b"\r\n\r\n" not in blob:
                blob += idle.recv(65536)
            assert blob.startswith(b"HTTP/1.1 200")
            # the connection stays open and idle: the server sits in a read
            started = time.monotonic()
            harness.stop(timeout=5.0)
            assert time.monotonic() - started < 5.0
            idle.settimeout(5.0)
            rest = blob.split(b"\r\n\r\n", 1)[1]
            while True:
                chunk = idle.recv(65536)
                if not chunk:
                    break  # end of file: the server closed its side
                rest += chunk
            assert b"HTTP/1.1" not in rest  # no response beyond the health reply
        assert service._owns_store is False  # stop() closed the owned service
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            leaked = set(threading.enumerate()) - baseline
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked, f"threads leaked past shutdown: {leaked}"

    def test_stop_rejects_new_connections_but_finishes_started_work(self):
        service = build_service(forward_graph(30, 2, seed=5), commit_timeout=30.0)
        with ServerThread(service, owns_service=True) as harness:
            preregister(harness.server)
            host, port = harness.address
            with ServeClient(host, port) as client:
                status, outcome = client.submit("link-forward", [21, 61])
                assert status == 200 and outcome["status"] == "committed"
        # after the context exits the listener is gone
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2)

    def test_workers_env_knob_warns_on_garbage(self, monkeypatch):
        monkeypatch.setenv(SERVE_WORKERS_ENV, "12")
        assert default_serve_workers() == 12
        monkeypatch.setenv(SERVE_WORKERS_ENV, "a-few")
        with pytest.warns(RuntimeWarning, match="REPRO_SERVE_WORKERS"):
            assert default_serve_workers() == 8
        monkeypatch.delenv(SERVE_WORKERS_ENV)
        assert default_serve_workers() == 8
