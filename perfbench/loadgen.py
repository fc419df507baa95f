"""Open-loop, pipelined load generator.

One process, one thread, at most ``nproc`` connections.  Request ``i`` is due
at ``t0 + i / rate`` (constant spacing) and goes out on connection
``i % connections`` whether or not earlier requests have been answered, so a
stalled server builds a queue instead of slowing the arrivals.  Latency runs
from the *scheduled* send time to the moment the response is parsed, which
charges a stall to every request that was due during it.  The generator's own
lateness against the schedule and its CPU time are recorded, so a run where
the generator, not the server, fell behind can be told apart and thrown out.
"""

from __future__ import annotations

import os
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

_HEAD_END = b"\r\n\r\n"
_LENGTH = b"content-length:"


@dataclass
class PhaseResult:
    rate: float
    scheduled: List[float]           # offsets from t0, seconds
    latency: List[Optional[float]]   # seconds from scheduled send; None = no response
    status: List[int]                # HTTP status, 0 = no response
    body: List[bytes]
    lateness: List[float]            # actual - scheduled send, seconds
    gen_cpu_s: float
    wall_s: float

    @property
    def attempted(self) -> int:
        return len(self.scheduled)

    def backlog_at(self, t: float) -> int:
        """Requests due by ``t`` (offset) minus requests answered by ``t``."""
        due = sum(1 for s in self.scheduled if s <= t)
        done = sum(
            1 for s, lat in zip(self.scheduled, self.latency)
            if lat is not None and s + lat <= t
        )
        return due - done


class _Conn:
    __slots__ = ("sock", "out", "inbuf", "inflight", "dead", "writing")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.out = bytearray()
        self.inbuf = bytearray()
        self.inflight: Deque[int] = deque()  # request indices, send order
        self.dead = False
        self.writing = False


def _parse_one(buf: bytearray) -> Optional[Tuple[int, bytes, int]]:
    """``(status, body, consumed)`` for one complete response, else ``None``."""
    end = buf.find(_HEAD_END)
    if end < 0:
        return None
    head = bytes(buf[:end]).lower()
    status = int(head[9:12])
    at = head.find(_LENGTH)
    length = 0
    if at >= 0:
        stop = head.find(b"\r\n", at)
        length = int(head[at + len(_LENGTH): stop if stop >= 0 else None])
    start = end + 4
    if len(buf) < start + length:
        return None
    return status, bytes(buf[start:start + length]), start + length


def run_open_loop(
    address: Tuple[str, int],
    requests: Sequence[bytes],
    rate: float,
    drain_s: float = 5.0,
) -> PhaseResult:
    """Offer ``requests`` at ``rate`` per second; wait ``drain_s`` for stragglers."""
    n = len(requests)
    conns: List[_Conn] = []
    for _ in range(max(1, min(2, os.cpu_count() or 1))):
        sock = socket.create_connection(address, timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        conns.append(_Conn(sock))
    # select(2) takes a microsecond timeout; epoll rounds up to whole
    # milliseconds, which would make every send up to 1 ms late
    sel = selectors.SelectSelector()
    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)

    latency: List[Optional[float]] = [None] * n
    status = [0] * n
    body = [b""] * n
    lateness = [0.0] * n
    interval = 1.0 / rate
    scheduled = [i * interval for i in range(n)]
    answered = 0
    cpu0 = time.process_time()
    t0 = time.perf_counter() + 0.02
    deadline = t0 + (scheduled[-1] if n else 0.0) + drain_s
    nxt = 0
    try:
        while answered < n:
            now = time.perf_counter()
            if now > deadline:
                break
            while nxt < n and t0 + scheduled[nxt] <= now:
                conn = conns[nxt % len(conns)]
                lateness[nxt] = now - (t0 + scheduled[nxt])
                if conn.dead:
                    answered += 1  # counted as no response
                else:
                    conn.out += requests[nxt]
                    conn.inflight.append(nxt)
                nxt += 1
            for conn in conns:
                if conn.out and not conn.dead:
                    answered += _flush(sel, conn)
            timeout = deadline - now
            if nxt < n:
                timeout = min(timeout, t0 + scheduled[nxt] - now)
            for key, mask in sel.select(max(0.0, timeout)):
                conn = key.data
                if mask & selectors.EVENT_WRITE and not conn.dead:
                    answered += _flush(sel, conn)
                if mask & selectors.EVENT_READ and not conn.dead:
                    answered += _receive(sel, conn, t0, scheduled,
                                         latency, status, body)
    finally:
        wall = time.perf_counter() - t0
        gen_cpu = time.process_time() - cpu0
        sel.close()
        for conn in conns:
            conn.sock.close()
    # requests never sent (deadline hit first) still count as attempted
    for i in range(nxt, n):
        lateness[i] = max(0.0, wall - scheduled[i])
    return PhaseResult(rate, scheduled, latency, status, body, lateness,
                       gen_cpu, wall)


def _flush(sel: selectors.BaseSelector, conn: _Conn) -> int:
    """Send what the socket takes; returns requests lost to a dead socket."""
    try:
        sent = conn.sock.send(conn.out)
    except BlockingIOError:
        sent = 0
    except OSError:
        return _kill(sel, conn)
    del conn.out[:sent]
    writing = bool(conn.out)
    if writing != conn.writing:
        conn.writing = writing
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if writing else 0)
        sel.modify(conn.sock, events, conn)
    return 0


def _kill(sel: selectors.BaseSelector, conn: _Conn) -> int:
    """A dead connection: its in-flight requests stay unanswered."""
    if conn.dead:
        return 0
    conn.dead = True
    lost = len(conn.inflight)
    conn.inflight.clear()
    conn.out.clear()
    sel.unregister(conn.sock)
    return lost


def _receive(sel, conn: _Conn, t0, scheduled, latency, status, body) -> int:
    try:
        data = conn.sock.recv(1 << 18)
    except BlockingIOError:
        return 0
    except OSError:
        data = b""
    if not data:
        return _kill(sel, conn)
    now = time.perf_counter()
    conn.inbuf += data
    done = 0
    while conn.inflight:
        parsed = _parse_one(conn.inbuf)
        if parsed is None:
            break
        code, payload, used = parsed
        del conn.inbuf[:used]
        i = conn.inflight.popleft()
        latency[i] = now - (t0 + scheduled[i])
        status[i] = code
        body[i] = payload
        done += 1
    return done
