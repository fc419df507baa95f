"""The server under test as a child process.

The harness imports ``repro`` (``src/`` is on its path) only for the
program's own blocking client, ``ServeClient``, used on the control plane:
the first request of a set-up, ``/metrics`` and the final scan.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: how long a server may take from spawn to its first answered request
START_TIMEOUT_S = 60.0


def child_env(src: str) -> Dict[str, str]:
    """The server's environment: ``src/`` importable, no ``REPRO_*`` knobs,
    and a fixed hash seed, so set and dict orders repeat from run to run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    return env


def parse_metrics(text: str) -> Dict[str, float]:
    """Counters and gauges of a Prometheus text page (histograms skipped)."""
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "{" in line:
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values


def split_cpus():
    """``(server CPUs, harness CPUs)``: on two or more CPUs the server gets
    the first and the load generator the rest, so neither waits for the
    other's time slice; on one CPU they share it."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


class ServerProcess:
    """Spawn ``server_main.py``; ``setup_s`` is spawn -> first answered request."""

    def __init__(self, src: str, graph_path: str, wal_dir: str,
                 trace_out: str = ""):
        self.wal_dir = wal_dir
        self.trace_out = trace_out
        cmd = [sys.executable, os.path.join(HERE, "server_main.py"),
               "--graph", graph_path, "--wal", wal_dir]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        self.log_path = wal_dir + ".log"
        begun = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, env=child_env(src), stdout=subprocess.PIPE,
                stderr=log, stdin=subprocess.PIPE, text=True,
                preexec_fn=lambda: os.sched_setaffinity(0, split_cpus()[0]),
            )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("PORT "):
                self.kill()
                with open(self.log_path) as log:
                    tail = log.read()[-2000:]
                raise RuntimeError(
                    f"server did not start (exit {self.proc.poll()}): {tail}"
                )
            self.address = ("127.0.0.1", int(line.split()[1]))
            status, payload = self.request("GET", "/health")
            if status != 200:
                raise RuntimeError(f"first request failed: {status} {payload}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - begun
        self.calibrations: List[float] = []
        self.collect_and_calibrate()

    # -- /proc figures -----------------------------------------------------------

    def cpu_s(self) -> float:
        """User + system CPU of the server process so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def request(self, method: str, path: str,
                body: Optional[object] = None) -> Tuple[int, object]:
        """One control-plane request on a fresh connection."""
        from repro.serve.client import ServeClient

        with ServeClient(*self.address, timeout=30.0) as client:
            return client.request(method, path, body)

    def metrics(self) -> Dict[str, float]:
        status, text = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics returned {status}")
        return parse_metrics(text)

    def collect_and_calibrate(self, timeout: float = 30.0) -> float:
        """A full collection in the server, then its calibration loop (ms)."""
        self.proc.send_signal(signal.SIGUSR2)
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        word, _, value = line.strip().partition(" ")
        if word != "COLLECTED":
            raise RuntimeError(f"server did not ack the collection: {line!r}")
        self.calibrations.append(float(value))
        return self.calibrations[-1]

    def calibration(self) -> float:
        """Median calibration of this server's CPU over its phases so far."""
        ordered = sorted(self.calibrations)
        mid = len(ordered) // 2
        return (ordered[mid] + ordered[~mid]) / 2.0

    def dump_trace(self, timeout: float = 60.0) -> None:
        """Ask a traced server to write its spans; wait for the file."""
        if os.path.exists(self.trace_out):
            os.remove(self.trace_out)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not os.path.exists(self.trace_out):
            if time.monotonic() > deadline:
                raise RuntimeError("traced server did not write its spans")
            time.sleep(0.05)

    # -- ending ------------------------------------------------------------------

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful drain (SIGTERM); SIGKILL if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        """SIGKILL and reap: the crash of the durability check."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()
