"""The benchmark's server process: the transaction server over a WAL store.

Run by ``run.py`` with ``src/`` on ``PYTHONPATH`` and every ``REPRO_*``
variable cleared::

    python3 perfbench/server_main.py --graph EDGES.json --wal DIR [--trace-out SPANS]

It builds the standard service (``build_service``: the no-loops and
no-triangles constraints and the standard templates, classified once) over
the given edge list, on a ``WalStorageEngine`` with ``fsync="commit"`` and
the default checkpoint interval, starts a ``TransactionServer`` on an
ephemeral port, pre-registers the standard wire templates and prints
``PORT <n>``.  SIGTERM, or end of file on standard input (the harness
holds that pipe open, so a harness that dies takes its server with it),
drains and stops it.  SIGUSR2 runs a full garbage collection, times the
calibration loop of ``measure.calibration_ms`` and prints ``COLLECTED <ms>``:
the harness sends it before every measured phase, so each phase starts from
the same collector state instead of a random point in the cycle of full
collections, whose pauses set the p99 (the same reason JMH collects between
iterations), and so each run knows the speed of the server's CPU.  With
``--trace-out`` the layer wrappers of ``tracer.py`` are installed and
SIGUSR1 writes the spans recorded so far to that file.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import signal
import sys

from measure import calibration_ms


def collect() -> None:
    gc.collect()
    print(f"COLLECTED {calibration_ms():.6f}", flush=True)


async def serve(args: argparse.Namespace) -> None:
    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install_setup(tracer)

    from repro.db import Database, WalStorageEngine
    from repro.serve import TransactionServer, preregister
    from repro.service import build_service

    with open(args.graph) as handle:
        edges = [tuple(edge) for edge in json.load(handle)]
    engine = WalStorageEngine(args.wal, fsync="commit")
    service = build_service(Database.graph(edges), engine=engine)
    server = TransactionServer(service, port=0, owns_service=True)
    await server.start()
    preregister(server)
    if tracer is not None:
        tracing.install_runtime(tracer, service)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    stdin = sys.stdin.fileno()

    def on_stdin() -> None:
        if not os.read(stdin, 4096):
            loop.remove_reader(stdin)
            stop.set()

    loop.add_reader(stdin, on_stdin)
    loop.add_signal_handler(signal.SIGUSR2, collect)
    if tracer is not None:
        loop.add_signal_handler(
            signal.SIGUSR1, lambda: tracer.dump(args.trace_out)
        )
    print(f"PORT {server.address[1]}", flush=True)
    await stop.wait()
    await server.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--graph", required=True)
    parser.add_argument("--wal", required=True)
    parser.add_argument("--trace-out", default="")
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
