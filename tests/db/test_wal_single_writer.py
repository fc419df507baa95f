"""One writer per WAL directory: the ``<dir>/LOCK`` flock.

Two stores appending to one log interleave their frames, and recovery then
keeps only one of the version chains — acked commits vanish.  The engine
therefore takes an exclusive non-blocking lock on open and a second opener
fails fast, naming the holder's pid; ``close()``, ``crash()`` and the death
of the holding process all release it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys

import pytest

from repro.db import GRAPH_SCHEMA, Store, StorageEngineError, WalStorageEngine

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="the writer lock is a POSIX flock"
)

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def make_store(directory) -> Store:
    return Store(GRAPH_SCHEMA, engine=WalStorageEngine(str(directory)))


def commit_edge(store: Store, edge) -> None:
    store.begin()
    store.insert("E", edge)
    store.commit_unchecked()


def test_second_store_on_one_directory_fails_at_open(tmp_path):
    first = make_store(tmp_path)
    try:
        commit_edge(first, (0, 1))
        with pytest.raises(StorageEngineError, match=f"pid {os.getpid()}"):
            make_store(tmp_path)
        commit_edge(first, (1, 2))
    finally:
        first.close()
    # the lock died with the close: the directory reopens, nothing was lost
    reopened = make_store(tmp_path)
    try:
        assert reopened.committed_snapshot().relation("E") == {(0, 1), (1, 2)}
    finally:
        reopened.close()


def test_crash_releases_the_lock(tmp_path):
    engine = WalStorageEngine(str(tmp_path))
    engine.crash()
    WalStorageEngine(str(tmp_path)).close()


def test_sigkilled_holder_releases_the_lock(tmp_path):
    holder = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import sys, time\n"
            "from repro.db import WalStorageEngine\n"
            "engine = WalStorageEngine(sys.argv[1])\n"
            "print('locked', flush=True)\n"
            "time.sleep(60)\n",
            str(tmp_path),
        ],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.abspath(_SRC)},
    )
    try:
        assert holder.stdout.readline().strip() == "locked"
        with pytest.raises(StorageEngineError, match=f"pid {holder.pid}"):
            WalStorageEngine(str(tmp_path))
    finally:
        holder.send_signal(signal.SIGKILL)
        holder.wait()
        holder.stdout.close()
    WalStorageEngine(str(tmp_path)).close()


def test_lock_file_names_the_holder(tmp_path):
    engine = WalStorageEngine(str(tmp_path))
    try:
        assert (tmp_path / "LOCK").read_text().strip() == str(os.getpid())
    finally:
        engine.close()


def test_refused_open_leaves_the_holder_record_intact(tmp_path):
    first = make_store(tmp_path)
    try:
        for _ in range(2):
            with pytest.raises(StorageEngineError, match="exactly one writer"):
                WalStorageEngine(str(tmp_path))
        # the refused opener must not have rewritten the holder's pid
        assert (tmp_path / "LOCK").read_text().strip() == str(os.getpid())
        commit_edge(first, (4, 5))
    finally:
        first.close()


def test_separate_directories_do_not_contend(tmp_path):
    left = make_store(tmp_path / "left")
    right = make_store(tmp_path / "right")
    try:
        commit_edge(left, (0, 1))
        commit_edge(right, (1, 0))
    finally:
        left.close()
        right.close()


def test_close_releases_the_lock_and_is_idempotent(tmp_path):
    engine = WalStorageEngine(str(tmp_path))
    engine.close()
    engine.close()
    again = WalStorageEngine(str(tmp_path))
    with pytest.raises(StorageEngineError):
        WalStorageEngine(str(tmp_path))
    again.close()
