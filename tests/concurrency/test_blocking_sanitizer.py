"""The runtime blocking sanitizer: BLOCK001's dynamic twin.

Patched socket/fsync/sleep entry points must raise
:class:`BlockingUnderLock` when entered with a non-sanctioned ranked
lock held, stay quiet at the sanctioned boundaries, honour
``allow_blocking()``, and restore the originals on exit.
"""

import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.concurrency import (
    BlockingUnderLock,
    Mutex,
    allow_blocking,
    blocking_sanitizer,
    blocking_sanitizer_enabled,
)
from repro.concurrency.locks import (
    LEVEL_CACHE,
    LEVEL_METRICS,
    LEVEL_STORE,
    LEVEL_USER,
    lock_sanitizer_enabled,
)


@pytest.fixture()
def sanitized():
    with blocking_sanitizer():
        yield


class TestSleep:
    def test_sleep_under_cache_lock_raises(self, sanitized):
        lock = Mutex(level=LEVEL_CACHE, name="test.cache")
        with lock:
            with pytest.raises(BlockingUnderLock, match="cache"):
                time.sleep(0.001)

    def test_sleep_with_no_lock_passes(self, sanitized):
        time.sleep(0.001)

    def test_sleep_under_unranked_lock_passes(self, sanitized):
        lock = Mutex(name="test.unranked")
        with lock:
            time.sleep(0.001)

    def test_allow_blocking_escapes(self, sanitized):
        lock = Mutex(level=LEVEL_METRICS, name="test.metrics")
        with lock:
            with allow_blocking():
                time.sleep(0.001)


class TestFsync:
    def test_fsync_under_user_lock_raises(self, sanitized, tmp_path):
        lock = Mutex(level=LEVEL_USER, name="test.user")
        with open(tmp_path / "f", "w", encoding="utf-8") as handle:
            handle.write("x")
            with lock:
                with pytest.raises(BlockingUnderLock, match="fsync"):
                    os.fsync(handle.fileno())

    def test_fsync_under_store_lock_is_sanctioned(self, sanitized, tmp_path):
        lock = Mutex(level=LEVEL_STORE, name="test.store")
        with open(tmp_path / "f", "w", encoding="utf-8") as handle:
            handle.write("x")
            with lock:
                os.fsync(handle.fileno())

    def test_innermost_ranked_level_decides(self, sanitized, tmp_path):
        # user(10) then store(45): the sanctioned WAL append shape.
        user = Mutex(level=LEVEL_USER, name="test.user")
        store = Mutex(level=LEVEL_STORE, name="test.store")
        with open(tmp_path / "f", "w", encoding="utf-8") as handle:
            handle.write("x")
            with user, store:
                os.fsync(handle.fileno())


class TestSockets:
    def test_sendall_under_cache_lock_raises(self, sanitized):
        left, right = socket.socketpair()
        try:
            lock = Mutex(level=LEVEL_CACHE, name="test.cache")
            with lock:
                with pytest.raises(BlockingUnderLock, match="sendall"):
                    left.sendall(b"ping")
        finally:
            left.close()
            right.close()

    def test_socket_io_with_no_lock_passes(self, sanitized):
        left, right = socket.socketpair()
        try:
            left.sendall(b"ping")
            assert right.recv(4) == b"ping"
        finally:
            left.close()
            right.close()


class TestScoping:
    def test_context_enables_both_sanitizers_and_restores(self):
        was_blocking = blocking_sanitizer_enabled()
        was_lock = lock_sanitizer_enabled()
        original_sleep = time.sleep
        with blocking_sanitizer():
            assert blocking_sanitizer_enabled()
            assert lock_sanitizer_enabled()
            assert time.sleep is not original_sleep
        assert blocking_sanitizer_enabled() == was_blocking
        assert lock_sanitizer_enabled() == was_lock
        assert time.sleep is original_sleep

    def test_socket_methods_are_restored(self):
        before = socket.socket.sendall
        with blocking_sanitizer():
            assert socket.socket.sendall is not before
        assert socket.socket.sendall is before

    def test_disabled_by_default_outside_the_context(self):
        lock = Mutex(level=LEVEL_CACHE, name="test.cache")
        with lock:
            time.sleep(0)  # no patch installed: must not raise


class TestEnvironmentVariable:
    def test_variable_alone_raises_under_a_ranked_lock(self):
        repo_root = Path(__file__).resolve().parents[2]
        env = {
            name: value
            for name, value in os.environ.items()
            if name != "REPRO_LOCK_SANITIZER"
        }
        env["PYTHONPATH"] = str(repo_root / "src")
        env["REPRO_BLOCKING_SANITIZER"] = "1"
        code = (
            "import time\n"
            "from repro.concurrency import BlockingUnderLock, Mutex\n"
            "from repro.concurrency.locks import LEVEL_USER\n"
            "with Mutex(level=LEVEL_USER, name='test.user'):\n"
            "    try:\n"
            "        time.sleep(0)\n"
            "    except BlockingUnderLock:\n"
            "        raise SystemExit(0)\n"
            "raise SystemExit('time.sleep under user(10) did not raise')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=repo_root,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
