"""A ``repro serve`` process per set-up, always torn down.

The server runs in its own process on a fresh UNIX socket inside the
benchmark's run directory.  :class:`ServerProcess` is a context manager:
leaving it — normally, on an exception, or on SIGTERM turned into
``SystemExit`` by ``run.py`` — drains the server and waits for it, then
escalates to SIGTERM and SIGKILL.  The child also gets SIGTERM if the
benchmark process dies first (``PR_SET_PDEATHSIG``), so no server
outlives its run.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import signal
import subprocess
import sys
import time

from repro.errors import ReproIOError
from repro.serve import ServeConfig
from repro.serve.client import ServeClient

from common import child_env, peak_rss_mb

#: The pinned server configuration of both serve workloads.
#: - ``workers=2``: no more executor threads than the 2 cores.
#: - quota far above what a closed loop of 2 connections can issue, so
#:   no request is ever refused for quota, however fast requests get.
#: - admission and shed depths far above the 2 requests that can be in
#:   flight, so every request is admitted and served on the ``full`` rung.
#: - no ``plan_cache_dir``: the ``repro serve`` default.
#: - ``pool_sessions=16``: the pool bounds each of its 4 shards at
#:   ceil(sessions / 4), and a fingerprint's shard follows its content
#:   hash.  At the default 8 (2 a shard) about 1 seed in 5 puts 3 of the 4
#:   served matrices on one shard, which then evicts a warm session on
#:   every third request and rebuilds its plan: serve-warm would measure
#:   plan builds, and differently per seed.  4 a shard always fits.
SERVE_CONFIG = ServeConfig(
    workers=2,
    max_inflight=64,
    quota_rate=1e9,
    quota_burst=1e9,
    shed_depths=(32, 48, 63),
    pool_sessions=16,
    panel_height=32,
    chunk_k=64,
    drain_timeout_s=10.0,
)


def server_args(config: ServeConfig) -> list:
    """``repro serve`` flags reproducing ``config``."""
    return [
        "--workers", str(config.workers),
        "--max-inflight", str(config.max_inflight),
        "--quota-rate", repr(config.quota_rate),
        "--quota-burst", repr(config.quota_burst),
        "--shed-depths", *(str(d) for d in config.shed_depths),
        "--pool-sessions", str(config.pool_sessions),
        "--panel-height", str(config.panel_height),
        "--chunk-k", str(config.chunk_k),
        "--backend", config.backend,
        "--drain-timeout", repr(config.drain_timeout_s),
    ]


START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
_PR_SET_PDEATHSIG = 1
_serial = itertools.count()


def _die_with_parent() -> None:  # pragma: no cover - runs in the child
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


class ServerProcess:
    """``python -m repro.cli serve`` on a fresh socket (context manager)."""

    def __init__(self, root: str, run_dir: str) -> None:
        serial = next(_serial)
        # A relative socket path keeps it under the 108-byte UNIX limit
        # however deep the checkout lives; client and server share the cwd.
        self.address = os.path.relpath(
            os.path.join(run_dir, f"s{os.getpid()}-{serial}.sock"), root
        )
        self._root = root
        self._log_path = os.path.join(run_dir, f"server{os.getpid()}-{serial}.log")
        self._log = None
        self.proc = None

    def __enter__(self) -> "ServerProcess":
        self._log = open(self._log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--unix-socket", self.address, *server_args(SERVE_CONFIG)],
            cwd=self._root,
            env=child_env(self._root),
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            preexec_fn=_die_with_parent,
        )
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _wait_ready(self) -> None:
        give_up = time.monotonic() + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode} during "
                    f"start-up; see {self._log_path}"
                )
            try:
                with ServeClient(self.address, timeout=5.0) as client:
                    if client.ping().get("pong"):
                        return
            except ReproIOError:
                pass
            if time.monotonic() > give_up:
                raise RuntimeError(f"server not ready after {START_TIMEOUT_S:.0f} s")
            time.sleep(0.02)

    def client(self) -> ServeClient:
        return ServeClient(self.address, timeout=60.0)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def metrics(self) -> dict:
        with self.client() as client:
            return client.metrics()["metrics"]

    def stop(self) -> None:
        """Drain, then escalate; returns once the process has ended."""
        if self.proc is not None and self.proc.poll() is None:
            try:
                with ServeClient(self.address, timeout=5.0) as client:
                    client.drain()
            except (ReproIOError, OSError):
                pass
            for escalate in (None, self.proc.terminate, self.proc.kill):
                if escalate is not None:
                    escalate()
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
                    break
                except subprocess.TimeoutExpired:
                    continue
        if self._log is not None:
            self._log.close()
            self._log = None
        if os.path.exists(os.path.join(self._root, self.address)):
            os.unlink(os.path.join(self._root, self.address))
