"""The two serve workloads: their inputs, set-up and closed-loop load.

Both drive a ``repro serve`` process (``server.py``) from this process
over blocking connections, one thread each, in a closed loop: a
connection sends its next request only after the previous response is
decoded and checked.  Latency is client-observed, from the client's
encode through ``ServeClient.result_array``; the oracle check runs after
the timed window of each request.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time

from repro.serve.client import ServeClient
from repro.serve.protocol import matrix_fingerprint

import inputs
import layers
from common import Sample, matches, reference
from server import ServerProcess

#: Connections (= generator threads) of both workloads: one per core.
CONNECTIONS = 2
#: Requests of connection 0 replayed through the layers (serve-warm).
REPLAY_REQUESTS = 12
#: Deltas per stream replayed through the layers (serve-churn).
REPLAY_DELTAS = 4


class WarmInputs:
    """Matrices, operand pools and precomputed oracle results of serve-warm."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.matrices = inputs.served_matrices(seed)
        self.operands = {}
        self.expected = {}
        for name, csr in self.matrices.items():
            for k in (inputs.K_SMALL, inputs.K_LARGE):
                pool = inputs.operand_pool(seed, name, csr.n_cols, k)
                self.operands[name, k] = pool
                self.expected[name, k] = [reference(csr, x) for x in pool]

    def requests(self, conn: int):
        return inputs.warm_requests(self.seed, conn, self.matrices)

    def warm_up(self, name):
        """Operand and oracle result of a matrix's warm-up request."""
        return (self.operands[name, inputs.K_SMALL][0],
                self.expected[name, inputs.K_SMALL][0])

    def reset(self, fingerprints) -> None:
        """A fresh server holds the matrices under ``fingerprints``."""

    def replay(self):
        """Layer-replay inputs: ``(matrices to plan, [(x, matrix index)],
        delta streams, deltas per stream)``.  The requests are connection
        0's first ``REPLAY_REQUESTS``; the streams are cut from each matrix."""
        names = list(self.matrices)
        cases = [(self.operands[name, k][j], names.index(name))
                 for name, k, j in itertools.islice(self.requests(0), REPLAY_REQUESTS)]
        streams = [inputs.delta_stream(self.seed, name, csr)
                   for name, csr in self.matrices.items()]
        return list(self.matrices.values()), cases, streams, layers.REPLAY_DELTAS


class ChurnInputs:
    """The churn streams (one per connection) and their operand pools."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.streams = inputs.churn_streams(seed)
        self.matrices = {s.name: s.initial for s in self.streams}
        self.operands = {
            s.name: inputs.operand_pool(seed, f"churn/{s.name}", s.initial.n_cols,
                                        inputs.K_SMALL)
            for s in self.streams
        }

    def warm_up(self, name):
        x = self.operands[name][0]
        return x, reference(self.matrices[name], x)

    def reset(self, fingerprints) -> None:
        """A fresh server holds the initial matrices: restart every stream.
        Load windows on the same server continue where the last one ended."""
        self.cursors = [_Cursor(s, fingerprints[s.name]) for s in self.streams]

    def replay(self):
        """Layer-replay inputs (see ``WarmInputs.replay``): the matrix after
        each of a stream's first ``REPLAY_DELTAS`` deltas, read as the server
        reads it after that delta."""
        matrices, cases = [], []
        for stream in self.streams:
            local = stream.initial
            pool = self.operands[stream.name]
            for i, delta in enumerate(itertools.islice(stream.deltas(), REPLAY_DELTAS)):
                local = delta.apply_to(local)
                cases.append((pool[i % len(pool)], len(matrices)))
                matrices.append(local)
        return matrices, cases, self.streams, REPLAY_DELTAS


class _Cursor:
    """Where one churn connection stands: the server's matrix (mirrored
    locally for the oracle), its fingerprint and the next delta."""

    def __init__(self, stream, fingerprint) -> None:
        self.local = stream.initial
        self.fingerprint = fingerprint
        self.deltas = enumerate(stream.deltas())


def set_up(stack: contextlib.ExitStack, root: str, run_dir: str, data, samples):
    """Start a server, upload every matrix and send each one warm-up request.

    Returns ``(server, fingerprints, seconds)``; the server is torn down
    when ``stack`` closes.  Warm-up requests are checked and recorded in
    ``samples``.
    """
    t0 = time.perf_counter()
    server = stack.enter_context(ServerProcess(root, run_dir))
    fingerprints = {}
    with server.client() as client:
        for name, csr in data.matrices.items():
            fingerprints[name] = client.upload(csr)["fingerprint"]
        data.reset(fingerprints)
        for name in data.matrices:
            x, expected = data.warm_up(name)
            samples.append(_spmm(client, x, expected, fingerprints[name], "setup",
                                 kind="setup", label=name))
    return server, fingerprints, time.perf_counter() - t0


def _spmm(client, x, expected, fingerprint, tenant, kind="spmm", label="") -> Sample:
    t0 = time.perf_counter()
    response = client.spmm(x, fingerprint=fingerprint, tenant=tenant)
    ok = response.get("status") == "ok"
    result = ServeClient.result_array(response) if ok else None
    seconds = time.perf_counter() - t0
    return Sample(kind, seconds, ok, ok and matches(result, expected),
                  response.get("rung"), label)


def closed_loop(connection, seconds: float):
    """Run ``connection(conn, deadline, samples)`` on ``CONNECTIONS`` threads.

    Returns ``(samples, elapsed_s)``.  A connection that raises
    stops and leaves one failed sample behind; it never takes the run down.
    """
    per_conn = [[] for _ in range(CONNECTIONS)]

    def run(conn):
        try:
            connection(conn, deadline, per_conn[conn])
        except Exception:  # the run must finish; the failure is counted
            per_conn[conn].append(Sample("error", 0.0, False, False))

    start = time.perf_counter()
    deadline = start + seconds
    threads = [threading.Thread(target=run, args=(conn,), daemon=True)
               for conn in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return list(itertools.chain(*per_conn)), time.perf_counter() - start


@contextlib.contextmanager
def _traced(tracer, i: int, samples, name, **attrs):
    """With a tracer, wrap every other operation in a span and mark the
    samples it records, so traced and untraced operations interleave."""
    if tracer is None or i % 2:
        yield
        return
    first = len(samples)
    with tracer.span(name, **attrs):
        yield
    for sample in samples[first:]:
        sample.traced = True


def warm_load(server, fingerprints, data: WarmInputs, seconds, tracer=None):
    """serve-warm: fingerprint ``spmm`` at a 3:1 mix of K_SMALL and K_LARGE."""

    def connection(conn, deadline, samples):
        with server.client() as client:
            for i, (name, k, j) in enumerate(data.requests(conn)):
                if time.perf_counter() >= deadline:
                    return
                # Whole blocks of four alternate, so both sides keep the 3:1 mix.
                with _traced(tracer, i // 4, samples, "bench.spmm", matrix=name, k=k):
                    samples.append(_spmm(client, data.operands[name, k][j],
                                         data.expected[name, k][j],
                                         fingerprints[name], f"conn{conn}", label=name))

    return closed_loop(connection, seconds)


def churn_load(server, fingerprints, data: ChurnInputs, seconds, tracer=None):
    """serve-churn: each connection alternates a delta and a K_SMALL read
    on its own matrix.  Every delta is re-applied locally with
    ``DeltaBatch.apply_to`` outside the timed window; the read after it is
    checked against the mutated matrix."""

    def connection(conn, deadline, samples):
        stream = data.streams[conn]
        cursor = data.cursors[conn]
        pool = data.operands[stream.name]
        with server.client() as client:
            for i, delta in cursor.deltas:
                with _traced(tracer, i, samples, "bench.cycle", matrix=stream.name,
                             mode=delta.mode):
                    t0 = time.perf_counter()
                    response = client.delta(cursor.fingerprint, delta)
                    seconds_ = time.perf_counter() - t0
                    ok = response.get("status") == "ok"
                    correct = False
                    if ok:
                        cursor.local = delta.apply_to(cursor.local)
                        cursor.fingerprint = response["fingerprint"]
                        correct = cursor.fingerprint == matrix_fingerprint(cursor.local)
                    samples.append(Sample("delta", seconds_, ok, correct,
                                          label=stream.name))
                    x = pool[i % len(pool)]
                    expected = reference(cursor.local, x)
                    samples.append(_spmm(client, x, expected, cursor.fingerprint,
                                         f"conn{conn}", label=stream.name))
                if time.perf_counter() >= deadline:
                    return

    return closed_loop(connection, seconds)
