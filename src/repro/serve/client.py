"""A small synchronous client for the ``repro serve`` protocol.

Deliberately plain blocking sockets: the client is used by the CLI
(``repro doctor --serve``), by tests (which drive an in-process server
from worker threads) and as executable documentation of the wire
protocol.  One request, one response, in order, per connection; dense
matrices cross as binary frames (see :mod:`repro.serve.protocol`).
"""

from __future__ import annotations

import socket

import numpy as np

from repro.errors import ReproIOError, ValidationError
from repro.serve.protocol import (
    DENSE_DTYPE,
    check_frame,
    decode_message,
    delta_to_wire,
    dense_frame,
    encode_message,
    matrix_to_wire,
)

__all__ = ["ServeClient", "parse_address"]


def parse_address(address: str):
    """Parse a CLI address: ``host:port`` (TCP) or a path (UNIX socket).

    >>> parse_address("127.0.0.1:7077")
    ('127.0.0.1', 7077)
    >>> parse_address("/tmp/repro.sock")
    '/tmp/repro.sock'
    """
    if "/" in address or address.startswith("@"):
        return address
    host, sep, port = address.rpartition(":")
    if not sep:
        raise ValidationError(
            f"address must be host:port or a UNIX socket path, got {address!r}"
        )
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError as exc:
        raise ValidationError(f"invalid port in address {address!r}") from exc


class ServeClient:
    """Blocking protocol-2 client (context-manager; one connection).

    ``address`` is a ``(host, port)`` pair or a UNIX socket path (the
    return shape of :func:`parse_address`).  :meth:`spmm` sends its
    operand as a ``<f8`` frame behind the JSON header, and
    :meth:`request` reads a framed ``result`` back into a float64 array,
    so callers only ever see arrays.
    """

    def __init__(self, address, *, timeout: float | None = 30.0) -> None:
        self.address = address
        sock = None
        try:
            if isinstance(address, str):
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(timeout)
                sock.connect(address)
            else:
                host, port = address
                sock = socket.create_connection((host, port), timeout=timeout)
                # Header and payload go out as two writes; Nagle would hold
                # the second back for the first one's delayed ACK.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            if sock is not None:
                sock.close()
            raise ReproIOError(f"cannot connect to {address!r}: {exc}") from exc
        self._sock = sock
        self._file = self._sock.makefile("rb")

    # ------------------------------------------------------------------
    def request(self, msg: dict, payload=None) -> dict:
        """Send one message (and the frame ``payload`` its header
        describes, if any) and block for its response.

        A framed ``result`` is read in full and replaced by its array; a
        connection that closes before the last byte is a
        :class:`~repro.errors.ReproIOError`.
        """
        try:
            self._sock.sendall(encode_message(msg))
            if payload is not None:
                self._sock.sendall(payload)
            response = decode_message(self._readline())
            if isinstance(response.get("result"), dict):
                response["result"] = self._read_frame(response["result"])
        except ReproIOError:
            raise
        except OSError as exc:
            raise ReproIOError(f"request to {self.address!r} failed: {exc}") from exc
        return response

    def _readline(self) -> bytes:
        line = self._file.readline()
        if not line:
            raise ReproIOError(
                f"server at {self.address!r} closed the connection mid-request"
            )
        return line

    def _read_frame(self, descriptor: dict) -> np.ndarray:
        """Read the payload behind a frame descriptor into a new array."""
        out = np.empty(check_frame(descriptor, max_bytes=None), dtype=DENSE_DTYPE)
        view = memoryview(out.reshape(-1).view(np.uint8))
        got = 0
        while got < len(view):
            n = self._file.readinto(view[got:])
            if not n:
                raise ReproIOError(
                    f"server at {self.address!r} closed the connection after "
                    f"{got} of {len(view)} result bytes"
                )
            got += n
        return out

    def ping(self) -> dict:
        """Liveness probe; returns ``{"status": "ok", "pong": true, ...}``."""
        return self.request({"op": "ping"})

    def upload(self, csr) -> dict:
        """Upload a :class:`~repro.sparse.CSRMatrix`; returns its fingerprint."""
        return self.request({"op": "upload", "matrix": matrix_to_wire(csr)})

    def spmm(
        self,
        x: np.ndarray,
        *,
        fingerprint: str | None = None,
        matrix=None,
        deadline_s: float | None = None,
        tenant: str | None = None,
        request_id=None,
    ) -> dict:
        """One multiply request; returns the response dict.

        ``x`` goes out as a ``<f8`` frame.  On ``status == "ok"`` the
        dense result is under ``"result"`` — use :meth:`result_array` to
        get it back as float64.
        """
        frame = dense_frame(x)
        msg: dict = {"op": "spmm", "x": frame.descriptor}
        if fingerprint is not None:
            msg["fingerprint"] = fingerprint
        if matrix is not None:
            msg["matrix"] = matrix_to_wire(matrix)
        if deadline_s is not None:
            msg["deadline_s"] = deadline_s
        if tenant is not None:
            msg["tenant"] = tenant
        if request_id is not None:
            msg["id"] = request_id
        return self.request(msg, frame.payload)

    def delta(self, fingerprint: str, delta) -> dict:
        """Stream a :class:`~repro.streaming.DeltaBatch` into ``fingerprint``.

        On ``status == "ok"`` the response carries the mutated matrix's
        new ``fingerprint`` (use it for subsequent ``spmm`` requests) and
        the number of warm sessions the update invalidated.
        """
        return self.request(
            {"op": "delta", "fingerprint": fingerprint, "delta": delta_to_wire(delta)}
        )

    @staticmethod
    def result_array(response: dict) -> np.ndarray:
        """The dense result of an ``ok`` spmm response as float64."""
        if response.get("status") != "ok" or "result" not in response:
            raise ValidationError(
                f"response has no result (status={response.get('status')!r})"
            )
        return np.asarray(response["result"], dtype=np.float64)

    def health(self) -> dict:
        """Readiness/health snapshot (pool, admission, breaker, shed state)."""
        return self.request({"op": "health"})

    def metrics(self) -> dict:
        """Flat snapshot of the server's metrics registry."""
        return self.request({"op": "metrics"})

    def drain(self) -> dict:
        """Ask the server to drain and shut down."""
        return self.request({"op": "drain"})

    def close(self) -> None:
        """Close the socket; the client cannot be reused afterwards."""
        self._file.close()
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
