"""The newline-delimited-JSON wire protocol of ``repro serve``.

One JSON object per line in each direction, UTF-8, ``\\n``-terminated.
Requests carry an ``op`` plus op-specific fields; every response echoes
the request ``id`` (when given) and carries a ``status`` from the table
below.  The protocol is dependency-free and language-neutral: any client
that can open a socket and print JSON can talk to the server.

Request ops
-----------
``ping``
    Liveness probe; responds ``{"status": "ok", "pong": true}``.
``upload``
    Register a sparse matrix (COO triples) and get its content
    fingerprint back for later fingerprint-only ``spmm`` requests.
``spmm``
    Multiply: either ``fingerprint`` (a previously uploaded matrix) or an
    inline ``matrix``, plus the dense operand ``x`` (``n_cols x K``
    nested lists), optional ``deadline_s`` and ``tenant``.
``delta``
    Stream a :class:`~repro.streaming.DeltaBatch` into a previously
    uploaded matrix: the registry entry is replaced by the mutated
    matrix (responding with its new fingerprint) and warm sessions
    pinned to the old fingerprint are invalidated, so no later request
    can multiply through pre-delta values.
``health``
    Readiness report: pool occupancy, quota state, breaker state, drain
    flag.
``metrics``
    A :meth:`repro.observability.MetricsRegistry.snapshot` of the server
    process.
``drain``
    Stop admitting work, wait for in-flight requests, shut down.

Response statuses
-----------------
=====================  ====================================================
``ok``                 result computed (``result`` holds the dense output)
``rejected_overload``  admission bound hit; retry against a less loaded
                       server (explicit rejection, never silent queueing)
``rejected_quota``     the tenant's token bucket is empty
``deadline_exceeded``  the request deadline expired before a result was
                       complete (partial work was cancelled)
``not_found``          unknown fingerprint (upload the matrix first)
``draining``           server is shutting down; no new work admitted
``error``              malformed request or internal failure (``error``
                       holds the message)
=====================  ====================================================

Fingerprints are *content* digests — shape, pattern **and values** — so a
fingerprint names exactly one multiply operator (unlike the plan store's
pattern fingerprint, which deliberately ignores values because reordering
decisions do).
"""

from __future__ import annotations

import json

import numpy as np

from repro.errors import FormatError, ShapeError, ValidationError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.util.hashing import digest_arrays, stable_digest
from repro.util.validation import check_dense

__all__ = [
    "PROTOCOL_VERSION",
    "STATUS_OK",
    "STATUS_REJECTED_OVERLOAD",
    "STATUS_REJECTED_QUOTA",
    "STATUS_DEADLINE_EXCEEDED",
    "STATUS_NOT_FOUND",
    "STATUS_DRAINING",
    "STATUS_ERROR",
    "REQUEST_OPS",
    "encode_message",
    "decode_message",
    "matrix_to_wire",
    "matrix_from_wire",
    "dense_from_wire",
    "delta_to_wire",
    "delta_from_wire",
    "matrix_fingerprint",
    "DEFAULT_MAX_LINE_BYTES",
]

#: Default bound on one protocol line (``ServeConfig.max_line_bytes``).
#: The decoders also hold a declared matrix height to it: its ``rowptr``
#: (8 bytes per row, plus one) may not outgrow the line that declared it.
DEFAULT_MAX_LINE_BYTES = 64 * 1024 * 1024

#: Wire-protocol version, echoed by ``ping``/``health`` so clients can
#: detect incompatible servers instead of mis-parsing them.
PROTOCOL_VERSION = 1

STATUS_OK = "ok"
STATUS_REJECTED_OVERLOAD = "rejected_overload"
STATUS_REJECTED_QUOTA = "rejected_quota"
STATUS_DEADLINE_EXCEEDED = "deadline_exceeded"
STATUS_NOT_FOUND = "not_found"
STATUS_DRAINING = "draining"
STATUS_ERROR = "error"

#: Ops a server accepts (anything else gets an ``error`` response).
REQUEST_OPS = ("ping", "upload", "spmm", "delta", "health", "metrics", "drain")


def encode_message(obj: dict) -> bytes:
    """Serialise one protocol message as a compact JSON line."""
    return (json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n").encode(
        "utf-8"
    )


def decode_message(line: bytes | str) -> dict:
    """Parse one protocol line into a dict.

    Raises :class:`repro.errors.FormatError` on anything that is not a
    single JSON object — the server maps that to an ``error`` response
    rather than dropping the connection.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"protocol line is not valid UTF-8: {exc}") from exc
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"protocol line is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(
            f"protocol message must be a JSON object, got {type(obj).__name__}"
        )
    return obj


# ----------------------------------------------------------------------
# Matrix / operand wire formats
# ----------------------------------------------------------------------

def matrix_to_wire(csr: CSRMatrix) -> dict:
    """Encode a CSR matrix as the COO-triple upload payload."""
    coo = csr.to_coo()
    rows, cols, values = coo.rows, coo.cols, coo.values
    return {
        "shape": [int(csr.n_rows), int(csr.n_cols)],
        "rows": [int(r) for r in rows],
        "cols": [int(c) for c in cols],
        "values": [float(v) for v in values],
    }


def _is_count(value) -> bool:
    """A non-negative JSON integer (``true``/``false`` are not numbers)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_dimension(what: str, n: int, max_bytes: int) -> None:
    """Reject a dimension whose ``rowptr`` would exceed ``max_bytes``."""
    if 8 * (n + 1) > max_bytes:
        raise FormatError(
            f"{what} {n} needs a {8 * (n + 1)}-byte row index, over the "
            f"{max_bytes}-byte line bound"
        )


def matrix_from_wire(obj, *, max_bytes: int = DEFAULT_MAX_LINE_BYTES) -> CSRMatrix:
    """Decode an upload payload into a validated :class:`CSRMatrix`.

    Both dimensions are checked against ``max_bytes`` (the server passes
    its ``max_line_bytes``) before any array is built, so a short line
    declaring a huge shape is a :class:`~repro.errors.FormatError`, not
    an allocation.
    """
    if not isinstance(obj, dict):
        raise FormatError(
            f"matrix payload must be an object, got {type(obj).__name__}"
        )
    missing = [k for k in ("shape", "rows", "cols", "values") if k not in obj]
    if missing:
        raise FormatError(f"matrix payload missing field(s): {', '.join(missing)}")
    shape = obj["shape"]
    if (
        not isinstance(shape, (list, tuple))
        or len(shape) != 2
        or not all(_is_count(s) for s in shape)
    ):
        raise FormatError(f"matrix shape must be two non-negative ints, got {shape}")
    for dim in shape:
        _check_dimension("matrix dimension", dim, max_bytes)
    try:
        rows = np.asarray(obj["rows"], dtype=np.int64)
        cols = np.asarray(obj["cols"], dtype=np.int64)
        values = np.asarray(obj["values"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"matrix triples are not numeric arrays: {exc}") from exc
    if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
        raise FormatError(
            "matrix rows/cols/values must be 1-D and equally long, got "
            f"{rows.shape}/{cols.shape}/{values.shape}"
        )
    # COOMatrix.from_arrays validates the index ranges.
    return COOMatrix.from_arrays(tuple(shape), rows, cols, values).to_csr()


def dense_from_wire(obj, *, rows: int) -> np.ndarray:
    """Decode the dense operand ``x`` (``rows x K`` nested lists)."""
    try:
        x = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"dense operand is not a numeric matrix: {exc}") from exc
    if x.ndim != 2:
        raise ShapeError(f"dense operand must be 2-D, got shape {x.shape}")
    return check_dense("x", x, rows=rows)


def delta_to_wire(delta) -> dict:
    """Encode a :class:`~repro.streaming.DeltaBatch` as a ``delta`` payload."""
    return {
        "rows": [int(r) for r in delta.rows],
        "cols": [int(c) for c in delta.cols],
        "values": [float(v) for v in delta.values],
        "new_rows": int(delta.new_rows),
        "mode": delta.mode,
        "timestamp": float(delta.timestamp),
    }


def delta_from_wire(
    obj, *, n_rows: int = 0, max_bytes: int = DEFAULT_MAX_LINE_BYTES
):
    """Decode a ``delta`` payload into a validated ``DeltaBatch``.

    ``n_rows`` is the height of the matrix the delta will grow:
    ``n_rows + new_rows`` is held to ``max_bytes`` like an upload's
    shape, before any array is built.
    """
    from repro.streaming import DeltaBatch

    if not isinstance(obj, dict):
        raise FormatError(
            f"delta payload must be an object, got {type(obj).__name__}"
        )
    missing = [k for k in ("rows", "cols", "values") if k not in obj]
    if missing:
        raise FormatError(f"delta payload missing field(s): {', '.join(missing)}")
    new_rows = obj.get("new_rows", 0)
    if not _is_count(new_rows):
        raise FormatError(f"delta new_rows must be a non-negative int, got {new_rows!r}")
    _check_dimension("matrix height after the delta", n_rows + new_rows, max_bytes)
    try:
        rows = np.asarray(obj["rows"], dtype=np.int64)
        cols = np.asarray(obj["cols"], dtype=np.int64)
        values = np.asarray(obj["values"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"delta triples are not numeric arrays: {exc}") from exc
    mode = obj.get("mode", "add")
    try:
        # DeltaBatch validates shapes, dtypes and the mode/new_rows combination.
        return DeltaBatch(
            rows=rows,
            cols=cols,
            values=values,
            new_rows=new_rows,
            mode=mode,
            timestamp=float(obj.get("timestamp", 0.0)),
        )
    except (TypeError, ValueError, ValidationError) as exc:
        raise FormatError(f"invalid delta payload: {exc}") from exc


def matrix_fingerprint(csr: CSRMatrix) -> str:
    """Content fingerprint of a matrix: shape, pattern **and values**.

    Two matrices with equal fingerprints produce bitwise-equal SpMM
    results, so the fingerprint is a safe name for a warm session.  The
    value bytes enter as little-endian float64, making the digest
    reproducible across machines.
    """
    values = np.ascontiguousarray(csr.values, dtype=np.float64)
    return stable_digest(
        int(csr.n_rows).to_bytes(8, "little"),
        int(csr.n_cols).to_bytes(8, "little"),
        digest_arrays(csr.rowptr, csr.colidx).encode("ascii"),
        values.astype("<f8", copy=False).tobytes(),
    )
