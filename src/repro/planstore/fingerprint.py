"""Content-addressed cache keys for execution plans.

A plan is a pure function of (a) the matrix's *sparsity pattern* and (b)
the :class:`~repro.reorder.ReorderConfig`: MinHash reads the column
support sets, never the values, and every downstream stage (LSH,
clustering, tiling) is deterministic given the config.  The cache key
therefore hashes exactly those two inputs — plus a format version so an
on-disk store written by an older incompatible release reads as a miss,
never as a wrong plan.

Key layout (all BLAKE2b hex digests)::

    pattern_fingerprint(csr)   = H(shape, rowptr, colidx)
    config_fingerprint(config) = H(repr of every config field, sorted)
    plan_key(csr, config)      = H(version, pattern_fp, config_fp)

``values`` deliberately never enters the key: two matrices with the same
pattern share reordering decisions, and a cached plan is re-materialised
against the caller's values on every hit (see
:class:`repro.planstore.PlanDecisions`).
"""

from __future__ import annotations

import dataclasses

from repro.sparse.csr import CSRMatrix
from repro.util.hashing import digest_arrays, stable_digest

__all__ = [
    "PLAN_FORMAT_VERSION",
    "pattern_fingerprint",
    "config_fingerprint",
    "plan_key",
]

#: Version of the cached-plan contract.  Bump whenever the pipeline's
#: deterministic output for a given (pattern, config) changes, or the
#: on-disk layout changes — old entries then miss instead of lying.
#: v2: entries gained a CRC-32 content checksum and a provenance block
#: (degradation-ladder history); v1 entries quarantine on read.
#: v3: entries gained the resolved kernel ``backend`` name and the
#: compiled-artifact descriptor; v2 entries quarantine on read.
#: v4: both v3 fields are gone again (nothing read them: the backend is
#: re-resolved from the config on every materialisation); the version is
#: part of :func:`plan_key`, so v3 entries simply miss.
PLAN_FORMAT_VERSION = 4


def pattern_fingerprint(csr: CSRMatrix) -> str:
    """Stable hex digest of the sparsity pattern (shape + rowptr + colidx).

    Equal patterns give equal fingerprints regardless of the ``values``
    array or its provenance; moving or adding a single non-zero changes
    the digest.
    """
    shape_digest = stable_digest(
        int(csr.shape[0]).to_bytes(8, "little"),
        int(csr.shape[1]).to_bytes(8, "little"),
    )
    return stable_digest(
        shape_digest.encode("ascii"),
        digest_arrays(csr.rowptr, csr.colidx).encode("ascii"),
    )


def config_fingerprint(config) -> str:
    """Stable hex digest of every field of a :class:`ReorderConfig`.

    Fields are serialised as ``name=repr(value)`` in sorted order, so the
    digest is insensitive to field declaration order but sensitive to any
    value change (including the ``force_round*`` overrides and the
    candidate-scoring ``measure``).
    """
    fields = dataclasses.asdict(config)
    parts = [f"{name}={fields[name]!r}".encode("utf-8") for name in sorted(fields)]
    return stable_digest(*parts)


def plan_key(csr: CSRMatrix, config) -> str:
    """The content-addressed cache key for ``build_plan(csr, config)``."""
    return stable_digest(
        PLAN_FORMAT_VERSION.to_bytes(8, "little"),
        pattern_fingerprint(csr).encode("ascii"),
        config_fingerprint(config).encode("ascii"),
    )
