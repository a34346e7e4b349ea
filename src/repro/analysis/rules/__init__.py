"""The reprolint rule set.

Importing this package registers every rule into
:data:`repro.analysis.core.REGISTRY`.  Rules are grouped by code band:

* :mod:`repro.analysis.rules.determinism` — RD101-RD104, plus RD107
  (direct monotonic-clock calls that bypass clock injection)
* :mod:`repro.analysis.rules.performance` — RD108 (blocking calls inside
  ``async def`` on the serving event loop)
* :mod:`repro.analysis.rules.numerical` — RD2xx
* :mod:`repro.analysis.rules.hygiene` — RD3xx, plus RD106 (broad except
  handlers that would swallow resilience-layer control exceptions)
* :mod:`repro.analysis.rules.dataflow` — RD4xx/RD5xx/RD6xx, the
  inter-procedural project rules backed by :mod:`repro.analysis.dataflow`
"""

from repro.analysis.rules import dataflow, determinism, hygiene, numerical, performance

__all__ = ["determinism", "performance", "numerical", "hygiene", "dataflow"]
