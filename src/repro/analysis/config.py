"""reprolint configuration: defaults plus ``[tool.reprolint]`` overrides.

Configuration is read from the nearest ``pyproject.toml`` at or above the
lint root.  Recognised keys::

    [tool.reprolint]
    select = ["RD101", ...]     # run only these codes (default: all)
    ignore = ["RD303", ...]     # never report these codes
    exclude = ["tests/fixtures/reprolint"]   # paths/globs skipped entirely

    [tool.reprolint.per-path-ignores]
    "tests" = ["RD201"]         # codes ignored under matching paths

    [tool.reprolint.scopes]     # override a rule's built-in path scoping
    ordered-iteration-paths = ["repro/reorder", ...]

Path entries match a file when they equal it, are an ancestor directory of
it, or fnmatch it (so ``"*"`` scopes a rule to everything — handy in
tests).  Scoping uses *package-relative* paths (``repro/kernels/spmm.py``)
while ``exclude`` / ``per-path-ignores`` use lint-root-relative paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

from repro.errors import ConfigError

__all__ = ["LintConfig", "DEFAULT_SCOPES", "load_config", "path_matches"]

#: Built-in path scoping for the rule set (package-relative paths).  Every
#: entry can be overridden via ``[tool.reprolint.scopes]``.
DEFAULT_SCOPES: dict[str, tuple[str, ...]] = {
    # RD101/RD102 exemption: the one module allowed to touch raw RNG APIs.
    "rng-exempt-paths": ("repro/util/rng.py",),
    # RD103: packages whose outputs are plans/orderings — iteration order
    # there must be deterministic.
    "ordered-iteration-paths": (
        "repro/reorder",
        "repro/clustering",
        "repro/aspt",
        "repro/planstore",
        "repro/similarity",
    ),
    # RD104: packages whose results must not depend on wall-clock reads.
    "wallclock-paths": ("repro/kernels", "repro/aspt", "repro/clustering"),
    # RD107: all library code must route monotonic-clock reads through an
    # injectable ``clock`` parameter...
    "clock-injection-paths": ("repro",),
    # ...except the observability layer, which owns the default clock.
    "clock-exempt-paths": ("repro/observability",),
    # RD203: packages whose public entry points must validate sparse args.
    "entrypoint-paths": ("repro/sparse", "repro/aspt", "repro/reorder"),
    # RD204: compiled-backend code, where allocations must name their
    # dtype (the kernels are dtype-polymorphic; a float64 default
    # silently upcasts the float32 cells of the differential matrix).
    "backend-paths": ("repro/kernels/backends",),
    # RD106/RD303 apply to library code only...
    "library-paths": ("repro",),
    # RD106 exemption: the resilience layer itself is where broad catches
    # are the mechanism (fault translation, quarantine, journalling), and
    # the serve layer's connection loop must survive anything a request
    # raises (the catch converts it to a typed error response).
    "resilience-exempt-paths": ("repro/resilience", "repro/serve"),
    # RD108: async server code where a blocking call stalls every
    # connection sharing the event loop.
    "async-blocking-paths": ("repro/serve",),
    # ...and is exempt where printing *is* the job (CLI front ends).
    "print-exempt-paths": ("repro/cli.py", "repro/analysis/cli.py"),
    # RD304: modules containing repro CLI handler functions.
    "cli-paths": ("repro/cli.py",),
    # RD401/RD402: files whose sink call sites the taint analysis reports
    # on (sources are followed project-wide regardless of this scope).
    "taint-paths": ("repro",),
    # RD501: packages whose value arrays must stay dtype-stable — an
    # implicit float64 upcast there silently doubles bandwidth and breaks
    # float32 bitwise reproducibility.
    "dtype-paths": ("repro/kernels", "repro/sparse", "repro/aspt"),
    # RD601/RD602: packages whose contract targets and fault sites must
    # be observably pure (contracts toggle with REPRO_CONTRACTS, faults
    # with an installed injector — neither may change results).
    "purity-paths": ("repro",),
}


def path_matches(rel: str, patterns) -> bool:
    """True when ``rel`` equals, lives under, or fnmatches any pattern."""
    for pattern in patterns:
        pattern = pattern.rstrip("/")
        if rel == pattern or rel.startswith(pattern + "/") or fnmatch(rel, pattern):
            return True
    return False


@dataclass
class LintConfig:
    """Resolved reprolint configuration (defaults merged with pyproject)."""

    select: frozenset | None = None  #: only these codes run (None = all)
    ignore: frozenset = frozenset()  #: codes dropped everywhere
    exclude: tuple = ()  #: root-relative paths/globs never linted
    per_path_ignores: dict = field(default_factory=dict)  #: path -> codes
    scopes: dict = field(default_factory=lambda: dict(DEFAULT_SCOPES))
    root: Path = field(default_factory=Path.cwd)  #: base for display paths

    def code_enabled(self, code: str) -> bool:
        """Whether ``code`` survives the global select/ignore filters."""
        if code in self.ignore:
            return False
        return self.select is None or code in self.select

    def ignored_at(self, display: str, code: str) -> bool:
        """Whether ``code`` is ignored for the file at root-relative ``display``."""
        for pattern, codes in self.per_path_ignores.items():
            if path_matches(display, (pattern,)) and code in codes:
                return True
        return False

    def scope(self, key: str) -> tuple:
        """The path list for a scope key (empty tuple when unknown)."""
        return tuple(self.scopes.get(key, ()))


def _as_code_list(value, key: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"[tool.reprolint] {key} must be a list of strings")
    return value


def load_config(start: Path | None = None) -> LintConfig:
    """Build a :class:`LintConfig` from the nearest ``pyproject.toml``.

    Searches ``start`` (default: the current directory) and its parents.
    Missing file or missing ``[tool.reprolint]`` table yields pure defaults
    rooted at ``start``.
    """
    start = Path(start) if start is not None else Path.cwd()
    start = start if start.is_dir() else start.parent
    pyproject = None
    for candidate in [start, *start.resolve().parents]:
        probe = candidate / "pyproject.toml"
        if probe.is_file():
            pyproject = probe
            break
    config = LintConfig(root=start if pyproject is None else pyproject.parent)
    if pyproject is None:
        return config

    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python < 3.11 without tomli
        return config
    with open(pyproject, "rb") as fh:
        data = tomllib.load(fh)
    table = data.get("tool", {}).get("reprolint")
    if table is None:
        return config

    if "select" in table:
        config.select = frozenset(_as_code_list(table["select"], "select"))
    if "ignore" in table:
        config.ignore = frozenset(_as_code_list(table["ignore"], "ignore"))
    if "exclude" in table:
        config.exclude = tuple(_as_code_list(table["exclude"], "exclude"))
    for pattern, codes in table.get("per-path-ignores", {}).items():
        config.per_path_ignores[pattern] = frozenset(
            _as_code_list(codes, f"per-path-ignores[{pattern!r}]")
        )
    for key, paths in table.get("scopes", {}).items():
        if key not in DEFAULT_SCOPES:
            raise ConfigError(f"[tool.reprolint.scopes] unknown scope key {key!r}")
        config.scopes[key] = tuple(_as_code_list(paths, f"scopes.{key}"))
    return config
