"""RD1xx — determinism rules.

The reordering pipeline must be bit-deterministic for a given seed: plans
are content-addressed by the plan store and compared across processes in
CI.  These rules flag the constructs that have actually broken that
property in practice — unseeded generators, Python ``set`` iteration
(ordering depends on ``PYTHONHASHSEED`` for ``str`` elements), and
wall-clock reads inside code whose *outputs* must not depend on time.
"""

from __future__ import annotations

import ast

from repro.analysis.core import FileContext, Rule, register

__all__ = [
    "UnseededGeneratorRule",
    "LegacyNumpyRandomRule",
    "SetIterationRule",
    "WallClockRule",
    "InjectableClockRule",
]

#: Legacy ``np.random.*`` module-level API (global-state RNG).  The modern
#: ``default_rng`` / ``Generator`` / ``SeedSequence`` names are allowed.
_LEGACY_RANDOM = {
    "rand", "randn", "randint", "random", "random_sample", "ranf", "sample",
    "seed", "get_state", "set_state", "choice", "shuffle", "permutation",
    "uniform", "normal", "standard_normal", "binomial", "poisson", "beta",
    "gamma", "exponential", "RandomState",
}

#: Wall-clock (and monotonic-clock) reads whose results leak timing into
#: outputs when called from transformation code.
_WALL_CLOCK_ATTRS = {
    "time": {
        "time", "time_ns", "monotonic", "monotonic_ns",
        "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
    },
    "datetime": {"now", "utcnow", "today"},
}


def _is_np_random(node: ast.AST) -> bool:
    """True for an expression spelling ``np.random`` / ``numpy.random``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


@register
class UnseededGeneratorRule(Rule):
    """RD101: ``default_rng()`` with no (or ``None``) seed is nondeterministic."""

    code = "RD101"
    name = "unseeded-default-rng"
    summary = (
        "np.random.default_rng() called without a seed outside util/rng.py; "
        "thread a seed or Generator through util.rng.as_generator"
    )
    exempt_key = "rng-exempt-paths"

    def visit(self, ctx: FileContext):
        """Flag seedless ``default_rng`` calls."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            named = (
                isinstance(func, ast.Name) and func.id == "default_rng"
            ) or (
                isinstance(func, ast.Attribute)
                and func.attr == "default_rng"
                and _is_np_random(func.value)
            )
            if not named:
                continue
            seedless = not node.args and not node.keywords
            none_seed = (
                len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            )
            if seedless or none_seed:
                yield ctx.finding(
                    node, self.code,
                    "default_rng() without a seed is nondeterministic; pass "
                    "a seed or route through repro.util.rng.as_generator",
                )


@register
class LegacyNumpyRandomRule(Rule):
    """RD102: legacy global-state ``np.random.*`` API outside util/rng.py."""

    code = "RD102"
    name = "legacy-np-random"
    summary = (
        "legacy np.random.<fn> global-state API used outside util/rng.py; "
        "use a seeded Generator instead"
    )
    exempt_key = "rng-exempt-paths"

    def visit(self, ctx: FileContext):
        """Flag attribute access on the legacy ``np.random`` surface."""
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _LEGACY_RANDOM
                and _is_np_random(node.value)
            ):
                yield ctx.finding(
                    node, self.code,
                    f"legacy np.random.{node.attr} uses hidden global state; "
                    "use a seeded np.random.Generator",
                )


@register
class SetIterationRule(Rule):
    """RD103: iterating a ``set`` in plan/ordering-producing code.

    Set iteration order depends on element hashes — for strings, on
    ``PYTHONHASHSEED`` — so any ordering derived from it silently varies
    between processes.  Iterate ``sorted(...)`` instead.
    """

    code = "RD103"
    name = "set-iteration-in-ordering-code"
    summary = (
        "iteration over a set in plan- or ordering-producing code; wrap in "
        "sorted() for a deterministic order"
    )
    scope_key = "ordered-iteration-paths"

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        )

    def visit(self, ctx: FileContext):
        """Flag ``for``-loops and comprehensions whose iterable is a set."""
        for node in ast.walk(ctx.tree):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters = [gen.iter for gen in node.generators]
            for it in iters:
                if self._is_set_expr(it):
                    yield ctx.finding(
                        it, self.code,
                        "iteration order of a set depends on element hashes "
                        "(PYTHONHASHSEED); iterate sorted(...) instead",
                    )


@register
class WallClockRule(Rule):
    """RD104: clock reads inside kernel/tiling/clustering code.

    Timing belongs to the callers (``repro.observability`` spans and
    stages); a clock read inside a transformation lets measurement perturb
    results, the failure mode the reordering-effectiveness literature warns
    about.
    """

    code = "RD104"
    name = "wall-clock-in-kernel-code"
    summary = (
        "clock read inside kernels/aspt/clustering; time at the call site "
        "with a repro.observability span or Stages instead"
    )
    scope_key = "wallclock-paths"

    def visit(self, ctx: FileContext):
        """Flag ``time.*`` / ``datetime.now``-family calls in scoped code."""
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            base = func.value
            for module, attrs in _WALL_CLOCK_ATTRS.items():
                base_named = (
                    isinstance(base, ast.Name) and base.id == module
                ) or (
                    isinstance(base, ast.Attribute) and base.attr == module
                )
                if base_named and func.attr in attrs:
                    yield ctx.finding(
                        node, self.code,
                        f"{module}.{func.attr}() inside transformation code; "
                        "move timing to the caller (repro.observability)",
                    )
                    break


#: Monotonic-clock reads RD107 requires to be injected rather than called
#: directly (passing ``time.perf_counter`` as a default *reference* is the
#: sanctioned pattern; *calling* it inline defeats clock injection).
_MONOTONIC_CLOCK_FNS = {
    "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
}


@register
class InjectableClockRule(Rule):
    """RD107: direct monotonic-clock *calls* in library code.

    Tracing, timing and deadline code all take an injectable ``clock``
    callable so tests can drive time deterministically (golden traces,
    deadline unit tests).  A direct ``time.perf_counter()`` call bypasses
    that seam: the caller can no longer substitute a fake clock, and the
    measurement silently diverges from every traced/timed sibling.
    Reference the clock (``clock=time.perf_counter``) and call the
    injected name instead.  The observability package — the layer that
    *owns* the default clock — is exempt.
    """

    code = "RD107"
    name = "direct-monotonic-clock-call"
    summary = (
        "time.perf_counter()/time.monotonic() called directly in library "
        "code; accept an injectable clock=time.perf_counter parameter and "
        "call that instead"
    )
    scope_key = "clock-injection-paths"
    exempt_key = "clock-exempt-paths"

    def visit(self, ctx: FileContext):
        """Flag direct calls of the ``time`` module's monotonic clocks."""
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            base = func.value
            base_named = (
                isinstance(base, ast.Name) and base.id == "time"
            ) or (
                isinstance(base, ast.Attribute) and base.attr == "time"
            )
            if base_named and func.attr in _MONOTONIC_CLOCK_FNS:
                yield ctx.finding(
                    node, self.code,
                    f"direct time.{func.attr}() call; take an injectable "
                    "clock parameter (clock=time.perf_counter) and call "
                    "the injected name",
                )
