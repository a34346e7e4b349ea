"""RD108 — blocking calls on the serving event loop.

One asyncio loop owns every connection of :mod:`repro.serve`, so a
single blocking call inside an ``async def`` — ``time.sleep``,
synchronous file IO, a subprocess wait, or serialising a payload with
``json.dumps``/``json.loads``/``.tolist()`` — stalls *all* tenants at
once, exactly the head-of-line blocking the admission controller exists
to prevent.  Blocking work belongs on the executor
(``loop.run_in_executor``) or behind the asyncio equivalents
(``asyncio.sleep``, stream APIs).
"""

from __future__ import annotations

import ast

from repro.analysis.core import FileContext, Rule, register

__all__ = ["AsyncBlockingCallRule"]


#: ``module.attr`` call targets that block the calling thread.
_BLOCKING_MODULE_CALLS = {
    ("time", "sleep"),
    ("io", "open"),
    ("os", "system"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
    ("subprocess", "Popen"),
    ("socket", "create_connection"),
    ("shutil", "copy"),
    ("shutil", "copy2"),
    ("shutil", "copytree"),
    ("shutil", "rmtree"),
    # Serialisation is CPU-bound in the payload's size: a dense operand
    # through JSON holds the loop for as long as a sleep would.
    ("json", "dumps"),
    ("json", "loads"),
}

#: Method names that are synchronous file IO wherever they appear
#: (``Path.read_text`` and friends), plus ``ndarray.tolist``, which
#: boxes every element of an array; scoped to attribute calls so a
#: local helper named ``read_text`` still flags — in an async frame it
#: is equally suspect.
_BLOCKING_METHODS = {
    "read_text",
    "read_bytes",
    "write_text",
    "write_bytes",
    "tolist",
}


def _blocking_call_name(node: ast.Call) -> str | None:
    """The dotted name of a blocking call, or ``None``."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "open"
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name):
            pair = (func.value.id, func.attr)
            if pair in _BLOCKING_MODULE_CALLS:
                return f"{pair[0]}.{pair[1]}"
        if func.attr in _BLOCKING_METHODS:
            return f"<expr>.{func.attr}"
    return None


@register
class AsyncBlockingCallRule(Rule):
    """RD108: blocking calls inside ``async def`` on serve paths.

    Flags ``time.sleep``, synchronous file IO (``open``,
    ``Path.read_text``/``write_bytes``/...), subprocess invocations,
    payload serialisation (``json.dumps``, ``json.loads``, ``.tolist()``)
    and other thread-blocking calls lexically inside an ``async def`` body.
    Nested *synchronous* ``def``s are excluded — they are exactly what
    gets shipped to ``loop.run_in_executor``, where blocking is fine.
    """

    code = "RD108"
    name = "blocking-call-in-async"
    summary = (
        "blocking call inside async def stalls the entire event loop; use "
        "the asyncio equivalent or move it to loop.run_in_executor"
    )
    scope_key = "async-blocking-paths"

    def _walk(self, ctx: FileContext, node: ast.AST, in_async: bool):
        if isinstance(node, ast.AsyncFunctionDef):
            in_async = True
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            # A nested sync function is executor-bound, not loop-bound.
            in_async = False
        elif in_async and isinstance(node, ast.Call):
            name = _blocking_call_name(node)
            if name is not None:
                yield ctx.finding(
                    node, self.code,
                    f"{name} blocks the event loop for every connection; "
                    "await the asyncio equivalent or dispatch through "
                    "loop.run_in_executor",
                )
        for child in ast.iter_child_nodes(node):
            yield from self._walk(ctx, child, in_async)

    def visit(self, ctx: FileContext):
        """Flag blocking calls reachable from async frames in this file."""
        yield from self._walk(ctx, ctx.tree, False)
