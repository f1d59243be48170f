"""RPR009 — no blocking work inside a ``write()`` lock scope.

The RW lock is writer-preferring: while a writer holds (or waits for) the
lock, *every* new reader parks.  A full fact scan, a linear solve, a
sleep, or HTTP handling inside a ``write()`` scope therefore stalls the
entire warm path — the p99 cliff the fig13 loadgen would catch only
after the fact.  This rule catches it at lint time: inside any
``with <lock>.write():`` scope (and one call-hop into same-module
functions reached from one), calls that block are findings:

* store traffic: ``.scan()`` / ``._fetch()``,
* numeric heavy-lifting: ``np.linalg.solve`` / ``lstsq``,
* stalls: ``time.sleep``, and
* HTTP handling: ``urlopen`` / ``serve_forever`` / ``handle_request``.

Cold-path refresh work that *must* run under the write lock routes
through opaque cross-module calls (``search.refresh``,
``build_cube_tables``) — deliberate: their cost is bounded by the
incremental maintainer, they are the write lock's whole purpose, and the
scan-accounting counters (RPR001's domain) keep them truthful.
"""

from __future__ import annotations

import ast

from ..callgraph import ModuleCallGraph
from ..engine import FileContext, Finding, Rule, Scope
from ..guards import classify_lock_acquisition, iter_lock_functions

__all__ = ["WriteLockBlockingRule"]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SKIP_NODES = (*_FUNC_NODES, ast.Lambda, ast.ClassDef)

#: Callee attribute/function names that block, by final name.
_BLOCKING_NAMES = {
    "scan": "a full store scan",
    "_fetch": "a store block fetch",
    "sleep": "a sleep",
    "urlopen": "an HTTP request",
    "serve_forever": "HTTP serving",
    "handle_request": "HTTP handling",
    "solve": "a linear solve",
    "lstsq": "a least-squares solve",
}
#: Names that only count when reached through ``<...>.linalg.<name>``.
_LINALG_ONLY = {"solve", "lstsq"}


def _blocking_call(node: ast.Call) -> str | None:
    """A human description when ``node`` is a known blocking call."""
    func = node.func
    name = None
    if isinstance(func, ast.Attribute):
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    if name not in _BLOCKING_NAMES:
        return None
    if name in _LINALG_ONLY:
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "linalg"
        ):
            return None
    return _BLOCKING_NAMES[name]


def _has_blocking_call(fn_node: ast.AST) -> str | None:
    """A blocking call anywhere in ``fn_node``'s own body, if any."""
    stack = list(ast.iter_child_nodes(fn_node))
    while stack:
        child = stack.pop()
        if isinstance(child, _SKIP_NODES):
            continue
        if isinstance(child, ast.Call):
            desc = _blocking_call(child)
            if desc is not None:
                return desc
        stack.extend(ast.iter_child_nodes(child))
    return None


class WriteLockBlockingRule(Rule):
    rule_id = "RPR009"
    title = "no blocking calls under a write() lock scope"
    default_scope = Scope(
        include=("src/repro",),
        exclude=("src/repro/analysis",),
    )

    def make_visitor(self, ctx: FileContext, engine) -> ast.NodeVisitor:
        raise NotImplementedError("RPR009 overrides check()")

    def check(self, ctx: FileContext, engine) -> list[Finding]:
        findings: list[Finding] = []
        cg = ModuleCallGraph(ctx.tree)
        blocking_index = {
            entry.qualname: _has_blocking_call(entry.node)
            for entry in cg.functions.values()
        }

        def walk(node: ast.AST, depth: int, class_name: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _SKIP_NODES):
                    continue
                if isinstance(child, ast.With):
                    delta = 0
                    for item in child.items:
                        scope = classify_lock_acquisition(
                            item.context_expr, class_name
                        )
                        if scope is not None and scope.mode == "write":
                            delta += 1
                    walk(child, depth + delta, class_name)
                    continue
                if isinstance(child, ast.Call) and depth > 0:
                    desc = _blocking_call(child)
                    if desc is not None:
                        findings.append(
                            ctx.finding(
                                child,
                                self.rule_id,
                                f"{desc} inside a write() lock scope stalls "
                                "every reader (writer-preferring lock)",
                            )
                        )
                        continue
                    entry = cg.resolve_call(child, class_name)
                    if entry is not None:
                        via = blocking_index.get(entry.qualname)
                        if via is not None:
                            findings.append(
                                ctx.finding(
                                    child,
                                    self.rule_id,
                                    f"call to {entry.qualname} performs "
                                    f"{via} inside a write() lock scope "
                                    "(one call-hop)",
                                )
                            )
                            continue
                walk(child, depth, class_name)

        for fn, class_name in iter_lock_functions(ctx.tree):
            walk(fn, 0, class_name)
        return findings
