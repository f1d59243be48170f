"""RPR001 — every block access routes through the instrumented store APIs.

Lemma 1 (one scan per tree level) and Lemma 2 (one scan per cube build) are
verified against ``store.full_scans`` / ``store.region_reads``; the obs,
bench, and conformance layers all read those counters.  A code path that
reaches into ``TrainingDataStore`` internals (``_blocks``, ``_fetch``,
``_files``) or opens ``.npz`` block files directly does real I/O the
counters never see — the scan-bound tests keep passing while the claim they
certify silently stops being measured.

Outside the storage layer (and :mod:`repro.obs`, which renders stats), the
rule flags:

* attribute access on the store's private internals, and
* direct ``np.load`` / ``np.savez`` / ``np.savez_compressed`` /
  ``np.memmap`` calls (outside ``repro.storage`` a mapping of block data
  bypasses the read and byte counters).

Legitimate non-store ``.npz`` persistence (the suffstats cache) carries an
inline ``# lint: ignore[RPR001]`` with its justification.
"""

from __future__ import annotations

import ast

from ..engine import FileContext, Rule, RuleVisitor, Scope

__all__ = ["ScanAccountingRule"]

_STORE_INTERNALS = {"_blocks", "_fetch", "_files"}
_NPZ_CALLS = {"load", "savez", "savez_compressed", "memmap"}
_NUMPY_ALIASES = {"np", "numpy"}


class _Visitor(RuleVisitor):
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _STORE_INTERNALS:
            self.add(
                node,
                f"store internal `.{node.attr}` bypasses I/O accounting "
                "(store.full_scans / store.region_reads); use read()/scan()",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _NPZ_CALLS
            and isinstance(func.value, ast.Name)
            and func.value.id in _NUMPY_ALIASES
        ):
            self.add(
                node,
                f"direct np.{func.attr} outside repro.storage: block I/O "
                "must go through the instrumented store APIs",
            )
        self.generic_visit(node)


class ScanAccountingRule(Rule):
    rule_id = "RPR001"
    title = "block access must route through scan-accounting store APIs"
    default_scope = Scope(
        include=("src/repro",),
        exclude=("src/repro/storage", "src/repro/obs", "src/repro/analysis"),
    )

    def make_visitor(self, ctx: FileContext, engine) -> ast.NodeVisitor:
        return _Visitor(self, ctx, engine)
