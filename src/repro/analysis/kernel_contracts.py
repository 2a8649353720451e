"""Kernel-contract rules, scoped to ``algos/`` and ``bench/``.

The vectorized kernels promise *bit-identical* output to their scalar
references, and the benchmark harness diffs them.  Three syntactic
contracts keep that promise honest:

* **KC001** — numpy allocations without an explicit ``dtype=``: inferred
  dtypes drift with the input (an int list allocates int64 and the
  packed-key tricks silently change semantics).  ``*_like`` constructors
  are exempt — they inherit their prototype's dtype by design.
* **KC002** — ``==``/``!=`` against float literals in kernel code:
  threshold and tie-break comparisons must be explicit about exactness
  (suppress with ``# lint: ignore[KC002]`` where bit-exact zero tests are
  intentional, e.g. dropping exact-zero coefficients).
* **KC003** — in-place mutation of function arguments (``arg[i] = ...``,
  ``arg += ...``): kernels are called in interleaved benchmark loops, so
  clobbering inputs corrupts the next repetition.
* **KC004** — completion-order or hash-order iteration
  (``as_completed``/``imap_unordered``, looping over a set) in kernel
  code: completion order varies run to run and set order varies across
  interpreter seeds, so either would make kernel output (and the
  benchmark's scalar-vs-vectorized diffs) schedule- or seed-dependent.
  No executor runs in these packages today; the rule keeps it that way
  unless results are collected in submission order (``Executor.map``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path
from typing import ClassVar

from repro.analysis.core import Finding, ParsedModule, Rule, dotted_name

__all__ = [
    "FloatLiteralEquality",
    "MissingExplicitDtype",
    "MutatedArgument",
    "NondeterministicCollection",
]

#: Allocation call -> index of its positional ``dtype`` slot.
_ALLOCATORS = {
    "empty": 1,
    "zeros": 1,
    "ones": 1,
    "array": 1,
    "asarray": 1,
    "ascontiguousarray": 1,
    "asfortranarray": 1,
    "full": 2,
    "arange": 3,
    "linspace": 5,
}

_SCOPES = ("algos", "bench")


class _KernelRule(Rule):
    """Base for rules that only watch the kernel directories."""

    def applies_to(self, path: Path) -> bool:
        return any(scope in path.parts for scope in _SCOPES)


class MissingExplicitDtype(_KernelRule):
    """KC001: numpy allocations must pin their dtype."""

    rule_id: ClassVar[str] = "KC001"
    summary: ClassVar[str] = (
        "numpy allocation without an explicit dtype= in kernel code; inferred "
        "dtypes drift with the input and break bit-exactness"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain is None:
                continue
            parts = chain.split(".")
            if len(parts) != 2 or parts[0] not in {"np", "numpy"}:
                continue
            dtype_slot = _ALLOCATORS.get(parts[1])
            if dtype_slot is None:
                continue
            if any(keyword.arg == "dtype" for keyword in node.keywords):
                continue
            if len(node.args) > dtype_slot:
                continue
            yield module.finding(
                self.rule_id,
                node,
                f"{chain}(...) without an explicit dtype=; kernel allocations "
                "must pin their dtype (bit-exactness contract)",
            )


class FloatLiteralEquality(_KernelRule):
    """KC002: exact float-literal comparisons need an explicit opt-in."""

    rule_id: ClassVar[str] = "KC002"
    summary: ClassVar[str] = (
        "== / != against a float literal in kernel code; make exact comparisons "
        "explicit or suppress where bit-exact zero tests are intended"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(
                isinstance(operand, ast.Constant) and isinstance(operand.value, float)
                for operand in operands
            ):
                yield module.finding(
                    self.rule_id,
                    node,
                    "exact ==/!= against a float literal; float equality in "
                    "tie-break/threshold code must be intentional "
                    "(suppress with lint: ignore[KC002] if it is)",
                )


class MutatedArgument(_KernelRule):
    """KC003: kernels must not mutate their arguments in place."""

    rule_id: ClassVar[str] = "KC003"
    summary: ClassVar[str] = (
        "in-place mutation of a function argument in kernel code; interleaved "
        "benchmark repetitions reuse inputs, so clobbering them corrupts runs"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _check_function(
        self, module: ParsedModule, function: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        arguments = function.args
        parameters = {
            arg.arg
            for arg in [
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
            ]
            if arg.arg not in {"self", "cls"}
        }
        rebound = {
            target.id
            for statement in ast.walk(function)
            if isinstance(statement, ast.Assign)
            for target in statement.targets
            if isinstance(target, ast.Name)
        }
        live = parameters - rebound
        for statement in ast.walk(function):
            name: str | None = None
            if isinstance(statement, ast.AugAssign):
                if isinstance(statement.target, ast.Name):
                    name = statement.target.id
                elif isinstance(statement.target, ast.Subscript) and isinstance(
                    statement.target.value, ast.Name
                ):
                    name = statement.target.value.id
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        name = target.value.id
            if name is not None and name in live:
                yield module.finding(
                    self.rule_id,
                    statement,
                    f"function {function.name!r} mutates its argument {name!r} "
                    "in place; copy first or write to a fresh array",
                )


#: Futures/pool helpers that yield results in *completion* order.
_COMPLETION_ORDER_CALLS = {"as_completed", "imap_unordered"}


class NondeterministicCollection(_KernelRule):
    """KC004: kernel code must not collect in completion or set order."""

    rule_id: ClassVar[str] = "KC004"
    summary: ClassVar[str] = (
        "completion-order or set-order iteration in kernel code makes output "
        "schedule- or hash-seed-dependent; iterate sorted() views and collect "
        "in submission order (Executor.map)"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                chain = dotted_name(node.func)
                if chain is not None and chain.split(".")[-1] in _COMPLETION_ORDER_CALLS:
                    yield module.finding(
                        self.rule_id,
                        node,
                        f"{chain}(...) yields results in completion order, which "
                        "varies run to run; collect with Executor.map "
                        "(submission order) instead",
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expression(node.iter):
                    yield module.finding(
                        self.rule_id,
                        node,
                        "iterating a set in kernel code; set order is "
                        "hash-dependent — iterate a sorted() or list view instead",
                    )

    @staticmethod
    def _is_set_expression(expression: ast.expr) -> bool:
        if isinstance(expression, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expression, ast.Call):
            chain = dotted_name(expression.func)
            return chain in {"set", "frozenset"}
        return False
