"""API-hygiene rules: small traps at the package surface.

* **AH001** — mutable default arguments (``def f(x=[])``, and lambdas
  alike): the default is evaluated once and shared across calls, so one
  call's mutation leaks into the next.
* **AH002** — bare ``except:``: swallows ``KeyboardInterrupt`` and
  ``SystemExit``; catch a concrete exception (the repo has a
  :class:`~repro.exceptions.ReproError` hierarchy for its own failures).
* **AH003** — ``__all__`` drift in package ``__init__`` files: a public
  name imported into the package namespace but missing from ``__all__``
  (or listed but unbound) silently splits the documented API from the
  real one.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path
from typing import ClassVar

from repro.analysis.core import Finding, ParsedModule, Rule

__all__ = ["AllDrift", "BareExcept", "MutableDefaultArgument"]


class MutableDefaultArgument(Rule):
    """AH001: default arguments must not be mutable."""

    rule_id: ClassVar[str] = "AH001"
    summary: ClassVar[str] = (
        "mutable default argument is evaluated once and shared across calls; "
        "default to None and create inside the function"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = "<lambda>" if isinstance(node, ast.Lambda) else node.name
            defaults = [*node.args.defaults, *node.args.kw_defaults]
            for default in defaults:
                if default is None:
                    continue
                if self._is_mutable(default):
                    yield module.finding(
                        self.rule_id,
                        default,
                        f"function {name!r} has a mutable default argument; "
                        "use None and create the container inside the function",
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in {"list", "dict", "set", "bytearray"}
        return False


class BareExcept(Rule):
    """AH002: no bare ``except:`` clauses."""

    rule_id: ClassVar[str] = "AH002"
    summary: ClassVar[str] = (
        "bare except swallows KeyboardInterrupt/SystemExit; name the exception "
        "(the repo's own failures derive from ReproError)"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield module.finding(
                    self.rule_id,
                    node,
                    "bare except: catches KeyboardInterrupt and SystemExit; "
                    "name a concrete exception type",
                )


class AllDrift(Rule):
    """AH003: ``__all__`` must match the bound public names in ``__init__``."""

    rule_id: ClassVar[str] = "AH003"
    summary: ClassVar[str] = (
        "__all__ in a package __init__ omits a bound public name (or lists an "
        "unbound one); keep the exported API and __all__ in sync"
    )

    def applies_to(self, path: Path) -> bool:
        return path.name == "__init__.py"

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        exported: set[str] | None = None
        all_node: ast.AST | None = None
        bound: set[str] = set()
        for statement in module.tree.body:
            if isinstance(statement, ast.ImportFrom):
                if statement.module == "__future__":
                    continue
                for alias in statement.names:
                    bound.add(alias.asname or alias.name)
            elif isinstance(statement, ast.Import):
                for alias in statement.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(statement.name)
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        if target.id == "__all__":
                            exported = self._literal_names(statement.value)
                            all_node = statement
                        else:
                            bound.add(target.id)
            elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                bound.add(statement.target.id)
        if exported is None or all_node is None:
            return
        public = {name for name in bound if not name.startswith("_")}
        for name in sorted(public - exported):
            yield module.finding(
                self.rule_id,
                all_node,
                f"public name {name!r} is bound in this package __init__ but "
                "missing from __all__",
            )
        for name in sorted(exported - bound):
            yield module.finding(
                self.rule_id,
                all_node,
                f"__all__ lists {name!r} but the name is not bound at module level",
            )

    @staticmethod
    def _literal_names(node: ast.expr) -> set[str]:
        names: set[str] = set()
        if isinstance(node, (ast.List, ast.Tuple)):
            for element in node.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    names.add(element.value)
        return names
