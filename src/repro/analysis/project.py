"""Project symbol table: the whole-program layer under the lint pack.

Where the per-file rules (:mod:`repro.analysis.core`) see one module's
syntax, :class:`ProjectIndex` parses *every* module of a package tree and
resolves names across them: imports (including aliased and relative
imports, chased through re-exports), classes with their MRO, methods,
nested functions and lambdas, and the declared types of parameters,
attributes, and return values.  The interprocedural analyses — the
RC race detector (:mod:`repro.analysis.races`) and the transitive
pickle-safety verdicts (:mod:`repro.analysis.pickling`) — are all
queries against this index plus the per-function summaries of
:mod:`repro.analysis.callgraph`.

The index is *syntactic and annotation-driven*: no code is imported or
executed.  That makes it safe to run on anything and honest about its
imprecision: resolution uses the type annotations the ``mypy --strict``
gate already enforces, so an unannotated callee is an unresolved edge,
not a guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "build_index",
]


@dataclass
class ModuleInfo:
    """One parsed module of the project."""

    name: str
    path: str
    source: str
    tree: ast.Module
    lines: list[str]
    #: Local name -> fully qualified imported target.
    imports: dict[str, str] = field(default_factory=dict)
    #: Names bound at module level (defs, classes, assignments, imports).
    module_names: set[str] = field(default_factory=set)


@dataclass
class FunctionInfo:
    """One function, method, nested function, or lambda."""

    qualname: str
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    #: Qualified name of the enclosing class for methods, else None.
    class_name: str | None = None
    #: Qualified name of the enclosing function for nested defs/lambdas.
    parent: str | None = None

    @property
    def name(self) -> str:
        node = self.node
        return "<lambda>" if isinstance(node, ast.Lambda) else node.name

    @property
    def is_method(self) -> bool:
        return self.class_name is not None and self.parent is None


@dataclass
class ClassInfo:
    """One class, with enough structure for MRO and attr-type queries."""

    qualname: str
    module: str
    node: ast.ClassDef
    #: Base expressions as dotted text, unresolved (resolution happens
    #: against the index, where forward references are visible).
    base_names: list[str] = field(default_factory=list)
    #: Method name -> function qualname, for methods defined in the body.
    methods: dict[str, str] = field(default_factory=dict)
    #: Attribute name -> dotted annotation text (class-level annotations
    #: and ``self.x: T`` / ``self.x = param`` assignments in ``__init__``).
    attr_annotations: dict[str, str] = field(default_factory=dict)
    #: True when the class is defined inside a function body.
    nested_in_function: bool = False


def _annotation_text(node: ast.expr | None) -> str | None:
    """Dotted text of an annotation, unwrapping quotes, Optional, and unions.

    Returns the first non-``None`` component of a union — enough for the
    repo idiom (``FailureInjector | None``); multi-class unions resolve to
    their first member, a documented imprecision.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_text(node.left) or _annotation_text(node.right)
    if isinstance(node, ast.Subscript):
        base = _annotation_text(node.value)
        if base is not None and base.split(".")[-1] == "Optional":
            return _annotation_text(node.slice)
        return base
    if isinstance(node, ast.Constant) and node.value is None:
        return None
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


class _ModuleCollector(ast.NodeVisitor):
    """Single pass over one module filling the index tables."""

    def __init__(self, index: ProjectIndex, module: ModuleInfo) -> None:
        self.index = index
        self.module = module
        self._class_stack: list[ClassInfo] = []
        self._function_stack: list[str] = []
        self._lambda_counter = 0

    # -- scope bookkeeping --------------------------------------------------

    def _qualify(self, name: str) -> str:
        if self._function_stack:
            return f"{self._function_stack[-1]}.<locals>.{name}"
        if self._class_stack:
            return f"{self._class_stack[-1].qualname}.{name}"
        return f"{self.module.name}.{name}"

    def _record_module_name(self, name: str) -> None:
        if not self._function_stack and not self._class_stack:
            self.module.module_names.add(name)

    # -- imports ------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.module.imports.setdefault(local, target)
            self._record_module_name(local)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            parts = self.module.name.split(".")
            # Relative to the containing package: a module drops its own
            # name, then one more component per extra level.
            package = parts[: len(parts) - node.level]
            base = ".".join(package + ([node.module] if node.module else []))
        else:
            base = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            target = f"{base}.{alias.name}" if base else alias.name
            self.module.imports.setdefault(local, target)
            self._record_module_name(local)

    # -- definitions ---------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = self._qualify(node.name)
        info = ClassInfo(
            qualname=qualname,
            module=self.module.name,
            node=node,
            base_names=[
                text
                for base in node.bases
                if (text := _annotation_text(base)) is not None
            ],
            nested_in_function=bool(self._function_stack),
        )
        self._record_module_name(node.name)
        self.index.classes[qualname] = info
        self._class_stack.append(info)
        saved_functions, self._function_stack = self._function_stack, []
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                annotation = _annotation_text(statement.annotation)
                if annotation is not None:
                    info.attr_annotations.setdefault(statement.target.id, annotation)
            self.visit(statement)
        self._function_stack = saved_functions
        self._class_stack.pop()

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda, name: str
    ) -> None:
        qualname = self._qualify(name)
        in_class = bool(self._class_stack) and not self._function_stack
        info = FunctionInfo(
            qualname=qualname,
            module=self.module.name,
            node=node,
            class_name=self._class_stack[-1].qualname if self._class_stack else None,
            parent=self._function_stack[-1] if self._function_stack else None,
        )
        self.index.functions[qualname] = info
        if in_class:
            self._class_stack[-1].methods[name] = qualname
            if name == "__init__" and isinstance(node, ast.FunctionDef):
                self._collect_init_attrs(self._class_stack[-1], node)
        self._record_module_name(name)
        self._function_stack.append(qualname)
        body = node.body if isinstance(node.body, list) else [node.body]
        for statement in body:
            self.visit(statement)
        self._function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._lambda_counter += 1
        self._visit_function(node, f"<lambda-{node.lineno}-{self._lambda_counter}>")

    def _collect_init_attrs(self, info: ClassInfo, node: ast.FunctionDef) -> None:
        """``self.x: T`` and ``self.x = <annotated param>`` give attr types."""
        param_types: dict[str, str] = {}
        for arg in node.args.args + node.args.kwonlyargs:
            annotation = _annotation_text(arg.annotation)
            if annotation is not None:
                param_types[arg.arg] = annotation
        for statement in ast.walk(node):
            target: ast.expr | None = None
            value: ast.expr | None = None
            annotation_text: str | None = None
            if isinstance(statement, ast.AnnAssign):
                target, value = statement.target, statement.value
                annotation_text = _annotation_text(statement.annotation)
            elif isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target, value = statement.targets[0], statement.value
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                attr = target.attr
                if annotation_text is not None:
                    info.attr_annotations.setdefault(attr, annotation_text)
                elif isinstance(value, ast.Name) and value.id in param_types:
                    info.attr_annotations.setdefault(attr, param_types[value.id])
                elif isinstance(value, ast.Call) and (
                    constructor := _annotation_text(value.func)
                ):
                    info.attr_annotations.setdefault(attr, constructor)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._record_module_name(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            self._record_module_name(node.target.id)
        self.generic_visit(node)


@dataclass
class ProjectIndex:
    """Symbol table over a set of modules; see the module docstring."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "ProjectIndex":
        """Build an index from in-memory ``{dotted module name: source}``."""
        index = cls()
        for name in sorted(sources):
            source = sources[name]
            path = name.replace(".", "/") + ".py"
            index._add_module(name, path, source)
        return index

    @classmethod
    def from_files(cls, files: dict[str, Path]) -> "ProjectIndex":
        """Build an index from ``{dotted module name: file path}``."""
        index = cls()
        for name in sorted(files):
            path = files[name]
            index._add_module(name, str(path), path.read_text(encoding="utf-8"))
        return index

    def _add_module(self, name: str, path: str, source: str) -> None:
        tree = ast.parse(source, filename=path)
        module = ModuleInfo(
            name=name, path=path, source=source, tree=tree, lines=source.splitlines()
        )
        self.modules[name] = module
        _ModuleCollector(self, module).visit(tree)

    # -- name resolution -----------------------------------------------------

    def resolve(self, module: str, dotted: str) -> str | None:
        """Resolve ``dotted`` as used in ``module`` to a project symbol.

        Returns the qualified name of a function, class, or module of the
        index, chasing import aliases and re-export chains; ``None`` for
        anything external or dynamic.
        """
        return self._resolve(module, dotted, seen=set())

    def _resolve(self, module: str, dotted: str, seen: set[tuple[str, str]]) -> str | None:
        if (module, dotted) in seen:
            return None
        seen.add((module, dotted))
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in info.imports:
            target = info.imports[head] + (f".{rest}" if rest else "")
        elif head in info.module_names:
            target = f"{module}.{dotted}"
        else:
            return None
        return self._canonicalize(target, seen)

    def _canonicalize(self, target: str, seen: set[tuple[str, str]]) -> str | None:
        if target in self.functions or target in self.classes or target in self.modules:
            return target
        # ``pkg.mod.name``: find the longest module prefix and resolve the
        # remainder inside it (covers re-exports through ``__init__``).
        parts = target.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                remainder = ".".join(parts[cut:])
                return self._resolve(prefix, remainder, seen)
        return None

    # -- class queries -------------------------------------------------------

    def resolve_base(self, info: ClassInfo, base_text: str) -> str | None:
        resolved = self.resolve(info.module, base_text)
        return resolved if resolved in self.classes else None

    def mro(self, class_qualname: str) -> list[ClassInfo]:
        """Project-visible linearization: the class, then bases, DFS order."""
        ordered: list[ClassInfo] = []
        visited: set[str] = set()

        def walk(qualname: str) -> None:
            if qualname in visited or qualname not in self.classes:
                return
            visited.add(qualname)
            info = self.classes[qualname]
            ordered.append(info)
            for base_text in info.base_names:
                base = self.resolve_base(info, base_text)
                if base is not None:
                    walk(base)

        walk(class_qualname)
        return ordered

    def is_subclass_of(self, class_qualname: str, base_qualname: str) -> bool:
        return any(info.qualname == base_qualname for info in self.mro(class_qualname))

    def subclasses_of(self, base_qualname: str) -> list[ClassInfo]:
        """Every project class whose MRO reaches ``base_qualname``."""
        return [
            info
            for qualname, info in sorted(self.classes.items())
            if qualname != base_qualname and self.is_subclass_of(qualname, base_qualname)
        ]

    def find_method(
        self, class_qualname: str, method: str, *, skip_self: bool = False
    ) -> FunctionInfo | None:
        """Resolve ``method`` along the project MRO of ``class_qualname``."""
        for info in self.mro(class_qualname)[1 if skip_self else 0 :]:
            qualname = info.methods.get(method)
            if qualname is not None:
                return self.functions.get(qualname)
        return None

    def method_implementations(
        self, class_qualname: str, method: str
    ) -> list[FunctionInfo]:
        """The MRO resolution plus every project subclass override.

        The receiver's *declared* type rarely tells the whole story — a
        parameter annotated with the base class may carry any subclass at
        runtime — so call edges through a declared type conservatively
        fan out to the overrides as well.
        """
        found: dict[str, FunctionInfo] = {}
        primary = self.find_method(class_qualname, method)
        if primary is not None:
            found[primary.qualname] = primary
        for sub in self.subclasses_of(class_qualname):
            qualname = sub.methods.get(method)
            if qualname is not None and qualname in self.functions:
                found[qualname] = self.functions[qualname]
        return [found[name] for name in sorted(found)]

    def attr_type(self, class_qualname: str, attr: str) -> str | None:
        """Resolved project class of ``<class>.<attr>``, when annotated."""
        for info in self.mro(class_qualname):
            text = info.attr_annotations.get(attr)
            if text is not None:
                resolved = self.resolve(info.module, text)
                return resolved if resolved in self.classes else None
        return None


# ---------------------------------------------------------------------------
# Building from a source tree
# ---------------------------------------------------------------------------


def _module_name(path: Path) -> str:
    """Dotted module name: walk up while the parent is a package."""
    parts = [path.stem] if path.stem != "__init__" else []
    current = path.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        current = current.parent
    if not parts:  # a bare __init__.py with no package parent
        parts = [path.stem]
    return ".".join(reversed(parts))


def discover_modules(paths: list[Path]) -> dict[str, Path]:
    """Map dotted module names to files for every ``.py`` under ``paths``."""
    files: dict[str, Path] = {}
    for path in paths:
        candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for candidate in candidates:
            if candidate.suffix == ".py":
                files.setdefault(_module_name(candidate), candidate)
    return files


def build_index(paths: list[Path]) -> ProjectIndex:
    """Build the :class:`ProjectIndex` for every module under ``paths``."""
    return ProjectIndex.from_files(discover_modules(paths))
