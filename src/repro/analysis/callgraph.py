"""Per-function summaries and the resolved project call graph.

For every function in a :class:`~repro.analysis.project.ProjectIndex`
(methods, nested functions, and lambdas included) this module builds one
:class:`FunctionSummary`: the function's writes (attribute stores,
subscript stores, mutating container calls, shared-RNG draws), its
resolved outgoing call edges with argument-to-root bindings, the thread
or process pools it spawns work on, and the alias structure connecting
local names back to parameters, closure cells, and call results.

Resolution is *annotation-driven* (the ``mypy --strict`` gate guarantees
annotations exist): a method call ``x.m(...)`` resolves through the
declared type of ``x`` — parameter annotation, constructor assignment,
``self`` attribute annotation, or a callee's return annotation — and
conservatively fans out to every project subclass override of ``m``.
``super().m(...)`` resolves along the enclosing class's project MRO.
What cannot be resolved (higher-order calls through function-valued
parameters, external libraries) becomes no edge at all; the race
detector documents that as its known imprecision rather than guessing.

Lock awareness: writes lexically inside a ``with`` whose context
expression names a lock (its last attribute component contains
``"lock"``, e.g. ``with self._lock:``) are marked *guarded* — the
ordering-safe idiom the RC rules skip.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.project import (
    FunctionInfo,
    ProjectIndex,
    _annotation_text,
)

__all__ = [
    "CallEdge",
    "FunctionSummary",
    "SpawnSite",
    "WriteSite",
    "build_summaries",
    "bind_arguments",
]

#: Container methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {"append", "extend", "add", "update", "insert", "remove", "discard",
     "clear", "pop", "popitem", "setdefault", "sort", "reverse"}
)

#: Methods that advance hidden RNG state — a draw from a shared generator
#: is a write for ordering purposes (``random.Random`` and
#: ``numpy.random.Generator`` vocabulary).
RNG_METHODS = frozenset(
    {"random", "randint", "randrange", "randbytes", "getrandbits", "shuffle",
     "choice", "choices", "sample", "uniform", "normal", "standard_normal",
     "integers", "normalvariate", "gauss", "bytes", "permutation", "permuted"}
)

#: Constructor names whose instances run callables concurrently.
_EXECUTOR_TYPES = frozenset({"ThreadPoolExecutor", "ProcessPoolExecutor", "Pool"})

#: Executor methods whose first argument is executed on pool workers.
_SPAWN_METHODS = frozenset({"map", "submit", "apply_async", "imap", "starmap"})


@dataclass(frozen=True)
class WriteSite:
    """One mutation, recorded against the *base name* written through.

    ``root`` is the unresolved local name at the bottom of the attribute
    or subscript chain (``"self"`` for ``self.store[k] = v``), or ``""``
    for a ``global``-declared rebind.  The race detector resolves roots
    through the summary's alias graph and the taint state.
    """

    root: str
    detail: str
    line: int
    col: int
    kind: str  # "assign" | "mutator" | "rng" | "del" | "global" | "nonlocal"
    guarded: bool


@dataclass(frozen=True)
class SpawnSite:
    """A callable handed to a thread/process pool (``.map``/``.submit``)."""

    callee: str | None  # function qualname when resolved
    text: str
    line: int


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site."""

    callees: tuple[str, ...]  # function qualnames (fan-out over overrides)
    line: int
    col: int
    #: Roots of the receiver expression for method calls, () otherwise.
    receiver_roots: tuple[str, ...]
    pos_roots: tuple[tuple[str, ...], ...]
    kw_roots: tuple[tuple[str, tuple[str, ...]], ...]
    #: Local name the result is assigned to, when directly assigned.
    assigned_to: str | None
    #: Class qualname when this is ``Cls(...)`` (callees = its __init__).
    constructs: str | None
    guarded: bool


@dataclass
class FunctionSummary:
    """Everything the interprocedural analyses need about one function."""

    qualname: str
    module: str
    params: list[str] = field(default_factory=list)
    #: Names bound anywhere in the function (params included).
    bound: set[str] = field(default_factory=set)
    #: Free names: read/written here, bound in an enclosing function.
    frees: set[str] = field(default_factory=set)
    global_decls: set[str] = field(default_factory=set)
    nonlocal_decls: set[str] = field(default_factory=set)
    writes: list[WriteSite] = field(default_factory=list)
    calls: list[CallEdge] = field(default_factory=list)
    spawns: list[SpawnSite] = field(default_factory=list)
    #: Local name -> names/tokens it may alias (``<ret:i>`` = call i's result).
    aliases: dict[str, set[str]] = field(default_factory=dict)
    #: Param/free names (or "self") returned directly by a return statement.
    returns: set[str] = field(default_factory=set)
    #: True when a return statement hands back a module-level binding —
    #: the returned object is process-global shared state.
    returns_global: bool = False
    #: Declared return type, resolved to a project class when possible.
    return_type: str | None = None

    def resolve_roots(self, name: str) -> set[str]:
        """Terminal roots of ``name`` through the alias graph."""
        seen: set[str] = set()
        terminal: set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            targets = self.aliases.get(current)
            if not targets:
                terminal.add(current)
                continue
            stack.extend(targets)
        return terminal


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _base_name(node: ast.expr) -> str | None:
    """The Name at the bottom of an attribute/subscript chain."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    return current.id if isinstance(current, ast.Name) else None


def _attr_chain(node: ast.expr) -> list[str] | None:
    """``self.engine.base`` -> ["engine", "base"]; None off a non-Name base."""
    attrs: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        attrs.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    return list(reversed(attrs))


def _contains_executor_constructor(node: ast.expr) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            name = _dotted(child.func)
            if name is not None and name.split(".")[-1] in _EXECUTOR_TYPES:
                return True
    return False


def _is_lock_context(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    text = _dotted(target)
    return text is not None and "lock" in text.split(".")[-1].lower()


class _SummaryBuilder(ast.NodeVisitor):
    """One pass over a single function body (nested bodies excluded)."""

    def __init__(
        self,
        index: ProjectIndex,
        info: FunctionInfo,
        summary: FunctionSummary,
        nested: dict[str, str],
        lambda_names: dict[tuple[str, int, int], str],
        executor_env: set[str],
        enclosing_bound: set[str],
    ) -> None:
        self.index = index
        self.info = info
        self.summary = summary
        self.nested = nested  # local def/lambda name -> qualname
        self.lambda_names = lambda_names  # (module, line, col) -> qualname
        self.executor_names = set(executor_env)
        self.enclosing_bound = enclosing_bound
        self.guard_depth = 0
        self.loads: set[str] = set()
        module = index.modules[info.module]
        self.module_names = module.module_names
        self.imports = module.imports
        # Parameter annotations seed the local type environment — this is
        # what lets `injector.resolve(...)` resolve through the declared
        # FailureInjector type three modules away.
        self.local_types: dict[str, str] = {}
        if not isinstance(info.node, ast.Lambda):
            arguments = info.node.args
            for arg in (
                list(arguments.posonlyargs)
                + list(arguments.args)
                + list(arguments.kwonlyargs)
            ):
                annotation = _annotation_text(arg.annotation)
                if annotation is None:
                    continue
                resolved = index.resolve(info.module, annotation)
                if resolved in index.classes:
                    self.local_types[arg.arg] = resolved

    # -- helpers -------------------------------------------------------------

    def _roots(self, node: ast.expr) -> tuple[str, ...]:
        """Root names an expression's value may share structure with."""
        if isinstance(node, ast.Name):
            return (node.id,)
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            base = _base_name(node)
            return (base,) if base is not None else ()
        if isinstance(node, ast.Starred):
            return self._roots(node.value)
        if isinstance(node, ast.IfExp):
            return self._roots(node.body) + self._roots(node.orelse)
        return ()

    def _add_write(self, node: ast.expr, stmt: ast.AST, kind: str) -> None:
        base = _base_name(node)
        if base is None:
            return
        detail = _dotted(node if not isinstance(node, ast.Subscript) else node.value)
        self.summary.writes.append(
            WriteSite(
                root=base,
                detail=detail or base,
                line=getattr(stmt, "lineno", 0),
                col=getattr(stmt, "col_offset", 0) + 1,
                kind=kind,
                guarded=self.guard_depth > 0,
            )
        )

    def _bind(self, name: str, value: ast.expr | None, call_tokens: list[str]) -> None:
        self.summary.bound.add(name)
        edges = self.summary.aliases.setdefault(name, set())
        edges.update(call_tokens)
        if value is not None:
            edges.update(self._roots(value))
        if value is not None and _contains_executor_constructor(value):
            self.executor_names.add(name)

    def _class_of_expr(self, node: ast.expr) -> str | None:
        """Project class of an expression, via annotations."""
        if isinstance(node, ast.Name):
            if node.id == "self" and self.info.class_name is not None:
                return self.info.class_name
            declared = self.local_types.get(node.id)
            if declared is not None:
                return declared
            resolved = self.index.resolve(self.info.module, node.id)
            return resolved if resolved in self.index.classes else None
        if isinstance(node, ast.Attribute):
            chain = _attr_chain(node)
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if chain is None or not isinstance(base, ast.Name):
                return None
            current = self._class_of_expr(base)
            for attr in chain:
                if current is None:
                    return None
                current = self.index.attr_type(current, attr)
            return current
        if isinstance(node, ast.Call):
            constructed = self._resolve_class(node.func)
            if constructed is not None:
                return constructed
        return None

    def _resolve_class(self, func: ast.expr) -> str | None:
        text = _dotted(func)
        if text is None:
            return None
        resolved = self.index.resolve(self.info.module, text)
        return resolved if resolved in self.index.classes else None

    def _resolve_callable(self, func: ast.expr) -> tuple[str | None, str]:
        """Resolve a callable expression to a function qualname + its text."""
        if isinstance(func, ast.Lambda):
            key = (self.info.module, func.lineno, func.col_offset)
            return self.lambda_names.get(key), "<lambda>"
        text = _dotted(func) or "<dynamic>"
        if isinstance(func, ast.Name):
            if func.id in self.nested:
                return self.nested[func.id], text
            resolved = self.index.resolve(self.info.module, func.id)
            if resolved in self.index.functions:
                return resolved, text
            return None, text
        if isinstance(func, ast.Attribute):
            receiver_class = self._class_of_expr(func.value)
            if receiver_class is not None:
                method = self.index.find_method(receiver_class, func.attr)
                if method is not None:
                    return method.qualname, text
            resolved = self.index.resolve(self.info.module, text) if text else None
            if resolved in self.index.functions:
                return resolved, text
        return None, text

    # -- statements ----------------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.summary.global_decls.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.summary.nonlocal_decls.update(node.names)

    def _assign_value_tokens(self, value: ast.expr, target_name: str | None) -> list[str]:
        """Visit an assignment's value; return alias tokens for call arms.

        Handles the ``x = f(...) if cond else other`` idiom: every call
        arm becomes an edge whose result is assigned to ``target_name``,
        so return-type and return-taint tracking survive the IfExp.
        """
        if isinstance(value, ast.Call):
            return [self._visit_call(value, assigned_to=target_name)]
        if isinstance(value, ast.IfExp):
            self.visit(value.test)
            tokens: list[str] = []
            for arm in (value.body, value.orelse):
                tokens.extend(self._assign_value_tokens(arm, target_name))
            return tokens
        self.visit(value)
        return []

    def _handle_store_target(self, target: ast.expr, stmt: ast.AST, value: ast.expr | None, call_tokens: list[str]) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.summary.global_decls:
                self.summary.writes.append(
                    WriteSite(
                        root="",
                        detail=target.id,
                        line=getattr(stmt, "lineno", 0),
                        col=getattr(stmt, "col_offset", 0) + 1,
                        kind="global",
                        guarded=self.guard_depth > 0,
                    )
                )
            elif target.id in self.summary.nonlocal_decls:
                self.summary.writes.append(
                    WriteSite(
                        root=target.id,
                        detail=target.id,
                        line=getattr(stmt, "lineno", 0),
                        col=getattr(stmt, "col_offset", 0) + 1,
                        kind="nonlocal",
                        guarded=self.guard_depth > 0,
                    )
                )
            else:
                self._bind(target.id, value, call_tokens)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._add_write(target, stmt, "assign")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._handle_store_target(element, stmt, None, call_tokens)
        elif isinstance(target, ast.Starred):
            self._handle_store_target(target.value, stmt, value, call_tokens)

    def visit_Assign(self, node: ast.Assign) -> None:
        call_tokens = self._assign_value_tokens(
            node.value, self._single_name(node.targets)
        )
        for target in node.targets:
            self._handle_store_target(target, node, node.value, call_tokens)
        if (name := self._single_name(node.targets)) is not None:
            inferred = self._class_of_expr(node.value)
            if inferred is not None:
                self.local_types[name] = inferred

    @staticmethod
    def _single_name(targets: list[ast.expr]) -> str | None:
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            return targets[0].id
        return None

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        call_tokens: list[str] = []
        if node.value is not None:
            target_name = node.target.id if isinstance(node.target, ast.Name) else None
            call_tokens = self._assign_value_tokens(node.value, target_name)
        self._handle_store_target(node.target, node, node.value, call_tokens)
        if isinstance(node.target, ast.Name):
            annotation = _annotation_text(node.annotation)
            if annotation is not None:
                resolved = self.index.resolve(self.info.module, annotation)
                if resolved in self.index.classes:
                    self.local_types[node.target.id] = resolved

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        self._handle_store_target(node.target, node, None, [])

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                self._add_write(target, node, "del")

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        # Elements of a shared container are shared: the loop target
        # aliases the iterable's roots.
        if isinstance(node.target, ast.Name):
            self._bind(node.target.id, node.iter, [])
        else:
            self._handle_store_target(node.target, node, node.iter, [])
        for statement in node.body + node.orelse:
            self.visit(statement)

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        locked = False
        for item in node.items:
            if isinstance(item.context_expr, ast.Call):
                self._visit_call(item.context_expr, assigned_to=None)
            else:
                self.visit(item.context_expr)
            if _is_lock_context(item.context_expr):
                locked = True
            if item.optional_vars is not None:
                self._handle_store_target(
                    item.optional_vars, node, item.context_expr, []
                )
                if isinstance(item.optional_vars, ast.Name) and (
                    _contains_executor_constructor(item.context_expr)
                ):
                    self.executor_names.add(item.optional_vars.id)
        if locked:
            self.guard_depth += 1
        for statement in node.body:
            self.visit(statement)
        if locked:
            self.guard_depth -= 1

    def visit_Return(self, node: ast.Return) -> None:
        if isinstance(node.value, ast.Name):
            name = node.value.id
            if name in self.summary.bound or name in self.enclosing_bound or name == "self":
                self.summary.returns.add(name)
            elif name in self.module_names:
                self.summary.returns_global = True
        if node.value is not None:
            self.visit(node.value)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name:
            self.summary.bound.add(node.name)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._handle_store_target(node.target, node.iter, node.iter, [])
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._visit_call(node, assigned_to=None)

    def _visit_call(self, node: ast.Call, assigned_to: str | None) -> str | None:
        """Record a call edge; returns the ``<ret:i>`` alias token."""
        for argument in node.args:
            self.visit(argument)
        for keyword in node.keywords:
            self.visit(keyword.value)

        func = node.func
        receiver_roots: tuple[str, ...] = ()
        if isinstance(func, ast.Attribute):
            self.visit(func.value)
            receiver_roots = self._roots(func.value)
            base = _base_name(func.value)
            # Pool spawn: the mapped/submitted callable runs concurrently.
            if (
                base is not None
                and base in self.executor_names
                and func.attr in _SPAWN_METHODS
                and node.args
            ):
                spawned, text = self._resolve_callable(node.args[0])
                self.summary.spawns.append(
                    SpawnSite(callee=spawned, text=text, line=node.lineno)
                )
            # Mutating / RNG method call through a chain: a write on the
            # base — unless the base is an imported module (``np.sort``
            # is a function call on a module, not receiver mutation).
            receiver_is_import = (
                base is not None
                and base in self.imports
                and base not in self.summary.bound
            )
            if func.attr in MUTATOR_METHODS and not receiver_is_import:
                self._add_write(func.value, node, "mutator")
            elif (
                func.attr in RNG_METHODS
                and not receiver_is_import
                and isinstance(func.value, (ast.Attribute, ast.Name))
            ):
                self._add_write(func.value, node, "rng")
        elif isinstance(func, ast.Name):
            self.loads.add(func.id)

        callees: tuple[str, ...] = ()
        constructs: str | None = None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and self.info.class_name is not None
        ):
            target = self.index.find_method(
                self.info.class_name, func.attr, skip_self=True
            )
            if target is not None:
                callees = (target.qualname,)
            receiver_roots = ("self",)
        elif isinstance(func, ast.Attribute):
            receiver_class = self._class_of_expr(func.value)
            if receiver_class is not None:
                callees = tuple(
                    impl.qualname
                    for impl in self.index.method_implementations(
                        receiver_class, func.attr
                    )
                )
            else:
                resolved, _ = self._resolve_callable(func)
                if resolved is not None:
                    callees = (resolved,)
        else:
            constructs = self._resolve_class(func)
            if constructs is not None:
                init = self.index.find_method(constructs, "__init__")
                callees = (init.qualname,) if init is not None else ()
            else:
                resolved, _ = self._resolve_callable(func)
                if resolved is not None:
                    callees = (resolved,)

        edge = CallEdge(
            callees=callees,
            line=node.lineno,
            col=node.col_offset + 1,
            receiver_roots=receiver_roots if constructs is None else (),
            pos_roots=tuple(self._roots(argument) for argument in node.args),
            kw_roots=tuple(
                (keyword.arg, self._roots(keyword.value))
                for keyword in node.keywords
                if keyword.arg is not None
            ),
            assigned_to=assigned_to,
            constructs=constructs,
            guarded=self.guard_depth > 0,
        )
        index = len(self.summary.calls)
        self.summary.calls.append(edge)
        token = f"<ret:{index}>"
        if assigned_to is not None:
            # Return-type annotation gives the assigned local a class.
            for callee in callees:
                callee_info = self.index.functions.get(callee)
                if callee_info is None or isinstance(callee_info.node, ast.Lambda):
                    continue
                annotation = _annotation_text(callee_info.node.returns)
                if annotation is None:
                    continue
                resolved_type = self.index.resolve(callee_info.module, annotation)
                if resolved_type in self.index.classes:
                    self.local_types.setdefault(assigned_to, resolved_type)
                break
        return token

    # -- names and nesting ---------------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.loads.add(node.id)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.summary.bound.add(node.name)  # nested defs are local bindings

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.summary.bound.add(node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass  # its own summary covers the body


def _collect_params(summary: FunctionSummary, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> None:
    args = node.args
    every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    for arg in every:
        summary.params.append(arg.arg)
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            summary.params.append(extra.arg)
    summary.bound.update(summary.params)


def build_summaries(index: ProjectIndex) -> dict[str, FunctionSummary]:
    """One :class:`FunctionSummary` per function of the index."""
    lambda_names = {
        (info.module, info.node.lineno, info.node.col_offset): qualname
        for qualname, info in index.functions.items()
        if isinstance(info.node, ast.Lambda)
    }
    summaries: dict[str, FunctionSummary] = {}
    # Parents sort before their nested functions (qualname prefix order),
    # so a child can inherit its ancestors' executor-typed names and
    # bound-name environment.
    builders: dict[str, _SummaryBuilder] = {}
    for qualname in sorted(index.functions):
        info = index.functions[qualname]
        summary = FunctionSummary(qualname=qualname, module=info.module)
        _collect_params(summary, info.node)
        nested = {
            child.name: child.qualname
            for child in index.functions.values()
            if child.parent == qualname and not isinstance(child.node, ast.Lambda)
        }
        executor_env: set[str] = set()
        enclosing_bound: set[str] = set()
        ancestor = info.parent
        while ancestor is not None:
            parent_builder = builders.get(ancestor)
            if parent_builder is not None:
                executor_env.update(parent_builder.executor_names)
                enclosing_bound.update(parent_builder.summary.bound)
            ancestor_info = index.functions.get(ancestor)
            ancestor = ancestor_info.parent if ancestor_info is not None else None
        builder = _SummaryBuilder(
            index, info, summary, nested, lambda_names, executor_env, enclosing_bound
        )
        node = info.node
        body = node.body if isinstance(node.body, list) else [node.body]
        for statement in body:
            builder.visit(statement)
        summary.frees = {
            name
            for name in (builder.loads | {w.root for w in summary.writes if w.root})
            if name not in summary.bound and name in enclosing_bound
        }
        summary.frees.update(
            name for name in summary.nonlocal_decls if name in enclosing_bound
        )
        return_annotation = (
            None if isinstance(node, ast.Lambda) else _annotation_text(node.returns)
        )
        if return_annotation is not None:
            resolved = index.resolve(info.module, return_annotation)
            if resolved in index.classes:
                summary.return_type = resolved
        builders[qualname] = builder
        summaries[qualname] = summary
    return summaries


def bind_arguments(
    callee: FunctionInfo,
    edge: CallEdge,
    *,
    method_style: bool,
) -> dict[str, tuple[str, ...]]:
    """Map an edge's argument roots onto the callee's parameter names.

    ``method_style`` shifts positional binding past ``self`` for calls
    made through a receiver (``x.m(a)`` binds ``a`` to ``m``'s second
    parameter); the receiver's own roots are bound to the first.
    """
    node = callee.node
    args = node.args
    names = [a.arg for a in list(args.posonlyargs) + list(args.args)]
    bound: dict[str, tuple[str, ...]] = {}
    offset = 0
    if method_style and names:
        bound[names[0]] = edge.receiver_roots
        offset = 1
    for position, roots in enumerate(edge.pos_roots):
        slot = position + offset
        if slot < len(names):
            bound[names[slot]] = roots
        elif args.vararg is not None:
            existing = bound.get(args.vararg.arg, ())
            bound[args.vararg.arg] = existing + roots
    keyword_names = set(names) | {a.arg for a in args.kwonlyargs}
    for name, roots in edge.kw_roots:
        if name in keyword_names:
            bound[name] = roots
        elif args.kwarg is not None:
            existing = bound.get(args.kwarg.arg, ())
            bound[args.kwarg.arg] = existing + roots
    return bound
