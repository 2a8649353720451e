"""Transitive pickle-safety verdicts for MapReduce job classes.

``MapReduceJob.process_safe`` is a *claim*: the process-pool runtime
trusts it to decide whether a job may be shipped to worker processes.
This module *proves or refutes* it from the project call graph — the
analyzer's only process-safety check.  Tasks share no memory (each runs
sequentially in the driver or in its own worker process), so the bug
class left is a task write that a worker process loses:

* **Driver-state evidence** — a task method, or anything it reaches
  along resolved call edges, writes through the job instance (``self``
  taint, propagated through receivers, argument bindings and returns)
  or writes module-global state (a ``global`` rebind, or a mutation
  whose receiver resolves to a module-level binding).  In a worker
  process the write lands in a copy and is lost, so the job cannot be
  process-safe even if every attribute pickles.  An RNG draw through
  ``self`` counts: it advances generator state the driver never sees.
* **Capture evidence** — the constructor stores something that cannot
  cross a process boundary: a lambda, a lock/executor/file-handle
  factory, a class defined inside a function, or (recursively) an
  attribute whose annotated project class has such evidence.
* **Shared-store evidence** — the constructor stores a parameter with
  the same attribute name that a sibling job class in the same module
  mutates from task code.  The two jobs communicate through one
  driver-held object (the layered DP's ``row_store`` pattern), so the
  reader is driver-state even though it never writes.

The verdict is compared against the declared ``process_safe`` flag:

* **PS003** — declared process-safe, but evidence says otherwise.  Not
  suppressible in spirit: fix the job (or its declaration).
* **PS004** — declared driver-state, but no evidence found.  Either the
  declaration is stale or the analysis is missing a pattern; the
  finding says which job to look at.

Known imprecision (see ``docs/STATIC_ANALYSIS.md``): calls through
function-valued parameters produce no edge, and taint is
path-insensitive (a name tainted anywhere in a function is tainted
everywhere in it).

``tests/test_job_process_safety.py`` pins these verdicts to the runtime
pickling meta-test, so the static and dynamic notions of process safety
cannot drift apart.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field

from repro.analysis.callgraph import (
    CallEdge,
    FunctionSummary,
    WriteSite,
    bind_arguments,
    build_summaries,
)
from repro.analysis.core import Finding
from repro.analysis.project import ClassInfo, ProjectIndex, _annotation_text

__all__ = [
    "PICKLE_RULES",
    "PickleVerdict",
    "job_pickle_verdicts",
    "pickle_findings",
]

PICKLE_RULES = {
    "PS003": (
        "job is declared process_safe but the call graph shows a task write "
        "a worker process would lose (driver-held or module-global state) or "
        "an unpicklable capture"
    ),
    "PS004": (
        "job is declared driver-state (process_safe = False) but the call "
        "graph shows no evidence; the declaration may be stale"
    ),
}

#: Constructor factories whose product cannot cross a process boundary.
_UNPICKLABLE_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore",
     "ThreadPoolExecutor", "ProcessPoolExecutor", "open"}
)

_ATTR_RECURSION_DEPTH = 3

#: Methods of a job subclass that execute as tasks.
_TASK_METHODS = ("map", "combine", "reduce", "reduce_partition")

_JOB_BASE_NAME = "MapReduceJob"

#: How deep return-taint resolution chases ``x = f(...)`` chains.
_RETURN_DEPTH = 5


@dataclass
class PickleVerdict:
    """The analyzer's answer for one concrete job class."""

    class_qualname: str
    declared: bool
    evidence: list[str] = field(default_factory=list)

    @property
    def process_safe(self) -> bool:
        return not self.evidence


def _declared_process_safe(index: ProjectIndex, class_qualname: str) -> bool:
    """The ``process_safe`` class attribute along the project MRO."""
    for info in index.mro(class_qualname):
        for statement in info.node.body:
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target, value = statement.targets[0], statement.value
            elif isinstance(statement, ast.AnnAssign):
                target, value = statement.target, statement.value
            if (
                isinstance(target, ast.Name)
                and target.id == "process_safe"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, bool)
            ):
                return value.value
    return True  # MapReduceJob's own default


def _capture_evidence(
    index: ProjectIndex,
    class_qualname: str,
    depth: int = 0,
    seen: set[str] | None = None,
) -> list[str]:
    """Unpicklable things the class (transitively) holds."""
    if seen is None:
        seen = set()
    if class_qualname in seen or depth > _ATTR_RECURSION_DEPTH:
        return []
    seen.add(class_qualname)
    info = index.classes.get(class_qualname)
    if info is None:
        return []
    evidence: list[str] = []
    short = info.node.name
    if info.nested_in_function:
        evidence.append(
            f"{short} is defined inside a function, so worker processes "
            "cannot import it"
        )
    init = index.find_method(class_qualname, "__init__")
    if init is not None and isinstance(init.node, ast.FunctionDef):
        for statement in ast.walk(init.node):
            if not isinstance(statement, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                statement.targets
                if isinstance(statement, ast.Assign)
                else [statement.target]
            )
            value = statement.value
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                if isinstance(value, ast.Lambda):
                    evidence.append(
                        f"{short}.{target.attr} captures a lambda "
                        f"(line {statement.lineno})"
                    )
                elif isinstance(value, ast.Call):
                    factory = _annotation_text(value.func)
                    if (
                        factory is not None
                        and factory.split(".")[-1] in _UNPICKLABLE_FACTORIES
                    ):
                        evidence.append(
                            f"{short}.{target.attr} holds a "
                            f"{factory.split('.')[-1]} (line {statement.lineno})"
                        )
    # Recurse through annotated project-class attributes: holding an
    # unpicklable object two hops away is still holding it.
    for mro_entry in index.mro(class_qualname):
        for attr, annotation in sorted(mro_entry.attr_annotations.items()):
            resolved = index.resolve(mro_entry.module, annotation)
            if resolved is None or resolved not in index.classes:
                continue
            nested = _capture_evidence(index, resolved, depth + 1, seen)
            evidence.extend(
                f"{short}.{attr}: {entry}" for entry in nested
            )
    return evidence


def _job_classes(index: ProjectIndex) -> list[str]:
    """Qualnames of every MapReduce job class visible to the index.

    A class is a job when its project MRO reaches a class named
    ``MapReduceJob``, or when an *unresolved* base's last component is
    ``MapReduceJob`` or ends in ``Job`` (so fixture sources behave like
    the real tree).
    """
    jobs: list[str] = []
    for qualname, info in sorted(index.classes.items()):
        if info.node.name == _JOB_BASE_NAME:
            continue
        mro_names = {entry.node.name for entry in index.mro(qualname)}
        base_tails = {text.split(".")[-1] for text in info.base_names}
        if (
            _JOB_BASE_NAME in mro_names
            or _JOB_BASE_NAME in base_tails
            or any(tail.endswith("Job") for tail in base_tails)
        ):
            jobs.append(qualname)
    return jobs


class _SelfTaint:
    """The ``self``-taint walk from task methods over the call graph.

    A name is *tainted* when it may be bound to the job instance or to an
    object reached through it.  Taint starts at each task method's
    ``self`` and propagates to a callee's parameters whenever a tainted
    root is bound to them (receiver, positional or keyword argument),
    and to a directly-called nested function's free variables.
    """

    def __init__(self, index: ProjectIndex, summaries: dict[str, FunctionSummary]) -> None:
        self.index = index
        self.summaries = summaries

    def _root_tainted(
        self,
        summary: FunctionSummary,
        taint: frozenset[str],
        root: str,
        depth: int = 0,
        visiting: set[tuple[str, str]] | None = None,
    ) -> bool:
        """Whether ``root`` may name an object reached from a tainted name."""
        if depth > _RETURN_DEPTH:
            return False
        if visiting is None:
            visiting = set()
        key = (summary.qualname, root)
        if key in visiting:
            return False
        visiting.add(key)
        for terminal in summary.resolve_roots(root):
            if terminal in taint:
                return True
            if terminal.startswith("<ret:"):
                edge = summary.calls[int(terminal[5:-1])]
                if self._returns_shared(summary, taint, edge, depth, visiting):
                    return True
        return False

    def _returns_shared(
        self,
        summary: FunctionSummary,
        taint: frozenset[str],
        edge: CallEdge,
        depth: int,
        visiting: set[tuple[str, str]],
    ) -> bool:
        """Whether a call's return value may be a tainted or global object."""
        for callee in edge.callees:
            callee_summary = self.summaries.get(callee)
            callee_info = self.index.functions.get(callee)
            if callee_summary is None or callee_info is None:
                continue
            if callee_summary.returns_global:
                return True
            if not callee_summary.returns:
                continue
            method_style = bool(edge.receiver_roots) or edge.constructs is not None
            bound = bind_arguments(callee_info, edge, method_style=method_style)
            for name in callee_summary.returns:
                for root in bound.get(name, ()):
                    if self._root_tainted(summary, taint, root, depth + 1, visiting):
                        return True
        return False

    def reach(self, roots: list[str]) -> dict[str, set[str]]:
        """Every function reachable from ``roots``, with its tainted names.

        A monotone worklist run to fixpoint; each root starts with
        ``self`` tainted.
        """
        taints: dict[str, set[str]] = {}
        queue: deque[str] = deque()
        for root in roots:
            if root in self.summaries and root not in taints:
                taints[root] = {"self"}
                queue.append(root)
        while queue:
            qualname = queue.popleft()
            summary = self.summaries[qualname]
            taint = frozenset(taints[qualname])
            for edge in summary.calls:
                for callee in edge.callees:
                    callee_summary = self.summaries.get(callee)
                    callee_info = self.index.functions.get(callee)
                    if callee_summary is None or callee_info is None:
                        continue
                    method_style = (
                        bool(edge.receiver_roots) or edge.constructs is not None
                    )
                    bound = bind_arguments(callee_info, edge, method_style=method_style)
                    new_taint = {
                        param
                        for param, arg_roots in bound.items()
                        if any(
                            self._root_tainted(summary, taint, root)
                            for root in arg_roots
                        )
                    }
                    if callee_info.parent == qualname:
                        # A directly-called nested function shares the
                        # caller's bindings through its free variables.
                        new_taint.update(
                            free
                            for free in callee_summary.frees
                            if self._root_tainted(summary, taint, free)
                        )
                    current = taints.get(callee)
                    if current is None:
                        taints[callee] = new_taint
                        queue.append(callee)
                    elif new_taint - current:
                        current.update(new_taint)
                        queue.append(callee)
        return taints

    def _writes_module_global(self, summary: FunctionSummary, write: WriteSite) -> bool:
        if write.kind == "global":
            return True
        module = self.index.modules.get(summary.module)
        module_names = module.module_names if module is not None else set()
        for terminal in summary.resolve_roots(write.root):
            if terminal.startswith("<ret:"):
                edge = summary.calls[int(terminal[5:-1])]
                for callee in edge.callees:
                    callee_summary = self.summaries.get(callee)
                    if callee_summary is not None and callee_summary.returns_global:
                        return True
                continue
            if terminal in summary.bound or terminal in summary.frees:
                continue
            if terminal in module_names:
                return True
        return False

    def lost_writes(self, roots: list[str]) -> list[tuple[str, WriteSite, bool]]:
        """Writes reachable from ``roots`` that a worker process would lose.

        Each entry is ``(path, write, through_self)``: ``through_self``
        marks a write through a tainted root, False a module-global one.
        Rebinding a ``nonlocal`` cell stays inside one task invocation,
        so it is not a lost write.
        """
        found: list[tuple[str, WriteSite, bool]] = []
        for qualname, names in sorted(self.reach(roots).items()):
            summary = self.summaries[qualname]
            taint = frozenset(names)
            module = self.index.modules.get(summary.module)
            path = module.path if module is not None else "<unknown>"
            for write in summary.writes:
                if write.kind == "nonlocal":
                    continue
                if write.root and self._root_tainted(summary, taint, write.root):
                    found.append((path, write, True))
                elif self._writes_module_global(summary, write):
                    found.append((path, write, False))
        return found


def _task_write_evidence(
    walk: _SelfTaint, info: ClassInfo
) -> tuple[list[str], set[str]]:
    """Lost writes reachable from this job's own task methods.

    Returns the evidence strings plus the set of ``self`` attribute
    names written (feeds the shared-store pairing).
    """
    roots = [info.methods[method] for method in _TASK_METHODS if method in info.methods]
    evidence: list[str] = []
    written_attrs: set[str] = set()
    for path, write, through_self in walk.lost_writes(roots):
        scope = "driver-held" if through_self else "module-global"
        evidence.append(
            f"task code writes {scope} state `{write.detail}` at {path}:{write.line}"
        )
        if through_self and write.detail.startswith("self."):
            written_attrs.add(write.detail.split(".")[1])
    return evidence, written_attrs


def job_pickle_verdicts(
    index: ProjectIndex,
    summaries: dict[str, FunctionSummary] | None = None,
) -> dict[str, PickleVerdict]:
    """Static verdicts for every concrete job class of the index.

    Concrete means the class overrides ``map`` in its own body — the
    same definition the runtime pickling meta-test uses, so the two
    registries enumerate identical classes.
    """
    if summaries is None:
        summaries = build_summaries(index)
    walk = _SelfTaint(index, summaries)
    concrete = [
        qualname
        for qualname in _job_classes(index)
        if "map" in index.classes[qualname].methods
    ]
    verdicts: dict[str, PickleVerdict] = {}
    written_by_class: dict[str, set[str]] = {}
    for qualname in concrete:
        info = index.classes[qualname]
        verdict = PickleVerdict(
            class_qualname=qualname,
            declared=_declared_process_safe(index, qualname),
        )
        task_evidence, written = _task_write_evidence(walk, info)
        verdict.evidence.extend(task_evidence)
        verdict.evidence.extend(_capture_evidence(index, qualname))
        written_by_class[qualname] = written
        verdicts[qualname] = verdict
    # Shared-store pairing: a job whose ctor stores an attribute that a
    # sibling job in the same module mutates from task code shares that
    # driver-side object — the reader is driver-state too.
    for qualname, verdict in verdicts.items():
        info = index.classes[qualname]
        stored = set(info.attr_annotations)
        for other, written in written_by_class.items():
            if other == qualname or not written:
                continue
            other_info = index.classes[other]
            if other_info.module != info.module:
                continue
            for attr in sorted(stored & written):
                verdict.evidence.append(
                    f"shares driver-side store `{attr}` with "
                    f"{other_info.node.name}, which mutates it from task code"
                )
    return verdicts


def pickle_findings(
    index: ProjectIndex, summaries: dict[str, FunctionSummary] | None = None
) -> list[Finding]:
    """PS003/PS004 findings: declaration vs. evidence mismatches."""
    findings: list[Finding] = []
    for qualname, verdict in sorted(job_pickle_verdicts(index, summaries).items()):
        info = index.classes[qualname]
        module = index.modules[info.module]
        if verdict.declared and verdict.evidence:
            findings.append(
                Finding(
                    rule="PS003",
                    path=module.path,
                    line=info.node.lineno,
                    col=info.node.col_offset + 1,
                    message=(
                        f"{info.node.name} declares process_safe = True but "
                        f"the call graph disagrees: {verdict.evidence[0]}"
                    ),
                )
            )
        elif not verdict.declared and not verdict.evidence:
            findings.append(
                Finding(
                    rule="PS004",
                    path=module.path,
                    line=info.node.lineno,
                    col=info.node.col_offset + 1,
                    message=(
                        f"{info.node.name} declares process_safe = False but "
                        "no driver-state or capture evidence was found; the "
                        "declaration may be stale"
                    ),
                )
            )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
