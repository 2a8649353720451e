"""Interprocedural shared-state race detection: the RC rule family.

The detector walks the project call graph from every *concurrency
root* — code the repo actually runs on more than one worker at once:

* MapReduce task methods (``map``/``combine``/``reduce``/
  ``reduce_partition`` overrides of :class:`MapReduceJob` subclasses).
  The thread-pool runtime executes them concurrently against **one**
  shared job instance, and speculative execution re-runs the same
  callables as backup attempts — so a self-write here is a double-write
  under speculation even on a single worker.
* Callables handed to a thread/process pool (``Executor.map`` /
  ``submit``), e.g. the ``map_task`` closures of
  :class:`~repro.mapreduce.parallel.ThreadPoolRuntime`.

From each root a taint — the set of parameter/closure names bound to
objects shared across concurrent executions — propagates along resolved
call edges (receiver ``self``, argument bindings, direct returns of
``self``/parameters, returns of module globals).  Every function the
walk reaches is then checked:

* **RC001** — a write to module-global state (a ``global`` rebind, or a
  mutation whose receiver resolves to a module-level binding).
* **RC002** — a write to a closure cell shared across concurrent tasks
  (``nonlocal`` rebinds, or mutation through a tainted free variable).
* **RC003** — a write to shared object state: attribute/subscript
  stores, in-place container mutators, and RNG draws (a draw advances
  hidden generator state, so a shared generator makes the draw sequence
  schedule-dependent) through a tainted root.
* **RC004** — a mutable default argument (one shared instance across
  all concurrent calls) on a reachable function.

Writes lexically inside a ``with <...lock>:`` block are *guarded* and
skipped — that is the ordering-safe idiom.  Anything else needs either
a fix or a rule-scoped, justified ``# lint: ignore[RCxxx] -- why`` on
the line (the suppression layer rejects unjustified RC suppressions).

Known imprecision (see ``docs/STATIC_ANALYSIS.md``): calls through
function-valued parameters produce no edge, so task bodies invoked only
through such indirection are covered by seeding every task method as a
root rather than by tracing the handoff; lock guards are lexical, not
interprocedural; taint is path-insensitive (a name tainted anywhere in a
function is tainted everywhere in it).
"""

from __future__ import annotations

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
from repro.analysis.project import ProjectIndex

__all__ = [
    "RACE_RULES",
    "Root",
    "RaceAnalysis",
    "SharedWrite",
    "race_findings",
]

RACE_RULES = {
    "RC001": "module-global state is written from concurrency-reachable code",
    "RC002": "a closure cell shared across concurrent tasks is written",
    "RC003": "object state shared across concurrent tasks is written",
    "RC004": "a mutable default argument is shared across concurrent calls",
}

#: Methods of a job subclass that execute as (potentially concurrent,
#: potentially speculatively re-run) tasks.
TASK_METHODS = ("map", "combine", "reduce", "reduce_partition")

_JOB_BASE_NAME = "MapReduceJob"

#: How deep return-taint resolution chases ``x = f(...)`` chains.
_RETURN_DEPTH = 5


@dataclass(frozen=True)
class Root:
    """One concurrency root: a function plus its initially-shared names."""

    qualname: str
    taint: frozenset[str]
    reason: str


@dataclass(frozen=True)
class SharedWrite:
    """A write to shared state, with the rule it violates and why."""

    function: str
    site: WriteSite
    path: str
    rule: str
    reason: str


@dataclass
class _State:
    """Fixpoint of the taint propagation."""

    taint: dict[str, set[str]] = field(default_factory=dict)
    reachable: set[str] = field(default_factory=set)
    origin: dict[str, Root] = field(default_factory=dict)
    pred: dict[str, str] = field(default_factory=dict)


class RaceAnalysis:
    """Shared-state analysis over a :class:`ProjectIndex`."""

    def __init__(
        self,
        index: ProjectIndex,
        summaries: dict[str, FunctionSummary] | None = None,
    ) -> None:
        self.index = index
        self.summaries = summaries if summaries is not None else build_summaries(index)

    # -- roots ---------------------------------------------------------------

    def job_classes(self) -> list[str]:
        """Qualnames of every MapReduce job class visible to the index.

        A class is a job when its project MRO reaches a class named
        ``MapReduceJob``, or when an *unresolved* base's last component
        is ``MapReduceJob`` or ends in ``Job`` (mirrors the per-file
        heuristic, so fixture sources behave like the real tree).
        """
        jobs: list[str] = []
        for qualname, info in sorted(self.index.classes.items()):
            mro_names = {entry.node.name for entry in self.index.mro(qualname)}
            base_tails = {text.split(".")[-1] for text in info.base_names}
            if info.node.name == _JOB_BASE_NAME:
                continue
            if (
                _JOB_BASE_NAME in mro_names
                or _JOB_BASE_NAME in base_tails
                or any(tail.endswith("Job") for tail in base_tails)
            ):
                jobs.append(qualname)
        return jobs

    def default_roots(self) -> list[Root]:
        roots: list[Root] = []
        for class_qualname in self.job_classes():
            info = self.index.classes[class_qualname]
            for method in TASK_METHODS:
                qualname = info.methods.get(method)
                if qualname is None or qualname not in self.summaries:
                    continue
                roots.append(
                    Root(
                        qualname=qualname,
                        taint=frozenset({"self"}),
                        reason=(
                            f"task method {info.node.name}.{method} runs "
                            "concurrently on the thread-pool runtime and is "
                            "re-run wholesale by speculative backup attempts"
                        ),
                    )
                )
        for qualname in sorted(self.summaries):
            summary = self.summaries[qualname]
            for spawn in summary.spawns:
                if spawn.callee is None or spawn.callee not in self.summaries:
                    continue
                spawned = self.summaries[spawn.callee]
                taint = set(spawned.frees)
                if spawn.text.startswith("self."):
                    taint.add("self")
                module = self.index.modules[summary.module]
                roots.append(
                    Root(
                        qualname=spawn.callee,
                        taint=frozenset(taint),
                        reason=(
                            f"spawned on a worker pool at "
                            f"{module.path}:{spawn.line}"
                        ),
                    )
                )
        return roots

    # -- taint machinery -----------------------------------------------------

    def _root_tainted(
        self,
        summary: FunctionSummary,
        taint: frozenset[str],
        root: str,
        depth: int = 0,
        visiting: set[tuple[str, str]] | None = None,
    ) -> bool:
        """Whether ``root`` may name an object shared under ``taint``."""
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
        """Whether a call's return value may be a shared object."""
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

    def propagate(self, roots: list[Root]) -> _State:
        """Run the monotone taint worklist to fixpoint."""
        state = _State()
        queue: deque[str] = deque()
        for root in roots:
            if root.qualname not in self.summaries:
                continue
            current = state.taint.setdefault(root.qualname, set())
            grew = bool(root.taint - current) or root.qualname not in state.reachable
            current.update(root.taint)
            state.reachable.add(root.qualname)
            state.origin.setdefault(root.qualname, root)
            if grew:
                queue.append(root.qualname)
        while queue:
            qualname = queue.popleft()
            summary = self.summaries[qualname]
            taint = frozenset(state.taint.get(qualname, set()))
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
                    current = state.taint.setdefault(callee, set())
                    grew = bool(new_taint - current) or callee not in state.reachable
                    current.update(new_taint)
                    if callee not in state.reachable:
                        state.reachable.add(callee)
                        state.origin.setdefault(
                            callee, state.origin.get(qualname, _UNKNOWN_ROOT)
                        )
                        state.pred.setdefault(callee, qualname)
                    if grew:
                        queue.append(callee)
        return state

    # -- write classification ------------------------------------------------

    def _writes_module_global(self, summary: FunctionSummary, write: WriteSite) -> bool:
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

    def _classify(
        self, summary: FunctionSummary, taint: frozenset[str], write: WriteSite
    ) -> str | None:
        if write.kind == "global":
            return "RC001"
        if write.kind == "nonlocal":
            return "RC002"
        if write.root and self._root_tainted(summary, taint, write.root):
            return "RC002" if write.root in summary.frees else "RC003"
        if self._writes_module_global(summary, write):
            return "RC001"
        return None

    def shared_writes(
        self, roots: list[Root], *, include_guarded: bool = False
    ) -> list[SharedWrite]:
        """Every shared-state write reachable from ``roots``.

        ``include_guarded`` keeps lock-guarded writes in the result —
        the pickle-safety analysis wants those too (a locked mutation of
        driver-held state still breaks process isolation).
        """
        state = self.propagate(roots)
        found: list[SharedWrite] = []
        for qualname in sorted(state.reachable):
            summary = self.summaries[qualname]
            taint = frozenset(state.taint.get(qualname, set()))
            module = self.index.modules.get(summary.module)
            path = module.path if module is not None else "<unknown>"
            reason = state.origin.get(qualname, _UNKNOWN_ROOT).reason
            for write in summary.writes:
                if write.guarded and not include_guarded:
                    continue
                rule = self._classify(summary, taint, write)
                if rule is not None:
                    found.append(
                        SharedWrite(
                            function=qualname,
                            site=write,
                            path=path,
                            rule=rule,
                            reason=reason,
                        )
                    )
        return found

    # -- findings ------------------------------------------------------------

    def findings(self, roots: list[Root] | None = None) -> list[Finding]:
        """RC001–RC004 findings from the default (or given) roots."""
        resolved_roots = roots if roots is not None else self.default_roots()
        state = self.propagate(resolved_roots)
        findings: list[Finding] = []
        seen: set[tuple[str, int, str]] = set()
        for write in self.shared_writes(resolved_roots):
            key = (write.path, write.site.line, write.rule)
            if key in seen:
                continue
            seen.add(key)
            verb = {
                "mutator": "in-place mutation of",
                "rng": "RNG draw from",
                "del": "deletion through",
            }.get(write.site.kind, "write to")
            scope = {
                "RC001": "module-global",
                "RC002": "closure-shared",
                "RC003": "shared",
            }[write.rule]
            findings.append(
                Finding(
                    rule=write.rule,
                    path=write.path,
                    line=write.site.line,
                    col=write.site.col,
                    message=(
                        f"{verb} {scope} state `{write.site.detail}` in "
                        f"{_short(write.function)} without an ordering-safe "
                        f"guard; {write.reason}"
                    ),
                )
            )
        for qualname in sorted(state.reachable):
            summary = self.summaries[qualname]
            info = self.index.functions.get(qualname)
            module = self.index.modules.get(summary.module)
            if info is None or module is None or not summary.mutable_default_params:
                continue
            reason = state.origin.get(qualname, _UNKNOWN_ROOT).reason
            for param in sorted(summary.mutable_default_params):
                key = (module.path, info.node.lineno, "RC004")
                if key in seen:
                    continue
                seen.add(key)
                findings.append(
                    Finding(
                        rule="RC004",
                        path=module.path,
                        line=info.node.lineno,
                        col=info.node.col_offset + 1,
                        message=(
                            f"mutable default for `{param}` in "
                            f"{_short(qualname)} is one shared instance "
                            f"across concurrent calls; {reason}"
                        ),
                    )
                )
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings


_UNKNOWN_ROOT = Root(qualname="<unknown>", taint=frozenset(), reason="reachable from a concurrency root")


def _short(qualname: str) -> str:
    """Trailing two qualname components — enough to identify a function."""
    parts = [part for part in qualname.split(".") if part != "<locals>"]
    return ".".join(parts[-2:])


def race_findings(
    index: ProjectIndex, summaries: dict[str, FunctionSummary] | None = None
) -> list[Finding]:
    """Convenience wrapper: RC findings for ``index``."""
    return RaceAnalysis(index, summaries).findings()
