"""Transitive pickle-safety verdicts for MapReduce job classes.

``MapReduceJob.process_safe`` is a *claim*: the process-pool runtime
trusts it to decide whether a job may be shipped to worker processes.
This module *proves or refutes* it from the project call graph — the
analyzer's only process-safety check:

* **Driver-state evidence** — a task method (or anything it reaches,
  via :class:`~repro.analysis.races.RaceAnalysis` taint from ``self``)
  writes through the job instance.  In a worker process that write
  lands in a copy and is lost, so the job cannot be process-safe even
  if every attribute pickles.  Lock-guarded writes count too: the lock
  fixes ordering, not isolation.
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

``tests/test_job_process_safety.py`` pins these verdicts to the runtime
pickling meta-test, so the static and dynamic notions of process safety
cannot drift apart.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.callgraph import FunctionSummary, build_summaries
from repro.analysis.core import Finding
from repro.analysis.project import ClassInfo, ProjectIndex, _annotation_text
from repro.analysis.races import RaceAnalysis, Root, TASK_METHODS

__all__ = [
    "PICKLE_RULES",
    "PickleVerdict",
    "job_pickle_verdicts",
    "pickle_findings",
]

PICKLE_RULES = {
    "PS003": (
        "job is declared process_safe but the call graph shows driver-state "
        "or unpicklable-capture evidence"
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


def _task_write_evidence(
    analysis: RaceAnalysis, info: ClassInfo
) -> tuple[list[str], set[str]]:
    """Driver-state writes reachable from this job's own task methods.

    Returns the evidence strings plus the set of ``self`` attribute
    names written (feeds the shared-store pairing).
    """
    roots = [
        Root(
            qualname=info.methods[method],
            taint=frozenset({"self"}),
            reason=f"task method {info.node.name}.{method}",
        )
        for method in TASK_METHODS
        if method in info.methods and info.methods[method] in analysis.summaries
    ]
    if not roots:
        return [], set()
    evidence: list[str] = []
    written_attrs: set[str] = set()
    for write in analysis.shared_writes(roots, include_guarded=True):
        if write.rule not in {"RC002", "RC003"}:
            continue
        if write.site.kind in {"global", "nonlocal"}:
            continue
        evidence.append(
            f"task code writes driver-held state `{write.site.detail}` at "
            f"{write.path}:{write.site.line}"
        )
        detail = write.site.detail
        if detail.startswith("self."):
            written_attrs.add(detail.split(".")[1])
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
    analysis = RaceAnalysis(index, summaries)
    concrete = [
        qualname
        for qualname in analysis.job_classes()
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
        task_evidence, written = _task_write_evidence(analysis, info)
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
