"""The repro invariant analyzer: per-file lint rules + whole-program analyses.

The per-file families encode invariants visible in one module's syntax —
the hazards that broke (or nearly broke) earlier PRs:

==========  ==============================================================
DT001-003   determinism: no set-order emits, unseeded RNGs, or
            ``id()``-keyed dicts
KC001-004   kernel contracts (``algos/``, ``bench/``): explicit dtypes,
            intentional float equality, no argument mutation, no
            completion-order or set-order result collection
AH001-003   API hygiene: mutable defaults (functions and lambdas), bare
            ``except``, ``__all__`` drift in package ``__init__`` files
==========  ==============================================================

The whole-program layer (:mod:`repro.analysis.project` symbol table +
:mod:`repro.analysis.callgraph` summaries) adds interprocedural families:

==========  ==============================================================
PS003/004   transitive pickle-safety verdicts vs. the declared
            ``process_safe`` flag, including task writes a worker process
            would lose — see :mod:`repro.analysis.pickling`
LS001-002   suppression hygiene: no blanket ignores, no stale entries —
            see :mod:`repro.analysis.core`
==========  ==============================================================

Each bug class has one check: annotation coverage is left to CI's
``mypy --strict``, and process safety to the transitive PS003/PS004
verdicts.  Tasks share no memory (they run sequentially in the driver
or in isolated worker processes), so there is no race family.  Run
``python -m repro.analysis src/`` (the CI lint gate), or call
:func:`analyze_paths` / :func:`project_findings` programmatically.
Suppress one finding with a trailing ``# lint: ignore[RULE-ID]`` comment;
``docs/STATIC_ANALYSIS.md`` documents every rule with the incident that
motivated it.  ``repro.analysis.sanitizer`` is the dynamic cross-check:
``repro build --sanitize`` hashes shuffle streams and kernel row tables
so CI can compare runtimes bit-for-bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING as _TYPE_CHECKING

if _TYPE_CHECKING:
    from pathlib import Path

from repro.analysis.api_hygiene import AllDrift, BareExcept, MutableDefaultArgument
from repro.analysis.core import (
    SUPPRESSION_RULES,
    Finding,
    ParsedModule,
    Rule,
    analyze_paths,
    analyze_source,
    apply_suppressions,
    dotted_name,
    iter_python_files,
    parse_module,
    scan_suppressions,
)
from repro.analysis.determinism import (
    IdKeyedMapping,
    SetIterationIntoEmit,
    UnseededRandomness,
)
from repro.analysis.kernel_contracts import (
    FloatLiteralEquality,
    MissingExplicitDtype,
    MutatedArgument,
    NondeterministicCollection,
)
from repro.analysis.pickling import PICKLE_RULES, job_pickle_verdicts, pickle_findings
from repro.analysis.project import ProjectIndex, build_index

__all__ = [
    "AllDrift",
    "BareExcept",
    "Finding",
    "FloatLiteralEquality",
    "IdKeyedMapping",
    "MissingExplicitDtype",
    "MutableDefaultArgument",
    "MutatedArgument",
    "NondeterministicCollection",
    "PICKLE_RULES",
    "ParsedModule",
    "ProjectIndex",
    "Rule",
    "SUPPRESSION_RULES",
    "SetIterationIntoEmit",
    "UnseededRandomness",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "apply_suppressions",
    "build_index",
    "dotted_name",
    "iter_python_files",
    "job_pickle_verdicts",
    "parse_module",
    "pickle_findings",
    "project_findings",
    "project_rule_ids",
    "scan_suppressions",
]


def all_rules() -> list[Rule]:
    """One instance of every rule, in rule-id order."""
    rules: list[Rule] = [
        SetIterationIntoEmit(),
        UnseededRandomness(),
        IdKeyedMapping(),
        MissingExplicitDtype(),
        FloatLiteralEquality(),
        MutatedArgument(),
        NondeterministicCollection(),
        MutableDefaultArgument(),
        BareExcept(),
        AllDrift(),
    ]
    return sorted(rules, key=lambda rule: rule.rule_id)


def project_rule_ids() -> set[str]:
    """Rule ids the whole-program layer can emit (the pickle verdicts)."""
    return set(PICKLE_RULES)


def project_findings(paths: list[str | Path]) -> list[Finding]:
    """Whole-program findings (PS003/PS004) for ``paths``.

    Builds the project symbol table, runs the pickle-safety verdicts,
    then filters the results through each file's rule-scoped
    suppressions.  Blanket-comment findings (LS001) are left to the
    per-file pass — which walked the same files already — so one bad
    comment is reported once; unused-suppression findings (LS002) for
    the interprocedural rule ids are reported here, where those ids are
    actually known.
    """
    from pathlib import Path as _Path

    index = build_index([_Path(p) for p in paths])
    raw = pickle_findings(index)
    known = project_rule_ids()
    by_path: dict[str, list[Finding]] = {}
    for finding in raw:
        by_path.setdefault(finding.path, []).append(finding)
    # Files with suppressions but no findings still need LS002 checks.
    for module in index.modules.values():
        by_path.setdefault(module.path, [])
    lines_by_path = {
        module.path: module.lines for module in index.modules.values()
    }
    filtered: list[Finding] = []
    for path, findings in sorted(by_path.items()):
        lines = lines_by_path.get(path)
        if lines is None:
            filtered.extend(findings)
            continue
        filtered.extend(
            apply_suppressions(
                findings,
                scan_suppressions(lines, path),
                known,
                report_misuse=False,
            )
        )
    filtered.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return filtered
