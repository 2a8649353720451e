"""The repro invariant analyzer: per-file lint rules.

Each family encodes an invariant visible in one module's syntax — a
hazard that broke (or nearly broke) this codebase:

==========  ==============================================================
DT001-003   determinism: no set-order emits, unseeded RNGs, or
            ``id()``-keyed dicts
KC001-004   kernel contracts (``algos/``, ``bench/``): explicit dtypes,
            intentional float equality, no argument mutation, no
            completion-order or set-order result collection
AH001-003   API hygiene: mutable defaults (functions and lambdas), bare
            ``except``, ``__all__`` drift in package ``__init__`` files
LS001-002   suppression hygiene: no blanket ignores, no stale entries —
            see :mod:`repro.analysis.core`
==========  ==============================================================

Each bug class has one check: annotation coverage is left to CI's
``mypy --strict``, and process safety to running every job on both
runtimes (``tests/test_job_process_safety.py``): a job that is not
module-level, or whose tasks write state a worker process would lose,
gives a different result — or none — on the process pool.  Run
``python -m repro.analysis src/`` (the CI lint gate), or call
:func:`analyze_paths` programmatically.  Suppress one finding with a
trailing ``# lint: ignore[RULE-ID]`` comment; ``docs/STATIC_ANALYSIS.md``
documents every rule with the incident that motivated it.
``repro.analysis.sanitizer`` is the dynamic cross-check: ``repro build
--sanitize`` hashes shuffle streams and kernel row tables so CI can
compare runtimes bit-for-bit.
"""

from __future__ import annotations

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
    "ParsedModule",
    "Rule",
    "SUPPRESSION_RULES",
    "SetIterationIntoEmit",
    "UnseededRandomness",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "apply_suppressions",
    "dotted_name",
    "iter_python_files",
    "parse_module",
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

