"""Shared machinery for the repro invariant lint pack.

A *rule* inspects one parsed module and yields :class:`Finding` records.
Rules are deliberately small AST visitors — no type inference, no import
resolution — because every invariant they encode (determinism, kernel
dtype contracts, API hygiene) is visible in a single module's syntax.  The trade-off is documented per
rule in ``docs/STATIC_ANALYSIS.md``: a rule may need an explicit
suppression where the pattern is intentional.

Suppression: append ``# lint: ignore[RULE-ID]`` (comma-separated for
several rules) to the flagged line, optionally followed by
``-- justification``.  Suppressions are *rule-scoped only*: a bracketless
ignore comment suppresses nothing and is itself reported (LS001), a
scoped suppression whose rule fired nothing on its line is reported as
unused (LS002, for rules in the running set), and suppressions of the
interprocedural RC family must carry a justification (LS003).
"""

from __future__ import annotations

import ast
import re
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

__all__ = [
    "Finding",
    "ParsedModule",
    "Rule",
    "SUPPRESSION_RULES",
    "Suppression",
    "analyze_paths",
    "analyze_source",
    "apply_suppressions",
    "dotted_name",
    "iter_python_files",
    "parse_module",
    "scan_suppressions",
]

_SUPPRESSION = re.compile(
    r"#\s*lint:\s*ignore"
    r"(?:\[(?P<rules>[A-Za-z0-9_\-,\s]+)\])?"
    r"(?:\s*--\s*(?P<why>.*))?"
)

#: The lint-suppression meta-rules.  They are emitted by
#: :func:`apply_suppressions` rather than by :class:`Rule` visitors, and
#: they cannot themselves be suppressed — a suppression that silences the
#: rule about bad suppressions would be unauditable.
SUPPRESSION_RULES = {
    "LS001": (
        "blanket lint-ignore comment (no rule list) suppresses nothing; "
        "scope it as `# lint: ignore[RULE-ID]`"
    ),
    "LS002": (
        "suppression names a rule that reported nothing on its line; delete "
        "the stale entry"
    ),
    "LS003": (
        "suppressions of the interprocedural race family (RCxxx) must carry "
        "a `-- justification` explaining why the shared write is ordering-safe"
    ),
}

#: Rule-id prefixes whose suppressions require a justification comment.
_JUSTIFIED_PREFIXES = ("RC",)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """``path:line:col: RULE message`` — the CLI's output format."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class ParsedModule:
    """A parsed source file, handed to every rule."""

    path: str
    tree: ast.Module
    lines: list[str]

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` located at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=rule, path=self.path, line=int(line), col=int(col) + 1, message=message)


class Rule(ABC):
    """Base class for lint rules.

    Subclasses set :attr:`rule_id` and :attr:`summary` and implement
    :meth:`check`.  :meth:`applies_to` lets path-scoped families (the
    kernel contracts only watch ``algos/`` and ``bench/``) skip modules
    wholesale.
    """

    rule_id: ClassVar[str] = ""
    summary: ClassVar[str] = ""

    def applies_to(self, path: Path) -> bool:
        """Whether this rule runs on ``path`` at all."""
        return True

    @abstractmethod
    def check(self, module: ParsedModule) -> Iterator[Finding]:
        """Yield every violation found in ``module``."""


def parse_module(source: str, path: str) -> ParsedModule:
    """Parse ``source`` into the structure rules consume."""
    tree = ast.parse(source, filename=path)
    return ParsedModule(path=path, tree=tree, lines=source.splitlines())


@dataclass(frozen=True)
class Suppression:
    """One rule-scoped lint-ignore comment, parsed from a source line."""

    path: str
    line: int
    col: int
    #: Rule ids in the bracket; empty means a (disallowed) blanket comment.
    rules: tuple[str, ...]
    #: Free text after ``--`` — the why of the suppression.
    justification: str


def scan_suppressions(lines: Sequence[str], path: str) -> list[Suppression]:
    """Parse every suppression comment in ``lines``."""
    found: list[Suppression] = []
    for number, text in enumerate(lines, start=1):
        match = _SUPPRESSION.search(text)
        if match is None:
            continue
        rules = match.group("rules")
        scoped = (
            tuple(token.strip() for token in rules.split(",") if token.strip())
            if rules is not None
            else ()
        )
        found.append(
            Suppression(
                path=path,
                line=number,
                col=match.start() + 1,
                rules=scoped,
                justification=(match.group("why") or "").strip(),
            )
        )
    return found


def apply_suppressions(
    findings: Iterable[Finding],
    suppressions: Sequence[Suppression],
    known_rule_ids: Iterable[str],
    *,
    report_misuse: bool = True,
) -> list[Finding]:
    """Filter ``findings`` through rule-scoped suppressions.

    Returns the surviving findings plus the suppression meta-findings:
    LS001 for blanket comments (which suppress nothing), LS002 for a
    scoped rule id in ``known_rule_ids`` that matched no finding on its
    line, and LS003 for an RC-family suppression without a justification.
    ``report_misuse=False`` limits the meta-findings to LS002 — used by
    the project analyzer, whose files the per-file pass already walked
    (one LS001/LS003 per comment, not one per analysis layer).
    """
    known = set(known_rule_ids)
    kept: list[Finding] = []
    used: set[tuple[int, str]] = set()
    by_line: dict[int, set[str]] = {}
    for suppression in suppressions:
        by_line.setdefault(suppression.line, set()).update(suppression.rules)
    for finding in findings:
        if finding.rule in by_line.get(finding.line, set()):
            used.add((finding.line, finding.rule))
        else:
            kept.append(finding)
    for suppression in suppressions:
        if not suppression.rules:
            if report_misuse:
                kept.append(
                    Finding(
                        rule="LS001",
                        path=suppression.path,
                        line=suppression.line,
                        col=suppression.col,
                        message=SUPPRESSION_RULES["LS001"],
                    )
                )
            continue
        if report_misuse and not suppression.justification:
            unjustified = [
                rule
                for rule in suppression.rules
                if rule.startswith(_JUSTIFIED_PREFIXES)
            ]
            if unjustified:
                kept.append(
                    Finding(
                        rule="LS003",
                        path=suppression.path,
                        line=suppression.line,
                        col=suppression.col,
                        message=f"suppression of {', '.join(unjustified)} lacks a "
                        "`-- justification`: say why the shared write is "
                        "ordering-safe",
                    )
                )
        for rule in suppression.rules:
            if rule in known and (suppression.line, rule) not in used:
                kept.append(
                    Finding(
                        rule="LS002",
                        path=suppression.path,
                        line=suppression.line,
                        col=suppression.col,
                        message=f"unused suppression: {rule} reported nothing on "
                        "this line",
                    )
                )
    kept.sort(key=lambda finding: (finding.path, finding.line, finding.col, finding.rule))
    return kept


def analyze_source(source: str, path: str, rules: Sequence[Rule]) -> list[Finding]:
    """Run ``rules`` over one source string; suppressions applied."""
    module = parse_module(source, path)
    location = Path(path)
    findings: list[Finding] = []
    applicable: list[Rule] = []
    for rule in rules:
        if not rule.applies_to(location):
            continue
        applicable.append(rule)
        findings.extend(rule.check(module))
    return apply_suppressions(
        findings,
        scan_suppressions(module.lines, path),
        {rule.rule_id for rule in applicable},
    )


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths``, in deterministic order."""
    for path in paths:
        location = Path(path)
        if location.is_dir():
            yield from sorted(location.rglob("*.py"))
        elif location.suffix == ".py":
            yield location
        else:
            raise FileNotFoundError(f"not a Python file or directory: {location}")


def analyze_paths(paths: Iterable[str | Path], rules: Sequence[Rule]) -> list[Finding]:
    """Run ``rules`` over every Python file under ``paths``."""
    findings: list[Finding] = []
    for location in iter_python_files(paths):
        source = location.read_text(encoding="utf-8")
        findings.extend(analyze_source(source, str(location), rules))
    return findings


def dotted_name(node: ast.expr) -> str | None:
    """Render ``a.b.c`` attribute chains; None for anything fancier."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))
