"""``python -m repro.analysis [paths]`` — the CI lint gate.

Runs the per-file rule pack, with suppression hygiene, over the given
paths.  ``--sarif-file`` writes the findings as SARIF 2.1.0 for inline
PR annotation; ``--compare-digests`` compares two sanitizer reports
instead of analyzing anything.

Exit status: 0 when clean (or reports match), 1 when findings were
reported (or reports differ), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis import all_rules, analyze_paths
from repro.analysis.core import SUPPRESSION_RULES
from repro.analysis.sanitizer import compare_reports
from repro.analysis.sarif import write_sarif


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="repro invariant analyzer (determinism, kernel contracts, "
        "API hygiene, suppression hygiene)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print every rule and exit"
    )
    parser.add_argument(
        "--sarif-file",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write findings as SARIF 2.1.0 to FILE",
    )
    parser.add_argument(
        "--compare-digests",
        nargs=2,
        type=Path,
        default=None,
        metavar=("A", "B"),
        help="compare two sanitizer reports for bit-identity and exit",
    )
    return parser


def _rule_descriptions() -> dict[str, str]:
    described = {rule.rule_id: rule.summary for rule in all_rules()}
    described.update(SUPPRESSION_RULES)
    return described


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.compare_digests is not None:
        left_path, right_path = args.compare_digests
        try:
            left = json.loads(left_path.read_text(encoding="utf-8"))
            right = json.loads(right_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        problems = compare_reports(left, right)
        for problem in problems:
            print(problem)
        if problems:
            print(
                f"sanitizer reports differ: {left_path} vs {right_path}",
                file=sys.stderr,
            )
            return 1
        print(f"sanitizer reports identical: {left_path} == {right_path}")
        return 0
    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.rule_id}  {rule.summary}")
        for rule_id in sorted(SUPPRESSION_RULES):
            print(f"{rule_id}  {SUPPRESSION_RULES[rule_id]}")
        return 0
    try:
        findings = analyze_paths(args.paths, rules)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except SyntaxError as error:
        print(f"error: cannot parse {error.filename}:{error.lineno}: {error.msg}", file=sys.stderr)
        return 2
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    if args.sarif_file is not None:
        write_sarif(findings, _rule_descriptions(), args.sarif_file)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
