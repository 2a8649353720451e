"""SARIF 2.1.0 export for analyzer findings.

``python -m repro.analysis --sarif-file out.sarif`` writes the
analyzer's findings in the Static Analysis Results Interchange Format,
which GitHub's code-scanning upload turns into inline PR annotations.
One run, one tool, one result per finding — deliberately minimal, but
valid against the 2.1.0 schema.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any

from repro.analysis.core import Finding

__all__ = ["to_sarif", "write_sarif"]

_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def to_sarif(
    findings: Sequence[Finding], rule_descriptions: Mapping[str, str]
) -> dict[str, Any]:
    """Render ``findings`` as a SARIF log object."""
    used_rules = sorted({finding.rule for finding in findings})
    rules = [
        {
            "id": rule_id,
            "shortDescription": {
                "text": rule_descriptions.get(rule_id, rule_id)
            },
        }
        for rule_id in used_rules
    ]
    results = [
        {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": max(finding.col, 1),
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]
    return {
        "$schema": _SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analysis",
                        "informationUri": "docs/STATIC_ANALYSIS.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def write_sarif(
    findings: Sequence[Finding],
    rule_descriptions: Mapping[str, str],
    path: str | Path,
) -> None:
    """Write the SARIF log for ``findings`` to ``path``."""
    Path(path).write_text(
        json.dumps(to_sarif(findings, rule_descriptions), indent=2, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
