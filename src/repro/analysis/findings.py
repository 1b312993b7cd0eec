"""Finding records and report rendering for the static checkers."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

__all__ = [
    "Finding",
    "RULES",
    "render_json",
    "render_sarif",
    "render_text",
]

#: Every rule id the analyzer can emit, with a short description.
#: Drives the SARIF rule table and keeps ids from drifting silently.
RULES: dict[str, str] = {
    "LOCK001": "Lock acquired out of hierarchy order",
    "LOCK002": "Read->write upgrade of an RWLock whose read side is held",
    "LAYER001": "Import from a higher or sideways layer",
    "LAYER002": "Module below the service layer imports repro.service",
    "HYG001": "Bare threading.Lock/RLock outside repro.concurrency",
    "HYG002": "print() in library code",
    "HYG003": "Mutable default argument",
    "HYG004": "Un-gated metric call inside the ranking hot path",
    "HYG005": "Broad exception handler outside sanctioned boundaries",
    "BLOCK001": "May-block call reachable while a ranked lock is held",
    "FAULT001": "Registered fault site is never fired",
    "FAULT002": "Fired fault site is never registered",
    "EXC001": "Non-degradable exception swallowed by a broad handler",
    "SCHEMA001": "Op literal outside the declared record/frame vocabulary",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: Stable rule id (``LOCK001``, ``BLOCK001``, ``EXC001``...).
        category: Checker family: ``lock-order``, ``layering``,
            ``hygiene``, ``effects`` or ``contracts``.
        module: Dotted module name the finding is in.
        path: File path (as collected; relative or absolute).
        line: 1-based line number of the offending node.
        message: Human-readable description of the violation.
        function: Qualified function name, when the rule is scoped to
            one (``Class.method`` or a bare function name).
        chain: Provenance, outermost call first, when the finding was
            reached transitively (``("Store.append", "Wal.flush")``).
    """

    rule: str
    category: str
    module: str
    path: str
    line: int
    message: str
    function: str | None = None
    chain: tuple[str, ...] = ()

    def location(self) -> str:
        """``path:line`` - the clickable source location."""
        return f"{self.path}:{self.line}"


def _sort_key(finding: Finding) -> tuple[str, str, int, str]:
    return (finding.category, finding.path, finding.line, finding.rule)


def _text_line(finding: Finding) -> str:
    line = (
        f"{finding.location()}: {finding.rule} [{finding.category}] "
        f"{finding.message}"
    )
    if finding.chain:
        line += f" (via {' -> '.join(finding.chain)})"
    return line


def render_text(findings: list[Finding], suppressed: list[Finding] | None = None) -> str:
    """The findings as a line-per-finding human-readable report."""
    note = f" ({len(suppressed)} suppressed)" if suppressed else ""
    if not findings:
        return f"analyze: 0 findings{note}"
    lines = [_text_line(finding) for finding in sorted(findings, key=_sort_key)]
    lines.append(f"analyze: {len(findings)} finding(s){note}")
    return "\n".join(lines)


def render_json(findings: list[Finding], suppressed: list[Finding] | None = None) -> str:
    """The findings as a JSON report (stable field order, sorted)."""
    payload = {
        "findings": [asdict(f) for f in sorted(findings, key=_sort_key)],
        "count": len(findings),
        "suppressed": [asdict(f) for f in sorted(suppressed or [], key=_sort_key)],
        "suppressed_count": len(suppressed or []),
    }
    return json.dumps(payload, indent=2)


def _sarif_result(finding: Finding, suppressed: bool) -> dict[str, object]:
    message = finding.message
    if finding.chain:
        message += f" (via {' -> '.join(finding.chain)})"
    result: dict[str, object] = {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {"startLine": finding.line},
                }
            }
        ],
        "properties": {
            "category": finding.category,
            "module": finding.module,
            "function": finding.function,
            "chain": list(finding.chain),
        },
    }
    if suppressed:
        result["suppressions"] = [{"kind": "inSource"}]
    return result


def render_sarif(findings: list[Finding], suppressed: list[Finding] | None = None) -> str:
    """The findings as a SARIF 2.1.0 log (one run, one driver)."""
    results = [
        _sarif_result(finding, suppressed=False)
        for finding in sorted(findings, key=_sort_key)
    ]
    results.extend(
        _sarif_result(finding, suppressed=True)
        for finding in sorted(suppressed or [], key=_sort_key)
    )
    log = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analyze",
                        "informationUri": "https://example.invalid/repro",
                        "rules": [
                            {
                                "id": rule,
                                "shortDescription": {"text": description},
                            }
                            for rule, description in sorted(RULES.items())
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2)
