"""Deterministic text and JSON rendering of scenario reports.

The JSON layout is versioned (see SCHEMA_ID) and documented in
docs/report_schema.json; identical scenarios render byte-identically.
"""
from __future__ import annotations

import json

from .scenarios import Report

SCHEMA_ID = "dehn4.report/2"


def report_to_json_dict(report: Report) -> dict:
    s = report.scenario
    return {
        "schema": SCHEMA_ID,
        "scenario": {
            "name": s.name,
            "parameters": s.parameters(),
            "knots": {
                key: {"name": knot.name, "seifert": [list(r) for r in knot.matrix.entries]}
                for key, knot in (("knot_j", s.knot_j), ("knot_k", s.knot_k))
                if knot is not None
            },
            "flags": [
                {"name": f.name, "value": f.value, "provenance": f.provenance}
                for f in s.flags
            ],
        },
        "trace": [
            {"operation": t.operation, "inputs": t.inputs, "output": t.output}
            for t in report.trace
        ],
        "verdict": report.verdict.value,
        "detail": report.detail,
        "citations": list(report.citations),
    }


def render_json(report: Report) -> str:
    return json.dumps(report_to_json_dict(report), indent=2, sort_keys=True) + "\n"


def _format_value(value, indent: str) -> list[str]:
    if isinstance(value, dict):
        lines = []
        for key, sub in value.items():
            if isinstance(sub, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.extend(_format_value(sub, indent + "  "))
            elif isinstance(sub, str) and "\n" in sub:
                lines.append(f"{indent}{key}: |")
                lines.extend(
                    f"{indent}  {line}" for line in sub.rstrip("\n").split("\n")
                )
            else:
                lines.append(f"{indent}{key}: {_scalar(sub)}")
        return lines
    if isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            return [f"{indent}{_scalar(value)}"]
        lines = []
        for x in value:
            if isinstance(x, (dict, list)):
                lines.append(f"{indent}-")
                lines.extend(_format_value(x, indent + "  "))
            else:
                lines.append(f"{indent}- {_scalar(x)}")
        return lines
    return [f"{indent}{_scalar(value)}"]


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    if isinstance(value, list):
        return "{" + ", ".join(_scalar(x) for x in value) + "}"
    return str(value)


def render_text(report: Report) -> str:
    s = report.scenario
    lines = [f"scenario: {s.name}"]
    params = s.parameters()
    if params:
        lines.append(
            "parameters: " + " ".join(f"{k}={v}" for k, v in params.items())
        )
    if s.flags:
        lines.append("hypothesis flags (imported facts, not computed):")
        for f in s.flags:
            lines.append(f"  [{'x' if f.value else ' '}] {f.name}")
            lines.append(f"      provenance: {f.provenance}")
    lines.append("trace:")
    for i, step in enumerate(report.trace, start=1):
        inputs = (
            " ".join(f"{k}={_scalar(v)}" for k, v in step.inputs.items())
            if step.inputs
            else "-"
        )
        lines.append(f"  {i}. {step.operation} [{inputs}]")
        lines.extend(_format_value(step.output, "     "))
    lines.append(f"verdict: {report.verdict.value}")
    if report.detail:
        lines.extend(_format_value(report.detail, "  "))
    if report.citations:
        lines.append("citations:")
        for c in report.citations:
            lines.append(f"  - {c}")
    return "\n".join(lines) + "\n"


def render(report: Report, fmt: str = "text") -> str:
    if fmt == "text":
        return render_text(report)
    if fmt == "json":
        return render_json(report)
    raise ValueError(f"unknown report format {fmt!r}; expected 'text' or 'json'")
