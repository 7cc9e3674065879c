"""Deterministic text and JSON rendering of scenario reports.

The JSON layout is versioned (see SCHEMA_ID) and documented in
docs/report_schema.json; identical scenarios render byte-identically.
Each input knot's Seifert matrix V is written as its sparse rows, read
straight from `SeifertMatrix.rows`: a list with one object per row, whose
keys are the decimal column indices of the row's nonzero entries, e.g.
`[{"0": -1, "1": 1}, {"1": -1}]`.  The size of V is the length of the
list, and an empty row is `{}`.  A fence-basis row has at most four
nonzeros, so this is O(size) where a dense matrix is O(size^2).
JSON is written directly by `json_text`, byte-identical to
`json.dumps(d, indent=2, sort_keys=True) + "\\n"`: keys sorted, a two-space
indent, `",\\n"` between items and `": "` after each key.  It accepts dicts
with str keys, lists, str, int, bool and None, and raises TypeError on any
other type (a float, a tuple, a Fraction, a non-str key) rather than
coercing it.  json's own indenting encoder runs in pure Python, and a list
of scalars, such as a homology class in the trace or the citations, is here
written by one str.join.
"""
from __future__ import annotations

from .scenarios import Report

SCHEMA_ID = "dehn4.report/3"


def report_to_json_dict(report: Report) -> dict:
    s = report.scenario
    return {
        "schema": SCHEMA_ID,
        "scenario": {
            "name": s.name,
            "parameters": s.parameters(),
            "knots": {
                key: {
                    "name": knot.name,
                    "seifert": [{str(j): x for j, x in row.items()} for row in knot.matrix.rows],
                }
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
    return json_text(report_to_json_dict(report))


def json_text(value) -> str:
    """`json.dumps(value, indent=2, sort_keys=True) + "\\n"`, byte for byte,
    for value built of dicts with str keys, lists, str, int, bool and None.
    Any other type raises TypeError."""
    if str not in _JSON_SCALARS:  # the first JSON report; a text one loads no json
        from json.encoder import encode_basestring_ascii

        _JSON_SCALARS[str] = encode_basestring_ascii
    out: list[str] = []
    _write_json(value, "", out)
    out.append("\n")
    return "".join(out)


# how each scalar type is written, str from the first json_text on; anything
# else is a dict, a list or refused
_JSON_SCALARS = {
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "null",
}


def _write_json(value, indent: str, out: list[str]) -> None:
    """Append the JSON text of value, whose first line is already indented
    by `indent`, to out."""
    kind = type(value)
    scalar = _JSON_SCALARS.get(kind)
    if scalar is not None:
        out.append(scalar(value))
        return
    if kind is not list and kind is not dict:
        raise TypeError(f"cannot write a value of type {kind.__name__} as JSON")
    if not value:
        out.append("[]" if kind is list else "{}")
        return
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is list:
        out.append("[\n" + inner)
        kinds = set(map(type, value))
        scalar = _JSON_SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if scalar is not None:
            out.append(sep.join(map(scalar, value)))
        else:
            for item in value:
                _write_json(item, inner, out)
                out.append(sep)
            out.pop()
        out.append("\n" + indent + "]")
    else:
        out.append("{\n" + inner)
        quote = _JSON_SCALARS[str]
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"cannot write a key of type {type(key).__name__} as JSON")
            out.append(quote(key) + ": ")
            _write_json(value[key], inner, out)
            out.append(sep)
        out.pop()
        out.append("\n" + indent + "}")


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
