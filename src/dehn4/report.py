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

A report renders only what its parameters change.  A fixed step, one that
no parameter moves (the Stein steps, and the boundary head of the torus
scenarios, built once per framing n), is shared by the reports that hold
it, and keeps its text body (all of its lines after the step number) and
its JSON item, written at the indent of a trace item, from its first
render on.  A step built per report is rendered as it comes.
"""
from __future__ import annotations

from .scenarios import Report, _FixedStep

SCHEMA_ID = "dehn4.report/3"

# the indent of a trace item in a JSON report: the items of the "trace" list
# under the top-level object
_TRACE_INDENT = "    "


def report_to_json_dict(report: Report) -> dict:
    return _json_dict(report, False)


def _json_dict(report: Report, fixed: bool) -> dict:
    """The plain data of report_to_json_dict; with fixed, each fixed step
    stands in the trace for its own JSON item, which `_write_json` writes
    from the step's kept text at the trace-item indent."""
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
            t if fixed and type(t) is _FixedStep else _trace_item(t)
            for t in report.trace
        ],
        "verdict": report.verdict.value,
        "detail": report.detail,
        "citations": list(report.citations),
    }


def _trace_item(t) -> dict:
    return {"operation": t.operation, "inputs": t.inputs, "output": t.output}


def render_json(report: Report) -> str:
    return json_text(_json_dict(report, True))


def _fixed_step_json(step: _FixedStep) -> str:
    """The JSON item of a fixed step at the trace-item indent, written on
    its first JSON render and kept on the step."""
    kept = vars(step)
    text = kept.get("json")
    if text is None:
        out: list[str] = []
        _write_json(_trace_item(step), _TRACE_INDENT, out)
        text = kept["json"] = "".join(out)
    return text


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
# else is a dict, a list, a fixed step in render_json's trace, or refused
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
        if kind is _FixedStep and indent == _TRACE_INDENT:  # from render_json's trace
            out.append(_fixed_step_json(value))
            return
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


def _step_lines(step, number: str) -> list[str]:
    inputs = (
        " ".join(f"{k}={_scalar(v)}" for k, v in step.inputs.items())
        if step.inputs
        else "-"
    )
    return [f"{number}{step.operation} [{inputs}]", *_format_value(step.output, "     ")]


def _fixed_step_text(step: _FixedStep) -> str:
    """The text body of a fixed step, its lines after the step number,
    written on its first text render and kept on the step."""
    kept = vars(step)
    text = kept.get("text")
    if text is None:
        text = kept["text"] = "\n".join(_step_lines(step, ""))
    return text


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
        if type(step) is _FixedStep:
            lines.append(f"  {i}. {_fixed_step_text(step)}")
        else:
            lines.extend(_step_lines(step, f"  {i}. "))
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
