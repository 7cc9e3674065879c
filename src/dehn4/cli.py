"""Command-line front end.

    dehn4 report --scenario <name> [--p P --q Q --n N]
                 [--knot-j SPEC] [--knot-k SPEC]
                 [--format text|json] [--config FILE]

Exit code 0 on any successful computation regardless of verdict; nonzero
only on errors.  The optional JSON config file supplies the same fields
(scenario, p, q, n, knot_j, knot_k, flags); unknown fields are rejected.
DEHN4_CONFIG_DIR, when set, is the search path for relative --config
paths.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .report import render
from .scenarios import (
    SCENARIO_NAMES,
    HypothesisFlag,
    ScenarioError,
    build_scenario,
    run_scenario,
)

_CONFIG_FIELDS = {"scenario", "p", "q", "n", "knot_j", "knot_k", "flags"}
# each flag field with the JSON type it must have
_FLAG_FIELDS = {
    "name": (str, "a string"),
    "value": (bool, "true or false"),
    "provenance": (str, "a string"),
}

# the JSON name of the type of each value json.loads returns, for error messages
_JSON_TYPES = {
    type(None): "null",
    bool: "boolean",
    int: "number",
    float: "number",
    str: "string",
    list: "array",
    dict: "object",
}


def _load_config(path: str) -> dict:
    candidate = Path(path)
    if not candidate.is_absolute():
        search_dir = os.environ.get("DEHN4_CONFIG_DIR")
        if search_dir and not candidate.exists():
            candidate = Path(search_dir) / path
    try:
        data = json.loads(candidate.read_text("utf-8"))
    except FileNotFoundError:
        raise ScenarioError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ScenarioError("config file must hold a JSON object")
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ScenarioError(f"unknown config fields: {sorted(unknown)}")
    for field in ("p", "q", "n"):
        if field in data and type(data[field]) is not int:  # bool is an int subclass
            raise ScenarioError(
                f"config field {field!r} must be an integer, "
                f"got {_JSON_TYPES[type(data[field])]}"
            )
    return data


def _parse_flags(raw) -> tuple[HypothesisFlag, ...]:
    if not isinstance(raw, list):
        raise ScenarioError(
            f"config field 'flags' must be an array, got {_JSON_TYPES[type(raw)]}"
        )
    flags = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or entry.keys() != _FLAG_FIELDS.keys():
            raise ScenarioError(
                f"config field 'flags[{i}]' needs exactly the fields name, value, provenance"
            )
        for field, (kind, expected) in _FLAG_FIELDS.items():
            if not isinstance(entry[field], kind):
                raise ScenarioError(
                    f"config field 'flags[{i}].{field}' must be {expected}, "
                    f"got {_JSON_TYPES[type(entry[field])]}"
                )
        flags.append(
            HypothesisFlag(
                name=entry["name"], value=entry["value"], provenance=entry["provenance"]
            )
        )
    return tuple(flags)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dehn4",
        description=(
            "exact-arithmetic obstruction reports for balls and solid tori "
            "in 4-manifold boundaries"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("report", help="run a named scenario and print its report")
    rep.add_argument("--scenario", choices=SCENARIO_NAMES, help="scenario name")
    rep.add_argument("--p", type=int, help="first integer parameter")
    rep.add_argument("--q", type=int, help="second integer parameter")
    rep.add_argument("--n", type=int, help="framing / cabling parameter")
    rep.add_argument("--knot-j", help="knot spec (name or JSON) for J")
    rep.add_argument("--knot-k", help="knot spec (name or JSON) for K")
    rep.add_argument("--format", choices=("text", "json"), default="text")
    rep.add_argument("--config", help="JSON config file (unknown fields rejected)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        scenario_name = args.scenario or config.get("scenario")
        if not scenario_name:
            raise ScenarioError("no scenario given (use --scenario or a config file)")
        flags = _parse_flags(config["flags"]) if "flags" in config else None
        scenario = build_scenario(
            scenario_name,
            p=args.p if args.p is not None else config.get("p"),
            q=args.q if args.q is not None else config.get("q"),
            n=args.n if args.n is not None else config.get("n"),
            knot_j=args.knot_j if args.knot_j is not None else config.get("knot_j"),
            knot_k=args.knot_k if args.knot_k is not None else config.get("knot_k"),
            flags=flags,
        )
        report = run_scenario(scenario)
        sys.stdout.write(render(report, args.format))
        return 0
    except (ScenarioError, ValueError) as exc:
        print(f"dehn4: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
