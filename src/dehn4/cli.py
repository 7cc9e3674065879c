"""Command-line front end.

    dehn4 report --scenario <name> [--p P --q Q --n N]
                 [--knot-j SPEC] [--knot-k SPEC]
                 [--format text|json] [--config FILE]

Each scenario takes these parameters (defaults in parentheses) and lists
these hypothesis flags:

  sphere-lens          p (5), q (2); no flags
  sphere-smooth-h      no parameters; rho-y1, rho-y2
  sphere-smooth-e8h    no parameters; rho-y1, rho-y2, no-e8-filling-y1,
                       no-acyclic-filling-y2
  torus-solid          n (1), knot_j (left-trefoil), knot_k (left-trefoil);
                       torus-incompressible
  torus-top-vs-smooth  n (0), knot_j (left-trefoil),
                       knot_k (whitehead-double-positive);
                       torus-incompressible, surgered-manifold-irreducible,
                       alexander-one-slice
  twist-extension      p (2), q (3); meridian-twist-extends,
                       orbit-twist-extends

Any other parameter or flag is an error, as is a flag given twice.  Each
flag but torus-incompressible is read by its scenario's verdict;
torus-incompressible records Gabai's fact, and no verdict uses it.

Exit code 0 on any successful computation regardless of verdict; 1 on an
error, a bad command line included, with one `dehn4: error:` line on
stderr, and 1 without a word when the reader of stdout has gone; --help
exits 0.  The optional JSON config
file supplies the same fields (scenario, p, q, n, knot_j, knot_k, flags);
unknown fields and values of the wrong JSON type are rejected.  A config
flag replaces the default flag of its name; the others keep their
defaults.  DEHN4_CONFIG_DIR is the search path for relative --config paths.
"""
from __future__ import annotations

import argparse
import os
import sys

from .report import render
from .scenarios import (
    PARAMS,
    SCENARIO_NAMES,
    HypothesisFlag,
    ScenarioError,
    build_scenario,
    is_single_line,
    parse_json,
    run_scenario,
)

# each config field with the JSON types it may have (bool is not an int here)
_CONFIG_FIELDS = {
    "scenario": ((str,), "a string"),
    "p": ((int,), "an integer"),
    "q": ((int,), "an integer"),
    "n": ((int,), "an integer"),
    "knot_j": ((str, dict), "a string or an object"),
    "knot_k": ((str, dict), "a string or an object"),
    "flags": ((list,), "an array"),
}
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
    # imported here, its one use, so that a report without --config loads no pathlib
    from pathlib import Path

    candidate = Path(path)
    if not candidate.is_absolute():
        search_dir = os.environ.get("DEHN4_CONFIG_DIR")
        if search_dir and not candidate.exists():
            candidate = Path(search_dir) / path
    # a path with a line break would split the error line, so it is quoted
    shown = path if is_single_line(path) else repr(path)
    try:
        text = candidate.read_text("utf-8")
    except FileNotFoundError:
        raise ScenarioError(f"config file not found: {shown}")
    except OSError as exc:  # a directory, no permission, an I/O error
        raise ScenarioError(f"config file {shown} cannot be read: {exc.strerror}")
    except UnicodeDecodeError:
        raise ScenarioError(f"config file {shown} is not UTF-8 text")
    try:
        data = parse_json(text)
    except ValueError as exc:
        raise ScenarioError(f"config file {shown} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ScenarioError("config file must hold a JSON object")
    unknown = set(data) - _CONFIG_FIELDS.keys()
    if unknown:
        raise ScenarioError(f"unknown config fields: {sorted(unknown)}")
    for field, value in data.items():
        kinds, expected = _CONFIG_FIELDS[field]
        if type(value) not in kinds:
            raise ScenarioError(
                f"config field {field!r} must be {expected}, got {_JSON_TYPES[type(value)]}"
            )
    return data


def _parse_flags(raw: list) -> tuple[HypothesisFlag, ...]:
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


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a ScenarioError, which main reports in
    one error line, in place of printing the usage and exiting 2."""

    def error(self, message):
        # unrecognized arguments are echoed as given, line breaks included
        raise ScenarioError(message if is_single_line(message) else repr(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dehn4",
        description=(
            "exact-arithmetic obstruction reports for balls and solid tori "
            "in 4-manifold boundaries"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("report", help="run a named scenario and print its report")
    rep.add_argument("--scenario", help=f"scenario name: {', '.join(SCENARIO_NAMES)}")
    rep.add_argument("--p", type=int, help="first integer parameter")
    rep.add_argument("--q", type=int, help="second integer parameter")
    rep.add_argument("--n", type=int, help="framing / cabling parameter")
    rep.add_argument("--knot-j", help="knot spec (name or JSON) for J")
    rep.add_argument("--knot-k", help="knot spec (name or JSON) for K")
    rep.add_argument("--format", choices=("text", "json"), default="text")
    rep.add_argument("--config", help="JSON config file (unknown fields rejected)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _load_config(args.config) if args.config else {}
        scenario_name = args.scenario or config.get("scenario")
        if not scenario_name:
            raise ScenarioError("no scenario given (use --scenario or a config file)")
        flags = _parse_flags(config["flags"]) if "flags" in config else None
        params = {}
        for param in PARAMS:
            value = getattr(args, param)
            params[param] = value if value is not None else config.get(param)
        scenario = build_scenario(scenario_name, flags=flags, **params)
        out = render(run_scenario(scenario), args.format)
    except (ScenarioError, ValueError) as exc:
        print(f"dehn4: error: {exc}", file=sys.stderr)
        return 1
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except BrokenPipeError:
        return silence_broken_pipe()
    return 0


def silence_broken_pipe() -> int:
    """Exit status 1 for a stdout whose reader has gone, without a traceback.

    Points stdout at os.devnull, so the interpreter's flush at exit writes
    nowhere instead of raising BrokenPipeError again (the recipe of the
    Python `signal` module documentation).
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    return 1


if __name__ == "__main__":
    sys.exit(main())
