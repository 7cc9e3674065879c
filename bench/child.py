"""One report in a fresh interpreter, for set-up timing and traced CLI runs.

    python3 bench/child.py setup REQUEST_JSON
        Prints {"setup_s": ..., "output": ...}; setup_s runs from before
        `import dehn4` to the end of the report.
    python3 bench/child.py trace-cli REQUEST_JSON
        Runs `dehn4 report` with the tracer installed and prints the report,
        then a record-separator mark and the spans and counts as JSON.

REQUEST_JSON is a workloads.Request in its JSON form; src/ must be on
PYTHONPATH.
"""
import contextlib
import io
import json
import sys
import time


def _report(req: dict) -> str:
    if req["argv"] is not None:
        from dehn4 import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(req["argv"]))
        if code != 0:
            raise SystemExit(code)
        return buf.getvalue()
    import dehn4

    kwargs = dict(req["kwargs"])
    name = kwargs.pop("name")
    return dehn4.render(dehn4.run_scenario(dehn4.build_scenario(name, **kwargs)), req["fmt"])


def main() -> int:
    mode, req = sys.argv[1], json.loads(sys.argv[2])
    if mode == "setup":
        start = time.perf_counter()
        output = _report(req)
        setup_s = time.perf_counter() - start
        print(json.dumps({"setup_s": setup_s, "output": output}))
        return 0
    if mode == "trace-cli":
        from tracer import Tracer

        with Tracer() as tracer:
            tracer.request = 0
            from dehn4 import cli

            code = cli.main(list(req["argv"]))
        sys.stdout.write("\x1eSPANS " + json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
