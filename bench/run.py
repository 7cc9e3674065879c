#!/usr/bin/env python3
"""Benchmark of dehn4 as its users run it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run it from the root of a source checkout: the package is imported from
./src, and nothing needs building.  Workloads (see workloads.py):

  cli-cold          one fresh `python -m dehn4.cli report` per request
  lens-sweep        in-process sphere-lens over moduli from 10^3 to 10^6
  twist-sweep       in-process twist-extension over coprime 2 <= p < q <= 9
  alexander-ladder  in-process torus scenarios: Alexander polynomials up to
                    44x44 and every Fox-Milnor branch

One closed-loop client runs whole passes over the workload's requests, each
report starting when the previous one has returned, for at least --seconds
and until the tail percentile has ten samples beyond it.  Cold children run
one at a time.  Every report is checked against an expected verdict that
does not come from the code under test.

Every time metric is scaled to a reference speed of the machine, measured
by fixed reference jobs timed between reports (see speed.py): on a shared
host the processor's speed moves by a third for longer than a run lasts.
The raw figures are printed beside the scaled ones.

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
untraced and once with spans around each module's public functions, and
prints per-layer metrics.  Spans are written to
.bench_out/.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every report was correct.  --tiny runs a small pass for the smoke test.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import speed as speeds
import tracer as tracing
import workloads
from speed import Speed
from workloads import Request

BENCH_DIR = Path(__file__).resolve().parent
CHILD = str(BENCH_DIR / "child.py")
SPANS_MARK = "\x1eSPANS "  # separates a traced CLI child's report from its spans
CHILD_TIMEOUT_S = 120
MAX_MEASURE_S = 30  # a phase stops after the pass that crosses this, even if the tail lacks samples
SETUP_RUNS = 5
WARM_PROBES = 5  # reference-job timings before the first report
IMPORT_RUNS = 3
# The tail percentile is fixed per workload, so runs of different speed stay
# comparable; a phase runs until ten samples lie beyond it.  With n inputs a
# pass, percentile q falls near input q*n + 1/2 of the sorted inputs on any
# number of passes; each level is chosen to fall inside one input's samples,
# not between two inputs whose times differ (n = 25, 19 and 15 in-process;
# the cold reports are alike, so cli-cold needs no such care).
TAIL_PCT = {"cli-cold": 70, "lens-sweep": 74, "twist-sweep": 92, "alexander-ladder": 83}

# Which end-to-end metric each per-layer metric should move, and on which workload:
#   import.sympy_s, import.dehn4_s           setup_s everywhere; report_ms.* on cli-cold
#   forms.quadratic_residues.*, forms.lens_qr_bounding.*, report.render.*
#                                            report_ms.*, report_bytes, peak_rss_mb on
#                                            lens-sweep; no change elsewhere
#   exact.signature_symmetric.*, seifert.signature.*
#                                            report_ms.*, reports_per_s on twist-sweep;
#                                            a minor share on alexander-ladder
#   laurent.poly_det.*, seifert.alexander_polynomial.*, seifert.fox_milnor.*
#                                            report_ms.*, reports_per_s on alexander-ladder;
#                                            setup_s too once sympy is imported lazily
#   exact.det.*, exact.solve_rational.*, seifert.parallel_cable.*,
#   seifert.connected_sum.*, seifert.knot_from_spec.*
#                                            both twist-sweep and alexander-ladder
#   linking.*, surgery.parse_presentation.*  the torus scenarios on alexander-ladder
#   legendrian.*, twists.extension_subgroup.*, forms.enumerate_even_splittings.*
#                                            their workloads; expected to stay small
#   scenarios.*, cli.main.*                  dispatch cost on every workload


class Tally:
    """Reports attempted and failed, with the first few mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, req: Request, output: str | None, error: str | None = None):
        self.attempted += 1
        if error is None:
            error = workloads.check(req, output)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{req.argv or req.kwargs}: {error}")


class Runner:
    """Runs single reports in process or in cold children, from the checkout root."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.peak_child_kb = 0
        self.tracer: tracing.Tracer | None = None
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._dehn4 = None

    def python(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )

    def load(self):
        """Import dehn4 in this process and make sure it is the checkout's copy."""
        sys.path.insert(0, str(self.root / "src"))
        self._dehn4 = importlib.import_module("dehn4")
        src = (self.root / "src").resolve()
        if src not in Path(self._dehn4.__file__).resolve().parents:
            raise SystemExit(f"dehn4 was imported from {self._dehn4.__file__}, not {src}")

    def in_process(self, req: Request, rid: int) -> tuple[float, str | None, str | None]:
        d = self._dehn4
        kwargs = dict(req.kwargs)
        name = kwargs.pop("name")
        if self.tracer is not None:
            self.tracer.request = rid
        # Each report starts from the same collector state, so where cyclic
        # collections fall inside it depends on that report alone, not on
        # which reports ran before it.
        gc.collect()
        start = perf_counter()
        try:
            out = d.render(d.run_scenario(d.build_scenario(name, **kwargs)), req.fmt)
        except Exception as exc:  # a failed report is counted, not fatal
            return perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
        return perf_counter() - start, out, None

    def cold(self, req: Request, rid: int) -> tuple[float, str | None, str | None]:
        """One cold CLI process; traced when a Tracer is set.  Wall time as the caller sees it."""
        if self.tracer is None:
            args = [sys.executable, "-m", "dehn4.cli", *req.argv]
        else:
            args = [sys.executable, CHILD, "trace-cli", req.to_json()]
        start = perf_counter()
        proc = subprocess.Popen(args, cwd=self.root, env=self.env, stdout=subprocess.PIPE)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            raw = proc.stdout.read()
        finally:
            timer.cancel()
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        out = raw.decode("utf-8", "replace")
        if self.tracer is not None and SPANS_MARK in out:
            out, payload = out.rsplit(SPANS_MARK, 1)
            self._merge(json.loads(payload), rid)
        if proc.returncode != 0:
            return elapsed, None, f"exit code {proc.returncode}"
        return elapsed, out, None

    def _merge(self, payload: dict, rid: int):
        offset = len(self.spans)
        for name, start, end, parent, _req, size in payload["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1, rid, size))
        for key, n in payload["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + n


def measure(passes, run_one, tally: Tally, speed: Speed, seconds: float, min_samples: int,
            between=None):
    """Whole closed-loop passes, taken from the iterator `passes`, until both
    the time and the sample floor are met.

    speed's reference job runs between reports (see speed.py).  between(elapsed)
    runs after each report, and its time does not count towards seconds.
    Returns each report's time scaled to the reference speed, the raw times,
    the bytes rendered per pass and the number of passes.
    """
    marks: list[float] = []
    times: list[float] = []
    nbytes = done = 0
    start = perf_counter()
    for reqs in passes:
        for req in reqs:
            began = perf_counter()
            dt, out, error = run_one(req, len(times))
            marks.append(began + dt / 2)
            tally.record(req, out, error)
            times.append(dt)
            nbytes += utf8_len(out)
            del out  # so the next report does not run while this one is still held
            speed.maybe_probe()
            if between is not None:
                paused = perf_counter()
                between(paused - start)
                start += perf_counter() - paused
        done += 1
        elapsed = perf_counter() - start
        if elapsed >= MAX_MEASURE_S or (elapsed >= seconds and len(times) >= min_samples):
            break
    speed.probe()  # so the last reports have timings on both sides
    scaled = [dt * speed.scale(at) for at, dt in zip(marks, times)]
    return scaled, times, nbytes / done, done


def utf8_len(text: str | None) -> int:
    """Bytes of text in UTF-8, without an encoded copy for ASCII text."""
    if text is None:
        return 0
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def setup_time(runner: Runner, req: Request, tally: Tally) -> tuple[float, float] | None:
    """A fresh interpreter from before `import dehn4` to the end of its first
    report: the midpoint of the child's life and the time it measured."""
    began = perf_counter()
    proc = runner.python(CHILD, "setup", req.to_json())
    if proc.returncode != 0:
        tally.record(req, None, f"set-up child failed: {proc.stderr.strip()[-300:]}")
        return None
    result = json.loads(proc.stdout)
    tally.record(req, result["output"])
    return (began + perf_counter()) / 2, result["setup_s"]


def import_breakdown(runner: Runner, speed: Speed, runs: int) -> dict[str, float]:
    """Median cumulative import time of sympy and of dehn4, from -X importtime,
    scaled to the reference speed."""
    runner.python("-c", "import dehn4")  # untimed: leaves the bytecode cache warm
    found: dict[str, list[float]] = {"sympy": [], "dehn4": []}
    for _ in range(runs):
        speed.probe()
        began = perf_counter()
        proc = runner.python("-X", "importtime", "-c", "import dehn4")
        at = (began + perf_counter()) / 2
        speed.probe()
        seen = dict.fromkeys(found, 0.0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, package = (part.strip() for part in line[12:].split("|"))
            if package in seen and cumulative.isdigit():
                seen[package] = int(cumulative) / 1e6
        for key, value in seen.items():
            found[key].append(value * speed.scale(at))
    return {key: statistics.median(values) for key, values in found.items()}


def tail(times: list[float], pct: int) -> float:
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=100, method="inclusive")[pct - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, runner: Runner, tally: Tally, lines: list[str]) -> dict:
    cold = args.workload == "cli-cold"
    pct = TAIL_PCT[args.workload]
    min_samples = 1 if args.tiny else math.ceil(10 / (1 - pct / 100))
    cold_speed = speeds.cold()
    speed = cold_speed if cold else speeds.loop()
    warm = workloads.warmup_request(args.workload)
    runner.python("-c", "import dehn4")  # untimed: leaves the bytecode cache warm
    for _ in range(WARM_PROBES):
        speed.probe()
    # Set-up runs are spread evenly over the measurement, so that their
    # median sees the same machine as the reports do; the cold reference is
    # timed just before and just after each.
    runs = 1 if args.tiny else SETUP_RUNS
    setups: list[tuple[float, float]] = []
    attempts = 0

    def next_setup(elapsed: float = math.inf):
        nonlocal attempts
        if attempts < runs and elapsed >= attempts * args.seconds / runs:
            attempts += 1
            cold_speed.probe()
            result = setup_time(runner, warm, tally)
            cold_speed.probe()
            if result is not None:
                setups.append(result)

    next_setup()
    if cold:
        run_one = runner.cold
    else:
        runner.load()
        _, out, error = runner.in_process(warm, -1)  # lazy first-use work happens here
        tally.record(warm, out, error)
        run_one = runner.in_process
    times, raw, nbytes, passes = measure(workloads.passes(args.workload, args.seed, args.tiny),
                                         run_one, tally, speed, args.seconds, min_samples,
                                         next_setup)
    while attempts < runs:
        next_setup()
    setup_s = [dt * cold_speed.scale(at) for at, dt in setups]
    peak_kb = runner.peak_child_kb if cold else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    beyond = sum(1 for t in times if t > tail(times, pct))
    raw_setup = statistics.median(dt for _, dt in setups) if setups else 0.0
    lines += [
        f"closed loop, 1 client: {passes} passes of {len(times) // passes} reports",
        f"report_ms.tail is p{pct} of {len(times)} samples ({beyond} beyond it)",
        f"setup_s is the median of {len(setup_s)} fresh interpreters",
        "times are scaled to the reference speed (see speed.py):",
        *(f"  {s.describe()}" for s in dict.fromkeys((speed, cold_speed))),
        f"raw: report p50 {statistics.median(raw) * 1e3:.4f} ms, p{pct} {tail(raw, pct) * 1e3:.4f} ms, "
        f"{len(raw) / sum(raw):.4f} reports/s, setup {raw_setup:.4f} s",
    ]
    return {
        "report_ms.p50": metric(statistics.median(times) * 1e3, "ms"),
        "report_ms.tail": metric(tail(times, pct) * 1e3, "ms"),
        "reports_per_s": metric(len(times) / sum(times), "1/s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MiB"),
        "report_bytes": metric(nbytes, "bytes"),
        "setup_s": metric(statistics.median(setup_s) if setup_s else 0.0, "s"),
    }


def per_layer(args, runner: Runner, tally: Tally, lines: list[str]) -> dict:
    imports = import_breakdown(runner, speeds.cold(), 1 if args.tiny else IMPORT_RUNS)
    half = args.seconds / 2
    speed = speeds.cold() if args.workload == "cli-cold" else speeds.loop()
    for _ in range(WARM_PROBES):
        speed.probe()
    if args.workload == "cli-cold":
        run_one = runner.cold
    else:
        runner.load()
        run_one = runner.in_process
        warm = workloads.warmup_request(args.workload)
        _, out, error = run_one(warm, -1)
        tally.record(warm, out, error)
    base, _, _, _ = measure(workloads.passes(args.workload, args.seed, args.tiny),
                            run_one, tally, speed, half, 1)
    with tracing.Tracer() as tr:
        runner.tracer = tr
        traced, traced_raw, _, passes = measure(
            workloads.passes(args.workload, args.seed, args.tiny), run_one, tally, speed, half, 1)
    runner.tracer = None
    # cold children bring their own spans; in-process spans are the tracer's
    spans, counts = (runner.spans, runner.counts) if args.workload == "cli-cold" else (tr.spans, tr.counts)
    write_spans(args, spans)
    total = sum(traced_raw)  # spans hold raw times
    out = {
        "import.sympy_s": metric(imports["sympy"], "s"),
        "import.dehn4_s": metric(imports["dehn4"], "s"),
        "trace.overhead_ms": metric((statistics.median(traced) - statistics.median(base)) * 1e3, "ms"),
    }
    for name, (calls, self_s, max_size) in tracing.self_times(spans).items():
        out[f"{name}.calls"] = metric(calls / passes, "count")
        out[f"{name}.self_pct"] = metric(100 * self_s / total, "%")
        if name in tracing.SIZES:
            out[f"{name}.max_size"] = metric(max_size, "size")
    for name, unit in tracing.COUNTS.items():
        out[name] = metric(counts.get(name, 0) / passes, unit)
    lines.append(
        f"traced {passes} passes ({len(traced)} reports, {len(spans)} spans); "
        f"calls and counts are per pass, self_pct is the share of traced report time"
    )
    return out


def write_spans(args, spans):
    out_dir = Path(".bench_out")
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    keys = ("name", "start", "end", "parent", "request", "size")
    with path.open("w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="dehn4 benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="smoke-test size")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dehn4" / "__init__.py").is_file():
        print("bench: run from the root of a dehn4 checkout (src/dehn4 not found)", file=sys.stderr)
        return 2
    runner, tally, lines = Runner(root), Tally(), []
    metrics = (per_layer if args.trace else end_to_end)(args, runner, tally, lines)

    print(f"workload {args.workload}, seed {args.seed}")
    for line in lines:
        print(f"  {line}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.4f} {m['unit']}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_ratio':<40} {ratio:>14.4f} ({tally.failed}/{tally.attempted})")
    for error in tally.errors:
        print(f"bench: incorrect report: {error}", file=sys.stderr)
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
