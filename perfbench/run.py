"""Benchmark of the hopfgal command line, one workload per process.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run it from anywhere; it loads hopfgal from the `src` directory next to
this one.  Each op is one in-process `cli.main([..., "--json"])` call in a
closed loop with one client (one op in flight, no threads).  The loop runs
whole passes over the workload's ops until `--seconds` have passed.

Every time in the result is scaled to a reference host speed by the probe
in `probe.py`, which times a fixed loop every 10 ms next to the work; the
lines above the result print the unscaled times too.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs half the time
untraced and half traced, and prints the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--workload all` runs every
workload in its own process and exits 1 if any op failed.
"""

import time

START = time.perf_counter()  # setup_s counts from here

import argparse
import contextlib
import gzip
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import gate
import probe
import stats
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_spans"

OP_TIMEOUT_S = 30.0  # an op slower than this is recorded as failed ("timeout")
DEADLINE_S = 150.0  # no op starts later than this after process start
SETUP_RUNS = 3  # setup_s is the median over this many fresh interpreters
COLD_RUNS = 5  # at least this many cold subprocess commands, whole passes

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("cold_cmd_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class Abort(Exception):
    """An op timed out or the run deadline passed: stop issuing ops."""


class Runner:
    """Issues the ops of one workload and gates their reports.

    `host` is a running `probe.Probe`: it scales the op times and enforces
    the per-op timeout.
    """

    def __init__(self, workload, directory, host):
        self.workload = workload
        self.ops = workload.ops
        self.directory = Path(directory)
        self.argv = [workloads.argv_in(op, directory) for op in workload.ops]
        self.gate = gate.Gate()
        self.host = host
        self.cli = importlib.import_module("hopfgal.cli")

    def left(self):
        """Seconds until the run deadline; Abort once it has passed."""
        left = START + DEADLINE_S - time.perf_counter()
        if left <= 0:
            raise Abort("run deadline passed")
        return left

    def budget(self):
        return min(OP_TIMEOUT_S, self.left())

    def call(self, index):
        """Run op `index` in process; return (start, end, exit code, stdout).

        The exit code is a description instead when the op raised.
        """
        out = io.StringIO()
        self.host.deadline = time.perf_counter() + self.budget()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(list(self.argv[index]))
        except SystemExit as exc:
            code = exc.code
        except probe.Timeout:
            self.gate.fail("timeout", " ".join(self.ops[index].argv))
            raise Abort("op timed out") from None
        except Exception as exc:  # a crash is a failed op, not a failed run
            code = f"raised {exc!r}"
        finally:
            self.host.deadline = None
        return t0, time.perf_counter(), code, out.getvalue()

    def passes(self, seconds):
        """Whole passes until `seconds` have passed.

        Returns the ops' (start, end) times; `latencies` turns them into seconds.
        """
        intervals, reports = [], []
        t0 = time.perf_counter()
        try:
            while True:
                for index in self.workload.next_pass():
                    start, end, code, stdout = self.call(index)
                    intervals.append((start, end))
                    reports.append((index, code, stdout))
                if time.perf_counter() - t0 >= seconds:
                    break
        finally:
            for index, code, stdout in reports:
                self.gate.check(index, self.ops[index], code, stdout)
        return intervals

    def latencies(self, intervals):
        """(scaled, unscaled) seconds of each op interval."""
        return ([self.host.scaled(t0, t1) for t0, t1 in intervals],
                [t1 - t0 for t0, t1 in intervals])

    def cold(self):
        """(scaled, unscaled) seconds of each op run in a fresh interpreter.

        The ops run as `python -m hopfgal.cli` would run them, each under a
        probe of its own (`python probe.py OUT hopfgal.cli ...`): whole
        passes, at least COLD_RUNS commands.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = self.directory / "cold-probe.json"
        scaled, unscaled = [], []
        order = list(range(len(self.ops)))
        order = (order * COLD_RUNS)[:max(COLD_RUNS, len(order))]
        for index in order:
            cmd = [sys.executable, str(HERE / "probe.py"), str(out), "hopfgal.cli",
                   *self.argv[index]]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                                      timeout=self.budget())
            except subprocess.TimeoutExpired:
                self.gate.fail("timeout", "cold " + " ".join(self.ops[index].argv))
                raise Abort("cold command timed out") from None
            wall = time.perf_counter() - t0
            self.gate.check(index, self.ops[index], proc.returncode, proc.stdout)
            loop_times = json.loads(out.read_text())
            scaled.append(probe.scale(wall, sum(loop_times), loop_times))
            unscaled.append(wall)
        return scaled, unscaled

    def setup_elsewhere(self, args):
        """(scaled, unscaled) setup seconds of fresh interpreters running `--setup-only`."""
        scaled, unscaled = [], []
        for _ in range(SETUP_RUNS - 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                   "--workload", args.workload, "--seed", str(args.seed)]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                      timeout=self.left())
            except subprocess.TimeoutExpired:
                self.gate.fail("timeout", "setup run")
                raise Abort("setup run timed out") from None
            try:
                child = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                self.gate.fail("exception", f"setup run exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            scaled.append(child["setup_s"])
            unscaled.append(child["unscaled_s"])
            self.gate.attempted += child["attempted"]
            for reason, count in child["reasons"].items():
                self.gate.reasons["setup " + reason] += count
        return scaled, unscaled


def prepare(args, directory, host):
    """Input generation, `import hopfgal.cli` and one untimed warm-up pass."""
    workload = workloads.generate(args.workload, args.seed)
    workloads.write_inputs(workload, directory)
    runner = Runner(workload, directory, host)
    for index in range(len(workload.ops)):
        _, _, code, stdout = runner.call(index)
        runner.gate.check(index, workload.ops[index], code, stdout)
    return runner


def _traced_passes(runner, seconds):
    tracer = tracing.Tracer()
    call = runner.call
    count = 0

    def traced_call(index):
        nonlocal count
        tracer.op = count
        count += 1
        return call(index)

    runner.call = traced_call
    try:
        with tracing.install(tracer):
            intervals = runner.passes(seconds)
    finally:
        runner.call = call
    return tracer, intervals


def write_spans(tracer, path):
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def measure_layers(args, runner):
    """Per-layer metrics of a half-untraced, half-traced run, and lines describing them."""
    lines = []
    plain, _ = runner.latencies(runner.passes(args.seconds / 2))
    tracer, intervals = _traced_passes(runner, args.seconds / 2)
    traced, _ = runner.latencies(intervals)
    values = tracing.layer_metrics(tracer, len(traced))
    values["trace.overhead_frac"] = statistics.mean(traced) / statistics.mean(plain) - 1
    spans_file = SPANS / f"{args.workload}.jsonl.gz"
    write_spans(tracer, spans_file)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in tracing.metric_names()}
    lines.append(f"traced {len(traced)} ops in {sum(traced):.3f} s, untraced "
                 f"{len(plain)} ops in {sum(plain):.3f} s (scaled); spans in {spans_file}")
    for name, m in metrics.items():
        lines.append(f"{name:44s} {m['value']:14.6g} {m['unit']}")
    return metrics, lines


def measure_end_to_end(args, runner, setup_main):
    """End-to-end metrics of an untraced run, and lines describing them."""
    latencies, raw_latencies = runner.latencies(runner.passes(args.seconds))
    cold, raw_cold = runner.cold()
    setups, raw_setups = runner.setup_elsewhere(args)
    setups.insert(0, setup_main[0])
    raw_setups.insert(0, setup_main[1])

    def summary(setups, latencies, cold):
        return {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "cold_cmd_ms": statistics.median(cold) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    values = summary(setups, latencies, cold)
    raw = summary(raw_setups, raw_latencies, raw_cold)
    counts = {"setup_s": len(setups), "ops_per_s": len(latencies), "op_p50_ms": len(latencies),
              "cold_cmd_ms": len(cold), "peak_rss_mb": 1}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    lines = [f"{'metric':12s} {'scaled':>12s} {'unit':6s} {'n':>6s} {'unscaled':>12s}"]
    for name, unit in END_TO_END:
        lines.append(f"{name:12s} {values[name]:12.4f} {unit:6s} {counts[name]:6d} "
                     f"{raw[name]:12.4f}")
    p90, raw_p90 = stats.tail(latencies), stats.tail(raw_latencies)
    if p90 is None:
        lines.append(f"op_p90_ms    not reported: fewer than {stats.TAIL_SAMPLES} of "
                     f"n={len(latencies)} ops lie beyond it")
    else:
        lines.append(f"{'op_p90_ms':12s} {p90 * 1000:12.4f} {'ms':6s} {len(latencies):6d} "
                     f"{raw_p90 * 1000:12.4f}")
    return metrics, lines


def run_workload(args):
    directory = WORK / f"{args.workload}-{os.getpid()}"
    host = probe.Probe()
    host.start()
    runner = None
    metrics, lines, aborted = {}, [], None
    try:
        runner = prepare(args, directory, host)
        now = time.perf_counter()
        setup_main = host.scaled(START, now), now - START
        if args.setup_only:
            g = runner.gate
            print(json.dumps({"setup_s": setup_main[0], "unscaled_s": setup_main[1],
                              "attempted": g.attempted, "reasons": dict(g.reasons)}))
            return 0
        if args.trace:
            metrics, lines = measure_layers(args, runner)
        else:
            metrics, lines = measure_end_to_end(args, runner, setup_main)
    except Abort as exc:
        if args.setup_only:
            return 1
        aborted = str(exc)
    finally:
        host.stop()
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    g = runner.gate if runner else gate.Gate()
    if aborted:
        g.fail("aborted", aborted)
        names = tracing.metric_names() if args.trace else END_TO_END
        metrics = {name: {"value": metrics.get(name, {}).get("value", 0.0), "unit": unit}
                   for name, unit in names}
    workload = runner.workload if runner else workloads.generate(args.workload, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  inputs {workload.params}  "
          f"trace {args.trace}  seconds {args.seconds}")
    for line in lines:
        print(line)
    ratio = g.failed / g.attempted if g.attempted else 1.0
    print(f"fail_ratio   {ratio:12.4f} ratio  failed={g.failed} attempted={g.attempted}")
    for reason, count in sorted(g.reasons.items()):
        example = g.examples.get(reason)
        print(f"  failed {reason}: {count}" + (f", e.g. {example}" if example else ""))
    print(json.dumps({"correct": g.failed == 0, "attempted": max(g.attempted, 1),
                      "failed": g.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process; exit 1 if any op failed."""
    results, status = {}, 0
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=DEADLINE_S + 60)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            results[name] = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            results[name] = None
        if proc.returncode != 0 or not results[name] or results[name]["failed"]:
            status = 1
        print()
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "hopfgal" / "cli.py").is_file():
        print(f"hopfgal sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
