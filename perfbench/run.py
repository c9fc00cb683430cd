"""Benchmark of vhcomplex's verdict searches and CLI.

Run from the root of a source checkout; vhcomplex is imported from its
src/ directory, never from an installed copy:

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

One run sets a workload up, then repeats passes over all of its tasks
for about --seconds, checking every output.  It times a fixed reference
loop before and after every task and, from a timer signal, every
REFERENCE_INTERVAL_S while an untraced task runs; task times are
reported in units of the loops timed around and during them.  The
host's speed drifts by a quarter or more within seconds, and dividing
by a loop timed beside the task takes that drift out.  After each
untraced pass it times set-ups of the workload in fresh interpreters.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics.
Human-readable lines and a JSON run record come first on stdout; the last
line is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracing import Tracer, layer_wrappers

ROOT = Path(__file__).resolve().parent.parent
# Set-ups timed after each untraced pass; setup_s is their median.
SETUPS_PER_PASS = 3
# Traced passes per traced run, enough to compare counts between passes.
MIN_TRACED_PASSES = 2

# The reference loop: this many rounds over the permutations of 7
# points, 0.02-0.05 s on a 2-vCPU VM.
REFERENCE_ROUNDS = 8
REFERENCE_PERM = (3, 0, 6, 1, 5, 2, 4)
# While an untraced task runs, a timer signal times one loop every
# REFERENCE_INTERVAL_S seconds, so that a long task is compared with the
# host's speed while it ran.  The loop repeats for REFERENCE_FIRST_S
# before a pass's first task, and for REFERENCE_WARM_UP_S before the
# first pass.
REFERENCE_INTERVAL_S = 0.25
REFERENCE_FIRST_S = 0.25
REFERENCE_WARM_UP_S = 1.0

clock = time.perf_counter


def reference_loop() -> int:
    """Fixed pure-Python work of the library's kind, which never calls
    vhcomplex: compose every permutation of 7 points with a fixed one
    and count the products in a dict."""
    seen = {}
    for _ in range(REFERENCE_ROUNDS):
        for p in itertools.permutations(range(7)):
            q = tuple([p[i] for i in REFERENCE_PERM])
            seen[q] = seen.get(q, 0) + 1
    return len(seen)


def time_reference(at_least: float = 0.0) -> float:
    """Repeat the reference loop until at_least seconds have gone by,
    and at least once; the mean seconds of one loop."""
    start = clock()
    loops = 0
    while True:
        reference_loop()
        loops += 1
        elapsed = clock() - start
        if elapsed >= at_least:
            return elapsed / loops


def in_reference_units(task_s, ref_s, inside_s):
    """Each task's time over the mean seconds of the reference loops
    timed just before it, while it ran and just after it."""
    return [t / statistics.fmean([before, *inside, after])
            for t, before, inside, after
            in zip(task_s, ref_s, inside_s, ref_s[1:])]


def time_task(run, sample: bool):
    """Run one task; with sample, time a reference loop every
    REFERENCE_INTERVAL_S from SIGALRM while it runs.  Return (value,
    error, seconds without the loops, seconds of the loops)."""
    loops = []                # (start, seconds) of the loops run

    def on_alarm(signum, frame):
        loops.append((clock(), time_reference()))
    previous = signal.signal(signal.SIGALRM, on_alarm)
    start = clock()
    try:
        if sample:
            signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S,
                             REFERENCE_INTERVAL_S)
        try:
            value, error = run(), None
        except Exception:
            value, error = None, traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = clock()
        signal.signal(signal.SIGALRM, previous)
    inside = [s for t, s in loops if t + s <= end]
    return value, error, end - start - sum(inside), inside


@dataclass
class Pass:
    traced: bool
    task_s: list              # seconds of each task, without the loops
    ref_s: list               # one reference loop's seconds, timed before
                              # each task and after the last
    inside_s: list            # each task's loops timed while it ran
    failures: list            # (task label, message)
    trace: tuple = None       # (self times, counts) of a traced pass

    @property
    def wall_s(self) -> float:
        return sum(self.task_s)

    @property
    def task_ref(self) -> list:
        return in_reference_units(self.task_s, self.ref_s, self.inside_s)

    @property
    def wall_ref(self) -> float:
        return sum(self.task_ref)


def run_pass(workload, tracer=None, wrappers=None) -> Pass:
    """Time every task once between reference loops, then check the
    outputs outside the timing and, in a traced pass, outside the trace.
    A traced pass times no loops while a task runs: they would be
    charged to the layer they interrupt."""
    workload.reset()
    results = []
    ref_s = [time_reference(REFERENCE_FIRST_S)]
    inside_s = []
    if tracer is not None:
        tracer.install(workloads.PACKAGE, wrappers)
    try:
        for label, run, check in workload.tasks:
            value, error, seconds, inside = time_task(run, tracer is None)
            results.append((label, seconds, value, check, error))
            inside_s.append(inside)
            ref_s.append(time_reference())
    finally:
        if tracer is not None:
            tracer.uninstall()
    snapshot = tracer.take() if tracer is not None else None
    failures = []
    for label, _, value, check, error in results:
        if error is None:
            try:
                error = check(value)
            except Exception:
                error = traceback.format_exc()
        if error:
            failures.append((label, error))
    return Pass(tracer is not None, [r[1] for r in results], ref_s, inside_s,
                failures, snapshot)


def layer_value(name, setup_trace, pass_traces, overhead_ratio):
    """A per-layer metric over one traced set-up plus one traced pass:
    times are the set-up's plus the median pass's, counts are the
    set-up's plus a pass's (passes must agree), ratios divide counts by
    the layer's calls."""
    if name == "trace.overhead_ratio":
        return overhead_ratio
    if name.endswith(".self_s"):
        layer = name[:-len(".self_s")]
        return setup_trace[0].get(layer, 0.0) + statistics.median(
            t[0].get(layer, 0.0) for t in pass_traces)

    def count(key):
        return setup_trace[1].get(key, 0) + pass_traces[0][1].get(key, 0)
    if name.endswith("_ratio"):
        calls = count(name.rsplit(".", 1)[0] + ".calls")
        return count(name[:-len("_ratio")]) / calls if calls else 0.0
    return count(name)


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def fresh_dir(path: Path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def time_set_up(args, workdir: Path) -> float:
    """Seconds one set-up takes in a fresh interpreter."""
    fresh_dir(workdir)
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_time.py")),
         str(ROOT / "src"), args.workload, str(args.seed), str(workdir)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def bench(args, spec, workdir: Path) -> int:
    try:
        fresh_dir(workdir)
        lib = workloads.import_library(ROOT / "src")
        workload = workloads.build(args.workload, lib, args.seed, workdir)
    except (ImportError, OSError, ValueError) as exc:
        print("error: cannot set the benchmark up: %s" % exc,
              file=sys.stderr)
        return 2

    tracer = wrappers = setup_trace = None
    if args.trace:
        tracer = Tracer()
        wrappers = layer_wrappers(tracer, lib)
        fresh_dir(workdir)
        tracer.install(workloads.PACKAGE, wrappers)
        try:
            workload = workloads.build(args.workload, lib, args.seed, workdir)
        finally:
            tracer.uninstall()
        setup_trace = tracer.take()

    time_reference(REFERENCE_WARM_UP_S)
    passes = []
    setup_s = []
    start = clock()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(workload, tracer if traced else None,
                               wrappers))
        if not args.trace:
            setup_s += [time_set_up(args, workdir / "setup")
                        for _ in range(SETUPS_PER_PASS)]
        n_traced = sum(p.traced for p in passes)
        if clock() - start >= args.seconds and \
                (not args.trace or n_traced >= MIN_TRACED_PASSES):
            break

    plain = [p for p in passes if not p.traced]
    traces = [p.trace for p in passes if p.traced]
    wall_ref = statistics.median(p.wall_ref for p in plain)
    attempted = sum(len(p.task_s) for p in passes)
    failures = [f for p in passes for f in p.failures]
    counts_repeat = all(t[1] == traces[0][1] for t in traces)

    if args.trace:
        overhead = statistics.median(p.wall_ref for p in passes
                                     if p.traced) / wall_ref
        values = {m["name"]: layer_value(m["name"], setup_trace, traces,
                                         overhead)
                  for m in spec["per_layer"]}
        metric_specs = spec["per_layer"]
    else:
        values = {
            "wall_ref": wall_ref,
            "longest_verdict_ref": statistics.median(max(p.task_ref)
                                                     for p in plain),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_s),
        }
        metric_specs = spec["end_to_end"]

    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    print("workload %s (seed %d, trace %d): %s"
          % (args.workload, args.seed, args.trace, why))
    for m in metric_specs:
        print("  %-44s %14.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    print("  wall_ref is the median of %d untraced passes (%.4g s of tasks "
          "a pass, reference loop %.4g s); setup_s of %d set-ups"
          % (len(plain), statistics.median(p.wall_s for p in plain),
             statistics.median(r for p in plain for r in p.ref_s),
             len(setup_s)))
    print("  failed_ratio %d/%d tasks = %.4g"
          % (len(failures), attempted, len(failures) / attempted))
    for label, message in failures:
        print("  FAILED %s: %s" % (label, message.strip()), file=sys.stderr)
    if not counts_repeat:
        first = traces[0][1]
        differ = sorted({k for t in traces for k in set(t[1]) | set(first)
                         if t[1].get(k) != first.get(k)})
        print("  FAILED counts differ between traced passes: %s"
              % ", ".join(differ), file=sys.stderr)

    record = {
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "git_sha": git_sha(),
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s": setup_s,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                    "wall_ref": p.wall_ref, "task_s": p.task_s,
                    "ref_s": p.ref_s, "inside_s": p.inside_s}
                   for p in passes],
        "tasks": len(workload.tasks),
    }
    if args.trace:
        record["setup_trace"] = {"self_s": setup_trace[0],
                                 "counts": setup_trace[1]}
        record["pass_traces"] = [{"self_s": t[0], "counts": t[1]}
                                 for t in traces]
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not failures and counts_repeat,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    # the searches must run single-threaded, whatever the environment says
    os.environ.pop("VHCOMPLEX_WORKERS", None)
    workdir = ROOT / ".perfbench_work" / ("run-%d" % os.getpid())
    try:
        return bench(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
