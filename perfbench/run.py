#!/usr/bin/env python3
"""Benchmark of the nomec simulator, one workload per process.

    python3 perfbench/run.py --workload paper-default --seed 1 --seconds 42 --trace 0

Calls the library's public API in the order of ``harness._run_value``:
``generate`` once per topology, then per fading trial ``realize_channels``
and ``with_channel``, then ``run_scheme`` for all five schemes. Every call is
timed from outside and every result is checked (see checks.py). A run
repeats whole rounds of the workload's trials until the next round would
end after ``--seconds``; one operation is one ``run_scheme`` call.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` follows every
untraced round with the same round run with every layer wrapped in spans
(see tracer.py); it prints the per-layer metrics and the tracing overhead,
and checks that the traced rounds decided exactly what the untraced ones
did. The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; a fuller record, with the host, goes to
perfbench/results/.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import nomec  # noqa: E402
from nomec import SCHEMES, generate, realize_channels, run_scheme, with_channel  # noqa: E402

if Path(nomec.__file__).resolve().parent != ROOT / "src" / "nomec":
    sys.exit(f"nomec was imported from {nomec.__file__}, not from this checkout's src/")

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
QUALITY_SCHEMES = ("joint", "pruning")
END_TO_END = (
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("trial_s", "s", "lower"),
    *((f"{s}_s", "s", "lower") for s in SCHEMES),
    ("peak_rss_mb", "MB", "lower"),
    *((f"{s}_cost", "cost", "lower") for s in QUALITY_SCHEMES),
    *((f"{s}_capacity", "UDs", "higher") for s in QUALITY_SCHEMES),
)
TRACE_OVERHEAD = ("trace.overhead_pct", "%", "lower")


def host_record():
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "system": platform.system()}


def measure_setup(name):
    """Wall time of a fresh interpreter that imports nomec and generates every
    topology of the workload: the set-up a run pays before its first trial."""
    code = (f"import sys; sys.path[:0] = {[str(BENCH), str(ROOT / 'src')]!r}; "
            f"import workloads; workloads.setup({name!r})")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120)
    return time.perf_counter() - start


class Runner:
    """Runs rounds of one workload and keeps timings, checks and quality."""

    def __init__(self, workload, seed, scenarios):
        self.workload = workload
        self.scenarios = scenarios
        self.trials = workloads.trials(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = {}          # (trial, scheme) -> fingerprint of the first round
        self.quality = defaultdict(list)     # first-round costs and capacities

    def round(self, tr=None):
        """One pass over the trials; returns {timing name: [seconds]}, one
        sample per trial: <scheme>_s is the mean time of the scheme's calls
        in the trial, trial_s the realization plus those five times."""
        times = defaultdict(list)
        first = not self.reference
        for k, (t, _, channel_seed, scheme_seed) in enumerate(self.trials):
            scenario = self.scenarios[t]
            start = time.perf_counter()
            if tr is None:
                trial_scn = with_channel(scenario, realize_channels(scenario, channel_seed))
            else:
                trial_scn = tr.call("scenario.realize_channels", lambda: with_channel(
                    scenario, realize_channels(scenario, channel_seed)))
            trial_s = time.perf_counter() - start
            complete = True
            for scheme in SCHEMES:
                calls = self.workload.repeats.get(scheme, 1)
                elapsed = [self._operation(k, scheme, trial_scn, scheme_seed, first and r == 0, tr)
                           for r in range(calls)]
                if None in elapsed:
                    complete = False
                    continue
                times[f"{scheme}_s"].append(sum(elapsed) / calls)
                trial_s += sum(elapsed) / calls
            if complete:
                times["trial_s"].append(trial_s)
        return times

    def _operation(self, k, scheme, scenario, scheme_seed, first, tr):
        """One checked run_scheme call; its time, or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tr is None:
                schedule, plan = run_scheme(scenario, scheme, seed=scheme_seed,
                                            **self.workload.options)
            else:
                tr.scope = scheme
                try:
                    schedule, plan = tr.call("schedulers.run_scheme", run_scheme, scenario,
                                             scheme, seed=scheme_seed, **self.workload.options)
                finally:
                    tr.scope = None
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            print(f"operation failed: {scheme} on trial {k}\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None
        elapsed = time.perf_counter() - start
        self._verify(k, scheme, scenario, schedule, plan, first, traced=tr is not None)
        if tr is not None:
            tr.scope = scheme
            tr.end_operation(plan)
            tr.scope = None
        return elapsed

    def _verify(self, k, scheme, scenario, schedule, plan, first, traced):
        try:
            checks.check_output(scheme, schedule, plan, scenario, self.workload.options["strict_cc2"])
            fp = checks.fingerprint(schedule, plan)
            if first:
                self.reference[(k, scheme)] = fp
                if scheme in QUALITY_SCHEMES:
                    self.quality[f"{scheme}_cost"].append(plan.metrics.cost)
                    self.quality[f"{scheme}_capacity"].append(plan.metrics.effective_capacity)
            elif fp != self.reference.get((k, scheme)):
                run = "traced run" if traced else "repeated round"
                raise checks.CheckError(f"{run} decided differently from the first round")
        except checks.CheckError as exc:
            self.errors.append(f"{scheme} on trial {k}: {exc}")
            print(f"check failed: {scheme} on trial {k}: {exc}", file=sys.stderr)


def timed_rounds(runner, seconds, tr=None, between=None):
    """Whole rounds until the next one would end after the budget; returns
    (rounds, untraced samples, traced samples), samples as {timing: [seconds]}.

    With a tracer, each untraced round is followed by the same round traced,
    so that both meet the same state of the host. between() runs after each
    round, inside the budget.
    """
    samples, traced = defaultdict(list), defaultdict(list)
    done = 0
    start = time.perf_counter()
    while True:
        for name, values in runner.round().items():
            samples[name] += values
        if tr is not None:
            with tracing.installed(tr):
                for name, values in runner.round(tr).items():
                    traced[name] += values
        done += 1
        if between is not None:
            between()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return done, samples, traced


def tail(values):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None below forty samples."""
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]
    return None


def run_workload(workload, seed, seconds, trace, setup=False):
    """Run one workload in this process; returns the result record.

    With setup, set-up time is also measured SETUP_REPEATS times or more,
    once after each round, so that its samples span the run.
    """
    tr = tracing.Tracer() if trace else None
    setup_times = []

    def sample_setup():
        setup_times.append(measure_setup(workload.name))

    configs = workloads.topology_configs(workload)
    if tr is None:
        scenarios = [generate(cfg) for cfg in configs]
    else:
        scenarios = [tr.call("scenario.generate", generate, cfg) for cfg in configs]
    runner = Runner(workload, seed, scenarios)
    rounds, samples, traced = timed_rounds(runner, seconds, tr,
                                           between=sample_setup if setup else None)
    while setup and len(setup_times) < SETUP_REPEATS:
        sample_setup()
    record = {"rounds": rounds, "trials_per_round": len(runner.trials)}
    timings = {name: samples[name] for name in ("trial_s", *(f"{s}_s" for s in SCHEMES))}
    if trace:
        metrics = tracing.layer_metrics(tr, rounds * len(runner.trials))
        ratio = statistics.median(traced["trial_s"]) / statistics.median(timings["trial_s"])
        metrics[TRACE_OVERHEAD[0]] = (100.0 * (ratio - 1.0), TRACE_OVERHEAD[1])
    else:
        metrics = {name: (statistics.median(values), "s") for name, values in timings.items()}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        # cost is a maximum latency plus energy, so one weak upload can raise
        # a trial's cost tenfold (offload-mixed): the median keeps the metric
        # from following the few such trials a seed draws
        for name, values in runner.quality.items():
            if name.endswith("_cost"):
                metrics[name] = (statistics.median(values), "cost")
            else:
                metrics[name] = (statistics.fmean(values), "UDs")
    if setup:
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        record["setup_times_s"] = setup_times
    record["samples"] = {name: {"count": len(values), "tail": tail(values)}
                         for name, values in timings.items()}
    record["raw_samples"] = timings
    record.update(metrics=metrics, attempted=runner.attempted, failed=runner.failed,
                  errors=runner.errors)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    workload = workloads.WORKLOADS[args.workload]
    host = host_record()
    print("host: " + json.dumps(host))
    record = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                          setup=not args.trace)
    metrics = record["metrics"]

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{record['rounds']} round(s) x {record['trials_per_round']} trials, "
          f"{record['attempted']} operations attempted, {record['failed']} failed, "
          f"{len(record['errors'])} check failures")
    for name, (value, unit) in sorted(metrics.items()):
        line = f"  {name:40s} {value:14.6g} {unit}"
        if name in record["samples"]:
            t = record["samples"][name]
            line += f"  (median of {t['count']}"
            if t["tail"] is not None:
                line += f"; p{t['tail'][0]:g} {t['tail'][1]:.6g} s"
            line += ")"
        elif name == "setup_s":
            line += f"  (median of {len(record['setup_times_s'])} set-ups)"
        print(line)

    result = {"correct": not record["errors"], "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in sorted(metrics.items())}}
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"host": host, "args": vars(args), **record, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
