"""Monte Carlo experiment harness: sweeps, trials, summaries, CSV/JSON output.

One scenario (topology + shadowing) is generated per sweep value; each trial
redraws only the fast fading. Seeds are derived from the master seed so that
identical specs reproduce identical result tables byte for byte.
"""

import csv
import dataclasses
import io
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .scenario import CONFIG_FIELDS, ScenarioConfig, generate, realize_channels, with_channel
from .model import sum_left_to_right
from .mwis import ORDERINGS
from .schedulers import SCHEMES, check_size, run_scheme

class HarnessError(RuntimeError):
    pass


# the config fields a sweep cannot set, and why
_UNSWEPT = {
    "seed": "the master seed is --seed",
    **{name: f"it holds one (x, y) pair per {what}, but a sweep value is one number or one "
             "lo:hi pair; set it in the config file"
       for name, what in (("ap_positions", "AP"), ("mec_positions", "MEC"))},
}


def check_sweep_var(name: str):
    """Refuse a sweep variable that names no ScenarioConfig field, or a
    field a sweep cannot set."""
    if name in _UNSWEPT:
        raise HarnessError(f"{name} cannot be swept; {_UNSWEPT[name]}")
    if name not in CONFIG_FIELDS:
        raise HarnessError(f"unknown sweep variable {name!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    config: ScenarioConfig
    sweep_var: str = "n_uds"
    sweep_values: tuple = (24,)
    schemes: tuple = SCHEMES
    trials: int = 10
    master_seed: int = 0
    strict_cc2: bool = False
    mwis_ordering: str = "original"
    fallback_local: bool = True
    max_iters: int = 5
    timings: bool = False

    def __post_init__(self):
        check_sweep_var(self.sweep_var)
        if not self.sweep_values:
            raise HarnessError("sweep_values is empty")
        if not self.schemes:
            raise HarnessError("schemes is empty")
        unknown = [s for s in self.schemes if s not in SCHEMES]
        if unknown:
            raise HarnessError(f"unknown schemes: {', '.join(unknown)}")
        repeated = sorted({s for s in self.schemes if self.schemes.count(s) > 1})
        if repeated:
            raise HarnessError(f"schemes listed more than once: {', '.join(repeated)}")
        for name, low in (("trials", 1), ("max_iters", 1), ("master_seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise HarnessError(f"{name} must be an int >= {low}, got {value!r}")
        for name in ("strict_cc2", "fallback_local", "timings"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise HarnessError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.mwis_ordering not in ORDERINGS:
            raise HarnessError(f"unknown mwis_ordering {self.mwis_ordering!r}")
        reported = {}     # per sweep_value, the first sweep value reported as it
        for index, value in enumerate(self.sweep_values):
            try:
                _value_config(self, index, value)
            except (TypeError, ValueError) as exc:
                raise HarnessError(f"bad sweep value {self.sweep_var}={value!r}: {exc}") from exc
            first = reported.setdefault(_scalar_value(value), value)
            if first != value:
                raise HarnessError(f"sweep values {self.sweep_var}={first!r} and {value!r} "
                                   f"both report sweep_value {_scalar_value(value)!r}")


@dataclass(frozen=True)
class ResultRow:
    scheme: str
    sweep_var: str
    sweep_value: float
    trial: int
    latency_s: float
    energy_j: float
    cost: float
    capacity: int
    scheduled: int
    wall_time_s: float
    vertices: int
    status: str = "ok"      # "error" for a trial that raised or gave a non-finite metric


# the CSV header and read_rows' conversions follow ResultRow's fields
CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(ResultRow))


def _derive_seed(*path) -> int:
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0])


def _value_config(spec: ExperimentSpec, index: int, value):
    scenario_seed = _derive_seed(spec.master_seed, index)
    return dataclasses.replace(spec.config, seed=scenario_seed,
                               **{spec.sweep_var: value})


def _scalar_value(value):
    if isinstance(value, (tuple, list)):
        return float(sum_left_to_right(value)) / len(value)
    return float(value)


def _run_value(args):
    """All trials and schemes for one sweep value, on the scenario
    generated for it. A trial that raises, or whose latency, energy or
    cost is not finite, warns on stderr and gets an all-zero row with
    status "error". Top-level for pickling."""
    spec, index, value, scenario = args
    rows = []
    options = {"strict_cc2": spec.strict_cc2, "fallback_local": spec.fallback_local,
               "mwis_ordering": spec.mwis_ordering, "max_iters": spec.max_iters}
    for trial in range(spec.trials):
        trial_scn = with_channel(scenario, realize_channels(scenario, trial))
        seed = _derive_seed(spec.master_seed, index, trial)
        for scheme in spec.schemes:
            start = time.perf_counter()
            try:
                _, plan = run_scheme(trial_scn, scheme, seed=seed, **options)
                for name in ("latency_s", "energy_j", "cost"):     # as Metrics names them
                    if not math.isfinite(getattr(plan.metrics, name)):
                        raise ArithmeticError(f"{name} is {getattr(plan.metrics, name)!r}")
            except Exception as exc:  # noqa: BLE001 - one bad trial must not sink the sweep
                print(f"warning: {scheme} failed at {spec.sweep_var}={value} "
                      f"trial {trial}: {exc}", file=sys.stderr)
                rows.append(ResultRow(scheme, spec.sweep_var, _scalar_value(value),
                                      trial, 0.0, 0.0, 0.0, 0, 0, 0.0, 0, "error"))
                continue
            elapsed = time.perf_counter() - start if spec.timings else 0.0
            m = plan.metrics
            rows.append(ResultRow(scheme, spec.sweep_var, _scalar_value(value), trial,
                                  float(m.latency_s), float(m.energy_j), float(m.cost),
                                  int(m.effective_capacity), int(m.scheduled_uds),
                                  elapsed, int(plan.extras.get("vertices", 0))))
    return rows


def run_experiment(spec: ExperimentSpec, workers: int = 1):
    """Run the sweep and return rows ordered by (value, trial, scheme).
    Every value's scenario is generated first, and check_size refuses one
    whose full candidate cells would pass the byte budget, so a value that
    either refuses stops the sweep before any trial. The pool gets at most
    one worker per value: a fork-started pool forks all of them at once."""
    units = [(spec, i, v, generate(_value_config(spec, i, v)))
             for i, v in enumerate(spec.sweep_values)]
    for unit in units:
        check_size(unit[3], spec.schemes)
    workers = min(workers, len(units))
    if workers <= 1:
        chunks = [_run_value(u) for u in units]
    else:
        # imported here: the pool's modules take tens of ms to load
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_value, units))
    return [row for chunk in chunks for row in chunk]


def summarize(rows):
    """Aggregate trials: per (scheme, sweep_value), ordered as first
    encountered, the trial count, how many of them failed, and the mean
    and population standard deviation over the ok trials, None when none
    is ok."""
    groups = {}     # insertion order is the order of first appearance
    for row in rows:
        groups.setdefault((row.scheme, row.sweep_value), []).append(row)
    out = []
    for (scheme, value), group in groups.items():
        ok = [r for r in group if r.status == "ok"]
        summary = {"scheme": scheme, "sweep_var": group[0].sweep_var,
                   "sweep_value": value, "trials": len(group),
                   "failed": len(group) - len(ok)}
        for metric in ("latency_s", "energy_j", "cost", "capacity", "scheduled"):
            data = np.array([getattr(r, metric) for r in ok], dtype=float)
            summary[f"{metric}_mean"] = float(data.mean()) if ok else None
            summary[f"{metric}_std"] = float(data.std(ddof=0)) if ok else None
        out.append(summary)
    return out


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([getattr(row, col) for col in CSV_COLUMNS])
    return buf.getvalue()


def rows_to_json(rows) -> str:
    return json.dumps([dataclasses.asdict(r) for r in rows], indent=2) + "\n"


def emit(rows, path: str, fmt: str = "csv"):
    """Write rows to path ("-" for stdout) as CSV or JSON."""
    if fmt == "csv":
        text = rows_to_csv(rows)
    elif fmt == "json":
        text = rows_to_json(rows)
    else:
        raise HarnessError(f"unknown output format {fmt!r}")
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise HarnessError(f"cannot write {path}: {exc}") from exc


def read_rows(path: str):
    """Read back a CSV produced by emit into ResultRow objects."""
    fields = dataclasses.fields(ResultRow)
    with open(path, newline="", encoding="utf-8") as fh:
        return [ResultRow(*(f.type(rec[f.name]) for f in fields))
                for rec in csv.DictReader(fh)]
