"""Monte Carlo harness: sweeps, determinism, summaries, and I/O."""

import ast
import concurrent.futures
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from nomec import (CSV_COLUMNS, ConfigError, ExperimentSpec, HarnessError, ResultRow,
                   ScenarioConfig, run_experiment)
from nomec import harness
from nomec.cli import main
from nomec.harness import emit, read_rows, rows_to_csv, rows_to_json, summarize

TINY = ScenarioConfig(n_uds=6, n_aps=3, n_mecs=2, rrbs_per_ap=2)


def tiny_spec(**overrides):
    base = dict(config=TINY, sweep_var="n_uds", sweep_values=(6,),
                schemes=("random", "joint"), trials=2, master_seed=1)
    base.update(overrides)
    return ExperimentSpec(**base)


def make_row(**overrides):
    base = dict(scheme="joint", sweep_var="n_uds", sweep_value=24.0, trial=0,
                latency_s=0.1, energy_j=0.2, cost=0.15, capacity=5,
                scheduled=6, wall_time_s=0.0, vertices=100)
    base.update(overrides)
    return ResultRow(**base)


def test_spec_validation():
    with pytest.raises(HarnessError):
        tiny_spec(sweep_var="bandwidth")
    with pytest.raises(HarnessError):
        tiny_spec(sweep_values=())
    with pytest.raises(HarnessError):
        tiny_spec(schemes=("joint", "optimal"))
    for name in ("trials", "max_iters"):
        for value in (0, 2.5, True, False, "2", None):
            with pytest.raises(HarnessError, match=name):
                tiny_spec(**{name: value})
    with pytest.raises(HarnessError, match="schemes"):
        tiny_spec(schemes=())
    # a repeated scheme would write every one of its rows twice
    with pytest.raises(HarnessError, match="more than once: joint$"):
        tiny_spec(schemes=("joint", "joint", "pruning"))
    for value in (-1, 2.5, True, False, "2", None):
        with pytest.raises(HarnessError, match="master_seed"):
            tiny_spec(master_seed=value)
    assert tiny_spec(master_seed=0).master_seed == 0


def test_spec_rejects_unsweepable_fields_by_name():
    """seed and the position fields are config fields no sweep can set;
    the spec names the field and says why."""
    with pytest.raises(HarnessError, match="seed cannot be swept; the master seed is --seed"):
        tiny_spec(sweep_var="seed", sweep_values=(1, 2))
    for var, values in (("ap_positions", (((0.0, 0.0),) * 3,)),
                        ("mec_positions", ((1.0, 2.0),))):
        with pytest.raises(HarnessError, match=f"^{var} cannot be swept; .*pair per"):
            tiny_spec(sweep_var=var, sweep_values=values)


def test_spec_rejects_unknown_ordering_and_bad_sweep_values():
    with pytest.raises(HarnessError, match="lightest"):
        tiny_spec(mwis_ordering="lightest")
    for var, values in (("n_uds", (6, 0)), ("n_uds", (True,)), ("w_latency", (float("nan"),)),
                        ("ap_positions", (1.0,)), ("task_size_range_bits", ((600.0, 400.0),))):
        with pytest.raises(HarnessError, match=var):
            tiny_spec(sweep_var=var, sweep_values=values)


def test_spec_rejects_sweep_values_that_report_one_sweep_value():
    """Rows carry a range value as its mean, and summaries group by it, so
    two ranges with one mean would merge into one summary."""
    with pytest.raises(HarnessError, match=r"\(400\.0, 600\.0\) and \(300\.0, 700\.0\)"):
        tiny_spec(sweep_var="task_size_range_bits",
                  sweep_values=((400.0, 600.0), (300.0, 700.0)))
    # a repeated value is the same point, and distinct means stay apart
    assert tiny_spec(sweep_var="task_size_range_bits",
                     sweep_values=((400.0, 600.0), (400.0, 600.0), (300.0, 600.0)))
    assert tiny_spec(sweep_var="n_uds", sweep_values=(6, 6, 8))


def test_import_leaves_the_process_pool_unloaded():
    """The pool's modules load only when run_experiment starts workers."""
    code = ("import sys, nomec; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_row_ordering_follows_spec():
    spec = tiny_spec(sweep_values=(6, 8), trials=2)
    rows = run_experiment(spec)
    assert len(rows) == 2 * 2 * 2
    want = [(v, t, s) for v in (6.0, 8.0) for t in (0, 1)
            for s in ("random", "joint")]
    got = [(r.sweep_value, r.trial, r.scheme) for r in rows]
    assert got == want


def test_runs_are_reproducible():
    spec = tiny_spec(sweep_values=(6, 8))
    assert run_experiment(spec) == run_experiment(spec)


def test_worker_count_does_not_change_rows():
    spec = tiny_spec(sweep_values=(6, 8))
    assert run_experiment(spec, workers=1) == run_experiment(spec, workers=2)


def test_pool_holds_at_most_one_worker_per_sweep_value(monkeypatch):
    """A fork-started pool forks every worker at its first submit, however
    few values it gets, so the pool is capped at the number of values. A
    serial fake pool stands in, so no process starts."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, units):
            return map(fn, units)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    spec = tiny_spec(sweep_values=(6, 8))
    assert run_experiment(spec, workers=64) == run_experiment(spec)
    assert sizes == [2]
    run_experiment(tiny_spec(trials=1), workers=64)     # one value runs serially
    assert sizes == [2]


def test_a_value_generate_refuses_stops_the_sweep_before_any_trial(monkeypatch):
    """Every value's scenario is generated before the first trial, so the
    spread that overflows a gain at the second value is refused before the
    first value runs, serially and pooled."""
    calls = []
    monkeypatch.setattr("nomec.harness.run_scheme", lambda *args, **kwargs: calls.append(args))
    spec = tiny_spec(config=ScenarioConfig(), sweep_var="shadowing_std_db",
                     sweep_values=(4.0, 1500.0))
    for workers in (1, 2):
        with pytest.raises(ConfigError, match="shadowing_std_db 1500.0"):
            run_experiment(spec, workers=workers)
    assert calls == []


def test_tuple_sweep_value_becomes_mean():
    spec = tiny_spec(sweep_var="task_size_range_bits",
                     sweep_values=((800.0, 1200.0),), schemes=("random",),
                     trials=1)
    rows = run_experiment(spec)
    assert all(r.sweep_value == 1000.0 for r in rows)


def test_tuple_sweep_value_sums_left_to_right():
    """A tuple value's mean adds its entries one at a time, in order, on
    every Python."""
    assert harness._scalar_value((2.0 ** 53, 1.0, 1.0)) == 2.0 ** 53 / 3
    assert harness._scalar_value([0.1, 0.2, 0.3]) == 0.6000000000000001 / 3


def test_wall_time_column():
    off = run_experiment(tiny_spec(trials=1))
    assert all(r.wall_time_s == 0.0 for r in off)
    on = run_experiment(tiny_spec(trials=1, timings=True))
    assert all(r.wall_time_s > 0.0 for r in on)
    assert all(r.vertices > 0 for r in on)


def test_failed_trial_yields_error_row(monkeypatch, tmp_path, capsys):
    """One injected failure, through the CLI: the failed trial gets an
    all-zero row with status error and its error reaches stderr; every
    other row is the clean run's; the summary counts the failure and
    averages the other trials only; and the run exits 2 after writing
    every row and the summary."""
    clean = run_experiment(tiny_spec(trials=3))
    real, calls = harness.run_scheme, []

    def fail_second_joint(scenario, scheme, **kwargs):
        calls.append(scheme)
        if scheme == "joint" and calls.count("joint") == 2:
            raise RuntimeError("injected failure")
        return real(scenario, scheme, **kwargs)

    monkeypatch.setattr("nomec.harness.run_scheme", fail_second_joint)
    config, out = tmp_path / "tiny.json", tmp_path / "rows.csv"
    config.write_text(json.dumps({"n_uds": 6, "n_aps": 3, "n_mecs": 2, "rrbs_per_ap": 2}),
                      encoding="utf-8")
    code = main(["--config", str(config), "--schemes", "random,joint", "--trials", "3",
                 "--seed", "1", "--summary", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "injected failure" in err and err.endswith("error: 1 of 6 scheme trials failed\n")
    failed = ResultRow("joint", "n_uds", 6.0, 1, 0.0, 0.0, 0.0, 0, 0, 0.0, 0, "error")
    assert read_rows(str(out)) == [failed if (r.scheme, r.trial) == ("joint", 1) else r
                                   for r in clean]
    summaries = {s["scheme"]: s for s in map(ast.literal_eval, err.splitlines()[1:-1])}
    assert summaries["random"]["failed"] == 0 and summaries["joint"]["failed"] == 1
    for scheme, summary in summaries.items():
        ok = [r for r in clean if r.scheme == scheme and (scheme, r.trial) != ("joint", 1)]
        assert summary["trials"] == 3
        for metric in ("latency_s", "energy_j", "cost", "capacity", "scheduled"):
            assert summary[f"{metric}_mean"] == float(np.mean([getattr(r, metric) for r in ok]))


def test_summarize_leaves_failed_trials_out():
    """Error rows count as failed and stay out of the means; a group with
    no ok trial gets None means and deviations, without a numpy warning."""
    rows = [make_row(trial=0, cost=1.0), make_row(trial=1, cost=0.0, status="error"),
            make_row(trial=2, cost=3.0), make_row(scheme="random", status="error")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        joint, random_ = summarize(rows)
    assert (joint["trials"], joint["failed"]) == (3, 1)
    assert joint["cost_mean"] == 2.0 and joint["cost_std"] == 1.0
    assert (random_["trials"], random_["failed"]) == (1, 1)
    assert all(random_[f"{metric}_{stat}"] is None for stat in ("mean", "std")
               for metric in ("latency_s", "energy_j", "cost", "capacity", "scheduled"))


def test_summarize_values():
    rows = [make_row(trial=0, capacity=2, latency_s=0.1),
            make_row(trial=1, capacity=4, latency_s=0.3)]
    out = summarize(rows)
    assert len(out) == 1
    s = out[0]
    assert s["scheme"] == "joint" and s["trials"] == 2
    assert s["capacity_mean"] == pytest.approx(3.0)
    assert s["capacity_std"] == pytest.approx(1.0)
    assert s["latency_s_mean"] == pytest.approx(0.2)
    assert summarize([]) == []


def test_summarize_groups_by_scheme_and_value():
    rows = [make_row(scheme="joint", sweep_value=6.0),
            make_row(scheme="random", sweep_value=6.0),
            make_row(scheme="joint", sweep_value=8.0),
            make_row(scheme="joint", sweep_value=6.0, trial=1)]
    out = summarize(rows)
    keys = [(s["scheme"], s["sweep_value"]) for s in out]
    assert keys == [("joint", 6.0), ("random", 6.0), ("joint", 8.0)]
    assert out[0]["trials"] == 2


def test_csv_round_trip(tmp_path):
    rows = [make_row(latency_s=1.0 / 3.0, energy_j=2e-7),
            make_row(trial=1, scheme="random", wall_time_s=0.25),
            make_row(trial=2, status="error")]
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    path = tmp_path / "rows.csv"
    path.write_text(text, encoding="utf-8")
    assert read_rows(str(path)) == rows


def test_json_fields():
    payload = json.loads(rows_to_json([make_row()]))
    assert payload[0]["scheme"] == "joint"
    assert set(payload[0]) == set(CSV_COLUMNS)


def test_emit_targets(tmp_path, capsys):
    rows = [make_row()]
    out = tmp_path / "r.csv"
    emit(rows, str(out))
    assert out.read_text(encoding="utf-8") == rows_to_csv(rows)
    emit(rows, "-", fmt="json")
    assert capsys.readouterr().out == rows_to_json(rows)
    with pytest.raises(HarnessError):
        emit(rows, str(out), fmt="yaml")
    with pytest.raises(HarnessError):
        emit(rows, str(tmp_path / "missing" / "r.csv"))
