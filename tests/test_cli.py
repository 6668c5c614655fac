"""Command line interface: argument handling, exit codes, output."""

import csv
import io
import json
import math
import warnings

import pytest

from nomec.cli import _parse_sweep, build_parser, main
from nomec.scenario import CONFIG_FIELDS


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_uds": 6, "n_aps": 3, "n_mecs": 2,
                                "rrbs_per_ap": 2}), encoding="utf-8")
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_sweep_forms():
    assert _parse_sweep("n_uds=6,12") == ("n_uds", (6, 12))
    assert _parse_sweep("deadline_s=0.01,0.02") == ("deadline_s", (0.01, 0.02))
    var, values = _parse_sweep("task_size_range_bits=400:600,800:1200")
    assert var == "task_size_range_bits"
    assert values == ((400.0, 600.0), (800.0, 1200.0))
    with pytest.raises(ValueError):
        _parse_sweep("n_uds")
    with pytest.raises(ValueError):
        _parse_sweep("n_uds=")
    with pytest.raises(ValueError):
        _parse_sweep("task_size_range_bits=400,600")
    for text in ("n_uds=4,,5", "n_uds=4,5,", "n_uds=,4"):
        with pytest.raises(ValueError, match="empty value"):
            _parse_sweep(text)
    for text in ("rrbs_per_ap=2.0", "deadline_s=fast", "task_size_range_bits=400:x"):
        with pytest.raises(ValueError, match=text.split("=")[0]):
            _parse_sweep(text)


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.trials == 10 and args.seed == 0
    assert args.out == "-" and args.format == "csv"
    assert args.fallback_local == "on" and args.max_iters == 5
    assert not args.strict_cc2 and not args.timings


def test_small_run_prints_csv(config_file, capsys):
    code, out, err = run_cli(["--config", config_file, "--trials", "1",
                              "--schemes", "random"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("scheme,sweep_var,sweep_value,trial,latency_s")
    assert len(lines) == 2
    assert lines[1].startswith("random,n_uds,6.0,0,")
    assert err == ""


def test_json_output_parses(config_file, capsys):
    code, out, _ = run_cli(["--config", config_file, "--trials", "2",
                            "--schemes", "random,local", "--format", "json"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 4
    assert {r["scheme"] for r in payload} == {"random", "local"}


def test_summary_goes_to_stderr(config_file, capsys):
    code, out, err = run_cli(["--config", config_file, "--trials", "2",
                              "--schemes", "random", "--summary"], capsys)
    assert code == 0
    assert "latency_s_mean" in err
    assert "latency_s_mean" not in out


def test_bad_inputs_exit_1(tmp_path, config_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    flat_positions = tmp_path / "flat_positions.json"
    flat_positions.write_text(json.dumps({"ap_positions": list(range(1, 10))}), encoding="utf-8")
    null_range = tmp_path / "null_range.json"
    null_range.write_text(json.dumps({"task_size_range_bits": [None, 1]}), encoding="utf-8")
    for args in (["--config", str(bad)],
                 ["--config", str(flat_positions)],
                 ["--config", str(null_range)],
                 ["--config", str(tmp_path / "missing.json")],
                 ["--config", config_file, "--sweep", "n_uds"],
                 ["--config", config_file, "--sweep", "bandwidth=1,2"],
                 ["--config", config_file, "--schemes", "joint,optimal"],
                 ["--config", config_file, "--trials", "0"],
                 ["--config", config_file, "--workers", "0"],
                 ["--config", config_file, "--workers", "-3"]):
        code, out, err = run_cli(args, capsys)
        assert code == 1
        assert err.startswith("error:")
        assert out == ""
    # the message names the bad field, not the sweep
    for args, field in ((["--schemes", ""], "schemes is empty"),
                        (["--schemes", ","], "schemes is empty"),
                        (["--schemes", "joint,joint,pruning"], "more than once: joint"),
                        (["--seed", "-1"], "master_seed")):
        code, out, err = run_cli(["--config", config_file, *args], capsys)
        assert code == 1
        assert err.startswith("error:") and field in err and "sweep" not in err
        assert out == ""


@pytest.mark.parametrize("field", ["p_max_dbm_hz", "noise_dbm_hz"])
@pytest.mark.parametrize("value", [4000, -4000])
def test_dbm_config_outside_float_range_exits_1(tmp_path, capsys, field, value):
    path = tmp_path / "dbm.json"
    path.write_text(json.dumps({field: value}), encoding="utf-8")
    code, out, err = run_cli(["--config", str(path), "--trials", "1"], capsys)
    assert code == 1
    assert err.startswith("error:") and field in err and "unexpected" not in err
    assert out == ""


@pytest.mark.parametrize("field, value", [
    ("deadline_s", "1.7976931348623157e308"),     # a group's demand rounds to 0
    ("density_cpb", "5e-324"),                    # 1 / f of a subnormal demand
    ("f_mec_cps", "5e-324"),                      # an infinite MEC compute time
    ("rrb_bandwidth_hz", "1.7976931348623157e308"),   # an infinite rate
    ("cell_radius_m", "1e308"),                   # no range to draw positions from
    ("f_loc_max_cps", "1e-305"),                  # an infinite task cost at the cap
])
def test_finite_field_with_an_infinite_consequence_exits_1(capsys, field, value):
    """A finite config value that would make the run compute an infinite
    or zero quantity is refused by name before any row is written, with
    no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["--trials", "1", "--sweep", f"{field}={value}"], capsys)
    assert not caught
    assert code == 1 and err.startswith("error:") and field in err
    assert "unexpected" not in err and "Warning" not in err and "Traceback" not in err
    assert out == ""


def test_shadowing_spread_that_overflows_a_gain_exits_1(capsys):
    """generate refuses the spread while the experiment runs, so the run
    exits 1 before it writes a row, with workers too."""
    for workers in ("1", "2"):
        code, out, err = run_cli(["--trials", "1", "--sweep", "shadowing_std_db=4,1500",
                                  "--schemes", "pruning", "--workers", workers], capsys)
        assert code == 1
        assert err.startswith("error:") and "shadowing_std_db" in err
        assert "unexpected" not in err and "Traceback" not in err
        assert out == ""


def test_rate_floor_beyond_float_range_runs_clean(capsys):
    code, out, err = run_cli(["--trials", "1", "--sweep", "rate_threshold_bps=5e4,2e10"],
                             capsys)
    assert code == 0 and err == ""
    rows = out.splitlines()[1:]
    assert len(rows) == 10
    # the unreachable floor schedules nobody: zero cost, capacity and vertices
    for row in rows[5:]:
        assert row.split(",")[6:9] == ["0.0", "0", "0"] and row.endswith(",0")
    assert all(row.split(",")[7] != "0" for row in rows[:5])


def test_unwritable_output_exits_2(tmp_path, config_file, capsys):
    out_path = str(tmp_path / "no_such_dir" / "rows.csv")
    code, _, err = run_cli(["--config", config_file, "--trials", "1",
                            "--schemes", "random", "--out", out_path], capsys)
    assert code == 2
    assert "error:" in err


def test_repeat_runs_are_byte_identical(tmp_path, config_file, capsys):
    paths = [str(tmp_path / f"run{i}.csv") for i in (1, 2)]
    for path in paths:
        code, _, _ = run_cli(["--config", config_file, "--trials", "2",
                              "--sweep", "n_uds=6,8", "--seed", "7",
                              "--out", path], capsys)
        assert code == 0
    first, second = (open(p, "rb").read() for p in paths)
    assert first == second


def test_worker_pool_matches_serial(tmp_path, config_file, capsys):
    serial = str(tmp_path / "serial.csv")
    pooled = str(tmp_path / "pooled.csv")
    base = ["--config", config_file, "--trials", "1", "--sweep", "n_uds=6,8",
            "--schemes", "random,joint"]
    assert main(base + ["--out", serial]) == 0
    assert main(base + ["--out", pooled, "--workers", "2"]) == 0
    capsys.readouterr()
    assert open(serial, "rb").read() == open(pooled, "rb").read()


def test_max_iters_below_one_exits_1(capsys):
    code, out, err = run_cli(["--max-iters", "0", "--schemes", "joint",
                              "--trials", "1"], capsys)
    assert code == 1
    assert err.startswith("error:") and "max_iters" in err
    assert out == ""


def test_bad_sweep_values_exit_1(capsys):
    # the four before the last are finite but give an infinite task, load
    # or AP cost; the last two ranges share the mean their rows report
    for sweep in ("n_uds=0", "ap_positions=1", "w_latency=nan", "noise_dbm_hz=inf",
                  "n_uds=4,,5", "rrbs_per_ap=2.0", "p_max_dbm_hz=4000",
                  "noise_dbm_hz=-4000", "density_cpb=1e308", "f_loc_max_cps=1e-310",
                  "deadline_s=1e-320", "task_size_range_bits=1e300:1e305",
                  "task_size_range_bits=400:600,300:700"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["--sweep", sweep, "--trials", "1", "--summary"], capsys)
        assert code == 1, sweep
        assert err.startswith("error:") and sweep.split("=")[0] in err
        assert out == "" and not caught


def test_seed_sweep_rejected_by_name(capsys):
    code, out, err = run_cli(["--sweep", "seed=1,2", "--trials", "1"], capsys)
    assert code == 1
    assert err.startswith("error:") and "seed" in err and "--seed" in err
    assert out == ""


@pytest.mark.parametrize("sweep", ["ap_positions=1:2", "ap_positions=1", "mec_positions=0:0,1:1"])
def test_position_sweeps_rejected_by_name(sweep, capsys):
    """A position field holds one (x, y) pair per AP or MEC, which no
    sweep value can give, so the variable is refused by name whatever
    its values."""
    code, out, err = run_cli(["--sweep", sweep, "--trials", "1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {sweep.split('=')[0]} cannot be swept;")
    assert "(x, y) pair per" in err


# every float config field at each edge of the float range, 0, 1, a
# negative value, a bool and a string
EDGE_VALUES = (5e-324, 1e-300, 0.0, 1.0, 1e300, 1.7976931348623157e308, -1.0, True, "1")
FLOAT_FIELDS = tuple(name for name, kind in CONFIG_FIELDS.items() if kind is float)


def test_edge_config_values_run_clean_or_are_refused(tmp_path, capsys):
    """Each float config field at each EDGE_VALUES entry, through the CLI
    at 8 UDs and one trial with a fixed seed: a case exits 0 with an empty
    stderr and finite latency, energy and cost in every row, or exits 1
    with one error: line that names the field. No case warns, and none
    raises out of main."""
    path = tmp_path / "edge.json"
    refused = 0
    for field in FLOAT_FIELDS:
        for value in EDGE_VALUES:
            case = f"{field}={value!r}"
            path.write_text(json.dumps({"n_uds": 8, field: value}), encoding="utf-8")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["--config", str(path), "--trials", "1", "--seed", "3"])
            out, err = capsys.readouterr()
            assert not caught, (case, [str(w.message) for w in caught])
            assert "Warning" not in err and "Traceback" not in err, (case, err)
            if code == 1:
                assert err.startswith("error:") and err.count("\n") == 1, (case, err)
                assert field in err and "unexpected" not in err, (case, err)
                refused += 1
                continue
            assert code == 0 and err == "", (case, code, err)
            rows = list(csv.DictReader(io.StringIO(out)))
            assert len(rows) == 5, case
            for row in rows:
                assert all(math.isfinite(float(row[k])) for k in ("latency_s", "energy_j", "cost")), \
                    (case, row)
    # bools, strings and values below each field's range are refused
    assert refused >= 3 * len(FLOAT_FIELDS)
