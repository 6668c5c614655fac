"""Command line interface: argument handling, exit codes, output."""

import json

import pytest

from nomec.cli import _parse_sweep, build_parser, main


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
    for sweep in ("n_uds=0", "ap_positions=1", "w_latency=nan", "noise_dbm_hz=inf",
                  "n_uds=4,,5", "rrbs_per_ap=2.0", "p_max_dbm_hz=4000",
                  "noise_dbm_hz=-4000"):
        code, out, err = run_cli(["--sweep", sweep, "--trials", "1"], capsys)
        assert code == 1, sweep
        assert err.startswith("error:") and sweep.split("=")[0] in err
        assert out == ""


def test_seed_sweep_rejected_by_name(capsys):
    code, out, err = run_cli(["--sweep", "seed=1,2", "--trials", "1"], capsys)
    assert code == 1
    assert err.startswith("error:") and "seed" in err and "--seed" in err
    assert out == ""
