"""Configuration, topology generation, and channel realization."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from nomec import SCHEMES, ConfigError, ScenarioConfig, generate, load_config, run_scheme
from nomec.scenario import (dbm_per_hz_to_watts, pathloss_backhaul_db,
                            pathloss_uplink_db, realize_channels, with_channel)

GOLDEN_DIGEST = "2965be61705b9787b7c46aa1f3fd570cc8c78635cf401016d56e40365c7af95b"


def _digest(scn):
    h = hashlib.sha256()
    for gains in (scn.channel.gain_ud_rrb, scn.channel.gain_ap_mec):
        for key in np.ndindex(gains.shape):
            h.update(f"{key}:{gains[key]!r};".encode())
    for d in scn.devices:
        h.update(f"{d.position!r}:{d.task.size_bits!r};".encode())
    return h.hexdigest()


def test_config_defaults_are_valid():
    cfg = ScenarioConfig()
    assert cfg.n_uds == 24 and cfg.n_aps == 9 and cfg.n_mecs == 4
    assert cfg.rrbs_per_ap == 3


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ScenarioConfig(n_uds=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(n_aps=2.5)
    with pytest.raises(ConfigError):
        ScenarioConfig(deadline_s=0.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(w_latency=-0.1)
    with pytest.raises(ConfigError):
        ScenarioConfig(task_size_range_bits=(600.0, 400.0))
    with pytest.raises(ConfigError):
        ScenarioConfig(seed=-1)


@pytest.mark.parametrize("field", ["cell_radius_m", "ap_coverage_m", "density_cpb",
                                   "deadline_s", "f_mec_cps", "f_loc_max_cps",
                                   "alpha_cpu", "rate_threshold_bps",
                                   "rrb_bandwidth_hz", "noise_dbm_hz", "p_max_dbm_hz",
                                   "shadowing_std_db", "w_latency", "w_energy",
                                   "q_idle_factor"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_floats(field, value):
    with pytest.raises(ConfigError, match=field):
        ScenarioConfig(**{field: value})


@pytest.mark.parametrize("field", ["noise_dbm_hz", "p_max_dbm_hz"])
@pytest.mark.parametrize("value", [4000.0, 3060.0, -4000.0, -3500.0])
def test_config_rejects_dbm_outside_float_range(field, value):
    """Per-RRB watts must be finite and positive: 4000 dBm/Hz overflows
    10 ** (v / 10), 3060 overflows once multiplied by the bandwidth, and
    -4000 and -3500 dBm/Hz underflow to zero watts."""
    with pytest.raises(ConfigError, match=field):
        ScenarioConfig(**{field: value})


def test_config_rejects_non_finite_ranges_and_positions():
    for bad in ((400.0, math.nan), (math.inf, math.inf)):
        with pytest.raises(ConfigError):
            ScenarioConfig(task_size_range_bits=bad)
    with pytest.raises(ConfigError):
        ScenarioConfig(n_aps=2, ap_positions=((0.0, 0.0), (math.nan, 1.0)))
    with pytest.raises(ConfigError):
        ScenarioConfig(n_mecs=1, mec_positions=((0.0, math.inf),))


@pytest.mark.parametrize("field", ["n_uds", "n_aps", "n_mecs", "rrbs_per_ap", "seed"])
@pytest.mark.parametrize("value", [True, False])
def test_config_rejects_bool_counts(field, value):
    with pytest.raises(ConfigError, match=field):
        ScenarioConfig(**{field: value})


def test_config_checks_position_shape():
    for bad in (1.0, ((0.0, 0.0),) * 8, ((0.0, 0.0, 0.0),) * 9, ((0.0,),) * 9):
        with pytest.raises(ConfigError, match="ap_positions"):
            ScenarioConfig(ap_positions=bad)
    with pytest.raises(ConfigError, match="mec_positions"):
        ScenarioConfig(mec_positions=((0.0, 0.0),) * 5)


def test_load_config_empty_gives_defaults():
    assert load_config("") == ScenarioConfig()
    assert load_config("{}") == ScenarioConfig()


def test_load_config_values_and_errors():
    cfg = load_config(json.dumps({"n_uds": 12, "task_size_range_bits": [300, 500]}))
    assert cfg.n_uds == 12
    assert cfg.task_size_range_bits == (300.0, 500.0)
    with pytest.raises(ConfigError):
        load_config("not json")
    with pytest.raises(ConfigError):
        load_config("[1, 2]")
    with pytest.raises(ConfigError):
        load_config('{"no_such_key": 1}')
    with pytest.raises(ConfigError):
        load_config('{"task_size_range_bits": [1, 2, 3]}')


def test_load_config_rejects_malformed_entries():
    for text in ('{"ap_positions": [1, 2, 3, 4, 5, 6, 7, 8, 9]}',
                 '{"task_size_range_bits": [null, 1]}',
                 '{"task_size_range_bits": 5}',
                 '{"mec_positions": [[0, 0], [0, "1"], [1, 1], [1, 0]]}'):
        with pytest.raises(ConfigError):
            load_config(text)
    cfg = load_config('{"n_aps": 2, "ap_positions": [[0, 0], [100, 0]]}')
    assert cfg.ap_positions == ((0, 0), (100, 0))


def test_backhaul_scaling_must_be_a_bool():
    assert load_config('{"backhaul_bandwidth_scaling": false}').backhaul_bandwidth_scaling is False
    for value in ("false", 0, 1, None):
        with pytest.raises(ConfigError, match="backhaul_bandwidth_scaling"):
            ScenarioConfig(backhaul_bandwidth_scaling=value)
    with pytest.raises(ConfigError, match="backhaul_bandwidth_scaling"):
        load_config('{"backhaul_bandwidth_scaling": "false"}')


def test_generate_refuses_a_shadowing_spread_that_overflows_a_gain():
    """A finite spread can draw a shadowing whose 10 ** (dB / 10) overflows
    a float, or an infinite one whose gain is inf: generate names the
    spread in a ConfigError. A draw that underflows a gain to 0.0 leaves a
    link that carries nothing, and every scheme runs on it without a
    warning."""
    for spread in (1500.0, 2000.0, 1e300):
        with pytest.raises(ConfigError, match="shadowing_std_db"):
            generate(ScenarioConfig(shadowing_std_db=spread))
    # seed 1 draws an infinite shadowing on both of its two links, and
    # 10.0 ** inf is inf, not an OverflowError
    with pytest.raises(ConfigError, match="shadowing_std_db"):
        generate(ScenarioConfig(n_uds=1, n_aps=1, n_mecs=1, shadowing_std_db=1.79e308, seed=1))
    scn = generate(ScenarioConfig(shadowing_std_db=1000.0))
    assert np.count_nonzero(scn.mean_gain_uplink == 0.0) == 1
    assert np.all(np.isfinite(scn.mean_gain_uplink)) and np.all(np.isfinite(scn.mean_gain_backhaul))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scheme in SCHEMES:
            _, plan = run_scheme(scn, scheme)
            assert math.isfinite(plan.metrics.cost) and plan.metrics.scheduled_uds > 0


def test_dbm_per_hz_to_watts():
    # -174 dBm/Hz over 10 MHz
    want = 10.0 ** (-174.0 / 10.0) * 1e-3 * 1e7
    assert dbm_per_hz_to_watts(-174.0, 1e7) == pytest.approx(want, rel=1e-12)


def test_pathloss_reference_points():
    assert pathloss_uplink_db(1000.0) == pytest.approx(128.1, rel=1e-12)
    assert pathloss_backhaul_db(1000.0) == pytest.approx(148.0, rel=1e-12)
    # distances are clamped at one metre
    assert pathloss_uplink_db(0.01) == pathloss_uplink_db(1.0)
    d = 2000.0
    assert pathloss_uplink_db(d) == pytest.approx(128.1 + 37.6 * math.log10(2.0), rel=1e-12)


def test_generate_is_deterministic():
    cfg = ScenarioConfig(n_uds=8, n_aps=4, n_mecs=2, rrbs_per_ap=2, seed=123)
    a = generate(cfg)
    b = generate(cfg)
    assert np.array_equal(a.channel.gain_ud_rrb, b.channel.gain_ud_rrb)
    assert np.array_equal(a.channel.gain_ap_mec, b.channel.gain_ap_mec)
    assert [d.position for d in a.devices] == [d.position for d in b.devices]
    assert _digest(a) == GOLDEN_DIGEST


def test_generate_seed_changes_realization():
    a = generate(ScenarioConfig(n_uds=8, n_aps=4, n_mecs=2, rrbs_per_ap=2, seed=123))
    c = generate(ScenarioConfig(n_uds=8, n_aps=4, n_mecs=2, rrbs_per_ap=2, seed=124))
    assert _digest(a) != _digest(c)


def test_topology_layout():
    cfg = ScenarioConfig(seed=2)
    scn = generate(cfg)
    assert len(scn.aps) == cfg.n_aps and len(scn.mecs) == cfg.n_mecs
    for ap in scn.aps:
        assert math.hypot(*ap.position) == pytest.approx(0.5 * cfg.cell_radius_m, rel=1e-9)
    for mec in scn.mecs:
        assert math.hypot(*mec.position) == pytest.approx(0.1 * cfg.cell_radius_m, rel=1e-9)
    # coverage sets contain exactly the in-range devices
    for ap in scn.aps:
        want = {d.id for d in scn.devices
                if math.dist(d.position, ap.position) <= cfg.ap_coverage_m}
        assert scn.coverage[ap.id] == want
    # rejection sampling keeps every UD inside some AP's range here
    assert scn.unservable == frozenset()


def test_position_overrides_and_length_check():
    cfg = ScenarioConfig(n_aps=2, ap_positions=((0.0, 0.0), (100.0, 0.0)), seed=0)
    scn = generate(cfg)
    assert scn.aps[1].position == (100.0, 0.0)
    with pytest.raises(ConfigError):
        generate(ScenarioConfig(n_aps=3, ap_positions=((0.0, 0.0),), seed=0))


def test_task_sizes_within_range():
    cfg = ScenarioConfig(task_size_range_bits=(200.0, 250.0), seed=5)
    scn = generate(cfg)
    for d in scn.devices:
        assert 200.0 <= d.task.size_bits <= 250.0
        assert d.task.density_cpb == cfg.density_cpb
        assert d.task.deadline_s == cfg.deadline_s


def test_realize_channels_trials():
    scn = generate(ScenarioConfig(seed=9))
    again = realize_channels(scn, 0)
    assert np.array_equal(again.gain_ud_rrb, scn.channel.gain_ud_rrb)
    assert np.array_equal(again.gain_ap_mec, scn.channel.gain_ap_mec)
    other = realize_channels(scn, 5)
    assert not np.array_equal(other.gain_ud_rrb, scn.channel.gain_ud_rrb)
    # fading is unit mean: the sample mean over all links stays near one
    fades = other.gain_ud_rrb / scn.mean_gain_uplink[:, :, None]
    assert abs(float(np.mean(fades)) - 1.0) < 0.2


def test_with_channel_swaps_only_channel():
    scn = generate(ScenarioConfig(seed=9))
    other = realize_channels(scn, 3)
    swapped = with_channel(scn, other)
    assert swapped.channel is other
    assert swapped.devices == scn.devices
    assert swapped.coverage == scn.coverage
    assert swapped.config == scn.config
    assert swapped._topology_cache is scn._topology_cache

