"""Scenario configuration, topology generation, and channel realization.

Topology: UDs uniform over a hexagonal cell, APs on a ring at half the cell
radius, MEC servers on a small ring near the centre. Uplink path loss
128.1 + 37.6 log10(d_km) dB, backhaul 148 + 40 log10(d_km) dB, log-normal
shadowing per link per scenario, unit-mean Rayleigh fading per trial.
"""

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .model import (AccessPoint, ChannelState, CostWeights, MecServer, Task,
                    UserDevice)


class ConfigError(ValueError):
    """Raised for unparseable, unknown, or out-of-range configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    n_uds: int = 24
    n_aps: int = 9
    n_mecs: int = 4
    rrbs_per_ap: int = 3
    cell_radius_m: float = 1500.0
    ap_coverage_m: float = 750.0
    task_size_range_bits: tuple = (400.0, 600.0)
    density_cpb: float = 100.0
    deadline_s: float = 0.01
    f_mec_cps: float = 3e9
    f_loc_max_cps: float = 5e7
    alpha_cpu: float = 1e-27
    rate_threshold_bps: float = 5e4
    rrb_bandwidth_hz: float = 1e7
    noise_dbm_hz: float = -174.0
    p_max_dbm_hz: float = -42.60
    shadowing_std_db: float = 4.0
    w_latency: float = 0.5
    w_energy: float = 0.5
    q_idle_factor: float = 0.1
    backhaul_bandwidth_scaling: bool = True
    ap_positions: tuple = None
    mec_positions: tuple = None
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_uds", 1), ("n_aps", 1), ("n_mecs", 1),
                          ("rrbs_per_ap", 1), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {v!r}")
        for name in ("cell_radius_m", "ap_coverage_m", "density_cpb", "deadline_s",
                     "f_mec_cps", "f_loc_max_cps", "rrb_bandwidth_hz"):
            v = _finite(name, getattr(self, name))
            if not v > 0:
                raise ConfigError(f"{name} must be positive, got {v!r}")
        for name in ("alpha_cpu", "rate_threshold_bps", "shadowing_std_db",
                     "w_latency", "w_energy", "q_idle_factor"):
            v = _finite(name, getattr(self, name))
            if v < 0:
                raise ConfigError(f"{name} must be >= 0, got {v!r}")
        if not isinstance(self.backhaul_bandwidth_scaling, bool):
            raise ConfigError("backhaul_bandwidth_scaling must be true or false, "
                              f"got {self.backhaul_bandwidth_scaling!r}")
        for name in ("noise_dbm_hz", "p_max_dbm_hz"):
            v = _finite(name, getattr(self, name))
            try:
                watts = dbm_per_hz_to_watts(v, self.rrb_bandwidth_hz)
            except OverflowError:
                watts = math.inf
            if not (math.isfinite(watts) and watts > 0):
                raise ConfigError(f"{name} must give a finite, positive power per RRB, "
                                  f"got {v!r} dBm/Hz over {self.rrb_bandwidth_hz!r} Hz")
        lo, hi = _finite_pair("task_size_range_bits", self.task_size_range_bits)
        if not (0 < lo <= hi):
            raise ConfigError(f"task_size_range_bits must satisfy 0 < lo <= hi, got {self.task_size_range_bits!r}")
        # finite fields can still give an infinite task, load or AP cost,
        # which would turn into inf and NaN costs
        cycles = hi * self.density_cpb
        f = self.f_loc_max_cps
        for what, value in (
                ("task cycles task_size_range_bits[1] * density_cpb", cycles),
                ("single-task load task_size_range_bits[1] * density_cpb / deadline_s",
                 cycles / self.deadline_s),
                ("per-cycle AP cost 1 / f_loc_max_cps + alpha_cpu * f_loc_max_cps**2",
                 1.0 / f + self.alpha_cpu * (f * f))):
            if not math.isfinite(value):
                raise ConfigError(f"{what} must be finite, got {value!r}")
        for name, count in (("ap_positions", self.n_aps), ("mec_positions", self.n_mecs)):
            points = getattr(self, name)
            if points is not None and (not isinstance(points, (tuple, list))
                                       or len(points) != count):
                raise ConfigError(f"{name} must hold {count} (x, y) pairs, got {points!r}")
            for point in points or ():
                _finite_pair(name, point)


def _finite(name, v):
    """v, if it is a finite real number (bools excluded)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise ConfigError(f"{name} must be a finite number, got {v!r}")
    return v


def _finite_pair(name, pair):
    if not isinstance(pair, (tuple, list)) or len(pair) != 2:
        raise ConfigError(f"{name} entries must be pairs, got {pair!r}")
    return tuple(_finite(name, v) for v in pair)


# each config field's declared type, by name; a sweep parses values by it
CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}


def _tuples(value):
    """JSON arrays as tuples, nested ones too, for ScenarioConfig to check."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def load_config(text: str) -> ScenarioConfig:
    """Parse a flat JSON object into a ScenarioConfig.

    Unknown keys are rejected by name; an empty document yields defaults.
    """
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = sorted(raw.keys() - CONFIG_FIELDS.keys())
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    try:
        return ScenarioConfig(**{key: _tuples(value) for key, value in raw.items()})
    except TypeError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def dbm_per_hz_to_watts(dbm_hz: float, bandwidth_hz: float) -> float:
    """Integrate a dBm/Hz density over a bandwidth, in watts."""
    return 10.0 ** (dbm_hz / 10.0) * 1e-3 * bandwidth_hz


def pathloss_uplink_db(distance_m: float) -> float:
    """UD to AP path loss, dB."""
    return 128.1 + 37.6 * math.log10(max(distance_m, 1.0) / 1000.0)


def pathloss_backhaul_db(distance_m: float) -> float:
    """AP to MEC path loss, dB."""
    return 148.0 + 40.0 * math.log10(max(distance_m, 1.0) / 1000.0)


@dataclass(frozen=True)
class Scenario:
    """Immutable problem instance: devices, infrastructure, one channel
    realization, and the coverage relation."""
    devices: tuple
    aps: tuple
    mecs: tuple
    channel: ChannelState
    coverage: dict          # ap_id -> frozenset of ud ids
    weights: CostWeights
    config: ScenarioConfig
    unservable: frozenset   # ud ids no AP covers
    mean_gain_uplink: np.ndarray    # [ud, ap] -> path loss * shadowing
    mean_gain_backhaul: np.ndarray  # [ap, mec] -> path loss * shadowing
    # channel-independent arrays derived from the topology, filled lazily by
    # graph.py; with_channel shares it, every other copy starts empty
    _topology_cache: dict = field(default_factory=dict, init=False, repr=False,
                                  compare=False)


def _in_hexagon(x: float, y: float, radius: float) -> bool:
    # regular hexagon, circumradius `radius`, one vertex on the +x axis
    s3 = math.sqrt(3.0)
    return abs(y) <= s3 / 2.0 * radius and s3 * abs(x) + abs(y) <= s3 * radius


def _sample_hex_point(rng, radius: float):
    s3 = math.sqrt(3.0)
    while True:
        x = rng.uniform(-radius, radius)
        y = rng.uniform(-s3 / 2.0 * radius, s3 / 2.0 * radius)
        if _in_hexagon(x, y, radius):
            return x, y


def _ring_positions(count: int, radius: float):
    pts = []
    for i in range(count):
        theta = 2.0 * math.pi * i / count
        pts.append((radius * math.cos(theta), radius * math.sin(theta)))
    return tuple(pts)


def _faded_channel(config, trial_seed: int, mean_up, mean_bh,
                   noise_w: float, bandwidth_hz: float) -> ChannelState:
    """The mean link gains times unit-mean Rayleigh power fading,
    deterministic per (config.seed, trial seed). Fading is drawn for the
    (N, M, Z) uplink, then the (M, K) backhaul, each in row-major order."""
    up_shape = mean_up.shape + (config.rrbs_per_ap,)
    n_up = math.prod(up_shape)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, trial_seed]))
    re_im = rng.standard_normal((n_up + mean_bh.size, 2))
    power = (re_im[:, 0] ** 2 + re_im[:, 1] ** 2) / 2.0
    return ChannelState(gain_ud_rrb=mean_up[:, :, None] * power[:n_up].reshape(up_shape),
                        gain_ap_mec=mean_bh * power[n_up:].reshape(mean_bh.shape),
                        noise_w=noise_w, rrb_bandwidth_hz=bandwidth_hz)


def generate(config: ScenarioConfig) -> Scenario:
    """Build a scenario from a config; bit-identical for identical configs."""
    ss = np.random.SeedSequence(config.seed)
    pos_rng, shadow_rng = [np.random.default_rng(s) for s in ss.spawn(2)]

    ap_positions = config.ap_positions or _ring_positions(config.n_aps, 0.5 * config.cell_radius_m)
    mec_positions = config.mec_positions or _ring_positions(config.n_mecs, 0.1 * config.cell_radius_m)

    p_max_w = dbm_per_hz_to_watts(config.p_max_dbm_hz, config.rrb_bandwidth_hz)
    noise_w = dbm_per_hz_to_watts(config.noise_dbm_hz, config.rrb_bandwidth_hz)

    aps = tuple(
        AccessPoint(id=m, position=ap_positions[m], num_rrbs=config.rrbs_per_ap,
                    f_loc_max_cps=config.f_loc_max_cps, q_tx_w=p_max_w,
                    q_idle_w=config.q_idle_factor * p_max_w,
                    coverage_radius_m=config.ap_coverage_m)
        for m in range(config.n_aps))
    mecs = tuple(
        MecServer(id=k, position=mec_positions[k], f_mec_cps=config.f_mec_cps)
        for k in range(config.n_mecs))

    # UD placement with rejection until covered by at least one AP
    devices = []
    unservable = set()
    lo, hi = config.task_size_range_bits
    for n in range(config.n_uds):
        pos = None
        for _ in range(100):
            cand = _sample_hex_point(pos_rng, config.cell_radius_m)
            if any(math.dist(cand, ap.position) <= config.ap_coverage_m for ap in aps):
                pos = cand
                break
        if pos is None:
            pos = cand
            unservable.add(n)
        size = pos_rng.uniform(lo, hi)
        devices.append(UserDevice(id=n, position=pos, p_max_w=p_max_w,
                                  task=Task(size, config.density_cpb, config.deadline_s)))
    devices = tuple(devices)

    coverage = {
        ap.id: frozenset(d.id for d in devices
                         if math.dist(d.position, ap.position) <= ap.coverage_radius_m)
        for ap in aps}

    # mean link gains: path loss times shadowing, fixed for the scenario;
    # path loss is positive at d >= 1 m, so only a shadowing draw overflows
    mean_up = np.empty((config.n_uds, config.n_aps))
    mean_bh = np.empty((config.n_aps, config.n_mecs))
    try:
        for d in devices:
            for ap in aps:
                pl = pathloss_uplink_db(math.dist(d.position, ap.position))
                shadow = shadow_rng.normal(0.0, config.shadowing_std_db)
                mean_up[d.id, ap.id] = 10.0 ** ((-pl + shadow) / 10.0)
        for ap in aps:
            for mec in mecs:
                pl = pathloss_backhaul_db(math.dist(ap.position, mec.position))
                shadow = shadow_rng.normal(0.0, config.shadowing_std_db)
                mean_bh[ap.id, mec.id] = 10.0 ** ((-pl + shadow) / 10.0)
        if not (np.isfinite(mean_up).all() and np.isfinite(mean_bh).all()):
            raise OverflowError
    except OverflowError as exc:
        raise ConfigError(f"shadowing_std_db {config.shadowing_std_db!r} drew a shadowing "
                          "whose link gain overflows a float") from exc

    channel = _faded_channel(config, 0, mean_up, mean_bh, noise_w,
                             config.rrb_bandwidth_hz)
    weights = CostWeights(w_latency=config.w_latency, w_energy=config.w_energy,
                          alpha_cpu=config.alpha_cpu,
                          rate_threshold_bps=config.rate_threshold_bps)
    return Scenario(devices=devices, aps=aps, mecs=mecs, channel=channel,
                    coverage=coverage, weights=weights, config=config,
                    unservable=frozenset(unservable),
                    mean_gain_uplink=mean_up, mean_gain_backhaul=mean_bh)


def realize_channels(scenario: Scenario, trial_seed: int) -> ChannelState:
    """Redraw fading on every link, keeping path loss and shadowing fixed.

    Deterministic per (config seed, trial_seed); trial_seed 0 reproduces
    the realization embedded by generate().
    """
    return _faded_channel(scenario.config, trial_seed,
                          scenario.mean_gain_uplink, scenario.mean_gain_backhaul,
                          scenario.channel.noise_w, scenario.channel.rrb_bandwidth_hz)


def with_channel(scenario: Scenario, channel: ChannelState) -> Scenario:
    """A copy of the scenario using a different channel realization. It
    shares the original's topology cache, which holds nothing that reads
    the channel."""
    copy = dataclasses.replace(scenario, channel=channel)
    object.__setattr__(copy, "_topology_cache", scenario._topology_cache)
    return copy
