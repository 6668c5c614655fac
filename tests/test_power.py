"""Per-cluster power allocation: the batched closed form, run on one-row
arrays for single clusters, against the SIC and grid oracles."""

import math

import numpy as np
import pytest

from nomec import ChannelState, ClusterPowerSolution, ScenarioConfig, generate
from nomec.power import solve_pairs_batch, solve_singletons_batch
from conftest import gain_arrays
from oracles import (PowerLimits, full_cells_by_ap, grid_oracle, shannon_rate, sic_sinr,
                     solve_pairs_batch_by_where)

NOISE = 4e-14
B0 = 1e7


def chan():
    return ChannelState(*gain_arrays(), noise_w=NOISE, rrb_bandwidth_hz=B0)


def solve(gains, r_th, p_max=0.5):
    """solve_pairs_batch on one cluster, given the gain of its lower-id
    member and, for a pair, of its higher-id one: (p_lo, p_hi, rate_lo,
    rate_hi, objective, feasible) as scalars."""
    g_hi = gains[1] if len(gains) == 2 else math.nan
    return tuple(a[0] for a in solve_pairs_batch([gains[0]], [g_hi], p_max, NOISE, B0, r_th))


def test_singleton_full_power():
    p, _, rate, _, objective, feasible = solve([1e-12], 0.0)
    assert feasible
    assert p == 0.5
    snr = 0.5 * 1e-12 / NOISE
    assert rate == pytest.approx(B0 * math.log2(1.0 + snr), rel=1e-12)
    assert objective == pytest.approx(math.log2(1.0 + snr), rel=1e-12)


def test_singleton_infeasible_below_threshold():
    *_, objective, feasible = solve([1e-13], 1e9)
    assert not feasible
    assert objective == float("-inf")


def test_pair_unconstrained_uses_full_power():
    p_lo, p_hi, _, _, objective, feasible = solve([1e-11, 1e-12], 0.0)
    assert feasible
    assert (p_lo, p_hi) == (0.5, 0.5)
    # the sum rate at full power matches the analytic total
    total = math.log2((0.5 * 1e-11 + 0.5 * 1e-12 + NOISE) / NOISE)
    assert objective == pytest.approx(total, rel=1e-12)


def test_pair_rate_floor_binds_weak_power():
    # threshold high enough that the strong UD's floor caps the weak power
    g_s, g_w = 5e-12, 4e-12
    p_s, p_w, r_s, r_w, _, feasible = solve([g_s, g_w], 3e7)
    assert feasible
    assert p_s == 0.5
    assert p_w < 0.5
    # the strong UD sits exactly on the floor
    assert r_s == pytest.approx(3e7, rel=1e-9)
    assert r_w >= 3e7 * (1.0 - 1e-12)


def test_pair_gain_tie_strong_is_lower_id():
    g = 3e-12
    p_lo, p_hi, _, _, _, feasible = solve([g, g], 2.5e7)
    assert feasible
    # the lower id decodes first (strong role)
    assert p_lo == 0.5
    assert p_hi <= 0.5


def test_pair_infeasible_threshold():
    assert not solve([1e-13, 1e-14], 5e8)[5]


def test_rate_floor_beyond_float_range_is_infeasible():
    """2 ** (R / B) overflows a float once R / B > 1024: no cluster can
    meet such a floor, and the solve raises nothing and warns nothing."""
    g1, g2 = np.array([1e-13, 1e-12, 1e-10]), np.array([np.nan, 1e-13, 1e-11])
    for threshold in (1025.0 * B0, 2e10, 1e300):
        *_, objective, feasible = solve_pairs_batch(g1, g2, 0.5, NOISE, B0, threshold)
        assert not feasible.any() and (objective == -np.inf).all()


def test_solver_argument_validation():
    cons = PowerLimits(p_max_w=0.5, rate_threshold_bps=0.0)
    with pytest.raises(ValueError):
        grid_oracle([(0, 1e-12), (1, 1e-12), (2, 1e-12)], chan(), cons)
    with pytest.raises(ValueError):
        grid_oracle([(0, 1e-12)], chan(), cons, resolution=1)


def test_grid_oracle_corners_resolution_two():
    cons = PowerLimits(p_max_w=0.5, rate_threshold_bps=0.0)
    sol = grid_oracle([(0, 1e-12), (1, 1e-12)], chan(), cons, resolution=2)
    assert sol.feasible
    assert sol.powers == (0.5, 0.5)


def sic_objective(members, powers):
    """Rates and sum of log2(1 + sinr) of members, a list of (ud_id, gain),
    at powers in member order, from the independent SIC oracle."""
    gains = dict(members)
    powered = [(u, p) for (u, _), p in zip(members, powers)]
    sinrs = [sic_sinr(powered, gains, u, NOISE) for u, _ in members]
    return [shannon_rate(s, B0) for s in sinrs], sum(math.log2(1.0 + s) for s in sinrs)


def test_solver_never_below_grid_seeded():
    """The closed form must match or beat the grid search everywhere the
    grid finds a feasible point (the grid undershoots between its points),
    judged on the SIC oracle's value of the solved powers."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        g1 = float(10.0 ** rng.uniform(-13.5, -10.5))
        g2 = float(10.0 ** rng.uniform(-13.5, -10.5))
        r_th = float(rng.choice([0.0, 1e5, 1e6, 3e7]))
        cons = PowerLimits(p_max_w=0.5, rate_threshold_bps=r_th)
        members = [(0, g1), (1, g2)]
        p_lo, p_hi, *_, feasible = solve([g1, g2], r_th)
        grid = grid_oracle(members, chan(), cons, resolution=256)
        if grid.feasible:
            assert feasible
        if feasible:
            rates, objective = sic_objective(members, (p_lo, p_hi))
            assert min(rates) >= r_th * (1.0 - 1e-9)
            assert objective >= grid.objective * (1.0 - 1e-6) - 1e-12


def test_pairs_batch_matches_sic_oracle():
    """The pair solver's rates and objective are the SIC oracle's at its
    powers, within the power caps and above the rate floor; a pair it calls
    infeasible has no feasible grid point either."""
    rng = np.random.default_rng(11)
    n = 300
    g_lo = 10.0 ** rng.uniform(-14.0, -10.0, size=n)
    g_hi = 10.0 ** rng.uniform(-14.0, -10.0, size=n)
    for r_th in (0.0, 5e4, 5e6, 4e7):
        p_lo, p_hi, r_lo, r_hi, obj, feas = solve_pairs_batch(
            g_lo, g_hi, 0.5, NOISE, B0, r_th)
        cons = PowerLimits(p_max_w=0.5, rate_threshold_bps=r_th)
        assert feas.any()
        for i in range(n):
            members = [(0, float(g_lo[i])), (1, float(g_hi[i]))]
            if not feas[i]:
                assert not grid_oracle(members, chan(), cons, resolution=64).feasible
                continue
            assert 0.0 <= p_lo[i] <= 0.5 and 0.0 <= p_hi[i] <= 0.5
            rates, objective = sic_objective(members, (p_lo[i], p_hi[i]))
            assert [r_lo[i], r_hi[i]] == pytest.approx(rates, rel=1e-12)
            assert min(rates) >= r_th * (1.0 - 1e-9)
            assert obj[i] == pytest.approx(objective, rel=1e-12)


def test_singletons_batch_matches_sic_oracle():
    rng = np.random.default_rng(13)
    gains = 10.0 ** rng.uniform(-14.0, -10.0, size=200)
    for r_th in (0.0, 1e6, 5e7):
        power, rate, obj, feas = solve_singletons_batch(gains, 0.5, NOISE, B0, r_th)
        for i, g in enumerate(gains):
            rates, objective = sic_objective([(0, float(g))], (0.5,))
            assert bool(feas[i]) == (rates[0] >= r_th)
            if feas[i]:
                assert power[i] == 0.5
                assert rate[i] == pytest.approx(rates[0], rel=1e-12)
                assert obj[i] == pytest.approx(objective, rel=1e-12)


def test_nan_gain_singletons_keep_exact_bits():
    """A singleton passed as a pair with higher-id gain NaN gets p_max and
    B*log2(1 + p_max*g/N) bit for bit; its absent member gets power NaN
    and rate inf."""
    rng = np.random.default_rng(17)
    gains = 10.0 ** rng.uniform(-14.0, -10.0, size=200)
    snr = 0.5 * gains / NOISE
    for r_th in (0.0, 5e4, 5e6, 2e7):
        p_lo, p_hi, r_lo, r_hi, obj, feas = solve_pairs_batch(
            gains, np.full_like(gains, np.nan), 0.5, NOISE, B0, r_th)
        want_rate = B0 * np.log2(1.0 + snr)
        assert np.array_equal(feas, want_rate >= r_th)
        assert feas.any() and np.all(p_lo == 0.5) and np.all(np.isnan(p_hi))
        assert np.array_equal(r_lo, want_rate) and np.all(r_hi == np.inf)
        assert np.array_equal(obj[feas], np.log2(1.0 + snr)[feas])


def test_member_order_does_not_change_the_solution():
    """Swapping which member holds the lower id mirrors the solution: the
    lower-id outputs of one call are the higher-id outputs of the other.
    Only equal gains break by id: the lower id decodes first and sends at
    p_max, and the SIC oracle, whose ties break the same way, gives its
    rates."""
    rng = np.random.default_rng(19)
    g_a = 10.0 ** rng.uniform(-13, -10, size=40)
    g_b = 10.0 ** rng.uniform(-13, -10, size=40)
    for r_th in (0.0, 5e4, 5e6, 2.5e7):
        fwd = solve_pairs_batch(g_a, g_b, 0.5, NOISE, B0, r_th)
        rev = solve_pairs_batch(g_b, g_a, 0.5, NOISE, B0, r_th)
        for i, j in ((0, 1), (1, 0), (2, 3), (3, 2), (4, 4), (5, 5)):
            assert np.array_equal(fwd[i], rev[j]), (r_th, i)
        for g in (3e-12, 1e-11):
            p_lo, p_hi, r_lo, r_hi, _, feasible = solve([g, g], r_th)
            if feasible:
                assert p_lo == 0.5
                rates, _ = sic_objective([(4, g), (9, g)], (p_lo, p_hi))
                assert [r_lo, r_hi] == pytest.approx(rates, rel=1e-12)
    p_lo, p_hi, *_, feasible = solve([3e-12, 3e-12], 2.5e7)
    assert feasible and p_lo == 0.5 and p_hi < 0.5


def test_solution_is_frozen_record():
    sol = ClusterPowerSolution((0.5,), (1e6,), 0.1)
    with pytest.raises(Exception):
        sol.objective = 0.2


def enumerated_gains(n_uds):
    """The (lower-id, higher-id) member gains of every full-graph cell of
    a default scenario with n_uds UDs, NaN for a singleton's absent one."""
    scn = generate(ScenarioConfig(n_uds=n_uds))
    u1, u2, ap, rrb = full_cells_by_ap(scn)
    gains = scn.channel.gain_ud_rrb
    return (scn.devices[0].p_max_w, scn.channel.noise_w, gains[u1, ap, rrb],
            np.where(u2 >= 0, gains[u2, ap, rrb], np.nan))


def edge_gains():
    """Random pairs and singletons mixed with NaN, equal and zero gains."""
    rng = np.random.default_rng(23)
    g_lo = 10.0 ** rng.uniform(-15.0, -9.0, size=4000)
    g_hi = 10.0 ** rng.uniform(-15.0, -9.0, size=4000)
    g_hi[::5] = np.nan
    g_hi[1::7] = g_lo[1::7]
    g_lo[2::11], g_hi[3::13] = 0.0, 0.0
    g_lo[4::17] = np.nan
    g_lo[5::19] = g_hi[5::19] = 0.0
    return 0.5, NOISE, g_lo, g_hi


@pytest.mark.parametrize("case", ["edges", "n_uds=96", "n_uds=400"])
def test_pairs_batch_keeps_the_bits_of_the_textbook_form(case):
    """The buffered solve returns, bit for bit and dtype for dtype, what
    the one-array-per-step form returns, on every output, up to a floor
    2 ** (R / B) overflows."""
    p_max, noise, g_lo, g_hi = edge_gains() if case == "edges" else enumerated_gains(
        int(case.split("=")[1]))
    for threshold in (0.0, 5e4, 5e6, 2e7, 2e10):
        got = solve_pairs_batch(g_lo, g_hi, p_max, noise, B0, threshold)
        want = solve_pairs_batch_by_where(g_lo, g_hi, p_max, noise, B0, threshold)
        for name, a, b in zip(("p_lo", "p_hi", "r_lo", "r_hi", "objective", "feasible"),
                              got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (threshold, name)
        assert got[5].any() == (threshold < 2e10)
