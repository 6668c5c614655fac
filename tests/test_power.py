"""Per-cluster power allocation: the batched closed form, its one-cluster
entry point, and the SIC and grid oracles."""

import math

import numpy as np
import pytest

from nomec import ChannelState, ClusterPowerSolution, PowerConstraints, solve_cluster_power
from nomec.power import solve_pairs_batch, solve_singletons_batch
from conftest import gain_arrays
from oracles import grid_oracle, shannon_rate, sic_sinr

NOISE = 4e-14
B0 = 1e7


def chan():
    return ChannelState(*gain_arrays(), noise_w=NOISE, rrb_bandwidth_hz=B0)


def test_constraints_validation():
    with pytest.raises(ValueError):
        PowerConstraints(p_max_w=0.0)
    with pytest.raises(ValueError):
        PowerConstraints(p_max_w=0.5, rate_threshold_bps=-1.0)


def test_singleton_full_power():
    cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=0.0)
    sol = solve_cluster_power([(0, 1e-12)], chan(), cons)
    assert sol.feasible
    assert sol.powers == (0.5,)
    snr = 0.5 * 1e-12 / NOISE
    assert sol.rates[0] == pytest.approx(B0 * math.log2(1.0 + snr), rel=1e-12)
    assert sol.objective == pytest.approx(math.log2(1.0 + snr), rel=1e-12)


def test_singleton_infeasible_below_threshold():
    cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=1e9)
    sol = solve_cluster_power([(0, 1e-13)], chan(), cons)
    assert not sol.feasible
    assert sol.powers == (0.0,)
    assert sol.objective == float("-inf")


def test_pair_unconstrained_uses_full_power():
    cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=0.0)
    sol = solve_cluster_power([(0, 1e-11), (1, 1e-12)], chan(), cons)
    assert sol.feasible
    assert sol.powers == (0.5, 0.5)
    # the sum rate at full power matches the analytic total
    total = math.log2((0.5 * 1e-11 + 0.5 * 1e-12 + NOISE) / NOISE)
    assert sol.objective == pytest.approx(total, rel=1e-12)


def test_pair_rate_floor_binds_weak_power():
    # threshold high enough that the strong UD's floor caps the weak power
    g_s, g_w = 5e-12, 4e-12
    cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=3e7)
    sol = solve_cluster_power([(0, g_s), (1, g_w)], chan(), cons)
    assert sol.feasible
    assert sol.powers[0] == 0.5
    assert sol.powers[1] < 0.5
    # the strong UD sits exactly on the floor
    assert sol.rates[0] == pytest.approx(3e7, rel=1e-9)
    assert sol.rates[1] >= 3e7 * (1.0 - 1e-12)


def test_pair_gain_tie_strong_is_lower_id():
    cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=2.5e7)
    g = 3e-12
    sol = solve_cluster_power([(4, g), (9, g)], chan(), cons)
    assert sol.feasible
    # member order is (4, 9); the lower id decodes first (strong role)
    assert sol.powers[0] == 0.5
    assert sol.powers[1] <= 0.5


def test_pair_infeasible_threshold():
    cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=5e8)
    sol = solve_cluster_power([(0, 1e-13), (1, 1e-14)], chan(), cons)
    assert not sol.feasible


def test_rate_floor_beyond_float_range_is_infeasible():
    """2 ** (R / B) overflows a float once R / B > 1024: no cluster can
    meet such a floor, and the solve raises nothing and warns nothing."""
    g1, g2 = np.array([1e-13, 1e-12, 1e-10]), np.array([np.nan, 1e-13, 1e-11])
    for threshold in (1025.0 * B0, 2e10, 1e300):
        *_, objective, feasible = solve_pairs_batch(g1, g2, 0.5, NOISE, B0, threshold)
        assert not feasible.any() and (objective == -np.inf).all()
        cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=threshold)
        assert not solve_cluster_power([(0, 1e-10), (1, 1e-11)], chan(), cons).feasible


def test_solver_argument_validation():
    cons = PowerConstraints(p_max_w=0.5)
    with pytest.raises(ValueError):
        solve_cluster_power([(0, 1e-12), (1, 1e-12), (2, 1e-12)], chan(), cons)
    with pytest.raises(ValueError):
        grid_oracle([(0, 1e-12)], chan(), cons, resolution=1)


def test_grid_oracle_corners_resolution_two():
    cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=0.0)
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
        cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=r_th)
        members = [(0, g1), (1, g2)]
        exact = solve_cluster_power(members, chan(), cons)
        grid = grid_oracle(members, chan(), cons, resolution=256)
        if grid.feasible:
            assert exact.feasible
        if exact.feasible:
            rates, objective = sic_objective(members, exact.powers)
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
        cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=r_th)
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
    """Either member order gives the same solution, mapped back to the
    order given; on equal gains the lower id decodes first."""
    rng = np.random.default_rng(19)
    cases = [(float(10.0 ** rng.uniform(-13, -10)), float(10.0 ** rng.uniform(-13, -10)))
             for _ in range(40)] + [(3e-12, 3e-12), (1e-11, 1e-11)]
    for g4, g9 in cases:
        for r_th in (0.0, 5e4, 5e6, 2.5e7):
            cons = PowerConstraints(p_max_w=0.5, rate_threshold_bps=r_th)
            fwd = solve_cluster_power([(4, g4), (9, g9)], chan(), cons)
            rev = solve_cluster_power([(9, g9), (4, g4)], chan(), cons)
            assert rev.feasible == fwd.feasible
            assert rev.powers == fwd.powers[::-1] and rev.rates == fwd.rates[::-1]
            assert rev.objective == fwd.objective
            if g4 == g9 and fwd.feasible:
                assert fwd.powers[0] == 0.5
    tied = solve_cluster_power([(9, 3e-12), (4, 3e-12)], chan(),
                               PowerConstraints(p_max_w=0.5, rate_threshold_bps=2.5e7))
    assert tied.feasible and tied.powers[1] == 0.5 and tied.powers[0] < 0.5


def test_solution_is_frozen_record():
    sol = ClusterPowerSolution((0.5,), (1e6,), 0.1, True)
    with pytest.raises(Exception):
        sol.objective = 0.2
