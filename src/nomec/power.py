"""Per-cluster NOMA transmit power allocation.

For a 1- or 2-UD cluster on one RRB the solver maximizes the SIC sum rate
subject to per-UD power caps and a per-UD rate floor. The uplink sum rate
log2((p_s*g_s + p_w*g_w + noise)/noise) is increasing in both powers, so the
optimum sits at p_strong = p_max with p_weak at p_max or on the rate-floor
boundary of the strong UD. solve_pairs_batch is that closed form for many
clusters at once; solve_cluster_power is a one-cluster call of it.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PowerConstraints:
    p_max_w: float
    rate_threshold_bps: float = 0.0

    def __post_init__(self):
        if self.p_max_w <= 0:
            raise ValueError("p_max_w must be positive")
        if self.rate_threshold_bps < 0:
            raise ValueError("rate_threshold_bps must be >= 0")


@dataclass(frozen=True)
class ClusterPowerSolution:
    """powers/rates follow the candidate's member order. objective is the
    sum of log2(1+sinr) terms (bandwidth-free); infeasible solutions carry
    zero powers and -inf objective."""
    powers: tuple
    rates: tuple
    objective: float
    feasible: bool


def solve_cluster_power(members, channel, constraints: PowerConstraints) -> ClusterPowerSolution:
    """Sum-rate optimal powers for one cluster.

    members: sequence of (ud_id, linear_gain), length 1 or 2. On equal
    gains the lower UD id decodes first, whatever the member order.
    """
    if len(members) not in (1, 2):
        raise ValueError("clusters hold 1 or 2 UDs")
    # the batch form takes members by ascending id, which settles gain ties;
    # a singleton's absent higher-id member has gain NaN
    by_id = sorted(range(len(members)), key=lambda i: members[i][0])
    gains = [[members[i][1]] for i in by_id] + [[math.nan]]
    p_lo, p_hi, r_lo, r_hi, obj, feasible = solve_pairs_batch(
        gains[0], gains[1], constraints.p_max_w, channel.noise_w,
        channel.rrb_bandwidth_hz, constraints.rate_threshold_bps)
    if not feasible[0]:
        zeros = (0.0,) * len(members)
        return ClusterPowerSolution(zeros, zeros, float("-inf"), False)
    solved = [(float(p_lo[0]), float(r_lo[0])), (float(p_hi[0]), float(r_hi[0]))]
    powers, rates = zip(*(solved[by_id.index(i)] for i in range(len(members))))
    return ClusterPowerSolution(powers, rates, float(obj[0]), True)


def solve_pairs_batch(ud_lo_gain, ud_hi_gain, p_max, noise_w, bandwidth_hz,
                      rate_threshold_bps):
    """Vectorized closed form for many 1- and 2-UD clusters at once.

    Inputs are arrays of the gains of the lower-id and higher-id member of
    each cluster; a singleton has higher-id gain NaN. Returns (p_lo, p_hi,
    rate_lo, rate_hi, objective, feasible) arrays; a singleton's absent
    member gets power NaN and rate inf.
    """
    g1 = np.asarray(ud_lo_gain, dtype=float)
    g2 = np.asarray(ud_hi_gain, dtype=float)
    pair = ~np.isnan(g2)
    # lower id wins gain ties, i.e. decodes first; a singleton's UD is strong
    first_is_lo = ~(g2 > g1)
    g_s = np.where(first_is_lo, g1, g2)
    g_w = np.where(pair, np.where(first_is_lo, g2, g1), 0.0)
    try:
        gamma_th = 2.0 ** (rate_threshold_bps / bandwidth_hz) - 1.0
    except OverflowError:
        gamma_th = math.inf     # no SINR meets the floor: nothing is feasible

    p_s = np.full_like(g1, p_max)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if gamma_th > 0.0:
            p_w_cap = (p_max * g_s / gamma_th - noise_w) / np.where(g_w > 0, g_w, np.nan)
            p_w = np.minimum(p_max, p_w_cap)
        else:
            p_w = np.full_like(g1, p_max)
        p_w = np.where(np.isfinite(p_w), p_w, p_max if gamma_th == 0.0 else -1.0)
    p_w = np.where(pair, p_w, 0.0)
    feasible = p_w >= 0.0
    p_w = np.where(feasible, p_w, 0.0)
    sinr_s = p_s * g_s / (p_w * g_w + noise_w)
    sinr_w = p_w * g_w / noise_w
    rate_s = bandwidth_hz * np.log2(1.0 + sinr_s)
    rate_w = np.where(pair, bandwidth_hz * np.log2(1.0 + sinr_w), np.inf)
    # a relative slack on the floor lets the analytic boundary point
    # survive float round-trip
    floor = rate_threshold_bps * (1.0 - 1e-12)
    feasible &= (rate_s >= floor) & (rate_w >= floor)
    objective = np.where(feasible, np.log2(1.0 + sinr_s) + np.log2(1.0 + sinr_w), -np.inf)
    p_lo = np.where(first_is_lo, p_s, p_w)
    p_hi = np.where(pair, np.where(first_is_lo, p_w, p_s), np.nan)
    r_lo = np.where(first_is_lo, rate_s, rate_w)
    r_hi = np.where(first_is_lo, rate_w, rate_s)
    return p_lo, p_hi, r_lo, r_hi, objective, feasible


def solve_singletons_batch(gain, p_max, noise_w, bandwidth_hz, rate_threshold_bps):
    """solve_pairs_batch for 1-UD clusters: (power, rate, objective, feasible)."""
    gain = np.asarray(gain, dtype=float)
    p, _, rate, _, objective, feasible = solve_pairs_batch(
        gain, np.full_like(gain, np.nan), p_max, noise_w, bandwidth_hz, rate_threshold_bps)
    return p, rate, objective, feasible
