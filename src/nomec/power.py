"""Per-cluster NOMA transmit power allocation.

For a 1- or 2-UD cluster on one RRB the solver maximizes the SIC sum rate
subject to per-UD power caps and a per-UD rate floor. The uplink sum rate
log2((p_s*g_s + p_w*g_w + noise)/noise) is increasing in both powers, so the
optimum sits at p_strong = p_max with p_weak at p_max or on the rate-floor
boundary of the strong UD. The batched forms solve many clusters at once
with the same closed form.
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


def _sic_order(members):
    """Decoding order: descending gain, ties by ascending ud id."""
    return sorted(range(len(members)), key=lambda i: (-members[i][1], members[i][0]))


def _evaluate(members, powers, noise_w, bandwidth_hz):
    """Per-member (sinr, rate) under SIC for given powers."""
    order = _sic_order(members)
    out = [None] * len(members)
    for pos, i in enumerate(order):
        interference = sum(powers[j] * members[j][1] for j in order[pos + 1:])
        s = powers[i] * members[i][1] / (interference + noise_w)
        out[i] = (s, bandwidth_hz * math.log2(1.0 + s))
    return out


def solve_cluster_power(members, channel, constraints: PowerConstraints) -> ClusterPowerSolution:
    """Sum-rate optimal powers for one cluster, the best of the closed-form
    candidate points.

    members: sequence of (ud_id, linear_gain), length 1 or 2.
    """
    if len(members) not in (1, 2):
        raise ValueError("clusters hold 1 or 2 UDs")
    p_max = constraints.p_max_w
    noise = channel.noise_w
    b0 = channel.rrb_bandwidth_hz
    r_th = constraints.rate_threshold_bps

    def package(powers):
        ev = _evaluate(members, powers, noise, b0)
        rates = tuple(r for _, r in ev)
        # floor enforced to 1e-12 relative so the analytic boundary point
        # survives float round-trip
        if any(r < r_th * (1.0 - 1e-12) for r in rates):
            return None
        obj = sum(math.log2(1.0 + s) for s, _ in ev)
        return ClusterPowerSolution(tuple(powers), rates, obj, True)

    infeasible = ClusterPowerSolution((0.0,) * len(members), (0.0,) * len(members),
                                      float("-inf"), False)
    if len(members) == 1:
        sol = package([p_max])
        return sol if sol is not None else infeasible

    order = _sic_order(members)
    strong, weak = order[0], order[1]
    g_s = members[strong][1]
    g_w = members[weak][1]
    gamma_th = 2.0 ** (r_th / b0) - 1.0

    candidates = [[p_max, p_max]]
    if gamma_th > 0.0 and g_w > 0.0:
        # strong UD's floor binds: p_w where sinr_strong == gamma_th
        p_w_hi = (p_max * g_s / gamma_th - noise) / g_w
        if 0.0 <= p_w_hi <= p_max:
            pw = [0.0, 0.0]
            pw[strong] = p_max
            pw[weak] = p_w_hi
            candidates.append(pw)

    best = infeasible
    for cand in candidates:
        sol = package(cand)
        if sol is not None and sol.objective > best.objective:
            best = sol
    return best


def solve_pairs_batch(ud_lo_gain, ud_hi_gain, p_max, noise_w, bandwidth_hz,
                      rate_threshold_bps):
    """Vectorized closed form for many 2-UD clusters at once.

    Inputs are arrays of the gains of the lower-id and higher-id member of
    each pair. Returns (p_lo, p_hi, rate_lo, rate_hi, objective, feasible)
    arrays matching solve_cluster_power.
    """
    g1 = np.asarray(ud_lo_gain, dtype=float)
    g2 = np.asarray(ud_hi_gain, dtype=float)
    # lower id wins gain ties, i.e. decodes first
    first_is_lo = (g1 >= g2)
    g_s = np.where(first_is_lo, g1, g2)
    g_w = np.where(first_is_lo, g2, g1)
    gamma_th = 2.0 ** (rate_threshold_bps / bandwidth_hz) - 1.0

    p_s = np.full_like(g1, p_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        if gamma_th > 0.0:
            p_w_cap = (p_max * g_s / gamma_th - noise_w) / np.where(g_w > 0, g_w, np.nan)
            p_w = np.minimum(p_max, p_w_cap)
        else:
            p_w = np.full_like(g1, p_max)
        p_w = np.where(np.isfinite(p_w), p_w, p_max if gamma_th == 0.0 else -1.0)
    feasible = p_w >= 0.0
    p_w = np.where(feasible, p_w, 0.0)
    sinr_s = p_s * g_s / (p_w * g_w + noise_w)
    sinr_w = p_w * g_w / noise_w
    rate_s = bandwidth_hz * np.log2(1.0 + sinr_s)
    rate_w = bandwidth_hz * np.log2(1.0 + sinr_w)
    # same 1e-12 relative slack as the scalar path
    floor = rate_threshold_bps * (1.0 - 1e-12)
    feasible &= (rate_s >= floor) & (rate_w >= floor)
    objective = np.where(feasible, np.log2(1.0 + sinr_s) + np.log2(1.0 + sinr_w), -np.inf)
    p_lo = np.where(first_is_lo, p_s, p_w)
    p_hi = np.where(first_is_lo, p_w, p_s)
    r_lo = np.where(first_is_lo, rate_s, rate_w)
    r_hi = np.where(first_is_lo, rate_w, rate_s)
    return p_lo, p_hi, r_lo, r_hi, objective, feasible


def solve_singletons_batch(gain, p_max, noise_w, bandwidth_hz, rate_threshold_bps):
    """Vectorized single-UD solution: full power, feasibility by rate floor."""
    g = np.asarray(gain, dtype=float)
    snr = p_max * g / noise_w
    rate = bandwidth_hz * np.log2(1.0 + snr)
    objective = np.log2(1.0 + snr)
    feasible = rate >= rate_threshold_bps * (1.0 - 1e-12)
    power = np.full_like(g, p_max)
    return power, rate, objective, feasible
