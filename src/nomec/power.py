"""Per-cluster NOMA transmit power allocation.

For a 1- or 2-UD cluster on one RRB the solver maximizes the SIC sum rate
subject to per-UD power caps and a per-UD rate floor. The uplink sum rate
log2((p_s*g_s + p_w*g_w + noise)/noise) is increasing in both powers, so the
optimum sits at p_strong = p_max with p_weak at p_max or on the rate-floor
boundary of the strong UD. solve_pairs_batch is that closed form for many
clusters at once, and every rate a schedule reports comes from it.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClusterPowerSolution:
    """The solved powers and rates of a feasible cluster, in its member
    order, and the sum of its log2(1+sinr) terms (bandwidth-free)."""
    powers: tuple
    rates: tuple
    objective: float


def solve_pairs_batch(ud_lo_gain, ud_hi_gain, p_max, noise_w, bandwidth_hz,
                      rate_threshold_bps):
    """Vectorized closed form for many 1- and 2-UD clusters at once.

    Inputs are arrays of the gains of the lower-id and higher-id member of
    each cluster; a singleton has higher-id gain NaN. Returns (p_lo, p_hi,
    rate_lo, rate_hi, objective, feasible) arrays; a singleton's absent
    member gets power NaN and rate inf.

    The strong member transmits at p_max and the weak one at p_max or on
    the strong member's rate-floor boundary. The work runs in six
    batch-length float buffers, each step writing in place (out= and
    copyto), and log2(1 + sinr) is taken once per member for both the
    rates and the objective. Every element sees the operations of the
    textbook form in the same order, so the results are the same bits.
    """
    g1 = np.asarray(ud_lo_gain, dtype=float)
    g2 = np.asarray(ud_hi_gain, dtype=float)
    single = np.isnan(g2)
    # lower id wins gain ties, i.e. decodes first; a singleton's UD is strong
    first_is_hi = g2 > g1
    strong = np.where(first_is_hi, g2, g1)
    weak = np.where(first_is_hi, g1, g2)
    np.copyto(weak, 0.0, where=single)
    try:
        gamma_th = 2.0 ** (rate_threshold_bps / bandwidth_hz) - 1.0
    except OverflowError:
        gamma_th = math.inf     # no SINR meets the floor: nothing is feasible

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if gamma_th > 0.0:
            # the weak power that puts the strong member on the floor
            p_w = np.multiply(strong, p_max)
            p_w /= gamma_th
            p_w -= noise_w
            p_w /= weak
            np.copyto(p_w, np.nan, where=~(weak > 0))
            np.minimum(p_w, p_max, out=p_w)
        else:
            p_w = np.full_like(g1, p_max)
        np.copyto(p_w, p_max if gamma_th == 0.0 else -1.0, where=~np.isfinite(p_w))
    np.copyto(p_w, 0.0, where=single)
    feasible = p_w >= 0.0
    np.copyto(p_w, 0.0, where=~feasible)
    # strong and weak turn into each member's SINR, then log2(1 + SINR),
    # then its rate
    np.multiply(p_w, weak, out=weak)
    objective = weak + noise_w
    weak /= noise_w
    strong *= p_max
    strong /= objective
    for sinr in (strong, weak):
        np.log2(np.add(sinr, 1.0, out=sinr), out=sinr)
    np.add(strong, weak, out=objective)
    strong *= bandwidth_hz
    weak *= bandwidth_hz
    np.copyto(weak, np.inf, where=single)
    # a relative slack on the floor lets the analytic boundary point
    # survive float round-trip
    floor = rate_threshold_bps * (1.0 - 1e-12)
    feasible &= (strong >= floor) & (weak >= floor)
    np.copyto(objective, -np.inf, where=~feasible)
    p_lo = np.where(first_is_hi, p_w, p_max)
    np.copyto(p_w, p_max, where=first_is_hi)
    np.copyto(p_w, np.nan, where=single)
    r_lo = np.where(first_is_hi, weak, strong)
    np.copyto(weak, strong, where=first_is_hi)
    return p_lo, p_w, r_lo, weak, objective, feasible


def solve_singletons_batch(gain, p_max, noise_w, bandwidth_hz, rate_threshold_bps):
    """solve_pairs_batch for 1-UD clusters: (power, rate, objective, feasible)."""
    gain = np.asarray(gain, dtype=float)
    p, _, rate, _, objective, feasible = solve_pairs_batch(
        gain, np.full_like(gain, np.nan), p_max, noise_w, bandwidth_hz, rate_threshold_bps)
    return p, rate, objective, feasible
