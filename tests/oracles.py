"""Independent re-implementations of the model formulas for oracle checks.

Everything here is written straight from the definitions in plain Python and
deliberately shares no code with the package under test. The exceptions
are graph_of, which only packs hand-written associations into the package's
ConflictGraph so that tests can run the solvers on them;
modified_ranks_by_unique, the package's earlier vectorized route kept as the
bit-for-bit reference of its modified ranks; and full_cells_by_ap and
pruned_cells_by_scan, the package's earlier per-call candidate builders,
kept as the bit-for-bit reference of the candidate clusters it now builds
once per topology.
"""

import math
from collections import namedtuple

import numpy as np

from nomec import ConflictGraph


def sic_sinr(members, gains, ud_id, noise_w):
    """SINR of ud_id in one NOMA cluster.

    members is a list of (ud_id, power_w); gains maps ud_id to its linear
    gain. Decoding runs in descending gain order (ties: ascending id), and a
    member sees interference only from those decoded after it.
    """
    order = sorted((m for m, _ in members), key=lambda m: (-gains[m], m))
    pos = order.index(ud_id)
    power = dict(members)
    interference = sum(power[m] * gains[m] for m in order[pos + 1:])
    return power[ud_id] * gains[ud_id] / (interference + noise_w)


def shannon_rate(sinr, bandwidth_hz):
    return bandwidth_hz * math.log2(1.0 + sinr)


def backhaul_rate(q_tx_w, gain, noise_w, bandwidth_hz, scaled=True):
    se = math.log2(1.0 + q_tx_w * gain / noise_w)
    return bandwidth_hz * se if scaled else se


def local_delay_energy(group, f_loc, alpha):
    """group: list of (size_bits, density_cpb, rate_bps)."""
    upload = max(b / r for b, _, r in group)
    cycles = sum(b * lam for b, lam, _ in group)
    return upload + cycles / f_loc, alpha * cycles * f_loc ** 2


def mec_delay_energy(group, rate_bh, f_mec, q_tx_w, q_idle_w):
    """group: list of (size_bits, density_cpb, rate_bps)."""
    upload = max(b / r for b, _, r in group)
    bits = sum(b for b, _, _ in group)
    cycles = sum(b * lam for b, lam, _ in group)
    t_fwd = bits / rate_bh
    t_cpu = cycles / f_mec
    return upload + t_fwd + t_cpu, t_fwd * q_tx_w + t_cpu * q_idle_w


def group_demand_cps(cycle_list, deadline_list):
    return sum(cycle_list) / (len(cycle_list) * min(deadline_list))


def vertex_weight(entries, f_loc, alpha):
    """entries: list of (size_bits, density_cpb, rate_bps) per member."""
    total = 0.0
    for b, lam, r in entries:
        cycles = b * lam
        total += b / r + cycles / f_loc + alpha * cycles * f_loc ** 2
    return total


def conflicts(a, b, strict_cc2=False):
    """True when two associations cannot coexist: a shared UD, or the same
    RRB of the same AP (strict mode: the same RRB index on any AP)."""
    if set(a.uds) & set(b.uds):
        return True
    return a.rrb == b.rrb and (strict_cc2 or a.ap == b.ap)


def graph_of(assocs, strict_cc2=False):
    """A ConflictGraph whose vertex i is assocs[i]. An association without
    a power solution gets NaN powers, rates and objective; a singleton gets
    the NaN power and unbounded rate the package gives its absent member."""
    rows = []
    for a in assocs:
        if a.power is None:
            powers, rates, obj = (math.nan, math.nan), (math.nan, math.nan), math.nan
        else:
            powers = a.power.powers + (math.nan,)
            rates = a.power.rates + (math.inf,)
            obj = a.power.objective
        u2 = a.uds[1] if len(a.uds) == 2 else -1
        rows.append((a.uds[0], u2, a.rrb, a.ap, a.weight,
                     powers[0], powers[1], rates[0], rates[1], obj))
    cols = [np.array([row[k] for row in rows], dtype=np.int64 if k < 4 else float)
            for k in range(10)]
    return ConflictGraph(*cols, strict_cc2=strict_cc2)


def modified_weight(i, adj, weights):
    non_adj = sum(weights[j] for j in range(len(weights))
                  if j != i and not adj[i][j])
    return weights[i] * non_adj


def _sum_by_unique(weights, keys):
    _, inverse = np.unique(keys, return_inverse=True)
    return np.bincount(inverse, weights=weights)[inverse]


def modified_ranks_by_unique(graph):
    """Every vertex's weight times its total non-neighbour weight, by
    inclusion-exclusion over the weight sums per UD, per slot, per (UD,
    slot), per UD pair and per (UD pair, slot), each group numbered
    densely with np.unique. Summing each group's entries in input order,
    it gives the package's modified_ranks bit for bit."""
    w = graph.weights
    n = len(w)
    pair = np.flatnonzero(graph.u2 >= 0)
    uds, member_ud = np.unique(np.concatenate([graph.u1, graph.u2[pair]]),
                               return_inverse=True)
    slots, slot = np.unique(graph.slot, return_inverse=True)
    member_of = np.concatenate([np.arange(n), pair])
    member_w = w[member_of]
    by_ud = _sum_by_unique(member_w, member_ud)
    by_ud_slot = _sum_by_unique(member_w, member_ud * len(slots) + slot[member_of])
    union = by_ud[:n] + _sum_by_unique(w, slot) - by_ud_slot[:n]
    pair_key = member_ud[pair] * len(uds) + member_ud[n:]
    union[pair] += (by_ud[n:] - by_ud_slot[n:] - _sum_by_unique(w[pair], pair_key)
                    + _sum_by_unique(w[pair], pair_key * len(slots) + slot[pair]))
    return w * (w.sum() - union)


GridSolution = namedtuple("GridSolution", "powers rates objective feasible")


def grid_oracle(members, channel, constraints, resolution=512):
    """Best sum-rate powers of one cluster over a uniform power grid.

    members is a list of 1 or 2 (ud_id, linear_gain); channel supplies
    noise_w and rrb_bandwidth_hz, constraints p_max_w and
    rate_threshold_bps. Each axis has resolution points from 0 to p_max
    (resolution=2 evaluates only the corners). Decoding runs in descending
    gain order (ties: ascending id), so the first decoded member sees the
    other's power as interference. Powers and rates follow the member
    order; the objective is the sum of log2(1 + sinr), -inf if no grid
    point meets the rate floor.
    """
    if len(members) not in (1, 2):
        raise ValueError("clusters hold 1 or 2 UDs")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    noise = channel.noise_w
    b0 = channel.rrb_bandwidth_hz
    r_th = constraints.rate_threshold_bps
    axis = np.linspace(0.0, constraints.p_max_w, resolution)
    none = GridSolution((0.0,) * len(members), (0.0,) * len(members), -math.inf, False)
    if len(members) == 1:
        se = np.log2(1.0 + axis * members[0][1] / noise)
        feasible = b0 * se >= r_th
        if not feasible.any():
            return none
        best = np.flatnonzero(feasible)[np.argmax(se[feasible])]
        return GridSolution((float(axis[best]),), (float(b0 * se[best]),),
                            float(se[best]), True)
    strong, weak = sorted((0, 1), key=lambda i: (-members[i][1], members[i][0]))
    p_s, p_w = np.meshgrid(axis, axis, indexing="ij")
    se_s = np.log2(1.0 + p_s * members[strong][1] / (p_w * members[weak][1] + noise))
    se_w = np.log2(1.0 + p_w * members[weak][1] / noise)
    feasible = (b0 * se_s >= r_th) & (b0 * se_w >= r_th)
    if not feasible.any():
        return none
    objective = np.where(feasible, se_s + se_w, -np.inf)
    i, j = np.unravel_index(np.argmax(objective), objective.shape)
    powers, rates = [0.0, 0.0], [0.0, 0.0]
    powers[strong], powers[weak] = float(axis[i]), float(axis[j])
    rates[strong], rates[weak] = float(b0 * se_s[i, j]), float(b0 * se_w[i, j])
    return GridSolution(tuple(powers), tuple(rates), float(objective[i, j]), True)


def greedy_order(rank, aps, rrbs, uds):
    """Every vertex index, sorted by (rank, ap, rrb, uds); uds are tuples
    of ascending ids, so a singleton precedes the pairs it starts."""
    return sorted(range(len(rank)), key=lambda i: (rank[i], aps[i], rrbs[i], uds[i]))


def maximal_set_in_order(order, aps, rrbs, uds, strict_cc2):
    """Walk the whole order and take each vertex none of whose resources is
    taken yet; a vertex holds its UDs and its RRB of its AP (strict mode:
    its RRB index on every AP)."""
    taken = set()
    picked = []
    for i in order:
        block = ("rrb", rrbs[i]) if strict_cc2 else ("rrb", aps[i], rrbs[i])
        needs = {block} | {("ud", u) for u in uds[i]}
        if not needs & taken:
            taken |= needs
            picked.append(i)
    return tuple(picked)


def picks_in_order(graph, order=None, rank=None):
    """maximal_set_in_order over a graph's vertices, walking order or, if
    it is None, the greedy_order of rank."""
    aps, rrbs = graph.ap_arr.tolist(), graph.rrb_arr.tolist()
    uds = [(a,) if b < 0 else (a, b) for a, b in zip(graph.u1.tolist(), graph.u2.tolist())]
    if order is None:
        order = greedy_order(np.asarray(rank).tolist(), aps, rrbs, uds)
    return maximal_set_in_order(order, aps, rrbs, uds, graph.strict_cc2)


def full_cells_by_ap(scenario, rrbs=None):
    """enumerate_full's candidate clusters as (u1, u2, ap, rrb) int64
    columns, built AP by AP: per RRB the covered UDs as singletons, then
    their pairs in triu order."""
    cells = [[np.empty(0, dtype=np.int64)] * 4]
    for ap in scenario.aps:
        rrb_list = np.asarray(range(ap.num_rrbs) if rrbs is None else rrbs, dtype=np.int64)
        ids = np.array(sorted(scenario.coverage[ap.id]), dtype=np.int64)
        pair_i, pair_j = np.triu_indices(ids.size, 1)
        c1 = np.concatenate([ids, ids[pair_i]])
        c2 = np.concatenate([np.full(ids.size, -1, dtype=np.int64), ids[pair_j]])
        cells.append((np.tile(c1, rrb_list.size), np.tile(c2, rrb_list.size),
                      np.full(c1.size * rrb_list.size, ap.id, dtype=np.int64),
                      np.repeat(rrb_list, c1.size)))
    return tuple(np.concatenate(col) for col in zip(*cells))


def pruned_cells_by_scan(scenario, rel_tol=1e-9):
    """build_pruned's candidate clusters as (u1, u2, ap, rrb) int64
    columns, from a slot-by-slot scan over the UDs with one load test per
    candidate seed and per partner."""
    n = len(scenario.devices)
    cells = []
    used_seeds = set()
    slot_index = 0
    for ap in scenario.aps:
        cover = scenario.coverage[ap.id]
        budget = ap.f_loc_max_cps / ap.num_rrbs
        for z in range(ap.num_rrbs):
            seed, fallback = None, None
            for offset in range(n):
                cand = (slot_index + offset) % n
                if cand not in cover:
                    continue
                task = scenario.devices[cand].task
                load = group_demand_cps([task.cycles], [task.deadline_s])
                if load < budget * (1.0 - rel_tol):
                    single = False
                elif abs(load - budget) <= rel_tol * budget:
                    single = True
                else:
                    continue
                if cand not in used_seeds:
                    seed = (cand, single)
                    break
                if fallback is None:
                    fallback = (cand, single)
            seed = seed or fallback
            slot_index += 1
            if seed is None:
                continue
            seed, single = seed
            used_seeds.add(seed)
            cells.append((seed, -1, ap.id, z))
            if single:
                continue
            mine = scenario.devices[seed].task
            for u in sorted(cover - {seed}):
                other = scenario.devices[u].task
                if group_demand_cps([mine.cycles, other.cycles],
                                    [mine.deadline_s, other.deadline_s]) <= budget * (1.0 + rel_tol):
                    cells.append((min(seed, u), max(seed, u), ap.id, z))
    return tuple(np.array(col, dtype=np.int64) for col in (zip(*cells) if cells else [()] * 4))


def full_vertex_count(n_uds, n_aps, n_rrbs):
    return (math.comb(n_uds, 2) + n_uds) * n_aps * n_rrbs


def min_weight_maximal_independent_set(adj, weights):
    """All-subsets search for the minimum-weight maximal independent set.

    adj is a symmetric boolean matrix. Returns (total_weight, index tuple);
    intended for graphs of at most ~14 vertices.
    """
    n = len(weights)
    best = None
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        ok = True
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if adj[members[a]][members[b]]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        # maximal: every outside vertex conflicts with some member
        for i in range(n):
            if mask >> i & 1:
                continue
            if not any(adj[i][j] for j in members):
                ok = False
                break
        if not ok:
            continue
        cand = (sum(weights[i] for i in members), tuple(members))
        if best is None or cand < best:
            best = cand
    return best


def sign_test_p_increase(n_increase, n_decrease):
    """One-sided exact binomial p-value for "increases dominate"."""
    n = n_increase + n_decrease
    if n == 0:
        return 1.0
    return sum(math.comb(n, k) for k in range(n_increase, n + 1)) / 2.0 ** n


def recompute_metrics(schedule, plan, scenario):
    """Re-evaluate a finished run from raw data with the formulas above.

    Returns (latency_s, energy_j, cost, capacity, scheduled). Only reads
    attributes of the passed objects; shares no evaluation code with the
    package.
    """
    w = scenario.weights
    chan = scenario.channel
    scaled = scenario.config.backhaul_bandwidth_scaling
    ap_by_id = {a.id: a for a in scenario.aps}
    mec_by_id = {m.id: m for m in scenario.mecs}
    latency = 0.0
    energy = 0.0
    capacity = 0
    scheduled = 0
    for ap_id, entries in schedule.ap_groups.items():
        if not entries:
            continue
        scheduled += len(entries)
        if ap_id in plan.failed_aps:
            continue
        ap = ap_by_id[ap_id]
        group = [(t.size_bits, t.density_cpb, rate) for _, t, rate in entries]
        deadline = min(t.deadline_s for _, t, _ in entries)
        if not plan.local.x[ap_id]:
            d, e = local_delay_energy(group, plan.local.f_loc[ap_id], w.alpha_cpu)
            demand = group_demand_cps([b * lam for b, lam, _ in group],
                                      [t.deadline_s for _, t, _ in entries])
            ok = demand <= ap.f_loc_max_cps * (1.0 + 1e-9)
        elif plan.admission.y.get(ap_id, False):
            mec = mec_by_id[plan.admission.assignment[ap_id]]
            rate_bh = backhaul_rate(ap.q_tx_w, chan.gain_ap_mec[(ap_id, mec.id)],
                                    chan.noise_w, chan.rrb_bandwidth_hz, scaled)
            d, e = mec_delay_energy(group, rate_bh, mec.f_mec_cps,
                                    ap.q_tx_w, ap.q_idle_w)
            ok = d <= deadline
        else:
            d, e = local_delay_energy(group, ap.f_loc_max_cps, w.alpha_cpu)
            ok = d <= deadline
        latency = max(latency, d)
        energy += e
        if ok:
            capacity += len(entries)
    cost = w.w_latency * latency + w.w_energy * energy
    return latency, energy, cost, capacity, scheduled
