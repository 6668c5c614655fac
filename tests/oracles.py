"""Independent re-implementations of the model formulas for oracle checks.

Everything here is written straight from the definitions in plain Python and
deliberately shares no code with the package under test. The exceptions
are graph_of, which only packs hand-written associations into the package's
ConflictGraph so that tests can run the solvers on them; the references
that read a ConflictGraph's vertex arrays or packed rows directly:
adjacency_matrix, is_independent, is_maximal and exact_min_wis, the
exhaustive search that bounds the greedy from below; and the package's
earlier routes, each kept as the bit-for-bit reference of the one
that replaced it: modified_ranks_by_unique for its modified ranks;
full_cells_by_ap and pruned_cells_by_scan, per-call candidate builders, for
the candidate clusters it now builds once per topology; and
solve_pairs_batch_by_where, solve_cells_by_copy, reweighed_by_copy and
pairs_first_order, which allocate an array per step and sort in full, for
its buffered power solve, graph assembly and chunked all_offload order;
and greedy_by_order_full_read and stage1_by_copy, the greedy pass that
reads every chunk whole and the stage-1 loop that copies its pool every
iteration, for the live-vertex pass and the one-pool stage 1.
stage1_by_copy runs the package's enumeration and local allocation,
which other tests pin, around its own greedy and reweighed_by_copy. rows_of packs
rows of a graph into a fresh one, as graph_of packs associations.
"""

import math
from collections import namedtuple

import numpy as np

from nomec import ConflictGraph, allocate_local, enumerate_full


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


def second_layer_weight(group, rate_bh):
    """Affinity of a group for a backhaul link of rate rate_bh: the rate
    times the mean density over the total bits. group: list of
    (size_bits, density_cpb)."""
    mean_density = sum(lam for _, lam in group) / len(group)
    return rate_bh * mean_density / sum(b for b, _ in group)


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


def adjacency_matrix(graph):
    """The graph's packed adjacency rows as a dense boolean matrix."""
    return np.unpackbits(graph.adj_bits, axis=1, count=len(graph)).astype(bool)


def _used_uds(graph, idx):
    u2 = graph.u2[idx]
    return np.concatenate([graph.u1[idx], u2[u2 >= 0]])


def is_independent(graph, indices):
    """No UD and no slot is used twice by the distinct given vertices."""
    idx = np.unique(np.asarray(indices, dtype=np.int64))
    uds = _used_uds(graph, idx)
    return (np.unique(uds).size == uds.size
            and np.unique(graph.slot[idx]).size == idx.size)


def is_maximal(graph, indices):
    """No surviving vertex could still be added: every vertex uses a UD or
    the slot of some given vertex."""
    idx = np.asarray(indices, dtype=np.int64)
    uds = _used_uds(graph, idx)
    blocked = (np.isin(graph.u1, uds) | np.isin(graph.u2, uds)
               | np.isin(graph.slot, graph.slot[idx]))
    return bool(blocked.all())


ExactSet = namedtuple("ExactSet", "indices total_weight")
EXACT_LIMIT = 25


def exact_min_wis(graph):
    """Exhaustive minimum-weight maximal independent set, at most 25
    vertices, as (sorted indices, total weight).

    Maximal independent sets of the graph are the maximal cliques of its
    complement, enumerated Bron-Kerbosch style over int bitmasks. Reaches
    past the all-subsets search below, which tops out near 14 vertices.
    """
    n = len(graph)
    if n > EXACT_LIMIT:
        raise ValueError(f"exact search limited to {EXACT_LIMIT} vertices, got {n}")
    if n == 0:
        return ExactSet((), 0.0)
    adj = adjacency_matrix(graph)
    comp = []
    for i in range(n):
        mask = 0
        for j in range(n):
            if j != i and not adj[i, j]:
                mask |= 1 << j
        comp.append(mask)
    weights = graph.weights
    best = None  # (total_weight, sorted index tuple)

    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def bk(r_mask, p_mask, x_mask):
        nonlocal best
        if p_mask == 0 and x_mask == 0:
            members = tuple(bits(r_mask))
            cand = (float(sum(weights[i] for i in members)), members)
            if best is None or cand < best:
                best = cand
            return
        pivot = max(bits(p_mask | x_mask), key=lambda u: bin(p_mask & comp[u]).count("1"))
        for v in bits(p_mask & ~comp[pivot]):
            bk(r_mask | (1 << v), p_mask & comp[v], x_mask & comp[v])
            p_mask &= ~(1 << v)
            x_mask |= 1 << v

    bk(0, (1 << n) - 1, 0)
    return ExactSet(best[1], float(sum(weights[i] for i in best[1])))


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


def solve_pairs_batch_by_where(ud_lo_gain, ud_hi_gain, p_max, noise_w, bandwidth_hz,
                                rate_threshold_bps):
    """The batched closed form as one fresh array per step, np.where for
    every selection: (p_lo, p_hi, rate_lo, rate_hi, objective, feasible)."""
    g1 = np.asarray(ud_lo_gain, dtype=float)
    g2 = np.asarray(ud_hi_gain, dtype=float)
    pair = ~np.isnan(g2)
    first_is_lo = ~(g2 > g1)
    g_s = np.where(first_is_lo, g1, g2)
    g_w = np.where(pair, np.where(first_is_lo, g2, g1), 0.0)
    try:
        gamma_th = 2.0 ** (rate_threshold_bps / bandwidth_hz) - 1.0
    except OverflowError:
        gamma_th = math.inf
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
    floor = rate_threshold_bps * (1.0 - 1e-12)
    feasible &= (rate_s >= floor) & (rate_w >= floor)
    objective = np.where(feasible, np.log2(1.0 + sinr_s) + np.log2(1.0 + sinr_w), -np.inf)
    p_lo = np.where(first_is_lo, p_s, p_w)
    p_hi = np.where(pair, np.where(first_is_lo, p_w, p_s), np.nan)
    r_lo = np.where(first_is_lo, rate_s, rate_w)
    r_hi = np.where(first_is_lo, rate_w, rate_s)
    return p_lo, p_hi, r_lo, r_hi, objective, feasible


def _weights_by_copy(scenario, u1, u2, ap, r1, r2, f_loc):
    sizes = np.array([d.task.size_bits for d in scenario.devices] + [0.0])
    cycles = np.array([d.task.cycles for d in scenario.devices] + [0.0])
    f = np.array([f_loc[m.id] for m in scenario.aps])
    per_cycle = (1.0 / f + scenario.weights.alpha_cpu * f * f)[ap]
    return sizes[u1] / r1 + sizes[u2] / r2 + cycles[u1] * per_cycle + cycles[u2] * per_cycle


def solve_cells_by_copy(scenario, cells, strict_cc2):
    """The graph over the feasible clusters among cells, (u1, u2, ap, rrb)
    columns: gains by three-way fancy indexing, solve_pairs_batch_by_where,
    a filtered copy of every column and weights at the frequency caps."""
    u1, u2, ap, rrb = (np.asarray(col, dtype=np.int64) for col in cells)
    chan = scenario.channel
    p1, p2, r1, r2, obj, feas = solve_pairs_batch_by_where(
        chan.gain_ud_rrb[u1, ap, rrb], np.where(u2 >= 0, chan.gain_ud_rrb[u2, ap, rrb], np.nan),
        scenario.devices[0].p_max_w, chan.noise_w, chan.rrb_bandwidth_hz,
        scenario.weights.rate_threshold_bps)
    keep = np.flatnonzero(feas & (r1 > 0) & (r2 > 0))
    u1, u2, ap, rrb, p1, p2, r1, r2, obj = (
        col[keep] for col in (u1, u2, ap, rrb, p1, p2, r1, r2, obj))
    w = _weights_by_copy(scenario, u1, u2, ap, r1, r2,
                         {m.id: m.f_loc_max_cps for m in scenario.aps})
    return ConflictGraph(u1, u2, rrb, ap, w, p1, p2, r1, r2, obj, strict_cc2)


def reweighed_by_copy(scenario, graph, keep, f_loc):
    """A copy of every column of graph where keep is set, weighed at the
    per-AP frequencies f_loc."""
    u1, u2, rrb, ap, p1, p2, r1, r2, obj = (
        col[keep] for col in (graph.u1, graph.u2, graph.rrb_arr, graph.ap_arr, graph._p1,
                              graph._p2, graph._r1, graph._r2, graph._obj))
    w = _weights_by_copy(scenario, u1, u2, ap, r1, r2, f_loc)
    return ConflictGraph(u1, u2, rrb, ap, w, p1, p2, r1, r2, obj, graph.strict_cc2)


def greedy_by_order_full_read(graph, chunks):
    """The package's greedy pass as it was before it cut its chunks to the
    vertices the picks so far leave free: each chunk of the order is read
    whole, and the pass stops only once every slot or every UD of the graph
    is used. Returns the picks in order."""
    n_slots = int(np.count_nonzero(np.bincount(graph.slot)))
    u2 = graph.u2
    n_uds = int(np.count_nonzero(np.bincount(np.concatenate([graph.u1, u2[u2 >= 0]]))))
    used_uds, used_slots, picked = set(), set(), []
    for chunk in chunks:
        for i, a, b, s in zip(chunk.tolist(), graph.u1[chunk].tolist(),
                              graph.u2[chunk].tolist(), graph.slot[chunk].tolist()):
            if a in used_uds or b in used_uds or s in used_slots:
                continue
            picked.append(i)
            used_uds.add(a)
            if b >= 0:
                used_uds.add(b)
            used_slots.add(s)
            if len(used_slots) == n_slots or len(used_uds) == n_uds:
                return tuple(picked)
    return tuple(picked)


def greedy_full_read(graph, ordering):
    """greedy_min_wis's picks from one full sort by (rank, ap, rrb, uds),
    NaN ranks last, read by greedy_by_order_full_read."""
    rank = modified_ranks_by_unique(graph) if ordering == "modified" else graph.weights
    order = np.lexsort((graph.u2, graph.u1, graph.rrb_arr, graph.ap_arr, rank))
    return greedy_by_order_full_read(graph, [order])


def stage1_by_copy(scenario, strict_cc2, ordering, max_iters):
    """The package's stage-1 alternation as it was before it weighed one
    pool in place: every iteration after the first searches a masked copy
    of the pool with greedy_full_read, and no iteration is reused. Returns
    (associations, final graph, final picks, extras) as the package's
    stage 1 does, without cycle_period."""
    caps = {ap.id: ap.f_loc_max_cps for ap in scenario.aps}
    f_loc = dict(caps)
    committed = []
    active = (np.ones(len(scenario.devices) + 1, dtype=bool),
              np.ones(len(scenario.aps), dtype=bool),
              np.ones(max(ap.num_rrbs for ap in scenario.aps), dtype=bool))
    active_ud, active_ap, active_rrb = active

    def in_pool(g, ud, ap, rrb):
        return ud[g.u1] & ud[g.u2] & ap[g.ap_arr] & rrb[g.rrb_arr]

    tasks = [d.task for d in scenario.devices]
    solved = enumerate_full(scenario, strict_cc2=strict_cc2)
    pool = graph = (solved if ordering == "modified"
                    else reweighed_by_copy(scenario, solved, solved.u2 < 0, caps))
    converged = False
    iterations = 0
    for it in range(max_iters):
        iterations = it + 1
        if it > 0:
            masks, weighed_at = [a.copy() for a in active], dict(f_loc)
            graph = reweighed_by_copy(scenario, pool, in_pool(pool, *masks), f_loc)
        picks = greedy_full_read(graph, ordering)
        idx = np.array(picks, dtype=np.int64)
        pick_aps = graph.ap_arr[idx].tolist()
        groups = {}
        for m, u1, u2 in zip(pick_aps, graph.u1[idx].tolist(), graph.u2[idx].tolist()):
            groups.setdefault(m, []).extend(tasks[u] for u in (u1, u2) if u >= 0)
        alloc = allocate_local(groups, caps)
        new_flags = {m for m, flagged in alloc.x.items() if flagged}
        f_new = {m: alloc.f_loc[m] for m in alloc.f_loc if not alloc.x[m]}
        if not new_flags and all(f_loc[m] == f_new[m] for m in f_new):
            converged = True
            break
        for i, m in zip(picks, pick_aps):
            if m in new_flags:
                committed.append(graph.vertex(i))
                active_ud[list(committed[-1].uds)] = False
                if strict_cc2:
                    active_rrb[committed[-1].rrb] = False
        active_ap[list(new_flags)] = False
        f_loc.update(f_new)
    committed_aps = frozenset(np.flatnonzero(~active_ap).tolist())
    assocs = committed + [graph.vertex(i) for i, m in zip(picks, pick_aps)
                          if m not in committed_aps]
    if pool is not solved:
        graph = solved if iterations == 1 else reweighed_by_copy(
            scenario, solved, in_pool(solved, *masks), weighed_at)
        picks = tuple(np.flatnonzero(graph.u2 < 0)[idx].tolist())
    extras = {"vertices": len(solved), "iterations": iterations,
              "converged": converged, "stage1_f_loc": dict(f_loc),
              "committed_aps": committed_aps}
    return assocs, graph, picks, extras


def rows_of(graph, rows):
    """A fresh ConflictGraph of the given rows of graph, weights included."""
    columns = (graph.u1, graph.u2, graph.rrb_arr, graph.ap_arr, graph.weights,
               graph._p1, graph._p2, graph._r1, graph._r2, graph._obj)
    return ConflictGraph(*(col[rows] for col in columns), strict_cc2=graph.strict_cc2)


def pairs_first_order(graph):
    """all_offload's vertex order from one full sort: pairs before
    singletons, then by weight, AP, RRB and the UD ids."""
    singleton = (graph.u2 < 0).astype(np.int8)
    return np.lexsort((graph.u2, graph.u1, graph.rrb_arr, graph.ap_arr, graph.weights,
                       singleton))


GridSolution = namedtuple("GridSolution", "powers rates objective feasible")
# the power cap and rate floor grid_oracle searches under
PowerLimits = namedtuple("PowerLimits", "p_max_w rate_threshold_bps")


def grid_oracle(members, channel, constraints, resolution=512):
    """Best sum-rate powers of one cluster over a uniform power grid.

    members is a list of 1 or 2 (ud_id, linear_gain); channel supplies
    noise_w and rrb_bandwidth_hz, constraints (a PowerLimits) p_max_w and
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
