"""NOMA association conflict graphs.

A vertex is a 1- or 2-UD association with one RRB of one AP, carrying its
solved powers and a weight equal to the summed per-UD local-processing
utility. Two vertices conflict when they share a UD or compete for the same
RRB of the same AP (strict mode: the same RRB index anywhere), so the graph
is a union of cliques, one per UD and one per slot, and every scheduling
decision can be made from the per-vertex u1/u2/slot keys alone.

enumerate_full builds the vertex arrays without edges; that is what the
schedulers use. Adjacency is explicit only as packed bitset rows, built
lazily on first access to ``adj_bits`` with vectorized pairwise
comparisons. build_full forces that build, so its cost scales with the
square of the vertex count, as the enumeration the paper describes does;
only the tests read the explicit rows.
"""

import bisect
import copy
from dataclasses import dataclass

import numpy as np

from .model import REL_TOL
from .power import ClusterPowerSolution, solve_pairs_batch
# kept bound here: perfbench/tracer.py wraps graph.solve_singletons_batch by name
from .power import solve_singletons_batch  # noqa: F401


@dataclass(frozen=True)
class NomaAssociation:
    """One candidate cluster: uds (ascending ids), an RRB of an AP, the
    solved power allocation, and the scheduling weight."""
    uds: tuple
    rrb: int
    ap: int
    power: ClusterPowerSolution = None
    weight: float = 0.0

    def __post_init__(self):
        n = len(self.uds)
        if n == 1:
            return
        if n != 2:
            raise ValueError("associations hold 1 or 2 UDs")
        if not self.uds[0] < self.uds[1]:
            raise ValueError("uds must be distinct and sorted ascending")

    @property
    def key(self):
        return (self.uds, self.rrb, self.ap)


class ConflictGraph:
    """Array-backed vertex store plus lazily built packed bitset adjacency.

    Vertex i is the cluster u1[i] (and u2[i], -1 for a singleton) on RRB
    rrb[i] of AP ap[i], with scheduling weight weights[i] and solved powers
    p1/p2, rates r1/r2 and objective obj; strict_cc2 records which conflict
    rule produces the edges. ``slot`` names the conflicting resource block.
    NomaAssociation objects are materialized on demand, so building large
    graphs stays an array operation; ``adj_bits`` is built on first access.
    """

    def __init__(self, u1, u2, rrb, ap, weights, p1, p2, r1, r2, obj,
                 strict_cc2: bool = False):
        self.strict_cc2 = strict_cc2
        self.u1, self.u2, self.rrb_arr, self.ap_arr, self.weights = u1, u2, rrb, ap, weights
        self._p1, self._p2, self._r1, self._r2, self._obj = p1, p2, r1, r2, obj
        if strict_cc2:
            self.slot = rrb
        else:
            max_rrb = int(rrb.max()) if len(rrb) else 0
            self.slot = ap * (max_rrb + 1)
            self.slot += rrb
        self._adj_bits = None

    @property
    def adj_bits(self) -> np.ndarray:
        """Packed bitset adjacency rows, built on first access."""
        if self._adj_bits is None:
            self._adj_bits = self._build_adjacency(self.u1, self.u2, self.slot)
        return self._adj_bits

    @property
    def vertices(self):
        return tuple(self.vertex(i) for i in range(len(self)))

    def vertex(self, i: int) -> NomaAssociation:
        """Vertex i as a NomaAssociation, built on demand."""
        u2 = int(self.u2[i])
        if u2 < 0:
            uds = (int(self.u1[i]),)
            sol = ClusterPowerSolution((float(self._p1[i]),), (float(self._r1[i]),),
                                       float(self._obj[i]))
        else:
            uds = (int(self.u1[i]), u2)
            sol = ClusterPowerSolution((float(self._p1[i]), float(self._p2[i])),
                                       (float(self._r1[i]), float(self._r2[i])),
                                       float(self._obj[i]))
        return NomaAssociation(uds, int(self.rrb_arr[i]), int(self.ap_arr[i]),
                               sol, float(self.weights[i]))

    @staticmethod
    def _build_adjacency(u1, u2, slot, block: int = 2048):
        n = len(slot)
        row_bytes = (n + 7) // 8
        adj = np.zeros((n, row_bytes), dtype=np.uint8)
        if n == 0:
            return adj
        lo = min(int(u1.min()), int(u2.min()), int(slot.min()))
        hi = max(int(u1.max()), int(u2.max()), int(slot.max()))
        if np.iinfo(np.int32).min < lo and hi < np.iinfo(np.int32).max:
            u1, u2, slot = (a.astype(np.int32) for a in (u1, u2, slot))
        nb = min(block, n)
        # two reusable row-block buffers keep every pass allocation-free
        buf = np.empty((nb, n), dtype=bool)
        tmp = np.empty((nb, n), dtype=bool)
        u1_col, u2_col, slot_col = u1[None, :], u2[None, :], slot[None, :]
        u2_present = u2 >= 0
        # rows shorter than numpy's ufunc buffer take a slower buffered
        # path; shrinking the buffer keeps the direct loop for every block
        old_bufsize = np.getbufsize()
        np.setbufsize(512)
        try:
            for start in range(0, n, nb):
                end = min(n, start + nb)
                k = end - start
                b, t = buf[:k], tmp[:k]
                np.equal(slot[start:end, None], slot_col, out=b)
                np.equal(u1[start:end, None], u1_col, out=t)
                np.logical_or(b, t, out=b)
                np.equal(u1[start:end, None], u2_col, out=t)
                np.logical_or(b, t, out=b)
                np.equal(u2[start:end, None], u1_col, out=t)
                np.logical_or(b, t, out=b)
                np.equal(u2[start:end, None], u2_col, out=t)
                np.logical_and(t, u2_present[start:end, None], out=t)
                np.logical_or(b, t, out=b)
                rows = np.arange(start, end)
                b[rows - start, rows] = False
                adj[start:end] = np.packbits(b, axis=1)
        finally:
            np.setbufsize(old_bufsize)
        return adj

    def __len__(self):
        return len(self.weights)

    def neighbor_mask(self, i: int) -> np.ndarray:
        """Boolean neighbor row for vertex i."""
        n = len(self.weights)
        return np.unpackbits(self.adj_bits[i], count=n).astype(bool)


def modified_weight(i: int, graph: ConflictGraph) -> float:
    """Weight times the total weight of non-adjacent other vertices."""
    w = graph.weights
    adj_sum = float(w[graph.neighbor_mask(i)].sum())
    return float(w[i] * (w.sum() - w[i] - adj_sum))


def _cached(scenario, key, build):
    """The tuple of arrays build(scenario), kept read-only in the
    scenario's topology cache under key. Only channel-independent results
    may go there: with_channel copies share the cache."""
    cache = scenario._topology_cache
    if key not in cache:
        cache[key] = build(scenario)
        for column in cache[key]:
            column.flags.writeable = False
    return cache[key]


def _task_columns(scenario):
    """Per UD, task size in bits and task cycles, each with an appended
    0.0 that u2 = -1 reads."""
    return (np.array([d.task.size_bits for d in scenario.devices] + [0.0]),
            np.array([d.task.cycles for d in scenario.devices] + [0.0]))


def _power_cap(scenario):
    """The UDs' one transmit power cap, as a one-entry array. The closed
    form solves every cluster at one cap, so caps that differ are refused."""
    first = scenario.devices[0]
    for d in scenario.devices:
        if d.p_max_w != first.p_max_w:
            raise ValueError(f"ud {d.id} has p_max_w {d.p_max_w!r} but ud {first.id} has "
                             f"{first.p_max_w!r}; every UD must share one power cap")
    return (np.array([first.p_max_w]),)


def _weights(scenario, u1, u2, ap, r1, r2, f_loc):
    """Per vertex, the summed per-UD utility: upload delay plus compute
    delay plus compute energy at the frequency of the vertex's AP in the
    dict f_loc. u2 = -1 reads an appended zero-size task, adding exact
    zeros. The four terms are summed left to right in one buffer."""
    sizes, cycles = _cached(scenario, "task_columns", _task_columns)
    f = np.array([f_loc[m.id] for m in scenario.aps])
    per_cycle = (1.0 / f + scenario.weights.alpha_cpu * f * f).take(ap)
    w = sizes.take(u1)
    w /= r1
    term = sizes.take(u2)
    term /= r2
    w += term
    for u in (u1, u2):
        np.take(cycles, u, out=term, mode="wrap")   # wrap: u2 = -1 reads the 0.0
        term *= per_cycle
        w += term
    return w


def _member_gains(gains, u1, u2, ap, rrb):
    """Each cell's gains of u1 and of u2 on its (AP, RRB), read from the
    (N, M, Z) gains through one flat index, (u*M + ap)*Z + rrb, built in
    one reused buffer. u2 = -1 gets NaN, the gain of a singleton's absent
    member."""
    _, n_aps, n_rrbs = gains.shape
    if u1.size and not (0 <= ap.min() and ap.max() < n_aps
                        and 0 <= rrb.min() and rrb.max() < n_rrbs):
        raise IndexError(f"cells name an (AP, RRB) outside the {gains.shape} gains")
    out = []
    at = np.empty_like(u1)
    for u in (u1, u2):
        np.multiply(u, n_aps, out=at)
        at += ap
        at *= n_rrbs
        at += rrb
        out.append(gains.take(at))      # u2 = -1 reads a gain from the end
    np.copyto(out[1], np.nan, where=u2 < 0)
    return out


def _solve_cells(scenario, cells, strict_cc2: bool) -> ConflictGraph:
    """The graph over the feasible candidate clusters among cells.

    cells holds parallel integer arrays (u1, u2, ap, rrb), one entry per
    candidate cluster on one RRB, with u1 < u2 and u2 = -1 for a singleton;
    the graph holds them as int64. Both members' gains are read through one
    flat index into the channel's (N, M, Z) gains, powers come from one
    call of the batched closed form at the UDs' one power cap, and weights
    from _weights at each AP's frequency cap. Clusters that miss the rate
    floor or get a non-positive rate are dropped; the rest keep the order
    of cells. When every cluster passes, no filtered copy is made: the
    graph holds the int64 cell columns and the solver's outputs as they
    are.
    """
    u1, u2, ap, rrb = (np.asarray(col, dtype=np.int64) for col in cells)
    chan = scenario.channel
    p_max = float(_cached(scenario, "power_cap", _power_cap)[0][0])
    p1, p2, r1, r2, obj, feas = solve_pairs_batch(
        *_member_gains(chan.gain_ud_rrb, u1, u2, ap, rrb), p_max,
        chan.noise_w, chan.rrb_bandwidth_hz, scenario.weights.rate_threshold_bps)
    feas &= r1 > 0
    feas &= r2 > 0
    columns = (u1, u2, ap, rrb, p1, p2, r1, r2, obj)
    if not feas.all():
        keep = np.flatnonzero(feas)
        columns = tuple(col[keep] for col in columns)
    u1, u2, ap, rrb, p1, p2, r1, r2, obj = columns
    w = _weights(scenario, u1, u2, ap, r1, r2, {m.id: m.f_loc_max_cps for m in scenario.aps})
    return ConflictGraph(u1, u2, rrb, ap, w, p1, p2, r1, r2, obj, strict_cc2)


def reweighed(scenario, graph: ConflictGraph, keep, f_loc) -> ConflictGraph:
    """The vertices of a solved graph where the boolean mask keep is set,
    weighed at the per-AP frequencies in the dict f_loc; powers and rates
    are reused, not solved again.

    When keep is set everywhere, the new graph shares graph's vertex
    columns and slots instead of copying them, and only its weights are
    new. The shared arrays are made read-only, in graph as well, so that
    neither graph can change the other's vertices.
    """
    keep = np.asarray(keep, dtype=bool)
    if keep.all():
        shared = copy.copy(graph)
        for name in ("u1", "u2", "rrb_arr", "ap_arr", "slot", "_p1", "_p2", "_r1", "_r2",
                     "_obj"):
            getattr(graph, name).flags.writeable = False
        shared._adj_bits = None
        shared.weights = _weights(scenario, graph.u1, graph.u2, graph.ap_arr, graph._r1,
                                  graph._r2, f_loc)
        return shared
    u1, u2, rrb, ap, p1, p2, r1, r2, obj = (
        col[keep] for col in (graph.u1, graph.u2, graph.rrb_arr, graph.ap_arr, graph._p1,
                              graph._p2, graph._r1, graph._r2, graph._obj))
    w = _weights(scenario, u1, u2, ap, r1, r2, f_loc)
    return ConflictGraph(u1, u2, rrb, ap, w, p1, p2, r1, r2, obj, graph.strict_cc2)


def _ap_clusters(scenario):
    """Per AP, in scenario.aps order, its candidate clusters on one RRB:
    the covered UDs as singletons, then their pairs in triu order. Returns
    (c1, c2) as int64, the dtype the graph holds, with c2 = -1 for a
    singleton and each AP's clusters in one block; the block offsets, A + 1
    of them; the AP ids and RRB counts."""
    c1, c2, offsets = [], [], [0]
    for ap in scenario.aps:
        ids = np.array(sorted(scenario.coverage[ap.id]), dtype=np.int64)
        lo, hi = np.triu_indices(ids.size, 1)
        c1 += [ids, ids[lo]]
        c2 += [np.full(ids.size, -1, dtype=np.int64), ids[hi]]
        offsets.append(offsets[-1] + ids.size + lo.size)
    return (np.concatenate(c1), np.concatenate(c2), np.array(offsets),
            np.array([ap.id for ap in scenario.aps], dtype=np.int64),
            np.array([ap.num_rrbs for ap in scenario.aps], dtype=np.int64))


def enumerate_full(scenario, strict_cc2: bool = False, rrbs=None) -> ConflictGraph:
    """Enumerate every coverage- and rate-feasible association, no edges.

    Vertex weights use each AP's frequency cap; reweighed gives them at
    other frequencies. rrbs restricts the enumeration to those RRB
    indices. Vertices run AP by AP, RRB by RRB, singletons before pairs;
    powers and weights are solved in one batch, and the returned graph
    builds its adjacency only if something reads ``adj_bits``. Each AP's
    one-RRB cluster list depends on the topology alone, so it is built once
    per scenario; here each (AP, RRB) slot copies its AP's block, so the
    cells take no index array.
    """
    c1, c2, offsets, ap_ids, num_rrbs = _cached(scenario, "ap_clusters", _ap_clusters)
    if rrbs is None:
        slot_ap = np.repeat(np.arange(ap_ids.size), num_rrbs)
        slot_rrb = np.arange(slot_ap.size) - np.repeat(np.cumsum(num_rrbs) - num_rrbs, num_rrbs)
    else:
        rrbs = np.asarray(rrbs, dtype=np.int64)
        slot_ap = np.repeat(np.arange(ap_ids.size), rrbs.size)
        slot_rrb = np.tile(rrbs, ap_ids.size)
    blocks = [slice(offsets[a], offsets[a + 1]) for a in slot_ap.tolist()]
    size = np.diff(offsets)[slot_ap]
    cells = (np.concatenate([c1[:0]] + [c1[b] for b in blocks]),
             np.concatenate([c2[:0]] + [c2[b] for b in blocks]),
             np.repeat(ap_ids[slot_ap], size), np.repeat(slot_rrb, size))
    return _solve_cells(scenario, cells, strict_cc2)


def build_full(scenario, strict_cc2: bool = False, rrbs=None) -> ConflictGraph:
    """enumerate_full plus the explicit pairwise adjacency, whose
    O(V^2) build dominates the cost."""
    graph = enumerate_full(scenario, strict_cc2=strict_cc2, rrbs=rrbs)
    graph.adj_bits  # first access builds the edges
    return graph


def _pruned_cells(scenario):
    """build_pruned's candidate clusters as (u1, u2, ap, rrb) int64
    columns. They read the tasks, the coverage and the AP budgets, not the
    channel."""
    n = len(scenario.devices)
    cycles = _cached(scenario, "task_columns", _task_columns)[1][:n]
    deadline = np.array([d.task.deadline_s for d in scenario.devices], dtype=float)
    load = cycles / deadline        # group_demand_cps of each task alone
    covered = np.zeros((len(scenario.aps), n), dtype=bool)
    for a, ap in enumerate(scenario.aps):
        covered[a, list(scenario.coverage[ap.id])] = True
    budget = np.array([ap.f_loc_max_cps / ap.num_rrbs for ap in scenario.aps])[:, None]
    below = load < budget * (1.0 - REL_TOL)
    on_budget = ~below & (np.abs(load - budget) <= REL_TOL * budget)
    seeds, slots = [], []           # per seeded slot, its seed and (AP index, RRB)
    used_seeds = set()
    slot_index = 0
    for a, ap in enumerate(scenario.aps):
        ids = np.flatnonzero(covered[a] & (below[a] | on_budget[a])).tolist()
        for z in range(ap.num_rrbs):
            # scan from position slot_index mod N, wrapping around; the
            # first qualifying UD that has not seeded yet wins, else the first
            k = bisect.bisect_left(ids, slot_index % n)
            order = ids[k:] + ids[:k]
            slot_index += 1
            seed = next((u for u in order if u not in used_seeds), order[0] if order else None)
            if seed is not None:
                used_seeds.add(seed)
                seeds.append(seed)
                slots.append((a, z))
    seeds = np.array(seeds, dtype=np.int64)
    slot_ap, slot_rrb = np.array(slots, dtype=np.int64).reshape(-1, 2).T
    # group_demand_cps of each seed with every UD, in one pass; column 0 of
    # take is the seed's singleton, column u + 1 its pair with UD u
    pooled = (cycles[seeds, None] + cycles) / (2 * np.minimum(deadline[seeds, None], deadline))
    take = np.ones((seeds.size, n + 1), dtype=bool)
    take[:, 1:] = (covered[slot_ap] & (pooled <= budget[slot_ap] * (1.0 + REL_TOL))
                   & ~on_budget[slot_ap, seeds][:, None])
    take[np.arange(seeds.size), seeds + 1] = False
    row, col = np.nonzero(take)
    seed, partner = seeds[row], col - 1
    ap_ids = np.array([ap.id for ap in scenario.aps], dtype=np.int64)
    return (np.where(partner < 0, seed, np.minimum(seed, partner)),
            np.where(partner < 0, -1, np.maximum(seed, partner)),
            ap_ids[slot_ap][row], slot_rrb[row])


def build_pruned(scenario, strict_cc2: bool = False) -> ConflictGraph:
    """Reduced candidate set: one seed UD per RRB slot.

    Slots are enumerated (ap, rrb) in order; slot s tries covered UDs
    starting at position s mod N until one passes the single-task load test
    load < f_loc_max / Z, preferring UDs that have not yet seeded another
    slot so the seeds spread round-robin over the population. A feasible
    seed contributes its singleton plus a pair with every other covered UD
    passing the pooled two-task load test; a seed sitting exactly on the
    threshold (within a relative REL_TOL) contributes only its singleton.
    Weights use the AP's frequency cap. The vertex set is always a subset
    of the full graph's. The candidate clusters depend on the topology
    alone, so they are chosen once per scenario; powers and weights are
    solved on every call.
    """
    return _solve_cells(scenario, _cached(scenario, "pruned_cells", _pruned_cells), strict_cc2)
