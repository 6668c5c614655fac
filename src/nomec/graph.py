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
the exact search and the tests use the explicit rows.
"""

from dataclasses import dataclass

import numpy as np

from .model import REL_TOL, group_demand_cps
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
            self.slot = ap * (max_rrb + 1) + rrb
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
                                       float(self._obj[i]), True)
        else:
            uds = (int(self.u1[i]), u2)
            sol = ClusterPowerSolution((float(self._p1[i]), float(self._p2[i])),
                                       (float(self._r1[i]), float(self._r2[i])),
                                       float(self._obj[i]), True)
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

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean matrix; intended for small graphs and tests."""
        n = len(self.weights)
        return np.unpackbits(self.adj_bits, axis=1, count=n).astype(bool)


def modified_weight(i: int, graph: ConflictGraph) -> float:
    """Weight times the total weight of non-adjacent other vertices."""
    w = graph.weights
    adj_sum = float(w[graph.neighbor_mask(i)].sum())
    return float(w[i] * (w.sum() - w[i] - adj_sum))


def _weights(scenario, u1, u2, ap, r1, r2, f_loc):
    """Per vertex, the summed per-UD utility: upload delay plus compute
    delay plus compute energy at the frequency of the vertex's AP in the
    dict f_loc. u2 = -1 reads an appended zero-size task, adding exact
    zeros."""
    sizes = np.array([d.task.size_bits for d in scenario.devices] + [0.0])
    cycles = np.array([d.task.cycles for d in scenario.devices] + [0.0])
    f = np.array([f_loc[m.id] for m in scenario.aps])
    per_cycle = (1.0 / f + scenario.weights.alpha_cpu * f * f)[ap]
    return sizes[u1] / r1 + sizes[u2] / r2 + cycles[u1] * per_cycle + cycles[u2] * per_cycle


def _solve_cells(scenario, cells, strict_cc2: bool) -> ConflictGraph:
    """The graph over the feasible candidate clusters among cells.

    cells holds parallel arrays (u1, u2, ap, rrb), one entry per candidate
    cluster on one RRB, with u1 < u2 and u2 = -1 for a singleton. Powers
    come from one call of the batched closed form and weights from
    _weights at each AP's frequency cap. Clusters that miss the rate floor
    or get a non-positive rate are dropped; the rest keep the order of
    cells.
    """
    u1, u2, ap, rrb = cells
    chan = scenario.channel
    # a singleton's absent member has gain NaN, no power and an unbounded rate
    p1, p2, r1, r2, obj, feas = solve_pairs_batch(
        chan.gain_ud_rrb[u1, ap, rrb], np.where(u2 >= 0, chan.gain_ud_rrb[u2, ap, rrb], np.nan),
        scenario.devices[0].p_max_w, chan.noise_w, chan.rrb_bandwidth_hz,
        scenario.weights.rate_threshold_bps)
    keep = np.flatnonzero(feas & (r1 > 0) & (r2 > 0))
    u1, u2, ap, rrb, p1, p2, r1, r2, obj = (
        col[keep] for col in (u1, u2, ap, rrb, p1, p2, r1, r2, obj))
    w = _weights(scenario, u1, u2, ap, r1, r2, {m.id: m.f_loc_max_cps for m in scenario.aps})
    return ConflictGraph(u1, u2, rrb, ap, w, p1, p2, r1, r2, obj, strict_cc2)


def reweighed(scenario, graph: ConflictGraph, keep, f_loc) -> ConflictGraph:
    """The vertices of a solved graph where the boolean mask keep is set,
    weighed at the per-AP frequencies in the dict f_loc; powers and rates
    are reused, not solved again."""
    u1, u2, rrb, ap, p1, p2, r1, r2, obj = (
        col[keep] for col in (graph.u1, graph.u2, graph.rrb_arr, graph.ap_arr, graph._p1,
                              graph._p2, graph._r1, graph._r2, graph._obj))
    w = _weights(scenario, u1, u2, ap, r1, r2, f_loc)
    return ConflictGraph(u1, u2, rrb, ap, w, p1, p2, r1, r2, obj, graph.strict_cc2)


def enumerate_full(scenario, strict_cc2: bool = False, rrbs=None) -> ConflictGraph:
    """Enumerate every coverage- and rate-feasible association, no edges.

    Vertex weights use each AP's frequency cap; reweighed gives them at
    other frequencies. rrbs restricts the enumeration to those RRB
    indices. Vertices run AP by AP, RRB by RRB, singletons before pairs;
    powers and weights are solved in one batch, and the returned graph
    builds its adjacency only if something reads ``adj_bits``.
    """
    cells = [[np.empty(0, dtype=np.int64)] * 4]   # typed even if no AP contributes
    for ap in scenario.aps:
        rrb_list = np.asarray(range(ap.num_rrbs) if rrbs is None else rrbs, dtype=np.int64)
        ids = np.array(sorted(scenario.coverage[ap.id]), dtype=np.int64)
        pair_i, pair_j = np.triu_indices(ids.size, 1)
        # one row of candidate clusters per RRB: singletons, then pairs
        c1 = np.concatenate([ids, ids[pair_i]])
        c2 = np.concatenate([np.full(ids.size, -1, dtype=np.int64), ids[pair_j]])
        cells.append((np.tile(c1, rrb_list.size), np.tile(c2, rrb_list.size),
                      np.full(c1.size * rrb_list.size, ap.id, dtype=np.int64),
                      np.repeat(rrb_list, c1.size)))
    return _solve_cells(scenario, [np.concatenate(col) for col in zip(*cells)], strict_cc2)


def build_full(scenario, strict_cc2: bool = False, rrbs=None) -> ConflictGraph:
    """enumerate_full plus the explicit pairwise adjacency, whose
    O(V^2) build dominates the cost."""
    graph = enumerate_full(scenario, strict_cc2=strict_cc2, rrbs=rrbs)
    graph.adj_bits  # first access builds the edges
    return graph


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
    of the full graph's.
    """
    n = len(scenario.devices)
    all_ids = [d.id for d in scenario.devices]
    cells = []      # (u1, u2, ap, rrb) per candidate cluster
    used_seeds = set()
    slot_index = 0
    for ap in scenario.aps:
        cover = scenario.coverage[ap.id]
        budget = ap.f_loc_max_cps / ap.num_rrbs
        for z in range(ap.num_rrbs):
            seed = None
            singleton_only = False
            fallback = None            # first qualifying but already-seeded UD
            fallback_single = False
            for offset in range(n):
                cand = all_ids[(slot_index + offset) % n]
                if cand not in cover:
                    continue
                load = group_demand_cps([scenario.devices[cand].task])
                if load < budget * (1.0 - REL_TOL):
                    single = False
                elif abs(load - budget) <= REL_TOL * budget:
                    single = True
                else:
                    continue
                if cand not in used_seeds:
                    seed, singleton_only = cand, single
                    break
                if fallback is None:
                    fallback, fallback_single = cand, single
            if seed is None and fallback is not None:
                seed, singleton_only = fallback, fallback_single
            slot_index += 1
            if seed is None:
                continue
            used_seeds.add(seed)
            cells.append((seed, -1, ap.id, z))
            if singleton_only:
                continue
            seed_task = scenario.devices[seed].task
            cells.extend((min(seed, u), max(seed, u), ap.id, z)
                         for u in sorted(cover) if u != seed
                         and group_demand_cps([seed_task, scenario.devices[u].task])
                         <= budget * (1.0 + REL_TOL))
    columns = list(zip(*cells)) or [()] * 4
    return _solve_cells(scenario, [np.array(col, dtype=np.int64) for col in columns],
                        strict_cc2)
