"""NOMA association conflict graphs.

A vertex is a 1- or 2-UD association with one RRB of one AP, carrying its
solved powers and a weight equal to the summed per-UD local-processing
utility. Two vertices conflict when they share a UD or compete for the same
RRB of the same AP (strict mode: the same RRB index anywhere), so the graph
is a union of cliques, one per UD and one per slot, and every scheduling
decision can be made from the per-vertex u1/u2/slot keys alone.

enumerate_full builds the vertex arrays without edges; that is what the
schedulers use. Its candidate cells, like build_pruned's, depend on the
topology alone, so each set is built once per scenario: the int64 cell
columns, the default-CC2 slot and both members' flat indices into the
channel's gains are kept read-only in the scenario's topology cache, and
the graph holds them as they are. A call gathers the gains, solves the
powers and weighs the vertices. Adjacency is explicit only as packed bitset
rows, built lazily on first access to ``adj_bits`` with vectorized pairwise
comparisons. build_full forces that build, so its cost scales with the
square of the vertex count, as the enumeration the paper describes does;
only the tests read the explicit rows.
"""

import bisect
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


def _default_slot(ap, rrb):
    """Per cell, its default-CC2 slot ap * (largest rrb + 1) + rrb: ap
    itself when every rrb is 0."""
    return ap * (int(rrb.max()) + 1) + rrb if rrb.any() else ap


class ConflictGraph:
    """Array-backed vertex store plus lazily built packed bitset adjacency.

    Vertex i is the cluster u1[i] (and u2[i], -1 for a singleton) on RRB
    rrb[i] of AP ap[i], with scheduling weight weights[i] and solved powers
    p1/p2, rates r1/r2 and objective obj; strict_cc2 records which conflict
    rule produces the edges. ``slot`` names the conflicting resource block;
    under the default rule it is _default_slot's, which a caller that
    already holds it passes as slot. NomaAssociation objects
    are materialized on demand, so building large graphs stays an array
    operation; ``adj_bits`` is built on first access.
    """

    def __init__(self, u1, u2, rrb, ap, weights, p1, p2, r1, r2, obj,
                 strict_cc2: bool = False, slot=None):
        self.strict_cc2 = strict_cc2
        self.u1, self.u2, self.rrb_arr, self.ap_arr, self.weights = u1, u2, rrb, ap, weights
        self._p1, self._p2, self._r1, self._r2, self._obj = p1, p2, r1, r2, obj
        self.slot = rrb if strict_cc2 else _default_slot(ap, rrb) if slot is None else slot
        self._adj_bits = self._rank_keys = self._extent = None     # built on first use

    @property
    def adj_bits(self) -> np.ndarray:
        """Packed bitset adjacency rows, built on first access."""
        if self._adj_bits is None:
            self._adj_bits = self._build_adjacency(self.u1, self.u2, self.slot)
        return self._adj_bits

    @property
    def vertices(self):
        return tuple(self.vertices_at(np.arange(len(self))))

    def vertex(self, i: int) -> NomaAssociation:
        """Vertex i as a NomaAssociation, built on demand."""
        return self.vertices_at([i])[0]

    def vertices_at(self, idx) -> list:
        """The vertices at the positions idx as NomaAssociations, built
        from one gather per column."""
        rows = zip(*(col.take(idx).tolist() for col in (
            self.u1, self.u2, self.rrb_arr, self.ap_arr, self.weights,
            self._p1, self._p2, self._r1, self._r2, self._obj)))
        return [NomaAssociation((a,), z, m, ClusterPowerSolution((p1,), (r1,), obj), w)
                if b < 0 else
                NomaAssociation((a, b), z, m, ClusterPowerSolution((p1, p2), (r1, r2), obj), w)
                for a, b, z, m, w, p1, p2, r1, r2, obj in rows]

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
        return len(self.u1)     # weights are None until the graph is weighed


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


def _caps(scenario):
    """Per AP id, its local frequency cap."""
    return {ap.id: ap.f_loc_max_cps for ap in scenario.aps}


def _channel_terms(scenario, graph):
    """Per vertex, the summed upload delay and each member's cycles; u2 =
    -1 reads an appended zero-size task, giving exact zeros."""
    sizes, cycles = _cached(scenario, "task_columns", _task_columns)
    upload = sizes.take(graph.u1)
    upload /= graph._r1
    term = sizes.take(graph.u2)
    term /= graph._r2
    upload += term
    return upload, cycles.take(graph.u1), cycles.take(graph.u2)


def _weights(scenario, terms, ap, f_loc):
    """Per vertex, the summed per-UD utility from its _channel_terms: upload
    delay plus compute delay plus compute energy at the frequency of its AP
    in the dict f_loc, added left to right (a + b and b + a are equal bits)."""
    upload, cycles1, cycles2 = terms
    f = np.array([f_loc[m.id] for m in scenario.aps])
    per_cycle = (1.0 / f + scenario.weights.alpha_cpu * f * f).take(ap)
    w = cycles1 * per_cycle
    w += upload
    per_cycle *= cycles2
    w += per_cycle
    return w


def _gain_shape(scenario):
    """The (N, M, Z) shape of every uplink gain array of the scenario."""
    return len(scenario.devices), len(scenario.aps), scenario.config.rrbs_per_ap


def _cell_columns(scenario, u1, u2, ap, rrb):
    """Candidate cells as the seven columns _solve reads.

    The cells (u1, u2, ap, rrb) are parallel integer arrays, one entry per
    candidate cluster on one RRB, with u1 < u2 and u2 = -1 for a
    singleton. Returned are those four as int64, their int64
    _default_slot, and each member's index
    (u*M + ap)*Z + rrb into the scenario's (N, M, Z) uplink gains raveled
    with one NaN appended; u2 = -1 indexes that NaN, the gain of a
    singleton's absent member. The indices are int32 when the gains allow,
    which halves what a cached index column holds. A cell that names a UD,
    AP or RRB outside the gains is refused, as indexing the gains
    themselves would refuse it: its flat index would read another link's
    gain.
    """
    u1, u2, ap, rrb = (np.asarray(col, dtype=np.int64) for col in (u1, u2, ap, rrb))
    n, n_aps, n_rrbs = shape = _gain_shape(scenario)
    if u1.size and not (0 <= u1.min() and -1 <= u2.min() and max(u1.max(), u2.max()) < n
                        and 0 <= ap.min() and ap.max() < n_aps
                        and 0 <= rrb.min() and rrb.max() < n_rrbs):
        raise IndexError(f"cells name a (UD, AP, RRB) outside the {shape} gains")
    slot = _default_slot(ap, rrb)
    i1, i2 = ((u * n_aps + ap) * n_rrbs + rrb for u in (u1, u2))
    i2[u2 < 0] = n * n_aps * n_rrbs
    if n * n_aps * n_rrbs < np.iinfo(np.int32).max:
        i1, i2 = i1.astype(np.int32), i2.astype(np.int32)
    return u1, u2, ap, rrb, slot, i1, i2


def _solve(scenario, cells, strict_cc2: bool):
    """The unweighed graph over every cluster of cells, the seven columns
    _cell_columns gives, holding them and the solver's outputs as they
    are, and the mask of the clusters that meet the rate floor with
    positive rates. Both members' gains are gathered through the cells'
    flat indices, and powers come from one call of the batched closed
    form at the UDs' one power cap."""
    u1, u2, ap, rrb, slot, i1, i2 = cells
    chan = scenario.channel
    gains = chan.gain_ud_rrb
    if gains.shape != _gain_shape(scenario):
        raise ValueError(f"uplink gains of shape {gains.shape} do not fit the "
                         f"scenario's {_gain_shape(scenario)} UDs, APs and RRBs")
    gains = np.append(gains.ravel(), np.nan)
    p_max = float(_cached(scenario, "power_cap", _power_cap)[0][0])
    p1, p2, r1, r2, obj, feas = solve_pairs_batch(
        gains.take(i1), gains.take(i2), p_max,
        chan.noise_w, chan.rrb_bandwidth_hz, scenario.weights.rate_threshold_bps)
    feas &= r1 > 0
    feas &= r2 > 0
    return ConflictGraph(u1, u2, rrb, ap, None, p1, p2, r1, r2, obj, strict_cc2, slot), feas


def _gathered(graph: ConflictGraph, rows) -> ConflictGraph:
    """An unweighed copy of the vertices of a solved graph at the ascending
    positions rows, reusing powers and rates."""
    u1, u2, rrb, ap, p1, p2, r1, r2, obj = (
        col.take(rows) for col in (graph.u1, graph.u2, graph.rrb_arr, graph.ap_arr, graph._p1,
                                   graph._p2, graph._r1, graph._r2, graph._obj))
    return ConflictGraph(u1, u2, rrb, ap, None, p1, p2, r1, r2, obj, graph.strict_cc2)


def _kept(scenario, graph: ConflictGraph, keep, f_loc) -> ConflictGraph:
    """The vertices of a solved graph that the boolean mask keep selects,
    weighed at the per-AP frequencies in the dict f_loc: the graph itself,
    weighed in place, when keep selects every vertex, else a _gathered copy."""
    g = graph if keep.all() else _gathered(graph, np.flatnonzero(keep))
    g.weights = _weights(scenario, _channel_terms(scenario, g), g.ap_arr, f_loc)
    return g


def _full_cells(scenario, rrbs=None):
    """enumerate_full's candidate cells as _cell_columns' seven columns,
    AP by AP and RRB by RRB (every RRB of the AP, or those in rrbs): the
    covered UDs as singletons, then their pairs in triu order. An AP's id
    is its position."""
    cells = [[np.empty(0, dtype=np.int64)] * 4]
    for ap in scenario.aps:
        ids = np.array(sorted(scenario.coverage[ap.id]), dtype=np.int64)
        lo, hi = np.triu_indices(ids.size, 1)
        c1 = np.concatenate([ids, ids[lo]])
        c2 = np.concatenate([np.full(ids.size, -1, dtype=np.int64), ids[hi]])
        z = np.arange(ap.num_rrbs) if rrbs is None else np.asarray(rrbs, dtype=np.int64)
        cells.append((np.tile(c1, z.size), np.tile(c2, z.size),
                      np.full(c1.size * z.size, ap.id), np.repeat(z, c1.size)))
    return _cell_columns(scenario, *(np.concatenate(col) for col in zip(*cells)))


def enumerate_full(scenario, strict_cc2: bool = False, rrbs=None) -> ConflictGraph:
    """Enumerate every coverage- and rate-feasible association, no edges.

    Vertex weights use each AP's frequency cap; _kept gives them at other
    frequencies. rrbs restricts the enumeration to those RRB
    indices. Vertices run AP by AP, RRB by RRB, singletons before pairs;
    powers and weights are solved in one batch, and the returned graph
    builds its adjacency only if something reads ``adj_bits``. The cells
    depend on the topology alone, so those of each RRB list are built once
    per scenario, under the cache key ("full_cells", the list as a tuple,
    or None for every RRB), and the graph holds their read-only columns.
    """
    rrbs = None if rrbs is None else tuple(np.asarray(rrbs, dtype=np.int64).ravel().tolist())
    cells = _cached(scenario, ("full_cells", rrbs), lambda scn: _full_cells(scn, rrbs))
    return _kept(scenario, *_solve(scenario, cells, strict_cc2), _caps(scenario))


def build_full(scenario, strict_cc2: bool = False, rrbs=None) -> ConflictGraph:
    """enumerate_full plus the explicit pairwise adjacency, whose
    O(V^2) build dominates the cost."""
    graph = enumerate_full(scenario, strict_cc2=strict_cc2, rrbs=rrbs)
    graph.adj_bits  # first access builds the edges
    return graph


def _pruned_cells(scenario):
    """build_pruned's candidate clusters as _cell_columns' seven columns.
    They read the tasks, the coverage and the AP budgets, not the
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
    return _cell_columns(scenario, np.where(partner < 0, seed, np.minimum(seed, partner)),
                         np.where(partner < 0, -1, np.maximum(seed, partner)),
                         slot_ap[row], slot_rrb[row])


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
    cells = _cached(scenario, "pruned_cells", _pruned_cells)
    return _kept(scenario, *_solve(scenario, cells, strict_cc2), _caps(scenario))
