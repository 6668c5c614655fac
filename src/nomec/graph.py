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
the exact search, the debug dump and the tests use the explicit rows.
"""

from dataclasses import dataclass

import numpy as np

from .power import (ClusterPowerSolution, solve_pairs_batch,
                    solve_singletons_batch)


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


def conflicts(a: NomaAssociation, b: NomaAssociation, strict_cc2: bool = False) -> bool:
    """True when the two associations cannot coexist: shared UD, or same
    RRB of the same AP (strict mode: same RRB index regardless of AP)."""
    if set(a.uds) & set(b.uds):
        return True
    if a.rrb == b.rrb and (strict_cc2 or a.ap == b.ap):
        return True
    return False


def vertex_weight(assoc: NomaAssociation, scenario, f_loc: float) -> float:
    """Summed per-UD utility: upload delay + compute delay + compute energy
    at the AP frequency f_loc."""
    if f_loc <= 0:
        raise ValueError("f_loc must be positive")
    alpha = scenario.weights.alpha_cpu
    total = 0.0
    for i, ud_id in enumerate(assoc.uds):
        task = scenario.device_by_id(ud_id).task
        rate = assoc.power.rates[i]
        if rate <= 0:
            raise ValueError(f"ud {ud_id} has a non-positive rate")
        total += task.size_bits / rate + task.cycles / f_loc + alpha * task.cycles * f_loc ** 2
    return total


class ConflictGraph:
    """Array-backed vertex store plus lazily built packed bitset adjacency.

    kind is "full" or "pruned" (or "custom" for hand-built graphs); the
    strict_cc2 flag records which conflict rule produced the edges. Vertex
    attributes live in the u1/u2/rrb_arr/ap_arr/weights arrays (u2 is -1
    for singletons) and ``slot`` names the conflicting resource block;
    NomaAssociation objects are materialized on demand so building large
    graphs stays an array operation. ``adj_bits`` is built on first access.
    """

    def __init__(self, vertices=None, strict_cc2: bool = False, kind: str = "custom",
                 _data=None):
        self.strict_cc2 = strict_cc2
        self.kind = kind
        if _data is not None:
            self._verts = None
            (self.u1, self.u2, self.rrb_arr, self.ap_arr, self.weights,
             self._p1, self._p2, self._r1, self._r2, self._obj) = _data
        else:
            self._verts = tuple(vertices)
            n = len(self._verts)
            self.u1 = np.fromiter((v.uds[0] for v in self._verts),
                                  dtype=np.int64, count=n)
            self.u2 = np.fromiter((v.uds[1] if len(v.uds) == 2 else -1
                                   for v in self._verts), dtype=np.int64, count=n)
            self.rrb_arr = np.fromiter((v.rrb for v in self._verts),
                                       dtype=np.int64, count=n)
            self.ap_arr = np.fromiter((v.ap for v in self._verts),
                                      dtype=np.int64, count=n)
            self.weights = np.fromiter((v.weight for v in self._verts),
                                       dtype=float, count=n)
        n = len(self.weights)
        if strict_cc2:
            slot = self.rrb_arr
        else:
            max_rrb = int(self.rrb_arr.max()) if n else 0
            slot = self.ap_arr * (max_rrb + 1) + self.rrb_arr
        self.slot = slot
        self._adj_bits = None
        self._index = None

    @property
    def adj_bits(self) -> np.ndarray:
        """Packed bitset adjacency rows, built on first access."""
        if self._adj_bits is None:
            self._adj_bits = self._build_adjacency(self.u1, self.u2, self.slot)
        return self._adj_bits

    @property
    def vertices(self):
        if self._verts is None:
            self._verts = tuple(self._materialize(i) for i in range(len(self.weights)))
        return self._verts

    def vertex(self, i: int) -> NomaAssociation:
        """Vertex i as a NomaAssociation, built on demand."""
        if self._verts is not None:
            return self._verts[i]
        return self._materialize(i)

    def _materialize(self, i: int) -> NomaAssociation:
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

    def _index_map(self):
        if self._index is None:
            self._index = {v.key: i for i, v in enumerate(self.vertices)}
        return self._index

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

    @property
    def n_vertices(self):
        return len(self.weights)

    def index_of(self, assoc: NomaAssociation) -> int:
        return self._index_map()[assoc.key]

    def neighbor_mask(self, i: int) -> np.ndarray:
        """Boolean neighbor row for vertex i."""
        n = len(self.weights)
        return np.unpackbits(self.adj_bits[i], count=n).astype(bool)

    def neighbors(self, i: int):
        return np.flatnonzero(self.neighbor_mask(i))

    def adjacent(self, i: int, j: int) -> bool:
        byte = self.adj_bits[i, j // 8]
        return bool((byte >> (7 - j % 8)) & 1)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean matrix; intended for small graphs and tests."""
        n = len(self.weights)
        return np.unpackbits(self.adj_bits, axis=1, count=n).astype(bool)

    def dump_text(self) -> str:
        """Line-oriented debug dump: vertex lines then edge lines."""
        lines = []
        for i, v in enumerate(self.vertices):
            uds = ",".join(str(u) for u in v.uds)
            lines.append(f"vertex {i} ap={v.ap} rrb={v.rrb} uds={uds} w={v.weight!r}")
        n = len(self.weights)
        mat = self.adjacency_matrix()
        for i in range(n):
            for j in range(i + 1, n):
                if mat[i, j]:
                    lines.append(f"edge {i} {j}")
        return "\n".join(lines) + ("\n" if lines else "")


def from_associations(assocs, strict_cc2: bool = False, kind: str = "custom") -> ConflictGraph:
    """Wrap pre-built associations (weights already set) in a graph."""
    return ConflictGraph(assocs, strict_cc2=strict_cc2, kind=kind)


def modified_weight(i: int, graph: ConflictGraph) -> float:
    """Weight times the total weight of non-adjacent other vertices."""
    w = graph.weights
    adj_sum = float(w[graph.neighbor_mask(i)].sum())
    return float(w[i] * (w.sum() - w[i] - adj_sum))


def _f_loc_of(f_loc, ap_id, default):
    if f_loc is None:
        return default
    if isinstance(f_loc, dict):
        return f_loc.get(ap_id, default)
    return float(f_loc)


def _assemble(scenario, entries, strict_cc2, kind):
    """entries: list of (uds, rrb, ap, powers, rates, objective). Builds
    weights and the graph; entries with a non-positive rate are dropped."""
    alpha = scenario.weights.alpha_cpu
    vertices = []
    for uds, rrb, ap_id, powers, rates, obj, f_loc in entries:
        if any(r <= 0 for r in rates):
            continue
        sol = ClusterPowerSolution(tuple(powers), tuple(rates), obj, True)
        w = 0.0
        for ud_id, rate in zip(uds, rates):
            task = scenario.device_by_id(ud_id).task
            w += task.size_bits / rate + task.cycles / f_loc + alpha * task.cycles * f_loc ** 2
        vertices.append(NomaAssociation(uds, rrb, ap_id, sol, w))
    return ConflictGraph(vertices, strict_cc2=strict_cc2, kind=kind)


def enumerate_full(scenario, f_loc=None, strict_cc2: bool = False,
                   include_singletons: bool = True, uds=None, aps=None,
                   rrbs=None) -> ConflictGraph:
    """Enumerate every coverage- and rate-feasible association, no edges.

    f_loc: per-AP frequency (dict, scalar, or None for each AP's cap) used
    only in the vertex weights. uds/aps/rrbs restrict the enumeration, for
    iterative scheduling and baselines. Power solving and weights are
    batched per AP across its RRBs; the returned graph builds its adjacency
    only if something reads ``adj_bits``.
    """
    chan = scenario.channel
    p_max = scenario.devices[0].p_max_w if scenario.devices else 0.0
    rth = scenario.weights.rate_threshold_bps
    alpha = scenario.weights.alpha_cpu
    noise = chan.noise_w
    bw = chan.rrb_bandwidth_hz
    ud_filter = None if uds is None else set(uds)
    ap_filter = None if aps is None else set(aps)
    parts = tuple([] for _ in range(10))  # u1, u2, rrb, ap, w, p1, p2, r1, r2, obj

    for ap in scenario.aps:
        if ap_filter is not None and ap.id not in ap_filter:
            continue
        f_ap = _f_loc_of(f_loc, ap.id, ap.f_loc_max_cps)
        covered = sorted(scenario.coverage[ap.id])
        if ud_filter is not None:
            covered = [u for u in covered if u in ud_filter]
        if not covered:
            continue
        rrb_list = list(range(ap.num_rrbs) if rrbs is None else rrbs)
        if not rrb_list:
            continue
        n_cov = len(covered)
        n_z = len(rrb_list)
        gains = np.array([[chan.gain_ud_rrb[(u, ap.id, z)] for u in covered]
                          for z in rrb_list])
        sizes = np.empty(n_cov)
        cycles = np.empty(n_cov)
        for i, u in enumerate(covered):
            task = scenario.device_by_id(u).task
            sizes[i] = task.size_bits
            cycles[i] = task.cycles
        cov_ids = np.array(covered, dtype=np.int64)
        compute_term = cycles * (1.0 / f_ap + alpha * f_ap * f_ap)
        # one column per candidate cluster, one row per RRB:
        # (u1, u2) per column, (w, p1, p2, r1, r2, obj, feasible) per cell
        members, blocks = [], []

        if include_singletons:
            p_s, r_s, obj_s, feas_s = solve_singletons_batch(
                gains.ravel(), p_max, noise, bw, rth)
            p_s, r_s, obj_s = (a.reshape(n_z, n_cov) for a in (p_s, r_s, obj_s))
            feas_s = feas_s.reshape(n_z, n_cov) & (r_s > 0)
            w_s = sizes / np.where(r_s > 0, r_s, 1.0) + compute_term
            nan = np.full((n_z, n_cov), np.nan)
            members.append((cov_ids, np.full(n_cov, -1, dtype=np.int64)))
            blocks.append((w_s, p_s, nan, r_s, nan, obj_s, feas_s))
        if n_cov >= 2:
            pair_i, pair_j = np.triu_indices(n_cov, 1)
            p_lo, p_hi, r_lo, r_hi, obj_p, feas_p = solve_pairs_batch(
                gains[:, pair_i].ravel(), gains[:, pair_j].ravel(),
                p_max, noise, bw, rth)
            n_pairs = pair_i.size
            p_lo, p_hi, r_lo, r_hi, obj_p = (
                a.reshape(n_z, n_pairs) for a in (p_lo, p_hi, r_lo, r_hi, obj_p))
            feas_p = feas_p.reshape(n_z, n_pairs) & (r_lo > 0) & (r_hi > 0)
            w_p = (sizes[pair_i] / np.where(r_lo > 0, r_lo, 1.0)
                   + sizes[pair_j] / np.where(r_hi > 0, r_hi, 1.0)
                   + compute_term[pair_i] + compute_term[pair_j])
            members.append((cov_ids[pair_i], cov_ids[pair_j]))
            blocks.append((w_p, p_lo, p_hi, r_lo, r_hi, obj_p, feas_p))
        if not blocks:
            continue

        u1, u2 = (np.concatenate(col) for col in zip(*members))
        w, p1, p2, r1, r2, obj, feas = (np.hstack(cells) for cells in zip(*blocks))
        # row-major order: RRB by RRB, singletons before pairs within each
        zi, ci = np.nonzero(feas)
        if not ci.size:
            continue
        columns = (u1[ci], u2[ci], np.asarray(rrb_list, dtype=np.int64)[zi],
                   np.full(ci.size, ap.id, dtype=np.int64), w[zi, ci], p1[zi, ci],
                   p2[zi, ci], r1[zi, ci], r2[zi, ci], obj[zi, ci])
        for part, arr in zip(parts, columns):
            part.append(arr)
    if not parts[0]:
        return ConflictGraph((), strict_cc2=strict_cc2, kind="full")
    data = tuple(np.concatenate(part) for part in parts)
    return ConflictGraph(strict_cc2=strict_cc2, kind="full", _data=data)


def build_full(scenario, f_loc=None, strict_cc2: bool = False,
               include_singletons: bool = True, uds=None, aps=None,
               rrbs=None) -> ConflictGraph:
    """enumerate_full plus the explicit pairwise adjacency, whose
    O(V^2) build dominates the cost."""
    graph = enumerate_full(scenario, f_loc=f_loc, strict_cc2=strict_cc2,
                           include_singletons=include_singletons, uds=uds,
                           aps=aps, rrbs=rrbs)
    graph.adj_bits  # first access builds the edges
    return graph


def local_load_cps(task) -> float:
    """Single-task CPU demand against its own deadline, cycles/s."""
    return task.cycles / task.deadline_s


def pair_load_cps(task_a, task_b) -> float:
    """Two-task CPU demand against twice the tighter deadline, cycles/s."""
    deadline = min(task_a.deadline_s, task_b.deadline_s)
    return (task_a.cycles + task_b.cycles) / (2.0 * deadline)


def build_pruned(scenario, strict_cc2: bool = False, rel_tol: float = 1e-9) -> ConflictGraph:
    """Reduced candidate set: one seed UD per RRB slot.

    Slots are enumerated (ap, rrb) in order; slot s tries covered UDs
    starting at position s mod N until one passes the single-task load test
    load < f_loc_max / Z, preferring UDs that have not yet seeded another
    slot so the seeds spread round-robin over the population. A feasible
    seed contributes its singleton plus a pair with every other covered UD
    passing the pooled two-task load test; a seed sitting exactly on the
    threshold contributes only its singleton. Weights use the AP's
    frequency cap. The vertex set is always a subset of the full graph's.
    """
    chan = scenario.channel
    p_max = scenario.devices[0].p_max_w if scenario.devices else 0.0
    rth = scenario.weights.rate_threshold_bps
    n = len(scenario.devices)
    entries = []
    if n == 0:
        return _assemble(scenario, entries, strict_cc2, "pruned")
    all_ids = [d.id for d in scenario.devices]
    used_seeds = set()
    slot_index = 0
    for ap in scenario.aps:
        covered = scenario.coverage[ap.id]
        budget = ap.f_loc_max_cps / ap.num_rrbs
        for z in range(ap.num_rrbs):
            seed = None
            singleton_only = False
            fallback = None            # first qualifying but already-seeded UD
            fallback_single = False
            for offset in range(n):
                cand = all_ids[(slot_index + offset) % n]
                if cand not in covered:
                    continue
                load = local_load_cps(scenario.device_by_id(cand).task)
                if load < budget * (1.0 - rel_tol):
                    single = False
                elif abs(load - budget) <= rel_tol * budget:
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
            seed_task = scenario.device_by_id(seed).task
            g_seed = chan.gain_ud_rrb[(seed, ap.id, z)]
            p, r, obj, feas = solve_singletons_batch(
                np.array([g_seed]), p_max, chan.noise_w, chan.rrb_bandwidth_hz, rth)
            if feas[0]:
                entries.append(((seed,), z, ap.id, (float(p[0]),), (float(r[0]),),
                                float(obj[0]), ap.f_loc_max_cps))
            if singleton_only:
                continue
            partners = [u for u in sorted(covered) if u != seed]
            partners = [u for u in partners
                        if pair_load_cps(seed_task, scenario.device_by_id(u).task)
                        <= budget * (1.0 + rel_tol)]
            if not partners:
                continue
            pairs = [tuple(sorted((seed, u))) for u in partners]
            g_lo = np.array([chan.gain_ud_rrb[(lo, ap.id, z)] for lo, _ in pairs])
            g_hi = np.array([chan.gain_ud_rrb[(hi, ap.id, z)] for _, hi in pairs])
            p_lo, p_hi, r_lo, r_hi, obj, feas = solve_pairs_batch(
                g_lo, g_hi, p_max, chan.noise_w, chan.rrb_bandwidth_hz, rth)
            for k in np.flatnonzero(feas):
                entries.append((pairs[k], z, ap.id,
                                (float(p_lo[k]), float(p_hi[k])),
                                (float(r_lo[k]), float(r_hi[k])),
                                float(obj[k]), ap.f_loc_max_cps))
    return _assemble(scenario, entries, strict_cc2, "pruned")
