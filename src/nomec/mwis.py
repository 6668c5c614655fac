"""Search for minimum-total-weight maximal independent sets.

The schedule quality target is the maximal independent set whose total
weight is smallest, so the greedy heuristic takes vertices lightest first.
Conflicts are shared UDs or shared slots, so the greedy and random passes
work on UD/slot incidence: a vertex is taken when its UDs and its slot are
all still unused, with no edge list. An exact enumerator (for small graphs,
on the explicit adjacency) and a seeded random maximal set provide the
quality bounds.
"""

from dataclasses import dataclass

import numpy as np

from .graph import ConflictGraph
# kept bound here: perfbench/tracer.py wraps mwis.modified_weight by name
from .graph import modified_weight  # noqa: F401


@dataclass(frozen=True)
class IndependentSet:
    vertices: tuple      # NomaAssociation objects
    indices: tuple       # positions in the source graph
    total_weight: float


def _tie_key(graph: ConflictGraph, i: int):
    # singletons carry u2 = -1 and so order before pairs with the same u1,
    # matching tuple comparison on (ap, rrb, uds)
    return (graph.ap_arr[i], graph.rrb_arr[i], graph.u1[i], graph.u2[i])


def _ordered(graph: ConflictGraph, rank) -> np.ndarray:
    """Vertex order by (rank, ap, rrb, uds); lexsort keys run minor-first."""
    return np.lexsort((graph.u2, graph.u1, graph.rrb_arr, graph.ap_arr,
                       np.asarray(rank, dtype=float)))


def _collect(graph: ConflictGraph, picked) -> IndependentSet:
    picked = tuple(int(i) for i in picked)
    verts = tuple(graph.vertex(i) for i in picked)
    total = float(sum(graph.weights[i] for i in picked))
    return IndependentSet(verts, picked, total)


def _greedy_by_order(graph: ConflictGraph, order) -> IndependentSet:
    """Maximal independent set taking vertices in the given order: a vertex
    is taken when its UDs and its slot are all still unused."""
    order = np.asarray(order, dtype=np.int64)
    used_uds = set()
    used_slots = set()
    picked = []
    for i, a, b, s in zip(order.tolist(), graph.u1[order].tolist(),
                          graph.u2[order].tolist(), graph.slot[order].tolist()):
        if a in used_uds or b in used_uds or s in used_slots:
            continue
        picked.append(i)
        used_uds.add(a)
        if b >= 0:
            used_uds.add(b)
        used_slots.add(s)
    return _collect(graph, picked)


def _sum_by(weights, keys):
    """Per entry, the total weight of the entries sharing its integer key."""
    _, inverse = np.unique(keys, return_inverse=True)
    return np.bincount(inverse, weights=weights)[inverse]


def modified_ranks(graph: ConflictGraph) -> np.ndarray:
    """Every vertex's weight times its total non-neighbour weight.

    Vertex i and its neighbours are the union of the cliques of its UDs and
    its slot, so their weight follows by inclusion-exclusion over weight
    sums per UD, per slot, per UD pair, per (UD, slot) and per (UD pair,
    slot). Vectorized equivalent of graph.modified_weight.
    """
    w = graph.weights
    n = len(w)
    pair = np.flatnonzero(graph.u2 >= 0)
    # one membership entry per (vertex, UD): u1 of every vertex, then u2 of
    # the pairs; ids and slots are renumbered densely so keys stay small
    uds, member_ud = np.unique(np.concatenate([graph.u1, graph.u2[pair]]),
                               return_inverse=True)
    slots, slot = np.unique(graph.slot, return_inverse=True)
    member_of = np.concatenate([np.arange(n), pair])
    member_w = w[member_of]
    by_ud = _sum_by(member_w, member_ud)
    by_ud_slot = _sum_by(member_w, member_ud * len(slots) + slot[member_of])
    union = by_ud[:n] + _sum_by(w, slot) - by_ud_slot[:n]
    pair_key = member_ud[pair] * len(uds) + member_ud[n:]
    union[pair] += (by_ud[n:] - by_ud_slot[n:] - _sum_by(w[pair], pair_key)
                    + _sum_by(w[pair], pair_key * len(slots) + slot[pair]))
    return w * (w.sum() - union)


def greedy_min_wis(graph: ConflictGraph, ordering: str = "original") -> IndependentSet:
    """Greedy lightest-first maximal independent set.

    ordering "original" ranks by the vertex weight, "modified" by the
    weight scaled by the total non-neighbor weight; ties break on
    (ap, rrb, lowest ud id). total_weight always sums the plain weights.
    """
    if ordering not in ("original", "modified"):
        raise ValueError(f"unknown ordering {ordering!r}")
    n = len(graph)
    if n == 0:
        return IndependentSet((), (), 0.0)
    rank = modified_ranks(graph) if ordering == "modified" else graph.weights
    return _greedy_by_order(graph, _ordered(graph, rank))


def random_maximal_is(graph: ConflictGraph, seed: int) -> IndependentSet:
    """Maximal independent set grown in a seeded random vertex order."""
    n = len(graph)
    if n == 0:
        return IndependentSet((), (), 0.0)
    rng = np.random.default_rng(seed)
    return _greedy_by_order(graph, rng.permutation(n))


_EXACT_LIMIT = 25


def exact_min_wis(graph: ConflictGraph) -> IndependentSet:
    """Exhaustive minimum-weight maximal independent set, at most 25 vertices.

    Maximal independent sets of the graph are the maximal cliques of its
    complement, enumerated Bron-Kerbosch style over int bitmasks.
    """
    n = len(graph)
    if n > _EXACT_LIMIT:
        raise ValueError(f"exact search limited to {_EXACT_LIMIT} vertices, got {n}")
    if n == 0:
        return IndependentSet((), (), 0.0)
    adj = graph.adjacency_matrix()
    full = (1 << n) - 1
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

    bk(0, full, 0)
    return _collect(graph, best[1])


def _used_uds(graph: ConflictGraph, idx) -> np.ndarray:
    """The UDs of the given vertices, one entry per use."""
    u2 = graph.u2[idx]
    return np.concatenate([graph.u1[idx], u2[u2 >= 0]])


def is_independent(graph: ConflictGraph, indices) -> bool:
    """No UD and no slot is used twice by the distinct given vertices."""
    idx = np.unique(np.asarray(indices, dtype=np.int64))
    uds = _used_uds(graph, idx)
    return (np.unique(uds).size == uds.size
            and np.unique(graph.slot[idx]).size == idx.size)


def is_maximal(graph: ConflictGraph, indices) -> bool:
    """No surviving vertex could still be added: every vertex uses a UD or
    the slot of some given vertex."""
    idx = np.asarray(indices, dtype=np.int64)
    uds = _used_uds(graph, idx)
    blocked = (np.isin(graph.u1, uds) | np.isin(graph.u2, uds)
               | np.isin(graph.slot, graph.slot[idx]))
    return bool(blocked.all())
