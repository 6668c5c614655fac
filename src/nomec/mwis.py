"""Search for minimum-total-weight maximal independent sets.

The schedule quality target is the maximal independent set whose total
weight is smallest, so the greedy heuristic takes vertices lightest first.
Conflicts are shared UDs or shared slots, so the greedy and random passes
work on UD/slot incidence: a vertex is taken when its UDs and its slot are
all still unused, with no edge list. The pass reads its order in chunks and
stops once every slot or every UD is used, and the greedy sorts only the
prefix of its order that the pass reaches. An exact enumerator (for small
graphs, on the explicit adjacency) and a seeded random maximal set provide
the quality bounds.
"""

from dataclasses import dataclass

import numpy as np

from .graph import ConflictGraph
# kept bound here: perfbench/tracer.py wraps mwis.modified_weight by name
from .graph import modified_weight  # noqa: F401


ORDERINGS = ("original", "modified")


@dataclass(frozen=True)
class IndependentSet:
    indices: tuple       # positions in the source graph, in pick order
    total_weight: float


# the first chunk of an order; each later chunk is _GROWTH times larger
_FIRST_CHUNK = 512
_GROWTH = 4


def _slices(order):
    """order in consecutive chunks of growing size."""
    start, size = 0, _FIRST_CHUNK
    while start < len(order):
        yield order[start:start + size]
        start += size
        size *= _GROWTH


def _sorted_chunks(graph: ConflictGraph, rank, subset=None):
    """The vertex order by (rank, ap, rrb, uds), in chunks of growing size.

    rank holds one entry per vertex. subset, an index array, restricts the
    order to those vertices; by default it covers them all. A chunk of size
    k takes every remaining vertex whose rank is at most the k-th smallest
    remaining rank, so equal ranks never straddle two chunks, and is sorted
    only when the scan asks for it: by rank alone when its ranks are
    distinct, else by lexsort, whose keys run minor-first and which puts
    NaN ranks last.
    """
    rank = np.asarray(rank, dtype=float)
    rest = np.arange(len(rank)) if subset is None else subset
    size = _FIRST_CHUNK
    while rest.size:
        chunk = rest
        if rest.size > size:
            r = rank[rest]
            head = r <= np.partition(r, size - 1)[size - 1]
            chunk, rest = rest[head], rest[~head]
        else:
            rest = rest[:0]
        r = rank[chunk]
        order = np.argsort(r)
        if not np.all(np.diff(r[order]) > 0):     # equal or NaN ranks
            order = np.lexsort((graph.u2[chunk], graph.u1[chunk], graph.rrb_arr[chunk],
                                graph.ap_arr[chunk], r))
        yield chunk[order]
        size *= _GROWTH


def _collect(graph: ConflictGraph, picked) -> IndependentSet:
    picked = tuple(int(i) for i in picked)
    return IndependentSet(picked, float(sum(graph.weights[i] for i in picked)))


def _greedy_by_order(graph: ConflictGraph, chunks) -> IndependentSet:
    """Maximal independent set taking vertices in the order the index
    chunks give: a vertex is taken when its UDs and its slot are all still
    unused. The scan stops once every slot or every UD of the graph is
    used, since no later vertex could then be taken."""
    n_slots = int(np.count_nonzero(np.bincount(graph.slot)))
    n_uds = int(np.count_nonzero(np.bincount(_used_uds(graph, slice(None)))))
    used_uds = set()
    used_slots = set()
    picked = []
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
                return _collect(graph, picked)
    return _collect(graph, picked)


def _sum_by(weights, keys):
    """Per entry, the total weight of the entries sharing its non-negative
    integer key, each key's entries added in input order."""
    return np.bincount(keys, weights=weights)[keys]


def modified_ranks(graph: ConflictGraph) -> np.ndarray:
    """Every vertex's weight times its total non-neighbour weight.

    Vertex i and its neighbours are the union of the cliques of its UDs and
    its slot, so their weight follows by inclusion-exclusion over weight
    sums per UD, per slot, per UD pair, per (UD, slot) and per (UD pair,
    slot), each one bincount over keys the ids give: ud*S + slot, u1*N + u2
    and, under strict CC2, (u1*N + u2)*S + slot, with N and S one past the
    largest UD id and slot. Under the default CC2 rule a slot is one RRB of
    one AP, where a cluster is enumerated once, so a (pair, slot) sum is
    the pair's own weight. Vectorized equivalent of graph.modified_weight.
    """
    w = graph.weights
    n = len(w)
    if n == 0:      # bincount of no keys is an int array
        return np.zeros(0)
    pair = np.flatnonzero(graph.u2 >= 0)
    w_pair = w[pair]
    # one membership entry per (vertex, UD): u1 of every vertex, then u2 of the pairs
    ud = np.concatenate([graph.u1, graph.u2[pair]])
    slot = np.concatenate([graph.slot, graph.slot[pair]])
    member_w = np.concatenate([w, w_pair])
    n_ids, n_slots = ud.max() + 1, slot.max() + 1
    by_ud = _sum_by(member_w, ud)
    by_ud_slot = _sum_by(member_w, ud * n_slots + slot)
    union = by_ud[:n] + _sum_by(w, graph.slot) - by_ud_slot[:n]
    pair_key = ud[pair] * n_ids + ud[n:]
    by_pair_slot = _sum_by(w_pair, pair_key * n_slots + slot[n:]) if graph.strict_cc2 else w_pair
    union[pair] += by_ud[n:] - by_ud_slot[n:] - _sum_by(w_pair, pair_key) + by_pair_slot
    return w * (w.sum() - union)


def greedy_min_wis(graph: ConflictGraph, ordering: str = "original") -> IndependentSet:
    """Greedy lightest-first maximal independent set.

    ordering "original" ranks by the vertex weight, "modified" by the
    weight scaled by the total non-neighbor weight; ties break on
    (ap, rrb, lowest ud id). total_weight always sums the plain weights.
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    rank = modified_ranks(graph) if ordering == "modified" else graph.weights
    return _greedy_by_order(graph, _sorted_chunks(graph, rank))


def random_maximal_is(graph: ConflictGraph, seed: int) -> IndependentSet:
    """Maximal independent set grown in a seeded random vertex order."""
    rng = np.random.default_rng(seed)
    return _greedy_by_order(graph, _slices(rng.permutation(len(graph))))


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
        return IndependentSet((), 0.0)
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
