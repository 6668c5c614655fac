"""Search for minimum-total-weight maximal independent sets.

The schedule quality target is the maximal independent set whose total
weight is smallest, so the greedy heuristic takes vertices lightest first.
Conflicts are shared UDs or shared slots, so the greedy and random passes
work on UD/slot incidence: a vertex is taken when its UDs and its slot are
all still unused, with no edge list. The pass reads its order in chunks,
each cut to the vertices still free, until every slot or every UD is used,
and the greedy sorts only the prefix of its order that the pass reaches.
A seeded random maximal set provides the baseline; the exact search that
bounds the greedy from below lives with the test oracles.
"""

from dataclasses import dataclass

import numpy as np

from .graph import ConflictGraph
from .model import sum_left_to_right


ORDERINGS = ("original", "modified")


@dataclass(frozen=True)
class IndependentSet:
    indices: tuple       # positions in the source graph, in pick order
    total_weight: float


# the first chunk of an order; each later chunk is _GROWTH times larger
_FIRST_CHUNK = 512
_GROWTH = 4


def _live(graph: ConflictGraph, idx, used):
    """The non-empty idx without the vertices that conflict with the picks
    whose (UDs, slots) sets used holds."""
    if not used[1]:
        return idx
    u1, u2, slot = graph.u1[idx], graph.u2[idx], graph.slot[idx]
    # the last UD entry stays unset, so a singleton's u2 = -1 never blocks it
    taken_ud = np.bincount(list(used[0]), minlength=max(int(u1.max()), int(u2.max()), *used[0]) + 2) > 0
    taken_slot = np.bincount(list(used[1]), minlength=int(slot.max()) + 1) > 0
    return idx[~(taken_ud[u1] | taken_ud[u2] | taken_slot[slot])]


def _extent(graph: ConflictGraph):
    """The numbers of distinct slots and of distinct UDs of graph's
    vertices, kept on the graph: weights are rebound, columns never change."""
    if graph._extent is None:
        uds = np.concatenate([graph.u1, graph.u2[graph.u2 >= 0]])
        graph._extent = (int(np.count_nonzero(np.bincount(graph.slot))),
                         int(np.count_nonzero(np.bincount(uds))))
    return graph._extent


def _scan(graph: ConflictGraph, parts, rank=None) -> IndependentSet:
    """Maximal independent set taking the vertices of each index array in
    parts in turn: a vertex is taken when its UDs and its slot are all
    still unused.

    Each part is read in chunks of growing size, each cut by _live to the
    vertices the picks so far leave free. Without rank a part is read in
    its given order. With rank, one entry per vertex, it is read by (rank,
    ap, rrb, uds): a live rest of more than twice the chunk size k is cut
    to every vertex whose rank is at most the k-th smallest such rank, so
    equal ranks never straddle two chunks, and a chunk is sorted by rank
    alone when its ranks are distinct, else by lexsort, whose keys run
    minor-first and which puts NaN ranks last. The parts are disjoint; the
    scan stops once every slot or every UD of the graph is used, since no
    later vertex could then be taken. Parts that leave some of the graph
    out pick the same set, but may read to their end instead.
    total_weight adds the picks' weights left to right.
    """
    n_slots, n_uds = _extent(graph)
    used_uds, used_slots = used = (set(), set())
    picked = []
    for rest in parts:
        size = _FIRST_CHUNK
        while rest.size and len(used_slots) < n_slots and len(used_uds) < n_uds:
            if rank is None:
                chunk, rest = _live(graph, rest[:size], used), rest[size:]
            else:
                chunk = _live(graph, rest, used)
                rest = chunk[:0]
                if chunk.size > 2 * size:
                    r = rank[chunk]
                    head = r <= np.partition(r, size - 1)[size - 1]
                    chunk, rest = chunk[head], chunk[~head]
                r = rank[chunk]
                order = np.argsort(r)
                ranked = r[order]
                if not (ranked[1:] > ranked[:-1]).all():     # equal or NaN ranks
                    order = np.lexsort((graph.u2[chunk], graph.u1[chunk],
                                        graph.rrb_arr[chunk], graph.ap_arr[chunk], r))
                chunk = chunk[order]
            size *= _GROWTH
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
                    break
    return IndependentSet(tuple(picked), float(sum_left_to_right(graph.weights[picked].tolist())))


def _sum_by(weights, keys):
    """Per entry, the total weight of the entries sharing its non-negative
    integer key, each key's entries added in input order."""
    return np.bincount(keys, weights=weights)[keys]


def modified_weight(i: int, graph: ConflictGraph) -> float:
    """Vertex i's weight times the total weight of the other vertices its
    packed adjacency row leaves out. No scheduling path calls it:
    perfbench/tracer.py wraps mwis.modified_weight by name."""
    w = graph.weights
    adj_sum = float(w[np.unpackbits(graph.adj_bits[i], count=len(w)).astype(bool)].sum())
    return float(w[i] * (w.sum() - w[i] - adj_sum))


def modified_ranks(graph: ConflictGraph) -> np.ndarray:
    """Every vertex's weight times its total non-neighbour weight.

    Vertex i and its neighbours are the union of the cliques of its UDs and
    its slot, so their weight follows by inclusion-exclusion over weight
    sums per UD, per slot, per UD pair, per (UD, slot) and per (UD pair,
    slot), each one bincount over keys the ids give: ud*S + slot, u1*N + u2
    and, under strict CC2, (u1*N + u2)*S + slot, with N and S one past the
    largest UD id and slot. Under the default CC2 rule a slot is one RRB of
    one AP, where a cluster is enumerated once, so a (pair, slot) sum is
    the pair's own weight. Vectorized equivalent of modified_weight.

    The keys are kept on the graph, so weights set on it again reuse them.
    """
    n = len(graph)
    if n == 0:      # bincount of no keys is an int array
        return np.zeros(0)
    if graph._rank_keys is None:
        pair = np.flatnonzero(graph.u2 >= 0)
        # one membership entry per (vertex, UD): u1 of every vertex, then u2 of the pairs
        ud = np.concatenate([graph.u1, graph.u2[pair]])
        slot = np.concatenate([graph.slot, graph.slot[pair]])
        n_slots = slot.max() + 1
        pair_key = ud[pair] * (ud.max() + 1) + ud[n:]
        graph._rank_keys = (pair, ud, ud * n_slots + slot, pair_key,
                            pair_key * n_slots + slot[n:] if graph.strict_cc2 else None)
    pair, ud, ud_slot, pair_key, pair_slot = graph._rank_keys
    w = graph.weights
    w_pair = w[pair]
    member_w = np.concatenate([w, w_pair])
    by_ud = _sum_by(member_w, ud)
    by_ud_slot = _sum_by(member_w, ud_slot)
    union = by_ud[:n] + _sum_by(w, graph.slot) - by_ud_slot[:n]
    by_pair_slot = _sum_by(w_pair, pair_slot) if graph.strict_cc2 else w_pair
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
    return _scan(graph, (np.arange(len(graph)),), rank)


def random_maximal_is(graph: ConflictGraph, seed: int) -> IndependentSet:
    """Maximal independent set grown in a seeded random vertex order."""
    return _scan(graph, (np.random.default_rng(seed).permutation(len(graph)),))

