"""Layer spans for the traced run.

The traced run wraps each layer's public functions where the scheduler
calls them (module attributes of ``nomec.schedulers``, ``nomec.graph`` and
``nomec.mwis``); the library itself has no timers. Every wrapped call is a
span whose parent is the span open when it started, so a layer's self time
is its duration minus the time of the wrapped calls inside it. Spans are
folded into per-(scheme, layer) sums as they close instead of being kept:
``modified_weight`` alone closes about 10,000 spans per ``joint`` call on
offload-mixed.
"""

import contextlib
import time
from collections import defaultdict

import nomec.graph
import nomec.mwis
import nomec.schedulers

_MIB = float(1 << 20)


class Tracer:
    """Span and counter sums, keyed by (scheme, name).

    ``scope`` names the scheme whose run_scheme call is open; calls outside
    any scheme (set-up, channel realization) use the scope None.
    """

    def __init__(self):
        self.scope = None
        self._open = []                    # child time of each open span, ns
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.operations = defaultdict(int)     # run_scheme calls per scheme
        self._peak = defaultdict(float)

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        start = time.perf_counter_ns()
        self._open.append(0)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter_ns() - start
            children = self._open.pop()
            if self._open:
                self._open[-1] += duration
            key = (self.scope, name)
            self.total_ns[key] += duration
            self.self_ns[key] += duration - children
            self.calls[key] += 1

    def count(self, name, value):
        self.counts[(self.scope, name)] += value

    def peak(self, name, value):
        key = (self.scope, name)
        self._peak[key] = max(self._peak[key], value)

    def end_operation(self, plan):
        """Close one run_scheme call of the current scheme: fold the largest
        value seen during it into the sums, and take counts from its plan."""
        self.operations[self.scope] += 1
        for key, value in self._peak.items():
            self.counts[key] += value
        self._peak.clear()
        x = plan.local.x
        self.count("offload.candidates", sum(1 for flag in x.values() if flag))
        self.count("offload.admitted", sum(1 for y in plan.admission.y.values() if y))
        self.count("offload.failed_groups", len(plan.failed_aps))
        if self.scope == "joint":
            self.count("schedulers.joint_iterations", plan.extras["iterations"])
            self.count("schedulers.joint_converged", int(plan.extras["converged"]))


def _graph_counts(counter):
    def record(tr, graph):
        tr.count(counter, len(graph))
        tr.peak("graph.adjacency_bytes", graph.adj_bits.nbytes)
    return record


def _picks(tr, wis):
    tr.count("mwis.picks", len(wis.indices))


def _clusters(tr, solution):
    tr.count("power.clusters", len(solution[0]))


# (module, attribute, span name, recorder of counts from the result)
LAYERS = (
    (nomec.graph, "solve_pairs_batch", "power.solve", _clusters),
    (nomec.graph, "solve_singletons_batch", "power.solve", _clusters),
    (nomec.schedulers, "build_full", "graph.build_full", _graph_counts("graph.vertices")),
    (nomec.schedulers, "build_pruned", "graph.build_pruned", _graph_counts("graph.pruned_vertices")),
    (nomec.mwis, "modified_weight", "graph.modified_weight", None),
    (nomec.schedulers, "greedy_min_wis", "mwis.greedy", _picks),
    (nomec.schedulers, "random_maximal_is", "mwis.random", _picks),
    (nomec.schedulers, "allocate_local", "offload.allocate_local", None),
    (nomec.schedulers, "admission_control", "offload.admission", None),
    (nomec.schedulers, "system_metrics", "model.system_metrics", None),
)


def _wrap(tr, fn, name, record):
    def traced(*args, **kwargs):
        result = tr.call(name, fn, *args, **kwargs)
        if record is not None:
            record(tr, result)
        return result
    return traced


@contextlib.contextmanager
def installed(tr):
    """Patch every layer function with a span for the duration of the block."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in LAYERS]
    try:
        for (module, attr, name, record), (_, _, fn) in zip(LAYERS, originals):
            setattr(module, attr, _wrap(tr, fn, name, record))
        yield tr
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


ALL = nomec.schedulers.SCHEMES
FULL_GRAPH = ("joint", "local", "all_offload", "random")
GREEDY = ("joint", "pruning", "local")
MWIS = ("joint", "pruning", "local", "random")
ALLOCATE = ("joint", "pruning", "local", "random")
ADMISSION = ("joint", "pruning", "all_offload")
OFFLOAD = ("joint", "pruning", "all_offload", "random")
MODIFIED = ("joint", "pruning")


def _ms(span, part="total"):
    sums = "total_ns" if part == "total" else "self_ns"
    return lambda tr, s, n: getattr(tr, sums)[(s, span)] / 1e6 / n


def _calls(span):
    return lambda tr, s, n: tr.calls[(s, span)] / n


def _count(name, scale=1.0, scope=None):
    return lambda tr, s, n: tr.counts[(scope or s, name)] * scale / n


def _picks_per_vertex(tr, s, n):
    built = tr.counts[(s, "graph.vertices")] + tr.counts[(s, "graph.pruned_vertices")]
    return tr.counts[(s, "mwis.picks")] / built if built else 0.0


# (metric, unit, better, schemes or None, value(sums, scheme, traced trials));
# a metric with schemes is reported once per scheme as "<metric>.<scheme>"
PER_LAYER = (
    ("scenario.generate_s", "s", "lower", None,
     lambda tr, s, n: tr.total_ns[(None, "scenario.generate")] / 1e9),
    ("scenario.realize_channels_ms", "ms", "lower", None, _ms("scenario.realize_channels")),
    ("power.solve_ms", "ms", "lower", ALL, _ms("power.solve")),
    ("power.clusters", "count", "lower", ALL, _count("power.clusters")),
    ("graph.build_full_self_ms", "ms", "lower", FULL_GRAPH, _ms("graph.build_full", "self")),
    ("graph.build_full_calls", "count", "lower", FULL_GRAPH, _calls("graph.build_full")),
    ("graph.vertices", "count", "lower", FULL_GRAPH, _count("graph.vertices")),
    ("graph.adjacency_mb", "MB", "lower", ALL, _count("graph.adjacency_bytes", 1.0 / _MIB)),
    ("graph.build_pruned_ms", "ms", "lower", ("pruning",), _ms("graph.build_pruned")),
    ("graph.pruned_vertices", "count", "lower", ("pruning",), _count("graph.pruned_vertices")),
    ("graph.modified_weight_ms", "ms", "lower", MODIFIED, _ms("graph.modified_weight")),
    ("graph.modified_weight_calls", "count", "lower", MODIFIED, _calls("graph.modified_weight")),
    ("mwis.greedy_self_ms", "ms", "lower", GREEDY, _ms("mwis.greedy", "self")),
    ("mwis.random_ms", "ms", "lower", ("random",), _ms("mwis.random")),
    ("mwis.picks", "count", "higher", MWIS, _count("mwis.picks")),
    ("mwis.picks_per_vertex", "ratio", "higher", MWIS, _picks_per_vertex),
    ("offload.allocate_local_ms", "ms", "lower", ALLOCATE, _ms("offload.allocate_local")),
    ("offload.allocate_local_calls", "count", "lower", ALLOCATE, _calls("offload.allocate_local")),
    ("offload.admission_ms", "ms", "lower", ADMISSION, _ms("offload.admission")),
    ("offload.candidates", "count", "lower", OFFLOAD, _count("offload.candidates")),
    ("offload.admitted", "count", "higher", OFFLOAD, _count("offload.admitted")),
    ("offload.failed_groups", "count", "lower", ALL, _count("offload.failed_groups")),
    ("model.system_metrics_ms", "ms", "lower", ALL, _ms("model.system_metrics")),
    ("schedulers.self_ms", "ms", "lower", ALL, _ms("schedulers.run_scheme", "self")),
    ("schedulers.joint_iterations", "count", "lower", None,
     _count("schedulers.joint_iterations", scope="joint")),
    ("schedulers.joint_converged", "ratio", "higher", None,
     _count("schedulers.joint_converged", scope="joint")),
)


def layer_metrics(tr, n_trials):
    """Every PER_LAYER metric, {name: (value, unit)}: per run_scheme call of
    the scheme for per-scheme metrics (one call per trial unless the
    workload repeats the scheme), per trial for the rest; set-up generation
    happens once per run and is reported whole."""
    out = {}
    for metric, unit, _, schemes, value in PER_LAYER:
        for s in schemes or (None,):
            name = metric if s is None else f"{metric}.{s}"
            n = n_trials if s is None else tr.operations[s]
            out[name] = (value(tr, s, n), unit)
    return out
