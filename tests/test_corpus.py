"""A differential corpus: every scheme's output on a fixed grid, pinned by
hash in tests/golden/corpus.json.

The CSV goldens pin metrics only. This corpus pins, per run_scheme call,
three SHA-256 digests (each cut to 12 hex digits): the benchmark's
``checks.fingerprint`` (associations with powers and rates, allocation,
admission, failed and fallback APs, metrics), the extras other than the
final graph, and the final graph's columns with their dtypes. A mismatch
names the record and the part that moved.

The grid is six configs (the defaults, ``density_cpb=2000``,
``rate_threshold_bps=2e7``, ``rrbs_per_ap=1`` and ``shadowing_std_db=100``
at 30 UDs, and the benchmark's offload-mixed config) x 2 topologies x 2
fadings x both MWIS orderings x both CC2 rules x fallback on and off x
the five schemes. The digests pin float bits, so a numpy whose ``log`` or
``exp`` rounds otherwise reads as a mismatch. Regenerate the file only
for a deliberate change of results, and say which records moved:

    PYTHONPATH=src:tests python tests/test_corpus.py
"""

import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from nomec import SCHEMES, ScenarioConfig, generate, run_scheme
from nomec.scenario import realize_channels, with_channel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
try:
    import checks
finally:
    sys.path.pop(0)

CORPUS = Path(__file__).parent / "golden" / "corpus.json"

CONFIGS = {
    "default": ScenarioConfig(n_uds=30),
    "density_cpb=2000": ScenarioConfig(n_uds=30, density_cpb=2000.0),
    "rate_threshold_bps=2e7": ScenarioConfig(n_uds=30, rate_threshold_bps=2e7),
    "rrbs_per_ap=1": ScenarioConfig(n_uds=30, rrbs_per_ap=1),
    "shadowing_std_db=100": ScenarioConfig(n_uds=30, shadowing_std_db=100.0),
    "offload-mixed": ScenarioConfig(n_uds=48, task_size_range_bits=(100.0, 2000.0),
                                    density_cpb=500.0),
}
TOPOLOGIES = (0, 1)
FADINGS = (0, 1)
GRAPH_COLUMNS = ("u1", "u2", "rrb_arr", "ap_arr", "weights", "slot",
                 "_p1", "_p2", "_r1", "_r2", "_obj")


def _canonical(value):
    """value as nested tuples of ints, bools, strings and float.hex
    strings, with dicts and sets sorted, so its repr is the same on every
    Python and numpy."""
    if isinstance(value, dict):
        return tuple(sorted((_canonical(k), _canonical(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_canonical(v) for v in value))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _digest(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()[:12]


def record_digests(schedule, plan):
    """The three digests of one run_scheme result, space-separated."""
    extras = {k: v for k, v in plan.extras.items() if k != "final_graph"}
    graph = plan.extras["final_graph"]
    columns = [graph.strict_cc2]
    for name in GRAPH_COLUMNS:
        column = getattr(graph, name)
        columns += [name, column.dtype.str, np.ascontiguousarray(column).tobytes()]
    return " ".join((_digest(_canonical(checks.fingerprint(schedule, plan))),
                     _digest(_canonical(extras)), _digest(*columns)))


def corpus():
    """{record name: digests} over the whole grid, in grid order."""
    out = {}
    for (name, cfg), topology in itertools.product(CONFIGS.items(), TOPOLOGIES):
        scn = generate(dataclasses.replace(cfg, seed=topology))
        for fading in FADINGS:
            trial = with_channel(scn, realize_channels(scn, fading))
            for ordering, strict, fallback, scheme in itertools.product(
                    ("original", "modified"), (False, True), (True, False), SCHEMES):
                schedule, plan = run_scheme(trial, scheme, seed=fading, strict_cc2=strict,
                                            mwis_ordering=ordering, fallback_local=fallback)
                key = (f"{name}/topology={topology}/fading={fading}/{ordering}/"
                       f"{'strict' if strict else 'default'}_cc2/"
                       f"fallback={'on' if fallback else 'off'}/{scheme}")
                out[key] = record_digests(schedule, plan)
    return out


def test_every_record_matches_the_corpus():
    want = json.loads(CORPUS.read_text())["records"]
    got = corpus()
    assert got.keys() == want.keys()
    moved = [f"{key}: {want[key]} -> {got[key]}" for key in want if got[key] != want[key]]
    assert not moved, f"{len(moved)} of {len(want)} records moved:\n" + "\n".join(moved[:20])


if __name__ == "__main__":
    CORPUS.write_text(json.dumps({
        "digests": "fingerprint extras final_graph, each sha256[:12]",
        "records": corpus()}, indent=0) + "\n")
