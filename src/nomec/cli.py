"""Command line front end for the simulator.

Exit codes: 0 on success, 1 on bad arguments or config, 2 on runtime failure,
which includes a trial that raised or reported a non-finite metric: its row
has status "error", and every row and the summary are still written.
"""

import argparse
import sys

from .harness import (ExperimentSpec, HarnessError, check_sweep_var, emit, run_experiment,
                      summarize)
from .scenario import CONFIG_FIELDS, ConfigError, ScenarioConfig, load_config
from .mwis import ORDERINGS
from .schedulers import SCHEMES


def _lo_hi(item: str):
    lo, sep, hi = item.partition(":")
    if not sep:
        raise ValueError(item)
    return float(lo), float(hi)


def _parse_sweep(text: str):
    """Parse "var=v1,v2,..." by the config field's type: integers for an
    int field, lo:hi items for a tuple field, numbers otherwise. A
    variable that cannot be swept is refused by name before its values
    are read."""
    if "=" not in text:
        raise ValueError("expected var=value[,value...]")
    var, _, values = text.partition("=")
    var = var.strip()
    check_sweep_var(var)
    if not values.strip():
        raise ValueError("sweep has no values")
    items = [v.strip() for v in values.split(",")]
    if not all(items):
        raise ValueError(f"{var} sweep has an empty value in {values!r}")
    convert, kind = {int: (int, "integers"), tuple: (_lo_hi, "lo:hi pairs")}.get(
        CONFIG_FIELDS.get(var), (float, "numbers"))
    parsed = []
    for item in items:
        try:
            parsed.append(convert(item))
        except ValueError:
            raise ValueError(f"{var} values must be {kind}, got {item!r}") from None
    return var, tuple(parsed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Monte Carlo simulator for conflict-graph task offloading "
                    "in a NOMA-enabled multi-hop edge network.")
    parser.add_argument("--config", help="JSON file with scenario settings")
    parser.add_argument("--sweep", default=None, metavar="VAR=V1,V2,...",
                        help="sweep variable and values (default: n_uds at its "
                             "configured value)")
    parser.add_argument("--schemes", default=",".join(SCHEMES),
                        help=f"comma-separated subset of: {', '.join(SCHEMES)}")
    parser.add_argument("--trials", type=int, default=10,
                        help="Monte Carlo trials per sweep value")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--out", default="-",
                        help="output path, '-' for stdout (default)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--summary", action="store_true",
                        help="print per-(scheme, value) means to stderr")
    parser.add_argument("--workers", type=int, default=1,
                        help="process pool size for sweep values")
    parser.add_argument("--strict-cc2", action="store_true",
                        help="forbid any RRB index reuse across APs")
    parser.add_argument("--mwis-ordering", choices=ORDERINGS,
                        default="original",
                        help="greedy vertex ordering: plain or influence-scaled weights")
    parser.add_argument("--fallback-local", choices=("on", "off"), default="on",
                        help="process rejected offload groups locally (on) or "
                             "drop them (off)")
    parser.add_argument("--max-iters", type=int, default=5,
                        help="scheduling/allocation alternation limit")
    parser.add_argument("--timings", action="store_true",
                        help="record real wall times instead of 0.0")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                config = load_config(fh.read())
        else:
            config = ScenarioConfig()
        if args.sweep:
            sweep_var, sweep_values = _parse_sweep(args.sweep)
        else:
            sweep_var, sweep_values = "n_uds", (config.n_uds,)
        schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
        spec = ExperimentSpec(config=config, sweep_var=sweep_var,
                              sweep_values=sweep_values, schemes=schemes,
                              trials=args.trials, master_seed=args.seed,
                              strict_cc2=args.strict_cc2,
                              mwis_ordering=args.mwis_ordering,
                              fallback_local=args.fallback_local == "on",
                              max_iters=args.max_iters, timings=args.timings)
        if args.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")
    except (ConfigError, HarnessError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        rows = run_experiment(spec, workers=args.workers)
        emit(rows, args.out, args.format)
        if args.summary:
            for line in summarize(rows):
                print(line, file=sys.stderr)
    except ConfigError as exc:     # a scenario the config cannot generate
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: unexpected failure: {exc}", file=sys.stderr)
        return 2
    failed = sum(row.status != "ok" for row in rows)
    if failed:
        print(f"error: {failed} of {len(rows)} scheme trials failed", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
