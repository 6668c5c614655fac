#!/usr/bin/env python3
"""Self-test of the benchmark: toy-size runs and corrupted outputs.

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and requires zero
failed operations, zero check failures and the full metric set. Then feeds
each correctness check a scheme output corrupted in one way and requires
the check to reject it, while the untouched output passes. Exits 1 on the
first case that does not behave.
"""

import dataclasses
import sys

import run  # puts src/ and tests/ on sys.path

from nomec import SCHEMES, generate, realize_channels, run_scheme, with_channel

import checks
import tracer as tracing
import workloads

TOY_UDS = {"paper-default": 8, "dense-96": 12, "offload-mixed": 10}


def expect(condition, message):
    """An assertion that also holds under python -O."""
    if not condition:
        raise AssertionError(message)


def toy(workload):
    config = dataclasses.replace(workload.config, n_uds=TOY_UDS[workload.name])
    return dataclasses.replace(workload, config=config, topologies=2, fading=1)


def per_layer_names():
    names = {run.TRACE_OVERHEAD[0]}
    for metric, _, _, schemes, _ in tracing.PER_LAYER:
        names |= {metric} if schemes is None else {f"{metric}.{s}" for s in schemes}
    return names


def check_toy_runs():
    end_to_end = {name for name, _, _ in run.END_TO_END} - {"setup_s"}
    for workload in workloads.WORKLOADS.values():
        for trace, names in ((False, end_to_end), (True, per_layer_names())):
            record = run.run_workload(toy(workload), seed=3, seconds=0.01, trace=trace)
            expect(record["failed"] == 0 and not record["errors"], (workload.name, record["errors"]))
            passes = 2 if trace else 1          # a traced run repeats its untraced rounds
            per_trial = sum(workload.repeats.get(s, 1) for s in SCHEMES)
            expect(record["attempted"] == passes * record["rounds"] * 2 * per_trial,
                   record["attempted"])
            expect(set(record["metrics"]) == names, set(record["metrics"]) ^ names)
        print(f"ok   toy run {workload.name}")


def outputs(name="offload-mixed", scheme="joint"):
    """(scenario, schedule, plan) of one real trial at toy size."""
    workload = toy(workloads.WORKLOADS[name])
    scenario = generate(workloads.topology_configs(workload)[0])
    scenario = with_channel(scenario, realize_channels(scenario, 11))
    schedule, plan = run_scheme(scenario, scheme, seed=5, **workload.options)
    return scenario, schedule, plan


def rejects(label, reason, check, *args):
    """The check raises CheckError, and its message names the reason."""
    try:
        check(*args)
    except checks.CheckError as exc:
        expect(reason in str(exc), f"{label}: rejected for another reason: {exc}")
        print(f"ok   {label}: rejected ({exc})")
        return
    expect(False, f"{label}: the corrupted case was accepted")


def with_assocs(schedule, assocs):
    return dataclasses.replace(schedule, associations=tuple(assocs))


def check_corruptions():
    scenario, schedule, plan = outputs()
    checks.check_output("joint", schedule, plan, scenario, False)
    assocs = schedule.associations
    expect(len(assocs) >= 2, "toy schedule too small to corrupt")
    first = assocs[0]

    used = {(a.ap, a.rrb) for a in assocs}
    free = [(ap.id, z) for ap in scenario.aps if set(first.uds) <= scenario.coverage[ap.id]
            for z in range(ap.num_rrbs) if (ap.id, z) not in used]
    expect(free, "no free slot to duplicate a UD into")
    duplicate = dataclasses.replace(first, ap=free[0][0], rrb=free[0][1])
    rejects("duplicated UD", "scheduled twice", checks.check_schedule,
            with_assocs(schedule, assocs + (duplicate,)), scenario, False)

    crowded = dataclasses.replace(assocs[1], ap=first.ap, rrb=first.rrb)
    rejects("over-full slot", "more than one cluster", checks.check_schedule,
            with_assocs(schedule, (first, crowded) + assocs[2:]), scenario, False)

    top = max(r for a in assocs for r in a.power.rates)
    strict = dataclasses.replace(scenario, weights=dataclasses.replace(
        scenario.weights, rate_threshold_bps=2.0 * top))
    rejects("rate below the floor", "below the floor", checks.check_power, schedule, strict)

    loud = dataclasses.replace(first, power=dataclasses.replace(
        first.power, powers=tuple(1.5 * scenario.devices[u].p_max_w for u in first.uds)))
    rejects("power above p_max", "outside [0, p_max]", checks.check_power, with_assocs(schedule, (loud,) + assocs[1:]),
            scenario)

    picks = plan.extras["final_is_indices"]
    short = dataclasses.replace(plan, extras=dict(plan.extras, final_is_indices=picks[1:]))
    rejects("non-maximal pick set", "could still join", checks.check_maximal, schedule, short, False)

    wrong = dataclasses.replace(plan, metrics=dataclasses.replace(
        plan.metrics, cost=plan.metrics.cost * (1.0 + 1e-6)))
    rejects("wrong cost", "cost", checks.check_metrics, schedule, wrong, scenario)

    scenario, schedule, plan = outputs("paper-default", "all_offload")
    checks.check_output("all_offload", schedule, plan, scenario, False)
    admitted = sorted(plan.admission.assignment)
    expect(len(admitted) >= 2, "toy all_offload admitted fewer than two groups")
    shared = {ap: plan.admission.assignment[admitted[0]] for ap in admitted}
    rejects("MEC shared by two APs", "share one MEC", checks.check_admission,
            dataclasses.replace(plan, admission=dataclasses.replace(
                plan.admission, assignment=shared)), scenario)

    over = dataclasses.replace(plan, metrics=dataclasses.replace(
        plan.metrics, effective_capacity=2 * len(scenario.mecs) + 1))
    rejects("all_offload capacity above 2 * n_mecs", "above 2 * n_mecs", checks.check_capacity_bound,
            "all_offload", over, scenario)


def check_replay_mismatch():
    workload = toy(workloads.WORKLOADS["paper-default"])
    scenarios = [generate(cfg) for cfg in workloads.topology_configs(workload)]
    runner = run.Runner(workload, 3, scenarios)
    runner.round()
    expect(not runner.errors, runner.errors)
    key = next(iter(runner.reference))
    runner.reference[key] = ("a different decision",)
    with tracing.installed(tracing.Tracer()) as tr:
        runner.round(tr)
    expect(len(runner.errors) == 1 and "decided differently" in runner.errors[0], runner.errors)
    print(f"ok   traced run that decides differently: rejected ({runner.errors[0]})")


def main():
    check_toy_runs()
    check_corruptions()
    check_replay_mismatch()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
