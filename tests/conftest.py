"""Shared test plumbing.

The acceptance tests register one PASS/FAIL line per criterion here so the
summary appears at the end of the pytest run even with output capture on.
gain_arrays builds hand-written channel gains in the array layout of
ChannelState.
"""

import numpy as np

ACCEPTANCE_LINES = []


def gain_arrays(uplink=None, backhaul=None):
    """(N, M, Z) uplink and (M, K) backhaul gain arrays holding the given
    {(ud, ap, rrb): gain} and {(ap, mec): gain} entries, zero elsewhere,
    each just large enough for its keys."""
    def fill(entries, ndim):
        entries = entries or {}
        shape = tuple(max((k[d] for k in entries), default=-1) + 1 for d in range(ndim))
        gains = np.zeros(shape)
        for key, gain in entries.items():
            gains[key] = gain
        return gains
    return fill(uplink, 3), fill(backhaul, 2)


def record_criterion(number: int, name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {number:2d} {name}: {tag}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
