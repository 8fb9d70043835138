#!/usr/bin/env python3
"""Simulated-result gate for perfbench.

perfbench prints, for every workload it runs, the `model.*` counters of
each scenario point: the simulated results (requests routed and completed,
simulated seconds, TTFT p99, goodput, hand-offs, migrations). They do not
depend on `--seconds`, so a change that only speeds the simulator up must
leave them as committed in `results/perfbench_model.txt`. This gate
compares them the way the golden traces do: counts exactly, every other
value within 1e-9 relative.

Usage:
    python3 ci/check_perfbench_model.py results/perfbench_model.txt OUT...
    python3 ci/check_perfbench_model.py --bless results/perfbench_model.txt OUT...

Each OUT is the stdout of one `perfbench --workload <name>` run. `--bless`
rewrites the committed file from the runs instead of checking them (for a
change that argues a re-bless of the simulated results).
"""

import re
import sys
from pathlib import Path

RELATIVE_TOLERANCE = 1e-9
HEADER = re.compile(r"^\S+: model counters of point \S+$")
COUNTER = re.compile(r"^\s+(model\.\S+)\s+(\S+)\s+(\S+)$")


def model_lines(text):
    """The point headers and `model.*` counter lines of one run, in order."""
    return [
        line.rstrip()
        for line in text.splitlines()
        if HEADER.match(line) or COUNTER.match(line)
    ]


def same(expected, actual):
    """Whether two model lines agree: headers and counts exactly, other
    values within the relative tolerance."""
    want, got = COUNTER.match(expected), COUNTER.match(actual)
    if not want or not got:
        return expected == actual
    (name, value, unit), (got_name, got_value, got_unit) = want.groups(), got.groups()
    if (name, unit) != (got_name, got_unit):
        return False
    if unit == "count":
        return value == got_value
    a, b = float(value), float(got_value)
    return abs(a - b) <= RELATIVE_TOLERANCE * max(abs(a), abs(b))


def main(argv):
    bless = argv[:1] == ["--bless"]
    if bless:
        argv = argv[1:]
    if len(argv) < 2:
        sys.exit(__doc__)
    committed, outputs = Path(argv[0]), argv[1:]
    fresh = []
    for path in outputs:
        lines = model_lines(Path(path).read_text())
        if not lines:
            sys.exit(f"{path}: no model counters in perfbench output")
        fresh.extend(lines)
    if bless:
        committed.write_text("\n".join(fresh) + "\n")
        print(f"wrote {len(fresh)} lines to {committed}")
        return 0
    expected = committed.read_text().splitlines()
    failures = []
    if len(expected) != len(fresh):
        failures.append(f"{len(fresh)} model lines, {committed} has {len(expected)}")
    for want, got in zip(expected, fresh):
        if not same(want, got):
            failures.append(f"expected {want.strip()!r}, got {got.strip()!r}")
    for failure in failures:
        print(f"perfbench model mismatch: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"perfbench model counters match {committed} ({len(fresh)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
