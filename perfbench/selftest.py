#!/usr/bin/env python3
"""Self-test of the benchmark's output check; needs no fenet import.

    python3 perfbench/selftest.py

Proves on the recorded reference CSVs that one corrupted accuracy cell and
one corrupted correlation cell are each caught, at the workloads' real
tolerances: drift up to a tolerance passes and drift just past it does
not. Also shows that the seed-independent invariants catch an accuracy
outside [0, 1] and an asymmetric correlation matrix.
"""

import os
import sys

import check
from workloads import WORKLOADS

REF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
ACCURACY = ("ensemble_mincorr", "ensemble-eval_ensemble_mincorr.csv")
CORRELATION = ("correlate32", "correlate_correlate32.csv")
N_IMAGES = WORKLOADS[ACCURACY[0]].test_images  # accuracy cells are k / N_IMAGES


def read(workload, name):
    with open(os.path.join(REF, workload, name)) as fh:
        return fh.read()


def replace_cell(text, row, col, value):
    """Text with data row `row`, column `col` (0-based, after the header) set to `value`."""
    lines = text.splitlines(keepends=True)
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]
    cells = lines[data[row]].rstrip("\n").split(",")
    old, cells[col] = cells[col], value
    lines[data[row]] = ",".join(cells) + "\n"
    return "".join(lines), old


def main():
    failures = []

    def expect(cond, message):
        if not cond:
            failures.append(message)

    for workload in sorted(os.listdir(REF)):
        for name in sorted(os.listdir(os.path.join(REF, workload))):
            text = read(workload, name)
            expect(check.compare(name, text, text, N_IMAGES) == [], f"{name}: reference fails against itself")
            expect(check.invariants(name, text) == [], f"{name}: reference fails the invariants")

    acc = read(*ACCURACY)
    vote = float(acc.splitlines()[2].split(",")[1])
    bad, _ = replace_cell(acc, 0, 1, f"{vote - 2 / N_IMAGES:.6f}")
    problems = check.compare(ACCURACY[1], bad, acc, N_IMAGES)
    expect(len(problems) == 1 and "vote" in problems[0], f"two images changing class not caught: {problems}")
    drift, _ = replace_cell(acc, 0, 1, f"{vote - 1 / N_IMAGES:.6f}")
    expect(check.compare(ACCURACY[1], drift, acc, N_IMAGES) == [], "one image changing class was rejected")
    over, _ = replace_cell(acc, 0, 1, "1.250000")
    expect(check.invariants(ACCURACY[1], over) != [], "accuracy above 1 passed the invariants")

    corr = read(*CORRELATION)
    rho = float(corr.splitlines()[2].split(",")[2])
    bad, _ = replace_cell(corr, 0, 2, f"{rho - 2e-5:.6f}")
    problems = check.compare(CORRELATION[1], bad, corr, N_IMAGES)
    expect(len(problems) == 1 and "downsize" in problems[0], f"corrupted correlation cell not caught: {problems}")
    expect(check.invariants(CORRELATION[1], bad) != [], "asymmetric correlation matrix passed the invariants")
    drift, _ = replace_cell(corr, 0, 2, f"{rho + 9e-6:.6f}")
    expect(check.compare(CORRELATION[1], drift, corr, N_IMAGES) == [], "correlation drift of 9e-6 was rejected")

    for line in failures:
        print("FAIL", line)
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
