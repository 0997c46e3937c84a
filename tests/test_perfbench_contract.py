"""The benchmark's traced seed-0 runs stay correct on the current code.

perfbench/run.py --trace 1 checks every CSV against its recorded reference
and the exact per-repeat counts that define each workload, and reads some
return values of fenet (the attack results' `success`, the length of the
sensitivity samples). A change to any of them fails the benchmark; this
test fails first. The only problem it forgives is the cli.self_s timing
bound, which a scheduling stall on a shared host can trip.
"""

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMING_PROBLEM = re.compile(r"repeat \d+: cli\.self_s = ")

# Seed-0 values of the counts this package's return types and CSVs decide.
EXPECTED = {
    "train_desk": {"cli.csv_exact": 1},
    "ensemble_mincorr": {
        "attacks.grad_calls": 120, "attacks.success_ratio": 0.25, "filters.apply.octree.calls": 45,
        "cli.csv_exact": 3,
    },
    "ensemble_maxcorr": {
        "attacks.grad_calls": 120, "attacks.success_ratio": 0.375, "filters.apply.octree.calls": 0,
        "cli.csv_exact": 3,
    },
    "correlate32": {"sensitivity.samples": 80, "cli.csv_exact": 1},
}


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_seed0_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    record, result = json.loads(record_line), json.loads(result_line)
    assert result["failed"] == 0, record["problems"]
    assert all(TIMING_PROBLEM.match(p) for p in record["problems"]), record["problems"]
    for name, want in EXPECTED[workload].items():
        assert result["metrics"][name]["value"] == want, name
