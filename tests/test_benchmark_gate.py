"""The benchmark's correctness gate, run over one pass of each workload.

``perfbench/run.py`` counts a run as incorrect when a case of a pass fails or
when a pass's report digest differs from the one ``perfbench/spec.json``
records for its seed.  This test runs the same pass at both recorded seeds,
through the benchmark's own ``run_pass``, so such a change fails here first.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

import qhc.cli  # noqa: E402
import qhc.verify  # noqa: E402


@pytest.mark.parametrize("seed", [run.SPEC["default_seed"], run.SPEC["heldout_seed"]])
@pytest.mark.parametrize("workload", sorted(run.SPEC["workloads"]))
def test_a_pass_passes_every_case_and_repeats_its_digest(workload, seed):
    spec = run.SPEC["workloads"][workload]
    expected = run.expected_cases(qhc.verify, spec)
    result = run.run_pass(qhc.cli, qhc.verify, spec, seed, expected)
    assert result.passed == result.attempted == sum(expected.values())
    assert result.digest == run.SPEC["baseline_digests"][workload][str(seed)]
