"""End-to-end acceptance criteria.

Each test prints a single PASS/FAIL line with its elapsed time and enforces a
wall-clock budget.  Every comparison is exact rational equality.
"""

import hashlib
import json
import subprocess
import sys
import time
from contextlib import contextmanager

from qhc.exactnum import Rat
from qhc.highest import (
    REPRESENTATIONS,
    hc,
    hc_closed_11,
    hc_difference_11,
    hc_infinity_valuation,
)
from qhc.izergin import Kernel
from qhc.params import sample_generic
from qhc.verify import registry, run_suite


@contextmanager
def budget(name, limit_s):
    t0 = time.monotonic()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.monotonic() - t0
        print(f"{status} {name} ({elapsed:.2f}s, limit {limit_s}s)")
        if status == "PASS":
            assert elapsed < limit_s, f"{name} exceeded {limit_s}s ({elapsed:.2f}s)"


def _assert_suite_green(report):
    bad = [c for c in report["cases"] if not c["equal"] or c["error"]]
    assert not bad, f"{len(bad)} failing cases, first: {bad[0]}"
    assert report["summary"]["fail"] == 0
    assert report["summary"]["error"] == 0
    assert report["summary"]["pass"] == len(report["cases"])


def test_criterion_01_smallest_case_closed_form():
    with budget("criterion-01 smallest-case closed form, all representations", 1):
        checked = 0
        for seed in range(25):
            (ts, xs, ss, ys), q = sample_generic((1, 1, 1, 1), seed)
            kern = Kernel(q)
            for side in ("l", "r"):
                want = hc_closed_11(kern, side, ts[0], xs[0], ss[0], ys[0])
                for rep in REPRESENTATIONS:
                    assert hc(kern, side, ts, xs, ss, ys, rep) == want
            checked += 1
        assert checked >= 25


def test_criterion_02_difference_identity():
    with budget("criterion-02 left/right difference identity", 1):
        for seed in range(25):
            (ts, xs, ss, ys), q = sample_generic((1, 1, 1, 1), seed)
            lhs, rhs = hc_difference_11(Kernel(q), ts[0], xs[0], ss[0], ys[0])
            assert lhs == rhs


def test_criterion_03_six_representation_agreement():
    with budget("criterion-03 six-representation agreement up to a+b=5", 60):
        points = 0
        for a in range(6):
            for b in range(6 - a):
                for seed in range(2):
                    (ts, xs, ss, ys), q = sample_generic((a, a, b, b), seed)
                    kern = Kernel(q)
                    for side in ("l", "r"):
                        vals = [
                            hc(kern, side, ts, xs, ss, ys, rep)
                            for rep in REPRESENTATIONS
                        ]
                        assert all(v == vals[0] for v in vals), (side, a, b, seed)
                    points += 1
        assert points >= 25


def test_criterion_04_determinant_identity_suite():
    with budget("criterion-04 determinant identity suite up to k=4", 30):
        report = run_suite("izergin", a_max=4, b_max=4, trials=2, seed=101)
        _assert_suite_green(report)


def test_criterion_05_symmetry_suite():
    with budget("criterion-05 symmetry suite up to a=b=3", 30):
        report = run_suite("symmetries", a_max=3, b_max=3, trials=2, seed=102)
        _assert_suite_green(report)


def test_criterion_06_residue_suite():
    with budget("criterion-06 residue and multiple-pole suite", 60):
        report = run_suite("residues", a_max=2, b_max=2, trials=2, seed=103)
        _assert_suite_green(report)


def test_criterion_06b_residue_suite_at_3_3():
    # The residue suite one size up, 264 cases, under criterion 06's budget.
    # The report is hashed as perfbench's report_digest hashes one report:
    # every case without elapsed_ms, keys sorted, compact separators; the
    # digest was computed with the fractions backend.
    with budget("criterion-06b residue suite up to a=b=3", 60):
        report = run_suite("residues", a_max=3, b_max=3, trials=1, seed=42)
    assert len(report["cases"]) == 264
    _assert_suite_green(report)
    cases = [{k: v for k, v in c.items() if k != "elapsed_ms"} for c in report["cases"]]
    body = json.dumps(dict(report, cases=cases), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "a28f4573e0bcc0e789f4ce3d13bb8d7e8baa39122f1d3832d9043bed774854ce"
    )


def test_criterion_07_reduction_suite():
    with budget("criterion-07 reduction suite up to a=b=3", 30):
        report = run_suite("reductions", a_max=3, b_max=3, trials=2, seed=104)
        _assert_suite_green(report)


def test_criterion_08_twin_sum_suite():
    with budget("criterion-08 twin summation suite up to max(a,b)=3", 30):
        report = run_suite("twins", a_max=3, b_max=3, trials=2, seed=105)
        _assert_suite_green(report)


def test_criterion_09_double_partition_sum_suite():
    with budget("criterion-09 double-partition summation suite", 60):
        report = run_suite("prop51", a_max=2, b_max=2, trials=2, seed=106)
        _assert_suite_green(report)


def test_criterion_09b_double_partition_sum_suite_at_3_3():
    # PROP_5_1 one size up, 240 cases, where rational K of three lines meet
    # both sides of the identity; a K error shared by both sides would pass
    # criterion 09 but change this digest.  Hashed as criterion 06b hashes
    # its report; the digest was computed with the fractions backend.
    with budget("criterion-09b double-partition summation suite up to a=b=3", 60):
        report = run_suite("prop51", a_max=3, b_max=3, trials=1, seed=42)
    assert len(report["cases"]) == 240
    _assert_suite_green(report)
    cases = [{k: v for k, v in c.items() if k != "elapsed_ms"} for c in report["cases"]]
    body = json.dumps(dict(report, cases=cases), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "b0a7d2616325ff3871bcbb0e068b1c932828b7235510710a3171df97168a18e8"
    )


def test_criterion_10_scalar_product_suite():
    with budget("criterion-10 scalar-product corner and residue suite", 30):
        report = run_suite("scalar", a_max=2, b_max=2, trials=2, seed=107)
        _assert_suite_green(report)


def test_criterion_11_asymptotics_and_vanishing():
    with budget("criterion-11 large-argument decay and vanishing", 10):
        for seed in range(3):
            (ts, xs, ss, ys), q = sample_generic((2, 2, 2, 2), seed)
            kern = Kernel(q)
            for side in ("l", "r"):
                for slot in ("t", "x", "s", "y"):
                    decay = (side == "l" and slot in ("t", "s")) or (
                        side == "r" and slot in ("x", "y")
                    )
                    got = hc_infinity_valuation(kern, side, ts, xs, ss, ys, slot)
                    assert got >= (1 if decay else 0), (side, slot, seed)
                # vanishing at the origin of the distinguished argument
                if side == "l":
                    assert hc(kern, side, ts, xs, ss, (Rat(0),) + ys[1:]) == Rat(0)
                else:
                    assert hc(kern, side, (Rat(0),) + ts[1:], xs, ss, ys) == Rat(0)


def test_criterion_12_cli_full_sweep(tmp_path):
    with budget("criterion-12 full CLI verification sweep", 300):
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "qhc.cli", "verify", "--suite", "all",
             "--a-max", "2", "--b-max", "2", "--trials", "10",
             "--seed", "42", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(out.read_text())
        assert set(report) == {"suite", "config", "cases", "summary"}
        assert report["suite"] == "all"
        assert report["config"]["seed"] == 42
        for case in report["cases"]:
            assert set(case) == {
                "identity_id", "shape", "seed", "params", "lhs", "rhs",
                "equal", "error", "elapsed_ms",
            }
        assert report["summary"]["fail"] == 0
        assert report["summary"]["error"] == 0
        assert report["summary"]["pass"] == len(report["cases"])


def test_criterion_13_scalar_residues_at_4_4():
    with budget("criterion-13 scalar-product extreme coefficients at a=b=4", 20):
        descs = {d.identity_id: d for d in registry()}
        for ident in ("SCAL_RES1", "SCAL_RES2"):
            lhs, rhs, ok, _ = descs[ident].run((4, 4), None, 13)
            assert ok is None and lhs == rhs and lhs != 0, ident
