"""Verification sweep driver and command-line interface."""

import hashlib
import json
import subprocess
import sys

import pytest

import qhc.verify
from qhc.cli import build_parser, main
from qhc.exactnum import LaurentSeries, PoleError, Rat, WindowError
from qhc.izergin import Kernel
from qhc.verify import SUITES, WINDOWS, registry, run_suite

EXPECTED_IDS = {
    "K_INIT", "K_SCAL", "K_RED", "K_INVERS", "K_INVERS1", "K_RES", "K_INF",
    "LEMMA_SUM", "MULT_POLE",
    "HC_REP_AGREE", "HC_SYM_PERM", "Z_TRIV", "Z_SCAL", "Z_INVERS", "Z_INVERS1",
    "Z_INF", "Z_ZERO_VANISH", "DIFF_11",
    "REC_Z_TRIV1", "REC_Z_TRIV2", "REC_Z_NONTRIV", "REC_Z_NONTRIV_D",
    "RED1", "RED2", "NONTRIV2", "NONTRIV22",
    "DEC1", "DEC2", "DEC1_PC", "DEC2_PC",
    "TWIN_1", "TWIN_2", "TWIN_3", "TWIN_4",
    "PROP_5_1",
    "W_CORNER_L", "W_CORNER_R", "SCAL_RES1", "SCAL_RES2", "SCAL_MULTILINEAR",
}


class TestRegistry:
    def test_all_identities_present(self):
        assert {d.identity_id for d in registry()} == EXPECTED_IDS

    def test_every_identity_in_a_named_suite(self):
        for d in registry():
            assert d.suite in SUITES
            assert d.suite != "all"

    def test_ids_unique(self):
        ids = [d.identity_id for d in registry()]
        assert len(ids) == len(set(ids))


class TestRunSuite:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    def test_report_schema(self):
        report = run_suite("twins", a_max=1, b_max=1, trials=1, seed=5)
        assert set(report) == {"suite", "config", "cases", "summary"}
        assert set(report["summary"]) == {"pass", "fail", "error"}
        for case in report["cases"]:
            assert set(case) == {
                "identity_id", "shape", "seed", "params", "lhs", "rhs",
                "equal", "error", "elapsed_ms",
            }
            assert isinstance(case["equal"], bool)
        # the report must serialize as-is
        json.dumps(report)

    def test_deterministic_replay(self):
        kwargs = dict(a_max=1, b_max=1, trials=2, seed=9)
        r1 = run_suite("symmetries", **kwargs)
        r2 = run_suite("symmetries", **kwargs)
        strip = lambda r: [
            {k: v for k, v in c.items() if k != "elapsed_ms"} for c in r["cases"]
        ]
        assert strip(r1) == strip(r2)

    def test_whole_registry_report_is_pinned(self):
        # Hashed as perfbench's report_digest hashes one report: every case
        # without elapsed_ms, keys sorted, compact separators.  The digest
        # was computed with the fractions backend; it pins the sampled
        # points, both sides and the verdict of all 40 identities.
        report = run_suite("all", a_max=1, b_max=1, trials=1, seed=42)
        assert len(report["cases"]) == 209
        assert {c["identity_id"] for c in report["cases"]} == EXPECTED_IDS
        cases = [{k: v for k, v in c.items() if k != "elapsed_ms"}
                 for c in report["cases"]]
        body = json.dumps(dict(report, cases=cases), sort_keys=True,
                          separators=(",", ":"))
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "6d284ddc8bcdd5dac91b635e17a2fa930c3bb2efbfc69318555753e6049c7ed1"
        )

    def test_scalar_suite_report_is_pinned(self):
        # The scalar-product assembly up to a=b=3, hashed as above; the
        # digest was computed with the fractions backend.
        report = run_suite("scalar", a_max=3, b_max=3, trials=1, seed=108)
        assert len(report["cases"]) == 80
        assert report["summary"] == {"pass": 80, "fail": 0, "error": 0}
        cases = [{k: v for k, v in c.items() if k != "elapsed_ms"}
                 for c in report["cases"]]
        body = json.dumps(dict(report, cases=cases), sort_keys=True,
                          separators=(",", ":"))
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "b5b082829e697206ccd2cb450d6f74f0856ebc23641dc0c92ce4ce43fd774d71"
        )

    @pytest.mark.parametrize("exc", [PoleError, ZeroDivisionError, ValueError])
    def test_every_failing_case_keeps_its_replay_data(self, monkeypatch, tmp_path, exc):
        def fail(*args):
            raise exc("injected")

        monkeypatch.setattr(qhc.verify, "hc_twin_sum_pair", fail)
        report = run_suite("twins", a_max=1, b_max=1, trials=1, seed=5)
        cases = report["cases"]
        assert len(cases) == 16  # 4 identities x 2 sides x 2 shapes
        assert report["summary"] == {"pass": 0, "fail": 0, "error": 16}
        for case in cases:
            assert case["error"] == f"{exc.__name__}: injected"
            assert case["equal"] is False
            assert {"q", "t"} <= set(case["params"])
        code = main(["verify", "--suite", "twins", "--a-max", "1", "--b-max", "1",
                     "--trials", "1", "--seed", "5",
                     "--out", str(tmp_path / "report.json")])
        assert code == 1

    @pytest.mark.parametrize(
        "zero,want,decays",
        [
            # an exact zero decays
            (LaurentSeries.zero(), [1, 1], True),
            # a zero known only below its order: that order is a lower bound
            (LaurentSeries(0, (), order=3), [3, 3], True),
            (LaurentSeries(0, (), order=0), [0, 0], False),
        ],
    )
    @pytest.mark.parametrize("side", ["l", "r"])
    def test_k_inf_valuation_of_a_zero_is_a_lower_bound(
            self, monkeypatch, side, zero, want, decays):
        monkeypatch.setattr(qhc.verify, "izergin_side", lambda *args: zero)
        (desc,) = [d for d in registry() if d.identity_id == "K_INF"]
        vals, _, ok, _ = desc.run((side, 1), None, 3)
        assert vals == want
        assert ok is decays

    def test_small_sweep_all_green(self):
        report = run_suite("izergin", a_max=1, b_max=1, trials=2, seed=12)
        assert report["summary"]["fail"] == 0
        assert report["summary"]["error"] == 0
        assert report["summary"]["pass"] == len(report["cases"])


def _window():
    """The number of terms `invert` expands a unit to right now."""
    return LaurentSeries(0, (1, 1)).invert().order


def _descriptor(identity_id):
    (desc,) = [d for d in registry() if d.identity_id == identity_id]
    return desc


def _toy(evaluate):
    """An identity over two sampled sets x and y of size k, evaluated by `evaluate`."""
    return qhc.verify._identity("T", "izergin", None, lambda side, k: (k, k), ("x", "y"),
                                evaluate)


class TestWindowRetry:
    def test_the_windows_widen_to_the_default(self):
        assert WINDOWS == (2, 4, 8)

    def test_a_case_moves_on_from_a_window_error(self):
        seen = []

        def evaluate(kern, side, k, xs, ys):
            seen.append((_window(), kern))
            if _window() < 4:
                raise WindowError("too narrow")
            return xs, xs

        lhs, rhs, ok, params = _toy(evaluate).run(("l", 2), None, 3)
        assert [w for w, _ in seen] == [2, 4]
        assert seen[0][1] is not seen[1][1]  # a fresh Kernel per attempt
        assert seen[0][1] == seen[1][1]  # at the same q
        assert ok is None and lhs == rhs
        assert set(params) == {"q", "x", "y"}
        assert _window() == 8

    @pytest.mark.parametrize("sides", [
        lambda: (Rat(_window()), Rat(8)),  # unequal below 8 terms
        lambda: (LaurentSeries(0, (), order=_window() - 4), 0),  # undecided below 8
    ])
    def test_sides_that_do_not_compare_equal_are_retried(self, sides):
        lhs, rhs, ok, _ = _toy(lambda kern, *args: sides()).run(("l", 1), None, 3)
        assert ok is None and lhs == rhs

    def test_other_errors_are_not_retried(self):
        windows = []

        def evaluate(kern, *args):
            windows.append(_window())
            raise PoleError("injected")

        with pytest.raises(PoleError) as info:
            _toy(evaluate).run(("l", 1), None, 3)
        assert windows == [2]
        assert set(info.value.params) == {"q", "x", "y"}

    def test_a_window_error_at_every_window_keeps_its_replay_data(self, monkeypatch):
        want = run_suite("twins", a_max=1, b_max=1, trials=1, seed=5)["cases"]
        windows = []

        def fail(*args):
            windows.append(_window())
            raise WindowError("injected")

        monkeypatch.setattr(qhc.verify, "hc_twin_sum_pair", fail)
        report = run_suite("twins", a_max=1, b_max=1, trials=1, seed=5)
        assert report["summary"] == {"pass": 0, "fail": 0, "error": 16}
        assert windows == [2, 4, 8] * 16
        for case, good in zip(report["cases"], want):
            assert case["error"] == "WindowError: injected"
            assert case["lhs"] is None and case["rhs"] is None
            assert case["equal"] is False
            assert case["params"] == good["params"]

    def test_sides_undecided_at_every_window_keep_their_replay_data(self, monkeypatch):
        monkeypatch.setattr(qhc.verify, "izergin_side",
                            lambda *args: LaurentSeries(0, (), order=0))
        report = run_suite("izergin", a_max=1, b_max=1, trials=1, seed=5)
        cases = [c for c in report["cases"] if c["identity_id"] == "K_INIT"]
        assert len(cases) == 2
        for case in cases:
            assert case["error"] == "WindowError: equality undecided at order 0 and above"
            assert set(case["params"]) == {"q", "x", "y"}

    @pytest.mark.parametrize("side", ["l", "r"])
    def test_a_zero_whose_order_grows_with_the_window_passes(self, monkeypatch, side):
        # order 0 at 4 terms and below fails the bound of 1; order 4 at 8 passes
        monkeypatch.setattr(qhc.verify, "izergin_side",
                            lambda *args: LaurentSeries(0, (), order=_window() - 4))
        vals, bounds, ok, _ = _descriptor("K_INF").run((side, 1), None, 3)
        assert (vals, ok) == ([4, 4], True)

    def test_every_attempt_of_a_symmetry_case_shuffles_alike(self, monkeypatch):
        calls = []

        def fake_hc(kern, side, ts, xs, ss, ys):
            calls.append((_window(), ts, xs, ss, ys))
            if _window() < 8:
                raise WindowError("too narrow")
            return Rat(1)

        monkeypatch.setattr(qhc.verify, "hc", fake_hc)
        lhs, rhs, ok, _ = _descriptor("HC_SYM_PERM").run(("l", 3, 3), None, 11)
        assert lhs == rhs
        # one shuffled call per window, then the unshuffled side at 8 terms
        assert [w for w, *_ in calls] == [2, 4, 8, 8]
        assert calls[0][1:] == calls[1][1:] == calls[2][1:] != calls[3][1:]


class TestShiftedValues:
    """A q-shifted value is the kernel's own object, so it is never indexed twice."""

    @pytest.mark.parametrize("identity_id", ["DEC2", "DEC2_PC", "TWIN_1", "TWIN_3", "PROP_5_1"])
    def test_no_value_is_indexed_as_an_alias(self, monkeypatch, identity_id):
        kernels = []

        def record(q):
            kernels.append(Kernel(q))
            return kernels[-1]

        monkeypatch.setattr(qhc.verify, "Kernel", record)
        desc = _descriptor(identity_id)
        for shape in desc.shapes(2, 2):
            lhs, rhs, ok, _ = desc.run(shape, None, 5)
            assert ok is None and lhs == rhs
        assert any(k.values for k in kernels)
        assert [len(k._aliases) for k in kernels] == [0] * len(kernels)


class TestParsing:
    def test_set_syntax(self):
        from qhc.cli import _parse_set

        assert _parse_set("") == ()
        assert _parse_set("2,3/4,-5") == (Rat(2), Rat(3, 4), Rat(-5))

    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(
            ["hc", "--side", "l", "--q", "2", "--t", "2", "--x", "3",
             "--s", "5", "--y", "7"]
        )
        assert args.command == "hc"
        assert args.rep == "ws"


class TestCliInProcess:
    def test_izergin_value(self, capsys):
        code = main(["izergin", "--variant", "plain", "--x", "2,3",
                     "--y", "5,7", "--q", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "33/128"

    def test_hc_all_reps_agree(self, capsys):
        code = main(["hc", "--side", "l", "--rep", "all", "--t", "2",
                     "--x", "3", "--s", "5", "--y", "7", "--q", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "agree: True" in out
        assert out.count("5481/64") == 6

    def test_scalar_product_symbolic(self, capsys):
        code = main(["scalar-product", "--uc", "2", "--ub", "3", "--vc", "5",
                     "--vb", "7", "--q", "2", "--symbolic"])
        out = capsys.readouterr().out
        assert code == 0
        assert "r1[uC1] r3[vC1]:" in out

    def test_verify_writes_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main(["verify", "--suite", "twins", "--a-max", "1",
                     "--b-max", "1", "--trials", "1", "--seed", "3",
                     "--out", str(out_file)])
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["suite"] == "twins"
        assert report["summary"]["fail"] == 0

    def test_fixed_q_flows_through(self, tmp_path):
        out_file = tmp_path / "report.json"
        code = main(["verify", "--suite", "twins", "--a-max", "1",
                     "--b-max", "1", "--trials", "1", "--seed", "3",
                     "--q", "5/2", "--out", str(out_file)])
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["config"]["q"] == "5/2"
        for case in report["cases"]:
            assert case["params"]["q"] == "5/2"


    def test_a_report_that_cannot_be_written_is_one_line_and_exit_1(self, tmp_path, capsys):
        out_file = tmp_path / "missing" / "r.json"
        code = main(["verify", "--suite", "twins", "--a-max", "1", "--b-max", "1",
                     "--trials", "1", "--out", str(out_file)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines() == [
            f"qhc verify: FileNotFoundError: [Errno 2] No such file or directory: "
            f"'{out_file}'"]

    def test_a_sweep_of_no_cases_is_not_a_pass(self, capsys):
        code = main(["verify", "--suite", "scalar", "--trials", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "pass=0 fail=0 error=0" in captured.out
        assert "no case ran" in captured.err

    @pytest.mark.parametrize("argv,message", [
        (["izergin", "--x", "1,a", "--q", "2"],
         "argument --x: malformed rational literal: 'a'"),
        (["izergin", "--x", "1/0", "--q", "2"],
         "argument --x: zero denominator in rational literal: '1/0'"),
        (["verify", "--suite", "scalar", "--q", "1"],
         "argument --q: q must not be 0, 1, or -1"),
        (["hc", "--side", "l", "--q", "0"], "argument --q: q must not be 0, 1, or -1"),
        (["scalar-product", "--q", "2", "--r1", "num:1;den:0"],
         "argument --r1: denominator must not be identically zero"),
        (["scalar-product", "--q", "2", "--r1", "foo"],
         "argument --r1: section 'foo' has no ':' in 'foo'"),
        (["scalar-product", "--q", "2", "--r3", "num:1;dem:2"],
         "argument --r3: unknown section 'dem' in 'num:1;dem:2' (expected num or den)"),
        (["scalar-product", "--q", "2", "--r1", "num:1;num:2"],
         "argument --r1: repeated section 'num' in 'num:1;num:2'"),
    ])
    def test_bad_arguments_are_usage_errors(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main(argv)
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert err.splitlines()[-1] == f"qhc {argv[0]}: error: {message}"

    @pytest.mark.parametrize("argv,message", [
        (["izergin", "--x", "1,2", "--y", "3", "--q", "2"],
         "qhc izergin: error: --x and --y must have the same number of values (2 vs 1)"),
        (["hc", "--side", "l", "--t", "1,2", "--x", "3", "--q", "2"],
         "qhc hc: error: --t and --x must have the same number of values (2 vs 1)"),
        (["scalar-product", "--vc", "1", "--q", "2"],
         "qhc scalar-product: error: --vc and --vb must have the same number of values (1 vs 0)"),
    ])
    def test_sets_of_unequal_size_are_usage_errors(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    @pytest.mark.parametrize("argv", [
        ["izergin", "--x", "1,1", "--y", "3,4", "--q", "2"],
        ["scalar-product", "--uc", "1", "--ub", "1", "--q", "2"],
    ])
    def test_a_pole_is_one_line_and_exit_1(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qhc {argv[0]}: PoleError: vanishing denominator\n"


class TestCliSubprocess:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qhc.cli", "izergin", "--variant", "left",
             "--x", "2", "--y", "3", "--q", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "-3"

    @pytest.mark.parametrize("argv,code", [
        (["izergin", "--x", "1,2", "--y", "3", "--q", "2"], 2),
        (["izergin", "--x", "1,1", "--y", "3,4", "--q", "2"], 1),
    ])
    def test_errors_of_an_evaluator_show_no_traceback(self, argv, code):
        proc = subprocess.run([sys.executable, "-m", "qhc.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == code
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr

    def test_an_unwritable_report_shows_no_traceback(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "qhc.cli", "verify", "--suite", "twins", "--a-max", "1",
             "--b-max", "1", "--trials", "1", "--out", str(tmp_path / "missing" / "r.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("qhc verify: FileNotFoundError: ")
        assert len(proc.stderr.splitlines()) == 1

    def test_malformed_literal_exits_2_without_a_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qhc.cli", "izergin", "--x", "1,a", "--q", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1] == (
            "qhc izergin: error: argument --x: malformed rational literal: 'a'")
