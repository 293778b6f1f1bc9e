"""Tests of the benchmark's own tracer and host-speed adjustment.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import hostspeed  # noqa: E402

import qhc.cli  # noqa: E402
import qhc.exactnum  # noqa: E402
import qhc.highest  # noqa: E402
import qhc.izergin  # noqa: E402
import qhc.verify  # noqa: E402
import run  # noqa: E402
from qhc.exactnum import LaurentSeries, Rat, eps  # noqa: E402
from qhc.izergin import Kernel  # noqa: E402
from tracer import Tracer, instrument, layer_metric_names, layer_metrics  # noqa: E402

RATIONAL = {"verify": [{"suite": "symmetries", "a_max": 1, "b_max": 1},
                       {"suite": "scalar", "a_max": 1, "b_max": 1}], "trials": 1}
SERIES = {"verify": [{"suite": "residues", "a_max": 1, "b_max": 1}], "trials": 1}


def _clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def _traced_pass(workload):
    expected = run.expected_cases(qhc.verify, workload)
    untraced = run.run_pass(qhc.cli, qhc.verify, workload, 7, expected)
    tracer = Tracer()
    with instrument(tracer):
        traced = run.run_pass(qhc.cli, qhc.verify, workload, 7, expected, tracer)
    assert untraced.passed == traced.passed == untraced.attempted
    assert traced.digest == untraced.digest is not None
    ids = [d.identity_id for d in qhc.verify.registry()]
    return {k: v for k, (v, _) in layer_metrics(tracer, ids, 0.0).items()}, traced


def test_self_time_subtracts_nested_spans():
    t = Tracer(clock=_clock([0, 10, 25, 40, 45, 50, 70, 100]))
    with t.span("outer"):          # 0 .. 100
        with t.span("inner"):      # 10 .. 25
            pass
        with t.span("inner"):      # 40 .. 70
            with t.span("leaf"):   # 45 .. 50
                pass
    assert t.total_ns == {"outer": 100, "inner": 45, "leaf": 5}
    assert t.self_ns == {"outer": 55, "inner": 40, "leaf": 5}
    assert t.calls == {"outer": 1, "inner": 2, "leaf": 1}


def test_self_time_of_recursive_span_counts_each_instant_once():
    t = Tracer(clock=_clock([0, 20, 30, 100]))
    with t.span("take_limit"):
        with t.span("take_limit"):
            pass
    assert t.self_ns["take_limit"] == 100
    assert t.total_ns["take_limit"] == 110


def test_generator_span_excludes_consumer_time():
    t = Tracer(clock=_clock([0, 1, 3, 10, 14, 20, 21, 50]))
    gen = t.wrap_generator("partitions", lambda: iter("ab"))
    with t.span("hc"):                 # 0 .. 50
        for _ in gen():                # next: 1..3, 10..14, 20..21
            pass
    assert t.calls["partitions"] == 1
    assert t.sums["partitions.yielded"] == 2
    assert t.self_ns["partitions"] == 2 + 4 + 1
    assert t.self_ns["hc"] == 50 - 7


def test_unique_ratio_skips_unhashable_series_arguments():
    tracer = Tracer()
    kern = Kernel(Rat(2))
    xs, ys = (Rat(3), Rat(5)), (Rat(7), Rat(11))
    with instrument(tracer):
        qhc.izergin.izergin(kern, xs, ys)
        qhc.izergin.izergin(kern, list(xs), ys)
        qhc.izergin.izergin(kern, (Rat(3), Rat(4)), ys)
        qhc.izergin.izergin(kern, (Rat(3) + eps(), Rat(5)), ys)
        qhc.highest.hc(kern, "l", (Rat(3),), (Rat(5),), (), ())
        qhc.highest.hc(kern, "l", (Rat(3),), (Rat(5),), (), (), "ws")
    m = {k: v for k, (v, _) in layer_metrics(tracer, [], 0.0).items()}
    # Each hc call above makes the izergin calls K((),()), K((5),(3)), K((),()).
    assert m["izergin.izergin.calls"] == 4 + 6
    assert m["izergin.izergin.series_calls"] == 1
    assert m["izergin.izergin.unique_ratio"] == 4 / 9
    assert m["highest.hc.calls"] == 2
    assert m["highest.hc.unique_ratio"] == 1 / 2


def test_counts_reach_names_imported_into_other_modules():
    m, traced = _traced_pass(RATIONAL)
    assert m["highest.hc.calls"] > 0            # bound in verify and scalar
    assert m["scalar.symbolic.calls"] > 0       # bound in verify
    assert m["scalar.w_part.calls"] > 0         # bound in verify
    assert m["scalar.monomials"] > 0
    assert m["params.sample_generic.calls"] == traced.attempted  # bound in verify
    assert m["partitions.calls"] > 0            # bound in highest and izergin
    assert m["izergin.kernel.calls"] > 0
    assert m["verify.identity.Z_SCAL.total_s"] > 0
    assert m["verify.driver.self_s"] > 0
    assert m["cli.report_bytes"] > 0 and m["cli.report_write_s"] > 0
    # bypass prediction: no series work on rational workloads
    for name in ("series_mul", "series_add", "series_invert", "take_limit"):
        assert m[f"exactnum.{name}.calls"] == 0


def test_series_counters_on_residues():
    m, _ = _traced_pass(SERIES)
    assert m["exactnum.series_mul.calls"] > 0
    assert m["exactnum.series_invert.calls"] > 0
    assert m["exactnum.take_limit.calls"] > 0    # bound in highest
    assert m["exactnum.series_width_max"] > 0
    assert m["izergin.izergin.series_calls"] > 0
    assert m["scalar.symbolic.calls"] == 0


def test_every_patch_is_undone():
    series = qhc.exactnum.LaurentSeries
    watched = [(qhc.exactnum, "take_limit"), (qhc.highest, "take_limit"),
               (qhc.highest, "izergin_side"), (qhc.verify, "hc"),
               (qhc.verify, "sample_generic"), (qhc.verify, "run_suite"),
               (qhc.cli, "run_suite"), (qhc.cli, "json"), (qhc.izergin, "izergin"),
               (series, "__mul__"), (series, "__rmul__"), (series, "__radd__"),
               (series, "coeff"), (Kernel, "fprod")]
    before = {(id(o), n): vars(o)[n] for o, n in watched}
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with instrument(tracer) as patches:
            assert patches.undo
            assert series.__rmul__ is series.__mul__ is not before[(id(series), "__mul__")]
            raise RuntimeError("fault inside the traced block")
    assert {(id(o), n): vars(o)[n] for o, n in watched} == before
    assert "open" not in vars(qhc.cli)
    assert LaurentSeries.__rmul__ is LaurentSeries.__mul__

    calls = dict(tracer.calls)
    workload = {"verify": [{"suite": "twins", "a_max": 1, "b_max": 1}], "trials": 1}
    p = run.run_pass(qhc.cli, qhc.verify, workload, 7, run.expected_cases(qhc.verify, workload))
    assert p.passed == p.attempted > 0
    assert dict(tracer.calls) == calls


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ids = run.workload_identity_ids(qhc.verify)
    assert [m["name"] for m in spec["per_layer"]] == layer_metric_names(ids)
    p = run.Pass(1.0, 1.0, 1.0, 1.0, [1.0, 2.0, 3.0], 3, 3, "d")
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end([p], 0.1))
    assert [w["name"] for w in spec["workloads"]] == list(run.SPEC["workloads"])


def test_host_adjustment_subtracts_probes_and_divides_by_slowdown():
    host = hostspeed.HostSampler()
    ref = hostspeed.REF_NS
    host.at = [1_000_000_000, 1_100_000_000, 5_000_000_000]
    host.took = [2 * ref, 2 * ref, 4 * ref]
    host.took_cpu = [ref, ref, ref]
    # The first two samples lie inside the span: their time is removed and
    # their mean is the slowdown; the third is too far away to count.
    start, end = 950_000_000, 1_200_000_000
    assert host.adjust(start, end) == pytest.approx((end - start - 4 * ref) / 1e9 / 2)
    assert host.adjust_cpu(start, end, 10 * ref) == pytest.approx(8 * ref / 1e9)
    assert host.slowdown() == pytest.approx(8 / 3)


def test_host_sampler_samples_and_restores_the_alarm_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSampler() as host:
        end = time.perf_counter() + 3.5 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(host.took) >= 2 and all(t > 0 for t in host.took)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
