#!/usr/bin/env python3
"""Benchmark of ``qhc verify`` sweeps, run in-process through ``qhc.cli.main``.

    python3 perfbench/run.py --workload residues-series --seed 42 --seconds 35 --trace 0

Run from the root of a source checkout; ``qhc`` is imported from ``src/``.
Workloads, seeds and the layer-to-metric map are in ``perfbench/spec.json``.

A pass is every ``qhc verify`` call of the workload.  With ``--trace 0`` the
benchmark runs untraced passes, the first at ``--seed`` and the others at
seeds derived from it, while another pass fits in ``--seconds`` and at least
twice.  It reports pass times as medians over passes and case-time
percentiles over the cases of all passes.  With
``--trace 1`` it runs one untraced and one traced pass, both at ``--seed``,
and reports the per-layer metrics of the traced pass and the tracing
overhead.

Timings are host-adjusted: divided by the host's slowdown measured while
they were taken (see ``hostspeed.py``).  The raw pass times and slowdowns
are in the metadata line.  ``setup_s`` is divided by the slowdown over
the first pass, which starts right after it: a probe run next to a process
start tells the slowdown too poorly.

Every case of every pass must pass.  The report digest (SHA-256 of the
reports with ``elapsed_ms`` stripped) of a traced pass must equal that of
the untraced pass, and at a seed listed under ``baseline_digests`` in
``spec.json`` it must equal the recorded one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata (Python, ``Rat`` backend, sources, host speed,
digest).  A readable summary goes to standard error.  The exit status is 0
exactly when every check held.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SPEC = json.loads((HERE / "spec.json").read_text())

SETUP_REPEATS = 15
SETUP_CODE = "import qhc.cli, qhc.verify; qhc.verify.registry()"
MIN_PASSES = 2

sys.path.insert(0, str(HERE))
from hostspeed import HostSampler  # noqa: E402
from tracer import Tracer, instrument, layer_metrics  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def import_qhc():
    """Import ``qhc`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "qhc" / "cli.py").is_file():
        raise BenchError(f"no qhc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qhc.cli
    import qhc.verify

    if Path(qhc.cli.__file__).resolve().parent != (SRC / "qhc").resolve():
        raise BenchError(f"qhc imported from {qhc.cli.__file__}, not {SRC}")
    return qhc.cli, qhc.verify


def measure_setup():
    """Median raw seconds from a fresh interpreter to a built registry."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.decode(errors='replace')}")
    return statistics.median(times)


def run_metadata():
    from qhc.exactnum import Rat

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "qhc").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "rat_backend": Rat.__module__,
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
    }


@contextmanager
def timed_registry(verify, spans, tracer=None):
    """Record wall span and CPU time of every descriptor ``run`` of ``run_suite``."""
    original = verify.registry

    def timed(desc):
        run = desc.run
        if tracer is not None:
            run = tracer.wrap(f"verify.identity.{desc.identity_id}", run)

        def timed_run(shape, cfg, seed):
            t0, c0 = time.perf_counter_ns(), time.process_time_ns()
            try:
                return run(shape, cfg, seed)
            finally:
                spans.append((t0, time.perf_counter_ns(), time.process_time_ns() - c0))

        return dataclasses.replace(desc, run=timed_run)

    verify.registry = lambda: [timed(d) for d in original()]
    try:
        yield
    finally:
        verify.registry = original


def expected_cases(verify, workload):
    """Cases each ``qhc verify`` call of the workload must report, by suite."""
    return {
        v["suite"]: sum(len(d.shapes(v["a_max"], v["b_max"])) * workload["trials"]
                        for d in verify.registry() if d.suite == v["suite"])
        for v in workload["verify"]
    }


def workload_identity_ids(verify):
    """Every identity that some workload runs, sorted."""
    suites = {v["suite"] for w in SPEC["workloads"].values() for v in w["verify"]}
    return sorted(d.identity_id for d in verify.registry() if d.suite in suites)


def report_digest(reports):
    """SHA-256 of the reports with every ``elapsed_ms`` stripped."""
    h = hashlib.sha256()
    for report in reports:
        cases = [{k: v for k, v in c.items() if k != "elapsed_ms"} for c in report["cases"]]
        body = dict(report, cases=cases)
        h.update(json.dumps(body, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


@dataclasses.dataclass
class Pass:
    wall_s: float        # raw
    slowdown: float      # host slowdown over the pass
    sweep_s: float       # host-adjusted wall time
    cpu_s: float         # host-adjusted process CPU time
    case_ms: list        # host-adjusted CPU time of each case
    attempted: int
    passed: int
    digest: str | None   # None unless every case of the pass passed


def run_pass(cli, verify, workload, seed, expected, tracer=None):
    """One timed pass over every ``qhc verify`` call of the workload."""
    WORK.mkdir(exist_ok=True)
    outs = [WORK / f"report-{os.getpid()}-{i}.json" for i in range(len(workload["verify"]))]
    spans, codes = [], []
    with timed_registry(verify, spans, tracer), HostSampler() as host:
        t0, c0 = time.perf_counter_ns(), time.process_time_ns()
        for v, out in zip(workload["verify"], outs):
            argv = ["verify", "--suite", v["suite"], "--a-max", str(v["a_max"]),
                    "--b-max", str(v["b_max"]), "--trials", str(workload["trials"]),
                    "--seed", str(seed), "--out", str(out)]
            try:
                with redirect_stdout(sys.stderr):
                    codes.append(cli.main(argv))
            except Exception:
                traceback.print_exc()
                break
        t1, c1 = time.perf_counter_ns(), time.process_time_ns()

    reports = [json.loads(out.read_text()) for out in outs[:len(codes)]]
    for out in outs:
        out.unlink(missing_ok=True)
    attempted = sum(expected.values())
    passed, clean = 0, len(codes) == len(outs)
    for report, code in zip(reports, codes):
        cases, summary, want = report["cases"], report["summary"], expected[report["suite"]]
        good = sum(1 for c in cases if c["equal"] and c["error"] is None)
        passed += min(good, want)
        if not (code == 0 and summary["pass"] == good == len(cases) == want):
            clean = False
            print(f"suite {report['suite']}: exit {code}, {summary} over "
                  f"{len(cases)} cases, {want} expected", file=sys.stderr)
    if len(codes) < len(outs):  # a pass that raises counts all of its cases as failed
        passed = 0
    return Pass(
        wall_s=(t1 - t0) / 1e9,
        slowdown=host.slowdown(),
        sweep_s=host.adjust(t0, t1),
        cpu_s=host.adjust_cpu(t0, t1, c1 - c0),
        case_ms=[host.adjust_cpu(s, e, cpu) * 1e3 for s, e, cpu in spans],
        attempted=attempted,
        passed=passed,
        digest=report_digest(reports) if clean else None,
    )


def pass_seed(seed, index):
    """Workload seed of pass ``index``: the run's own seed first, then derived ones.

    Passes on distinct inputs average out how much one seed's sampled points
    cost, and a cache gains little from one pass to the next.
    """
    return seed if index == 0 else zlib.crc32(f"{seed}|pass|{index}".encode())


def hd_quantile(values, q, steps=8):
    """Harrell-Davis estimate of quantile ``q``: a Beta-weighted mean of all order statistics.

    Case times fall in clusters (one per shape), and a percentile that lands
    between two clusters jumps from one to the other on small timing noise.
    Weighting neighbouring order statistics smooths that jump.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_density = []
    for i in range(n * steps):
        t = (i + 0.5) / (n * steps)
        log_density.append((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    peak = max(log_density)
    density = [math.exp(d - peak) for d in log_density]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(passes, setup_s):
    """End-to-end metrics: pass times as medians over passes, case times pooled."""
    med = statistics.median
    attempted = sum(p.attempted for p in passes)
    case_ms = [ms for p in passes for ms in p.case_ms]
    return {
        "sweep_s": (med(p.sweep_s for p in passes), "s"),
        "cpu_s": (med(p.cpu_s for p in passes), "s"),
        "case_ms_p50": (hd_quantile(case_ms, 0.5), "ms"),
        "case_ms_p90": (hd_quantile(case_ms, 0.9), "ms"),
        "pass_ratio": (sum(p.passed for p in passes) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SPEC["workloads"]), required=True)
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = SPEC["workloads"][args.workload]

    try:
        cli, verify = import_qhc()
        setup_s = None if args.trace else measure_setup()
    except (BenchError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    expected = expected_cases(verify, workload)

    if args.trace:
        untraced = run_pass(cli, verify, workload, args.seed, expected)
        tracer = Tracer()
        with instrument(tracer):
            traced = run_pass(cli, verify, workload, args.seed, expected, tracer)
        passes = [untraced, traced]
        overhead = traced.sweep_s / untraced.sweep_s - 1
        metrics = layer_metrics(tracer, workload_identity_ids(verify), overhead, traced.slowdown)
    else:
        passes = []
        start = time.perf_counter()
        # Stop before a pass that would end after --seconds, once MIN_PASSES ran.
        while len(passes) < MIN_PASSES or (
                (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= args.seconds):
            seed = pass_seed(args.seed, len(passes))
            passes.append(run_pass(cli, verify, workload, seed, expected))
        # The first pass starts right after set-up; its slowdown is the host's then.
        metrics = end_to_end(passes, setup_s / passes[0].slowdown)

    attempted = sum(p.attempted for p in passes)
    failed = attempted - sum(p.passed for p in passes)
    digest = passes[0].digest
    baseline = SPEC["baseline_digests"].get(args.workload, {}).get(str(args.seed))
    digest_ok = (all(p.digest is not None for p in passes)
                 and (not args.trace or passes[1].digest == digest)
                 and baseline in (None, digest))
    correct = failed == 0 and digest_ok
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        **run_metadata(),
        "report_digest": digest, "baseline_digest": baseline, "digest_ok": digest_ok,
        "passes": len(passes), "cases_per_pass": passes[0].attempted,
        "failed_ratio": failed / attempted,
        "raw_setup_s": setup_s,
        "raw_wall_s": [p.wall_s for p in passes],
        "host_slowdown": [p.slowdown for p in passes],
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:>44} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
