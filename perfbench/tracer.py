"""Outside-in tracer for qhc: spans and counts around each module's public
functions, installed by patching from the benchmark's side so that no file
under ``src/`` changes.

A span records the wall time of one call; a layer's self time is its spans'
time minus the time of the spans nested inside them.  Names bound with
``from ... import`` are patched in every ``qhc`` module that holds them, and
``LaurentSeries.__rmul__``/``__radd__`` (aliases of ``__mul__``/``__add__``)
are re-pointed with them.  Every patch is undone when ``instrument`` exits.
"""

from __future__ import annotations

import builtins
import inspect
import json
import re
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps

__all__ = ["Tracer", "instrument", "layer_metrics", "layer_metric_names"]


class Tracer:
    """Span, count and extreme-value store for one traced pass."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.calls = Counter()      # span name -> calls
        self.total_ns = Counter()   # span name -> inclusive time
        self.self_ns = Counter()    # span name -> time outside child spans
        self.sums = Counter()       # amounts: rows yielded, bytes written, ...
        self.maxima = {}
        self.minima = {}
        self.unique = {}            # keyed span name -> set of argument keys
        self.rational_calls = Counter()
        self.series_calls = Counter()
        self._stack = []            # open frames: [start_ns, child_ns]

    # -- spans ------------------------------------------------------------

    def _push(self):
        frame = [self.clock(), 0]
        self._stack.append(frame)
        return frame

    def _pop(self, name, frame):
        dur = self.clock() - frame[0]
        self._stack.pop()
        self.total_ns[name] += dur
        self.self_ns[name] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def span(self, name):
        self.calls[name] += 1
        frame = self._push()
        try:
            yield
        finally:
            self._pop(name, frame)

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` with one span per call; hooks see arguments and result."""

        @wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            if before is not None:
                before(args, kwargs)
            frame = self._push()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(name, frame)
            if after is not None:
                after(result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """``fn`` returning a generator; only the time inside ``next`` is a span."""

        @wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            return self._iterate(name, fn(*args, **kwargs))

        return traced

    def _iterate(self, name, gen):
        while True:
            frame = self._push()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._pop(name, frame)
            self.sums[name + ".yielded"] += 1
            yield item

    def count(self, name, fn):
        """``fn`` with its calls counted but no span."""

        @wraps(fn)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- observations -----------------------------------------------------

    def note_max(self, name, value):
        if name not in self.maxima or value > self.maxima[name]:
            self.maxima[name] = value

    def note_min(self, name, value):
        if name not in self.minima or value < self.minima[name]:
            self.minima[name] = value

    def note_key(self, name, key):
        """Record a call's argument key; ``None`` marks series arguments."""
        if key is None:
            self.series_calls[name] += 1
            return
        self.rational_calls[name] += 1
        self.unique.setdefault(name, set()).add(key)

    def unique_ratio(self, name):
        n = self.rational_calls[name]
        return len(self.unique.get(name, ())) / n if n else 0.0


class _Series(Exception):
    pass


def _freeze(value, series_type):
    if isinstance(value, series_type):
        raise _Series
    if isinstance(value, (tuple, list)):
        return tuple(_freeze(v, series_type) for v in value)
    return value


def argument_key(args, series_type):
    """Hashable key of a call's arguments, or ``None`` if any is a series."""
    try:
        return _freeze(args, series_type)
    except _Series:
        return None


class _Patches:
    """Attribute replacements, undone in reverse order."""

    _MISSING = object()

    def __init__(self):
        self.undo = []

    def set(self, owner, name, value):
        self.undo.append((owner, name, vars(owner).get(name, self._MISSING)))
        setattr(owner, name, value)

    def everywhere(self, original, replacement):
        """Rebind every ``qhc`` module global that is ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qhc" and not mod_name.startswith("qhc."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def methods(self, cls, original, replacement):
        for attr, value in list(vars(cls).items()):
            if value is original:
                self.set(cls, attr, replacement)

    def restore(self):
        while self.undo:
            owner, name, old = self.undo.pop()
            if old is self._MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)


_ELAPSED = re.compile(r'("elapsed_ms": )\d+')


class _TimedFile:
    """The report file ``qhc.cli`` writes, with its writes and close timed."""

    def __init__(self, tracer, fh):
        self._tracer, self._fh = tracer, fh

    def __enter__(self):
        return self

    def write(self, text):
        # elapsed_ms values vary from run to run; count each as one digit so
        # that the size repeats exactly at a given seed.
        self._tracer.sums["cli.report_bytes"] += len(_ELAPSED.sub(r"\g<1>0", text).encode())
        with self._tracer.span("cli.report_write"):
            return self._fh.write(text)

    def __exit__(self, *exc):
        with self._tracer.span("cli.report_write"):
            self._fh.close()
        return False


class _TimedJson:
    """Stands in for the ``json`` module inside ``qhc.cli``."""

    def __init__(self, tracer):
        self._tracer = tracer

    def dumps(self, *args, **kwargs):
        with self._tracer.span("cli.report_write"):
            return json.dumps(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


@contextmanager
def instrument(tracer):
    """Patch every traced qhc function for the duration of the block."""
    from qhc import cli, exactnum, highest, izergin, params, partitions, scalar, verify

    series = exactnum.LaurentSeries
    patches = _Patches()

    def width(result):
        if isinstance(result, series):
            tracer.note_max("exactnum.series_width", len(result.coeffs))

    def slack(value, k):
        if isinstance(value, series) and value.order != float("inf"):
            tracer.note_min("exactnum.limit_slack", int(value.order) - k)

    def keyed(name, fn):
        # Bind defaults so that hc(..., "ws") and hc(...) share one key.
        sig = inspect.signature(fn)

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.note_key(name, argument_key(bound.args, series))

        return before

    def trace(name, fn, **hooks):
        patches.everywhere(fn, tracer.wrap(name, fn, **hooks))

    try:
        for attr, name in (("__mul__", "exactnum.series_mul"),
                           ("__add__", "exactnum.series_add"),
                           ("invert", "exactnum.series_invert")):
            original = vars(series)[attr]
            patches.methods(series, original, tracer.wrap(name, original, after=width))
        coeff = series.coeff

        @wraps(coeff)
        def observed_coeff(self, k):
            slack(self, k)
            return coeff(self, k)

        patches.set(series, "coeff", observed_coeff)
        trace("exactnum.take_limit", exactnum.take_limit,
              before=lambda args, kwargs: slack(args[0], 0))

        trace("izergin.izergin", izergin.izergin,
              before=keyed("izergin.izergin", izergin.izergin))
        trace("izergin.det", izergin.det,
              before=lambda args, kwargs: tracer.note_max("izergin.det.n", len(args[0])))
        for attr in ("f", "g", "fprod"):
            original = vars(izergin.Kernel)[attr]
            patches.methods(izergin.Kernel, original, tracer.wrap("izergin.kernel", original))

        trace("highest.hc", highest.hc, before=keyed("highest.hc", highest.hc))
        for attr, value in list(vars(highest).items()):
            if attr == "hc_infinity_valuation" or (
                    attr.startswith("hc_") and attr.endswith("_pair")):
                trace("highest.pair", value)

        patches.everywhere(partitions.enumerate_partitions, tracer.wrap_generator(
            "partitions", partitions.enumerate_partitions))

        def monomials(poly):
            tracer.sums["scalar.monomials"] += len(poly)

        trace("scalar.symbolic", scalar.scalar_product_symbolic, after=monomials)
        trace("scalar.w_part", scalar.w_part)

        trace("params.sample_generic", params.sample_generic)
        patches.everywhere(params.is_generic,
                           tracer.count("params.is_generic", params.is_generic))

        trace("verify.driver", verify.run_suite)

        patches.set(cli, "json", _TimedJson(tracer))

        def timed_open(*args, **kwargs):
            with tracer.span("cli.report_write"):
                fh = builtins.open(*args, **kwargs)
            return _TimedFile(tracer, fh)

        patches.set(cli, "open", timed_open)
        yield patches
    finally:
        patches.restore()


def layer_metric_names(identity_ids):
    """Names of every per-layer metric, in output order."""
    return list(layer_metrics(Tracer(), identity_ids, overhead_ratio=0.0))


def layer_metrics(tracer, identity_ids, overhead_ratio, slowdown=1.0):
    """Per-layer metrics as ``{name: (value, unit)}``.

    ``identity_ids`` lists every identity any workload runs, so that each
    traced run reports the same names (0 for identities it does not run).
    Times are divided by ``slowdown``, the host's slowdown over the pass.
    """
    t = tracer

    def seconds(ns):
        return ns / 1e9 / slowdown

    def timed(name):
        return (t.calls[name], "count"), (seconds(t.self_ns[name]), "s")

    out = {}
    for op in ("series_mul", "series_add", "series_invert"):
        out[f"exactnum.{op}.calls"], out[f"exactnum.{op}.self_s"] = timed(f"exactnum.{op}")
    out["exactnum.take_limit.calls"] = (t.calls["exactnum.take_limit"], "count")
    out["exactnum.series_width_max"] = (t.maxima.get("exactnum.series_width", 0), "coeffs")
    # 0 when no truncated series reached take_limit or coeff.
    out["exactnum.limit_slack_min"] = (t.minima.get("exactnum.limit_slack", 0), "powers")

    out["izergin.izergin.calls"], out["izergin.izergin.self_s"] = timed("izergin.izergin")
    out["izergin.izergin.unique_ratio"] = (t.unique_ratio("izergin.izergin"), "ratio")
    out["izergin.izergin.series_calls"] = (t.series_calls["izergin.izergin"], "count")
    out["izergin.det.calls"], out["izergin.det.self_s"] = timed("izergin.det")
    out["izergin.det.n_max"] = (t.maxima.get("izergin.det.n", 0), "rows")
    out["izergin.kernel.calls"], out["izergin.kernel.self_s"] = timed("izergin.kernel")

    out["highest.hc.calls"], out["highest.hc.self_s"] = timed("highest.hc")
    out["highest.hc.unique_ratio"] = (t.unique_ratio("highest.hc"), "ratio")
    out["highest.pair.calls"], out["highest.pair.self_s"] = timed("highest.pair")

    out["partitions.calls"], out["partitions.self_s"] = timed("partitions")
    out["partitions.yielded"] = (t.sums["partitions.yielded"], "count")

    out["scalar.symbolic.calls"], out["scalar.symbolic.self_s"] = timed("scalar.symbolic")
    out["scalar.w_part.calls"] = (t.calls["scalar.w_part"], "count")
    out["scalar.monomials"] = (t.sums["scalar.monomials"], "count")

    out["params.sample_generic.calls"], out["params.sample_generic.self_s"] = timed(
        "params.sample_generic")
    tried = t.calls["params.is_generic"]
    out["params.sample_accept_ratio"] = (
        t.calls["params.sample_generic"] / tried if tried else 0.0, "ratio")

    for ident in identity_ids:
        out[f"verify.identity.{ident}.total_s"] = (
            seconds(t.total_ns[f"verify.identity.{ident}"]), "s")
    out["verify.driver.self_s"] = (seconds(t.self_ns["verify.driver"]), "s")

    out["cli.report_write_s"] = (seconds(t.total_ns["cli.report_write"]), "s")
    out["cli.report_bytes"] = (t.sums["cli.report_bytes"], "bytes")

    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
