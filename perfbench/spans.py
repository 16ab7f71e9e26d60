"""Span tracing of eqe's layer entry points, from outside the package.

``Tracer.install`` replaces public entry points with wrappers by setting
module (and class) attributes.  eqe calls these through module
attributes, so the wrappers also see the calls the package makes to
itself; the benchmark must call through the modules too, never through
the ``eqe`` re-exports.  Each call becomes a span (name, start, end,
parent) kept in memory; ``uninstall`` restores the originals and
``write`` dumps the spans once the run is over.  A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import math
import time
from pathlib import Path

# pcf_d_scaled's frozen regime boundaries, copied so that the buckets
# stay comparable across changes to the package: Kummer near the origin,
# asymptotic series for large |z|, the integral route in between.
_KUMMER_ZMAX_POS = 3.0
_KUMMER_ZMAX_NEG = 10.0
_ASYMPTOTIC_ZMIN_POS = 14.0
PCF_BUCKETS = ("kummer", "asymptotic", "integral")
CLI_SUBCOMMANDS = ("logz", "entropy", "sample", "fit", "marginal", "pdf-grid",
                   "selfcheck")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("specfun.pcf_d_scaled.calls", "count", "lower"),
    ("specfun.pcf_d_scaled.self_s", "s", "lower"),
    *((f"specfun.pcf_d_scaled.calls.{b}", "count", "lower")
      for b in PCF_BUCKETS),
    *((f"specfun.pcf_d_scaled.us_per_call.{b}", "us", "lower")
      for b in PCF_BUCKETS),
    ("quadrature.integrate_semi_infinite.calls", "count", "lower"),
    ("quadrature.integrate_semi_infinite.self_s", "s", "lower"),
    ("quadrature.integrate_semi_infinite.evaluations", "count", "lower"),
    ("quadrature.integrate_semi_infinite.failures", "count", "lower"),
    ("core.log_norm_const.calls", "count", "lower"),
    ("core.log_norm_const.self_s", "s", "lower"),
    ("core.log_norm_const.fallbacks", "count", "lower"),
    ("core.logz_cache.hit_ratio", "1", "higher"),
    ("core.logz_cache.lookups", "count", "lower"),
    ("core.log_density.points_per_s.spherical", "1/s", "higher"),
    ("core.log_density.points_per_s.elliptical", "1/s", "higher"),
    ("sampling.inverse_cdf.draws_per_s", "1/s", "higher"),
    ("sampling.inverse_cdf.self_s", "s", "lower"),
    ("sampling.sample.self_s", "s", "lower"),
    ("sampling.build_radial_table.calls", "count", "lower"),
    ("sampling.build_radial_table.ms_per_call", "ms", "lower"),
    ("sampling.table_cache.hit_ratio", "1", "higher"),
    ("sampling.table_cache.lookups", "count", "lower"),
    ("fit.fit_moments.calls", "count", "lower"),
    ("fit.fit_moments.self_s", "s", "lower"),
    ("fit.fit_moments.failures", "count", "lower"),
    ("fit.newton_iterations.mean", "count", "lower"),
    ("fit.fit_data.self_s", "s", "lower"),
    ("condmarg.marginal_peaks.calls", "count", "lower"),
    ("condmarg.marginal_peaks.self_s", "s", "lower"),
    ("condmarg.marginal_peaks.failures", "count", "lower"),
    ("condmarg.marginal_peaks.logz_per_call", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import.scipy_s", "s", "lower"),
    *((f"cli.command_s.{c}", "s", "lower") for c in CLI_SUBCOMMANDS),
    *((f"cli.self_s.{c}", "s", "lower") for c in CLI_SUBCOMMANDS),
    ("trace.overhead_frac", "1", "lower"),
)
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


# eqe's lru caches: the log Z caches of both routes and the sampler's
# table cache.  A missing cache reads as zero lookups.
CACHES = {"logz": (("core", "_log_z_pcf"), ("core", "_log_z_quadrature")),
          "table": (("sampling", "_cached_table"),)}


def _cache_functions(group: str):
    for module, attr in CACHES[group]:
        fn = getattr(importlib.import_module(f"eqe.{module}"), attr, None)
        if hasattr(fn, "cache_info"):
            yield fn


def _cache_counts() -> dict[str, tuple[int, int]]:
    out = {}
    for group in CACHES:
        infos = [fn.cache_info() for fn in _cache_functions(group)]
        out[group] = (sum(i.hits for i in infos), sum(i.misses for i in infos))
    return out


class CacheMeter:
    """(hits, misses) of each cache group, summed across clears; clearing
    a cache resets its own counters."""

    def __init__(self):
        self._cleared = {group: (0, 0) for group in CACHES}

    def counts(self) -> dict[str, tuple[int, int]]:
        now = _cache_counts()
        return {g: (self._cleared[g][0] + now[g][0],
                    self._cleared[g][1] + now[g][1]) for g in CACHES}

    def clear(self) -> None:
        self._cleared = self.counts()
        for group in CACHES:
            for fn in _cache_functions(group):
                fn.cache_clear()


def pcf_bucket(z: float) -> str:
    """Nominal route of pcf_d_scaled for argument z."""
    if -_KUMMER_ZMAX_NEG <= z <= _KUMMER_ZMAX_POS:
        return "kummer"
    if z < -_KUMMER_ZMAX_NEG or z >= _ASYMPTOTIC_ZMIN_POS:
        return "asymptotic"
    return "integral"


def _pcf_note(args, kwargs, out):
    z = kwargs["z"] if "z" in kwargs else args[1]
    return pcf_bucket(float(z))


def _quad_note(args, kwargs, out):
    if isinstance(out, BaseException):
        return ("failed", getattr(out, "work", None) or 0)
    return ("ok", out.evaluations)


def _info_note(args, kwargs, out):
    return None if isinstance(out, BaseException) else out.fell_back


def _inverse_cdf_note(args, kwargs, out):
    u = kwargs["u"] if "u" in kwargs else args[1]
    return int(getattr(u, "size", 1))


def _log_density_note(args, kwargs, out):
    x = kwargs["x"] if "x" in kwargs else args[1]
    points = int(x.shape[0]) if getattr(x, "ndim", 1) == 2 else 1
    return (hasattr(args[0], "radial"), points)


def _fit_note(args, kwargs, out):
    """Newton iterations of a converged fit; None for a failed one; -1
    when the targets were rightly rejected as infeasible."""
    if type(out).__name__ == "InfeasibleMomentsError":
        return -1
    if isinstance(out, BaseException) or not out.converged:
        return None
    return out.iterations


def _failed_note(args, kwargs, out):
    return isinstance(out, BaseException)


class Tracer:
    """In-memory spans of traced calls, one process, one thread."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.notes: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, notes, stack = self.parents, self.notes, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            notes.append(None)
            ends.append(math.nan)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = clock()
                stack.pop()
                if note is not None:
                    notes[idx] = note(args, kwargs, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr: str, name: str, note=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, note))

    def install(self) -> None:
        from eqe import cli, condmarg, core, fit, quadrature, sampling, specfun
        self._patch(specfun, "pcf_d_scaled", "specfun.pcf_d_scaled",
                    _pcf_note)
        self._patch(quadrature, "integrate_semi_infinite",
                    "quadrature.integrate_semi_infinite", _quad_note)
        self._patch(core, "log_norm_const_info", "core.log_norm_const_info",
                    _info_note)
        self._patch(core, "log_norm_const", "core.log_norm_const")
        self._patch(core, "log_density", "core.log_density",
                    _log_density_note)
        self._patch(sampling, "build_radial_table",
                    "sampling.build_radial_table")
        self._patch(sampling.RadialCdfTable, "inverse_cdf",
                    "sampling.inverse_cdf", _inverse_cdf_note)
        self._patch(sampling, "sample", "sampling.sample")
        self._patch(fit, "fit_moments", "fit.fit_moments", _fit_note)
        self._patch(fit, "fit_data", "fit.fit_data")
        self._patch(fit, "parameter_standard_errors",
                    "fit.parameter_standard_errors")
        self._patch(condmarg, "marginal_peaks", "condmarg.marginal_peaks",
                    _failed_note)
        for sub, command in cli.main.commands.items():
            self._patch(command, "callback", f"cli.{sub}")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Duration minus child-covered time, per span.  Parents always
        precede their children in span order."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def write(self, path: Path) -> None:
        """Write the spans as gzipped CSV, times relative to the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent,note\n")
            for i, name in enumerate(self.names):
                note = self.notes[i]
                if isinstance(note, tuple):
                    note = ";".join(map(str, note))
                fh.write(f"{i},{name},{self.starts[i] - t0:.9f},"
                         f"{self.ends[i] - t0:.9f},{self.parents[i]},"
                         f"{'' if note is None else note}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cache_delta: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced phase.

    ``cache_delta`` maps "logz" and "table" to (hits, misses) observed
    over the phase.  CLI and overhead metrics are filled in by the caller.
    """
    selfs = tracer.self_times()
    names, notes = tracer.names, tracer.notes
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    m = {name: 0.0 for name, _, _ in PER_LAYER}

    by_name: dict[str, list[int]] = {}
    for i, n in enumerate(names):
        by_name.setdefault(n, []).append(i)

    def spans(name):
        return by_name.get(name, [])

    pcf = spans("specfun.pcf_d_scaled")
    m["specfun.pcf_d_scaled.calls"] = len(pcf)
    m["specfun.pcf_d_scaled.self_s"] = sum(selfs[i] for i in pcf)
    for b in PCF_BUCKETS:
        idx = [i for i in pcf if notes[i] == b]
        m[f"specfun.pcf_d_scaled.calls.{b}"] = len(idx)
        m[f"specfun.pcf_d_scaled.us_per_call.{b}"] = 1e6 * _ratio(
            sum(dur[i] for i in idx), len(idx))

    quad = spans("quadrature.integrate_semi_infinite")
    m["quadrature.integrate_semi_infinite.calls"] = len(quad)
    m["quadrature.integrate_semi_infinite.self_s"] = sum(
        selfs[i] for i in quad)
    m["quadrature.integrate_semi_infinite.evaluations"] = sum(
        notes[i][1] for i in quad)
    m["quadrature.integrate_semi_infinite.failures"] = sum(
        notes[i][0] == "failed" for i in quad)

    info = spans("core.log_norm_const_info")
    m["core.log_norm_const.calls"] = len(info)
    m["core.log_norm_const.self_s"] = sum(
        selfs[i] for i in info + spans("core.log_norm_const"))
    m["core.log_norm_const.fallbacks"] = sum(notes[i] is True for i in info)
    hits, misses = cache_delta["logz"]
    m["core.logz_cache.hit_ratio"] = _ratio(hits, hits + misses)
    m["core.logz_cache.lookups"] = hits + misses
    for kind, elliptical in (("spherical", False), ("elliptical", True)):
        idx = [i for i in spans("core.log_density")
               if notes[i] is not None and notes[i][0] == elliptical]
        m[f"core.log_density.points_per_s.{kind}"] = _ratio(
            sum(notes[i][1] for i in idx), sum(dur[i] for i in idx))

    inv = spans("sampling.inverse_cdf")
    m["sampling.inverse_cdf.draws_per_s"] = _ratio(
        sum(notes[i] for i in inv), sum(dur[i] for i in inv))
    m["sampling.inverse_cdf.self_s"] = sum(selfs[i] for i in inv)
    m["sampling.sample.self_s"] = sum(
        selfs[i] for i in spans("sampling.sample"))
    build = spans("sampling.build_radial_table")
    m["sampling.build_radial_table.calls"] = len(build)
    m["sampling.build_radial_table.ms_per_call"] = 1e3 * _ratio(
        sum(dur[i] for i in build), len(build))
    hits, misses = cache_delta["table"]
    m["sampling.table_cache.hit_ratio"] = _ratio(hits, hits + misses)
    m["sampling.table_cache.lookups"] = hits + misses

    fits = spans("fit.fit_moments")
    m["fit.fit_moments.calls"] = len(fits)
    m["fit.fit_moments.self_s"] = sum(selfs[i] for i in fits)
    iters = [notes[i] for i in fits if notes[i] is not None and notes[i] >= 0]
    m["fit.fit_moments.failures"] = sum(notes[i] is None for i in fits)
    m["fit.newton_iterations.mean"] = _ratio(sum(iters), len(iters))
    m["fit.fit_data.self_s"] = sum(selfs[i] for i in spans("fit.fit_data"))

    peaks = spans("condmarg.marginal_peaks")
    m["condmarg.marginal_peaks.calls"] = len(peaks)
    m["condmarg.marginal_peaks.self_s"] = sum(selfs[i] for i in peaks)
    m["condmarg.marginal_peaks.failures"] = sum(notes[i] for i in peaks)
    under = [False] * len(names)
    for i, p in enumerate(tracer.parents):
        if p >= 0:
            under[i] = under[p] or names[p] == "condmarg.marginal_peaks"
    m["condmarg.marginal_peaks.logz_per_call"] = _ratio(
        sum(under[i] for i in info), len(peaks))

    # a command's child spans are all library calls, so its self time is
    # the time spent in parsing, formatting and I/O
    for sub in CLI_SUBCOMMANDS:
        cmd = spans(f"cli.{sub}")
        m[f"cli.command_s.{sub}"] = _ratio(sum(dur[i] for i in cmd),
                                           len(cmd))
        m[f"cli.self_s.{sub}"] = _ratio(sum(selfs[i] for i in cmd), len(cmd))
    return m
