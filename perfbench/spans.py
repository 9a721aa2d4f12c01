"""Outside-in tracing of paclab's layers.

`install` wraps public functions and methods of the `paclab` package from
outside: each call records a span (name, start, end, parent) in flat lists
kept in memory until the run ends. Modules bind functions with
`from .x import y`, so a wrapped function is rebound in every paclab
module that holds it, not only where it is defined; methods are wrapped
on their class. `layer_metrics` turns the spans into the per-layer
metrics the benchmark reports. A layer's self time is its spans'
durations minus the durations of their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _select_key(engine, sample):
    atoms = sample.atoms if hasattr(sample, "atoms") else tuple(sample)
    return tuple(sorted(atoms))


@dataclass(frozen=True)
class Probe:
    module: str
    attr: str                          # "function" or "Class.method"
    span: str
    key: Optional[Callable] = None     # distinct-argument key, for distinct_ratio
    tally: Optional[tuple] = None      # (counter name, fn(args, result) -> amount)


PROBES = (
    Probe("paclab.cli", "main", "cli"),
    Probe("paclab.dominance", "synthesize", "dominance.synthesize"),
    Probe("paclab.nfl", "estimate_sample_complexity", "nfl.search"),
    Probe("paclab.nfl", "nfl_exact", "nfl.exact"),
    Probe("paclab.nfl", "symmetrized_lower_bound", "nfl.bound"),
    Probe("paclab.nfl", "clopper_pearson_upper", "nfl.cp"),
    Probe("paclab.nfl", "max_certifiable_failures", "nfl.cp"),
    Probe("paclab.families", "anchored_family", "families.build",
          tally=("families.build.members", lambda args, result: len(result))),
    Probe("paclab.learners", "ScheffeEngine.__init__", "learners.engine_init",
          tally=("learners.comparison_sets", lambda args, result: len(args[0].sets))),
    Probe("paclab.learners", "ScheffeEngine.select", "learners.select", key=_select_key),
    Probe("paclab.losses", "task_loss", "losses.task_loss",
          key=lambda cls, out, target, *a, **k: (out, target)),
    Probe("paclab.losses", "opt_loss", "losses.opt_loss",
          key=lambda cls, target, *a, **k: target),
    Probe("paclab.dist", "tv", "dist.tv"),
    Probe("paclab.dist", "draw", "dist.draw"),
    Probe("paclab.dist", "sequence_prob", "dist.sequence_prob"),
    Probe("paclab.dist", "SparseDist.__init__", "dist.construct"),
    Probe("paclab.dist", "delta", "dist.construct"),
    Probe("paclab.dist", "uniform", "dist.construct"),
    Probe("paclab.dist", "mixture", "dist.construct"),
    Probe("paclab.rng", "RngStream.child", "rng.child"),
)

# Reported fields per span name: calls, self_s, distinct_ratio (needs a key),
# and for select the p50/p99 of its call durations in microseconds.
REPORTED = {
    "learners.select": ("calls", "self_s", "p50_us", "p99_us", "distinct_ratio"),
    "learners.engine_init": ("calls", "self_s"),
    "losses.task_loss": ("calls", "self_s", "distinct_ratio"),
    "losses.opt_loss": ("calls", "self_s", "distinct_ratio"),
    "dist.tv": ("calls", "self_s"),
    "dist.construct": ("calls", "self_s"),
    "families.build": ("calls", "self_s"),
    "dist.draw": ("calls", "self_s"),
    "nfl.cp": ("calls", "self_s"),
    "dist.sequence_prob": ("calls", "self_s"),
    "nfl.bound": ("self_s",),
    "nfl.exact": ("self_s",),
    "nfl.search": ("self_s",),
    "dominance.synthesize": ("self_s",),
    "rng.child": ("calls",),
    "cli": ("self_s",),
}
TALLIES = ("learners.comparison_sets", "families.build.members")
OVERHEAD = "trace.overhead_s"

UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us",
         "distinct_ratio": "ratio"}


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"{span}.{field}", UNITS[field])
           for span, fields in REPORTED.items() for field in fields]
    out += [(name, "count") for name in TALLIES]
    out.append((OVERHEAD, "s"))
    return out


class Tracer:
    """Span store for one single-threaded run."""

    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.keys: dict = {}
        self.tallies: dict = {name: 0 for name in TALLIES}
        self._stack = [-1]

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)
        name, key, tally = probe.span, probe.key, probe.tally
        keys = self.keys.setdefault(name, set()) if key else None
        tallies = self.tallies
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(key(*args, **kwargs))
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = start
                stack.pop()
            if tally is not None:
                tallies[tally[0]] += tally[1](args, result)
            return result

        return traced

    def self_times(self) -> list:
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        out = list(durations)
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= durations[i]
        return out


def install(tracer: Tracer) -> None:
    """Wrap every probe's target; call after `import paclab.cli`."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "paclab" or n.startswith("paclab.")]
    for probe in PROBES:
        owner = importlib.import_module(probe.module)
        if "." in probe.attr:
            cls_name, method = probe.attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(probe, cls.__dict__[method]))
            continue
        original = getattr(owner, probe.attr)
        wrapped = tracer.wrap(probe, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run (all but the overhead, which
    needs the matching untraced run). Layers that did no work read 0."""
    calls: dict = {}
    self_s: dict = {}
    select_us = []
    for name, own, start, end in zip(tracer.names, tracer.self_times(),
                                     tracer.starts, tracer.ends):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if name == "learners.select":
            select_us.append((end - start) * 1e6)
    out = {}
    for span, fields in REPORTED.items():
        n = calls.get(span, 0)
        for field in fields:
            if field == "calls":
                value = n
            elif field == "self_s":
                value = self_s.get(span, 0.0)
            elif field == "distinct_ratio":
                value = len(tracer.keys.get(span, ())) / n if n else 0.0
            else:
                value = _percentile(select_us, 50 if field == "p50_us" else 99)
            out[f"{span}.{field}"] = value
    out.update(tracer.tallies)
    return out


def _percentile(values: list, pct: int) -> float:
    """The pct-th percentile, or 0.0 unless at least ten values lie beyond it."""
    if len(values) - math.ceil(len(values) * pct / 100) < 10:
        return 0.0
    return statistics.quantiles(values, n=100)[pct - 1]

