"""The benchmark's tracing probes (perfbench/spans.py) resolve against the
current paclab, so a deletion that would crash a traced benchmark run
fails here instead."""

import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import paclab as pl

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module


spans = load_spans()


def probe(span):
    return next(p for p in spans.PROBES if p.span == span)


@pytest.mark.parametrize("target", spans.PROBES, ids=lambda p: f"{p.module}:{p.attr}")
def test_probe_target_resolves(target):
    # the same lookups spans.install makes
    owner = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, method = target.attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__[method])
    else:
        assert callable(getattr(owner, target.attr))


def test_engine_tally_and_select_key_read_the_current_engine():
    engine = pl.ScheffeEngine([pl.delta(0), pl.uniform([0, 1])])
    assert hasattr(pl.ScheffeEngine, "sets")
    count_sets = probe("learners.engine_init").tally[1]
    assert count_sets((engine, engine.members), None) == len(engine.sets) == 2
    sample = pl.draw(pl.uniform([0, 1]), 4, pl.RngStream(3, 0))
    assert probe("learners.select").key(engine, sample) == tuple(sorted(sample))


def test_engine_tally_reads_the_sets_the_engine_has_not_enumerated():
    # an engine enumerates its sets at its first full pass, so on the exact
    # workload's 220-member table (whose learner builds no engine: it
    # selects by the support rule) they are enumerated when the tally reads them
    fam = pl.nfl_distribution_instance(Fraction(1, 2), 3).family
    assert fam.window is not None
    engine = pl.ScheffeEngine(fam.mass_table())
    assert "_incidence" not in engine.__dict__
    assert probe("learners.engine_init").tally[1]((engine, fam.mass_table()), None) == 298


def test_the_cp_probe_counts_every_call_of_the_memoised_endpoint():
    # the endpoint is an lru_cache; the probe wraps it, so a memo hit is a call
    target = pl.nfl.clopper_pearson_upper
    tracer = spans.Tracer()
    traced = tracer.wrap(probe("nfl.cp"), target)
    assert traced(3, 120) == traced(3, 120) == target.__wrapped__(3, 120)
    assert tracer.names == ["nfl.cp", "nfl.cp"]
