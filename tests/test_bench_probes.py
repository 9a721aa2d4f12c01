"""The benchmark's tracing probes (perfbench/spans.py) resolve against the
current paclab, so a deletion that would crash a traced benchmark run
fails here instead."""

import importlib
import importlib.util
import sys
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
