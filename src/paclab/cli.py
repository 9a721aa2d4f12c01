"""Batch experiment runner.

One invocation runs one subcommand from a JSON config and writes a
report (plus CSV curve data where applicable) and a run manifest into
the output directory. Report bodies contain no timestamps and are
byte-identical across reruns of the same config and seed; wall-clock
metadata lives only in the manifest.

Exit codes: 0 success, 2 config error, 3 budget exceeded, 4 a requested
assertion failed.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .dist import SparseDist, frac_str
from .dominance import FunctionTable, dominates_prefix, synthesize
from .errors import (
    ClassTooLarge,
    ConfigError,
    EnumerationBudgetExceeded,
    PaclabError,
    SearchBoundExceeded,
)
from .families import (
    AffineOfTarget,
    Constant,
    DEFAULT_MEMBER_BUDGET,
    EtaTable,
    FiniteClass,
    IdentityN,
    NTable,
    PolyWitness,
    Reciprocal,
    SequenceSpec,
    StagedClass,
    TASK_REAL,
    anchored_family,
    labeled_anchored_family,
    plateau_data_family,
)
from .learners import (
    ConstantLearner,
    EmpiricalBaseline,
    ErmLearner,
    Learner,
    ScheffeLearner,
    TruncationLearner,
    UnionLearner,
)
from .losses import AbsoluteLoss, CappedLinearLoss, SquaredLoss
from .nfl import (
    ComplexityCurve,
    DEFAULT_ENUM_BUDGET,
    check_search_protocol,
    estimate_sample_complexity,
    markov_reverse,
    mc_risk,
    nfl_classification_instance,
    nfl_distribution_instance,
    nfl_exact,
    nfl_real_instance,
)
from .rng import RngStream

SUBCOMMANDS = ("construct", "learn", "sample-complexity", "nfl-exact",
               "nfl-mc", "dominate", "synthesize")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_ASSERT = 4


_MISSING = object()


class Reader:
    """A JSON object of a config and its path. `get` and `list` convert a
    field with `conv` (`_int`, `Fraction`, ..., or `Reader` for a nested
    object) and raise ConfigError with the field's full path, such as
    `class.eta.c` or `f.values[1]`. A null field with default None is absent."""

    def __init__(self, obj, path: str = ""):
        if not isinstance(obj, dict):
            raise ConfigError(path or "(top level)", f"not an object: {obj!r}")
        self.obj = obj
        self.path = path

    def at(self, field: str) -> str:
        return f"{self.path}.{field}" if self.path else field

    def has(self, field: str) -> bool:
        return field in self.obj

    def get(self, field: str, conv, default=_MISSING):
        value = self.obj.get(field, default)
        if value is _MISSING:
            raise ConfigError(self.at(field), "missing")
        if value is None and default is None:
            return None
        return _convert(conv, value, self.at(field))

    def list(self, field: str, conv, default=_MISSING):
        values, path = self.get(field, _json_list, default), self.at(field)
        return None if values is None else [_convert(conv, v, f"{path}[{i}]")
                                            for i, v in enumerate(values)]


def _json_list(value) -> list:
    if not isinstance(value, list):
        raise TypeError("not a list")
    return value


def _int(value) -> int:
    """A JSON integer (2.0 counts), not a string or a fraction."""
    if not isinstance(value, (int, float)) or value % 1:
        raise TypeError("not an integer")
    return int(value)


def _trial_count(value) -> int:
    """A JSON integer of at least 1."""
    n = _int(value)
    if n < 1:
        raise ValueError("a Monte Carlo run needs at least one trial")
    return n


def _sample_size(value) -> int:
    """A JSON integer of at least 0."""
    m = _int(value)
    if m < 0:
        raise ValueError("a sample size cannot be negative")
    return m


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("not true or false")
    return value


def _convert(conv, value, path: str):
    """`conv(value)`; a JSON boolean converts only to a flag (`_bool`)."""
    if conv is Reader:
        return Reader(value, path)
    try:
        if isinstance(value, bool) and conv is not _bool:
            raise TypeError("true and false fit only flag fields")
        return conv(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(path, f"{value!r}: {exc}") from None


def _index(size: int):
    """Converter for a member index into a class of `size` members."""
    def conv(value) -> int:
        i = _int(value)
        if not 0 <= i < size:
            raise ValueError(f"member index {i} outside 0..{size - 1}")
        return i
    return conv


def _rule_tag(value):
    """A table's closed-form tag, a [kind, order] pair such as ["poly", 2];
    an empty or null tag is no tag."""
    if value and not (isinstance(value, list) and len(value) == 2 and isinstance(value[0], str)
                      and isinstance(value[1], (int, float)) and not isinstance(value[1], bool)):
        raise ValueError("not a [string, number] pair")
    return tuple(value) if value else None


def _by_kind(what: str, makers: dict):
    """The parser of an object whose "kind" field picks its maker."""
    def parse(r: Reader):
        kind = r.get("kind", str)
        if kind not in makers:
            raise ConfigError(r.at("kind"), f"unknown {what} {kind!r}")
        return makers[kind](r)
    return parse


eta_rule_from_json = _by_kind("eta rule", {
    "constant": lambda r: Constant(r.get("c", Fraction)),
    "reciprocal": lambda r: Reciprocal(r.get("c", Fraction)),
    "table": lambda r: EtaTable(tuple(r.list("values", Fraction))),
    "poly-witness": lambda r: PolyWitness(tuple(r.list("f", _int)), r.get("k", _int)),
})
n_rule_from_json = _by_kind("n rule", {
    "identity": lambda r: IdentityN(),
    "affine-of-target": lambda r: AffineOfTarget(tuple(r.list("g", _int))),
    "table": lambda r: NTable(tuple(r.list("values", _int))),
})
loss_rule_from_json = _by_kind("loss rule", {
    "absolute": lambda r: AbsoluteLoss(),
    "squared": lambda r: SquaredLoss(),
    "capped-linear": lambda r: CappedLinearLoss(r.get("cap", Fraction)),
})


def _load_staged(spec: Reader):
    """The staged union a class spec describes, or None if it is not staged.

    A spec is staged when its family is "staged", or when it names no
    family but gives "eta" and "n" (the verbatim shape {"task", "eta":
    {rule}, "n": {rule}, ...})."""
    if spec.get("family", str, "staged" if spec.has("eta") and spec.has("n") else None) != "staged":
        return None
    task = spec.get("task", str, "distribution")
    eta = eta_rule_from_json(spec.get("eta", Reader))
    n = n_rule_from_json(spec.get("n", Reader))
    loss = spec.get("loss", Reader, None)
    return StagedClass(task, SequenceSpec(eta, n),
                       loss=None if loss is None else loss_rule_from_json(loss))


def _load_class(spec: Reader, staged):
    """The finite class of a spec; `staged` is its `_load_staged` result,
    which is truncated at the spec's truncate_epsilon."""
    budget = spec.get("budget", _int, DEFAULT_MEMBER_BUDGET)
    if staged is not None:
        return staged.truncate(spec.get("truncate_epsilon", Fraction), budget=budget)
    family = spec.get("family", str)
    if family == "anchored":
        return anchored_family(spec.get("eta", Fraction), spec.get("n", _int),
                               size_filter=spec.get("filter", _int, None), budget=budget)
    if family == "labeled":
        return labeled_anchored_family(spec.get("eta", Fraction), spec.get("n", _int),
                                       budget=budget)
    if family == "plateau-data":
        loss = loss_rule_from_json(spec.get("loss", Reader))
        return plateau_data_family(loss, spec.get("eta", Fraction), spec.get("width", _int),
                                   budget=budget)
    raise ConfigError(spec.at("family"), f"unknown family {family!r}")


def _class_and_learner(cfg: Reader):
    """The finite class and the learner of a learn/sample-complexity config."""
    spec = cfg.get("class", Reader)
    staged = _load_staged(spec)
    if staged is not None and staged.task == TASK_REAL:
        raise ConfigError(spec.at("task"), "a real-task staged truncation holds hypotheses, "
                                           "not data distributions to draw samples from")
    cls = _load_class(spec, staged)
    return cls, _load_learner(cfg.get("learner", Reader), cls, staged)


def _load_instance(spec: Reader):
    task = spec.get("task", str, "distribution")
    eta = spec.get("eta", Fraction)
    budget = spec.get("budget", _int, DEFAULT_MEMBER_BUDGET)
    if task == "distribution":
        return nfl_distribution_instance(eta, spec.get("n", _int), budget=budget)
    if task == "classification":
        return nfl_classification_instance(eta, spec.get("n", _int), budget=budget)
    if task == "real":
        loss = loss_rule_from_json(spec.get("loss", Reader))
        return nfl_real_instance(loss, eta, spec.get("width", _int), budget=budget)
    raise ConfigError(spec.at("task"), f"unknown task {task!r}")


def _load_learner(spec: Reader, cls: FiniteClass, staged=None):
    kind = spec.get("kind", str)
    if kind == "scheffe":
        return ScheffeLearner(cls)
    if kind == "truncation":
        if staged is None:
            raise ConfigError(spec.at("kind"), "truncation learner needs a staged class spec")
        return TruncationLearner(staged, spec.get("epsilon", Fraction),
                                 budget=spec.get("budget", _int, DEFAULT_MEMBER_BUDGET))
    if kind == "erm":
        return ErmLearner.for_class(cls)
    if kind == "union":
        subs = [_load_learner(s, cls, staged) for s in spec.list("of", Reader)]
        return UnionLearner(subs, real_ctx=cls.real_ctx)
    if kind == "empirical-baseline":
        return EmpiricalBaseline(cls.task, real_ctx=cls.real_ctx)
    if kind == "constant":
        idx = spec.get("member_index", _index(len(cls)))
        return ConstantLearner(cls.members[idx], cls.task, name=f"constant-m{idx}")
    raise ConfigError(spec.at("kind"), f"unknown learner {kind!r}")


def _table(spec: Reader, base_dir: Path) -> FunctionTable:
    rule = spec.get("rule", _rule_tag, None)
    if not spec.has("csv"):
        return FunctionTable.from_values(spec.list("values", _int), rule=rule)
    csv_path = base_dir / spec.get("csv", Path)
    try:
        rows = {}
        for line in csv_path.read_text().splitlines():
            line = line.strip()
            if not line or line.lower().startswith("k,"):
                continue
            k, v = map(int, line.split(","))
            if k in rows:
                raise ValueError(f"k = {k} appears in more than one row")
            rows[k] = v
    except (OSError, ValueError) as exc:
        raise ConfigError(spec.at("csv"), str(exc))
    if sorted(rows) != list(range(1, len(rows) + 1)):
        raise ConfigError(spec.at("csv"), "rows must cover a contiguous prefix 1..K")
    return FunctionTable.from_values([rows[k] for k in sorted(rows)], rule=rule)


# ---------------------------------------------------------------------------
# subcommand bodies: each reads all its fields before any work, then returns
# (report_obj, extra_files, failed_assertions)
# ---------------------------------------------------------------------------

def _run_construct(cfg: Reader, rng, base_dir):
    spec = cfg.get("class", Reader)
    staged = _load_staged(spec)
    if staged is not None and not spec.has("truncate_epsilon"):
        # countable handle: report the rules and the first stage sizes, no
        # member materialization beyond what the caller asks for
        horizon = cfg.get("stage_horizon", _int, 6)
        levels, sizes = {}, {}
        for i in range(1, horizon + 1):
            levels[str(i)] = frac_str(staged.spec.eta_value(i))
            sizes[str(i)] = staged.stage_size(i)
        report = {
            "kind": "construct",
            "task": staged.task,
            "size": "countably-infinite",
            "staged": staged.to_json_obj(),
            "stage_levels": levels,
            "stage_sizes": sizes,
        }
        return report, {}, []
    cap = cfg.get("max_members", _int, 1 << 12)
    cls = _load_class(spec, staged)
    members = [m.to_json_obj() if isinstance(m, SparseDist) else repr(m)
               for m in cls.members[:cap]]
    report = {
        "kind": "construct",
        "task": cls.task,
        "size": len(cls),
        "labels": cls.labels[:cap],
        "members": members,
    }
    return report, {}, []


def _run_learn(cfg: Reader, rng, base_dir):
    # trials and m first: a run that cannot happen builds no class or learner
    trials = cfg.get("trials", _trial_count, 1)
    m = cfg.get("m", _sample_size)
    cls, learner = _class_and_learner(cfg)
    target_idx = cfg.get("target_index", _index(len(cls)))
    threshold = cfg.get("threshold", Fraction, "1/8")
    max_rate = cfg.get("assert_failure_rate_at_most", Fraction, None)
    stats = mc_risk(cls, learner, m, trials, rng, threshold, member_indices=[target_idx])
    report = {
        "kind": "learn",
        "learner": learner.name,
        "m": m,
        "target_index": target_idx,
        "stats": [s.to_json_obj() for s in stats],
    }
    failures = []
    if max_rate is not None:
        rate = stats[0].failures / stats[0].trials
        if rate > float(max_rate):
            failures.append(f"failure rate {rate} above {float(max_rate)}")
    return report, {}, failures


def _run_sample_complexity(cfg: Reader, rng, base_dir):
    proto = cfg.get("protocol", Reader, {})
    protocol = {f: proto.get(f, _int, d) for f, d in
                (("trials", 200), ("m_min", 1), ("m_max", 1024), ("targets_cap", 64))}
    points = cfg.list("points", Reader, None)
    if points is None:  # one point, from top-level epsilon and delta
        asks = [(cfg.get("epsilon", Fraction), cfg.get("delta", Fraction),
                 None, None, None, None)]
    else:
        asks = [(pt.get("epsilon", Fraction), pt.get("delta", Fraction),
                 pt.get("k", _int, None), pt.get("assert_m_hat_at_least", _int, None),
                 pt.get("assert_m_hat_at_most", _int, None), pt.path) for pt in points]
    # a protocol that cannot run is rejected before the class and learner are built
    for eps, delta, *_ in asks:
        check_search_protocol(eps, delta, learner=Learner, **protocol)
    cls, learner = _class_and_learner(cfg)
    results = [estimate_sample_complexity(cls, learner, eps, delta, rng.child(i), k=k,
                                          **protocol)
               for i, (eps, delta, k, *_) in enumerate(asks)]
    curve = ComplexityCurve(results)
    report = {
        "kind": "sample-complexity",
        "learner": learner.name,
        "points": [p.to_json_obj() for p in results],
    }
    failures = []
    for (*_, low, high, where), p in zip(asks, results):
        if low is not None and p.m_hat < low:
            failures.append(f"{where}: m_hat {p.m_hat} < {low}")
        if high is not None and p.m_hat > high:
            failures.append(f"{where}: m_hat {p.m_hat} > {high}")
    return report, {"curve.csv": curve.to_csv()}, failures


def _run_nfl_exact(cfg: Reader, rng, base_dir):
    m = cfg.get("m", _sample_size)  # before the instance, as in _run_learn
    inst = _load_instance(cfg.get("instance", Reader))
    learners = [_load_learner(s, inst.family) for s in cfg.list("learners", Reader)]
    thresholds = cfg.list("thresholds", Fraction, []) or None
    budget = cfg.get("enum_budget", _int, DEFAULT_ENUM_BUDGET)
    asserts = cfg.get("assert", Reader, {})
    above_bound = asserts.get("learners_above_bound", _bool, False)
    markov_tails = asserts.get("markov_tails", _bool, False)
    bound_eq = asserts.get("bound_equals", Fraction, None)
    report_obj = nfl_exact(inst, learners, m, thresholds=thresholds, budget=budget)
    failures = [f"{lr.name}: average {lr.class_average} below bound" for lr in report_obj.learners
                if above_bound and lr.class_average < report_obj.symmetrized_bound]
    if markov_tails:
        for lr in report_obj.learners:
            for a in report_obj.thresholds:
                for mean, tail in zip(lr.per_member_mean, lr.tails[a]):
                    if markov_reverse(mean, a) > tail:
                        failures.append(f"{lr.name}: Markov floor above exact tail at {a}")
    if bound_eq is not None and report_obj.symmetrized_bound != bound_eq:
        failures.append(f"bound {report_obj.symmetrized_bound} != {bound_eq}")
    return {"kind": "nfl-exact", **report_obj.to_json_obj()}, {}, failures


def _run_nfl_mc(cfg: Reader, rng, base_dir):
    trials = cfg.get("trials", _trial_count)  # before the instance, as in _run_learn
    m = cfg.get("m", _sample_size)
    inst = _load_instance(cfg.get("instance", Reader))
    learner = _load_learner(cfg.get("learner", Reader), inst.family)
    threshold = cfg.get("threshold", Fraction, inst.eta / 8)
    indices = cfg.list("member_indices", _index(len(inst.family)), None)
    stats = mc_risk(inst.family, learner, m, trials, rng, threshold, member_indices=indices)
    report = {
        "kind": "nfl-mc",
        "learner": learner.name,
        "m": m,
        "trials": trials,
        "stats": [s.to_json_obj() for s in stats],
    }
    return report, {}, []


def _run_dominate(cfg: Reader, rng, base_dir):
    f = _table(cfg.get("f", Reader), base_dir)
    g = _table(cfg.get("g", Reader), base_dir)
    assert_dominates = cfg.get("assert_dominates", _bool, False)
    cert = dominates_prefix(f, g)
    report = {"kind": "dominate", "f": f.to_json_obj(), "g": g.to_json_obj(),
              "certificate": cert.to_json_obj()}
    failures = ["dominance assertion failed"] if assert_dominates and not cert.dominates else []
    return report, {}, failures


def _run_synthesize(cfg: Reader, rng, base_dir):
    g = _table(cfg.get("g", Reader), base_dir)
    spot = cfg.get("spot_check", Reader, None)
    kwargs, exceeds = {}, None
    if spot is not None:
        kwargs = dict(spot_check_k=spot.get("k", _int),
                      trials=spot.get("trials", _int, 120),
                      member_budget=spot.get("member_budget", _int, 1024),
                      m_max=spot.get("m_max", _int, 256),
                      targets_cap=spot.get("targets_cap", _int, 64))
        exceeds = spot.get("assert_m_hat_exceeds", _int, None)
    rep = synthesize(g, rng=rng, **kwargs)
    lines = ["k,target,lower_bound"] + [f"{k},{g.at(k)},{rep.lower_bounds.at(k)}"
                                        for k in range(1, g.horizon + 1)]
    failures = []
    if not rep.certificate.dominates:
        failures.append("lower-bound line does not dominate the target on the prefix")
    if exceeds is not None:
        m_hat = rep.spot_check["point"]["m_hat"]
        if m_hat <= exceeds:
            failures.append(f"spot check m_hat {m_hat} does not exceed {exceeds}")
    return ({"kind": "synthesize", **rep.to_json_obj()},
            {"plotdata.csv": "\n".join(lines) + "\n"}, failures)


_RUNNERS = {
    "construct": _run_construct,
    "learn": _run_learn,
    "sample-complexity": _run_sample_complexity,
    "nfl-exact": _run_nfl_exact,
    "nfl-mc": _run_nfl_mc,
    "dominate": _run_dominate,
    "synthesize": _run_synthesize,
}


def run_experiment(subcommand: str, cfg, out_dir=None, seed_override=None,
                   base_dir: Path = Path()) -> tuple:
    """Execute one subcommand; returns (exit_code, manifest dict)."""
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    reader = Reader(cfg if seed_override is None else {**cfg, "seed": int(seed_override)})
    kind = reader.get("kind", str, None)
    if kind != subcommand:
        raise ConfigError(reader.at("kind"), f"config kind {kind!r} does not match "
                                             f"subcommand {subcommand!r}")
    out_field = reader.get("out", Path, None)  # read even when --out overrides it
    out_dir = Path(out_dir or out_field or ".")
    seed = reader.get("seed", _int)
    rng = RngStream(seed, 0)

    report, extra_files, failures = _RUNNERS[subcommand](reader, rng, base_dir)
    report["seed"] = seed
    report["assertion_failures"] = failures

    out_dir.mkdir(parents=True, exist_ok=True)
    files = {"report.json": json.dumps(report, indent=2) + "\n", **extra_files}
    digests = {}
    for name, body in files.items():
        (out_dir / name).write_text(body)
        digests[name] = hashlib.sha256(body.encode()).hexdigest()

    manifest = {
        "artifact_version": __version__,
        "config_sha256": hashlib.sha256(
            json.dumps(reader.obj, sort_keys=True).encode()).hexdigest(),
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "files": digests,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return (EXIT_ASSERT if failures else EXIT_OK), manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="paclab",
        description="Seeded experiment runner for distribution-learning hardness checks.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="output directory (default: config 'out' or '.')")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        print(f"config error: no such file {args.config}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        code, _ = run_experiment(args.subcommand, cfg, args.out, seed_override=args.seed,
                                 base_dir=Path(args.config).resolve().parent)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ClassTooLarge, EnumerationBudgetExceeded, SearchBoundExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PaclabError as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if code == EXIT_ASSERT:
        print("assertion failure (see report.json)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
