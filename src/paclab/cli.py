"""Batch experiment runner.

One invocation runs one subcommand from a JSON config and writes a
report (plus CSV curve data where applicable) and a run manifest into
the output directory. Report bodies contain no timestamps and are
byte-identical across reruns of the same config and seed; wall-clock
metadata lives only in the manifest.

Exit codes: 0 success, 2 a usage or config error or an unusable output
directory, 3 budget exceeded, 4 a requested assertion failed.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import re
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
    TASK_DISTRIBUTION,
    TASK_REAL,
    anchored_family,
    labeled_anchored_family,
    plateau_data_family,
)
from .learners import (
    ConstantLearner,
    EmpiricalBaseline,
    ErmLearner,
    ScheffeLearner,
    TruncationLearner,
    UnionLearner,
)
from .losses import AbsoluteLoss, CappedLinearLoss, SquaredLoss, bayes_labeler
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

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_ASSERT = 4
# past stage 14,285 a stage size 2^i - 1 has more digits than Python writes as an int
STAGE_HORIZON_MAX = 4096
MAX_TRIALS = 2 ** 20  # most trials a config may ask for: 2^31 would draw 16 GiB of seeds


_MISSING = object()


class Reader:
    """A JSON object of a config and its path. `get` and `list` convert a
    field with `conv` (`_int`, `_rational`, ..., or `Reader` for a nested
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


def _int_in(lo: int, hi: int | None = None):
    """Converter for a JSON integer (`_int`) in lo..hi, `hi` inclusive;
    with no upper bound when `hi` is None."""
    def conv(value) -> int:
        n = _int(value)
        if n < lo or hi is not None and n > hi:
            raise ValueError(f"below {lo}" if n < lo else f"above {hi}")
        return n
    return conv


RATIONAL = re.compile(r"^-?[0-9]+(/[0-9]+|\.[0-9]+)?$")  # the schema's $defs/rational


def _rational(value) -> Fraction:
    """A JSON integer (`_int`) or a `RATIONAL` string such as "-2", "1/3" or
    "0.15"; not a JSON float, whose binary value 0.1 is not 1/10, nor an
    exponent, whose power may hang the run. A default may be a Fraction."""
    if isinstance(value, str) and not RATIONAL.search(value):
        raise ValueError("not an integer or a string such as '-2', '1/3' or '0.15'")
    return Fraction(value if isinstance(value, (str, Fraction)) else _int(value))


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


def _rule_tag(value):
    """A table's closed-form tag, a [kind, order] pair such as ["poly", 2]
    with a finite order (not NaN or Infinity); an empty or null tag is no tag."""
    if value and not (isinstance(value, list) and len(value) == 2 and isinstance(value[0], str)
                      and isinstance(value[1], (int, float)) and not isinstance(value[1], bool)
                      and abs(value[1]) < float("inf")):
        raise ValueError("not a [string, finite number] pair")
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
    "constant": lambda r: Constant(r.get("c", _rational)),
    "reciprocal": lambda r: Reciprocal(r.get("c", _rational)),
    "table": lambda r: EtaTable(tuple(r.list("values", _rational))),
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
    "capped-linear": lambda r: CappedLinearLoss(r.get("cap", _rational)),
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
        return staged.truncate(spec.get("truncate_epsilon", _rational), budget=budget)
    family = spec.get("family", str)
    if family == "anchored":
        return anchored_family(spec.get("eta", _rational), spec.get("n", _int),
                               size_filter=spec.get("filter", _int, None), budget=budget)
    if family == "labeled":
        return labeled_anchored_family(spec.get("eta", _rational), spec.get("n", _int),
                                       budget=budget)
    if family == "plateau-data":
        loss = loss_rule_from_json(spec.get("loss", Reader))
        return plateau_data_family(loss, spec.get("eta", _rational), spec.get("width", _int),
                                   budget=budget)
    raise ConfigError(spec.at("family"), f"unknown family {family!r}")


def _class_and_learner(cfg: Reader):
    """The finite class and the learner builder of a learn/sample-complexity config."""
    spec = cfg.get("class", Reader)
    staged = _load_staged(spec)
    if staged is not None and staged.task == TASK_REAL:
        raise ConfigError(spec.at("task"), "a real-task staged truncation holds hypotheses, "
                                           "not data distributions to draw samples from")
    cls = _load_class(spec, staged)
    return cls, _load_learner(cfg.get("learner", Reader), cls, staged)


def _load_instance(spec: Reader):
    task = spec.get("task", str, "distribution")
    eta = spec.get("eta", _rational)
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
    """Read a whole learner spec, a union's constituents included, and
    return a function of no arguments that builds the learner: a run calls
    it once every field of its config is read."""
    kind = spec.get("kind", str)
    if kind == "scheffe":
        return lambda: ScheffeLearner(cls)
    if kind == "truncation":
        if staged is None:
            raise ConfigError(spec.at("kind"), "truncation learner needs a staged class spec")
        eps = spec.get("epsilon", _rational)
        budget = spec.get("budget", _int, DEFAULT_MEMBER_BUDGET)
        return lambda: TruncationLearner(staged, eps, budget=budget)
    if kind == "erm":
        return lambda: ErmLearner.for_class(cls)
    if kind == "union":
        subs = [_load_learner(s, cls, staged) for s in spec.list("of", Reader)]
        return lambda: UnionLearner([build() for build in subs], real_ctx=cls.real_ctx)
    if kind == "empirical-baseline":
        return lambda: EmpiricalBaseline(cls.task, real_ctx=cls.real_ctx)
    if kind == "constant":
        idx = spec.get("member_index", _int_in(0, len(cls) - 1))

        def build():
            member = cls.members[idx]
            if cls.task != TASK_DISTRIBUTION:  # a data distribution: output its Bayes labeler
                member = EmpiricalBaseline(cls.task, cls.real_ctx).labeler(bayes_labeler(member).ones)
            return ConstantLearner(member, cls.task, name=f"constant-m{idx}")
        return build
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
# (report body, extra_files, failed_assertions) for run_experiment to wrap
# ---------------------------------------------------------------------------

def _run_construct(cfg: Reader, rng, base_dir):
    spec = cfg.get("class", Reader)
    staged = _load_staged(spec)
    if staged is not None and not spec.has("truncate_epsilon"):
        # countable handle: report the rules and the first stage sizes, no
        # member materialization beyond what the caller asks for
        horizon = cfg.get("stage_horizon", _int_in(0, STAGE_HORIZON_MAX), 6)
        levels, sizes = {}, {}
        for i in range(1, horizon + 1):
            levels[str(i)] = frac_str(staged.spec.eta_value(i))
            sizes[str(i)] = staged.stage_size(i)
        return {
            "task": staged.task,
            "size": "countably-infinite",
            "staged": staged.to_json_obj(),
            "stage_levels": levels,
            "stage_sizes": sizes,
        }, {}, []
    cap = cfg.get("max_members", _int_in(0), 1 << 12)
    cls = _load_class(spec, staged)
    members = [m.to_json_obj() if isinstance(m, SparseDist) else repr(m)
               for m in cls.members[:cap]]
    return {
        "task": cls.task,
        "size": len(cls),
        "labels": cls.labels[:cap],
        "members": members,
    }, {}, []


def _run_learn(cfg: Reader, rng, base_dir):
    # trials and m first: a run that cannot happen builds no class or learner
    trials = cfg.get("trials", _int_in(1, MAX_TRIALS), 1)
    m = cfg.get("m", _int_in(0))
    cls, build = _class_and_learner(cfg)
    target_idx = cfg.get("target_index", _int_in(0, len(cls) - 1))
    threshold = cfg.get("threshold", _rational, "1/8")
    max_rate = cfg.get("assert_failure_rate_at_most", _rational, None)
    learner = build()
    stats = mc_risk(cls, learner, m, trials, rng, threshold, member_indices=[target_idx])
    report = {
        "learner": learner.name,
        "m": m,
        "target_index": target_idx,
        "stats": [s.to_json_obj() for s in stats],
    }
    failures = []
    if max_rate is not None:
        rate = Fraction(stats[0].failures, stats[0].trials)
        if rate > max_rate:
            failures.append(f"failure rate {frac_str(rate)} above {frac_str(max_rate)}")
    return report, {}, failures


def _run_sample_complexity(cfg: Reader, rng, base_dir):
    proto = cfg.get("protocol", Reader, {})
    protocol = {f: proto.get(f, conv, d) for f, conv, d in
                (("trials", _int_in(1, MAX_TRIALS), 200), ("m_min", _int, 1),
                 ("m_max", _int, 1024), ("targets_cap", _int, 64))}
    points = cfg.list("points", Reader, None)
    if points is None:  # one point, from top-level epsilon and delta
        asks = [(cfg.get("epsilon", _rational), cfg.get("delta", _rational),
                 None, None, None, None)]
    else:
        asks = [(pt.get("epsilon", _rational), pt.get("delta", _rational),
                 pt.get("k", _int, None), pt.get("assert_m_hat_at_least", _int, None),
                 pt.get("assert_m_hat_at_most", _int, None), pt.path) for pt in points]
    # a protocol that cannot run is rejected before the class and learner are built
    for eps, delta, *_ in asks:
        check_search_protocol(eps, delta, **protocol)
    cls, build = _class_and_learner(cfg)
    learner = build()
    results = [estimate_sample_complexity(cls, learner, eps, delta, rng.child(i), k=k,
                                          **protocol)
               for i, (eps, delta, k, *_) in enumerate(asks)]
    curve = ComplexityCurve(results)
    report = {
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
    m = cfg.get("m", _int_in(0))  # before the instance, as in _run_learn
    inst = _load_instance(cfg.get("instance", Reader))
    builds = [_load_learner(s, inst.family) for s in cfg.list("learners", Reader)]
    thresholds = cfg.list("thresholds", _rational, []) or None
    budget = cfg.get("enum_budget", _int, DEFAULT_ENUM_BUDGET)
    asserts = cfg.get("assert", Reader, {})
    above_bound = asserts.get("learners_above_bound", _bool, False)
    markov_tails = asserts.get("markov_tails", _bool, False)
    bound_eq = asserts.get("bound_equals", _rational, None)
    learners = [build() for build in builds]
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
    return report_obj.to_json_obj(), {}, failures


def _run_nfl_mc(cfg: Reader, rng, base_dir):
    trials = cfg.get("trials", _int_in(1, MAX_TRIALS))  # before the instance, as in _run_learn
    m = cfg.get("m", _int_in(0))
    inst = _load_instance(cfg.get("instance", Reader))
    build = _load_learner(cfg.get("learner", Reader), inst.family)
    threshold = cfg.get("threshold", _rational, inst.eta / 8)
    indices = cfg.list("member_indices", _int_in(0, len(inst.family) - 1), None)
    learner = build()
    stats = mc_risk(inst.family, learner, m, trials, rng, threshold, member_indices=indices)
    report = {
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
    report = {"f": f.to_json_obj(), "g": g.to_json_obj(),
              "certificate": cert.to_json_obj()}
    failures = ["dominance assertion failed"] if assert_dominates and not cert.dominates else []
    return report, {}, failures


def _run_synthesize(cfg: Reader, rng, base_dir):
    g = _table(cfg.get("g", Reader), base_dir)
    spot = cfg.get("spot_check", Reader, None)
    kwargs, exceeds = {}, None
    if spot is not None:
        kwargs = dict(spot_check_k=spot.get("k", _int),
                      trials=spot.get("trials", _int_in(1, MAX_TRIALS), 120),
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
    return rep.to_json_obj(), {"plotdata.csv": "\n".join(lines) + "\n"}, failures


_RUNNERS = {
    "construct": _run_construct,
    "learn": _run_learn,
    "sample-complexity": _run_sample_complexity,
    "nfl-exact": _run_nfl_exact,
    "nfl-mc": _run_nfl_mc,
    "dominate": _run_dominate,
    "synthesize": _run_synthesize,
}
SUBCOMMANDS = tuple(_RUNNERS)


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
    for nearest in (out_dir, *out_dir.parents):  # mkdir below makes the missing part
        if nearest.exists():
            if not nearest.is_dir():
                raise NotADirectoryError(f"output directory {out_dir}: {nearest} "
                                         "is not a directory")
            break
    seed = reader.get("seed", _int)
    rng = RngStream(seed, 0)

    body, extra_files, failures = _RUNNERS[subcommand](reader, rng, base_dir)
    report = {"kind": subcommand, **body, "seed": seed, "assertion_failures": failures}

    files = {name: body.encode() for name, body in
             {"report.json": json.dumps(report, indent=2) + "\n", **extra_files}.items()}
    out_dir.mkdir(parents=True, exist_ok=True)  # after serializing: a failed dump makes none
    digests = {}
    for name, body in files.items():
        (out_dir / name).write_bytes(body)
        digests[name] = hashlib.sha256(body).hexdigest()

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


USAGE = ("usage: paclab <subcommand> --config <path> [--out <dir>] [--seed <int>]\n"
         "  each option --flag value or --flag=value, in any order")


def _parse_argv(argv) -> tuple:
    """(subcommand, config, out, seed) from an argv of USAGE's grammar; a
    ValueError names the first argument that does not fit it."""
    subcommands, values = [], {"--out": None, "--seed": None}
    args = iter(argv)
    for arg in args:
        if not arg.startswith("-"):
            subcommands.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        if flag not in ("--config", "--out", "--seed"):
            raise ValueError(f"unknown option {flag!r}")
        if not eq:  # the value is the next argument; of those starting "-", only an integer
            value = next(args, None)
            if value is None or value.startswith("-") and not value[1:].isdigit():
                raise ValueError(f"option {flag} needs a value")
        values[flag] = value
    if len(subcommands) != 1:
        raise ValueError(f"expected one subcommand, got {len(subcommands)}: {subcommands}")
    if subcommands[0] not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {subcommands[0]!r} "
                         f"(choose from {', '.join(SUBCOMMANDS)})")
    if "--config" not in values:
        raise ValueError("option --config is required")
    seed = values["--seed"]
    if seed is not None:
        try:
            seed = int(seed)
        except ValueError:
            raise ValueError(f"option --seed takes an integer, not {seed!r}") from None
    return subcommands[0], values["--config"], values["--out"], seed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(f"{USAGE}\nsubcommands: {', '.join(SUBCOMMANDS)}")
        return EXIT_OK
    try:
        subcommand, config, out, seed = _parse_argv(argv)
    except ValueError as exc:
        print(f"{USAGE}\npaclab: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg = json.loads(Path(config).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: cannot read {config}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RecursionError) as exc:  # or an integer of too many digits, or too deep
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        code, _ = run_experiment(subcommand, cfg, out, seed_override=seed,
                                 base_dir=Path(config).resolve().parent)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ClassTooLarge, EnumerationBudgetExceeded, SearchBoundExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PaclabError as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # the output directory cannot be made or written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if code == EXIT_ASSERT:
        print("assertion failure (see report.json)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
