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
    FiniteClass,
    SequenceSpec,
    StagedClass,
    TASK_REAL,
    anchored_family,
    eta_rule_from_json,
    labeled_anchored_family,
    n_rule_from_json,
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
from .losses import loss_rule_from_json
from .nfl import (
    ComplexityCurve,
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


def _req(cfg: dict, field: str, path: str = ""):
    if field not in cfg:
        raise ConfigError(f"{path}{field}", "missing")
    return cfg[field]


def _frac(value, path: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ConfigError(path, f"not a rational: {value!r} ({exc})")


def _int(value, path: str) -> int:
    """An integer field; anything int() rejects (text, null, a list or an
    object) is a config error naming the field."""
    try:
        return int(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(path, f"not an integer: {value!r} ({exc})") from None


def _index(value, size: int, path: str) -> int:
    """A member index into a class of `size` members."""
    i = _int(value, path)
    if not 0 <= i < size:
        raise ConfigError(path, f"member index {i} outside 0..{size - 1}")
    return i


def _load_staged(spec: dict, path: str = "class."):
    """The staged union a class spec describes, or None if it is not staged.

    A spec is staged when its family is "staged", or when it names no
    family but gives "eta" and "n" (the verbatim shape {"task", "eta":
    {rule}, "n": {rule}, ...})."""
    if not (spec.get("family") == "staged"
            or ("family" not in spec and "eta" in spec and "n" in spec)):
        return None
    task = spec.get("task", "distribution")
    eta = eta_rule_from_json(_req(spec, "eta", path))
    n = n_rule_from_json(_req(spec, "n", path))
    loss = loss_rule_from_json(spec["loss"]) if "loss" in spec else None
    return StagedClass(task, SequenceSpec(eta, n), loss=loss)


def _load_class(spec: dict, staged, path: str = "class."):
    """The finite class of a spec; `staged` is its `_load_staged` result,
    which is truncated at the spec's truncate_epsilon."""
    budget = _int(spec.get("budget", 1 << 20), path + "budget")
    if staged is not None:
        eps = _frac(_req(spec, "truncate_epsilon", path), path + "truncate_epsilon")
        return staged.truncate(eps, budget=budget)
    family = _req(spec, "family", path)
    if family == "anchored":
        return anchored_family(_frac(_req(spec, "eta", path), path + "eta"),
                               _int(_req(spec, "n", path), path + "n"),
                               size_filter=spec.get("filter"), budget=budget)
    if family == "labeled":
        return labeled_anchored_family(_frac(_req(spec, "eta", path), path + "eta"),
                                       _int(_req(spec, "n", path), path + "n"), budget=budget)
    if family == "plateau-data":
        loss = loss_rule_from_json(_req(spec, "loss", path))
        return plateau_data_family(loss, _frac(_req(spec, "eta", path), path + "eta"),
                                   _int(_req(spec, "width", path), path + "width"),
                                   budget=budget)
    raise ConfigError(path + "family", f"unknown family {family!r}")


def _class_and_learner(cfg: dict):
    """The finite class and the learner of a learn/sample-complexity config."""
    spec = _req(cfg, "class")
    staged = _load_staged(spec)
    if staged is not None and staged.task == TASK_REAL:
        raise ConfigError("class.task", "a real-task staged truncation holds hypotheses, "
                                        "not data distributions to draw samples from")
    cls = _load_class(spec, staged)
    return cls, _load_learner(_req(cfg, "learner"), cls, staged)


def _load_instance(spec: dict, path: str = "instance."):
    task = spec.get("task", "distribution")
    eta = _frac(_req(spec, "eta", path), path + "eta")
    budget = _int(spec.get("budget", 1 << 20), path + "budget")
    if task == "distribution":
        return nfl_distribution_instance(eta, _int(_req(spec, "n", path), path + "n"),
                                         budget=budget)
    if task == "classification":
        return nfl_classification_instance(eta, _int(_req(spec, "n", path), path + "n"),
                                           budget=budget)
    if task == "real":
        loss = loss_rule_from_json(_req(spec, "loss", path))
        return nfl_real_instance(loss, eta, _int(_req(spec, "width", path), path + "width"),
                                 budget=budget)
    raise ConfigError(path + "task", f"unknown task {task!r}")


def _load_learner(spec: dict, cls: FiniteClass, staged=None, path: str = "learner."):
    kind = _req(spec, "kind", path)
    if kind == "scheffe":
        return ScheffeLearner(cls)
    if kind == "truncation":
        if staged is None:
            raise ConfigError(path + "kind", "truncation learner needs a staged class spec")
        eps = _frac(_req(spec, "epsilon", path), path + "epsilon")
        return TruncationLearner(staged, eps,
                                 budget=_int(spec.get("budget", 1 << 20), path + "budget"))
    if kind == "erm":
        return ErmLearner.for_class(cls)
    if kind == "union":
        subs = [_load_learner(s, cls, staged, f"{path}of[{i}].")
                for i, s in enumerate(_req(spec, "of", path))]
        return UnionLearner(subs, real_ctx=cls.real_ctx)
    if kind == "empirical-baseline":
        return EmpiricalBaseline(cls.task, real_ctx=cls.real_ctx)
    if kind == "constant":
        idx = _index(_req(spec, "member_index", path), len(cls), path + "member_index")
        return ConstantLearner(cls.members[idx], cls.task, name=f"constant-m{idx}")
    raise ConfigError(path + "kind", f"unknown learner {kind!r}")


def _table(spec: dict, path: str, base_dir: Path = None) -> FunctionTable:
    rule = tuple(spec["rule"]) if spec.get("rule") else None
    if "csv" in spec:
        csv_path = Path(spec["csv"])
        if not csv_path.is_absolute() and base_dir is not None:
            csv_path = base_dir / csv_path
        try:
            rows = {}
            for line in csv_path.read_text().splitlines():
                line = line.strip()
                if not line or line.lower().startswith("k,"):
                    continue
                k, v = line.split(",")
                rows[int(k)] = int(v)
        except (OSError, ValueError) as exc:
            raise ConfigError(path + "csv", str(exc))
        if sorted(rows) != list(range(1, len(rows) + 1)):
            raise ConfigError(path + "csv", "rows must cover a contiguous prefix 1..K")
        return FunctionTable.from_values([rows[k] for k in sorted(rows)], rule=rule)
    values = _req(spec, "values", path)
    if not isinstance(values, list):
        raise ConfigError(path + "values", f"not a list: {values!r}")
    return FunctionTable.from_values(
        [_int(v, f"{path}values[{i}]") for i, v in enumerate(values)], rule=rule)


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (report_obj, extra_files, failed_assertions)
# ---------------------------------------------------------------------------

def _run_construct(cfg, rng):
    spec = _req(cfg, "class")
    staged = _load_staged(spec)
    if staged is not None and "truncate_epsilon" not in spec:
        # countable handle: report the rules and the first stage sizes, no
        # member materialization beyond what the caller asks for
        horizon = _int(cfg.get("stage_horizon", 6), "stage_horizon")
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
    cls = _load_class(spec, staged)
    cap = _int(cfg.get("max_members", 1 << 12), "max_members")
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


def _run_learn(cfg, rng):
    cls, learner = _class_and_learner(cfg)
    target_idx = _index(_req(cfg, "target_index"), len(cls), "target_index")
    m = _int(_req(cfg, "m"), "m")
    trials = _int(cfg.get("trials", 1), "trials")
    threshold = _frac(cfg.get("threshold", "1/8"), "threshold")
    stats = mc_risk(cls, learner, m, trials, rng, threshold, member_indices=[target_idx])
    report = {
        "kind": "learn",
        "learner": learner.name,
        "m": m,
        "target_index": target_idx,
        "stats": [s.to_json_obj() for s in stats],
    }
    failures = []
    max_rate = cfg.get("assert_failure_rate_at_most")
    if max_rate is not None:
        rate = stats[0].failures / stats[0].trials
        if rate > float(_frac(max_rate, "assert_failure_rate_at_most")):
            failures.append(f"failure rate {rate} above {max_rate}")
    return report, {}, failures


def _run_sample_complexity(cfg, rng):
    cls, learner = _class_and_learner(cfg)
    proto = cfg.get("protocol", {})
    points = []
    requests = cfg.get("points")
    if requests is None:
        requests = [{"epsilon": _req(cfg, "epsilon"), "delta": _req(cfg, "delta")}]
    for i, pt in enumerate(requests):
        eps = _frac(_req(pt, "epsilon", f"points[{i}]."), f"points[{i}].epsilon")
        delta = _frac(_req(pt, "delta", f"points[{i}]."), f"points[{i}].delta")
        points.append(estimate_sample_complexity(
            cls, learner, eps, delta, rng.child(i),
            trials=_int(proto.get("trials", 200), "protocol.trials"),
            m_min=_int(proto.get("m_min", 1), "protocol.m_min"),
            m_max=_int(proto.get("m_max", 1024), "protocol.m_max"),
            targets_cap=_int(proto.get("targets_cap", 64), "protocol.targets_cap"),
            k=pt.get("k")))
    curve = ComplexityCurve(points)
    report = {
        "kind": "sample-complexity",
        "learner": learner.name,
        "points": [p.to_json_obj() for p in points],
    }
    failures = []
    for i, pt in enumerate(requests):
        low = pt.get("assert_m_hat_at_least")
        high = pt.get("assert_m_hat_at_most")
        if low is not None and points[i].m_hat < _int(low, f"points[{i}].assert_m_hat_at_least"):
            failures.append(f"points[{i}]: m_hat {points[i].m_hat} < {low}")
        if high is not None and points[i].m_hat > _int(high, f"points[{i}].assert_m_hat_at_most"):
            failures.append(f"points[{i}]: m_hat {points[i].m_hat} > {high}")
    return report, {"curve.csv": curve.to_csv()}, failures


def _run_nfl_exact(cfg, rng):
    inst = _load_instance(_req(cfg, "instance"))
    m = _int(_req(cfg, "m"), "m")
    learners = [_load_learner(s, inst.family, path=f"learners[{i}].")
                for i, s in enumerate(_req(cfg, "learners"))]
    thresholds = [_frac(t, "thresholds") for t in cfg.get("thresholds", [])] or None
    budget = _int(cfg.get("enum_budget", 10_000_000), "enum_budget")
    report_obj = nfl_exact(inst, learners, m, thresholds=thresholds, budget=budget)
    failures = []
    asserts = cfg.get("assert", {})
    if asserts.get("learners_above_bound"):
        for lr in report_obj.learners:
            if lr.class_average < report_obj.symmetrized_bound:
                failures.append(f"{lr.name}: average {lr.class_average} below bound")
    if asserts.get("markov_tails"):
        for lr in report_obj.learners:
            for a in report_obj.thresholds:
                for mean, tail in zip(lr.per_member_mean, lr.tails[a]):
                    if markov_reverse(mean, a) > tail:
                        failures.append(f"{lr.name}: Markov floor above exact tail at {a}")
    bound_eq = asserts.get("bound_equals")
    if bound_eq is not None and report_obj.symmetrized_bound != Fraction(bound_eq):
        failures.append(f"bound {report_obj.symmetrized_bound} != {bound_eq}")
    return {"kind": "nfl-exact", **report_obj.to_json_obj()}, {}, failures


def _run_nfl_mc(cfg, rng):
    inst = _load_instance(_req(cfg, "instance"))
    m = _int(_req(cfg, "m"), "m")
    trials = _int(_req(cfg, "trials"), "trials")
    learner = _load_learner(_req(cfg, "learner"), inst.family)
    threshold = _frac(cfg.get("threshold", inst.eta / 8), "threshold")
    indices = cfg.get("member_indices")
    if indices is not None:
        indices = [_index(v, len(inst.family), f"member_indices[{j}]")
                   for j, v in enumerate(indices)]
    stats = mc_risk(inst.family, learner, m, trials, rng, threshold, member_indices=indices)
    report = {
        "kind": "nfl-mc",
        "learner": learner.name,
        "m": m,
        "trials": trials,
        "stats": [s.to_json_obj() for s in stats],
    }
    return report, {}, []


def _run_dominate(cfg, rng):
    base_dir = cfg.get("_config_dir")
    f = _table(_req(cfg, "f"), "f.", base_dir)
    g = _table(_req(cfg, "g"), "g.", base_dir)
    cert = dominates_prefix(f, g)
    report = {"kind": "dominate", "f": f.to_json_obj(), "g": g.to_json_obj(),
              "certificate": cert.to_json_obj()}
    failures = []
    if cfg.get("assert_dominates") and not cert.dominates:
        failures.append("dominance assertion failed")
    return report, {}, failures


def _run_synthesize(cfg, rng):
    g = _table(_req(cfg, "g"), "g.", cfg.get("_config_dir"))
    spot = cfg.get("spot_check")
    kwargs = {}
    if spot:
        kwargs = dict(spot_check_k=_int(_req(spot, "k", "spot_check."), "spot_check.k"),
                      trials=_int(spot.get("trials", 120), "spot_check.trials"),
                      member_budget=_int(spot.get("member_budget", 1024),
                                         "spot_check.member_budget"),
                      m_max=_int(spot.get("m_max", 256), "spot_check.m_max"),
                      targets_cap=_int(spot.get("targets_cap", 64), "spot_check.targets_cap"))
    rep = synthesize(g, rng=rng, **kwargs)
    lines = ["k,target,lower_bound"]
    for k in range(1, g.horizon + 1):
        lines.append(f"{k},{g.at(k)},{rep.lower_bounds.at(k)}")
    failures = []
    if not rep.certificate.dominates:
        failures.append("lower-bound line does not dominate the target on the prefix")
    if spot and spot.get("assert_m_hat_exceeds") is not None:
        m_hat = rep.spot_check["point"]["m_hat"]
        if m_hat <= _int(spot["assert_m_hat_exceeds"], "spot_check.assert_m_hat_exceeds"):
            failures.append(f"spot check m_hat {m_hat} does not exceed "
                            f"{spot['assert_m_hat_exceeds']}")
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


def run_experiment(subcommand: str, cfg: dict, out_dir: Path,
                   seed_override=None, base_dir: Path = None) -> tuple:
    """Execute one subcommand; returns (exit_code, manifest dict)."""
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if cfg.get("kind") != subcommand:
        raise ConfigError("kind", f"config kind {cfg.get('kind')!r} does not match "
                                  f"subcommand {subcommand!r}")
    if seed_override is not None:
        cfg = {**cfg, "seed": int(seed_override)}
    if "seed" not in cfg:
        raise ConfigError("seed", "missing (no wall-clock default)")
    seed = _int(cfg["seed"], "seed")
    rng = RngStream(seed, 0)

    work_cfg = {**cfg, "_config_dir": base_dir} if base_dir is not None else cfg
    report, extra_files, failures = _RUNNERS[subcommand](work_cfg, rng)
    report["seed"] = seed
    report["assertion_failures"] = failures

    out_dir.mkdir(parents=True, exist_ok=True)
    files = {"report.json": json.dumps(report, indent=2) + "\n"}
    files.update(extra_files)
    digests = {}
    for name, body in files.items():
        (out_dir / name).write_text(body)
        digests[name] = hashlib.sha256(body.encode()).hexdigest()

    manifest = {
        "artifact_version": __version__,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
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
    if not isinstance(cfg, dict):
        print("config error: top level must be a JSON object", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out or cfg.get("out") or ".")
    try:
        code, _ = run_experiment(args.subcommand, cfg, out_dir, seed_override=args.seed,
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
