"""CLI runner: exit codes, report files, manifests, reproducibility."""

import copy
import hashlib
import inspect
import json
import os
import resource
import runpy
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import paclab as pl
from paclab import cli, dominance, learners
from paclab.dist import frac_str

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = CONFIG_DIR.parent / "src"
SCHEMA = CONFIG_DIR.parent / "docs" / "config.schema.json"
BENCH_WORKLOADS = CONFIG_DIR.parent / "perfbench" / "workloads.py"

# a staged class spec in the verbatim shape: no "family" key
STAGED_NO_FAMILY = {"task": "distribution", "eta": {"kind": "constant", "c": "1/8"},
                    "n": {"kind": "identity"}, "truncate_epsilon": "1/2"}


def run_cli(args):
    return cli.main([str(a) for a in args])


def write_cfg(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


def test_construct_roundtrip(tmp_path):
    out = tmp_path / "out"
    code = run_cli(["construct", "--config", CONFIG_DIR / "construct_small.json",
                    "--out", out])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["size"] == 3
    assert report["members"][0]["atoms"][0] == [0, "1/2"]


def test_manifest_digests_match_files(tmp_path):
    out = tmp_path / "out"
    run_cli(["construct", "--config", CONFIG_DIR / "construct_small.json",
             "--out", out])
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["files"].items():
        body = (out / name).read_bytes()
        assert hashlib.sha256(body).hexdigest() == digest


def test_missing_seed_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, {"kind": "construct",
                               "class": {"family": "anchored", "eta": "1/2", "n": 2}})
    assert run_cli(["construct", "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_CONFIG


def test_kind_mismatch_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, {"kind": "construct", "seed": 1,
                               "class": {"family": "anchored", "eta": "1/2", "n": 2}})
    assert run_cli(["dominate", "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_CONFIG


def test_missing_file_is_config_error(tmp_path):
    assert run_cli(["construct", "--config", tmp_path / "nope.json"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("body", ["[1, 2]", "3", '"construct"', "null"])
def test_non_object_config_is_config_error(tmp_path, capsys, body):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body)
    assert run_cli(["construct", "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def run_module(args, cwd):
    """`python -m paclab.cli args` in a fresh interpreter at `cwd`."""
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    return subprocess.run([sys.executable, "-m", "paclab.cli", *map(str, args)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


SMALL = CONFIG_DIR / "construct_small.json"


@pytest.mark.parametrize("args,says", [
    (["bogus", "--config", SMALL], "usage:"),
    (["construct"], "usage:"),
    (["construct", "--config"], "usage:"),
    (["construct", "--out", "--config", SMALL], "usage:"),
    (["construct", "--config", SMALL, "--verbose"], "usage:"),
    (["construct", "--conf", SMALL], "usage:"),  # no prefixes of an option
    (["construct", "--config", SMALL, "--seed", "x"], "usage:"),
    (["construct", "learn", "--config", SMALL], "usage:"),
    (["construct", "--config", "."], "config error:"),
    (["construct", "--config", "latin1.json"], "config error:"),
    (["construct", "--config", "deep.json"], "config error:"),
    (["construct", "--config", "huge.json"], "config error:"),
    (["construct", "--config", SMALL, "--out", "file"], "output error:"),
    (["construct", "--config", SMALL, "--out", "file/sub"], "output error:"),
], ids=["unknown-subcommand", "no-config", "no-value-at-end", "no-value", "unknown-option",
        "prefix", "non-integer-seed", "two-subcommands", "config-is-a-directory",
        "config-not-utf8", "config-nested-too-deep", "config-int-too-long", "out-is-a-file",
        "out-below-a-file"])
def test_bad_argv_or_paths_exit_2_without_a_traceback(tmp_path, args, says):
    (tmp_path / "latin1.json").write_bytes(b'{"kind": "construct", "seed": 1, "x": "\xe9"}')
    (tmp_path / "deep.json").write_text("[" * 100_000)
    # more digits than Python converts to an int
    (tmp_path / "huge.json").write_text('{"kind": "construct", "seed": 1%s}' % ("0" * 5000))
    (tmp_path / "file").write_text("")
    proc = run_module(args, tmp_path)
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert says in proc.stderr and "Traceback" not in proc.stderr
    assert {p.name for p in tmp_path.iterdir()} == {"latin1.json", "deep.json", "huge.json",
                                                   "file"}
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("instance,m", [
    ({"task": "distribution", "eta": "1/1000", "n": 1}, 1500),
    ({"task": "distribution", "eta": "1/" + "3" * 2500, "n": 1}, 2),
], ids=["short-eta-large-m", "long-eta"])
def test_reported_rational_past_the_digit_limit_exits_2(tmp_path, instance, m):
    # the floor's denominator, 1000^1500 or (333...3)^2 times a small factor,
    # has more digits than Python prints of an int
    cfg = write_cfg(tmp_path, {"kind": "nfl-exact", "seed": 1, "instance": instance, "m": m,
                               "learners": [{"kind": "constant", "member_index": 0}]})
    proc = run_module(["nfl-exact", "--config", cfg, "--out", "out"], tmp_path)
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error: BadRange: ")
    assert f"{sys.get_int_max_str_digits()} digits" in proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "out").exists()


def test_help_prints_usage_to_stdout(tmp_path):
    proc = run_module(["--help"], tmp_path)
    assert proc.returncode == 0 and proc.stdout.startswith("usage: paclab")


def test_argv_forms_write_the_same_report(tmp_path):
    forms = {"spaced": ["construct", "--config", SMALL, "--out", "a", "--seed", "5"],
             "equals": ["construct", f"--config={SMALL}", "--out=b", "--seed=5"],
             "options-first": ["--seed", "5", "--out", "c", "--config", SMALL, "construct"]}
    for args in forms.values():
        assert run_module(args, tmp_path).returncode == 0
    bodies = {(tmp_path / out / "report.json").read_bytes() for out in "abc"}
    assert len(bodies) == 1


def test_an_unusable_out_fails_before_the_run(tmp_path, monkeypatch):
    # the nearest existing ancestor of the output path is a file: the run
    # stops before the runner, and creates nothing
    def no_run(*args):
        raise AssertionError("the runner ran")

    monkeypatch.setitem(cli._RUNNERS, "construct", no_run)
    (tmp_path / "file").write_text("")
    cfg = json.loads(SMALL.read_text())
    for out in (tmp_path / "file", tmp_path / "file" / "a" / "b"):
        with pytest.raises(NotADirectoryError):
            cli.run_experiment("construct", cfg, out)
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


INSTANCE = {"task": "distribution", "eta": "1/2", "n": 2}  # 28 members
INDEX_FIELDS = {  # each into a class of 28 members
    "target_index": lambda i: {
        "kind": "learn", "class": {"family": "anchored", "eta": "1/2", "n": 8, "filter": 2},
        "learner": {"kind": "scheffe"}, "target_index": i, "m": 4},
    "learners[0].member_index": lambda i: {
        "kind": "nfl-exact", "instance": INSTANCE, "m": 0,
        "learners": [{"kind": "constant", "member_index": i}]},
    "member_indices[1]": lambda i: {
        "kind": "nfl-mc", "instance": INSTANCE, "m": 2, "trials": 3,
        "learner": {"kind": "scheffe"}, "member_indices": [0, i]},
}


@pytest.mark.parametrize("value", [500, 28, -1])  # 28: the class size, one past the last index
@pytest.mark.parametrize("path", sorted(INDEX_FIELDS))
def test_member_index_out_of_range_is_config_error(tmp_path, capsys, path, value):
    cfg = {**INDEX_FIELDS[path](value), "seed": 1}
    out = tmp_path / "o"
    code = run_cli([cfg["kind"], "--config", write_cfg(tmp_path, cfg), "--out", out])
    assert code == cli.EXIT_CONFIG
    assert f"config error: config field '{path}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path", sorted(INDEX_FIELDS))
def test_last_member_index_runs(tmp_path, path):
    cfg = {**INDEX_FIELDS[path](27), "seed": 1}
    assert run_cli([cfg["kind"], "--config", write_cfg(tmp_path, cfg),
                    "--out", tmp_path / "o"]) == cli.EXIT_OK


NOT_INTEGERS = ["two", None, [], {}, True, 1.5, "3"]
NAN, INF = float("nan"), float("inf")  # json.dumps writes them as NaN and Infinity


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("kind,table", [("dominate", "f"), ("synthesize", "g")])
def test_non_integer_table_value_is_config_error(tmp_path, capsys, kind, table, bad):
    cfg = {"kind": kind, "seed": 1, "f": {"values": [2, 5, 10]}, "g": {"values": [1, 4, 9]}}
    cfg[table] = {"values": [1, bad, 9]}
    out = tmp_path / "o"
    assert run_cli([kind, "--config", write_cfg(tmp_path, cfg), "--out", out]) == cli.EXIT_CONFIG
    assert f"config error: config field '{table}.values[1]'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec,field", [({}, "values"), ({"values": "1,4,9"}, "values"),
                                        ({"csv": "absent.csv"}, "csv"),
                                        ({"values": [1, 4, 9], "rule": "two"}, "rule"),
                                        ({"values": [1, 4, 9], "rule": [None, 2]}, "rule"),
                                        ({"values": [1, 4, 9], "rule": ["poly", "two"]}, "rule"),
                                        ({"values": [1, 4, 9], "rule": ["poly", True]}, "rule"),
                                        ({"values": [1, 4, 9], "rule": ["exp", NAN]}, "rule"),
                                        ({"values": [1, 4, 9], "rule": ["exp", INF]}, "rule"),
                                        ({"values": [1, 4, 9], "rule": ["poly", -INF]}, "rule"),
                                        # written as the bare JSON number 1e999
                                        ({"values": [1, 4, 9], "rule": ["exp", "1e999"]}, "rule")],
                         ids=repr)
@pytest.mark.parametrize("kind,table", [("dominate", "f"), ("synthesize", "g")])
def test_bad_table_reports_its_field(tmp_path, capsys, kind, table, spec, field):
    cfg = {"kind": kind, "seed": 1, "f": {"values": [2, 5, 10]}, "g": {"values": [1, 4, 9]}}
    cfg[table] = spec
    out, path = tmp_path / "o", tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"1e999"', "1e999"))
    assert run_cli([kind, "--config", path, "--out", out]) == cli.EXIT_CONFIG
    assert f"config error: config field '{table}.{field}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name,field", [("nfl_exact_small", "learners"),
                                        ("nfl_mc_small", "member_indices"),
                                        ("sample_complexity_tiny", "points")])
def test_object_for_a_list_is_config_error(tmp_path, capsys, name, field):
    cfg = {**json.loads((CONFIG_DIR / f"{name}.json").read_text()), field: {}}
    out = tmp_path / "o"
    assert run_cli([cfg["kind"], "--config", write_cfg(tmp_path, cfg), "--out", out]) == 2
    assert f"config error: config field '{field}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind,body,field", [
    ("synthesize", {"g": {"values": [1, 4, 9]},
                    "spot_check": {"k": 2, "trials": 40, "targets_cap": 4, "m_max": 64,
                                   "assert_m_hat_exceeds": "two"}},
     "spot_check.assert_m_hat_exceeds"),
    ("sample-complexity", {"class": {"family": "anchored", "eta": "1/2", "n": 1},
                           "learner": {"kind": "scheffe"},
                           "points": [{"epsilon": "1/2", "delta": "1/4",
                                       "assert_m_hat_at_least": "two"}]},
     "points[0].assert_m_hat_at_least"),
], ids=["synthesize", "sample-complexity"])
def test_assertion_value_read_before_search(tmp_path, capsys, monkeypatch, kind, body, field):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran before the config was read")

    monkeypatch.setattr(cli, "estimate_sample_complexity", no_search)
    monkeypatch.setattr(dominance, "estimate_sample_complexity", no_search)
    cfg = write_cfg(tmp_path, {"kind": kind, "seed": 1, **body})
    assert run_cli([kind, "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_CONFIG
    assert f"config error: config field '{field}'" in capsys.readouterr().err


def test_union_search_starts_at_m_min(tmp_path):
    # a union splits its sample in two, so it needs m >= 2; the search must
    # not bisect below protocol.m_min
    cfg = write_cfg(tmp_path, {
        "kind": "sample-complexity", "seed": 8,
        "class": {"family": "anchored", "eta": "1/3", "n": 4},
        "learner": {"kind": "union",
                    "of": [{"kind": "scheffe"}, {"kind": "constant", "member_index": 2}]},
        "points": [{"epsilon": "1/3", "delta": "1/4"}],
        "protocol": {"trials": 30, "m_min": 2, "m_max": 128, "targets_cap": 4},
    })
    out = tmp_path / "o"
    assert run_cli(["sample-complexity", "--config", cfg, "--out", out]) == 0
    assert json.loads((out / "report.json").read_text())["points"][0]["m_hat"] >= 2


def test_union_search_without_m_min(tmp_path):
    # the search starts at the union's smallest usable sample, 2 points
    cfg = write_cfg(tmp_path, {
        "kind": "sample-complexity", "seed": 6,
        "class": {"family": "anchored", "eta": "1/2", "n": 2},
        "learner": {"kind": "union",
                    "of": [{"kind": "scheffe"}, {"kind": "constant", "member_index": 2}]},
        "epsilon": "1/2", "delta": "1/4",
        "protocol": {"trials": 30, "m_max": 128, "targets_cap": 4},
    })
    out = tmp_path / "o"
    assert run_cli(["sample-complexity", "--config", cfg, "--out", out]) == 0
    assert json.loads((out / "report.json").read_text())["points"][0]["m_hat"] >= 2


@pytest.mark.parametrize("kind,field,body", [
    ("sample-complexity", "protocol", {"trials": 0}),
    ("sample-complexity", "protocol", {"targets_cap": 0}),
    ("sample-complexity", "protocol", {"targets_cap": -1}),
    ("sample-complexity", "epsilon", "-1"),
    ("sample-complexity", "delta", "3"),
    ("sample-complexity", "delta", "0"),
    ("synthesize", "spot_check", {"k": 0}),
    ("synthesize", "spot_check", {"k": 2, "targets_cap": -1}),
    ("nfl-exact", "assert", {"markov_tails": "no"}),
    ("nfl-mc", "instance", {"task": "distribution", "eta": True, "n": 2}),
], ids=repr)
def test_bad_scalar_is_config_error(tmp_path, kind, field, body):
    cfg = {"sample-complexity": {"class": {"family": "anchored", "eta": "1/2", "n": 1},
                                 "learner": {"kind": "constant", "member_index": 0},
                                 "epsilon": "1/100", "delta": "1/4"},
           "synthesize": {"g": {"values": [1, 4, 9]}},
           "nfl-exact": {"instance": INSTANCE, "m": 0, "learners": []},
           "nfl-mc": {"instance": INSTANCE, "m": 2, "trials": 3,
                      "learner": {"kind": "scheffe"}}}[kind]
    cfg = write_cfg(tmp_path, {"kind": kind, "seed": 1, **cfg, field: body})
    assert run_cli([kind, "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("cls,field,value", [
    ({"family": "anchored", "eta": "1/2", "n": 2}, "max_members", -1),
    ({"eta": {"kind": "reciprocal", "c": "8"}, "n": {"kind": "identity"}}, "stage_horizon", -3),
    # past stage 14,285 a stage size 2^i - 1 cannot be written as a JSON number
    ({"eta": {"kind": "reciprocal", "c": "8"}, "n": {"kind": "identity"}}, "stage_horizon",
     cli.STAGE_HORIZON_MAX + 1),
    ({"eta": {"kind": "reciprocal", "c": "8"}, "n": {"kind": "identity"}}, "stage_horizon",
     100_000),
], ids=repr)
def test_negative_construct_count_is_config_error(tmp_path, capsys, cls, field, value):
    cfg = write_cfg(tmp_path, {"kind": "construct", "seed": 1, "class": cls, field: value})
    assert run_cli(["construct", "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_CONFIG
    assert f"config error: config field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_stage_horizon_at_its_maximum_runs(tmp_path):
    cls = {"eta": {"kind": "reciprocal", "c": "8"}, "n": {"kind": "identity"}}
    cfg = write_cfg(tmp_path, {"kind": "construct", "seed": 1, "class": cls,
                               "stage_horizon": cli.STAGE_HORIZON_MAX})
    assert run_cli(["construct", "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_OK
    sizes = json.loads((tmp_path / "o" / "report.json").read_text())["stage_sizes"]
    assert len(sizes) == cli.STAGE_HORIZON_MAX and sizes["4096"] == 2 ** 4096 - 1
    # run_experiment writes the envelope of this branch too
    assert (tmp_path / "o" / "report.json").read_text().startswith('{\n  "kind": "construct",\n')


MALFORMED = ["two", -1, 0, 1.5, True, None, [], {}, 10 ** 400, NAN, INF]


def strict_json(text: str):
    """json.loads that rejects the NaN and Infinity tokens JSON does not have."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


# fields the shipped configs leave unset, each added to a copy of one
# config: (config, JSON path, value); a table's csv names F_CSV
F_CSV = "k,value\n" + "".join(f"{k},{k * k}\n" for k in range(1, 21))
UNSET_FIELDS = [
    ("construct_small", ("class", "filter"), 1),
    ("construct_small", ("out",), "unused"),
    ("nfl_exact_small", ("thresholds",), ["1/16", "1/8"]),
    ("dominate_squares", ("f",), {"csv": "f.csv"}),
    ("sample_complexity_tiny", ("protocol", "targets_cap"), 2),
    ("sample_complexity_tiny", ("protocol", "m_min"), 2),
    ("synthesize_squares", ("spot_check",), {"k": 1, "trials": 30, "targets_cap": 2,
                                             "m_max": 64}),
]


def mutation_sites(obj, path=()):
    """Every dict field at any depth, and every scalar list element."""
    for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        nested = isinstance(value, (dict, list))
        if isinstance(obj, dict) or not nested:
            yield path + (key,)
        if nested:
            yield from mutation_sites(value, path + (key,))


def mutated(cfg, site, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in site[:-1]:
        node = node[key]
    node[site[-1]] = value
    return cfg


def mutation_cases():
    """(name, config, site) for each site of each shipped config, then for
    each unset field added to its config and each site inside that field."""
    shipped = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))}
    for name, base in shipped.items():
        for site in mutation_sites(base):
            yield name, base, site
    for name, field, value in UNSET_FIELDS:
        base = mutated(shipped[name], field, value)
        yield name, base, field
        if isinstance(value, (dict, list)):
            for site in mutation_sites(value, field):
                yield name, base, site


def test_mutated_shipped_configs_never_raise(tmp_path, capsys):
    # each site, replaced in turn by each malformed value and run with the
    # config's own kind, ends in a documented exit code, and a report it
    # writes is strict JSON
    (tmp_path / "f.csv").write_text(F_CSV)
    cases, bad = 0, []
    for name, base, site in mutation_cases():
        for value in MALFORMED:
            cases += 1
            cfg = write_cfg(tmp_path, mutated(base, site, value))
            case = f"{name} {site} = {value!r}"
            try:
                code = run_cli([base["kind"], "--config", cfg, "--out", tmp_path / "o"])
                if code in (0, 4):
                    strict_json((tmp_path / "o" / "report.json").read_text())
            except Exception as exc:
                bad.append(f"{case}: {type(exc).__name__}: {exc}")
                continue
            if code not in (0, 2, 3, 4):
                bad.append(f"{case}: exit {code}")
    capsys.readouterr()
    assert cases == 1650
    assert bad == []


ONE_LEARNER = [{"kind": "scheffe"}, {"kind": "truncation", "epsilon": "8"}, {"kind": "erm"},
               {"kind": "empirical-baseline"}, {"kind": "constant", "member_index": 1}]
EVERY_LEARNER = ONE_LEARNER + [{"kind": "union", "of": []}] + [
    {"kind": "union", "of": [spec, {"kind": "empirical-baseline"}]} for spec in ONE_LEARNER]
SWEEP_INSTANCES = [{"task": "distribution", "eta": "1/2", "n": 2},
                   {"task": "classification", "eta": "1/2", "n": 1},
                   {"task": "real", "eta": "1/2", "width": 2, "loss": {"kind": "squared"}}]
SWEEP_CLASSES = [
    {"family": "anchored", "eta": "1/2", "n": 2}, {"family": "labeled", "eta": "1/2", "n": 1},
    {"family": "plateau-data", "eta": "1/2", "width": 2, "loss": {"kind": "absolute"}},
    {"family": "plateau-data", "eta": "1/2", "width": 2, "loss": {"kind": "squared"}}] + [
    {"family": "staged", "task": task, "eta": {"kind": "reciprocal", "c": "8"},
     "n": {"kind": "identity"}, "truncate_epsilon": "8", "loss": {"kind": "absolute"}}
    for task in ("distribution", "classification", "real")]


def learner_sweep():
    """A tiny config of each learner kind on each instance task (nfl-exact
    at m = 0 and 2, nfl-mc) and each family (learn at m = 0 and 4,
    sample-complexity)."""
    for spec in EVERY_LEARNER:
        for inst in SWEEP_INSTANCES:
            for m in (0, 2):
                yield {"kind": "nfl-exact", "instance": inst, "m": m, "learners": [spec]}
            yield {"kind": "nfl-mc", "instance": inst, "m": 2, "trials": 5, "learner": spec,
                   "member_indices": [1]}
        for cls in SWEEP_CLASSES:
            for m in (0, 4):
                yield {"kind": "learn", "class": cls, "learner": spec, "target_index": 1, "m": m,
                       "trials": 2}
            yield {"kind": "sample-complexity", "class": cls, "learner": spec, "epsilon": "1/2",
                   "delta": "1/4", "protocol": {"trials": 20, "m_max": 8, "targets_cap": 2}}


def test_every_learner_kind_on_every_task_never_raises(tmp_path, capsys):
    cases, bad = 0, []
    for cfg in learner_sweep():
        cases += 1
        try:
            code = run_cli([cfg["kind"], "--config", write_cfg(tmp_path, {"seed": 1, **cfg}),
                            "--out", tmp_path / "o"])
        except Exception as exc:
            bad.append(f"{cfg}: {type(exc).__name__}: {exc}")
            continue
        if code not in (0, 2, 3, 4):
            bad.append(f"{cfg}: exit {code}")
    capsys.readouterr()
    assert cases == 11 * (3 * 3 + 3 * 7)
    assert bad == []


@pytest.mark.parametrize("inst", SWEEP_INSTANCES[1:], ids=lambda inst: inst["task"])
def test_constant_learner_outputs_the_members_bayes_labeler(tmp_path, inst):
    # on a hypothesis task constant-m{i} has exact risk 0 against member i
    cfg = {"kind": "nfl-exact", "seed": 1, "instance": inst, "m": 2,
           "learners": [{"kind": "constant", "member_index": i} for i in range(4)]}
    out = tmp_path / "o"
    assert run_cli(["nfl-exact", "--config", write_cfg(tmp_path, cfg), "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    for i, learner in enumerate(report["learners"]):
        assert learner["name"] == f"constant-m{i}"
        assert [mean == "0/1" for mean in learner["per_member_mean"]][:4] \
            == [k == i for k in range(4)]


@pytest.mark.parametrize("name,field,value", UNSET_FIELDS, ids=lambda v: str(v))
def test_unset_fields_run_clean(tmp_path, name, field, value):
    # the sweep's added fields are valid as added
    (tmp_path / "f.csv").write_text(F_CSV)
    cfg = mutated(json.loads((CONFIG_DIR / f"{name}.json").read_text()), field, value)
    assert run_cli([cfg["kind"], "--config", write_cfg(tmp_path, cfg),
                    "--out", tmp_path / "o"]) == 0


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_non_integer_seed_is_config_error(tmp_path, capsys, bad):
    cfg = write_cfg(tmp_path, {"kind": "construct", "seed": bad,
                               "class": {"family": "anchored", "eta": "1/2", "n": 2}})
    assert run_cli(["construct", "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_CONFIG
    assert "config error: config field 'seed'" in capsys.readouterr().err


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("field", ["trials", "m_min", "m_max", "targets_cap"])
def test_non_integer_protocol_field_is_config_error(tmp_path, capsys, field, bad):
    cfg = write_cfg(tmp_path, {"kind": "sample-complexity", "seed": 1,
                               "class": {"family": "anchored", "eta": "1/2", "n": 1},
                               "learner": {"kind": "scheffe"},
                               "epsilon": "1/2", "delta": "1/4",
                               "protocol": {"trials": 30, field: bad}})
    assert run_cli(["sample-complexity", "--config", cfg, "--out", tmp_path / "o"]) \
        == cli.EXIT_CONFIG
    assert f"config error: config field 'protocol.{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("spot,code", [({"trials": -1}, cli.EXIT_CONFIG),
                                       ({"targets_cap": 0}, cli.EXIT_CONFIG),
                                       ({"m_max": 0}, cli.EXIT_BUDGET)], ids=repr)
def test_bad_spot_check_protocol_builds_no_engine(tmp_path, monkeypatch, spot, code):
    def no_engine(*args, **kwargs):
        raise AssertionError("the Scheffé engine was built for a protocol that cannot run")

    monkeypatch.setattr(learners.ScheffeEngine, "__init__", no_engine)
    cfg = write_cfg(tmp_path, {"kind": "synthesize", "seed": 1, "g": {"values": [1, 4, 9]},
                               "spot_check": {"k": 2, **spot}})
    assert run_cli(["synthesize", "--config", cfg, "--out", tmp_path / "o"]) == code


@pytest.mark.parametrize("protocol,code", [({"trials": 0}, cli.EXIT_CONFIG),
                                           ({"targets_cap": 0}, cli.EXIT_CONFIG),
                                           ({"m_min": 5, "m_max": 4}, cli.EXIT_BUDGET)],
                         ids=repr)
def test_bad_search_protocol_builds_no_class(tmp_path, monkeypatch, protocol, code):
    def refuse(*args, **kwargs):
        raise AssertionError("a class or engine was built for a protocol that cannot run")

    monkeypatch.setattr(learners.ScheffeEngine, "__init__", refuse)
    monkeypatch.setattr(cli, "anchored_family", refuse)
    cfg = write_cfg(tmp_path, {"kind": "sample-complexity", "seed": 1,
                               "class": {"family": "anchored", "eta": "1/2", "n": 10},
                               "learner": {"kind": "scheffe"},
                               "points": [{"epsilon": "1/8", "delta": "1/4"}],
                               "protocol": protocol})
    assert run_cli(["sample-complexity", "--config", cfg, "--out", tmp_path / "o"]) == code


@pytest.mark.parametrize("sub,body", [
    ("learn", {"class": {"family": "anchored", "eta": "1/2", "n": 10},
               "learner": {"kind": "scheffe"}, "target_index": 0, "m": 4}),
    ("nfl-mc", {"instance": INSTANCE, "m": 2, "learner": {"kind": "scheffe"}}),
])
def test_no_trials_builds_no_class(tmp_path, monkeypatch, capsys, sub, body):
    def refuse(*args, **kwargs):
        raise AssertionError("a class, instance or engine was built for a run of no trials")

    monkeypatch.setattr(learners.ScheffeEngine, "__init__", refuse)
    monkeypatch.setattr(cli, "anchored_family", refuse)
    monkeypatch.setattr(cli, "nfl_distribution_instance", refuse)
    cfg = write_cfg(tmp_path, {"kind": sub, "seed": 1, **body, "trials": 0})
    assert run_cli([sub, "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_CONFIG
    assert "config error: config field 'trials'" in capsys.readouterr().err


@pytest.mark.parametrize("sub,body", [
    ("learn", {"class": {"family": "anchored", "eta": "1/2", "n": 10},
               "learner": {"kind": "scheffe"}, "target_index": 0, "trials": 5}),
    ("nfl-mc", {"instance": INSTANCE, "learner": {"kind": "scheffe"}, "trials": 5}),
    ("nfl-exact", {"instance": INSTANCE, "learners": [{"kind": "scheffe"}]}),
])
def test_negative_m_builds_no_class(tmp_path, monkeypatch, capsys, sub, body):
    def refuse(*args, **kwargs):
        raise AssertionError("a class, instance or engine was built for a negative sample size")

    monkeypatch.setattr(learners.ScheffeEngine, "__init__", refuse)
    monkeypatch.setattr(cli, "anchored_family", refuse)
    monkeypatch.setattr(cli, "nfl_distribution_instance", refuse)
    cfg = write_cfg(tmp_path, {"kind": sub, "seed": 1, **body, "m": -1})
    assert run_cli([sub, "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_CONFIG
    assert "config error: config field 'm'" in capsys.readouterr().err


UNION_OF_TWO = {"kind": "union", "of": [{"kind": "scheffe"}, {"kind": "empirical-baseline"}]}
BAD_CONSTANT = {"kind": "constant", "member_index": -1}
# a valid config of each subcommand that takes learners; LATE_FIELDS puts a
# malformed value into each field read after its learner spec
LATE_BASES = {
    "learn": {"class": {"family": "anchored", "eta": "1/2", "n": 2}, "learner": UNION_OF_TWO,
              "target_index": 0, "m": 4, "trials": 2},
    "nfl-exact": {"instance": INSTANCE, "m": 2, "learners": [{"kind": "scheffe"}, UNION_OF_TWO]},
    "nfl-mc": {"instance": INSTANCE, "m": 2, "trials": 3, "learner": UNION_OF_TWO},
    "sample-complexity": {"class": {"family": "anchored", "eta": "1/2", "n": 2},
                          "learner": UNION_OF_TWO, "epsilon": "1/2", "delta": "1/4",
                          "protocol": {"trials": 20, "m_max": 8, "targets_cap": 2}},
}
LATE_FIELDS = [  # (subcommand, site, value, the field the error names)
    ("learn", ("threshold",), "x", "threshold"),
    ("learn", ("target_index",), 3, "target_index"),  # the class has 3 members
    ("learn", ("assert_failure_rate_at_most",), 0.5, "assert_failure_rate_at_most"),
    ("learn", ("learner", "of", 1), BAD_CONSTANT, "learner.of[1].member_index"),
    ("nfl-exact", ("thresholds",), ["1/8", "x"], "thresholds[1]"),
    ("nfl-exact", ("enum_budget",), "x", "enum_budget"),
    ("nfl-exact", ("assert",), {"learners_above_bound": "yes"}, "assert.learners_above_bound"),
    ("nfl-exact", ("assert",), {"markov_tails": 1}, "assert.markov_tails"),
    ("nfl-exact", ("assert",), {"bound_equals": "1e-3"}, "assert.bound_equals"),
    ("nfl-exact", ("learners", 1, "of", 1), BAD_CONSTANT, "learners[1].of[1].member_index"),
    ("nfl-mc", ("threshold",), 0.1, "threshold"),
    ("nfl-mc", ("member_indices",), [0, 28], "member_indices[1]"),
    ("nfl-mc", ("learner", "of", 1), BAD_CONSTANT, "learner.of[1].member_index"),
    ("sample-complexity", ("learner", "of", 1), BAD_CONSTANT, "learner.of[1].member_index"),
]
# such faults on classes whose ERM learner builds a Bayes labeler per member:
# 5 to 25 s of work on a 2-vCPU VM when the learner was built before the
# field was read
SLOW_LEARNER_CONFIGS = [
    ({"kind": "learn", "class": {"family": "labeled", "eta": "1/2", "n": 9},
      "learner": {"kind": "erm"}, "target_index": 0, "m": 4, "threshold": "x"}, "threshold"),
    ({"kind": "nfl-exact", "instance": {"task": "classification", "eta": "1/2", "n": 9}, "m": 2,
      "learners": [{"kind": "erm"}], "enum_budget": "x"}, "enum_budget"),
    ({"kind": "nfl-mc", "instance": {"task": "classification", "eta": "1/2", "n": 8}, "m": 2,
      "trials": 3, "learner": {"kind": "union", "of": [{"kind": "erm"}, BAD_CONSTANT]}},
     "learner.of[1].member_index"),
]


@pytest.mark.parametrize("bound", [10 ** 400, -10 ** 400], ids=["1e400", "-1e400"])
def test_failure_rate_bound_past_a_float_is_compared_exactly(tmp_path, bound):
    # a rate in [0, 1] never exceeds 10^400 and always exceeds -10^400
    cfg = {"kind": "learn", "seed": 1, **LATE_BASES["learn"],
           "assert_failure_rate_at_most": bound}
    out = tmp_path / "o"
    code = run_cli(["learn", "--config", write_cfg(tmp_path, cfg), "--out", out])
    report = json.loads((out / "report.json").read_text())
    stats = report["stats"][0]
    rate = frac_str(Fraction(stats["failures"], stats["trials"]))
    failed = [f"failure rate {rate} above {bound}/1"]
    assert (code, report["assertion_failures"]) == (
        (cli.EXIT_OK, []) if bound > 0 else (cli.EXIT_ASSERT, failed))


def late_field_cases():
    for sub, site, value, field in LATE_FIELDS:
        yield pytest.param(mutated({"kind": sub, **LATE_BASES[sub]}, site, value), field,
                           id=f"{sub}-{field}")
    for cfg, field in SLOW_LEARNER_CONFIGS:
        yield pytest.param(cfg, field, id=f"{cfg['kind']}-{field}-erm")


def test_late_field_bases_run_clean(tmp_path):
    for sub, body in LATE_BASES.items():
        cfg = write_cfg(tmp_path, {"kind": sub, "seed": 1, **body})
        assert run_cli([sub, "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_OK, sub


@pytest.mark.parametrize("cfg,field", list(late_field_cases()))
def test_malformed_late_field_builds_no_learner(tmp_path, monkeypatch, capsys, cfg, field):
    # every field is read before any learner is built, a union's later
    # constituents included
    def refuse(*args, **kwargs):
        raise AssertionError("a learner was built before the whole config was read")

    monkeypatch.setattr(learners.ErmLearner, "for_class", refuse)
    for kind in ("ScheffeLearner", "UnionLearner", "TruncationLearner", "EmpiricalBaseline",
                 "ConstantLearner"):
        monkeypatch.setattr(getattr(learners, kind), "__init__", refuse)
    path = write_cfg(tmp_path, {"seed": 1, **cfg})
    out = tmp_path / "o"
    assert run_cli([cfg["kind"], "--config", path, "--out", out]) == cli.EXIT_CONFIG
    assert f"config error: config field '{field}'" in capsys.readouterr().err
    assert not out.exists()


# sha256 of every file but manifest.json that each shipped config writes, as
# shipped (seed None) and with --seed 2, and that each benchmark workload
# config writes at seed 2 (the benchmark pins its default seed itself). These
# bytes are the lab's reproducibility contract: a change that moves one
# argues it as a behaviour change.
PINNED_RUNS = {
    ("construct_small", None): {
        "report.json": "a15795b2776187d4a9b3a26730c1c345dbd8eed008b6d1a040be18b83936ebcc",
    },
    ("construct_small", 2): {
        "report.json": "2826e08eba2b972d51e8cf3f3395644ac63fb594acc8da46066fd2f95769e4e8",
    },
    ("dominate_squares", None): {
        "report.json": "c2d0afcbe57f9edd301cc7941e40f85d4e2ac51c728c7ee954ccebe81f7dc2c0",
    },
    ("dominate_squares", 2): {
        "report.json": "53c9371663a57d6151d6934da7e51ec9fb7de61916b5cfeccbfd92ed7c3955b8",
    },
    ("learn_truncation", None): {
        "report.json": "7f1c8ccb399a4dd48b99ec433657a2dc41b8feda851cfaf611a3e51b356d6e81",
    },
    ("learn_truncation", 2): {
        "report.json": "013e2d6d449600c32edbd4033d8fd66c4328b210f6c1ab95e6f777f266829828",
    },
    ("nfl_exact_small", None): {
        "report.json": "89cd50be1fda06ba046144961d7dda5a83d27419786043dc8f11773f9e4f8274",
    },
    ("nfl_exact_small", 2): {
        "report.json": "8f741a3ea19bcaae3afe043febf40186c86a363859962315073043391c6d3c4b",
    },
    ("nfl_mc_small", None): {
        "report.json": "c05ee7927902790325efc5324defff75a33f4cd94f993f8ee78646bc36c04823",
    },
    ("nfl_mc_small", 2): {
        "report.json": "bc523c30e09ca63d72e2dfbec8384db6f8e9eecbb2a22aca6977e87acc580572",
    },
    ("sample_complexity_tiny", None): {
        "curve.csv": "e5c0706b3ea178ac4355f9ef164bd4d6efe98c516daaac5187f82f9bf2d5f91d",
        "report.json": "79b3e5acbf9ccf6afb1c331a322c83b4228e9e084d145b776284b3fddb190b15",
    },
    ("sample_complexity_tiny", 2): {
        "curve.csv": "e5c0706b3ea178ac4355f9ef164bd4d6efe98c516daaac5187f82f9bf2d5f91d",
        "report.json": "e917a56158ca1f008efe846d70a125efa840f017e50f065b20566a44c897600a",
    },
    ("synthesize_squares", None): {
        "plotdata.csv": "11668dc8d2de96f565a06ac78f80241cab323eadc28ab5997f5852f828d7c3a7",
        "report.json": "c810fbb1523a400820cc6612fc37f414421e1c117d0d8249ce60925d2039b286",
    },
    ("synthesize_squares", 2): {
        "plotdata.csv": "11668dc8d2de96f565a06ac78f80241cab323eadc28ab5997f5852f828d7c3a7",
        "report.json": "016d95571c193f2e5ad2227ecd27718a109e621787bce5792e90cf5594b95c19",
    },
    ("search", 2): {
        "plotdata.csv": "11668dc8d2de96f565a06ac78f80241cab323eadc28ab5997f5852f828d7c3a7",
        "report.json": "8577d90b25c73bf2b13fd2d5ff1f2cbc81a95386df28656d51c92dd5266d7183",
    },
    ("exact", 2): {
        "report.json": "56d6300c15ab8949f92781c595e9663d52c5a8fa8a1c60c07598148135c53182",
    },
    ("build", 2): {
        "report.json": "dc8b101701250dfbf649e7ed36cb3013799b3ea411ea0cc8b72e452b74638933",
    },
}


def test_every_shipped_config_is_pinned():
    bench = runpy.run_path(str(BENCH_WORKLOADS))
    shipped = {name for name, _ in PINNED_RUNS} - set(bench["WORKLOADS"])
    assert shipped == {p.stem for p in CONFIG_DIR.glob("*.json")}
    assert set(PINNED_RUNS) == ({(name, seed) for name in shipped for seed in (None, 2)}
                                | {(name, 2) for name in bench["WORKLOADS"]})


@pytest.mark.parametrize("name,seed", list(PINNED_RUNS))
def test_runs_write_their_pinned_files(tmp_path, name, seed):
    bench = runpy.run_path(str(BENCH_WORKLOADS))
    if name in bench["WORKLOADS"]:
        workload = bench["WORKLOADS"][name]
        sub, cfg, extra = workload.subcommand, write_cfg(tmp_path, workload.make_config(seed)), []
    else:
        cfg = CONFIG_DIR / f"{name}.json"
        sub = json.loads(cfg.read_text())["kind"]
        extra = [] if seed is None else ["--seed", seed]
    out = tmp_path / "out"
    assert run_cli([sub, "--config", cfg, "--out", out, *extra]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir() if p.name != "manifest.json"}
    assert written == PINNED_RUNS[name, seed]


def test_exact_workload_hands_its_learners_count_rows(tmp_path, monkeypatch):
    # the exact workload's learners are all exchangeable: nfl-exact hands
    # them count rows (run_counts), never a block of samples or one sample
    def no_block(*args):
        raise AssertionError("a block of samples was run")

    monkeypatch.setattr(learners.Learner, "run_block", no_block)
    monkeypatch.setattr(learners.ScheffeEngine, "select", no_block)
    bench = runpy.run_path(str(BENCH_WORKLOADS))
    workload = bench["WORKLOADS"]["exact"]
    cfg = write_cfg(tmp_path, workload.make_config(bench["DEFAULT_SEED"]))
    assert run_cli([workload.subcommand, "--config", cfg, "--out", tmp_path / "out"]) == 0
    body = (tmp_path / "out" / "report.json").read_bytes()
    assert hashlib.sha256(body).hexdigest() == bench["PINNED"]["exact"]["report.json"]


def test_benchmark_workloads_write_their_pinned_files(tmp_path):
    # the benchmark's workload configs at its default seed, read from its
    # module without importing it, must write the bytes it pins
    bench = runpy.run_path(str(BENCH_WORKLOADS))
    for name, workload in bench["WORKLOADS"].items():
        cfg = write_cfg(tmp_path, workload.make_config(bench["DEFAULT_SEED"]), f"{name}.json")
        out = tmp_path / name
        assert run_cli([workload.subcommand, "--config", cfg, "--out", out]) == 0, name
        pinned = bench["PINNED"][name]
        assert {p.name for p in out.iterdir()} - {"manifest.json"} == set(pinned), name
        for filename, digest in pinned.items():
            assert hashlib.sha256((out / filename).read_bytes()).hexdigest() == digest, \
                (name, filename)


# a staged real-task class truncates to plateau hypotheses, which hold no
# data distribution to draw samples from
REAL_STAGED = {"family": "staged", "task": "real", "eta": {"kind": "reciprocal", "c": "1/2"},
               "n": {"kind": "identity"}, "loss": {"kind": "absolute"},
               "truncate_epsilon": "1"}


@pytest.mark.parametrize("sub,extra", [
    ("learn", {"target_index": 1, "m": 3}),
    ("sample-complexity", {"epsilon": "1/2", "delta": "1/10"}),
])
def test_real_staged_class_is_config_error(tmp_path, capsys, sub, extra):
    cfg = write_cfg(tmp_path, {"kind": sub, "seed": 1, "class": REAL_STAGED,
                               "learner": {"kind": "erm"}, **extra})
    assert run_cli([sub, "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_CONFIG
    assert "config error: config field 'class.task'" in capsys.readouterr().err


def test_budget_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, {
        "kind": "nfl-exact", "seed": 1,
        "instance": {"task": "distribution", "eta": "1/2", "n": 2},
        "m": 8, "enum_budget": 100,
        "learners": [{"kind": "constant", "member_index": 0}],
    })
    assert run_cli(["nfl-exact", "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_BUDGET


EXCHANGEABLE = [{"kind": "scheffe"}, {"kind": "empirical-baseline"},
                {"kind": "constant", "member_index": 0}]
UNION = {"kind": "union", "of": [{"kind": "scheffe"}, {"kind": "empirical-baseline"}]}


@pytest.mark.parametrize("budget,learners,code", [
    # 28 members x C(7, 5) = 588 multisets of 3 support atoms, 5 points
    # each, fit, where the 9-point alphabet's 9^5 = 59,049 sequences would not
    (10_000, EXCHANGEABLE, cli.EXIT_OK),
    (2_940, EXCHANGEABLE, cli.EXIT_OK),
    (2_939, EXCHANGEABLE, cli.EXIT_BUDGET),
    # a union is charged its 28 x 3^5 = 6,804 sequences of 5 points
    (100_000, EXCHANGEABLE + [UNION], cli.EXIT_OK),
    (34_019, EXCHANGEABLE + [UNION], cli.EXIT_BUDGET),
], ids=["multisets", "multisets-at-budget", "multisets-over", "sequences", "sequences-over"])
def test_budget_charges_the_enumerated_samples(tmp_path, budget, learners, code):
    cfg = write_cfg(tmp_path, {
        "kind": "nfl-exact", "seed": 1,
        "instance": {"task": "distribution", "eta": "1/2", "n": 2},
        "m": 5, "enum_budget": budget, "learners": learners,
    })
    assert run_cli(["nfl-exact", "--config", cfg, "--out", tmp_path / "o"]) == code


@pytest.mark.parametrize("m,learners", [(20_000, [UNION]), (14_000, [UNION]),
                                        (10 ** 8, [UNION]), (10 ** 8, EXCHANGEABLE)])
def test_budget_at_huge_m_exits_3_with_a_short_message(tmp_path, capsys, m, learners):
    # 2^20000 sequences have too many digits to print, and 2^(10^8) takes
    # most of a second to build: the check builds neither
    cfg = write_cfg(tmp_path, {
        "kind": "nfl-exact", "seed": 1,
        "instance": {"task": "distribution", "eta": "1/2", "n": 1},
        "m": m, "learners": learners,
    })
    start = time.perf_counter()
    assert run_cli(["nfl-exact", "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_BUDGET
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "budget exceeded: 4 members x " in err and len(err) < 200


def test_over_budget_window_class_builds_at_most_one_member(tmp_path, monkeypatch):
    # C(24, 6) = 134,596 members, each of the same 7-atom support: the
    # check reads it off the first member and builds no other
    built, trusted = [], pl.SparseDist._trusted.__func__

    def counted(cls, items, tag=None):
        built.append(tag)
        return trusted(cls, items, tag)

    monkeypatch.setattr(pl.SparseDist, "_trusted", classmethod(counted))
    cfg = write_cfg(tmp_path, {
        "kind": "nfl-exact", "seed": 1,
        "instance": {"task": "distribution", "eta": "1/2", "n": 6},
        "m": 100_000, "learners": [{"kind": "empirical-baseline"}],
    })
    start = time.perf_counter()
    assert run_cli(["nfl-exact", "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_BUDGET
    assert time.perf_counter() - start < 0.5
    assert len(built) <= 1


def test_unserializable_report_makes_no_output_directory(tmp_path, monkeypatch):
    def unserializable(cfg, rng, base_dir):
        return {"value": object()}, {"extra.csv": "a\n"}, []

    monkeypatch.setitem(cli._RUNNERS, "construct", unserializable)
    out = tmp_path / "new" / "out"
    with pytest.raises(TypeError):
        cli.run_experiment("construct", {"kind": "construct", "seed": 1}, out)
    assert not (tmp_path / "new").exists()


STAGED_RECIPROCAL = {"family": "staged", "eta": {"kind": "reciprocal", "c": "8"}}
TRUNCATE_AT_1 = {"truncate_epsilon": "1"}
TRUNCATE_RUN = {"learner": {"kind": "truncation", "epsilon": "1"}, "target_index": 0, "m": 1}


ANCHORED_1 = {"family": "anchored", "eta": "1/2", "n": 1}
# C(96, 24), about 1.3 x 10^22 members: within the budget, past what len() counts
PAST_MAXSIZE = {"family": "anchored", "eta": "1", "n": 96, "filter": 24, "budget": 10 ** 30}


@pytest.mark.parametrize("sub,body,code", [
    # sizes printed in the message: 2^15000 - 1 has too many digits
    ("construct", {"class": {"family": "anchored", "eta": "1/2", "n": 15000}}, 3),
    ("construct", {"class": {"family": "anchored", "eta": "1/2", "n": 100000,
                             "filter": 50000}}, 3),
    # sizes too large to build: 2^(2^63), C(2^33, 2^31)
    ("construct", {"class": {"family": "plateau-data", "loss": {"kind": "absolute"},
                             "eta": "1/2", "width": 2 ** 63}}, 3),
    ("nfl-mc", {"instance": {"task": "distribution", "eta": "1/2", "n": 2 ** 31}, "m": 2,
                "trials": 1, "learner": {"kind": "scheffe"}}, 3),
    # a truncation at stage 4 x 10^8, or one whose ninth stage has width 10^11
    ("learn", {"class": {**STAGED_RECIPROCAL, "eta": {"kind": "reciprocal", "c": "100000000"},
                         "n": {"kind": "identity"}, **TRUNCATE_AT_1}, **TRUNCATE_RUN}, 3),
    ("learn", {"class": {**STAGED_RECIPROCAL, "n": {"kind": "table", "values": [
        1, 2, 3, 4, 5, 6, 7, 8, 10 ** 11]}, **TRUNCATE_AT_1}, **TRUNCATE_RUN}, 3),
    # 2^(2^63) sequences, past what itertools.repeat counts
    ("nfl-exact", {"instance": {"task": "distribution", "eta": "1/2", "n": 1}, "m": 2 ** 63,
                   "learners": [UNION]}, 3),
    # stage sizes with more digits than Python prints of an int
    ("construct", {"class": {**STAGED_RECIPROCAL, "n": {"kind": "table", "values": [20000]}},
                   "stage_horizon": 1}, 2),
    ("construct", {"class": {**STAGED_RECIPROCAL, "n": {"kind": "table", "values": [10 ** 11]}},
                   "stage_horizon": 1}, 2),
    # 2^31 trials, past cli.MAX_TRIALS: their child seeds alone would take 16 GiB
    ("learn", {"class": ANCHORED_1, "learner": {"kind": "scheffe"}, "target_index": 0, "m": 1,
               "trials": 2 ** 31}, 2),
    ("nfl-mc", {"instance": {"task": "distribution", "eta": "1/2", "n": 1}, "m": 2,
                "trials": 2 ** 31, "learner": {"kind": "scheffe"}}, 2),
    ("sample-complexity", {"class": ANCHORED_1, "learner": {"kind": "scheffe"}, "epsilon": "1/4",
                           "delta": "1/4", "protocol": {"trials": 2 ** 31}}, 2),
    ("synthesize", {"g": {"values": [1, 4, 9]}, "spot_check": {"k": 1, "trials": 2 ** 31}}, 2),
    # a class of more members than sys.maxsize
    ("construct", {"class": PAST_MAXSIZE}, 3),
    ("learn", {"class": PAST_MAXSIZE, "learner": {"kind": "scheffe"}, "target_index": 0,
               "m": 1}, 3),
], ids=["anchored-2^n", "anchored-C(n,r)", "plateau-2^w", "nfl-mc-C(n,r)", "truncate-late-cutoff",
        "truncate-wide-stage", "union-huge-m", "stage-size-digits", "stage-size-wide",
        "learn-trials", "nfl-mc-trials", "protocol-trials", "spot-check-trials",
        "construct-past-maxsize", "learn-past-maxsize"])
def test_sizes_past_their_bound_exit_before_they_are_built(tmp_path, sub, body, code):
    cfg = write_cfg(tmp_path, {"kind": sub, "seed": 1, **body})
    # a size that is built anyway fails the address-space cap or the timeout
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
    proc = subprocess.run([sys.executable, "-m", "paclab.cli", sub, "--config", cfg, "--out", "out"],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
                          capture_output=True, text=True, timeout=10, preexec_fn=cap)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and not (tmp_path / "out").exists()


def test_failed_assertion_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, {
        "kind": "nfl-exact", "seed": 1,
        "instance": {"task": "distribution", "eta": "1/2", "n": 2},
        "m": 0,
        "learners": [{"kind": "constant", "member_index": 0}],
        "assert": {"bound_equals": "1/3"},
    })
    out = tmp_path / "o"
    assert run_cli(["nfl-exact", "--config", cfg, "--out", out]) == cli.EXIT_ASSERT
    report = json.loads((out / "report.json").read_text())
    assert report["assertion_failures"]


def test_seed_override_changes_report(tmp_path):
    cfg = write_cfg(tmp_path, {
        "kind": "nfl-mc", "seed": 1,
        "instance": {"task": "distribution", "eta": "1/2", "n": 2},
        "m": 2, "trials": 60, "learner": {"kind": "scheffe"},
        "threshold": "1/16", "member_indices": [3],
    })
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run_cli(["nfl-mc", "--config", cfg, "--out", a]) == 0
    assert run_cli(["nfl-mc", "--config", cfg, "--out", b]) == 0
    assert run_cli(["nfl-mc", "--config", cfg, "--out", c, "--seed", "2"]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "report.json").read_bytes() != (c / "report.json").read_bytes()


def test_sample_complexity_writes_curve(tmp_path):
    out = tmp_path / "out"
    code = run_cli(["sample-complexity", "--config",
                    CONFIG_DIR / "sample_complexity_tiny.json", "--out", out])
    assert code == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == "k,epsilon,delta,m_hat,trials,failures,ucb"
    assert len(lines) == 2


def test_synthesize_plotdata(tmp_path):
    out = tmp_path / "out"
    code = run_cli(["synthesize", "--config",
                    CONFIG_DIR / "synthesize_squares.json", "--out", out])
    assert code == 0
    lines = (out / "plotdata.csv").read_text().splitlines()
    assert lines[0] == "k,target,lower_bound"
    assert lines[1] == "1,1,4"
    assert lines[-1] == "5,25,52"


@pytest.mark.parametrize("name,sub", [
    ("construct_small", "construct"),
    ("nfl_exact_small", "nfl-exact"),
    ("dominate_squares", "dominate"),
    ("learn_truncation", "learn"),
    ("nfl_mc_small", "nfl-mc"),
])
def test_shipped_configs_run_clean(tmp_path, name, sub):
    assert run_cli([sub, "--config", CONFIG_DIR / f"{name}.json",
                    "--out", tmp_path / name]) == 0


def test_verbatim_staged_class_spec(tmp_path):
    # a class spec file of the shape {"task", "eta": {rule}, "n": {rule}} is
    # accepted as-is; without a truncation accuracy the report stays lazy
    cfg = write_cfg(tmp_path, {
        "kind": "construct", "seed": 3,
        "class": {"task": "distribution",
                  "eta": {"kind": "reciprocal", "c": "8"},
                  "n": {"kind": "identity"}},
        "stage_horizon": 16,
    })
    out = tmp_path / "o"
    assert run_cli(["construct", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["size"] == "countably-infinite"
    assert report["stage_sizes"]["4"] == 15
    assert report["stage_levels"]["16"] == "1/2"

    cfg2 = write_cfg(tmp_path, {
        "kind": "construct", "seed": 3,
        "class": {"task": "distribution",
                  "eta": {"kind": "reciprocal", "c": "8"},
                  "n": {"kind": "identity"},
                  "truncate_epsilon": "8"},
    }, name="cfg2.json")
    out2 = tmp_path / "o2"
    assert run_cli(["construct", "--config", cfg2, "--out", out2]) == 0
    report2 = json.loads((out2 / "report.json").read_text())
    assert report2["size"] == 27


@pytest.mark.parametrize("sub,extra", [
    ("learn", {"target_index": 1, "m": 4, "trials": 5}),
    ("sample-complexity", {"points": [{"epsilon": "1/2", "delta": "1/10"}],
                           "protocol": {"trials": 60, "m_max": 8}}),
])
def test_staged_spec_without_family_learns(tmp_path, sub, extra):
    # the truncation learner reads a verbatim staged spec exactly like one
    # that says "family": "staged"
    reports = []
    for i, spec in enumerate([STAGED_NO_FAMILY, {**STAGED_NO_FAMILY, "family": "staged"}]):
        cfg = write_cfg(tmp_path, {"kind": sub, "seed": 8, "class": spec,
                                   "learner": {"kind": "truncation", "epsilon": "1/2"},
                                   **extra}, name=f"cfg{i}.json")
        out = tmp_path / f"o{i}"
        assert run_cli([sub, "--config", cfg, "--out", out]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


NOT_RATIONALS = [0.1, 1.5, "1e-5000", "1E3", "2.5e1", "0x10", "1/3.0", " 1/3", "1/-3", "inf",
                 "nan", "1_000", "", "1/3\n3", True, None, ["1/3"]]
RATIONALS = [3, 2.0, -2, "-2", "1/3", "0.15", "-0.5", "5/1", "007"]


def test_configs_match_schema(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA.read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    configs = [json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))]
    assert len(configs) == 7
    configs += [{"kind": "construct", "seed": 3, "class": STAGED_NO_FAMILY,
                 "stage_horizon": 16},
                {"kind": "nfl-mc", "seed": 3, "instance": {**INSTANCE, "budget": 1 << 20},
                 "m": 2, "trials": 3, "learner": {"kind": "scheffe"}},
                {"kind": "learn", "seed": 3, "class": STAGED_NO_FAMILY, "m": 4,
                 "learner": {"kind": "truncation", "epsilon": "1/2", "budget": 1 << 20}}]
    # the benchmark's workload configs, read from its module without importing it
    bench = runpy.run_path(str(BENCH_WORKLOADS))
    configs += [w.make_config(bench["DEFAULT_SEED"]) for w in bench["WORKLOADS"].values()]
    assert len(configs) == 13
    for cfg in configs:
        jsonschema.validate(cfg, schema)
    assert schema["properties"]["stage_horizon"]["maximum"] == cli.STAGE_HORIZON_MAX
    # learn.trials and nfl-mc.trials share the top-level field
    props = schema["properties"]
    for trials in (props["trials"], props["protocol"]["properties"]["trials"],
                   props["spot_check"]["properties"]["trials"]):
        assert trials["maximum"] == cli.MAX_TRIALS
    assert tuple(schema["properties"]["kind"]["enum"]) == cli.SUBCOMMANDS
    for bad in ({"class": {"n": 2}}, {"max_members": -1}, {"stage_horizon": -3},
                {"stage_horizon": cli.STAGE_HORIZON_MAX + 1}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"kind": "construct", "seed": 3, **bad}, schema)
    # rationals: the schema and the CLI admit the same values; no float, no exponent
    assert schema["$defs"]["rational"]["anyOf"][1]["pattern"] == cli.RATIONAL.pattern
    validator = jsonschema.Draft202012Validator(schema)
    base = {"kind": "nfl-mc", "seed": 3, "instance": INSTANCE, "m": 2, "trials": 3,
            "learner": {"kind": "scheffe"}, "member_indices": [0]}
    cases = [(v, "threshold", True) for v in RATIONALS] + [
        (v, field, False) for v in NOT_RATIONALS for field in ("threshold", "instance.eta")]
    for value, field, valid in cases:
        cfg = mutated(base, tuple(field.split(".")), value)
        assert validator.is_valid(cfg) == valid, (field, value)
        code = run_cli(["nfl-mc", "--config", write_cfg(tmp_path, cfg), "--out", tmp_path / "o"])
        err = capsys.readouterr().err
        assert code == (cli.EXIT_OK if valid else cli.EXIT_CONFIG), (field, value, err)
        assert valid or err.startswith(f"config error: config field '{field}'"), err


def bounded_integer_fields(schema) -> dict:
    """{path: (minimum, maximum)} of each integer field of the schema with a
    bound, through "properties" and "items" from the top and from each
    $defs entry; "[]" stands for a list item."""
    found = {}

    def walk(node, path):
        if node.get("type") == "integer" and ("minimum" in node or "maximum" in node):
            found[path] = (node.get("minimum"), node.get("maximum"))
        for name, sub in node.get("properties", {}).items():
            walk(sub, path + (name,))
        if isinstance(node.get("items"), dict):
            walk(node["items"], path + ("[]",))

    walk(schema, ())
    for name, sub in schema["$defs"].items():
        walk(sub, ("$defs", name))
    return found


# a search every output passes (eps 1), so one trial certifies delta 99/100
ANY_SEARCH = {"kind": "sample-complexity", "class": {"family": "anchored", "eta": "1/2", "n": 1},
              "learner": {"kind": "scheffe"}, "epsilon": "1", "delta": "99/100"}
SPOT = {"k": 1, "trials": 30, "targets_cap": 1, "m_max": 64}
# runs that read their trials field, then stop at a budget check (exit 3):
# an instance past its member budget, or a search whose first level is past
# m_max. So the bound, cli.MAX_TRIALS, is accepted without a trial drawn.
STOPPED_BY_BUDGET = {("trials",), ("protocol", "trials"), ("spot_check", "trials")}
# a config with each bounded integer field of the schema set to v
BOUNDED_RUNS = {
    ("m",): lambda v: {"kind": "nfl-exact", "instance": INSTANCE, "m": v, "learners": []},
    ("trials",): lambda v: {"kind": "nfl-mc", "instance": {**INSTANCE, "budget": 1}, "m": 2,
                            "trials": v, "learner": {"kind": "scheffe"}},
    ("target_index",): INDEX_FIELDS["target_index"],
    ("member_indices", "[]"): lambda v: {"kind": "nfl-mc", "instance": INSTANCE, "m": 2,
                                         "trials": 3, "learner": {"kind": "scheffe"},
                                         "member_indices": [v]},
    ("protocol", "trials"): lambda v: {**ANY_SEARCH, "protocol": {"trials": v, "m_min": 2,
                                                                  "m_max": 1}},
    ("protocol", "targets_cap"): lambda v: {**ANY_SEARCH,
                                            "protocol": {"trials": 1, "targets_cap": v}},
    ("spot_check", "k"): lambda v: {"kind": "synthesize", "g": {"values": [1, 4, 9]},
                                    "spot_check": {**SPOT, "k": v}},
    ("spot_check", "trials"): lambda v: {"kind": "synthesize", "g": {"values": [1, 4, 9]},
                                         "spot_check": {**SPOT, "trials": v, "m_max": 0}},
    ("spot_check", "targets_cap"): lambda v: {"kind": "synthesize", "g": {"values": [1, 4, 9]},
                                              "spot_check": {**SPOT, "targets_cap": v}},
    ("max_members",): lambda v: {"kind": "construct",
                                 "class": {"family": "anchored", "eta": "1/2", "n": 2},
                                 "max_members": v},
    ("stage_horizon",): lambda v: {"kind": "construct", "stage_horizon": v, "class": {
        "eta": {"kind": "reciprocal", "c": "8"}, "n": {"kind": "identity"}}},
    ("$defs", "learner", "member_index"): INDEX_FIELDS["learners[0].member_index"],
}
SCHEMA_BOUNDS = bounded_integer_fields(json.loads(SCHEMA.read_text()))


def test_every_bounded_schema_field_is_run():
    assert set(SCHEMA_BOUNDS) == set(BOUNDED_RUNS)


@pytest.mark.parametrize("path", sorted(SCHEMA_BOUNDS), ids=".".join)
def test_schema_integer_bounds_match_the_cli(tmp_path, path):
    # each bound is accepted and one past it is a config error, by the
    # schema and the CLI alike
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
    low, high = SCHEMA_BOUNDS[path]
    cases = [(low, True), (low - 1, False)] if low is not None else []
    cases += [(high, True), (high + 1, False)] if high is not None else []
    for value, valid in cases:
        cfg = {"seed": 1, **BOUNDED_RUNS[path](value)}
        assert validator.is_valid(cfg) == valid, value
        code = run_cli([cfg["kind"], "--config", write_cfg(tmp_path, cfg),
                        "--out", tmp_path / "o"])
        if not valid:
            assert code == cli.EXIT_CONFIG, value
        elif path in STOPPED_BY_BUDGET:
            assert code == cli.EXIT_BUDGET, value
        else:
            assert code == cli.EXIT_OK, value


class Captured(Exception):
    """Raised by a stand-in for a library call once it has kept its arguments."""


@pytest.mark.parametrize("field,name,defaults,cfg", [
    ("protocol", "estimate_sample_complexity",
     {"trials": 200, "m_min": 1, "m_max": 1024, "targets_cap": 64},
     {"kind": "sample-complexity", "class": {"family": "anchored", "eta": "1/2", "n": 2},
      "learner": {"kind": "scheffe"}, "epsilon": "1/2", "delta": "1/4"}),
    ("spot_check", "synthesize",
     {"trials": 120, "member_budget": 1024, "m_max": 256, "targets_cap": 64},
     {"kind": "synthesize", "g": {"values": [1, 4, 9]}, "spot_check": {"k": 1}}),
], ids=["protocol", "spot_check"])
def test_search_defaults_agree(tmp_path, monkeypatch, field, name, defaults, cfg):
    # each default is stated in the schema, the library call's signature and
    # the CLI, which passes it when the config leaves the field out
    props = json.loads(SCHEMA.read_text())["properties"][field]["properties"]
    assert {f: props[f]["default"] for f in defaults} == defaults
    params = inspect.signature(getattr(cli, name)).parameters
    assert {f: params[f].default for f in defaults} == defaults
    passed = {}

    def stand_in(*args, **kwargs):
        passed.update(kwargs)
        raise Captured
    monkeypatch.setattr(cli, name, stand_in)
    with pytest.raises(Captured):
        cli.run_experiment(cfg["kind"], {"seed": 1, **cfg}, tmp_path / "o")
    assert {f: passed[f] for f in defaults} == defaults


def test_dominate_reads_csv_tables(tmp_path):
    (tmp_path / "f.csv").write_text("k,value\n1,2\n2,5\n3,10\n")
    cfg = write_cfg(tmp_path, {
        "kind": "dominate", "seed": 4,
        "f": {"csv": "f.csv"},
        "g": {"values": [1, 4, 9]},
    })
    out = tmp_path / "o"
    assert run_cli(["dominate", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["f"]["values"] == [2, 5, 10]
    assert report["certificate"]["dominates_on_prefix"] is True
    assert report["certificate"]["witness"] == 1


@pytest.mark.parametrize("form", ["inline", "csv"])
@pytest.mark.parametrize("kind", ["dominate", "synthesize"])
def test_empty_table_is_config_error(tmp_path, capsys, kind, form):
    # an empty prefix certifies nothing, so it must not pass as dominance
    (tmp_path / "t.csv").write_text("k,value\n")
    table = {"values": []} if form == "inline" else {"csv": "t.csv"}
    cfg = {"kind": kind, "seed": 1, "f": table, "g": table, "assert_dominates": True}
    out = tmp_path / "o"
    assert run_cli([kind, "--config", write_cfg(tmp_path, cfg), "--out", out]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: EmptyList") and "Traceback" not in err
    assert not out.exists()


def test_csv_table_with_a_repeated_k_is_config_error(tmp_path, capsys):
    (tmp_path / "f.csv").write_text("1,5\n1,6\n2,7\n")
    cfg = {"kind": "dominate", "seed": 4, "f": {"csv": "f.csv"}, "g": {"values": [1, 4]}}
    out = tmp_path / "o"
    assert run_cli(["dominate", "--config", write_cfg(tmp_path, cfg), "--out", out]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: config field 'f.csv'") and "k = 1 " in err
    assert not out.exists()


def test_union_learner_config(tmp_path):
    cfg = write_cfg(tmp_path, {
        "kind": "learn", "seed": 5,
        "class": {"family": "anchored", "eta": "1/2", "n": 2},
        "learner": {"kind": "union",
                    "of": [{"kind": "scheffe"}, {"kind": "empirical-baseline"}]},
        "target_index": 2, "m": 40, "trials": 20, "threshold": "1/4",
    })
    out = tmp_path / "o"
    assert run_cli(["learn", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["learner"] == "union(2)"


REAL_ABSOLUTE = {"eta": "1/2", "width": 3, "loss": {"kind": "absolute"}}


@pytest.mark.parametrize("cfg", [
    {"kind": "learn", "seed": 5,
     "class": {"family": "plateau-data", **REAL_ABSOLUTE},
     "learner": {"kind": "union", "of": [{"kind": "erm"}, {"kind": "empirical-baseline"}]},
     "target_index": 2, "m": 4, "trials": 3},
    {"kind": "nfl-mc", "seed": 5, "instance": {"task": "real", **REAL_ABSOLUTE},
     "learner": {"kind": "union", "of": [{"kind": "erm"}]}, "m": 4, "trials": 3},
], ids=["learn", "nfl-mc"])
def test_union_learner_on_real_task(tmp_path, cfg):
    # the ERM selector inside the union reads the loss rule from the class
    out = tmp_path / "o"
    assert run_cli([cfg["kind"], "--config", write_cfg(tmp_path, cfg), "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["learner"] == f"union({len(cfg['learner']['of'])})"


def test_negative_m_in_exact_oracle_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "kind": "nfl-exact", "seed": 5,
        "instance": {"task": "distribution", "eta": "1/2", "n": 1},
        "m": -1, "learners": [{"kind": "empirical-baseline"}],
    })
    assert run_cli(["nfl-exact", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "config error:" in capsys.readouterr().err


def test_sample_size_past_one_draw_is_config_error(tmp_path, capsys):
    # 64 * m random bits per sample must fit getrandbits' C int
    cfg = write_cfg(tmp_path, {"kind": "learn", "seed": 5,
                               "class": {"family": "anchored", "eta": "1/2", "n": 4},
                               "learner": {"kind": "scheffe"}, "target_index": 0,
                               "m": 2 ** 70, "trials": 3})
    assert run_cli(["learn", "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: BadRange: sample size m=") and err.count("\n") == 1


@pytest.mark.parametrize("cfg", [
    {"kind": "learn", "class": {"family": "labeled", "eta": "1/2", "n": 2},
     "target_index": 0, "m": 4, "trials": 5, "learner": {"kind": "scheffe"}},
    {"kind": "nfl-mc", "instance": {"task": "classification", "eta": "1/2", "n": 2},
     "m": 2, "trials": 5, "learner": {"kind": "scheffe"}},
    {"kind": "nfl-exact", "instance": {"task": "real", **REAL_ABSOLUTE},
     "m": 2, "learners": [{"kind": "scheffe"}]},
], ids=["learn-labeled", "nfl-mc-classification", "nfl-exact-real"])
def test_scheffe_on_a_hypothesis_class_is_config_error(tmp_path, capsys, cfg):
    path = write_cfg(tmp_path, {**cfg, "seed": 5})
    assert run_cli([cfg["kind"], "--config", path, "--out", tmp_path / "o"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: MixedTasks: hypothesis classes take the ERM learner\n"


def test_multi_point_curve_with_k(tmp_path):
    cfg = write_cfg(tmp_path, {
        "kind": "sample-complexity", "seed": 6,
        "class": {"family": "anchored", "eta": "1/2", "n": 1},
        "learner": {"kind": "scheffe"},
        "points": [{"k": 1, "epsilon": "1/2", "delta": "1/10"},
                   {"k": 2, "epsilon": "1/4", "delta": "1/10"}],
        "protocol": {"trials": 80, "m_max": 32},
    })
    out = tmp_path / "o"
    assert run_cli(["sample-complexity", "--config", cfg, "--out", out]) == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("1,1/2,1/10,")
    assert lines[2].startswith("2,1/4,1/10,")


@pytest.mark.parametrize("g,code", [(5 * 10 ** 4299, cli.EXIT_CONFIG), (10 ** 4299, cli.EXIT_OK)],
                         ids=["lb-4301-digits", "lb-4300-digits"])
def test_synthesize_lower_bound_past_the_digit_limit_exits_2(tmp_path, capsys, g, code):
    # LB(1) = 2 * (g(1) + 1) has 4,301 digits for g(1) = 5 * 10^4299, and
    # 4,300, as many as Python prints of an int, for 10^4299
    cfg = write_cfg(tmp_path, {"kind": "synthesize", "seed": 1, "g": {"values": [g]}})
    out = tmp_path / "o"
    assert run_cli(["synthesize", "--config", cfg, "--out", out]) == code
    if code == cli.EXIT_CONFIG:
        assert capsys.readouterr().err.startswith(
            f"config error: BadRange: stage 1 has a lower bound of more than "
            f"{sys.get_int_max_str_digits()} digits")
        assert not out.exists()
    else:
        report = json.loads((out / "report.json").read_text())
        assert report["lower_bounds"]["values"] == [2 * (g + 1)]


def test_synthesize_spot_check_config(tmp_path):
    cfg = write_cfg(tmp_path, {
        "kind": "synthesize", "seed": 7,
        "g": {"values": [1, 4, 9]},
        "spot_check": {"k": 1, "trials": 120, "member_budget": 64,
                       "m_max": 64, "assert_m_hat_exceeds": 1},
    })
    out = tmp_path / "o"
    assert run_cli(["synthesize", "--config", cfg, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    spot = report["spot_check"]
    assert spot["subfamily"] == {"eta": "1/1", "window": 8, "set_size": 2,
                                 "members": 28}
    assert spot["point"]["m_hat"] > 1
