"""CLI runner: exit codes, report files, manifests, reproducibility."""

import hashlib
import json
from pathlib import Path

import pytest

from paclab import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SCHEMA = CONFIG_DIR.parent / "docs" / "config.schema.json"

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


INSTANCE = {"task": "distribution", "eta": "1/2", "n": 2}  # 28 members
INDEX_FIELDS = {
    "target_index": lambda i: {
        "kind": "learn", "class": {"family": "anchored", "eta": "1/2", "n": 2},
        "learner": {"kind": "scheffe"}, "target_index": i, "m": 4},
    "learners[0].member_index": lambda i: {
        "kind": "nfl-exact", "instance": INSTANCE, "m": 0,
        "learners": [{"kind": "constant", "member_index": i}]},
    "member_indices[1]": lambda i: {
        "kind": "nfl-mc", "instance": INSTANCE, "m": 2, "trials": 3,
        "learner": {"kind": "scheffe"}, "member_indices": [0, i]},
}


@pytest.mark.parametrize("value", [500, -1])
@pytest.mark.parametrize("path", sorted(INDEX_FIELDS))
def test_member_index_out_of_range_is_config_error(tmp_path, capsys, path, value):
    cfg = {**INDEX_FIELDS[path](value), "seed": 1}
    out = tmp_path / "o"
    code = run_cli([cfg["kind"], "--config", write_cfg(tmp_path, cfg), "--out", out])
    assert code == cli.EXIT_CONFIG
    assert f"config error: config field '{path}'" in capsys.readouterr().err
    assert not out.exists()


def test_budget_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, {
        "kind": "nfl-exact", "seed": 1,
        "instance": {"task": "distribution", "eta": "1/2", "n": 2},
        "m": 8, "enum_budget": 100,
        "learners": [{"kind": "constant", "member_index": 0}],
    })
    assert run_cli(["nfl-exact", "--config", cfg, "--out", tmp_path / "o"]) == cli.EXIT_BUDGET


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


def test_configs_match_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA.read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    configs = [json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))]
    assert len(configs) == 7
    configs.append({"kind": "construct", "seed": 3, "class": STAGED_NO_FAMILY,
                    "stage_horizon": 16})
    for cfg in configs:
        jsonschema.validate(cfg, schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"kind": "construct", "seed": 3, "class": {"n": 2}}, schema)


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
