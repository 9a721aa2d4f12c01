"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q -p no:cacheprovider perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
from workloads import DEFAULT_SEED, PINNED, WORKLOADS, job_seed, sha256

WORKDIR = run.OUT / "tests"


@pytest.fixture(scope="module")
def workdir():
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)
    yield WORKDIR
    shutil.rmtree(WORKDIR, ignore_errors=True)


@pytest.fixture(scope="module")
def default_outputs(workdir):
    """One untraced job per workload at the default seed: name -> out dir."""
    outs = {}
    for name, workload in WORKLOADS.items():
        result, problems = run.run_job(workload, DEFAULT_SEED, False, workdir / name, 120)
        assert problems == [], (name, problems)
        outs[name] = workdir / name / "out"
    return outs


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == [(name, unit) for name, unit, _ in run.END_TO_END])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_job_seeds_are_stable_and_distinct():
    seeds = [job_seed("search", 7, j) for j in range(50)]
    assert seeds == [job_seed("search", 7, j) for j in range(50)]
    assert len(set(seeds)) == 50
    assert job_seed("search", 7, 0) != job_seed("search", 8, 0)
    assert all(0 <= s < 2 ** 63 for s in seeds)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupting_one_byte_fails_the_check(name, default_outputs, workdir):
    out = default_outputs[name]
    assert WORKLOADS[name].check(out, DEFAULT_SEED) == []
    for filename in PINNED[name]:
        copy = workdir / f"{name}-corrupt-{filename}"
        shutil.copytree(out, copy)
        body = bytearray((copy / filename).read_bytes())
        body[len(body) // 2] ^= 0x01
        (copy / filename).write_bytes(bytes(body))
        assert WORKLOADS[name].check(copy, DEFAULT_SEED), filename
        # away from the default seed the manifest digest still catches it
        assert any("manifest" in p for p in WORKLOADS[name].check(copy, 12345)), filename


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_reports_match_a_plain_cli_run(name, workdir):
    workload = WORKLOADS[name]
    config = workdir / f"{name}-plain.json"
    config.write_text(json.dumps(workload.make_config(DEFAULT_SEED)))
    out = workdir / f"{name}-plain"
    env = {**os.environ, "PYTHONPATH": str(run.SRC)}
    proc = subprocess.run([sys.executable, "-m", "paclab.cli", workload.subcommand,
                           "--config", str(config), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for filename, digest in PINNED[name].items():
        assert sha256((out / filename).read_bytes()) == digest, filename


def test_traced_self_times_sum_to_run_s(workdir):
    workload = WORKLOADS["exact"]
    plain, problems = run.run_job(workload, DEFAULT_SEED, False, workdir / "sum-plain", 120)
    assert problems == []
    traced, problems = run.run_job(workload, DEFAULT_SEED, True, workdir / "sum-traced", 120)
    assert problems == [], "tracing changed the output"
    overhead = traced["run_s"] - plain["run_s"]
    # spans nest, so the self times partition the root span, cli.main
    assert abs(traced["self_total_s"] - traced["run_s"]) < 1e-3
    assert abs(traced["self_total_s"] - plain["run_s"]) <= abs(overhead) + 1e-3
    layers = traced["layers"]
    assert set(layers) == {m for m, _ in spans.per_layer_metrics()} - {spans.OVERHEAD}
    assert layers["learners.select.calls"] == 13 ** 3
    assert layers["families.build.members"] == 220
    assert layers["learners.comparison_sets"] > 0
    assert 0 < layers["learners.select.distinct_ratio"] < 1


def test_without_program_exits_nonzero_without_result(workdir):
    bare = workdir / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
