"""paclab benchmark: closed-loop CLI jobs, one fresh interpreter at a time.

Usage:
    python3 perfbench/run.py --workload {search,exact,build,all} --seed N \
        --seconds S --trace {0,1}

Each job writes a config from the workload and a seed derived from --seed,
starts a fresh interpreter (perfbench/job.py) that imports `paclab.cli`
and calls `paclab.cli.main` on it, and checks the output. Jobs run one
after another, never overlapping, until --seconds have passed (and at
least MIN_JOBS have run). Job 0 runs the default seed, whose output must
match the pinned digests.

--trace 0 reports the end-to-end metrics: the mean `cli.main` wall time,
the median import time and the median peak RSS, the times rescaled to the
machine's reference speed (see calibrate.py). --trace 1 runs each job twice, plain
and traced, and reports the per-layer metrics of the traced runs plus the
tracing overhead. The last line of stdout is the result JSON; the line
before it is the full record (environment, every job's numbers), which is
also saved under .perfbench_out/. Exit status is 0 only if every job ran
and passed its output checks; 2 if there is no paclab source to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, job_seed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# (metric, unit, statistic over the run's samples). Times are divided by
# the job's slowdown, measured by the calibration kernel timed around the
# job. A run has few jobs, so run_s takes their mean; setup_s has many
# samples and takes the median.
END_TO_END = (("run_s", "s", "mean"), ("setup_s", "s", "median"),
              ("peak_rss_mb", "MB", "median"))
# extra import-only processes per job, so setup_s has many samples
SETUP_PROBES = 2
MIN_JOBS = 3
HARD_LIMIT_S = 165.0  # stop starting jobs that would end after this
# Jobs are single-threaded: paclab does no BLAS work, so numpy's BLAS pool
# would only add threads and start-up time on a small machine.
JOB_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def run_job(workload, config_seed: int, traced: bool, job_dir: Path, timeout: float):
    """Run one job; returns (result dict or None, list of problems)."""
    job_dir.mkdir(parents=True)
    config = job_dir / "config.json"
    config.write_text(json.dumps(workload.make_config(config_seed), indent=2) + "\n")
    out_dir, result_path = job_dir / "out", job_dir / "result.json"
    result, problems = _job_process(
        [str(result_path), workload.subcommand, str(config), str(out_dir),
         "1" if traced else "0"], result_path, timeout)
    if result is None:
        return None, problems
    if result["exit"] != 0:
        problems.append(f"paclab exited {result['exit']}")
    problems += workload.check(out_dir, config_seed)
    return result, problems


def time_setup(job_dir: Path, timeout: float) -> tuple:
    """A process that only imports paclab.cli: (result or None, problems)."""
    job_dir.mkdir(parents=True)
    return _job_process([str(job_dir / "result.json")], job_dir / "result.json", timeout)


def _job_process(args: list, result_path: Path, timeout: float) -> tuple:
    cmd = [sys.executable, str(HERE / "job.py"), str(SRC), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=JOB_ENV, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, [f"job timed out after {timeout:.0f} s"]
    if proc.returncode != 0:
        return None, [f"job exited {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    return json.loads(result_path.read_text()), []


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Timed jobs of one workload; returns the full record."""
    workload = WORKLOADS[name]
    began = time.perf_counter()
    work = OUT / f"jobs-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    jobs, failures, attempted = [], [], 0

    def one(label: str, config_seed=None, traced=False):
        nonlocal attempted
        attempted += 1
        timeout = HARD_LIMIT_S - (time.perf_counter() - began)
        if config_seed is None:
            result, problems = time_setup(work / label, timeout)
        else:
            result, problems = run_job(workload, config_seed, traced, work / label, timeout)
        shutil.rmtree(work / label, ignore_errors=True)
        if problems:
            failures.append({"job": label, "config_seed": config_seed, "problems": problems})
        return None if problems else result

    walls, cals = [], [calibrate.kernel()]
    try:
        while True:
            elapsed = time.perf_counter() - began
            expected = statistics.median(walls) if walls else 0.0
            if len(walls) >= MIN_JOBS and elapsed + expected > seconds:
                break
            if elapsed + expected > HARD_LIMIT_S:
                break
            j = len(walls)
            # job 0 runs the pinned default config, so every run checks exact bytes
            config_seed = DEFAULT_SEED if j == 0 else job_seed(name, seed, j)
            setups = [one(f"setup{j}-{k}") for k in range(SETUP_PROBES)]
            plain = one(f"job{j}", config_seed, False)
            traced = one(f"job{j}-traced", config_seed, True) if trace else None
            cals.append(calibrate.kernel())
            walls.append(time.perf_counter() - began - elapsed)
            jobs.append({
                "config_seed": config_seed, "plain": plain, "traced": traced,
                "setup_s": [r["setup_s"] for r in [*setups, plain] if r],
                # kernel time around the job over its reference time
                "slowdown": (cals[-2] + cals[-1]) / 2 / calibrate.CAL_REF_S,
            })
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = [j for j in jobs if j["plain"]]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "env": environment([j["plain"] for j in done]),
        "calibration_s": cals,
        "jobs": jobs,
        "wall_s": time.perf_counter() - began,
    }
    if not done:
        return record
    raw = {
        "run_s": [(j["plain"]["run_s"], j["slowdown"]) for j in done],
        "setup_s": [(t, j["slowdown"]) for j in done for t in j["setup_s"]],
        "peak_rss_mb": [(j["plain"]["peak_rss_mb"], 1.0) for j in done],
    }
    record["samples"] = {
        metric: {"count": len(v), "raw_min": min(x for x, _ in v),
                 "raw_median": statistics.median(x for x, _ in v),
                 "mean": statistics.mean(x / f for x, f in v),
                 "median": statistics.median(x / f for x, f in v)}
        for metric, v in raw.items()}
    record["end_to_end"] = {
        metric: {"value": record["samples"][metric][stat], "unit": unit}
        for metric, unit, stat in END_TO_END}
    pairs = [j for j in jobs if j["plain"] and j["traced"]]
    if trace and pairs:
        layers = {metric: {"value": statistics.median(j["traced"]["layers"][metric]
                                                      for j in pairs), "unit": unit}
                  for metric, unit in spans.per_layer_metrics()
                  if metric != spans.OVERHEAD}
        overhead = statistics.median(j["traced"]["run_s"] - j["plain"]["run_s"] for j in pairs)
        layers[spans.OVERHEAD] = {"value": overhead, "unit": "s"}
        record["per_layer"] = layers
    return record


def environment(results: list) -> dict:
    first = results[0] if results else {}
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": first.get("python", platform.python_version()),
        "numpy": first.get("numpy"),
        "nproc": first.get("nproc", os.cpu_count()),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (a plain
    export of the tree has no .git, and git would search parent dirs)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def result_line(records: list, trace: bool) -> dict:
    """The contract line: correctness, counts and the reported metrics."""
    key = "per_layer" if trace else "end_to_end"
    metrics = {}
    for rec in records:
        prefix = f"{rec['workload']}." if len(records) > 1 else ""
        for metric, entry in rec[key].items():
            metrics[prefix + metric] = entry
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "paclab" / "cli.py").is_file():
        print(f"perfbench: no paclab sources under {SRC}; nothing to measure",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    records = []
    for name in names:
        rec = measure(name, args.seed, args.seconds, bool(args.trace))
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(rec, indent=1) + "\n")
        for failure in rec["failures"]:
            print(f"perfbench: {name} {failure['job']} (config seed "
                  f"{failure['config_seed']}) failed: {failure['problems']}", file=sys.stderr)
        key = "per_layer" if args.trace else "end_to_end"
        if key not in rec:
            print(f"perfbench: {name}: no job succeeded, no result", file=sys.stderr)
            return 1
        for metric, entry in rec[key].items():
            print(f"{name:>7} {metric:<36} {entry['value']:>14.6g} {entry['unit']}",
                  file=sys.stderr)
        records.append(rec)
    line = result_line(records, bool(args.trace))
    print(json.dumps({"records": records}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
