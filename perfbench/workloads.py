"""Workload definitions: the config each job runs and the checks on its output.

A workload turns a config seed into one `paclab` CLI config. Each job of a
benchmark run gets its own config seed, derived from the run's `--seed`, so
the same seed always yields the same sequence of inputs. Every job's output
is checked: the report must match the digests the CLI wrote into its
manifest, it must satisfy invariants that hold at any seed, and at
DEFAULT_SEED it must match the pinned sha256 of the seed-code output.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List

DEFAULT_SEED = 1

# sha256 of each file the CLI writes (manifest.json aside) at DEFAULT_SEED.
PINNED = {
    "search": {
        "report.json": "0ae1ac6725fb440d8b2d36f0eb2dd73d30261611242efd3d141db0b209a7e293",
        "plotdata.csv": "11668dc8d2de96f565a06ac78f80241cab323eadc28ab5997f5852f828d7c3a7",
    },
    "exact": {
        "report.json": "cdbbd6c5b53c7b6aaafbce3dd4cc966e140d0d1e94fab1f4b684322128c0932d",
    },
    "build": {
        "report.json": "a382b7570039d435a3e30d0dbcfd3674c0e256f04ba1e51d3c33a228760c66f0",
    },
}


def job_seed(workload: str, seed: int, job: int) -> int:
    """Config seed of job `job` in a run with seed `seed` (63-bit, stable)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{job}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def sha256(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

G_SQUARES = [1, 4, 9, 16, 25]
SEARCH_M_MAX = 256
EXACT_MEMBERS = 220  # C(12, 3): anchored family, eta=1/2, |A|=3 in a 12-point window
BUILD_N = 14


def search_config(seed: int) -> dict:
    # The seed drives the sampled targets and every Monte Carlo draw.
    return {
        "kind": "synthesize",
        "seed": seed,
        "g": {"values": G_SQUARES, "rule": ["poly", 2]},
        "spot_check": {"k": 2, "trials": 120, "targets_cap": 16, "m_max": SEARCH_M_MAX},
    }


def exact_config(seed: int) -> dict:
    # Enumeration work does not depend on the seed; the constant learner's
    # member does, and with it that learner's exact risks.
    member = random.Random(seed).randrange(EXACT_MEMBERS)
    return {
        "kind": "nfl-exact",
        "seed": seed,
        "instance": {"task": "distribution", "eta": "1/2", "n": 3},
        "m": 3,
        "learners": [
            {"kind": "scheffe"},
            {"kind": "empirical-baseline"},
            {"kind": "constant", "member_index": member},
        ],
    }


def build_config(seed: int) -> dict:
    # Build cost depends on eta's denominator, so eta stays fixed and the
    # seed picks how many members the report lists.
    return {
        "kind": "construct",
        "seed": seed,
        "class": {"family": "anchored", "eta": "1/2", "n": BUILD_N},
        "max_members": random.Random(seed).randint(1, 16),
    }


# ---------------------------------------------------------------------------
# invariants that hold at every seed
# ---------------------------------------------------------------------------

def search_invariants(report: dict, files: Dict[str, bytes]) -> List[str]:
    problems = []
    if not report["certificate"]["dominates_on_prefix"]:
        problems.append("lower-bound line does not dominate the target")
    spot = report["spot_check"]
    point = spot["point"]
    if float(point["worst_ucb"]) > float(Fraction(point["delta"])):
        problems.append(f"worst_ucb {point['worst_ucb']} above delta {point['delta']}")
    if not 1 <= point["m_hat"] <= SEARCH_M_MAX:
        problems.append(f"m_hat {point['m_hat']} outside 1..m_max")
    if spot["subfamily"]["members"] != EXACT_MEMBERS or point["targets_tested"] != 16:
        problems.append("spot check did not run on 16 targets of the 220-member family")
    if report["lower_bounds"]["values"] != [2 * (g + 1) for g in G_SQUARES]:
        problems.append("lower-bound line is not 2(g+1)")
    rows = [f"{k},{g},{2 * (g + 1)}" for k, g in enumerate(G_SQUARES, 1)]
    if files.get("plotdata.csv") != ("\n".join(["k,target,lower_bound"] + rows) + "\n").encode():
        problems.append("plotdata.csv does not hold the lower-bound line 2(g+1)")
    return problems


def exact_invariants(report: dict, files: Dict[str, bytes]) -> List[str]:
    problems = []
    bound = Fraction(report["symmetrized_bound"])
    if bound != Fraction(125, 1728):
        problems.append(f"symmetrized bound {bound} != 125/1728")
    if report["family_size"] != EXACT_MEMBERS:
        problems.append(f"family size {report['family_size']} != {EXACT_MEMBERS}")
    if len(report["learners"]) != 3:
        problems.append("expected three learner reports")
    for lr in report["learners"]:
        if Fraction(lr["class_average"]) < bound:
            problems.append(f"{lr['name']}: class average below the bound")
    # the first two learners do not depend on the seed
    averages = [Fraction(lr["class_average"]) for lr in report["learners"][:2]]
    if averages != [Fraction(2503, 10560), Fraction(179, 432)]:
        problems.append(f"scheffe / empirical class averages {averages} changed")
    return problems


def build_invariants(report: dict, files: Dict[str, bytes]) -> List[str]:
    problems = []
    if report["size"] != 2 ** BUILD_N - 1:
        problems.append(f"size {report['size']} != 2^{BUILD_N} - 1")
    for index, member in enumerate(report["members"]):
        # member i: mass 1/2 on 0, 1/2 spread over the set bits of i + 1
        window = [b + 1 for b in range(BUILD_N) if (index + 1) >> b & 1]
        expected = [(0, Fraction(1, 2))] + [(a, Fraction(1, 2 * len(window))) for a in window]
        if [(a, Fraction(p)) for a, p in member["atoms"]] != expected:
            problems.append(f"member {index} is not 1/2 delta_0 + 1/2 uniform{window}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    make_config: Callable[[int], dict]
    invariants: Callable[[dict, Dict[str, bytes]], List[str]]

    def check(self, out_dir: Path, config_seed: int) -> List[str]:
        """Problems with the output a job left in out_dir (empty if none)."""
        try:
            manifest = json.loads((out_dir / "manifest.json").read_text())
            files = {name: (out_dir / name).read_bytes() for name in manifest["files"]}
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc}"]
        problems = [f"{name}: bytes differ from the manifest digest"
                    for name, digest in manifest["files"].items()
                    if sha256(files[name]) != digest]
        if config_seed == DEFAULT_SEED:
            pinned = PINNED[self.name]
            if set(files) != set(pinned):
                problems.append(f"wrote {sorted(files)}, expected {sorted(pinned)}")
            problems += [f"{name}: sha256 differs from the pinned digest"
                         for name in pinned
                         if name in files and sha256(files[name]) != pinned[name]]
        try:
            report = json.loads(files["report.json"])
            if report.get("seed") != config_seed:
                problems.append(f"report seed {report.get('seed')} != {config_seed}")
            if report.get("assertion_failures"):
                problems.append(f"assertion failures: {report['assertion_failures']}")
            problems += self.invariants(report, files)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            problems.append(f"malformed report: {exc!r}")
        return problems


WORKLOADS = {
    w.name: w for w in (
        Workload("search", "synthesize", search_config, search_invariants),
        Workload("exact", "nfl-exact", exact_config, exact_invariants),
        Workload("build", "construct", build_config, build_invariants),
    )
}
