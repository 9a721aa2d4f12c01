"""Acceptance suite: twelve numbered criteria, each with its pinned
tolerance. Run with `pytest -v -s tests/test_acceptance.py` to see one
PASS/FAIL line per criterion.
"""

import itertools
import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import paclab as pl
from paclab import cli
from paclab.losses import hypotheses_of_class
from paclab.nfl import instance_alphabet, observed_atoms

SEED = 20260808
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

_results = []


def record(num, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    _results.append(line)
    print("\n" + line)
    assert ok, line


def timed(limit_s):
    class Timer:
        def __enter__(self):
            self.t0 = time.time()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.time() - self.t0
            assert self.elapsed < limit_s, f"runtime {self.elapsed:.1f}s over {limit_s}s"
    return Timer()


def random_dist(gen, atoms_pool, max_atoms):
    count = gen.randint(1, max_atoms)
    atoms = gen.sample(atoms_pool, count)
    weights = [gen.randint(1, 20) for _ in range(count)]
    total = sum(weights)
    return pl.SparseDist({a: F(w, total) for a, w in zip(atoms, weights)})


def test_criterion_01_tv_oracle_equivalence():
    gen = random.Random(SEED)
    with timed(10) as t:
        for _ in range(500):
            union_cap = gen.randint(2, 12)
            pool = list(range(0, union_cap))
            p = random_dist(gen, pool, max_atoms=union_cap)
            q = random_dist(gen, pool, max_atoms=union_cap)
            assert len(set(p.support()) | set(q.support())) <= 12
            assert pl.tv(p, q) == pl.tv_brute_force(p, q)
    record(1, True, f"500 random pairs, half-L1 == event sup exactly ({t.elapsed:.1f}s)")


def test_criterion_02_finite_class_guarantee():
    fam = pl.anchored_family(F(1, 2), 2)
    m = pl.scheffe_sample_size(len(fam), 0.4, 0.1)
    assert m == 280
    learner = pl.ScheffeLearner(fam)
    worst_ucb = 0.0
    with timed(60) as t:
        for target_idx in range(len(fam)):
            target = fam[target_idx]
            failures = 0
            for trial in range(200):
                s = pl.draw(target, m, pl.RngStream(SEED, 0).child(2, target_idx, trial))
                if pl.tv(learner.run(s), target) > F(2, 5):
                    failures += 1
            ucb = pl.clopper_pearson_upper(failures, 200)
            worst_ucb = max(worst_ucb, ucb)
            assert ucb <= 0.15
    record(2, True, f"m=280, 200 trials/target, worst CP95 UCB {worst_ucb:.4f} <= 0.15 "
                    f"({t.elapsed:.1f}s)")


def test_criterion_03_pairing_identities():
    inst = pl.nfl_distribution_instance(F(1, 2), 2)
    alphabet = instance_alphabet(inst)
    assert len(alphabet) ** 2 == 81 and len(inst.family) == 28
    violations = 0
    pairs = 0
    with timed(5) as t:
        for seq in itertools.product(alphabet, repeat=2):
            fixed = observed_atoms("distribution", seq, 8)
            for member in inst.family.members:
                pairs += 1
                support = frozenset(x for x in member.support() if x != 0)
                partner = pl.swap_distribution(8, seq, member)
                if pl.sequence_prob(member, seq) != pl.sequence_prob(partner, seq):
                    violations += 1
                if fixed <= support:
                    g = pl.swap_set(8, fixed, support)
                    if not (len(g) == len(support)
                            and support & g == fixed
                            and pl.swap_set(8, fixed, g) == support):
                        violations += 1
    assert pairs == 81 * 28
    record(3, violations == 0,
           f"81 sequences x 28 members, {violations} violations ({t.elapsed:.1f}s)")


def test_criterion_04_exact_oracle_values():
    with timed(30) as t:
        inst = pl.nfl_distribution_instance(F(1, 2), 2)
        b0 = pl.symmetrized_lower_bound(inst, 0)
        assert b0 == F(1, 8)

        learners_m2 = [pl.ScheffeLearner(inst.family),
                       pl.EmpiricalBaseline("distribution"),
                       pl.ConstantLearner(inst.family[0], "distribution", name="const-q0")]
        report2 = pl.nfl_exact(inst, learners_m2, 2)
        b2 = report2.symmetrized_bound
        assert F(1, 16) <= b2 <= F(1, 8)
        assert b2 == F(9, 128)  # frozen after one oracle run
        for lr in report2.learners:
            assert lr.class_average >= b2

        learners_m0 = [pl.ConstantLearner(inst.family[0], "distribution", name="const-q0"),
                       pl.ConstantLearner(pl.delta(0), "distribution", name="const-anchor")]
        report0 = pl.nfl_exact(inst, learners_m0, 0)
        for lr in report0.learners:
            assert lr.class_average >= b0
    record(4, True, f"B(m=0)=1/8 exact; B(m=2)={b2} in [1/16,1/8], frozen 9/128; "
                    f"all averages >= B ({t.elapsed:.1f}s)")


def test_criterion_05_markov_conversion():
    assert pl.markov_reverse(F(1, 4), F(1, 8)) == F(1, 7)
    checked = 0
    for task_inst, learners in [
        (pl.nfl_distribution_instance(F(1, 2), 2),
         lambda fam: [pl.ScheffeLearner(fam), pl.EmpiricalBaseline("distribution")]),
        (pl.nfl_classification_instance(F(1, 2), 2),
         lambda fam: [pl.ErmLearner.for_class(fam), pl.EmpiricalBaseline("classification")]),
    ]:
        report = pl.nfl_exact(task_inst, learners(task_inst.family), 2,
                              thresholds=[task_inst.eta / 8, task_inst.eta / 4])
        for lr in report.learners:
            for a in report.thresholds:
                for mean, tail in zip(lr.per_member_mean, lr.tails[a]):
                    assert pl.markov_reverse(mean, a) <= tail
                    checked += 1
    record(5, True, f"markov_reverse(1/4,1/8)=1/7 exact; floor <= exact tail at "
                    f"{checked} (member, threshold) points")


def test_criterion_06_lower_bound_direction():
    inst = pl.nfl_distribution_instance(F(1, 2), 2)
    learner = pl.ScheffeLearner(inst.family)
    delta = pl.markov_reverse(inst.eta / 4, inst.eta / 8)
    assert delta == F(1, 15)
    point = pl.estimate_sample_complexity(inst.family, learner, F(1, 16), delta,
                                          pl.RngStream(SEED, 6), trials=200, m_max=512)
    record(6, point.m_hat >= 2,
           f"estimate at eps=1/16, corrected delta=1/15: m_hat={point.m_hat} >= 2")


def test_criterion_07_truncation_learner():
    staged = pl.StagedClass("distribution",
                            pl.SequenceSpec(pl.Reciprocal(F(8)), pl.IdentityN()))
    eps = F(8)
    learner = pl.TruncationLearner(staged, eps)
    assert staged.spec.settling_index(eps / 4) == 4
    assert len(learner.truncated) == 27

    # exact eps/4-approximation: every excluded stage sits within eps/4 of
    # the base member, in closed form (distance == clamped level), with a
    # materialized spot check on the nearest excluded stages
    for i in range(5, 65):
        level = staged.spec.eta_value(i)
        assert level <= eps / 4
    base = pl.delta(0)
    for i in (5, 6, 16):
        for member in staged.stage(i).members[:4]:
            d = pl.tv(member, base)
            assert d == staged.spec.eta_value(i)
            assert d <= eps / 4

    m = learner.advertised_sample_size(0.1)
    assert m == 18
    target_idx = 26  # stage 4, widest support in the truncation
    target = learner.truncated[target_idx]
    opt, _ = pl.opt_loss(learner.truncated, target)
    successes = 0
    tv_seen = []
    for trial in range(200):
        s = pl.draw(target, m, pl.RngStream(SEED, 0).child(7, target_idx, trial))
        d = pl.tv(learner.run(s), target)
        tv_seen.append(float(d))
        if d <= 3 * opt + eps:
            successes += 1
    rate = successes / 200
    record(7, rate >= 1 - 0.1 - 0.05,
           f"truncate(8) is an exact 2-approximation; MC success {rate:.3f} >= 0.85 "
           f"at advertised m=18 (mean TV {sum(tv_seen)/200:.3f})")


def test_criterion_08_classification_chain():
    inst = pl.nfl_classification_instance(F(1, 2), 2)
    eta = inst.eta
    hyps = hypotheses_of_class(inst.family)
    assert len(hyps) == 16

    # exact decomposition of the 0/1 risk for every (hypothesis, member)
    for member in inst.family.members:
        labels = {x: y for (x, y), _ in member.items if x != 0}
        for h in hyps:
            window_dis = sum(1 for x in range(1, 5) if h(x) != labels[x])
            expected = (1 - eta) * (1 if h(0) != 0 else 0) + eta * F(window_dis, 4)
            assert pl.zero_one_risk(h, member) == expected

    learners = [pl.ErmLearner.for_class(inst.family),
                pl.EmpiricalBaseline("classification"),
                pl.ConstantLearner(pl.BinaryHypothesis(()), "classification",
                                   name="const-zero")]
    bounds = {}
    for m in (0, 2):
        report = pl.nfl_exact(inst, learners, m)
        bounds[m] = report.symmetrized_bound
        for lr in report.learners:
            assert lr.class_average >= report.symmetrized_bound
    record(8, True, f"risk identity exact on 16x16 pairs; averages >= bound at "
                    f"m=0 (B={bounds[0]}) and m=2 (B={bounds[2]})")


def test_criterion_09_real_valued_reduction():
    loss = pl.AbsoluteLoss()
    eta = F(1, 2)
    width = 4
    data = pl.plateau_data_family(loss, eta, width)
    hyps = pl.plateau_family(loss, eta, width)
    pairs = 0
    for target in data.members:
        plateau = {x for (x, b), _ in target.items if b == 1}
        for h in hyps.members:
            ones = {x for x, _ in h.values}
            dis = len(ones ^ plateau)
            val = pl.real_risk(data.real_ctx, h, target)
            assert val == eta * F(dis, width)
            pairs += 1
    h0 = hyps[0]
    for target in data.members:
        assert pl.real_risk(data.real_ctx, h0, target) <= eta
    record(9, True, f"{pairs} loss values equal eta * disagreement fraction exactly; "
                    f"zero hypothesis risk <= eta on all {len(data)} targets")


def test_criterion_10_diagonalization():
    gen = random.Random(SEED + 10)
    failures = 0
    for _ in range(100):
        count = gen.randint(1, 8)
        horizon = gen.randint(max(count, 4), 14)
        tables = [pl.FunctionTable.from_values(
            [gen.randint(0, 50) for _ in range(horizon)]) for _ in range(count)]
        diag = pl.diagonalize(tables)
        for pos, t in enumerate(tables, start=1):
            cert = pl.dominates_prefix(diag, t)
            if not (cert.dominates and cert.witness <= pos):
                failures += 1
    record(10, failures == 0, f"100 random lists, diagonal dominates every input "
                              f"with witness <= its position ({failures} failures)")


def test_criterion_11_cofinality_pipeline():
    g = pl.FunctionTable.from_rule(lambda k: k * k, 5, rule=("poly", 2))
    rep = pl.synthesize(g, rng=pl.RngStream(SEED, 11), spot_check_k=2,
                        trials=120, m_max=256)
    assert rep.lower_bounds.values == (4, 10, 20, 34, 52)
    assert all(rep.lower_bounds.at(k) > g.at(k) for k in range(1, 6))
    assert rep.certificate.dominates
    m_hat = rep.spot_check["point"]["m_hat"]
    assert rep.spot_check["delta"] == "1/7"  # corrected Markov delta at level 1
    record(11, m_hat > 4, f"LB=(4,10,20,34,52) > g; spot check at k=2: "
                          f"m_hat={m_hat} > g(2)=4 under corrected delta")


def test_criterion_12_reproducibility(tmp_path):
    shipped = [
        ("construct", "construct_small.json"),
        ("nfl-exact", "nfl_exact_small.json"),
        ("dominate", "dominate_squares.json"),
        ("synthesize", "synthesize_squares.json"),
        ("learn", "learn_truncation.json"),
        ("sample-complexity", "sample_complexity_tiny.json"),
        ("nfl-mc", "nfl_mc_small.json"),
    ]
    for sub, name in shipped:
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}"
            code = cli.main([sub, "--config", str(CONFIG_DIR / name), "--out", str(out)])
            assert code == 0, f"{name} exited {code}"
            outs.append(out)
        bodies = {}
        for out in outs:
            for f in sorted(out.iterdir()):
                if f.name == "manifest.json":
                    continue
                bodies.setdefault(f.name, []).append(f.read_bytes())
        for fname, pair in bodies.items():
            assert len(pair) == 2 and pair[0] == pair[1], f"{name}/{fname} differs"
    record(12, True, f"{len(shipped)} shipped configs rerun to byte-identical "
                     f"report bodies")


def test_summary():
    print("\n" + "=" * 64)
    for line in _results:
        print(line)
    print("=" * 64)
