"""Learners: Yatracos sets, minimum-distance selection and its deviation
bound, ERM, union aggregation, baselines, loss evaluators."""

import itertools
from fractions import Fraction as F

import pytest

import paclab as pl
from paclab.errors import EmptyClass, EmptySample, MixedTasks, SampleTooSmall
from paclab.losses import hypotheses_of_class

SEED = 20260808


def mix_anchor(eta, atoms):
    return pl.mixture([(1 - F(eta), pl.delta(0)), (F(eta), pl.uniform(atoms))])


class TestYatracos:
    def test_point_masses(self):
        assert pl.yatracos_set(pl.delta(0), pl.delta(1)) == {0}

    def test_self_is_empty(self):
        p = pl.uniform([1, 2])
        assert pl.yatracos_set(p, p) == frozenset()

    def test_hand_example(self):
        p = mix_anchor(F(1, 2), [1, 2])
        q = mix_anchor(F(1, 2), [2, 3])
        assert pl.yatracos_set(p, q) == {1}

    def test_tv_attained_on_yatracos_set(self):
        p = mix_anchor(F(1, 3), [1, 2, 5])
        q = mix_anchor(F(2, 3), [2, 3])
        s = pl.yatracos_set(p, q)
        assert pl.event_prob(p, s) - pl.event_prob(q, s) == pl.tv(p, q)


class TestScheffe:
    def test_singleton_class(self):
        cls = pl.FiniteClass("distribution", [pl.uniform([5])])
        assert pl.ScheffeLearner(cls).run([1, 2, 3]) == pl.uniform([5])

    def test_two_point_example(self):
        cls = pl.FiniteClass("distribution", [pl.delta(0), pl.delta(1)])
        assert pl.ScheffeLearner(cls).run([0, 0, 0]) == pl.delta(0)

    def test_empty_inputs(self):
        with pytest.raises(EmptyClass):
            pl.ScheffeEngine([])
        cls = pl.FiniteClass("distribution", [pl.delta(0), pl.delta(1)])
        with pytest.raises(EmptySample):
            pl.ScheffeLearner(cls).run([])

    def test_properness(self):
        fam = pl.anchored_family(F(1, 2), 3)
        learner = pl.ScheffeLearner(fam)
        for t in range(20):
            s = pl.draw(fam[t % len(fam)], 7, pl.RngStream(SEED, t))
            assert learner.run(s) in fam.members

    def test_determinism(self):
        fam = pl.anchored_family(F(1, 2), 3)
        s = pl.draw(fam[4], 30, pl.RngStream(SEED, 77))
        a = pl.ScheffeLearner(fam).run(s)
        b = pl.ScheffeLearner(fam).run(s)
        assert a == b

    def test_numpy_and_fraction_paths_agree(self):
        fam = pl.anchored_family(F(1, 2), 8, size_filter=2)
        engine = pl.ScheffeEngine(fam.members)
        assert engine._use_numpy
        for t in range(25):
            s = pl.draw(fam[(5 * t) % 28], 6, pl.RngStream(SEED, t))
            fast = engine.select(s)
            engine2 = pl.ScheffeEngine(fam.members)
            engine2._use_numpy = False
            assert fast == engine2.select(s)

    def test_int64_overflow_path_is_exact_argmin(self):
        # the denominator fits int64 but denom * m does not stay below 2^62
        # once m >= 3 (and overflows int64 at m = 5), so selection runs on
        # Python ints; it must match the Fraction argmin
        q = 2 ** 61 - 1
        fam = [pl.SparseDist({0: F(k, q), 1: 1 - F(k, q)}) for k in (1, 2, q - 1)]
        engine = pl.ScheffeEngine(fam)
        assert engine._use_numpy and engine.denom * 3 >= 2 ** 62
        for m in (3, 5):
            for seq in itertools.product([0, 1], repeat=m):
                devs = [max(abs(pl.event_prob(p, s) - pl.empirical_measure(seq, s))
                            for s in engine.sets) for p in fam]
                assert engine.select(seq) == devs.index(min(devs))

    def test_sample_size_formula(self):
        assert pl.scheffe_sample_size(3, 0.4, 0.1) == 280

    def test_deviation_bound_exhaustive(self):
        # TV(chosen, P) <= 3*min TV(member, P) + 4*max_A |P(A) - empirical(A)|
        # checked exactly over every sample sequence, m <= 3, support <= 9.
        fam = pl.anchored_family(F(1, 2), 3)  # 7 members
        engine = pl.ScheffeEngine(fam.members)
        targets = list(fam.members) + [
            pl.uniform([0, 1, 2, 3]),
            pl.SparseDist({0: F(1, 10), 1: F(2, 10), 2: F(3, 10), 3: F(4, 10)}),
        ]
        support = list(range(0, 4))
        for m in (1, 2, 3):
            for seq in itertools.product(support, repeat=m):
                chosen = engine.select(seq)
                for target in targets:
                    opt = min(pl.tv(q, target) for q in fam.members)
                    gap = engine.empirical_gap(target, seq)
                    assert pl.tv(fam.members[chosen], target) <= 3 * opt + 4 * gap


class TestTruncationLearner:
    def staged(self):
        return pl.StagedClass("distribution",
                              pl.SequenceSpec(pl.Reciprocal(F(8)), pl.IdentityN()))

    def test_truncates_and_learns(self):
        learner = pl.TruncationLearner(self.staged(), 8)
        assert len(learner.truncated) == 27
        assert learner.advertised_sample_size(0.1) == 18
        target = learner.truncated[26]
        s = pl.draw(target, 18, pl.RngStream(SEED, 5))
        assert learner.run(s) in learner.truncated.members

    def test_nonvanishing(self):
        staged = pl.StagedClass("distribution",
                                pl.SequenceSpec(pl.Constant(F(1, 3)), pl.IdentityN()))
        with pytest.raises(pl.errors.NonVanishing):
            pl.TruncationLearner(staged, F(1, 2))

    def test_nontrivial_accuracy_learning(self):
        # levels 1/(2i): truncation at eps=1/2 keeps stages 1..4; at the
        # advertised size the realizable guarantee TV <= eps holds often
        staged = pl.StagedClass("distribution",
                                pl.SequenceSpec(pl.Reciprocal(F(1, 2)), pl.IdentityN()))
        learner = pl.TruncationLearner(staged, F(1, 2))
        assert len(learner.truncated) == 27
        m = learner.advertised_sample_size(0.2)
        target = learner.truncated[26]  # stage 4, A=[1,2,3,4], level 1/8
        ok = 0
        trials = 30
        for t in range(trials):
            s = pl.draw(target, m, pl.RngStream(SEED, 1000 + t))
            if pl.tv(learner.run(s), target) <= F(1, 2):
                ok += 1
        assert ok >= trials * 0.8


class TestErm:
    def test_zero_error_hypothesis_wins(self):
        fam = pl.labeled_anchored_family(F(1, 2), 2)
        erm = pl.ErmLearner.for_class(fam)
        sample = pl.Sample(((1, 1), (2, 1), (3, 0), (4, 0)))
        h = erm.run(sample)
        assert erm.empirical_risk(h, sample.atoms) == 0
        assert h.ones == (1, 2)

    def test_tie_breaks_to_lowest_index(self):
        hyps = [pl.BinaryHypothesis.from_set([1]), pl.BinaryHypothesis.from_set([2])]
        erm = pl.ErmLearner(hyps, "classification")
        # both have empirical risk 1/2 on this sample
        out = erm.run(pl.Sample(((1, 1), (2, 1))))
        assert out is hyps[0]

    def test_empty_sample_returns_first(self):
        hyps = [pl.BinaryHypothesis.from_set([2]), pl.BinaryHypothesis.from_set([1])]
        erm = pl.ErmLearner(hyps, "classification")
        assert erm.run(pl.Sample(())) is hyps[0]

    def test_absolute_loss_example(self):
        fam = pl.plateau_family(pl.AbsoluteLoss(), F(1, 2), 1)
        erm = pl.ErmLearner.for_class(fam)
        out = erm.run(pl.Sample(((1, 1), (1, 1))))  # y = 1/2 twice
        assert out.values == ((1, F(1, 2)),)

    def test_erm_is_global_minimizer(self):
        fam = pl.labeled_anchored_family(F(1, 2), 2)
        erm = pl.ErmLearner.for_class(fam)
        sample = pl.Sample(((1, 0), (1, 1), (2, 1), (4, 0), (3, 1)))
        best = min(erm.empirical_risk(h, sample.atoms) for h in erm.hypotheses)
        assert erm.empirical_risk(erm.run(sample), sample.atoms) == best


class TestUnion:
    def test_single_learner_equals_run_on_first_half(self):
        fam = pl.anchored_family(F(1, 2), 2)
        inner = pl.ScheffeLearner(fam)
        union = pl.UnionLearner([inner])
        s = pl.draw(fam[2], 9, pl.RngStream(SEED, 8))
        assert union.run(s) == inner.run(pl.Sample(s.atoms[:5]))

    def test_duplicate_learners_match_single(self):
        fam = pl.anchored_family(F(1, 2), 2)
        inner = pl.ScheffeLearner(fam)
        s = pl.draw(fam[1], 12, pl.RngStream(SEED, 9))
        assert pl.UnionLearner([inner] * 3).run(s) == pl.UnionLearner([inner]).run(s)

    def test_mixed_tasks_rejected(self):
        fam = pl.anchored_family(F(1, 2), 2)
        erm = pl.ErmLearner([pl.BinaryHypothesis(())], "classification")
        with pytest.raises(MixedTasks):
            pl.UnionLearner([pl.ScheffeLearner(fam), erm])

    def test_sample_too_small(self):
        fam = pl.anchored_family(F(1, 2), 2)
        with pytest.raises(SampleTooSmall):
            pl.UnionLearner([pl.ScheffeLearner(fam)]).run(pl.Sample((0,)))

    def test_selection_respects_deviation_bound(self):
        # selected candidate's true loss <= 3*best candidate + 4*selection gap
        fam = pl.anchored_family(F(1, 2), 3)
        learners = [pl.ScheffeLearner(fam),
                    pl.ConstantLearner(fam[0], "distribution"),
                    pl.ConstantLearner(pl.delta(0), "distribution")]
        union = pl.UnionLearner(learners)
        target = fam[6]
        for t in range(10):
            s = pl.draw(target, 10, pl.RngStream(SEED, 300 + t))
            cut = (len(s.atoms) + 1) // 2
            cands = [ln.run(pl.Sample(s.atoms[:cut])) for ln in learners]
            engine = pl.ScheffeEngine(cands)
            chosen = union.run(s)
            best = min(pl.tv(c, target) for c in cands)
            gap = engine.empirical_gap(target, s.atoms[cut:])
            assert pl.tv(chosen, target) <= 3 * best + 4 * gap


class TestBaselinesAndLosses:
    def test_distribution_baseline(self):
        out = pl.EmpiricalBaseline("distribution").run(pl.Sample((1, 1, 2)))
        assert dict(out.items) == {1: F(2, 3), 2: F(1, 3)}

    def test_plurality_labeler(self):
        base = pl.EmpiricalBaseline("classification")
        out = base.run(pl.Sample(((1, 1), (1, 1), (1, 0), (2, 0))))
        assert out.ones == (1,)

    def test_bayes_ties_to_zero(self):
        p = pl.SparseDist({(1, 0): F(1, 2), (1, 1): F(1, 2)})
        assert pl.bayes_labeler(p).ones == ()

    def test_excess_risk_of_bayes_is_zero(self):
        fam = pl.labeled_anchored_family(F(1, 2), 2)
        for member in fam.members[:4]:
            assert pl.zero_one_excess(pl.bayes_labeler(member), member) == 0

    def test_h_zero_risk_at_most_level(self):
        # realizable plateau targets: the zero hypothesis misses only the
        # plateau, paying the level on it
        loss = pl.AbsoluteLoss()
        fam = pl.plateau_data_family(loss, F(1, 2), 4)
        h0 = pl.plateau_family(loss, F(1, 2), 4)[0]
        for target in fam.members:
            assert pl.real_risk(fam.real_ctx, h0, target) <= F(1, 2)

    def test_opt_loss_witness(self):
        fam = pl.anchored_family(F(1, 2), 2)
        val, idx = pl.opt_loss(fam, fam[1])
        assert val == 0 and idx == 1

    def test_hypotheses_of_class_strict_inequality(self):
        fam = pl.labeled_anchored_family(F(1, 2), 2)
        hyps = hypotheses_of_class(fam)
        assert len(hyps) == 16
        assert hyps[0].ones == ()
        assert hyps[0b1111].ones == (1, 2, 3, 4)


class TestDeterminismAcrossLearners:
    def test_all_learners_pure(self):
        fam = pl.labeled_anchored_family(F(1, 2), 2)
        sample = pl.draw(fam[9], 12, pl.RngStream(SEED, 55))
        for make in (lambda: pl.ErmLearner.for_class(fam),
                     lambda: pl.EmpiricalBaseline("classification")):
            assert make().run(sample) == make().run(sample)

    def test_duplicate_members_tie_to_first(self):
        dup = pl.FiniteClass("distribution", [pl.uniform([1]), pl.uniform([1])])
        engine = pl.ScheffeEngine(dup.members)
        assert engine.select([1, 1]) == 0

    def test_union_achieves_selection_guarantee_mc(self):
        # one constituent targets the right class; the union should land
        # within the 3-agnostic guarantee at moderate sample sizes
        fam = pl.anchored_family(F(1, 2), 2)
        right = pl.ScheffeLearner(fam)
        wrong = pl.ConstantLearner(pl.delta(7), "distribution", name="const-off")
        union = pl.UnionLearner([wrong, right])
        target = fam[2]
        eps = F(2, 5)
        hits = 0
        for t in range(40):
            s = pl.draw(target, 160, pl.RngStream(SEED, 400 + t))
            if pl.tv(union.run(s), target) <= eps:
                hits += 1
        assert hits >= 36


class TestAdvertisedRateMc:
    def test_finite_class_rate_at_larger_sample(self):
        # at m=400 the empirical failure rate over 200 seeded trials stays
        # under the advertised 0.1
        fam = pl.anchored_family(F(1, 2), 2)
        learner = pl.ScheffeLearner(fam)
        target = fam[2]
        failures = 0
        for t in range(200):
            s = pl.draw(target, 400, pl.RngStream(SEED, 0).child(99, t))
            if pl.tv(learner.run(s), target) > F(2, 5):
                failures += 1
        assert failures / 200 <= 0.1
