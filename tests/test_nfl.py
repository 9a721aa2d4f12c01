"""Lower-bound harness: pairing contract, measure preservation, exact
oracles, Markov conversion, Monte Carlo cross-checks, complexity search."""

import itertools
from fractions import Fraction as F

import pytest

import paclab as pl
from paclab.errors import (
    BadPrecondition,
    BadRange,
    EmptyEstimate,
    EnumerationBudgetExceeded,
    SearchBoundExceeded,
)
from paclab.nfl import (
    instance_alphabet,
    max_certifiable_failures,
    observed_atoms,
    swap_member_index,
)

SEED = 20260808


def all_pairs(inst, m):
    """(sequence, member index) pairs over the full alphabet."""
    alphabet = instance_alphabet(inst)
    for seq in itertools.product(alphabet, repeat=m):
        for i in range(len(inst.family)):
            yield seq, i


class TestSwapSet:
    def test_fixed_point_when_everything_observed(self):
        a = frozenset({1, 2})
        assert pl.swap_set(8, a, a) == a

    def test_contract_small_example(self):
        g = pl.swap_set(8, frozenset({1}), frozenset({1, 2}))
        assert len(g) == 2 and g & {1, 2} == {1}
        assert pl.swap_set(8, frozenset({1}), g) == {1, 2}

    @pytest.mark.parametrize("n", [1, 2])
    def test_contract_exhaustive(self, n):
        base = 4 * n
        window = list(range(1, base + 1))
        for csize in range(0, n + 1):
            for fixed in itertools.combinations(window, csize):
                fixed = frozenset(fixed)
                for rest in itertools.combinations(sorted(set(window) - fixed), n - csize):
                    a = fixed | frozenset(rest)
                    g = pl.swap_set(base, fixed, a)
                    assert len(g) == len(a)
                    assert a & g == fixed
                    assert pl.swap_set(base, fixed, g) == a
        cache = pl.nfl._slice_matching.cache_info()
        assert cache.maxsize == pl.nfl.MATCHING_CACHE_SIZE
        assert cache.currsize <= cache.maxsize

    def test_overflow_partner_on_odd_slice(self):
        # window 8, one fixed atom: seven candidate sets, so one of them
        # must pair outside the window
        fixed = frozenset({3})
        partners = {pl.swap_set(8, fixed, fixed | {x}) for x in range(1, 9) if x != 3}
        overflow = [p for p in partners if max(p) > 8]
        assert len(overflow) == 1
        assert len(partners) == 7

    def test_preconditions(self):
        with pytest.raises(BadPrecondition):
            pl.swap_set(8, frozenset({9}), frozenset({9, 1}))
        with pytest.raises(BadPrecondition):
            pl.swap_set(8, frozenset({1}), frozenset({2, 3}))
        with pytest.raises(BadPrecondition):
            pl.swap_set(8, frozenset(), frozenset({1, 2, 3, 4, 5}))


class TestSwapDistribution:
    def test_escape_when_sample_outside_support(self):
        inst = pl.nfl_distribution_instance(F(1, 2), 2)
        member = inst.family[0]  # A = [1, 2]
        out = pl.swap_distribution(8, (3, 0), member)
        assert out == pl.delta(9)

    def test_measure_preservation_exhaustive(self):
        inst = pl.nfl_distribution_instance(F(1, 2), 2)
        for seq, i in all_pairs(inst, 2):
            member = inst.family[i]
            partner = pl.swap_distribution(8, seq, member)
            assert pl.sequence_prob(member, seq) == pl.sequence_prob(partner, seq)

    def test_flip_distance_closed_form(self):
        inst = pl.nfl_distribution_instance(F(1, 2), 2)
        for seq, i in all_pairs(inst, 2):
            member = inst.family[i]
            support = frozenset(x for x in member.support() if x != 0)
            fixed = observed_atoms("distribution", seq, 8)
            if not fixed <= support:
                continue
            partner = pl.swap_distribution(8, seq, member)
            assert pl.tv(member, partner) == F(1, 2) * F(len(support - fixed), 2)

    def test_swap_preserves_anchor_mass(self):
        inst = pl.nfl_distribution_instance(F(1, 3), 2)
        member = inst.family[5]
        partner = pl.swap_distribution(8, (0, 0), member)
        assert partner.prob(0) == F(2, 3)


class TestSymmetrizedBound:
    def test_distribution_m0_is_quarter_level(self):
        inst = pl.nfl_distribution_instance(F(1, 2), 2)
        assert pl.symmetrized_lower_bound(inst, 0) == F(1, 8)

    def test_distribution_m2_frozen(self):
        inst = pl.nfl_distribution_instance(F(1, 2), 2)
        assert pl.symmetrized_lower_bound(inst, 2) == F(9, 128)

    def test_point_mass_family_bound_vanishes(self):
        # level 1 with singleton supports: one draw pins the member, the
        # swap fixes everything, and the bound is exactly zero
        inst = pl.nfl_distribution_instance(F(1), 1)
        assert pl.symmetrized_lower_bound(inst, 1) == 0

    def test_classification_values(self):
        inst = pl.nfl_classification_instance(F(1, 2), 2)
        assert pl.symmetrized_lower_bound(inst, 0) == F(1, 8)
        assert pl.symmetrized_lower_bound(inst, 2) == F(49, 512)

    def test_real_m0(self):
        inst = pl.nfl_real_instance(pl.AbsoluteLoss(), F(1, 2), 4)
        assert pl.symmetrized_lower_bound(inst, 0) == F(1, 8)

    def test_budget(self):
        inst = pl.nfl_distribution_instance(F(1, 2), 2)
        with pytest.raises(EnumerationBudgetExceeded):
            pl.symmetrized_lower_bound(inst, 10, budget=1000)

    def test_halved_bound_stays_below_within_family_floor(self):
        # the fully within-family chain value (swaps that leave the family
        # contribute nothing) still dominates the reported halved bound
        inst = pl.nfl_distribution_instance(F(1, 2), 2)
        chain = F(0)
        for i, member in enumerate(inst.family.members):
            for seq in itertools.product(member.support(), repeat=2):
                w = pl.sequence_prob(member, seq)
                j = swap_member_index(inst, i, seq)
                if j is not None:
                    chain += w * pl.tv(member, inst.family[j])
        chain /= 2 * len(inst.family)
        assert pl.symmetrized_lower_bound(inst, 2) <= chain


class TestExactOracle:
    def test_constant_learner_closed_form(self):
        inst = pl.nfl_distribution_instance(F(1, 2), 2)
        const = pl.ConstantLearner(inst.family[0], "distribution")
        report = pl.nfl_exact(inst, [const], 0)
        expected = sum((pl.tv(q, inst.family[0]) for q in inst.family.members),
                       F(0)) / len(inst.family)
        assert report.learners[0].class_average == expected == F(3, 8)

    def test_every_learner_above_bound(self):
        inst = pl.nfl_distribution_instance(F(1, 2), 2)
        learners = [pl.ScheffeLearner(inst.family),
                    pl.EmpiricalBaseline("distribution"),
                    pl.ConstantLearner(pl.delta(0), "distribution", name="const-anchor")]
        report = pl.nfl_exact(inst, learners, 2)
        for lr in report.learners:
            assert lr.class_average >= report.symmetrized_bound

    def test_markov_floor_below_exact_tails(self):
        inst = pl.nfl_distribution_instance(F(1, 2), 2)
        report = pl.nfl_exact(inst, [pl.ScheffeLearner(inst.family)], 2,
                              thresholds=[F(1, 16), F(1, 8)])
        lr = report.learners[0]
        for a in report.thresholds:
            for mean, tail in zip(lr.per_member_mean, lr.tails[a]):
                assert pl.markov_reverse(mean, a) <= tail

    def test_average_never_exceeds_max(self):
        inst = pl.nfl_classification_instance(F(1, 2), 2)
        erm = pl.ErmLearner.for_class(inst.family)
        report = pl.nfl_exact(inst, [erm], 2)
        lr = report.learners[0]
        assert lr.class_average <= lr.class_max
        assert all(0 <= v <= 1 for v in lr.per_member_mean)

    def test_report_serializes(self):
        inst = pl.nfl_distribution_instance(F(1, 2), 2)
        report = pl.nfl_exact(inst, [pl.ConstantLearner(pl.delta(0), "distribution")], 0)
        obj = report.to_json_obj()
        assert obj["symmetrized_bound"] == "1/8"
        assert obj["reference_lines"]["markov_delta"] == "1/15"


class TestMarkov:
    def test_reference_point(self):
        assert pl.markov_reverse(F(1, 4), F(1, 8)) == F(1, 7)

    def test_degenerate_points(self):
        assert pl.markov_reverse(F(1, 8), F(1, 8)) == 0
        assert pl.markov_reverse(1, F(1, 2)) == 1
        assert pl.markov_reverse(0, F(1, 2)) == 0

    def test_bad_range(self):
        with pytest.raises(BadRange):
            pl.markov_reverse(F(1, 2), 1)
        with pytest.raises(BadRange):
            pl.markov_reverse(2, F(1, 2))


class TestClopperPearson:
    def test_zero_failures(self):
        assert pl.clopper_pearson_lower(0, 200) == 0.0
        assert 0.015 < pl.clopper_pearson_upper(0, 200) < 0.02

    def test_all_failures(self):
        assert pl.clopper_pearson_upper(50, 50) == 1.0
        assert pl.clopper_pearson_lower(50, 50) > 0.9

    def test_monotone_in_failures(self):
        uppers = [pl.clopper_pearson_upper(x, 100) for x in range(0, 20)]
        assert all(a < b for a, b in zip(uppers, uppers[1:]))

    def test_interval_contains_mle(self):
        for x in (0, 3, 17, 99):
            lo = pl.clopper_pearson_lower(x, 120)
            hi = pl.clopper_pearson_upper(x, 120)
            assert lo <= x / 120 <= hi

    def test_max_certifiable(self):
        mc = max_certifiable_failures(200, 1 / 15)
        assert pl.clopper_pearson_upper(mc, 200) <= 1 / 15
        assert pl.clopper_pearson_upper(mc + 1, 200) > 1 / 15


class TestMcRisk:
    def test_zero_trials(self):
        inst = pl.nfl_distribution_instance(F(1, 2), 2)
        with pytest.raises(EmptyEstimate):
            pl.mc_risk(inst.family, pl.ScheffeLearner(inst.family), 2, 0,
                       pl.RngStream(SEED, 0), F(1, 16))

    def test_degenerate_class_zero_risk(self):
        cls = pl.FiniteClass("distribution", [pl.delta(0)])
        stats = pl.mc_risk(cls, pl.ScheffeLearner(cls), 3, 50,
                           pl.RngStream(SEED, 1), F(1, 16))
        assert stats[0].mean_error == 0.0
        assert stats[0].failures == 0

    def test_matches_exact_oracle(self):
        inst = pl.nfl_distribution_instance(F(1, 2), 2)
        learner = pl.ScheffeLearner(inst.family)
        report = pl.nfl_exact(inst, [learner], 2, thresholds=[F(1, 16)])
        picked = [0, 9, 27]
        trials = 3000
        stats = pl.mc_risk(inst.family, learner, 2, trials, pl.RngStream(SEED, 2),
                           F(1, 16), member_indices=picked)
        for stat in stats:
            # cross-validate at a 99.9% band so the check is about bias, not
            # border-of-interval luck (the run is seeded either way)
            lo = pl.clopper_pearson_lower(stat.failures, trials, alpha=0.001)
            hi = pl.clopper_pearson_upper(stat.failures, trials, alpha=0.001)
            exact_tail = float(report.learners[0].tails[F(1, 16)][stat.member_index])
            assert lo <= exact_tail <= hi
            exact_mean = float(report.learners[0].per_member_mean[stat.member_index])
            assert abs(stat.mean_error - exact_mean) < 0.05

    def test_deterministic(self):
        inst = pl.nfl_distribution_instance(F(1, 2), 2)
        learner = pl.ScheffeLearner(inst.family)
        a = pl.mc_risk(inst.family, learner, 2, 40, pl.RngStream(SEED, 3), F(1, 16),
                       member_indices=[5])
        b = pl.mc_risk(inst.family, learner, 2, 40, pl.RngStream(SEED, 3), F(1, 16),
                       member_indices=[5])
        assert a[0].mean_error == b[0].mean_error
        assert a[0].failures == b[0].failures


class TestEstimateSampleComplexity:
    def test_trivial_singleton(self):
        cls = pl.FiniteClass("distribution", [pl.delta(0)])
        pt = pl.estimate_sample_complexity(cls, pl.ScheffeLearner(cls), F(1, 10),
                                           F(1, 10), pl.RngStream(SEED, 4),
                                           trials=80, m_max=16)
        assert pt.m_hat == 1

    def test_too_few_trials_for_delta(self):
        cls = pl.FiniteClass("distribution", [pl.delta(0)])
        with pytest.raises(SearchBoundExceeded):
            pl.estimate_sample_complexity(cls, pl.ScheffeLearner(cls), F(1, 10),
                                          F(1, 1000), pl.RngStream(SEED, 5),
                                          trials=20, m_max=16)

    def test_search_bound_carries_bracket(self):
        inst = pl.nfl_distribution_instance(F(1, 2), 2)
        with pytest.raises(SearchBoundExceeded) as exc:
            pl.estimate_sample_complexity(inst.family, pl.ScheffeLearner(inst.family),
                                          F(1, 16), F(1, 15), pl.RngStream(SEED, 6),
                                          trials=120, m_max=2)
        assert exc.value.last_m == 2
        assert exc.value.detail["last_failed"] == 2

    def test_curve_csv_columns(self):
        pt = pl.CurvePoint(k=2, eps=F(1, 2), delta=F(1, 7), m_hat=9, trials=120,
                           worst_failures=3, worst_ucb=0.07, targets_tested=28)
        csv = pl.ComplexityCurve([pt]).to_csv()
        assert csv.splitlines()[0] == "k,epsilon,delta,m_hat,trials,failures,ucb"
        assert csv.splitlines()[1].startswith("2,1/2,1/7,9,120,3,")


class TestRealTaskOracle:
    def test_real_exact_oracle_above_bound(self):
        loss = pl.AbsoluteLoss()
        inst = pl.nfl_real_instance(loss, F(1, 2), 4)
        erm = pl.ErmLearner.for_class(pl.plateau_family(loss, F(1, 2), 4))
        base = pl.EmpiricalBaseline("real", real_ctx=inst.family.real_ctx)
        report = pl.nfl_exact(inst, [erm, base], 2)
        for lr in report.learners:
            assert lr.class_average >= report.symmetrized_bound
        # proper outputs keep every pointwise loss on the eta grid, so each
        # per-member mean is a likelihood-weighted average of eta*d/4 values
        grid = [F(1, 2) * F(d, 4) for d in range(5)]
        for h in pl.plateau_family(loss, F(1, 2), 4).members:
            for target in inst.family.members:
                assert pl.real_risk(inst.family.real_ctx, h, target) in grid

    def test_real_bound_m2_regression(self):
        # uniform marginal over 4 points: E[pair distance] at m=2 is
        # (1/4)(3/8) + (3/4)(1/4) = 9/32, and a quarter of that is 9/128
        inst = pl.nfl_real_instance(pl.AbsoluteLoss(), F(1, 2), 4)
        assert pl.symmetrized_lower_bound(inst, 2) == F(9, 128)


class TestEstimateOtherTasks:
    def test_classification_branch(self):
        fam = pl.labeled_anchored_family(F(1, 2), 1)
        erm = pl.ErmLearner.for_class(fam)
        pt = pl.estimate_sample_complexity(fam, erm, F(1, 4), F(1, 10),
                                           pl.RngStream(SEED, 21), trials=80,
                                           m_max=256)
        assert pt.m_hat >= 1

    def test_real_branch(self):
        loss = pl.AbsoluteLoss()
        fam = pl.plateau_data_family(loss, F(1, 2), 2)
        erm = pl.ErmLearner.for_class(pl.plateau_family(loss, F(1, 2), 2))
        pt = pl.estimate_sample_complexity(fam, erm, F(1, 4), F(1, 10),
                                           pl.RngStream(SEED, 22), trials=80,
                                           m_max=256)
        assert pt.m_hat >= 1

    def test_scheffe_within_advertised_bound(self):
        fam = pl.anchored_family(F(1, 2), 2)
        advertised = pl.scheffe_sample_size(len(fam), 0.4, 0.1)
        pt = pl.estimate_sample_complexity(fam, pl.ScheffeLearner(fam), F(2, 5),
                                           F(1, 10), pl.RngStream(SEED, 23),
                                           trials=150, m_max=512)
        assert pt.m_hat <= advertised


class TestWiderPairingSlices:
    def test_contract_on_three_element_sets(self):
        # window 12, |A| = 3: checks the greedy matching beyond the
        # exhaustively-swept small windows
        base = 12
        for fixed in (frozenset(), frozenset({1}), frozenset({5, 7})):
            rest_pool = sorted(set(range(1, base + 1)) - fixed)
            for rest in itertools.combinations(rest_pool, 3 - len(fixed)):
                a = fixed | frozenset(rest)
                g = pl.swap_set(base, fixed, a)
                assert len(g) == 3
                assert a & g == fixed
                assert pl.swap_set(base, fixed, g) == a

    def test_even_slices_stay_in_window(self):
        # C(8,2) is even and greedy matches it perfectly, so no partner
        # ever needs an overflow atom
        for fixed in (frozenset(),):
            for rest in itertools.combinations(range(1, 9), 2):
                g = pl.swap_set(8, fixed, frozenset(rest))
                assert max(g) <= 8


class TestMcClassification:
    def test_matches_exact_on_labeled_task(self):
        inst = pl.nfl_classification_instance(F(1, 2), 2)
        erm = pl.ErmLearner.for_class(inst.family)
        report = pl.nfl_exact(inst, [erm], 2, thresholds=[F(1, 16)])
        stats = pl.mc_risk(inst.family, erm, 2, 2000, pl.RngStream(SEED, 31),
                           F(1, 16), member_indices=[0, 5, 15])
        for stat in stats:
            lo = pl.clopper_pearson_lower(stat.failures, 2000, alpha=0.001)
            hi = pl.clopper_pearson_upper(stat.failures, 2000, alpha=0.001)
            exact = float(report.learners[0].tails[F(1, 16)][stat.member_index])
            assert lo <= exact <= hi


class TestRuleJsonRoundtrip:
    def test_eta_rules(self):
        from paclab.families import eta_rule_from_json
        rules = [pl.Constant(F(1, 3)), pl.Reciprocal(F(8)),
                 pl.EtaTable((F(1, 2), F(1, 4))), pl.PolyWitness((1, 4, 9, 16), 3)]
        for rule in rules:
            back = eta_rule_from_json(rule.to_json_obj())
            assert back == rule

    def test_n_rules(self):
        from paclab.families import n_rule_from_json
        rules = [pl.IdentityN(), pl.AffineOfTarget((1, 4, 9)), pl.NTable((2, 4, 8))]
        for rule in rules:
            assert n_rule_from_json(rule.to_json_obj()) == rule


class TestClassificationChainTightness:
    def test_full_floor_certified_and_tight(self):
        # label flips never leave the labeled family, so twice the reported
        # bound is a floor for every learner; ERM and the plurality
        # baseline achieve it with equality here
        inst = pl.nfl_classification_instance(F(1, 2), 2)
        learners = [pl.ErmLearner.for_class(inst.family),
                    pl.EmpiricalBaseline("classification")]
        for m in (0, 2):
            rep = pl.nfl_exact(inst, learners, m)
            floor = 2 * rep.symmetrized_bound
            for lr in rep.learners:
                assert lr.class_average >= floor
        rep2 = pl.nfl_exact(inst, learners, 2)
        assert rep2.learners[0].class_average == 2 * rep2.symmetrized_bound == F(49, 256)


class TestObservedAtoms:
    def test_derives_fixed_set(self):
        assert observed_atoms("distribution", (0, 3, 3, 9), 8) == {3}


class TestAlternativeEnumeration:
    def test_bound_agrees_with_full_alphabet_sweep(self):
        # recompute the symmetrized bound by sweeping the full alphabet
        # instead of each member's support; zero-likelihood sequences must
        # contribute nothing
        for inst in (pl.nfl_distribution_instance(F(1, 2), 2),
                     pl.nfl_classification_instance(F(1, 2), 2)):
            for m in (0, 1, 2):
                total = F(0)
                alphabet = instance_alphabet(inst)
                for i, member in enumerate(inst.family.members):
                    for seq in itertools.product(alphabet, repeat=m):
                        w = pl.sequence_prob(member, seq)
                        if w == 0:
                            continue
                        fixed = observed_atoms(inst.task, seq, inst.window)
                        total += w * pl.nfl.pair_distance(inst, i, fixed)
                sweep = total / (4 * len(inst.family))
                assert sweep == pl.symmetrized_lower_bound(inst, m)
