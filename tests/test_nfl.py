"""Lower-bound harness: pairing contract, measure preservation, exact
oracles, Markov conversion, Monte Carlo cross-checks, complexity search."""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paclab as pl
from paclab import learners, nfl
from paclab.errors import (
    BadDistribution,
    BadPrecondition,
    BadRange,
    EmptyEstimate,
    EmptySample,
    EnumerationBudgetExceeded,
    SearchBoundExceeded,
)
from paclab.dist import DRAW_POINTS, SELECT_CHUNK, draws
from paclab.learners import Learner
from paclab.nfl import (
    max_certifiable_failures,
    observed_atoms,
)

SEED = 20260808


def instance_alphabet(inst):
    """Every atom a member of the instance's family may put mass on."""
    if inst.task == "distribution":
        return list(range(0, inst.window + 1))
    atoms = [(x, b) for x in range(1, inst.window + 1) for b in (0, 1)]
    if inst.task == "classification":
        return [(0, 0)] + atoms
    return atoms


def swap_member_index(inst, member_index, seq):
    """Index of the swap partner inside the family, or None if the partner
    left the family (overflow pairing or escape)."""
    if inst.task == "distribution":
        partner = pl.swap_distribution(inst.window, seq, inst.family[member_index])
        try:
            return inst.family.index_of(partner)
        except ValueError:
            return None
    return nfl.swap_labeling_index(inst.window, seq, member_index)


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


def make_instance(task, eta, n):
    if task == "distribution":
        return pl.nfl_distribution_instance(eta, n)
    if task == "classification":
        return pl.nfl_classification_instance(eta, n)
    return pl.nfl_real_instance(pl.AbsoluteLoss(), eta, n)


HUGE = 2 ** 64 + 13  # no int64 numerator over this denominator


def huge_denominator_instance(denom=HUGE):
    members = [pl.SparseDist({0: F(k, denom), 1: F(denom - 2 * k, denom), 2: F(k, denom)})
               for k in (1, 5, denom // 3)]
    fam = pl.FiniteClass("distribution", members)
    return pl.NflInstance("distribution", F(1, 2), 2, 1, fam)


def tilted(member):
    """The member with half the mass of its first window atom moved to its
    last one, so it no longer puts the same mass on each window point."""
    items = dict(member.items)
    window = sorted((a for a in items if a not in (0, (0, 0))), key=pl.dist.atom_key)
    half = items[window[0]] / 2
    items[window[0]] -= half
    items[window[-1]] += half
    return pl.SparseDist(items)


def off_shape_instances():
    """Hand-built instances the closed form does not cover."""
    yield pytest.param(huge_denominator_instance(), id="huge-denominator")
    for task in ("distribution", "classification", "real"):
        built = make_instance(task, F(1, 2), 2)
        members = [tilted(built.family[0])] + list(built.family.members)[1:]
        fam = pl.FiniteClass(task, members, real_ctx=built.family.real_ctx)
        yield pytest.param(pl.NflInstance(task, built.eta, built.window, built.set_size, fam),
                           id=f"tilted-{task}")
    built = make_instance("distribution", F(1, 2), 2)
    yield pytest.param(pl.NflInstance("distribution", built.eta, built.window, 1, built.family),
                       id="wrong-set-size")


class TestClosedFormFloor:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("eta", [F(1, 2), F(1, 3), F(1)], ids=str)
    @pytest.mark.parametrize("task", ["distribution", "classification", "real"])
    def test_equals_enumeration(self, task, eta, n, m):
        inst = make_instance(task, eta, n)
        assert pl.closed_form_floor(inst, m) == pl.symmetrized_lower_bound(inst, m)

    @pytest.mark.parametrize("task,n,m,value", [
        ("distribution", 2, 0, F(1, 8)),
        ("distribution", 2, 2, F(9, 128)),
        ("classification", 2, 2, F(49, 512)),
        ("distribution", 3, 3, F(125, 1728)),
    ])
    def test_pinned_values(self, task, n, m, value):
        assert pl.closed_form_floor(make_instance(task, F(1, 2), n), m) == value

    def test_negative_m(self):
        with pytest.raises(BadRange):
            pl.closed_form_floor(make_instance("distribution", F(1, 2), 1), -1)

    def test_exact_oracle_reports_it_without_enumerating(self, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("the floor was enumerated")

        monkeypatch.setattr(nfl, "symmetrized_lower_bound", no_enumeration)
        monkeypatch.setattr(nfl, "sequence_prob", no_enumeration)
        inst = make_instance("distribution", F(1, 2), 2)
        report = pl.nfl_exact(inst, [pl.EmpiricalBaseline("distribution")], 2)
        assert report.symmetrized_bound == F(9, 128)

    @pytest.mark.parametrize("inst", list(off_shape_instances()))
    def test_hand_built_instance_of_another_shape_is_enumerated(self, inst):
        with pytest.raises(BadPrecondition):
            pl.closed_form_floor(inst, 2)
        report = pl.nfl_exact(inst, [pl.EmpiricalBaseline(inst.task, real_ctx=inst.family.real_ctx)], 2)
        assert report.symmetrized_bound == pl.symmetrized_lower_bound(inst, 2)

    @pytest.mark.parametrize("task", ["distribution", "classification", "real"])
    def test_hand_built_instance_of_the_same_shape_keeps_the_closed_form(self, task):
        built = make_instance(task, F(1, 2), 2)
        fam = pl.FiniteClass(task, list(built.family.members), real_ctx=built.family.real_ctx)
        inst = pl.NflInstance(task, built.eta, built.window, built.set_size, fam)
        assert pl.closed_form_floor(inst, 2) == pl.symmetrized_lower_bound(inst, 2) \
            == pl.closed_form_floor(built, 2)



THRESHOLDS = [F(1, 16), F(1, 8), F(1, 4)]


def reference_exact(inst, learner, m, thresholds):
    """The exact oracle as a plain loop: Fraction likelihoods from
    sequence_prob and one task_loss per (member, sequence)."""
    outs = {seq: learner.run(seq)
            for seq in itertools.product(instance_alphabet(inst), repeat=m)}
    means, tails = [], {a: [] for a in thresholds}
    for member in inst.family.members:
        mean, tail = F(0), dict.fromkeys(thresholds, F(0))
        for seq in itertools.product(member.support(), repeat=m):
            w = pl.sequence_prob(member, seq)
            err = pl.task_loss(inst.family, outs[seq], member)
            mean += w * err
            for a in thresholds:
                if err >= a:
                    tail[a] += w
        means.append(mean)
        for a in thresholds:
            tails[a].append(tail[a])
    return means, tails


def oracle_cases():
    dist = make_instance("distribution", F(1, 2), 2)
    fam = dist.family
    yield pytest.param(dist, 3, [
        pl.ScheffeLearner(fam), pl.EmpiricalBaseline("distribution"),
        pl.ConstantLearner(fam[3], "distribution"),
        # the union selects on the second half, so its output depends on order
        pl.UnionLearner([pl.ScheffeLearner(fam), pl.EmpiricalBaseline("distribution")])],
        id="distribution")
    for task, inst in (("classification", make_instance("classification", F(1, 2), 2)),
                       ("real", make_instance("real", F(1, 2), 3))):
        fam = inst.family
        yield pytest.param(inst, 2, [
            pl.ErmLearner.for_class(fam), pl.EmpiricalBaseline(task, real_ctx=fam.real_ctx),
            pl.ConstantLearner(pl.ErmLearner.for_class(fam).hypotheses[1], task),
            pl.UnionLearner([pl.ErmLearner.for_class(fam),
                             pl.EmpiricalBaseline(task, real_ctx=fam.real_ctx)],
                            real_ctx=fam.real_ctx)], id=task)
    inst = huge_denominator_instance()
    yield pytest.param(inst, 2, [
        pl.ScheffeLearner(inst.family), pl.EmpiricalBaseline("distribution"),
        pl.ConstantLearner(inst.family[2], "distribution")], id="past-int64")
    inst = huge_denominator_instance(3 ** 26)  # int64 masses, but denom^2 is past int64
    yield pytest.param(inst, 2, [
        pl.ScheffeLearner(inst.family), pl.EmpiricalBaseline("distribution"),
        pl.ConstantLearner(inst.family[2], "distribution")], id="weights-past-int64")


class TestExactOracleAgainstReference:
    @pytest.mark.parametrize("inst,m,learners", list(oracle_cases()))
    def test_means_and_tails(self, inst, m, learners):
        report = pl.nfl_exact(inst, learners, m, thresholds=THRESHOLDS)
        for learner, lr in zip(learners, report.learners):
            means, tails = reference_exact(inst, learner, m, THRESHOLDS)
            assert lr.per_member_mean == means, learner.name
            assert lr.tails == tails, learner.name
            assert all(type(v) is F for v in means)

    @pytest.mark.parametrize("inst,m,learners", list(oracle_cases()))
    def test_python_int_paths_agree(self, inst, m, learners, monkeypatch):
        # with the int64 limit at 1, every sample key, weight and loss
        # numerator of the enumeration is a Python int
        expected = pl.nfl_exact(inst, learners, m, thresholds=THRESHOLDS).to_json_obj()
        monkeypatch.setattr(nfl, "INT64_SAFE", 1)
        assert pl.nfl_exact(inst, learners, m, thresholds=THRESHOLDS).to_json_obj() == expected

    def test_repeated_threshold_counts_once(self):
        inst = make_instance("distribution", F(1, 2), 2)
        learner = pl.EmpiricalBaseline("distribution")
        once = pl.nfl_exact(inst, [learner], 1, thresholds=[F(1, 8)]).learners[0].tails
        twice = pl.nfl_exact(inst, [learner], 1, thresholds=[F(1, 8), F(1, 8)]).learners[0].tails
        assert twice == once and len(once[F(1, 8)]) == len(inst.family)

    def test_past_int64_case_runs_on_the_object_path(self):
        table = huge_denominator_instance().family.mass_table()
        assert table.mass.dtype == object and table.l1(table.members[0])[0].dtype == object


def exchangeable_learners(inst):
    """One learner of each kind that declares `exchangeable`, for the
    instance's task; the truncation learner brings its own staged class."""
    fam, task = inst.family, inst.task
    if task == "distribution":
        staged = pl.StagedClass("distribution", pl.SequenceSpec(pl.Reciprocal(F(8)), pl.IdentityN()))
        made = [pl.ScheffeLearner(fam), pl.TruncationLearner(staged, 8)]
    else:
        made = [pl.ErmLearner.for_class(fam)]
    return made + [pl.EmpiricalBaseline(task, real_ctx=fam.real_ctx),
                   pl.ConstantLearner(fam[1], task)]


def learner_kinds(cls=Learner):
    for sub in cls.__subclasses__():
        yield sub
        yield from learner_kinds(sub)


TASKS = ["distribution", "classification", "real"]


def counting_learner(instance, k):
    """The k-th of exchangeable_learners() on an instance, and its family."""
    inst = huge_denominator_instance() if instance == "huge-denominator" \
        else make_instance(instance, F(1, 2), 2)
    return exchangeable_learners(inst)[int(k)], inst.family


def outputs_or_empty(make):
    """list(make()), or EmptySample if that raises it."""
    try:
        return list(make())
    except EmptySample:
        return EmptySample


# every exchangeable learner of each task, and the distribution ones past int64
COUNT_CASES = [("distribution", k) for k in "0123"] + [("classification", k) for k in "012"] \
    + [("real", k) for k in "012"] + [("huge-denominator", k) for k in "0123"]


class TestExchangeableLearners:
    def test_every_declared_kind_is_checked(self):
        declared = {kind for kind in learner_kinds() if kind.exchangeable}
        checked = {type(ln) for task in TASKS
                   for ln in exchangeable_learners(make_instance(task, F(1, 2), 2))}
        assert declared == checked
        assert not Learner.exchangeable and not pl.UnionLearner.exchangeable

    @pytest.mark.parametrize("task", TASKS)
    def test_every_order_gives_an_equal_output(self, task):
        inst = make_instance(task, F(1, 2), 2)
        for learner in exchangeable_learners(inst):
            for t in range(3):
                sample = pl.draw(inst.family[5 * t % len(inst.family)], 5, pl.RngStream(SEED, t))
                outputs = {learner.run(seq) for seq in itertools.permutations(sample)}
                assert len(outputs) == 1, (learner.name, sample)

    def test_a_union_depends_on_order(self):
        # so the permutation check can see an order-dependent learner
        inst = make_instance("distribution", F(1, 2), 2)
        union = pl.UnionLearner([pl.ScheffeLearner(inst.family), pl.EmpiricalBaseline("distribution")])
        sample = pl.draw(inst.family[3], 5, pl.RngStream(SEED, 0))
        assert len({union.run(seq) for seq in itertools.permutations(sample)}) > 1

    def test_exact_oracle_runs_once_per_multiset(self):
        # 13 alphabet points, m = 3: 2,197 sequences, 455 multisets
        inst = make_instance("distribution", F(1, 2), 3)
        fam = inst.family
        learners = [pl.ScheffeLearner(fam), pl.EmpiricalBaseline("distribution"),
                    pl.ConstantLearner(fam[0], "distribution"),
                    pl.UnionLearner([pl.ScheffeLearner(fam), pl.EmpiricalBaseline("distribution")])]
        read = [counted_counts(learner) for learner in learners[:3]]
        read.append(counted_block(learners[3])[0])
        pl.nfl_exact(inst, learners, 3)
        # every learner is handed each distinct sample once: the exchangeable
        # ones as count rows, the union as sequences
        assert [len(samples) for samples in read] == [455, 455, 455, 2197]
        assert all(len(set(samples)) == len(samples) for samples in read)

    @pytest.mark.parametrize("case", COUNT_CASES, ids="-".join)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_run_counts_is_run_on_the_sorted_tuple(self, case, data):
        (learner, fam), (fresh, _) = counting_learner(*case), counting_learner(*case)
        atoms = fam.mass_table().atoms
        if case == ("distribution", "1"):  # the truncation learner reads atoms outside its columns
            assert set(atoms) - set(learner.engine._atoms)
        rows = data.draw(st.lists(st.lists(st.integers(0, 3), min_size=len(atoms),
                                           max_size=len(atoms)), min_size=1, max_size=40))
        counts = np.array(rows, dtype=np.uint8)
        spelled = [tuple(a for a, c in zip(atoms, row) for _ in range(c)) for row in rows]
        assert outputs_or_empty(lambda: learner.run_counts(atoms, counts)) \
            == outputs_or_empty(lambda: map(fresh.run, spelled))

    @pytest.mark.parametrize("case", COUNT_CASES, ids="-".join)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_run_block_and_run_draws_are_run_on_each_sample(self, case, data):
        # blocks and Monte Carlo trials reach the learner as count rows; the
        # truncation learner's targets put mass outside its engine's columns
        (learner, fam), (fresh, _) = counting_learner(*case), counting_learner(*case)
        atoms = fam.mass_table().atoms
        size = data.draw(st.sampled_from([1, SELECT_CHUNK, SELECT_CHUNK + 1, 70]))
        samples = data.draw(st.lists(st.lists(st.sampled_from(atoms), min_size=1, max_size=6)
                                     .map(tuple), min_size=size, max_size=size))
        if data.draw(st.booleans()):  # an empty sample somewhere in the block
            samples.insert(data.draw(st.integers(0, size)), ())
        assert outputs_or_empty(lambda: learner.run_block(samples)) \
            == outputs_or_empty(lambda: map(fresh.run, samples))
        target = fam[data.draw(st.integers(0, len(fam) - 1))]
        m = data.draw(st.sampled_from([0, 1, 2, 5, DRAW_POINTS // SELECT_CHUNK + 1]))
        first = data.draw(st.integers(0, 2 ** 64 - 100))
        seeds = range(first, first + data.draw(st.sampled_from([1, SELECT_CHUNK,
                                                                SELECT_CHUNK + 1, 70])))
        assert outputs_or_empty(lambda: learner.run_draws(target, m, seeds)) \
            == outputs_or_empty(lambda: map(fresh.run, draws(target, m, seeds)))


def enumerated_instances():
    for task in TASKS:
        yield pytest.param(make_instance(task, F(1, 2), 2), id=task)
    yield from off_shape_instances()


def counted_block(learner):
    """Wrap the learner's run_block; returns the samples it reads and the
    outputs it yields, each in order. A Scheffé block reads a chunk of
    samples ahead of the outputs it has yielded."""
    read, yielded, run_block = [], [], learner.run_block

    def reading(samples):
        for sample in samples:
            read.append(tuple(sample))
            yield sample

    def counted(samples):
        for out in run_block(reading(samples)):
            yielded.append(out)
            yield out

    learner.run_block = counted
    return read, yielded


def counted_counts(learner):
    """Wrap the learner's run_counts; returns the count rows it reads, in order."""
    read, run_counts = [], learner.run_counts

    def counted(atoms, counts):
        read.extend(map(tuple, counts.tolist()))
        return run_counts(atoms, counts)

    learner.run_counts = counted
    return read


def counted_draws(learner):
    """Wrap the learner's run_draws, through which the Monte Carlo oracles
    run every learner; returns the outputs it yields, in order."""
    yielded, run_draws = [], learner.run_draws

    def counted(target, m, seeds):
        for out in run_draws(target, m, seeds):
            yielded.append(out)
            yield out

    learner.run_draws = counted
    return yielded


class TestMemberSamples:
    """nfl_exact's enumeration: each member's multisets as count rows, or its
    sequences, over its own support, with integer weights over denom^m."""

    @pytest.mark.parametrize("m", range(6))
    @pytest.mark.parametrize("inst", list(enumerated_instances()))
    def test_weights_sum_to_denominator_power(self, inst, m):
        table = inst.family.mass_table()
        for exchangeable in (True, False):
            groups, samples = nfl._member_samples(table, m, exchangeable)
            assert sorted(i for members, _, _ in groups for i in members.tolist()) \
                == list(range(len(table)))
            if exchangeable:  # a row per multiset: m points over the table's atoms
                assert samples.dtype.kind == "u" and samples.shape[1] == len(table.atoms)
                assert samples.sum(axis=1).tolist() == [m] * len(samples)
                spelled = [{a for a, c in zip(table.atoms, row) if c} for row in samples.tolist()]
            else:
                assert all(len(seq) == m for seq in samples)
                spelled = [set(seq) for seq in samples]
            for members, ids, weights in groups:
                for i, row, ws in zip(members.tolist(), ids.tolist(), weights.tolist()):
                    s = len(table.members[i].support())
                    assert sum(ws) == table.denom ** m
                    assert len(row) == (math.comb(s + m - 1, m) if exchangeable else s ** m)
                    assert len(set(row)) == len(row)
                    assert all(spelled[t] <= set(table.members[i].support()) for t in row)

    @pytest.mark.parametrize("inst", list(enumerated_instances()))
    def test_multiset_weight_is_its_sequences_likelihood(self, inst):
        # each multiset's weight is the summed likelihood of the sequences
        # with its count row; each sequence weight is its likelihood
        m = 4
        table = inst.family.mass_table()

        def weighted(exchangeable):
            groups, samples = nfl._member_samples(table, m, exchangeable)
            for members, ids, weights in groups:
                for i, row, ws in zip(members.tolist(), ids.tolist(), weights.tolist()):
                    yield from ((i, samples[t], w) for t, w in zip(row, ws))

        summed: dict = {}
        for i, seq, w in weighted(False):
            assert F(w, table.denom ** m) == pl.sequence_prob(table.members[i], seq)
            key = (i, tuple(seq.count(a) for a in table.atoms))
            summed[key] = summed.get(key, 0) + w
        assert {(i, tuple(row.tolist())): w for i, row, w in weighted(True)} == summed

    @pytest.mark.parametrize("shape,union,enough", [
        ("closed-form", False, 588), ("closed-form", True, 6_804), ("tilted", False, 6_804)],
        ids=["multisets", "sequences", "enumerated-floor"])
    def test_over_budget_runs_no_learner(self, shape, union, enough):
        # 28 members of 3 atoms at m = 5: 588 multisets, 6,804 sequences; a
        # union is charged the sequences, and so is an enumerated floor
        inst = make_instance("distribution", F(1, 2), 2)
        if shape == "tilted":
            members = [tilted(inst.family[0])] + list(inst.family.members)[1:]
            inst = pl.NflInstance("distribution", inst.eta, inst.window, inst.set_size,
                                  pl.FiniteClass("distribution", members))
        made = [pl.ScheffeLearner(inst.family), pl.EmpiricalBaseline("distribution")]
        if union:
            made.append(pl.UnionLearner(made[:]))
        read = [counted_counts(learner) if learner.exchangeable else counted_block(learner)[0]
                for learner in made]
        with pytest.raises(EnumerationBudgetExceeded):
            pl.nfl_exact(inst, made, 5, budget=enough - 1)
        assert all(samples == [] for samples in read)
        pl.nfl_exact(inst, made, 5, budget=enough)
        assert all(read)


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
        # strictly, so the largest upper bound over targets is the bound at
        # the largest failure count, which is all the search computes; every
        # count up to 24 trials, and beyond that the counts below 20, which
        # hold every certifiable count for delta <= 1/7 at 129 trials
        for trials in range(1, 130):
            top = trials if trials <= 24 else 19
            uppers = [pl.clopper_pearson_upper(x, trials) for x in range(top + 1)]
            assert all(a < b for a, b in zip(uppers, uppers[1:])), trials

    def test_interval_contains_mle(self):
        for x in (0, 3, 17, 99):
            lo = pl.clopper_pearson_lower(x, 120)
            hi = pl.clopper_pearson_upper(x, 120)
            assert lo <= x / 120 <= hi

    def test_binom_cdf_equals_the_lgamma_formula(self):
        # the log-factorial tables feed the same floats in the same order
        def reference(x, n, p):
            lp, lq = math.log(p), math.log1p(-p)
            total = 0.0
            for k in range(x + 1):
                total += math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                                  + k * lp + (n - k) * lq)
            return min(total, 1.0)

        for n in range(301):
            for x in sorted({0, n // 7, n // 2, n}):
                for p in (1e-4, 0.03, 0.3, 0.5, 0.97):
                    assert nfl._binom_cdf(x, n, p) == reference(x, n, p), (x, n, p)
        assert nfl._log_factorials.cache_info().currsize <= nfl.LOG_FACTORIAL_TABLES

    def test_memoised_endpoints_equal_the_bisection(self):
        # each endpoint is memoised per (failures, trials, alpha): a first and
        # a repeated call return the uncached bisection's float, bit for bit
        for endpoint in (pl.clopper_pearson_upper, pl.clopper_pearson_lower):
            for trials in (1, 2, 7, 60, 120, 129, 200):
                for x in sorted({0, 1, trials // 3, trials // 2, trials - 1, trials}):
                    for alpha in (0.05, 0.001):
                        expected = endpoint.__wrapped__(x, trials, alpha)
                        assert endpoint(x, trials, alpha) == expected
                        assert endpoint(x, trials, alpha) == expected, (endpoint, x, trials)

    def test_endpoint_memos_stay_bounded(self):
        # past CP_ENDPOINTS keys (on the all-failure and no-failure shortcuts,
        # which cost no bisection) each memo drops its oldest entries
        for endpoint, failures in ((pl.clopper_pearson_upper, lambda t: t),
                                   (pl.clopper_pearson_lower, lambda t: 0)):
            for trials in range(1, nfl.CP_ENDPOINTS + 50):
                endpoint(failures(trials), trials)
            info = endpoint.cache_info()
            assert info.maxsize == info.currsize == nfl.CP_ENDPOINTS
        assert pl.clopper_pearson_upper(0, 200) == pl.clopper_pearson_upper.__wrapped__(0, 200)

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

    @pytest.mark.parametrize("kind", ["scheffe", "empirical-baseline"])
    def test_losses_memoised_only_for_finite_outputs(self, monkeypatch, kind):
        fam = pl.anchored_family(F(1, 2), 4, size_filter=2)
        learner = (pl.ScheffeLearner(fam) if kind == "scheffe"
                   else pl.EmpiricalBaseline("distribution"))
        pairs = []
        task_loss = nfl.task_loss

        def counted_loss(cls, out, target):
            pairs.append((target, out))
            return task_loss(cls, out, target)

        monkeypatch.setattr(nfl, "task_loss", counted_loss)
        trials = 40
        pl.mc_risk(fam, learner, 3, trials, pl.RngStream(SEED, 8), F(1, 8))
        if kind == "scheffe":
            # at most one loss per (member, output) pair
            assert len(pairs) == len(set(pairs)) < len(fam) * trials
        else:
            # fresh empirical outputs keep no memo: one loss per trial
            assert len(pairs) == len(fam) * trials

    def test_negative_m_is_rejected(self):
        inst = pl.nfl_distribution_instance(F(1, 2), 2)
        with pytest.raises(BadDistribution):
            pl.mc_risk(inst.family, pl.ScheffeLearner(inst.family), -1, 5,
                       pl.RngStream(SEED, 0), F(1, 16))


class TestTrialBlocks:
    @pytest.mark.parametrize("kind", ["scheffe", "union"])
    @pytest.mark.parametrize("m", [2, 9])
    def test_block_runs_each_trial_on_its_substream_sample(self, kind, m):
        fam = pl.anchored_family(F(1, 2), 4, size_filter=2)

        def make():
            learner = pl.ScheffeLearner(fam)
            if kind == "union":
                learner = pl.UnionLearner([learner, pl.EmpiricalBaseline("distribution")])
            return learner

        rng, prefix, i, trials = pl.RngStream(SEED, 5), (m,), 3, 25
        reference = [pl.draw(fam[i], m, rng.child(*prefix, i, t)) for t in range(trials)]
        ref, learner = make(), make()  # learner's block selects every sample itself
        expected = [ref.run(s) for s in reference]
        yielded = counted_draws(learner)
        if kind == "scheffe":  # the learner reads count rows over the target's atoms
            read = counted_counts(learner)
            atoms = fam[i].support()
            reference = [tuple(s.count(a) for a in atoms) for s in reference]
        else:  # the union's run_block reads the drawn tuples
            read, _ = counted_block(learner)
        losses = list(nfl._trial_outcomes(fam, learner, m, trials, rng, prefix, i,
                                           lambda err: err, {}))
        assert losses == [pl.task_loss(fam, out, fam[i]) for out in expected]
        # every trial's sample read once, one output per trial, in trial order
        assert read == reference and yielded == expected

    def test_failing_level_stops_at_max_fail_plus_one(self):
        fam = pl.anchored_family(F(1, 2), 4, size_filter=2)
        # a constant far from target 0 fails every trial against a zero bar
        learner = pl.ConstantLearner(fam[5], "distribution")
        read, yielded = counted_counts(learner), counted_draws(learner)
        max_fail = 3
        counts = nfl._level_failures(fam, learner, {0: F(0)}, 4, 40, pl.RngStream(SEED, 6),
                                     max_fail, {})
        assert counts == {0: max_fail + 1}
        # the level took max_fail + 1 outputs, all from the first chunk's count rows
        assert len(yielded) == max_fail + 1
        assert len(read) == SELECT_CHUNK

    @pytest.mark.parametrize("memo", [True, False], ids=["memo", "no-memo"])
    def test_a_loss_equal_to_the_guarantee_is_no_failure(self, memo):
        fam = pl.anchored_family(F(1, 2), 4, size_filter=2)
        learner = pl.ConstantLearner(fam[5], "distribution")
        err, rng = pl.task_loss(fam, fam[5], fam[0]), pl.RngStream(SEED, 6)
        for bar, failures in ((err, 0), (err - F(1, 10 ** 9), 4)):
            verdicts = {} if memo else None  # one memo per search, whose bars are fixed
            assert nfl._level_failures(fam, learner, {0: bar}, 4, 10, rng, 3, verdicts) \
                == {0: failures}

    def test_failing_scheffe_level_draws_at_most_one_chunk_past_the_stop(self):
        fam = pl.anchored_family(F(1, 2), 4, size_filter=2)
        # Scheffé over every member but target 0 never returns it, so every
        # trial fails against a zero bar
        learner = pl.ScheffeLearner(pl.FiniteClass("distribution", list(fam.members)[1:]))
        read = counted_counts(learner)
        max_fail = 3
        counts = nfl._level_failures(fam, learner, {0: F(0)}, 4, 100, pl.RngStream(SEED, 6),
                                     max_fail, {})
        assert counts == {0: max_fail + 1}
        # the trial that failed max_fail + 1 times ended the first chunk's selections
        assert len(read) == SELECT_CHUNK
        assert len(read) <= max_fail + 1 + SELECT_CHUNK - 1


def tuple_path(learner):
    """The learner with run_draws replaced by run() on each `dist.draws` tuple."""
    learner.run_draws = lambda target, m, seeds: map(learner.run, draws(target, m, seeds))
    return learner


class TestDrawPaths:
    """The Monte Carlo oracles hand each learner its trials through
    run_draws: an exchangeable learner reads the drawn atom positions as
    count rows and builds no sample tuples; a union gets the drawn tuples."""

    @staticmethod
    def scheffe_case(kind):
        """(class, learner maker) whose targets are the class's members."""
        if kind == "scheffe":
            fam = pl.anchored_family(F(1, 2), 4, size_filter=2)
            return fam, lambda: pl.ScheffeLearner(fam)
        staged = pl.StagedClass("distribution",
                                pl.SequenceSpec(pl.Reciprocal(F(1, 2)), pl.IdentityN()))
        # targets of the finer truncation put mass outside the learner's columns
        return staged.truncate(F(1, 4)), lambda: pl.TruncationLearner(staged, F(1, 2))

    @pytest.mark.parametrize("kind", ["scheffe", "truncation"])
    def test_scheffe_trials_build_no_tuples(self, monkeypatch, kind):
        cls, make = self.scheffe_case(kind)
        members = [0, len(cls) - 1]

        def run(learner):
            point = pl.estimate_sample_complexity(cls, learner, F(1, 2), F(1, 4),
                                                  pl.RngStream(SEED, 12), trials=30, m_max=64,
                                                  targets_cap=4)
            stats = pl.mc_risk(cls, learner, 9, 40, pl.RngStream(SEED, 13), F(1, 8),
                               member_indices=members)
            return point, stats

        expected = run(tuple_path(make()))  # the same learner on the tuple path

        def refuse(*args):
            raise AssertionError("a Scheffé trial built sample tuples")

        monkeypatch.setattr(pl.dist, "draws", refuse)
        monkeypatch.setattr(learners, "draws", refuse)
        assert run(make()) == expected

    @pytest.mark.parametrize("kind", ["erm", "empirical-baseline", "union"])
    def test_other_learners_read_the_drawn_samples(self, kind):
        task = "classification" if kind == "erm" else "distribution"
        fam = make_instance(task, F(1, 2), 2).family
        learner = {
            "erm": lambda: pl.ErmLearner.for_class(fam),
            "empirical-baseline": lambda: pl.EmpiricalBaseline(task),
            "union": lambda: pl.UnionLearner([pl.ScheffeLearner(fam), pl.EmpiricalBaseline(task)]),
        }[kind]()
        rng, i, m, trials = pl.RngStream(SEED, 14), 2, 5, 40
        samples = [pl.draw(fam[i], m, rng.child(i, t)) for t in range(trials)]
        if kind == "union":  # the union reads the drawn tuples
            read, yielded = counted_block(learner)
        else:  # the others read count rows over the target's atoms
            read, yielded = counted_counts(learner), counted_draws(learner)
            samples = [tuple(s.count(a) for a in fam[i].support()) for s in samples]
        pl.mc_risk(fam, learner, m, trials, rng, F(1, 8), member_indices=[i])
        assert read == samples
        assert len(yielded) == trials

    def test_classification_erm_trials_sum_no_fractions(self, monkeypatch):
        # ERM on drawn samples counts each hypothesis's mistakes in integers
        fam = pl.labeled_anchored_family(F(1, 2), 2)

        def run(learner):
            point = pl.estimate_sample_complexity(fam, learner, F(1, 2), F(1, 4),
                                                  pl.RngStream(SEED, 15), trials=30, m_max=64,
                                                  targets_cap=4)
            stats = pl.mc_risk(fam, learner, 5, 200, pl.RngStream(SEED, 16), F(1, 8),
                               member_indices=[0, 5, 15])
            return point, stats

        expected = run(tuple_path(pl.ErmLearner.for_class(fam)))

        def refuse(*args):
            raise AssertionError("an ERM trial summed Fraction risks")

        monkeypatch.setattr(learners, "zero_one_risk", refuse)
        assert run(pl.ErmLearner.for_class(fam)) == expected


def counted_opt_loss(monkeypatch):
    """A list that gets the target of each opt_loss call the search makes."""
    targets, opt_loss = [], nfl.opt_loss

    def counted(cls, target):
        targets.append(target)
        return opt_loss(cls, target)

    monkeypatch.setattr(nfl, "opt_loss", counted)
    return targets


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

    def test_guarantee_computed_once_per_target(self, monkeypatch):
        # a real-task data class is benchmarked against its hypothesis class,
        # so each target's guarantee takes one opt_loss
        fam = pl.plateau_data_family(pl.AbsoluteLoss(), F(1, 2), 3)
        targets = counted_opt_loss(monkeypatch)
        pt = pl.estimate_sample_complexity(fam, pl.ErmLearner.for_class(fam), F(1, 8), F(1, 4),
                                           pl.RngStream(SEED, 7), trials=40, m_max=256)
        assert pt.m_hat > 2  # the search tried several grid levels
        assert len(targets) == pt.targets_tested == len(set(targets)) == len(fam)

    def test_member_targets_of_a_distribution_class_take_no_opt_loss(self, monkeypatch):
        # TV(p, p) = 0, so a member target's guarantee is eps itself
        fam = pl.anchored_family(F(1, 2), 4, size_filter=2)
        targets = counted_opt_loss(monkeypatch)
        pt = pl.estimate_sample_complexity(fam, pl.ScheffeLearner(fam), F(1, 8), F(1, 4),
                                           pl.RngStream(SEED, 7), trials=40, m_max=256)
        assert pt.m_hat > 2 and targets == []
        assert all(nfl._guarantee(fam, p, F(1, 8), 3) == 3 * pl.opt_loss(fam, p)[0] + F(1, 8)
                   for p in fam.members)

    @pytest.mark.parametrize("kind", ["scheffe", "empirical-baseline", "union"])
    def test_losses_memoised_only_for_finite_outputs(self, monkeypatch, kind):
        fam = pl.anchored_family(F(1, 2), 4, size_filter=2)
        learner = {
            "scheffe": lambda: pl.ScheffeLearner(fam),
            "empirical-baseline": lambda: pl.EmpiricalBaseline("distribution"),
            "union": lambda: pl.UnionLearner([pl.ScheffeLearner(fam),
                                              pl.EmpiricalBaseline("distribution")]),
        }[kind]()
        losses, task_loss = [], nfl.task_loss

        def counted_loss(cls, out, target):
            losses.append((target, out))
            return task_loss(cls, out, target)

        outputs = counted_draws(learner)
        monkeypatch.setattr(nfl, "task_loss", counted_loss)
        pl.estimate_sample_complexity(fam, learner, F(1, 2), F(1, 4), pl.RngStream(SEED, 9),
                                      trials=30, m_min=2, m_max=64)
        if kind == "scheffe":
            # at most one loss per (target, member) pair
            assert len(losses) == len(set(losses)) <= len(fam) ** 2 < len(outputs)
        else:
            # fresh empirical outputs keep no memo: one loss per output
            assert len(losses) == len(outputs)

    @staticmethod
    def levels_tried(monkeypatch):
        """Record every sample size the search runs a grid level at."""
        level_failures = nfl._level_failures
        tried = []

        def recorded(cls, learner, bars, m, *args):
            tried.append(m)
            return level_failures(cls, learner, bars, m, *args)

        monkeypatch.setattr(nfl, "_level_failures", recorded)
        return tried

    def test_search_tests_the_worst_target_first(self, monkeypatch):
        # the search workload's spot check at seed 1 (anchored(1, 12, filter
        # 3), 16 targets): the order targets are tested in ends failing
        # levels sooner and leaves the point as it is
        ran, trial_outcomes = [0], nfl._trial_outcomes
        levels, level_failures = [], nfl._level_failures

        def counted(*args):
            for failed in trial_outcomes(*args):
                ran[0] += 1
                yield failed

        def recorded(cls, learner, bars, *args):
            counts = level_failures(cls, learner, bars, *args)
            levels.append((list(bars), counts))
            return counts

        monkeypatch.setattr(nfl, "_trial_outcomes", counted)
        monkeypatch.setattr(nfl, "_level_failures", recorded)
        rep = pl.synthesize(pl.FunctionTable.from_values([1, 4, 9, 16, 25]), pl.RngStream(1, 0),
                            spot_check_k=2, trials=120, targets_cap=16, m_max=256)
        point = rep.spot_check["point"]
        assert (point["m_hat"], point["worst_failures"], point["targets_tested"]) == (11, 9, 16)
        assert ran[0] == 5967  # 6,714 in the sampled targets' index order
        max_fail = nfl.max_certifiable_failures(120, 1 / 7)
        assert levels[0][0] == sorted(levels[0][0])
        for (order, counts), (after, _) in zip(levels, levels[1:]):
            last = list(counts)[-1]
            if counts[last] > max_fail:  # moved to the front
                assert after == [last] + [i for i in order if i != last]
            else:  # most failures first, ties in the order before
                assert after == sorted(order, key=counts.__getitem__, reverse=True)

    def test_search_stays_at_or_above_m_min(self, monkeypatch):
        tried = self.levels_tried(monkeypatch)
        fam = pl.anchored_family(F(1, 2), 3)
        pt = pl.estimate_sample_complexity(fam, pl.ScheffeLearner(fam), F(1, 2), F(1, 4),
                                           pl.RngStream(3), trials=40, m_min=8)
        assert tried and min(tried) >= 8
        assert pt.m_hat >= 8

    @pytest.mark.parametrize("nested,smallest", [(False, 2), (True, 3)])
    def test_search_starts_at_the_learners_smallest_sample(self, monkeypatch, nested, smallest):
        # a union splits its sample in two; a union of unions needs 2 points
        # in its first half, so 3 in all
        fam = pl.anchored_family(F(1, 2), 2)
        union = pl.UnionLearner([pl.ScheffeLearner(fam),
                                 pl.ConstantLearner(fam[2], "distribution")])
        learner = pl.UnionLearner([union, pl.ScheffeLearner(fam)]) if nested else union
        assert learner.min_sample == smallest
        tried = self.levels_tried(monkeypatch)
        pt = pl.estimate_sample_complexity(fam, learner, F(1, 2), F(1, 4), pl.RngStream(6),
                                           trials=30, m_max=128, targets_cap=4)
        assert min(tried) == smallest <= pt.m_hat

    def test_first_level_above_m_max_runs_nothing(self, monkeypatch):
        tried = self.levels_tried(monkeypatch)
        fam = pl.anchored_family(F(1, 2), 2)
        with pytest.raises(SearchBoundExceeded) as exc:
            pl.estimate_sample_complexity(fam, pl.ScheffeLearner(fam), F(1, 2), F(1, 4),
                                          pl.RngStream(1), trials=30, m_min=5, m_max=4)
        assert (exc.value.last_m, exc.value.detail["last_failed"]) == (4, 4)
        assert tried == []

    @pytest.mark.parametrize("protocol", [{"trials": 0}, {"trials": -1},
                                          {"targets_cap": 0}, {"targets_cap": -1}], ids=repr)
    def test_search_needs_trials_and_targets(self, protocol):
        fam = pl.anchored_family(F(1, 2), 2)
        with pytest.raises(EmptyEstimate):
            pl.estimate_sample_complexity(fam, pl.ScheffeLearner(fam), F(1, 2), F(1, 4),
                                          pl.RngStream(1), **protocol)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_worst_ucb_is_the_bound_at_the_worst_count(self, seed):
        fam = pl.anchored_family(F(1, 2), 6, size_filter=2)
        pt = pl.estimate_sample_complexity(fam, pl.ScheffeLearner(fam), F(1, 8), F(1, 4),
                                           pl.RngStream(seed), trials=60, targets_cap=6)
        assert pt.worst_ucb == pl.clopper_pearson_upper(pt.worst_failures, 60)
        assert pt.worst_failures <= max_certifiable_failures(60, 1 / 4)

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
        from paclab.cli import Reader, eta_rule_from_json
        rules = [pl.Constant(F(1, 3)), pl.Reciprocal(F(8)),
                 pl.EtaTable((F(1, 2), F(1, 4))), pl.PolyWitness((1, 4, 9, 16), 3)]
        for rule in rules:
            back = eta_rule_from_json(Reader(rule.to_json_obj(), "eta"))
            assert back == rule

    def test_n_rules(self):
        from paclab.cli import Reader, n_rule_from_json
        rules = [pl.IdentityN(), pl.AffineOfTarget((1, 4, 9)), pl.NTable((2, 4, 8))]
        for rule in rules:
            assert n_rule_from_json(Reader(rule.to_json_obj(), "n")) == rule


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
