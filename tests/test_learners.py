"""Learners: Yatracos sets, minimum-distance selection and its deviation
bound, ERM, union aggregation, baselines, loss evaluators."""

import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import paclab as pl
from paclab import learners, losses
from paclab.dist import SELECT_CHUNK, count_rows, draws
from paclab.errors import EmptyClass, EmptySample, MixedTasks, SampleTooSmall
from paclab.losses import hypotheses_of_class

SEED = 20260808


def mix_anchor(eta, atoms):
    return pl.mixture([(1 - F(eta), pl.delta(0)), (F(eta), pl.uniform(atoms))])


def pairwise_yatracos_sets(members):
    """Distinct non-empty Yatracos sets over ordered pairs, first seen first."""
    sets = []
    for i, p in enumerate(members):
        for j, q in enumerate(members):
            s = pl.yatracos_set(p, q)
            if i != j and s and s not in sets:
                sets.append(s)
    return sets


def fraction_argmin(members, sets, sample):
    """Lowest index minimizing max_A |p(A) - empirical(A)|, in Fractions."""
    empirical = [pl.empirical_measure(sample, s) for s in sets]
    devs = [max(abs(pl.event_prob(p, s) - e) for s, e in zip(sets, empirical))
            for p in members]
    return devs.index(min(devs))


def empirical_gap(engine, target, sample):
    """max over the engine's comparison sets of |target(A) - empirical(A)|."""
    return max((abs(pl.event_prob(target, s) - pl.empirical_measure(sample, s))
                for s in engine.sets), default=F(0))


# a hand-made class: denominators 3, 7 and 2, and atom 5 outside the
# other members' supports
MIXED = [pl.SparseDist({0: F(1, 3), 1: F(2, 3)}), pl.SparseDist({1: F(1, 7), 2: F(6, 7)}),
         pl.SparseDist({0: F(1, 2), 5: F(1, 2)}), pl.SparseDist({1: F(1, 3), 2: F(2, 3)})]


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
        for t in range(25):
            s = pl.draw(fam[(5 * t) % 28], 6, pl.RngStream(SEED, t))
            assert engine.select(s) == fraction_argmin(fam.members, engine.sets, s)

    def test_int64_overflow_path_is_exact_argmin(self):
        # the denominator fits int64 but denom * m does not stay below 2^62
        # once m >= 3 (and overflows int64 at m = 5), so selection runs on
        # Python ints; it must match the Fraction argmin
        q = 2 ** 61 - 1
        fam = [pl.SparseDist({0: F(k, q), 1: 1 - F(k, q)}) for k in (1, 2, q - 1)]
        engine = pl.ScheffeEngine(fam)
        assert engine.denom < 2 ** 62 <= engine.denom * 3
        for m in (3, 5):
            for seq in itertools.product([0, 1], repeat=m):
                assert engine.select(seq) == fraction_argmin(fam, engine.sets, seq)

    @pytest.mark.parametrize("q", [7, 2 ** 40 + 15, 2 ** 60 + 3, 2 ** 61 - 1],
                             ids=["small", "int64", "object-from-m4", "object-from-m2"])
    def test_every_dtype_is_exact_argmin(self, q):
        # denom * m picks int64 or Python ints; as m grows from 1 to 6, the
        # last two cross from int64 to Python ints
        fam = [pl.SparseDist({0: F(k, q), 1: F(q - 2 * k, q), 2: F(k, q)})
               for k in (1, 2, q // 3, q // 2 - 1)]
        engine = pl.ScheffeEngine(fam)
        assert engine.denom == q
        for m in range(1, 7):
            for seq in itertools.combinations_with_replacement([0, 1, 2], m):
                assert engine.select(seq) == fraction_argmin(fam, engine.sets, seq)

    @pytest.mark.parametrize("bits", [15, 31])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_width_boundaries_match_the_object_path(self, bits, m, monkeypatch):
        # denom * m just below 2^bits computes in int16 (bits 15) or int32
        # (bits 31), just above in the next width. The last member has no
        # mass at atom 0, so a sample of 0s reaches the bound denom * m itself.
        for q, width in (((2 ** bits - 1) // m, (bits + 1) // 8),
                         ((2 ** bits - 1) // m + 1, (bits + 1) // 4)):
            fam = [pl.SparseDist({0: F(k, q), 1: F(q - 2 * k, q), 2: F(k, q)})
                   for k in (1, 2, q // 3, q // 2 - 1)]
            fam.append(pl.SparseDist({1: 1 - F(1, q), 2: F(1, q)}))
            samples = list(itertools.combinations_with_replacement([0, 1, 2], m))
            engine = pl.ScheffeEngine(fam)
            assert engine.denom == q and learners._int_dtype(q * m).itemsize == width
            chosen = [engine.select(s) for s in samples]
            with monkeypatch.context() as patched:
                patched.setattr(learners, "_int_dtype", lambda bound: np.dtype(object))
                on_objects = pl.ScheffeEngine(fam)
                assert chosen == [on_objects.select(s) for s in samples]
            assert chosen == [fraction_argmin(fam, engine.sets, s) for s in samples]

    def test_denominator_past_int64_is_exact_argmin(self):
        # masses over 2^64 + 13 cannot be int64 numerators at all
        q = 2 ** 64 + 13
        fam = [pl.SparseDist({0: F(k, q), 1: F(q - 2 * k, q), 2: F(k, q)}) for k in (1, 5, q // 3)]
        engine = pl.ScheffeEngine(fam)
        assert engine.denom >= 2 ** 62
        for seq in itertools.product([0, 1, 2], repeat=3):
            assert engine.select(seq) == fraction_argmin(fam, engine.sets, seq)

    @pytest.mark.parametrize("members", [
        pl.anchored_family(F(1, 2), 8, size_filter=2).members,
        pl.labeled_anchored_family(F(1, 2), 2).members,
        MIXED,
    ], ids=["anchored", "labeled", "mixed"])
    def test_sets_are_pairwise_yatracos_sets_in_order(self, members):
        assert pl.ScheffeEngine(members).sets == pairwise_yatracos_sets(members)

    def test_select_allocates_no_deviation_matrix(self):
        # fresh members x sets int64 temporaries (524 KB each) would peak near
        # 1 MB. Samples of all 13 atoms hold more than the 3 window atoms the
        # support rule takes, so they take the full pass.
        fam = pl.nfl_distribution_instance(F(1, 2), 3).family
        engine = pl.ScheffeEngine(fam.members)
        atoms = pl.uniform(range(13))
        samples = [pl.draw(atoms, 12, pl.RngStream(SEED, t)) for t in range(50)]
        engine.select(samples[0])  # enumerates the sets before tracing
        tracemalloc.start()
        try:
            for s in samples:
                engine.select(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(fam) * len(engine.sets) * 8 / 2

    def test_memoised_selection_equals_fresh_selection(self):
        # a seeded sweep with repeated multisets, reorderings and atoms
        # outside every support (which count toward m but no set), on a
        # class whose every selection takes the full pass through the memo
        members = block_members()
        engine, fresh = pl.ScheffeEngine(members), pl.ScheffeEngine(members)
        samples = []
        for t in range(300):
            s = pl.draw(members[(3 * t) % len(members)], 1 + t % 6, pl.RngStream(SEED, t))
            samples += [s, s[::-1], s + (40,) * (t % 3)]
        for s in samples:
            fresh._memo.clear()
            assert engine.select(s) == fresh.select(s)
        assert len(engine._memo) < len(samples) / 2  # repeats were answered from the memo

    def test_memo_key_counts_atoms_outside_every_support(self):
        # equal counts inside the supports, but m differs, and so does the choice
        engine = pl.ScheffeEngine([pl.delta(0), pl.uniform([0, 1])])
        assert engine.select([0]) == 0
        assert engine.select([0, 99, 99, 99]) == 1

    def test_memo_stays_bounded(self):
        # all 5,005 multisets of 6 atoms over atoms 0-9 of the full-pass class
        members = block_members()
        engine, fresh = pl.ScheffeEngine(members), pl.ScheffeEngine(members)
        sizes = []
        for t, s in enumerate(itertools.combinations_with_replacement(range(10), 6)):
            chosen = engine.select(s)
            sizes.append(len(engine._memo))
            if t % 97 == 0:
                fresh._memo.clear()
                assert chosen == fresh.select(s)
        assert max(sizes) == learners.SELECT_MEMO_SIZE
        assert sizes[-1] == 5005 - learners.SELECT_MEMO_SIZE  # cleared once when full

    def test_denominator_past_int64_is_exact_argmin_through_the_memo(self):
        q = 2 ** 64 + 13
        fam = [pl.SparseDist({0: F(k, q), 1: F(q - 2 * k, q), 2: F(k, q)}) for k in (1, 5, q // 3)]
        engine = pl.ScheffeEngine(pl.MassTable(fam))
        for _ in range(2):  # the second pass is answered from the memo
            for seq in itertools.product([0, 1, 2, 7], repeat=3):
                assert engine.select(seq) == fraction_argmin(fam, engine.sets, seq)

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
                    gap = empirical_gap(engine, target, seq)
                    assert pl.tv(fam.members[chosen], target) <= 3 * opt + 4 * gap


def counted_passes(monkeypatch):
    """A list that gets the sample size m of each full pass any engine's
    selections make."""
    passes, run = [], pl.ScheffeEngine._full_pass

    def counted(self, counts, m, dtype):
        passes.append(m)
        return run(self, counts, m, dtype)

    monkeypatch.setattr(pl.ScheffeEngine, "_full_pass", counted)
    return passes


def counted_rule_rows(monkeypatch):
    """Two lists that get the number of rows of each run_counts call of a
    Scheffé learner and of each selection call of any engine; on a class
    with a declared window the support rule answers the difference."""
    rows, engined = [], []
    run, select = pl.ScheffeLearner.run_counts, pl.ScheffeEngine._select_counts

    def counted_run(self, atoms, counts):
        rows.append(len(counts))
        return run(self, atoms, counts)

    def counted_select(self, atoms, counts):
        engined.append(len(counts))
        return select(self, atoms, counts)

    monkeypatch.setattr(pl.ScheffeLearner, "run_counts", counted_run)
    monkeypatch.setattr(pl.ScheffeEngine, "_select_counts", counted_select)
    return rows, engined


def recorded_engines(monkeypatch):
    """A list that gets every ScheffeEngine built."""
    engines, init = [], pl.ScheffeEngine.__init__

    def recorded(self, members):
        init(self, members)
        engines.append(self)

    monkeypatch.setattr(pl.ScheffeEngine, "__init__", recorded)
    return engines


def counted_engine(members, monkeypatch):
    """An engine, and a list that gets the row count of each full pass its
    selections make."""
    return pl.ScheffeEngine(members), counted_passes(monkeypatch)


def pairs_class():
    """anchored(1/2, 8, filter 2): 28 members x 36 comparison sets, and a
    declared window, atoms 1-8 with n = 2."""
    return pl.anchored_family(F(1, 2), 8, size_filter=2)


PAIRS = pairs_class().members


def block_members():
    """Anchored members uniform on two of five blocks {2b-1, 2b}: every
    comparison set is a union of blocks, so no set is a singleton."""
    blocks = [(2 * b - 1, 2 * b) for b in range(1, 6)]
    return [mix_anchor(F(1, 2), [*blocks[i], *blocks[j]])
            for i, j in itertools.combinations(range(5), 2)]


def distinct(samples):
    """The number of distinct multisets among the samples."""
    return len({tuple(sorted(s)) for s in samples})


class TestFullPass:
    """select() evaluates every member on every comparison set, one pass per
    distinct row, and returns the lowest-index argmin."""

    def test_block_members_take_a_pass_per_distinct_sample(self, monkeypatch):
        members = block_members()
        engine, passes = counted_engine(members, monkeypatch)
        samples = [pl.draw(members[5 * t % len(members)], m, pl.RngStream(SEED, t))
                   for m in (3, 48) for t in range(8)]
        for s in samples:
            assert engine.select(s) == fraction_argmin(members, engine.sets, s)
        assert len(passes) == distinct(samples)

    def test_rows_of_three_window_atoms_take_the_full_pass(self, monkeypatch):
        engine, passes = counted_engine(PAIRS, monkeypatch)
        # three distinct window atoms: past the support rule's two
        samples = [s for s in itertools.combinations_with_replacement(range(9), 3)
                   if len(set(s) - {0}) == 3]
        for s in samples:
            assert engine.select(s) == fraction_argmin(PAIRS, engine.sets, s)
        assert passes == [3] * len(samples)

    def test_comparison_sets_of_two_atoms(self, monkeypatch):
        members = block_members()
        engine, passes = counted_engine(members, monkeypatch)
        assert {len(s) for s in engine.sets} == {2, 4}
        samples = [s for m in (1, 2) for s in itertools.combinations_with_replacement(range(11), m)]
        samples += [pl.draw(members[t], 24, pl.RngStream(SEED, t)) for t in range(10)]
        for s in samples:
            assert engine.select(s) == fraction_argmin(members, engine.sets, s)
        assert len(passes) == distinct(samples)

    def test_one_member_class(self, monkeypatch):
        engine, passes = counted_engine([pl.uniform([1, 2])], monkeypatch)
        assert engine.select([1]) == engine.select([7, 7]) == 0
        assert engine.sets == [] and passes == []


def fraction_argmins(members, sets, samples):
    """fraction_argmin on each sample, in exact integers: every probability
    and empirical measure times scale * m, with `scale` the least common
    denominator of the members' set probabilities, computed once."""
    probs = [[pl.event_prob(p, s) for s in sets] for p in members]
    scale = math.lcm(*(q.denominator for row in probs for q in row))
    nums = [[q.numerator * (scale // q.denominator) for q in row] for row in probs]
    chosen = []
    for sample in samples:
        counts, m = Counter(sample), len(sample)
        empirical = [scale * sum(counts[a] for a in s) for s in sets]
        devs = [max(abs(q * m - e) for q, e in zip(row, empirical)) for row in nums]
        chosen.append(devs.index(min(devs)))
    return chosen


def colex(window, n):
    """The n-subsets of `window` in colex order (by largest atom, then the
    next largest, ...): ascending bitmask order, as the anchored families
    rank their members."""
    return sorted(itertools.combinations(window, n), key=lambda subset: subset[::-1])


# classes that declare their window (the filtered anchored families of a
# window of at least 2n atoms), whose rows of at most n window atoms take the
# support rule, and classes that do not, whose every row takes the engine:
# sets of two-atom blocks, a window narrower than 2n, unfiltered, unequal
# masses on the window, a repeated support, a window class in lexicographic
# order, and two-member classes like the union's
WINDOW_CASES = {
    "anchored(1/2, 4, filter 2)": (lambda: pl.anchored_family(F(1, 2), 4, size_filter=2), True),
    "anchored(1/3, 5, filter 2)": (lambda: pl.anchored_family(F(1, 3), 5, size_filter=2), True),
    "anchored(1, 6, filter 3)": (lambda: pl.anchored_family(F(1), 6, size_filter=3), True),
    "anchored(1/2, 6, filter 1)": (lambda: pl.anchored_family(F(1, 2), 6, size_filter=1), True),
    "anchored(1/2, 2, filter 1)": (lambda: pl.anchored_family(F(1, 2), 2, size_filter=1), True),
    "three anchored deltas": (lambda: hand([mix_anchor(F(1, 2), [a]) for a in (1, 2, 3)]), False),
    "two anchored deltas": (lambda: hand([mix_anchor(F(1, 2), [1]), mix_anchor(F(1, 2), [2])]), False),
    "blocks": (lambda: hand(block_members()), False),
    "anchored(1/2, 5, filter 3)": (lambda: pl.anchored_family(F(1, 2), 5, size_filter=3), False),
    "anchored(1/2, 3, filter 2)": (lambda: pl.anchored_family(F(1, 2), 3, size_filter=2), False),
    "anchored(1/2, 3)": (lambda: pl.anchored_family(F(1, 2), 3), False),
    "member and empirical": (lambda: hand([mix_anchor(F(1, 2), [1, 2]), pl.empirical_dist((1, 3, 3))]), False),
    "uniform and delta": (lambda: hand([pl.uniform([1, 2]), pl.delta(1)]), False),
    # sets {2}, {3} and {1, 2}: as many as the subsets of one or two
    # singleton atoms, but atom 1 is in a set and no singleton
    "a set past the singletons": (lambda: hand([pl.delta(3), pl.uniform([2, 3]),
                                                pl.SparseDist({1: F(1, 3), 2: F(2, 3)})]), False),
    "window_members(31)": (lambda: hand(window_members(31)), False),
    # as many members as pairs of atoms 1-4, but pair {1, 2} twice and {3, 4} never
    "a support twice": (lambda: hand([mix_anchor(F(1, 2), [a, b]) for a, b in
                                      ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (1, 2))]), False),
    "lexicographic pairs": (lambda: hand(uniform_window_members(7, itertools.combinations)), False),
}


def hand(members):
    """A class of the members, in their order, that declares no window."""
    return pl.FiniteClass("distribution", members)


class TestSupportRule:
    """A Scheffé learner on a class that declares its window (W, n) selects
    each row of j <= n distinct window atoms by the support rule: the member
    that holds those j atoms and the n - j unseen window atoms of lowest
    position, its colex rank, with no mass table and no engine. A row of
    more window atoms takes the engine, built on first use; either way the
    choice is the engine's lowest-index argmin."""

    def test_the_rule_by_hand(self):
        # window atoms 1-8 at positions 0-7, members the pairs in colex order
        fam = pairs_class()
        learner = pl.ScheffeLearner(fam)
        # {5}: with the lowest unseen atom, {1, 5}, rank C(0, 1) + C(4, 2) = 6,
        # however many times atom 5 was seen
        assert learner.run([5]) is learner.run([5] * 40 + [0, 99]) is fam.members[6]
        assert fam.members[6].support() == (0, 1, 5)
        # {3, 7}: rank C(2, 1) + C(6, 2) = 17; no window atom: {1, 2}, rank 0
        assert learner.run([7, 3, 3]) is fam.members[17] and fam.members[17].support() == (0, 3, 7)
        assert learner.run([0, 99, 99]) is fam.members[0]
        # keyed by the bitmask of the seen window positions
        assert learner._ranks == {1 << 4: 6, 1 << 2 | 1 << 6: 17, 0: 0}
        assert "engine" not in learner.__dict__ and fam._mass_table is None

    def test_pairs_select_with_no_engine(self, monkeypatch):
        fam, engines = pairs_class(), recorded_engines(monkeypatch)
        learner = pl.ScheffeLearner(fam)
        samples = [s for m in range(1, 4) for s in itertools.combinations_with_replacement(range(10), m)
                   if len(set(s) & set(range(1, 9))) <= 2]
        samples += [pl.draw(PAIRS[5 * t % len(PAIRS)], 48, pl.RngStream(SEED, t)) for t in range(8)]
        chosen = select_counted(learner, samples)
        assert engines == [] and "engine" not in learner.__dict__ and fam._mass_table is None
        sets = pl.ScheffeEngine(PAIRS).sets
        assert chosen == [PAIRS[i] for i in fraction_argmins(PAIRS, sets, samples)]

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 3), extra=st.integers(0, 2), eta=st.sampled_from([F(1), F(1, 2), F(2, 7)]))
    def test_a_declared_window_is_what_the_rule_assumes(self, n, extra, eta):
        # anchored(eta, 2n + extra, filter n): one member per n-subset of the
        # window in colex order, one mass on its window atoms and one off the
        # window, and every subset of 1..n window atoms a comparison set
        fam = pl.anchored_family(eta, 2 * n + extra, size_filter=n)
        window, top = fam.window
        assert window == tuple(range(1, 2 * n + extra + 1)) and top == n
        members = list(fam.members)
        assert [tuple(a for a in p.support() if a in window) for p in members] == colex(window, n)
        assert len({w for p in members for a, w in p.items if a in window}) == 1
        assert len({sum(w for a, w in p.items if a not in window) for p in members}) == 1
        subsets = {frozenset(s) for k in range(1, n + 1) for s in itertools.combinations(window, k)}
        sets = pl.ScheffeEngine(members).sets
        assert len(sets) == len(subsets) and set(sets) == subsets

    @settings(max_examples=60, deadline=None)
    @given(eta=st.sampled_from([F(1), F(1, 2), F(1, 5), F(3, 7)]), n=st.integers(1, 3),
           extra=st.integers(0, 3), data=st.data())
    def test_the_rule_is_the_fraction_argmin(self, eta, n, extra, data):
        # blocks over the anchor (none at eta = 1), the window and atom 99,
        # outside every support: rows of fewer than n window atoms leave ties
        # among the unseen ones, and rows of more than n take the engine
        fam = pl.anchored_family(eta, 2 * n + extra, size_filter=n)
        window = set(fam.window[0])
        members = list(fam.members)
        learner, fresh = pl.ScheffeLearner(fam), pl.ScheffeEngine(members)
        block = data.draw(st.lists(st.lists(st.sampled_from([0, *sorted(window), 99]),
                                            min_size=1, max_size=8), min_size=1, max_size=24))
        samples = [tuple(s) for s in block]
        expected = fraction_argmins(members, fresh.sets, samples)
        assert [fresh.select(s) for s in samples] == expected
        assert select_counted(learner, samples) == [members[i] for i in expected]
        assert [learner.run(s) for s in samples] == [members[i] for i in expected]
        # the engine is built exactly when a row holds more than n window atoms
        assert ("engine" in learner.__dict__) == any(len(set(s) & window) > n for s in samples)
        # an empty row anywhere in a block raises
        empty = data.draw(st.integers(0, len(samples)))
        with pytest.raises(EmptySample):
            select_counted(learner, samples[:empty] + [()] + samples[empty:])

    def test_a_window_past_62_atoms_keys_by_python_ints(self):
        fam = pl.anchored_family(F(1), 64, size_filter=1)
        learner = pl.ScheffeLearner(fam)
        samples = [(64,), (63, 63), (1,), (99,), (64, 99), (1, 64), (62, 63, 64)]
        chosen = select_counted(learner, samples)
        assert chosen[:5] == [fam.members[i] for i in (63, 62, 0, 0, 63)]
        assert 1 << 63 in learner._ranks and learner._ranks[1 << 63] == 63
        assert all(type(key) is int for key in learner._ranks)
        members = list(fam.members)
        assert chosen == [members[i] for i in fraction_argmins(members, learner.engine.sets, samples)]

    @pytest.mark.parametrize("make", [lambda: pl.anchored_family(F(1, 2), 5, size_filter=3),
                                      lambda: pl.anchored_family(F(1, 2), 4),
                                      lambda: hand(list(PAIRS))], ids=["2n > w", "unfiltered", "hand"])
    def test_a_class_with_no_window_takes_the_engine(self, make, monkeypatch):
        cls = make()
        assert cls.window is None
        learner, members = pl.ScheffeLearner(cls), list(cls.members)
        (rows, engined), engines = counted_rule_rows(monkeypatch), recorded_engines(monkeypatch)
        samples = [s for m in (1, 2) for s in itertools.combinations_with_replacement(range(7), m)]
        chosen = select_counted(learner, samples)
        assert rows == engined == [len(samples)] and len(engines) == 1
        assert chosen == [members[i] for i in fraction_argmins(members, learner.engine.sets, samples)]

    @pytest.mark.parametrize("case", list(WINDOW_CASES))
    def test_every_small_multiset_and_wide_draws_match_the_fraction_argmin(self, case):
        make, declared = WINDOW_CASES[case]
        cls = make()
        members = list(cls.members)
        assert (cls.window is not None) == declared
        engine = pl.ScheffeEngine(members)
        atoms = sorted({a for p in members for a in p.support()}) + [99]
        samples = [s for m in range(1, 5) for s in itertools.combinations_with_replacement(atoms, m)]
        wide = [pl.draw(pl.uniform(atoms), 9, pl.RngStream(SEED, t)) for t in range(30)]
        if declared:
            # drawn rows past the rule's n window atoms
            window, n = cls.window
            assert any(len(set(s) & set(window)) > n for s in wide)
        expected = fraction_argmins(members, engine.sets, samples + wide)
        assert [engine.select(s) for s in samples + wide] == expected
        # a block of small multisets, then one with the wide rows too (which
        # take the engine on a class with a declared window)
        learner = pl.ScheffeLearner(make())
        assert select_counted(learner, samples[::7]) == [members[i] for i in expected[:len(samples)][::7]]
        assert select_counted(learner, samples[1::7] + wide) \
            == [members[i] for i in expected[:len(samples)][1::7] + expected[len(samples):]]


class TestSelectionTraffic:
    """Which path the lab's own runs select with: every row of the exact
    oracle on the n = 3 instance, and of the search workload's spot check,
    takes the support rule, and neither builds an engine (the spot check no
    mass table either); the truncated staged class and the union's
    two-member engines take the full pass. A change that moves a
    benchmark-shaped run off the rule fails here."""

    def test_exact_oracle_rows_take_the_rule(self, monkeypatch):
        inst = pl.nfl_distribution_instance(F(1, 2), 3)
        engines, full = recorded_engines(monkeypatch), counted_passes(monkeypatch)
        rows, engined = counted_rule_rows(monkeypatch)
        learner = pl.ScheffeLearner(inst.family)
        pl.nfl_exact(inst, [learner], 3)
        assert sum(rows) == math.comb(13 + 3 - 1, 3) == 455
        assert engined == full == engines == [] and "engine" not in learner.__dict__

    def test_spot_check_rows_take_the_rule(self, monkeypatch):
        # the search workload's spot check, on fewer trials and targets
        built, init = [], pl.ScheffeLearner.__init__

        def recorded(self, cls):
            init(self, cls)
            built.append(self)

        monkeypatch.setattr(pl.ScheffeLearner, "__init__", recorded)
        engines, full = recorded_engines(monkeypatch), counted_passes(monkeypatch)
        rows, engined = counted_rule_rows(monkeypatch)
        pl.synthesize(pl.FunctionTable.from_values([1, 4, 9]), pl.RngStream(1), spot_check_k=2,
                      trials=30, targets_cap=4)
        [learner] = built
        assert len(learner.cls) == 220 and learner.cls.window is not None and sum(rows) >= 30
        assert engined == full == engines == [] and "engine" not in learner.__dict__
        assert learner.cls._mass_table is None

    def test_a_large_window_class_builds_no_table_and_only_the_members_it_reads(self):
        # anchored(1, 20, filter 5): 15,504 members, whose mass table alone
        # took 0.3 s; trials against three members at m = 10
        fam = pl.anchored_family(F(1), 20, size_filter=5)
        learner = pl.ScheffeLearner(fam)
        targets = [0, 7_000, len(fam) - 1]
        outputs = {id(out) for i in targets for out in learner.run_draws(fam.members[i], 10, range(64))}
        assert fam._mass_table is None and "engine" not in learner.__dict__
        assert len(fam.members._built) <= len(targets) + len(outputs)

    def test_truncation_and_union_engines_take_the_full_pass(self, monkeypatch):
        # the class and sample size of the shipped learn_truncation config
        staged = pl.StagedClass("distribution", pl.SequenceSpec(pl.Reciprocal(F(8)), pl.IdentityN()))
        learner = pl.TruncationLearner(staged, 8)
        assert learner.cls.window is None and "engine" not in learner.__dict__  # built at the first select
        (rows, engined), full = counted_rule_rows(monkeypatch), counted_passes(monkeypatch)
        list(learner.run_draws(learner.cls.members[26], 18, range(50)))
        assert rows == engined and sum(rows) == 50 and full and set(full) == {18}
        assert (len(learner.engine.members), learner.engine._incidence.shape[1]) == (27, 16)
        fam = pairs_class()
        union = pl.UnionLearner([pl.ScheffeLearner(fam), pl.EmpiricalBaseline("distribution")])
        rows.clear(), engined.clear(), full.clear()
        # its Scheffé constituent takes the rule on the first halves, 4 points
        # each; the union's two-member engines the full pass on the second
        list(union.run_draws(fam.members[3], 8, range(20)))
        assert sum(rows) == 20 and "engine" not in union.learners[0].__dict__
        assert len(engined) == 20 and full and set(full) == {4}


# one engine per arithmetic width: with m <= 6, denom * m stays within int16,
# int32 or int64, crosses from int64 to Python ints at m = 3, or the
# denominator is past int64 from the start
WIDTH_DENOMS = {"int16": 31, "int32": 2 ** 20 + 7, "int64": 2 ** 40 + 15,
                "int64-to-object": 2 ** 61 - 1, "object": 2 ** 64 + 13}


def width_members(q):
    """Four members over atoms 0-2 with masses over q, and one without atom 0."""
    return ([pl.SparseDist({0: F(k, q), 1: F(q - 2 * k, q), 2: F(k, q)})
             for k in (1, 2, q // 3, q // 2 - 1)]
            + [pl.SparseDist({1: 1 - F(1, q), 2: F(1, q)})])


def window_members(q):
    """Six members on the pairs of atoms 1-4, in colex order, with unequal
    masses over q: every subset of one or two of those atoms is a comparison
    set, but the table test rejects the class, so it takes the full pass."""
    pairs = colex(range(1, 5), 2)
    return [pl.SparseDist({a: F(k, q), b: 1 - F(k, q)})
            for k, (a, b) in zip((1, 2, q // 3, q // 2 - 1, q // 4, 3), pairs)]


def uniform_window_members(q, order=colex):
    """(1 - 2/q) delta(0) + (2/q) Uniform(A) for the six pairs A of atoms
    1-4, in the order `order(window, 2)` lists them, with denominator q: a
    window class, which takes the support rule in colex order."""
    return [pl.SparseDist({0: 1 - F(2, q), a: F(1, q), b: F(1, q)})
            for a, b in order(range(1, 5), 2)]


def scheffe(members):
    """A Scheffé learner over the members, in their order."""
    return pl.ScheffeLearner(pl.FiniteClass("distribution", members))


def select_counted(learner, samples):
    """run_counts() on the count rows of a block of samples (`count_rows`)."""
    return learner.run_counts(*count_rows(samples))


class TestSelectBlock:
    """run_counts() answers a counted block of samples as select() answers
    each; its selections are the exact lowest-index argmin."""

    @pytest.mark.parametrize("width", WIDTH_DENOMS)
    def test_widths(self, width):
        engine = pl.ScheffeEngine(width_members(WIDTH_DENOMS[width]))
        dtypes = [learners._int_dtype(engine.denom * m) for m in range(1, 7)]
        names = [dtype.name for dtype in dtypes]
        if width == "int64-to-object":
            assert names == ["int64"] * 2 + ["object"] * 4
        else:
            assert names == [width] * 6

    @pytest.mark.parametrize("width", WIDTH_DENOMS)
    def test_a_window_class_at_every_width_is_the_fraction_argmin(self, width, monkeypatch):
        # uniform on the pairs of a window, as the support rule's classes, but
        # at every width of the full pass's arithmetic
        members = uniform_window_members(WIDTH_DENOMS[width])
        engine, passes = counted_engine(members, monkeypatch)
        assert engine.denom == WIDTH_DENOMS[width]
        samples = [s for m in range(1, 7) for s in itertools.combinations_with_replacement(range(6), m)
                   if len(set(s) & {1, 2, 3, 4}) <= 2]
        chosen = [engine.select(s) for s in samples]
        assert len(passes) == len(engine._memo) == len(samples)
        assert chosen == fraction_argmins(members, engine.sets, samples)

    @settings(max_examples=40, deadline=None)
    @given(width=st.sampled_from(list(WIDTH_DENOMS)),
           block=st.lists(st.lists(st.sampled_from([0, 1, 2, 3, 4, 7]), min_size=1, max_size=6),
                          min_size=1, max_size=40))
    @example(width="int64-to-object", block=[[4], [4, 4], [1, 2, 3]])  # m = 1 to 3, past int64 at 3
    def test_window_block_equals_select_and_the_fraction_argmin(self, width, block):
        members = uniform_window_members(WIDTH_DENOMS[width])
        learner, fresh = scheffe(members), pl.ScheffeEngine(members)
        samples = [tuple(s) for s in block]
        chosen = select_counted(learner, samples)
        assert chosen == [members[fresh.select(s)] for s in samples]
        assert chosen == [members[i] for i in fraction_argmins(members, fresh.sets, samples)]

    @settings(max_examples=80, deadline=None)
    @given(width=st.sampled_from(list(WIDTH_DENOMS)),
           block=st.lists(st.lists(st.sampled_from([0, 1, 2, 7]), min_size=1, max_size=6),
                          min_size=1, max_size=40))
    @example(width="int16", block=[[0]])  # k = 1
    @example(width="object", block=[[7, 7]])  # k = 1, atoms outside every support
    @example(width="int32", block=[[0, 1], [1, 0], [0, 1], [2], [0, 1]])  # duplicates
    def test_block_equals_select_and_the_fraction_argmin(self, width, block):
        members = width_members(WIDTH_DENOMS[width])
        learner, fresh = scheffe(members), pl.ScheffeEngine(members)
        samples = [tuple(s) for s in block]
        samples += samples[::3]  # repeats within the block, after their first answer
        chosen = select_counted(learner, samples)
        assert chosen == [members[fresh.select(s)] for s in samples]
        assert chosen == [members[fraction_argmin(members, fresh.sets, s)] for s in samples]
        assert select_counted(learner, samples) == chosen  # now every row is a memo hit

    def test_memo_keys_hold_counts_past_255(self):
        # 256 copies of one atom would wrap to a zero row in a uint8 key
        members = [pl.delta(0), pl.delta(1), pl.uniform([0, 1])]
        learner = scheffe(members)
        engine = learner.engine
        assert select_counted(learner, [(0,) * 256, (1,) * 256]) == members[:2]
        # counts (1, 2, 0) as uint8 and (513, 0, 0) as uint16 share their
        # nonzero bytes, 01 02; the keys differ in length
        assert engine.select((0, 1, 1)) == 2
        assert engine.select((0,) * 513) == 0

    def test_mixed_sample_sizes_in_one_block(self, monkeypatch):
        # a block of 50 samples of 1-49 points on the 28-member class with
        # an 8-atom window: the rule answers the rows drawn from members, and
        # each distinct row of three or more window atoms takes a full pass
        learner = pl.ScheffeLearner(pairs_class())
        (rows, engined), passes = counted_rule_rows(monkeypatch), counted_passes(monkeypatch)
        samples = [pl.draw(PAIRS[t % len(PAIRS)], 1 + 47 * (t % 2) + t % 5, pl.RngStream(SEED, t))
                   for t in range(40)]
        samples += [s + (40,) for s in samples[:5]]
        wide = [pl.draw(pl.uniform(range(1, 9)), 3 + t, pl.RngStream(SEED, 100 + t)) for t in range(5)]
        samples += wide
        assert select_counted(learner, samples) \
            == [PAIRS[fraction_argmin(PAIRS, learner.engine.sets, s)] for s in samples]
        assert all(len(set(s)) > 2 for s in wide)
        assert rows == [len(samples)] and engined == [len(wide)] and len(passes) == distinct(wide)

    def test_engine_without_comparison_sets(self):
        members = [pl.uniform([1, 2]), pl.uniform([1, 2])]
        learner = scheffe(members)
        assert learner.engine.sets == []
        assert select_counted(learner, [(1,), (7, 7), (2, 1, 9)]) == [members[0]] * 3
        assert select_counted(learner, []) == []
        with pytest.raises(EmptySample):
            select_counted(learner, [(1,), ()])

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySample):
            scheffe(PAIRS).engine.select([])
        for learner in (scheffe(PAIRS), pl.ScheffeLearner(pairs_class())):
            with pytest.raises(EmptySample):
                learner.run([])
            with pytest.raises(EmptySample):
                select_counted(learner, [(1, 2), ()])
            assert select_counted(learner, []) == []

    def test_block_straddling_the_memo_clear(self):
        # every selection on the block class takes the full pass through the memo
        members = block_members()
        learner, fresh = scheffe(members), pl.ScheffeEngine(members)
        bags = list(itertools.combinations_with_replacement(range(10), 6))
        size = learners.SELECT_MEMO_SIZE
        for lo in range(0, size - 2, 32):
            select_counted(learner, bags[lo:min(lo + 32, size - 2)])
        assert len(learner.engine._memo) == size - 2
        # hits, then five misses (the third clears the memo), then hits
        # whose entries the clear dropped
        block = bags[:3] + bags[size - 2:size + 3] + bags[:3]
        assert select_counted(learner, block) == [members[fresh.select(s)] for s in block]
        assert len(learner.engine._memo) == 3

    def test_learner_run_block_equals_run(self):
        fam = pl.anchored_family(F(1, 2), 8, size_filter=2)
        learner = pl.ScheffeLearner(fam)
        samples = [pl.draw(fam[t % len(fam)], 5, pl.RngStream(SEED, t)) for t in range(70)]
        block = learner.run_block(iter(samples))
        assert next(block) == learner.run(samples[0])  # lazily, a chunk at a time
        assert [learner.run(samples[0]), *block] == [learner.run(s) for s in samples]

    def test_select_block_allocates_no_deviation_matrix(self):
        # blocks of 32 fresh 12-point samples on the 220 x 298 engine, of all
        # 13 atoms, so most hold more than the rule's 3 window atoms
        fam = pl.nfl_distribution_instance(F(1, 2), 3).family
        learner = pl.ScheffeLearner(fam)
        atoms = pl.uniform(range(13))
        samples = [pl.draw(atoms, 12, pl.RngStream(SEED, t)) for t in range(96)]
        learner.run(samples[0])  # the deviation buffer is the engine's, not a temporary
        assert learner.engine._dev.nbytes and len(learner.engine._memo) == 1
        tracemalloc.start()
        try:
            for lo in range(0, len(samples), 32):
                select_counted(learner, samples[lo:lo + 32])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < learner.engine._dev.nbytes


def reciprocal_staged():
    return pl.StagedClass("distribution", pl.SequenceSpec(pl.Reciprocal(F(1, 2)), pl.IdentityN()))


def labeled_members():
    """Three members over tuple atoms, one of them outside another's support."""
    return [pl.SparseDist({(0, 0): F(1, 2), (1, 1): F(1, 4), (2, 0): F(1, 4)}),
            pl.SparseDist({(0, 0): F(1, 4), (1, 1): F(3, 4)}),
            pl.SparseDist({(0, 1): F(1, 3), (2, 0): F(2, 3)})]


# (learner, target) makers: the truncation learner's target puts mass on
# atoms 5-8, outside its engine's columns 0-4; the labeled target on (3, 1),
# outside every member's support; a one-atom target; a one-member class,
# whose engine has no comparison sets
ROW_CASES = {
    "truncation": lambda: (pl.TruncationLearner(reciprocal_staged(), F(1, 2)),
                           reciprocal_staged().truncate(F(1, 4))[-1]),
    "labeled": lambda: (pl.ScheffeLearner(pl.FiniteClass("distribution", labeled_members())),
                        pl.SparseDist({(0, 0): F(1, 3), (1, 1): F(1, 3), (3, 1): F(1, 3)})),
    "one-atom": lambda: (pl.ScheffeLearner(pl.FiniteClass("distribution", PAIRS)), pl.delta(3)),
    "one-member": lambda: (pl.ScheffeLearner(pl.FiniteClass("distribution", [pl.uniform([1, 2])])),
                           pl.uniform([1, 2, 3])),
}


class TestSelectRows:
    """run_draws(), which counts the rows dist.draw_rows gives, answers as
    run() on each sample dist.draws gives, and as run_block() on them."""

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(list(ROW_CASES)), m=st.sampled_from([1, 2, 5, 33]),
           size=st.sampled_from([1, SELECT_CHUNK, SELECT_CHUNK + 1, 70]),
           first=st.integers(0, 2 ** 64 - 100))
    def test_rows_select_as_the_drawn_samples(self, case, m, size, first):
        (learner, target), (fresh, _) = ROW_CASES[case](), ROW_CASES[case]()
        seeds = range(first, first + size)
        samples = list(draws(target, m, seeds))
        expected = [fresh.run(s) for s in samples]
        if case == "truncation":
            assert set(target.support()) - set(learner.engine._atoms)
        assert list(learner.run_draws(target, m, seeds)) == expected
        assert list(learner.run_draws(target, m, seeds)) == expected  # now every row is a memo hit
        assert list(fresh.run_block(samples)) == expected

    @pytest.mark.parametrize("case", list(ROW_CASES))
    def test_empty_samples_raise(self, case):
        learner, target = ROW_CASES[case]()
        atoms = target.support()
        with pytest.raises(EmptySample):
            learner.run_counts(atoms, np.zeros((2, len(atoms)), dtype=np.intp))
        with pytest.raises(EmptySample):
            list(learner.run_block(list(draws(target, 0, [1, 2]))))
        with pytest.raises(EmptySample):
            next(learner.run_draws(target, 0, [1, 2]))
        # no samples: no selection
        assert learner.run_counts(atoms, np.zeros((0, len(atoms)), dtype=np.intp)) == []
        for m in (0, 4):
            assert list(learner.run_draws(target, m, [])) == []


class TestTruncationLearner:
    def staged(self):
        return pl.StagedClass("distribution",
                              pl.SequenceSpec(pl.Reciprocal(F(8)), pl.IdentityN()))

    def test_truncates_and_learns(self):
        learner = pl.TruncationLearner(self.staged(), 8)
        assert len(learner.cls) == 27
        assert learner.advertised_sample_size(0.1) == 18
        target = learner.cls[26]
        s = pl.draw(target, 18, pl.RngStream(SEED, 5))
        assert learner.run(s) in learner.cls.members

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
        assert len(learner.cls) == 27
        m = learner.advertised_sample_size(0.2)
        target = learner.cls[26]  # stage 4, A=[1,2,3,4], level 1/8
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
        sample = ((1, 1), (2, 1), (3, 0), (4, 0))
        h = erm.run(sample)
        assert counting_risk(erm, h, sample) == 0
        assert h.ones == (1, 2)

    def test_tie_breaks_to_lowest_index(self):
        hyps = [pl.BinaryHypothesis.from_set([1]), pl.BinaryHypothesis.from_set([2])]
        erm = pl.ErmLearner(hyps, "classification")
        # both have empirical risk 1/2 on this sample
        out = erm.run(((1, 1), (2, 1)))
        assert out is hyps[0]

    def test_empty_sample_returns_first(self):
        hyps = [pl.BinaryHypothesis.from_set([2]), pl.BinaryHypothesis.from_set([1])]
        erm = pl.ErmLearner(hyps, "classification")
        assert erm.run(()) is hyps[0]

    def test_absolute_loss_example(self):
        fam = pl.plateau_family(pl.AbsoluteLoss(), F(1, 2), 1)
        erm = pl.ErmLearner.for_class(fam)
        out = erm.run(((1, 1), (1, 1)))  # y = 1/2 twice
        assert out.values == ((1, F(1, 2)),)

    def test_erm_is_global_minimizer(self):
        fam = pl.labeled_anchored_family(F(1, 2), 2)
        erm = pl.ErmLearner.for_class(fam)
        sample = ((1, 0), (1, 1), (2, 1), (4, 0), (3, 1))
        best = min(counting_risk(erm, h, sample) for h in erm.hypotheses)
        assert counting_risk(erm, erm.run(sample), sample) == best


def counting_risk(erm, h, sample):
    """The reference empirical risk for ERM: counted over the sample's
    points, 0 on an empty sample."""
    if not sample:
        return F(0)
    if erm.task == "classification":
        return F(sum(1 for (x, y) in sample if h(x) != y), len(sample))
    ctx = erm.real_ctx
    return sum((ctx.loss.g(abs(h(x) - ctx.y_of_bit(b))) for (x, b) in sample), F(0)) / len(sample)


def counting_erm(erm, sample):
    """The first hypothesis of least counting_risk."""
    best, best_h = None, erm.hypotheses[0]
    for h in erm.hypotheses:
        risk = counting_risk(erm, h, sample)
        if best is None or risk < best:
            best, best_h = risk, h
    return best_h


def counting_baseline(task, real_ctx, sample):
    """The plurality labeler by counting (x, y) labels; unseen points and
    exact label ties go to 0."""
    counts = Counter(sample)
    ones = sorted({x for (x, _) in counts if counts[(x, 1)] > counts[(x, 0)]})
    if task == "classification":
        return pl.BinaryHypothesis.from_set(ones)
    return pl.RealHypothesis(tuple((x, real_ctx.level_value) for x in ones))


LOSSES = [pl.AbsoluteLoss(), pl.SquaredLoss(), pl.CappedLinearLoss(F(1, 2))]
POINTS = st.tuples(st.integers(0, 4), st.integers(0, 1))
TIED = [(1, 0), (1, 1), (2, 1), (2, 1), (2, 0), (3, 0)]  # x = 1 ties, x = 2 is a 1


@settings(max_examples=150, deadline=None)
@given(task=st.sampled_from(["classification", "real"]), loss=st.sampled_from(LOSSES),
       sample=st.lists(POINTS, max_size=9),
       ones=st.lists(st.frozensets(st.integers(0, 4)), min_size=1, max_size=5),
       levels=st.lists(st.sampled_from([F(0), F(1, 4), F(1, 2), F(1)]), min_size=5, max_size=5))
@example(task="classification", loss=LOSSES[0], sample=[], ones=[{1}, {2}], levels=[F(0)] * 5)
@example(task="real", loss=LOSSES[1], sample=[], ones=[{1}], levels=[F(1, 2)] * 5)
@example(task="classification", loss=LOSSES[0], sample=TIED, ones=[{1}, {2}, {1, 2}, set()],
         levels=[F(0)] * 5)
@example(task="real", loss=LOSSES[2], sample=TIED, ones=[{1, 2}, {2}, {1}], levels=[F(1, 2)] * 5)
def test_erm_and_baseline_equal_counting_references(task, loss, sample, ones, levels):
    # the hypothesis-task learners score and label through the losses
    # module; counting (x, y) labels must give the same choice and ties
    ctx = pl.plateau_data_family(loss, F(1, 2), 3).real_ctx
    if task == "classification":
        hyps = [pl.BinaryHypothesis.from_set(s) for s in ones]
    else:
        hyps = [pl.RealHypothesis(tuple((x, levels[x]) for x in sorted(s))) for s in ones]
    erm = pl.ErmLearner(hyps, task, real_ctx=ctx)
    assert erm.run(sample) is counting_erm(erm, sample)
    assert pl.EmpiricalBaseline(task, real_ctx=ctx).run(sample) == counting_baseline(task, ctx,
                                                                                    sample)


class TestUnion:
    def test_single_learner_equals_run_on_first_half(self):
        fam = pl.anchored_family(F(1, 2), 2)
        inner = pl.ScheffeLearner(fam)
        union = pl.UnionLearner([inner])
        s = pl.draw(fam[2], 9, pl.RngStream(SEED, 8))
        assert union.run(s) == inner.run(s[:5])

    def test_duplicate_learners_match_single(self):
        fam = pl.anchored_family(F(1, 2), 2)
        inner = pl.ScheffeLearner(fam)
        s = pl.draw(fam[1], 12, pl.RngStream(SEED, 9))
        assert pl.UnionLearner([inner] * 3).run(s) == pl.UnionLearner([inner]).run(s)

    @pytest.mark.parametrize("task", ["distribution", "classification"])
    def test_run_block_selects_among_first_half_outputs_on_second_halves(self, task):
        if task == "distribution":
            fam = pl.anchored_family(F(1, 2), 4, size_filter=2)
            ref, inner = pl.ScheffeLearner(fam), pl.ScheffeLearner(fam)
        else:
            fam = pl.labeled_anchored_family(F(1, 2), 2)
            ref, inner = pl.ErmLearner.for_class(fam), pl.ErmLearner.for_class(fam)
        baseline = pl.EmpiricalBaseline(task)
        samples = [pl.draw(fam[t % len(fam)], 4 + t % 5, pl.RngStream(SEED, 700 + t))
                   for t in range(70)]
        expected = []
        for s in samples:
            cut = (len(s) + 1) // 2
            candidates = [ref.run(s[:cut]), baseline.run(s[:cut])]
            if task == "distribution":
                expected.append(candidates[pl.ScheffeEngine(candidates).select(s[cut:])])
            else:
                expected.append(pl.ErmLearner(candidates, task).run(s[cut:]))
        rows = []
        if task == "distribution":
            run_counts = inner.run_counts

            def counted(atoms, counts):
                rows.append(len(counts))
                return run_counts(atoms, counts)

            inner.run_counts = counted
        union = pl.UnionLearner([inner, baseline])
        assert list(union.run_block(iter(samples))) == expected
        if task == "distribution":
            # the Scheffé constituent counts the first halves a chunk at a time
            assert rows == [SELECT_CHUNK, SELECT_CHUNK, len(samples) - 2 * SELECT_CHUNK]

    def test_mixed_tasks_rejected(self):
        fam = pl.anchored_family(F(1, 2), 2)
        erm = pl.ErmLearner([pl.BinaryHypothesis(())], "classification")
        with pytest.raises(MixedTasks):
            pl.UnionLearner([pl.ScheffeLearner(fam), erm])

    def test_sample_too_small(self):
        fam = pl.anchored_family(F(1, 2), 2)
        with pytest.raises(SampleTooSmall):
            pl.UnionLearner([pl.ScheffeLearner(fam)]).run((0,))

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
            cut = (len(s) + 1) // 2
            cands = [ln.run(s[:cut]) for ln in learners]
            engine = pl.ScheffeEngine(cands)
            chosen = union.run(s)
            best = min(pl.tv(c, target) for c in cands)
            gap = empirical_gap(engine, target, s[cut:])
            assert pl.tv(chosen, target) <= 3 * best + 4 * gap


class TestBaselinesAndLosses:
    def test_distribution_baseline(self):
        out = pl.EmpiricalBaseline("distribution").run((1, 1, 2))
        assert dict(out.items) == {1: F(2, 3), 2: F(1, 3)}

    def test_plurality_labeler(self):
        base = pl.EmpiricalBaseline("classification")
        out = base.run(((1, 1), (1, 1), (1, 0), (2, 0)))
        assert out.ones == (1,)

    @pytest.mark.parametrize("task", ["classification", "real"])
    def test_plurality_from_counts_is_run_on_every_small_multiset(self, task, monkeypatch):
        # every multiset of m <= 4 of the labeled(1/2, 2) atoms, or of a real
        # instance's atoms, labelled by comparing two integer counts per point
        fam = (pl.labeled_anchored_family(F(1, 2), 2) if task == "classification"
               else pl.nfl_real_instance(pl.AbsoluteLoss(), F(1, 2), 3).family)
        atoms = fam.mass_table().atoms
        baseline = pl.EmpiricalBaseline(task, real_ctx=fam.real_ctx)
        bags = [bag for m in range(5) for bag in itertools.combinations_with_replacement(range(len(atoms)), m)]
        expected = [baseline.run([atoms[i] for i in bag]) for bag in bags]
        counts = np.array([np.bincount(np.array(bag, dtype=np.intp), minlength=len(atoms)) for bag in bags])

        def refuse(*args):
            raise AssertionError("a count row built an empirical distribution")

        monkeypatch.setattr(learners, "empirical_dist", refuse)
        assert list(baseline.run_counts(atoms, counts)) == expected

    def test_bayes_ties_to_zero(self):
        p = pl.SparseDist({(1, 0): F(1, 2), (1, 1): F(1, 2)})
        assert pl.bayes_labeler(p).ones == ()

    def test_excess_risk_of_bayes_is_zero(self):
        fam = pl.labeled_anchored_family(F(1, 2), 2)
        for member in fam.members[:4]:
            assert pl.zero_one_excess(pl.bayes_labeler(member), member) == 0

    def test_bayes_risk_is_remembered_per_target(self):
        losses.bayes_risk.cache_clear()
        fam = pl.labeled_anchored_family(F(1, 2), 2)
        hypotheses = hypotheses_of_class(fam)
        for member in fam.members[:4]:
            for h in hypotheses:
                assert pl.zero_one_excess(h, member) \
                    == pl.zero_one_risk(h, member) - pl.zero_one_risk(pl.bayes_labeler(member), member)
        info = losses.bayes_risk.cache_info()
        assert (info.misses, info.maxsize) == (4, losses.BAYES_RISK_CACHE_SIZE)

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

    @pytest.mark.parametrize("members", [
        pl.anchored_family(F(1, 2), 3).members,
        MIXED,
        [pl.uniform([1]), pl.uniform([2]), pl.uniform([1]), pl.uniform([2])],  # ties
        [pl.SparseDist({0: F(k, 2 ** 64 + 13), 1: 1 - F(k, 2 ** 64 + 13)})     # object path
         for k in (3, 1, 2 ** 63, 1)],
    ], ids=["anchored", "mixed", "ties", "past-int64"])
    def test_table_opt_loss_is_brute_force_min_and_first_witness(self, members):
        cls = pl.FiniteClass("distribution", members)
        targets = [*members, pl.delta(0), pl.delta(42), pl.uniform([0, 1, 9]),
                   pl.SparseDist({1: F(1, 3), 2: F(1, 3), 77: F(1, 3)}),
                   pl.SparseDist({(1, 0): F(1, 2), 0: F(1, 2)})]
        for target in targets:
            losses = [pl.task_loss(cls, p, target) for p in members]
            best = min(losses)
            assert pl.opt_loss(cls, target) == (best, losses.index(best))

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
