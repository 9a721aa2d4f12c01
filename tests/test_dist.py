"""Core distribution type: constructors, TV, sampling, empirical measures."""

import itertools
import json
import math
import platform
import random
import sys
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paclab as pl
from paclab.dist import DRAW_POINTS, SELECT_CHUNK, draw_rows, draws
from paclab.errors import BadDistribution, BadWeights, EmptySample, EmptySupport
from paclab.rng import mix

SEED = 20260808


def mix_anchor(eta, atoms):
    return pl.mixture([(1 - F(eta), pl.delta(0)), (F(eta), pl.uniform(atoms))])


class TestConstructors:
    def test_uniform_singleton(self):
        assert pl.uniform([5]).items == ((5, F(1)),)

    def test_uniform_three(self):
        u = pl.uniform([1, 2, 3])
        assert all(p == F(1, 3) for _, p in u.items)

    def test_uniform_empty(self):
        with pytest.raises(EmptySupport):
            pl.uniform([])

    def test_mixture_identity(self):
        p = pl.uniform([1, 2])
        assert pl.mixture([(F(1), p)]) == p

    def test_mixture_hand_value(self):
        m = mix_anchor(F(1, 2), [1, 2])
        assert dict(m.items) == {0: F(1, 2), 1: F(1, 4), 2: F(1, 4)}

    def test_mixture_bad_weights(self):
        with pytest.raises(BadWeights):
            pl.mixture([(F(1, 2), pl.delta(0)), (F(1, 3), pl.delta(1))])
        with pytest.raises(BadWeights):
            pl.mixture([(F(3, 2), pl.delta(0)), (F(-1, 2), pl.delta(1))])

    def test_mass_must_be_one(self):
        with pytest.raises(BadDistribution):
            pl.SparseDist({0: F(1, 2)})

    def test_zero_mass_atoms_dropped(self):
        d = pl.SparseDist({0: F(1), 1: F(0)})
        assert d.support() == (0,)

    def test_labeled_atoms(self):
        d = pl.SparseDist({(0, 0): F(1, 2), (3, 1): F(1, 2)})
        assert d.prob((3, 1)) == F(1, 2)
        assert d.prob((3, 0)) == 0

    def test_serialization_roundtrip(self):
        d = pl.SparseDist({(0, 0): F(1, 3), (2, 1): F(2, 3)}, tag="x")
        obj = d.to_json_obj()
        assert obj["atoms"][0] == [[0, 0], "1/3"]
        assert json.loads(json.dumps(obj)) == {"atoms": [[[0, 0], "1/3"], [[2, 1], "2/3"]],
                                               "tag": "x"}


class TestTv:
    def test_identical(self):
        assert pl.tv(pl.delta(0), pl.delta(0)) == 0

    def test_disjoint(self):
        assert pl.tv(pl.delta(0), pl.delta(1)) == 1

    def test_hand_value(self):
        p = mix_anchor(F(1, 2), [1, 2])
        q = mix_anchor(F(1, 2), [2, 3])
        assert pl.tv(p, q) == F(1, 4)

    @pytest.mark.parametrize("k,atoms", [(2, [1]), (5, [3, 4]), (7, [1, 2, 3])])
    def test_anchor_distance_is_level(self, k, atoms):
        assert pl.tv(pl.delta(0), mix_anchor(F(1, k), atoms)) == F(1, k)


class TestEventProb:
    def test_anchor_complement(self):
        m = mix_anchor(F(1, 5), [1, 2])
        assert pl.event_prob(m, {0}) == F(4, 5)

    def test_empty_event(self):
        assert pl.event_prob(pl.uniform([1, 2]), set()) == 0

    def test_full_support(self):
        u = pl.uniform([4, 5, 6])
        assert pl.event_prob(u, set(u.support())) == 1


class TestDraw:
    def test_point_mass(self):
        s = pl.draw(pl.delta(0), 5, pl.RngStream(SEED, 0))
        assert s == (0,) * 5

    def test_determinism(self):
        r = pl.RngStream(SEED, 3)
        a = pl.draw(pl.uniform([1, 2, 3]), 100, r)
        b = pl.draw(pl.uniform([1, 2, 3]), 100, r)
        assert a == b

    def test_streams_differ(self):
        a = pl.draw(pl.uniform([1, 2, 3]), 100, pl.RngStream(SEED, 0))
        b = pl.draw(pl.uniform([1, 2, 3]), 100, pl.RngStream(SEED, 1))
        assert a != b

    def test_shipped_seed_frequencies(self):
        s = pl.draw(pl.uniform([1, 2, 3, 4]), 40000, pl.RngStream(SEED, 0))
        freqs = Counter(s)
        for a in (1, 2, 3, 4):
            assert 0.24 <= freqs[a] / 40000 <= 0.26


class TestDrawBlocks:
    """A block of trials: every seed from one pass, every sample from one
    reseeded generator, each equal to its own substream's."""

    @pytest.mark.parametrize("master", [0, SEED, -3, 2 ** 64, 2 ** 64 + 5, -(2 ** 70)])
    @pytest.mark.parametrize("prefix", [(), (7,), (2 ** 70, -1), (-5, 3, 2 ** 64 + 1)], ids=repr)
    def test_child_seeds_are_the_substream_seeds(self, master, prefix):
        for index in (0, 9, 2 ** 65):
            r = pl.RngStream(master, index)
            expected = [mix(master, r.child(*prefix, t).stream_index) for t in range(6)]
            assert r.child_seeds(*prefix, count=6) == expected
            assert r.seed == mix(master, index)

    @pytest.mark.parametrize("master", [0, -1, 2 ** 64 - 1, 2 ** 70])
    @pytest.mark.parametrize("count", [0, 1, 120])
    def test_child_seeds_are_the_children_seeds(self, master, count):
        # one uint64 pass gives the Python ints child() gives, one at a time
        for prefix in [(), (3,), (2 ** 64 - 1, -7)]:
            r = pl.RngStream(master, 11)
            seeds = r.child_seeds(*prefix, count=count)
            assert seeds == [r.child(*prefix, t).seed for t in range(count)]
            assert all(type(seed) is int for seed in seeds)

    @settings(max_examples=60, deadline=None)
    @given(master=st.integers(-(2 ** 70), 2 ** 70), index=st.integers(-(2 ** 70), 2 ** 70),
           prefix=st.lists(st.integers(-(2 ** 70), 2 ** 70), max_size=3),
           count=st.integers(0, 200))
    def test_child_seeds_equal_child_seeds_one_at_a_time(self, master, index, prefix, count):
        r = pl.RngStream(master, index)
        expected = [r.child(*prefix, t).seed for t in range(count)]
        assert r.child_seeds(*prefix, count=count) == expected

    @pytest.mark.parametrize("m", [0, 1, 2, 17])
    @pytest.mark.parametrize("p", [
        pl.delta(3),
        pl.uniform([1, 2, 3]),
        mix_anchor(F(1, 2), [4, 5, 6, 7]),
        pl.SparseDist({(0, 0): F(1, 4), (0, 1): F(1, 4), (2, 1): F(1, 2)}),
    ], ids=["one-atom", "uniform", "anchored", "labeled"])
    def test_block_samples_are_the_substream_draws(self, m, p):
        r = pl.RngStream(SEED, 4)
        block = list(draws(p, m, r.child_seeds(8, 2, count=12)))
        assert block == [pl.draw(p, m, r.child(8, 2, t)) for t in range(12)]

    @pytest.mark.parametrize("p", [pl.delta(3), pl.uniform([1, 2, 3])], ids=["one-atom", "uniform"])
    @pytest.mark.parametrize("m", [0, 5, DRAW_POINTS // 16])
    @pytest.mark.parametrize("k", [1, SELECT_CHUNK - 1, SELECT_CHUNK, SELECT_CHUNK + 1, 100])
    def test_reading_k_samples_reads_at_most_one_chunk_of_seeds_more(self, p, m, k):
        read = []

        def seeds():
            for t in itertools.count():
                read.append(t)
                yield t

        assert len(list(itertools.islice(draws(p, m, seeds()), k))) == k
        assert k <= len(read) <= k + SELECT_CHUNK - 1

    def test_negative_size_is_rejected(self):
        with pytest.raises(BadDistribution):
            list(draws(pl.uniform([1, 2]), -1, [1, 2]))
        with pytest.raises(BadDistribution):
            pl.draw(pl.uniform([1, 2]), -1, pl.RngStream(SEED, 0))


def reference_choices(p, m, seed):
    """The sample random.Random(seed).choices draws over p's canonical atoms,
    with cumulative weights summed here in float, the last exactly 1.0."""
    atoms, cum, running = [], [], 0.0
    for a, mass in p.items:
        running += float(mass)
        atoms.append(a)
        cum.append(running)
    cum[-1] = 1.0
    return tuple(random.Random(seed).choices(atoms, cum_weights=cum, k=m))


@st.composite
def sampling_dists(draw):
    """One, two or many atoms with arbitrary positive masses, unlabeled or
    labeled (tuple atoms)."""
    n = draw(st.sampled_from([1, 2, 3, 60]) | st.integers(1, 60))
    weights = draw(st.lists(st.integers(1, 10 ** 6), min_size=n, max_size=n))
    labeled = draw(st.booleans())
    atoms = [(j // 2, j % 2) if labeled else 3 * j for j in range(n)]
    total = sum(weights)
    return pl.SparseDist({a: F(w, total) for a, w in zip(atoms, weights)})


SEEDS = st.integers(0, 2 ** 32 - 1) | st.integers(0, 2 ** 64 - 1)


class TestDrawsAgainstChoices:
    """dist.draws builds samples from raw generator words; the reference is
    random.Random.choices, one seed at a time."""

    @settings(max_examples=80, deadline=None)
    @given(p=sampling_dists(), m=st.sampled_from([0, 1, 2, 31, 32, 33, 300]),
           size=st.sampled_from([1, SELECT_CHUNK - 1, SELECT_CHUNK, SELECT_CHUNK + 1,
                                 2 * SELECT_CHUNK + 3]),
           data=st.data())
    def test_draws_are_the_choices_of_each_seed(self, p, m, size, data):
        seeds = data.draw(st.lists(SEEDS, min_size=size, max_size=size))
        got = list(draws(p, m, seeds))
        expected = [reference_choices(p, m, seed) for seed in seeds]
        assert got == expected
        # the atoms themselves come back: tuples as tuples, ints as ints
        assert [list(map(type, s)) for s in got] == [list(map(type, s)) for s in expected]
        # draw_rows gives the same samples as positions in the canonical atoms,
        # a chunk of at most SELECT_CHUNK rows at a time
        atoms = p.support()
        chunks = list(draw_rows(p, m, seeds))
        assert all(rows.shape[1] == m and 0 < len(rows) <= SELECT_CHUNK for rows in chunks)
        assert [tuple(atoms[j] for j in row) for rows in chunks for row in rows.tolist()] == expected

    @pytest.mark.parametrize("seed", [1, SEED, 2 ** 64 - 1])
    def test_points_on_and_just_below_a_cumulative_mass(self, seed):
        # choices puts random() == cum[0] on atom 1 and random() just below
        # it on atom 0: only the exact double and a right bisect agree
        x = random.Random(seed).random()
        for edge, first in ((x, 1), (math.nextafter(x, 1), 0)):
            p = pl.SparseDist({0: F(edge), 1: 1 - F(edge)})
            assert reference_choices(p, 3, seed)[0] == first
            assert next(draws(p, 3, [seed])) == reference_choices(p, 3, seed)

    def test_large_samples_are_drawn_in_smaller_passes(self):
        p = mix_anchor(F(1, 3), range(1, 30))
        m = DRAW_POINTS // 8 + 1  # seven samples a pass
        seeds, read = [SEED + t for t in range(9)], []

        def reading():
            for seed in seeds:
                read.append(seed)
                yield seed

        block = draws(p, m, reading())
        first = next(block)
        assert len(read) * m <= DRAW_POINTS
        assert [first, *block] == [reference_choices(p, m, seed) for seed in seeds]
        # the rows come in the same short passes
        atoms = p.support()
        assert [len(rows) for rows in draw_rows(p, m, seeds)] == [7, 2]
        assert [tuple(atoms[j] for j in row) for rows in draw_rows(p, m, seeds)
                for row in rows.tolist()] == [reference_choices(p, m, seed) for seed in seeds]

    @pytest.mark.parametrize("seed", [0, 1, SEED, 2 ** 32 - 1, 2 ** 64 - 1])
    def test_one_getrandbits_64_holds_the_words_of_one_random(self, seed):
        words = random.Random(seed).getrandbits(64)
        a, b = words & 0xFFFFFFFF, words >> 32
        assert ((a >> 5) * 67108864.0 + (b >> 6)) * 2.0 ** -53 == random.Random(seed).random(), (
            f"on {sys.implementation.name} {platform.python_version()}, getrandbits(64) "
            "does not hold the two MT19937 words of one random(), least significant "
            "first; dist.draws relies on that layout")


class TestEmpirical:
    def test_fraction(self):
        assert pl.empirical_measure([0, 0, 1], {0}) == F(2, 3)

    def test_disjoint_and_cover(self):
        assert pl.empirical_measure([0, 0, 1], {7}) == 0
        assert pl.empirical_measure([0, 0, 1], {0, 1}) == 1

    def test_empty(self):
        with pytest.raises(EmptySample):
            pl.empirical_measure([], {0})
        with pytest.raises(EmptySample):
            pl.empirical_dist([])

    def test_empirical_dist(self):
        d = pl.empirical_dist([1, 1, 2, 3])
        assert dict(d.items) == {1: F(1, 2), 2: F(1, 4), 3: F(1, 4)}

    @pytest.mark.parametrize("bad", [[1, -2], [True], [(1, 2)], ["x"]], ids=repr)
    def test_empirical_dist_checks_atoms(self, bad):
        with pytest.raises(BadDistribution):
            pl.empirical_dist(bad)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(0, 12), min_size=1, max_size=20),
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 1)), min_size=1, max_size=20)))
    def test_empirical_dist_equals_the_checked_constructor(self, sample):
        counts = Counter(sample)
        checked = pl.SparseDist({a: F(c, len(sample)) for a, c in counts.items()}, tag="e")
        built = pl.empirical_dist(sample, tag="e")
        assert built.items == checked.items and built.tag == "e"


# denominators 3, 7 and 2; atom 5 only in the last member
TABLE_MEMBERS = [pl.SparseDist({0: F(1, 3), 1: F(2, 3)}), pl.SparseDist({1: F(1, 7), 2: F(6, 7)}),
                 pl.SparseDist({0: F(1, 2), 5: F(1, 2)})]
HUGE = 2 ** 64 + 13  # no int64 numerator over this denominator


def l1_as_tv(table, q):
    nums, scale = table.l1(q)
    return [F(int(v), scale) for v in nums]


class TestMassTable:
    def test_layout(self):
        table = pl.MassTable(TABLE_MEMBERS)
        assert table.atoms == [0, 1, 2, 5] and table.denom == 42 and len(table) == 3
        assert table.mass.dtype == np.int64
        for i, p in enumerate(TABLE_MEMBERS):
            assert [F(int(v), table.denom) for v in table.mass[i]] == \
                [p.prob(a) for a in table.atoms]

    @pytest.mark.parametrize("q", [
        *TABLE_MEMBERS,
        pl.delta(9),                                  # wholly outside the columns
        pl.SparseDist({0: F(1, 5), 9: F(4, 5)}),      # partly outside
        pl.uniform([1, 2, 5]),
        pl.SparseDist({(1, 0): F(1, 2), 2: F(1, 2)}),  # a labeled atom outside
    ], ids=repr)
    def test_l1_is_tv(self, q):
        table = pl.MassTable(TABLE_MEMBERS)
        assert l1_as_tv(table, q) == [pl.tv(p, q) for p in TABLE_MEMBERS]

    def test_labeled_members(self):
        fam = pl.labeled_anchored_family(F(1, 3), 2)
        table = pl.MassTable(fam.members)
        q = pl.SparseDist({(0, 0): F(1, 2), (1, 1): F(1, 4), (9, 0): F(1, 4)})
        assert l1_as_tv(table, q) == [pl.tv(p, q) for p in fam.members]

    def test_object_path_past_int64(self):
        members = [pl.SparseDist({0: F(k, HUGE), 1: F(HUGE - 2 * k, HUGE), 2: F(k, HUGE)})
                   for k in (1, 5, HUGE // 3)]
        table = pl.MassTable(members)
        assert table.mass.dtype == object and table.denom == HUGE
        for q in (*members, pl.uniform([0, 1, 7])):
            assert l1_as_tv(table, q) == [pl.tv(p, q) for p in members]

    def test_fine_target_takes_the_object_path(self):
        # an int64 table, but a target whose denominator pushes the scale past int64
        table = pl.MassTable(TABLE_MEMBERS)
        q = pl.SparseDist({1: F(1, 2 ** 63), 2: 1 - F(1, 2 ** 63)})
        nums, _ = table.l1(q)
        assert nums.dtype == object
        assert l1_as_tv(table, q) == [pl.tv(p, q) for p in TABLE_MEMBERS]

    def test_rejects_non_distributions(self):
        with pytest.raises(BadDistribution):
            pl.MassTable([pl.delta(0), pl.BinaryHypothesis((1,))])

    def test_class_builds_its_table_once(self):
        fam = pl.anchored_family(F(1, 2), 3)
        table = fam.mass_table()
        assert fam.mass_table() is table
        assert table.members == list(fam.members)
        assert pl.ScheffeLearner(fam).engine.members is table.members


# random small distributions for property tests
@st.composite
def small_dists(draw):
    n_atoms = draw(st.integers(1, 5))
    atoms = draw(st.lists(st.integers(0, 8), min_size=n_atoms, max_size=n_atoms,
                          unique=True))
    weights = draw(st.lists(st.integers(1, 12), min_size=n_atoms, max_size=n_atoms))
    total = sum(weights)
    return pl.SparseDist({a: F(w, total) for a, w in zip(atoms, weights)})


@settings(max_examples=150, deadline=None)
@given(small_dists())
def test_normalization_invariant(p):
    assert sum((mass for _, mass in p.items), F(0)) == 1
    assert all(mass > 0 for _, mass in p.items)


@settings(max_examples=150, deadline=None)
@given(small_dists(), small_dists())
def test_tv_symmetric_bounded(p, q):
    d = pl.tv(p, q)
    assert d == pl.tv(q, p)
    assert 0 <= d <= 1
    assert (d == 0) == (p == q)


@settings(max_examples=80, deadline=None)
@given(small_dists(), small_dists(), small_dists())
def test_tv_triangle(p, q, r):
    assert pl.tv(p, r) <= pl.tv(p, q) + pl.tv(q, r)


@settings(max_examples=80, deadline=None)
@given(small_dists(), small_dists())
def test_tv_matches_event_oracle(p, q):
    assert pl.tv(p, q) == pl.tv_brute_force(p, q)


@settings(max_examples=50, deadline=None)
@given(small_dists(), st.integers(0, 30))
def test_sequence_prob_consistent(p, m):
    s = pl.draw(p, m, pl.RngStream(SEED, 42))
    lik = pl.sequence_prob(p, s)
    assert lik > 0
    expected = F(1)
    for a in s:
        expected *= p.prob(a)
    assert lik == expected
