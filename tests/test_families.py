"""Family constructors, stage sequences, staged unions and truncation."""

import itertools
import math
import re
from fractions import Fraction as F

import numpy as np
import pytest

import paclab as pl
from paclab import families
from paclab.errors import BadEta, BadN, ClassTooLarge, EtaAboveGmax, NonVanishing


class TestAnchoredFamily:
    def test_single_window(self):
        fam = pl.anchored_family(F(1, 2), 1)
        assert len(fam) == 1
        assert dict(fam[0].items) == {0: F(1, 2), 1: F(1, 2)}

    def test_three_members(self):
        fam = pl.anchored_family(F(1, 2), 2)
        assert len(fam) == 3
        assert list(fam.labels) == ["A=[1]", "A=[2]", "A=[1, 2]"]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_size_formula(self, n):
        assert len(pl.anchored_family(F(1, 3), n)) == 2 ** n - 1

    @pytest.mark.parametrize("n,r", [(4, 2), (8, 2), (6, 3)])
    def test_filtered_size_is_binomial(self, n, r):
        assert len(pl.anchored_family(F(1, 2), n, size_filter=r)) == math.comb(n, r)

    @pytest.mark.parametrize("n,r,declared", [(4, 2, True), (8, 2, True), (6, 3, True),
                                              (2, 1, True), (64, 1, True), (5, 3, False),
                                              (3, 2, False), (1, 1, False)])
    def test_a_filtered_family_declares_its_window_when_2r_fits(self, n, r, declared):
        # the window atoms 1..n in position order, and r; member i is uniform
        # on the i-th r-subset in colex order (ascending bitmask)
        fam = pl.anchored_family(F(1, 3), n, size_filter=r)
        assert fam.window == ((tuple(range(1, n + 1)), r) if declared else None)
        colex = sorted(itertools.combinations(range(1, n + 1), r), key=lambda s: s[::-1])
        assert [p.support()[1:] for p in fam.members] == colex
        if n < 8:
            assert pl.anchored_family(F(1, 3), n).window is None

    def test_filtered_members_are_unranked_not_enumerated(self, monkeypatch):
        # member i's subset comes from its rank alone: building the class of
        # 134,596 members and reading its last one lists no subsets
        def no_enumeration(*args):
            raise AssertionError("subsets were enumerated")

        monkeypatch.setattr(families.itertools, "combinations", no_enumeration)
        fam = pl.anchored_family(F(1), 24, size_filter=6)
        assert len(fam) == 134_596
        assert fam.labels[-1] == "A=[19, 20, 21, 22, 23, 24]"
        assert fam[-1].support() == tuple(range(19, 25))

    def test_appendix_filter_count(self):
        # |A| = n over window 4n at n = 2
        assert len(pl.anchored_family(F(1, 2), 8, size_filter=2)) == 28

    def test_anchor_mass(self):
        for member in pl.anchored_family(F(1, 5), 3).members:
            assert member.prob(0) == F(4, 5)

    def test_same_stage_tv_closed_form(self):
        fam = pl.anchored_family(F(1, 2), 8, size_filter=2)
        for i in range(0, len(fam), 5):
            for j in range(0, len(fam), 7):
                a = {x for x in fam[i].support() if x != 0}
                b = {x for x in fam[j].support() if x != 0}
                assert pl.tv(fam[i], fam[j]) == F(1, 2) * F(len(a - b), 2)

    def test_eta_one_is_pure_uniform(self):
        fam = pl.anchored_family(F(1), 2)
        assert fam[2] == pl.uniform([1, 2])

    def test_bad_params(self):
        with pytest.raises(BadEta):
            pl.anchored_family(F(0), 2)
        with pytest.raises(BadEta):
            pl.anchored_family(F(3, 2), 2)
        with pytest.raises(BadN):
            pl.anchored_family(F(1, 2), 0)

    def test_budget(self):
        with pytest.raises(ClassTooLarge):
            pl.anchored_family(F(1, 2), 30, budget=1000)


class TestLabeledFamily:
    def test_size_and_masses(self):
        fam = pl.labeled_anchored_family(F(1, 2), 2)
        assert len(fam) == 16
        member = fam[0b1010]
        assert member.prob((0, 0)) == F(1, 2)
        # per-atom mass eta/(2n) at the labeled point
        assert member.prob((1, 0)) == F(1, 8)
        assert member.prob((2, 1)) == F(1, 8)
        assert member.prob((2, 0)) == 0

    def test_all_zero_labeling_marginal(self):
        # one-sided labeling: total window mass eta, per atom eta/(2n)
        fam = pl.labeled_anchored_family(F(1, 3), 2)
        member = fam[0]
        window_mass = sum(member.prob((x, 0)) for x in range(1, 5))
        assert window_mass == F(1, 3)
        assert all(member.prob((x, 1)) == 0 for x in range(1, 5))


class TestPlateauFamilies:
    def test_absolute_identity_inverse(self):
        fam = pl.plateau_family(pl.AbsoluteLoss(), F(1, 2), 1)
        assert list(fam.labels) == ["A=[]", "A=[1]"]
        assert fam[1].values == ((1, F(1, 2)),)

    def test_squared_exact_root(self):
        fam = pl.plateau_family(pl.SquaredLoss(), F(1, 4), 1)
        assert fam[1].values == ((1, F(1, 2)),)

    def test_squared_dyadic_rounds_down(self):
        loss = pl.SquaredLoss()
        v = loss.g_inverse(F(1, 2))
        assert loss.g(v) <= F(1, 2)
        assert v.denominator <= 1 << 40

    def test_empty_set_gives_zero_hypothesis(self):
        fam = pl.plateau_family(pl.AbsoluteLoss(), F(1, 2), 3)
        assert fam[0].values == ()

    def test_level_above_gmax(self):
        with pytest.raises(EtaAboveGmax):
            pl.plateau_family(pl.CappedLinearLoss(F(1, 4)), F(1, 2), 2)

    def test_data_family_labels(self):
        fam = pl.plateau_data_family(pl.AbsoluteLoss(), F(1, 2), 2)
        assert len(fam) == 4
        member = fam[0b01]  # A = {1}
        assert dict(member.items) == {(1, 1): F(1, 2), (2, 0): F(1, 2)}


class TestSequenceSpecs:
    def test_reciprocal_settling(self):
        spec = pl.SequenceSpec(pl.Reciprocal(F(8)), pl.IdentityN())
        assert spec.settling_index(1) == 8
        assert spec.settling_index(2) == 4
        assert spec.settling_index(F(1, 2)) == 16

    def test_constant_settling(self):
        spec = pl.SequenceSpec(pl.Constant(F(1, 3)), pl.IdentityN())
        assert spec.settling_index(F(1, 2)) == 1
        with pytest.raises(NonVanishing):
            spec.settling_index(F(1, 4))

    def test_table_cannot_settle(self):
        spec = pl.SequenceSpec(pl.EtaTable((F(1, 2), F(1, 4))), pl.IdentityN())
        with pytest.raises(NonVanishing):
            spec.settling_index(F(1))

    def test_reciprocal_clamps_at_one(self):
        rule = pl.Reciprocal(F(8))
        assert rule.value(2) == 1
        assert rule.raw(2) == 4
        assert rule.value(16) == F(1, 2)

    def test_poly_witness_values(self):
        # f(k) = k * n_k with n_k = k (nondecreasing), floor at stage k=3
        f = tuple(k * k for k in range(1, 7))
        rule = pl.PolyWitness(f, k=3)
        assert rule.raw(1) == F(1, 1)
        assert rule.raw(2) == F(1, 4)
        assert rule.raw(3) == F(1, 9)
        assert rule.raw(5) == F(1, 9)   # floored at 1/f(k)
        assert rule.raw(100) == F(1, 9)
        assert rule.settling_index(F(1, 4)) == 2
        with pytest.raises(NonVanishing):
            rule.settling_index(F(1, 10))

    def test_poly_witness_validation(self):
        with pytest.raises(BadN):
            pl.PolyWitness((4, 2, 1), k=2)

    def test_affine_of_target(self):
        rule = pl.AffineOfTarget((1, 4, 9))
        assert [rule.value(i) for i in (1, 2, 3)] == [16, 40, 80]


class TestStagedUnion:
    def spec(self):
        return pl.SequenceSpec(pl.Reciprocal(F(8)), pl.IdentityN())

    def test_truncate_at_eight(self):
        su = pl.StagedClass("distribution", self.spec())
        tr = su.truncate(8)
        assert len(tr) == 27  # base + (2^1-1) + (2^2-1) + (2^3-1) + (2^4-1)
        assert tr.labels[0] == "base"
        assert tr[0] == pl.delta(0)

    def test_duplicates_kept_across_stages(self):
        tr = pl.StagedClass("distribution", self.spec()).truncate(8)
        # stage 1 A=[1] and stage 2 A=[1] coincide at clamped level 1
        assert tr[1] == tr[2]
        assert tr.labels[1] != tr.labels[2]

    def test_truncation_is_quarter_eps_approximation(self):
        # every member of an excluded stage sits within eps/4 of the base
        spec = pl.SequenceSpec(pl.Reciprocal(F(1, 2)), pl.IdentityN())
        su = pl.StagedClass("distribution", spec)
        eps = F(1, 2)
        cutoff = spec.settling_index(eps / 4)
        assert cutoff == 4
        base = pl.delta(0)
        for i in range(cutoff + 1, cutoff + 4):
            stage = su.stage(i)
            for member in stage.members[:5]:
                d = pl.tv(member, base)
                assert d == spec.eta_value(i)
                assert d <= eps / 4

    def test_stage_masses(self):
        su = pl.StagedClass("distribution", self.spec())
        stage16 = su.stage(16)
        for member in stage16.members[:8]:
            assert member.prob(0) == F(1, 2)  # 1 - 8/16

    def test_classification_stage_shape(self):
        su = pl.StagedClass("classification", self.spec())
        assert su.stage_size(16) == 2 ** 32  # size computed, never materialized
        stage1 = su.stage(1)
        assert len(stage1) == 4
        assert stage1[0].prob((0, 0)) == 0  # clamped level 1 at stage 1

    def test_real_union_needs_loss(self):
        with pytest.raises(EtaAboveGmax):
            pl.StagedClass("real", self.spec())

    def test_real_union_range_check(self):
        spec = pl.SequenceSpec(pl.Constant(F(1, 2)), pl.IdentityN())
        su = pl.StagedClass("real", spec, loss=pl.CappedLinearLoss(F(1, 4)))
        with pytest.raises(EtaAboveGmax):
            su.stage(1)

    def test_lazy_sizes_without_materialization(self):
        # widths grow like 8*(2^k+1); sizes are computed, never materialized
        g = [2 ** k for k in range(1, 11)]
        spec = pl.SequenceSpec(pl.Reciprocal(F(8)), pl.AffineOfTarget(tuple(g)))
        su = pl.StagedClass("distribution", spec)
        assert su.stage_size(10) == 2 ** (8 * (2 ** 10 + 1)) - 1

    def test_truncate_budget(self):
        su = pl.StagedClass("distribution", self.spec())
        with pytest.raises(ClassTooLarge):
            su.truncate(2, budget=1000)  # cutoff 16, ~131k members


class TestTruncationApproximationOtherTasks:
    def test_classification_excluded_stages_near_base(self):
        spec = pl.SequenceSpec(pl.Reciprocal(F(1, 2)), pl.IdentityN())
        su = pl.StagedClass("classification", spec)
        eps = F(1, 2)
        cutoff = spec.settling_index(eps / 4)
        base = pl.delta((0, 0))
        for i in (cutoff + 1, cutoff + 2):
            for member in su.stage(i).members[:6]:
                assert pl.tv(member, base) == spec.eta_value(i) <= eps / 4

    def test_real_excluded_stages_small_loss_gap(self):
        # against any data distribution, an excluded plateau hypothesis and
        # the zero hypothesis differ by at most the stage level
        loss = pl.AbsoluteLoss()
        spec = pl.SequenceSpec(pl.Reciprocal(F(1, 2)), pl.IdentityN())
        su = pl.StagedClass("real", spec, loss=loss)
        eps = F(1, 2)
        cutoff = spec.settling_index(eps / 4)
        h0 = pl.RealHypothesis(())
        i = cutoff + 1
        stage = su.stage(i)
        level = spec.eta_value(i)
        targets = [
            pl.SparseDist({(1, 1): F(1, 2), (2, 0): F(1, 2)}),
            pl.SparseDist({(x, 0): F(1, 4) for x in range(1, 5)}),
        ]
        ctx = stage.real_ctx
        for h in stage.members:
            for target in targets:
                gap = abs(pl.real_risk(ctx, h, target)
                          - pl.real_risk(ctx, h0, target))
                assert gap <= level <= eps / 4


# ---------------------------------------------------------------------------
# members built by rank through the trusted constructor, against the public
# constructors building every member up front
# ---------------------------------------------------------------------------

def window_of(mask):
    return [x + 1 for x in range(mask.bit_length()) if mask >> x & 1]


def reference_anchored(eta, n, r=None):
    masks = [mask for mask in range(1, 1 << n) if r is None or mask.bit_count() == r]
    members = [pl.mixture([(1 - eta, pl.delta(0)), (eta, pl.uniform(window_of(mask)))],
                          tag=f"anchor(eta={eta},A={window_of(mask)})") for mask in masks]
    return members, [f"A={window_of(mask)}" for mask in masks]


def reference_labeled(eta, n):
    width = 2 * n
    members = []
    for mask in range(1 << width):
        pmf = {(0, 0): 1 - eta}
        pmf.update({(x, mask >> (x - 1) & 1): eta / width for x in range(1, width + 1)})
        members.append(pl.SparseDist(pmf, tag=f"labels(eta={eta},mask={mask})"))
    return members, [f"ones={window_of(mask)}" for mask in range(1 << width)]


def reference_plateau(loss, eta, n):
    height = loss.g_inverse(eta)
    members = [pl.RealHypothesis(tuple((x, height) for x in window_of(mask)))
               for mask in range(1 << n)]
    return members, [f"A={window_of(mask)}" for mask in range(1 << n)]


def reference_plateau_data(loss, eta, n):
    _, labels = reference_plateau(loss, eta, n)
    members = [pl.SparseDist({(x, 1 if x in window_of(mask) else 0): F(1, n)
                              for x in range(1, n + 1)}, tag=f"plateau-data({labels[mask]})")
               for mask in range(1 << n)]
    return members, labels


def reference_truncation(su, eps):
    build = {"distribution": lambda eta, n: reference_anchored(eta, n),
             "classification": reference_labeled,
             "real": lambda eta, n: reference_plateau(su.loss, eta, n)}[su.task]
    members, labels = [su.base_member()], ["base"]
    for i in range(1, su.spec.settling_index(F(eps) / 4) + 1):
        stage_members, stage_labels = build(*su.stage_params(i))
        members += stage_members
        labels += [f"stage{i}/{lab}" for lab in stage_labels]
    return members, labels


LOSS = pl.AbsoluteLoss()
STAGES = pl.SequenceSpec(pl.Reciprocal(F(1, 2)), pl.IdentityN())
FAMILIES = {
    "anchored": (lambda: pl.anchored_family(F(1, 3), 4),
                 lambda: reference_anchored(F(1, 3), 4)),
    "anchored-filtered": (lambda: pl.anchored_family(F(2, 7), 6, size_filter=3),
                          lambda: reference_anchored(F(2, 7), 6, 3)),
    "anchored-eta-1": (lambda: pl.anchored_family(F(1), 3),
                       lambda: reference_anchored(F(1), 3)),
    "labeled": (lambda: pl.labeled_anchored_family(F(1, 2), 2),
                lambda: reference_labeled(F(1, 2), 2)),
    "labeled-eta-1": (lambda: pl.labeled_anchored_family(F(1), 1),
                      lambda: reference_labeled(F(1), 1)),
    "plateau": (lambda: pl.plateau_family(LOSS, F(1, 3), 3),
                lambda: reference_plateau(LOSS, F(1, 3), 3)),
    "plateau-data": (lambda: pl.plateau_data_family(LOSS, F(1, 3), 3),
                     lambda: reference_plateau_data(LOSS, F(1, 3), 3)),
}
for _task in ("distribution", "classification", "real"):
    _su = pl.StagedClass(_task, STAGES, loss=LOSS if _task == "real" else None)
    FAMILIES[f"truncation-{_task}"] = (lambda su=_su: su.truncate(F(1, 2)),
                                       lambda su=_su: reference_truncation(su, F(1, 2)))


class TestRankedMembers:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_members_match_public_constructors(self, name):
        build, reference = FAMILIES[name]
        fam = build()
        members, labels = reference()
        assert len(fam) == len(members) == len(labels)
        assert list(fam.labels) == labels
        for got, want in zip(fam.members, members):
            assert got == want and type(got) is type(want)
            assert hash(got) == hash(want)
            if isinstance(want, pl.SparseDist):
                assert got.items == want.items and got.tag == want.tag
                assert all(type(p) is F for _, p in got.items)
                # the empirical distribution of a sample with those masses,
                # from its tuple and from its count row, hashes equal too
                denom = math.lcm(*(p.denominator for _, p in want.items))
                counts = [p.numerator * (denom // p.denominator) for _, p in want.items]
                sample = [a for a, c in zip(want.support(), counts) for _ in range(c)]
                counted, = pl.EmpiricalBaseline("distribution").run_counts(want.support(),
                                                                           np.array([counts]))
                for same in (pl.empirical_dist(sample), counted):
                    assert same == want and hash(same) == hash(want)

    def test_eta_one_has_no_anchor_atom(self):
        assert all(0 not in m.support() for m in pl.anchored_family(F(1), 3).members)

    def test_repeated_access_returns_one_object(self):
        fam = pl.anchored_family(F(1, 2), 5)
        assert fam[7] is fam[7] is fam.members[7] is fam.members[-24]
        assert fam.labels[3] is fam.labels[3]
        tr = pl.StagedClass("distribution", STAGES).truncate(F(1, 2))
        assert tr[20] is tr[20] is tr.members[20]

    def test_index_bounds_and_length(self):
        fam = pl.anchored_family(F(1, 2), 4)
        assert len(fam) == len(fam.members) == len(fam.labels) == 15
        assert fam[-1] == fam[14] and fam.labels[-1] == "A=[1, 2, 3, 4]"
        for i in (15, -16):
            with pytest.raises(IndexError):
                fam[i]
            with pytest.raises(IndexError):
                fam.labels[i]
        assert fam.members[13:20] == [fam[13], fam[14]]

    @staticmethod
    def count_builds(monkeypatch):
        built = []
        trusted = pl.SparseDist._trusted

        def counted(cls, items, tag=None):
            built.append(tag)
            return trusted(items, tag)

        monkeypatch.setattr(pl.SparseDist, "_trusted", classmethod(counted))
        return built

    def test_slice_builds_only_the_slice(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        stage16 = pl.StagedClass("distribution", STAGES).stage(16)
        assert len(stage16) == 2 ** 16 - 1 and built == []
        head = stage16.members[:8]
        assert len(built) == 8
        assert stage16.members[:8] == head and len(built) == 8

    def test_over_budget_builds_nothing(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        with pytest.raises(ClassTooLarge):
            pl.anchored_family(F(1, 2), 30, budget=1000)
        with pytest.raises(ClassTooLarge):
            pl.labeled_anchored_family(F(1, 2), 6, budget=1000)
        with pytest.raises(ClassTooLarge):
            pl.StagedClass("distribution", STAGES).truncate(F(1, 8), budget=1000)
        assert built == []

    @pytest.mark.parametrize("build,size,count", [
        (lambda b: pl.anchored_family(F(1, 2), 10, budget=b), "2^10 - 1", 1023),
        (lambda b: pl.anchored_family(F(1, 2), 10, size_filter=7, budget=b), "C(10, 7)", 120),
        (lambda b: pl.labeled_anchored_family(F(1, 2), 3, budget=b), "2^6", 64),
        (lambda b: pl.plateau_family(LOSS, F(1, 2), 6, budget=b), "2^6", 64),
    ], ids=["anchored", "filtered", "labeled", "plateau"])
    def test_budget_admits_the_size_and_names_it_past(self, build, size, count):
        assert len(build(count)) == count
        with pytest.raises(ClassTooLarge, match=re.escape(f"{size} members exceed budget {count - 1}")):
            build(count - 1)

    def test_index_of_is_the_first_index(self):
        # stage 1 A=[1] and stage 2 A=[1] coincide at clamped level 1
        tr = pl.StagedClass("distribution", pl.SequenceSpec(pl.Reciprocal(F(8)),
                                                             pl.IdentityN())).truncate(8)
        members = list(tr.members)
        assert len(set(members)) < len(members)
        for member in members:
            assert tr.members.index(member) == members.index(member)
        with pytest.raises(ValueError):
            tr.members.index(pl.delta(99))
