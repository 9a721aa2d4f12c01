"""Learning algorithms: minimum-distance selection, truncation, ERM,
union aggregation, and the empirical baselines.

Every learner is a pure, deterministic function of (configuration,
sample); ties always break toward the lowest index in the candidate
class's canonical order. The Scheffé engine precomputes the pairwise
comparison sets once per class; selection itself runs on integer
numerators over a common denominator (numpy when the numbers fit in
int64, Python ints otherwise), so the chosen member is the exact argmin
either way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .dist import Sample, SparseDist, empirical_dist, event_prob
from .errors import EmptyClass, EmptySample, MixedTasks, SampleTooSmall
from .families import (
    ALL_ZERO_REAL,
    BinaryHypothesis,
    FiniteClass,
    RealHypothesis,
    StagedClass,
    TASK_CLASSIFICATION,
    TASK_DISTRIBUTION,
    TASK_REAL,
)
from .losses import hypotheses_of_class

INT64_SAFE = 1 << 62


def yatracos_set(p: SparseDist, q: SparseDist) -> frozenset:
    """Atoms where p puts strictly more mass than q, within their supports.

    Restricting to the supports (rather than all naturals) keeps the set
    finite and stops stray sample atoms with zero mass under both
    distributions from distorting empirical measures.
    """
    atoms = set(p.support()) | set(q.support())
    return frozenset(a for a in atoms if p.prob(a) > q.prob(a))


def scheffe_sample_size(n_members: int, eps, delta) -> int:
    """Advertised sample size for the finite-class minimum-distance learner
    at accuracy eps (guarantee 3*opt + eps) and confidence 1-delta."""
    eps = float(eps)
    return math.ceil((math.log(3 * n_members ** 2) + math.log(1 / float(delta)))
                     / (2 * (eps / 4) ** 2))


class ScheffeEngine:
    """Minimum-distance selection over one fixed finite class.

    Builds the deduplicated collection of ordered-pair comparison sets
    and each member's exact probability of each set, stored as an integer
    numerator over the common denominator `denom`. select() returns
    the index minimizing the maximum deviation between member and
    empirical set probabilities.
    """

    def __init__(self, members: Sequence[SparseDist]):
        if not members:
            raise EmptyClass("minimum-distance selection over an empty class")
        self.members = list(members)
        sets, seen = [], set()
        for i, p in enumerate(self.members):
            for j, q in enumerate(self.members):
                if i == j:
                    continue
                s = yatracos_set(p, q)
                if s and s not in seen:
                    seen.add(s)
                    sets.append(s)
        self.sets = sets

        denom = 1
        for p in self.members:
            for _, mass in p.items:
                denom = denom * mass.denominator // math.gcd(denom, mass.denominator)
        self.denom = denom
        nums = [[int(event_prob(p, s) * denom) for s in sets] for p in self.members]
        self._use_numpy = denom < INT64_SAFE and bool(sets)
        self._nums = np.array(nums, dtype=np.int64) if self._use_numpy else nums

    def _set_counts(self, atoms: Sequence) -> list:
        counts: dict = {}
        for a in atoms:
            counts[a] = counts.get(a, 0) + 1
        return [sum(counts.get(a, 0) for a in s) for s in self.sets]

    def select(self, sample: Sample | Sequence) -> int:
        """Index of the member with the smallest maximum deviation."""
        atoms = tuple(sample)
        if not atoms:
            raise EmptySample("minimum-distance selection needs a sample")
        if not self.sets:
            return 0
        m = len(atoms)
        cnt = self._set_counts(atoms)
        # deviation numerators over common denominator denom*m:
        #   |prob_num * m - denom * count|
        if self._use_numpy and self.denom * m < INT64_SAFE:
            c = np.array(cnt, dtype=np.int64)
            dev = np.abs(self._nums * m - self.denom * c).max(axis=1)
            return int(dev.argmin())
        rows = self._nums.tolist() if self._use_numpy else self._nums
        devs = [max(abs(v * m - self.denom * c) for v, c in zip(row, cnt)) for row in rows]
        return devs.index(min(devs))

    def empirical_gap(self, target: SparseDist, sample: Sample | Sequence) -> Fraction:
        """max over comparison sets of |target(A) - empirical(A)|."""
        atoms = tuple(sample)
        if not atoms:
            raise EmptySample("empirical gap needs a sample")
        if not self.sets:
            return Fraction(0)
        m = len(atoms)
        cnt = self._set_counts(atoms)
        return max(abs(event_prob(target, s) - Fraction(c, m)) for s, c in zip(self.sets, cnt))


# ---------------------------------------------------------------------------
# learner handles
# ---------------------------------------------------------------------------

class Learner:
    """Deterministic map from samples to an output, with a task kind and
    the agnostic factor its guarantee carries (3 for TV, 1 otherwise)."""

    task: str = TASK_DISTRIBUTION
    agnostic_factor: int = 1
    name: str = "learner"

    def run(self, sample: Sample | Sequence):
        raise NotImplementedError


class ScheffeLearner(Learner):
    """3-agnostic finite-class distribution learner."""

    agnostic_factor = 3

    def __init__(self, cls: FiniteClass):
        if len(cls) == 0:
            raise EmptyClass("empty candidate class")
        self.cls = cls
        self.engine = ScheffeEngine(cls.members)
        self.task = TASK_DISTRIBUTION
        self.name = f"scheffe({cls.tag or len(cls)})"

    def run(self, sample):
        return self.cls.members[self.engine.select(sample)]


class TruncationLearner(Learner):
    """Learns a staged union by reducing to its finite truncation.

    The truncation at accuracy eps keeps the base member and all stages
    up to the settling index of eps/4; minimum-distance selection then
    runs on that finite class.
    """

    agnostic_factor = 3

    def __init__(self, staged: StagedClass, eps, budget: int = 1 << 20):
        if staged.task != TASK_DISTRIBUTION:
            raise MixedTasks("truncation learner is a distribution learner")
        self.staged = staged
        self.eps = Fraction(eps)
        self.truncated = staged.truncate(self.eps, budget=budget)  # may raise NonVanishing/ClassTooLarge
        self.engine = ScheffeEngine(self.truncated.members)
        self.task = TASK_DISTRIBUTION
        self.name = f"truncation(eps={self.eps})"

    def advertised_sample_size(self, delta) -> int:
        """The union bound advertised for this reduction: stages-by-width
        squared inside the log, 128/eps^2 outside."""
        idx = self.staged.spec.settling_index(self.eps / 4)
        nmax = self.staged.spec.n_max(idx)
        eps = float(self.eps)
        return math.ceil(128 * (math.log(3 * (idx * nmax) ** 2) + math.log(1 / float(delta)))
                         / eps ** 2)

    def run(self, sample):
        return self.truncated.members[self.engine.select(sample)]


class ErmLearner(Learner):
    """Empirical risk minimization over a finite hypothesis list.

    On an empty sample every hypothesis has vacuous empirical risk, so
    the tie rule returns the lowest-index hypothesis.
    """

    def __init__(self, hypotheses: Sequence, task: str, real_ctx=None,
                 name: Optional[str] = None):
        if not hypotheses:
            raise EmptyClass("ERM over an empty hypothesis list")
        if task not in (TASK_CLASSIFICATION, TASK_REAL):
            raise MixedTasks("ERM here handles the two hypothesis tasks")
        self.hypotheses = list(hypotheses)
        self.task = task
        self.real_ctx = real_ctx
        self.name = name or f"erm({len(self.hypotheses)})"

    @staticmethod
    def for_class(cls: FiniteClass) -> "ErmLearner":
        """ERM whose hypothesis list is induced by a class handle: labelers
        read off labeled distributions; for the real task the attached
        benchmark hypothesis class (or the members themselves when the
        handle already holds hypotheses)."""
        if cls.task == TASK_CLASSIFICATION:
            return ErmLearner(hypotheses_of_class(cls), TASK_CLASSIFICATION)
        if cls.task == TASK_REAL:
            source = cls.benchmark if cls.benchmark is not None else cls
            return ErmLearner(list(source.members), TASK_REAL, real_ctx=cls.real_ctx)
        raise MixedTasks("distribution classes take the minimum-distance learner")

    def empirical_risk(self, h, atoms) -> Fraction:
        if not atoms:
            return Fraction(0)
        m = len(atoms)
        if self.task == TASK_CLASSIFICATION:
            bad = sum(1 for (x, y) in atoms if h(x) != y)
            return Fraction(bad, m)
        ctx = self.real_ctx
        total = Fraction(0)
        for (x, b) in atoms:
            total += ctx.loss.g(abs(h(x) - ctx.y_of_bit(b)))
        return total / m

    def run(self, sample):
        atoms = tuple(sample)
        best, best_h = None, self.hypotheses[0]
        for h in self.hypotheses:
            risk = self.empirical_risk(h, atoms)
            if best is None or risk < best:
                best, best_h = risk, h
        return best_h


class UnionLearner(Learner):
    """Runs constituent learners on the first half of the sample and selects
    among their outputs on the second half (minimum-distance selection
    for distributions, ERM for the hypothesis tasks).

    The split is deliberate: selecting among data-dependent candidates
    on the data that produced them would void the deviation guarantee.
    """

    def __init__(self, learners: Sequence[Learner], real_ctx=None):
        if not learners:
            raise EmptyClass("union of no learners")
        tasks = {ln.task for ln in learners}
        if len(tasks) != 1:
            raise MixedTasks(f"constituents disagree on task: {sorted(tasks)}")
        self.learners = list(learners)
        self.task = learners[0].task
        self.real_ctx = real_ctx
        self.agnostic_factor = 3 if self.task == TASK_DISTRIBUTION else 1
        self.name = f"union({len(self.learners)})"

    def run(self, sample):
        atoms = tuple(sample)
        if len(atoms) < 2:
            raise SampleTooSmall("need at least 2 points to split")
        cut = (len(atoms) + 1) // 2
        first, second = atoms[:cut], atoms[cut:]
        candidates = [ln.run(Sample(first)) for ln in self.learners]
        if self.task == TASK_DISTRIBUTION:
            return candidates[ScheffeEngine(candidates).select(second)]
        selector = ErmLearner(candidates, self.task, real_ctx=self.real_ctx)
        return selector.run(Sample(second))


class EmpiricalBaseline(Learner):
    """The NFL test subject: empirical distribution for the distribution
    task, plurality labeler for the hypothesis tasks (unseen points and
    exact label ties go to 0)."""

    def __init__(self, task: str, real_ctx=None):
        self.task = task
        self.real_ctx = real_ctx
        self.name = "empirical-baseline"

    def run(self, sample):
        atoms = tuple(sample)
        if self.task == TASK_DISTRIBUTION:
            return empirical_dist(atoms)
        counts: dict = {}
        for (x, y) in atoms:
            key = (x, y)
            counts[key] = counts.get(key, 0) + 1
        xs = sorted({x for (x, _) in counts})
        ones = [x for x in xs if counts.get((x, 1), 0) > counts.get((x, 0), 0)]
        if self.task == TASK_CLASSIFICATION:
            return BinaryHypothesis.from_set(ones)
        if self.real_ctx is None:
            raise MixedTasks("real baseline needs a task context")
        height = self.real_ctx.level_value
        return RealHypothesis(tuple((x, height) for x in ones)) if ones else ALL_ZERO_REAL


class ConstantLearner(Learner):
    """Ignores the sample; useful as an oracle subject and at m=0."""

    def __init__(self, output, task: str, name: Optional[str] = None):
        self.output = output
        self.task = task
        self.name = name or "constant"

    def run(self, sample):
        return self.output
