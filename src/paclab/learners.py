"""Learning algorithms: minimum-distance selection, truncation, ERM,
union aggregation, and the empirical baselines.

Every learner is a pure, deterministic function of (configuration,
sample); ties always break toward the lowest index in the candidate class's
canonical order, and the Scheffé engine's choice is the exact lowest-index
argmin (`ScheffeEngine`).

A sample reaches a learner in one of two shapes. `run` takes a tuple of
atoms, and so does the union learner's `run_block`, whose split depends on
order. Every block an `exchangeable` learner takes arrives as count rows
through `Learner.run_counts`: `run_block` counts a block of tuples
SELECT_CHUNK samples at a time (`dist.count_rows`), and `run_draws` counts
each chunk of drawn atom positions (`dist.draw_rows`) with one offset
bincount, so Monte Carlo trials build no tuples. On the window-structured
engines of the anchored families, which the engine recognises from the mass
table alone, the Scheffé learner selects a row of at most n window atoms by
the support rule, with no memo and no comparison set; any other row takes a
memo and one full pass per distinct miss. Classification ERM and the
empirical baselines read the counts directly, and real-task ERM spells rows
out for `run`. The union learner hands each constituent's run_block a
chunk's first halves.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .dist import (INT64_SAFE, SELECT_CHUNK, MassTable, SparseDist, count_rows, draw_rows, draws,
                   empirical_dist)
from .errors import EmptyClass, EmptySample, MixedTasks, SampleTooSmall
from .families import (
    BinaryHypothesis,
    DEFAULT_MEMBER_BUDGET,
    FiniteClass,
    RealHypothesis,
    StagedClass,
    TASK_CLASSIFICATION,
    TASK_DISTRIBUTION,
    TASK_REAL,
)
from .losses import bayes_labeler, hypotheses_of_class, real_risk, zero_one_risk

SELECT_MEMO_SIZE = 4096  # most selections an engine remembers


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

    Members are the rows of a MassTable's integer mass matrix (columns
    are atoms in canonical order, entries numerators over the common
    denominator `denom`). The comparison sets are the distinct non-empty
    rows of `mass[i] > mass[j]` over ordered pairs, kept in first-seen
    (i, j) order; an atom-by-set incidence matrix turns atom counts into
    set counts, and `_nums = mass @ incidence` holds each member's exact
    probability of each set. select() returns the index minimizing the
    maximum deviation between member and empirical set probabilities.
    The full pass computes every member's deviation on every set of a
    sample and takes the first member of least maximum. The sets, as
    `_incidence`, `_nums` and the frozensets of `sets`, are enumerated on
    first read: by the first full pass, or by a caller.

    Support rule: the window W (`_varying`) is the set of columns that
    vary across members. An atom of one mass in every member is in no
    comparison set, so the engine has none exactly when W is empty. At
    build, the mass table alone tells whether an engine of three or more
    members is window-structured: every member holds exactly n atoms of
    W, every nonzero mass on W is one value mu, there are C(|W|, n)
    members, |W| >= 2n, and the members' colex ranks sum_i C(c_i, i), c_1
    < ... < c_n their positions in W, are 0, 1, ... in order, as the
    anchored families rank them. The comparison sets are then every subset
    of 1..n atoms of W, and a count row c of an m-point sample with at
    most n distinct atoms of W selects the first member of least
    sum_a |m * mass_ia - denom * c_a| over a in W. Swapping a seen atom a
    out of a member's set for an unseen one raises that sum by
    m * mu + denom * c_a - |m * mu - denom * c_a| > 0, so every minimiser
    holds every seen atom; every unseen atom adds m * mu, so those tie,
    and the first fills its set with the unseen atoms of lowest position.
    The rule reads no count value, m or denominator: a few whole-block
    passes over the rows' seen window atoms, and a gather from `_binom`,
    C(position, slot). A row of more window atoms takes the full pass.

    Blocks: _select_counts, the one selection core, takes rows of atom
    counts over the engine's columns; ScheffeLearner.run_counts sums count
    rows into them, and select() is one bincount. A full-pass choice is
    memoised by the bytes of the count row in the narrowest unsigned dtype
    that holds the largest m among the rows taking it (rows of different
    dtypes differ in length, so their keys never collide), in a dict
    cleared once it holds SELECT_MEMO_SIZE entries; a block reads its hits
    first, so a clear loses none of them. Each distinct miss takes one full
    pass.

    Widths: every entry of `_nums` is at most denom, and every deviation
    numerator |nums * m - denom * count| of an m-point sample at most
    denom * m. While denom < INT64_SAFE `_nums` is held in the narrowest
    of int16, int32 and int64 that holds denom, and each full pass
    computes in the narrowest that holds denom * m, so no step can
    overflow; past int64 it computes on Python ints (object dtype). The
    deviations go into one byte buffer owned by the engine, grown only
    when a pass needs more bytes, so an engine must not be shared between
    threads.
    """

    def __init__(self, members: MassTable | Sequence[SparseDist]):
        """`members`: a MassTable, or the distributions to build one from."""
        if not len(members):
            raise EmptyClass("minimum-distance selection over an empty class")
        table = members if isinstance(members, MassTable) else MassTable(members)
        self.members = table.members
        self.denom = table.denom
        self._column = table.column
        self._atoms = table.atoms
        self._mass = mass = table.mass
        self._dev = np.empty(0, dtype=np.uint8)  # the deviation buffer, grown on use
        self._memo: dict = {}  # atom-count bytes -> selected index
        self._varying = window = np.flatnonzero((mass != mass[0]).any(axis=0))  # W
        # the support rule, cheap tests first. The union builds a two-member
        # engine per sample and selects once with it, so it is not tested.
        self._window = None
        if len(mass) > 2:
            on_window = mass[:, window]
            held = on_window != 0
            sizes = held.sum(axis=1)  # each member's atoms in W
            top = int(sizes[0])
            if ((sizes == top).all() and 2 * top <= len(window)
                    and len(mass) == math.comb(len(window), top)
                    and ((on_window == on_window.max()) == held).all()):  # one mass mu on W
                # C(position, slot) for slots 1..n, and 0 at every other slot
                binom = np.zeros((len(window), len(window) + 1), dtype=np.int64)
                for slot in range(1, top + 1):
                    binom[:, slot] = [math.comb(pos, slot) for pos in range(len(window))]
                if (_colex_ranks(held, binom) == np.arange(len(mass))).all():
                    self._window, self._top, self._binom = window, top, binom

    @cached_property
    def _incidence(self) -> np.ndarray:
        """The atom x comparison-set incidence matrix (int64), sets in
        first-seen (i, j) order."""
        # p(a) > q(a) only inside p's support, so row j of `row > mass` is
        # yatracos_set(p, members[j]). Each member's rows become bytes in one
        # call, and dict.fromkeys keeps the distinct ones in first-seen
        # (i, j) order.
        mass = self._mass
        width = mass.shape[1]
        rows: dict = {}  # row bytes, in first-seen (i, j) order
        for row in mass:  # as bytes, trailing zero (False) bytes dropped
            rows.update(dict.fromkeys((row > mass).view(f"S{width}").ravel().tolist()))
        rows.pop(b"", None)
        incidence = np.frombuffer(b"".join(row.ljust(width, b"\0") for row in rows), dtype=bool)
        return incidence.reshape(len(rows), width).T.astype(np.int64)

    @cached_property
    def _nums(self) -> np.ndarray:
        """Each member's probability of each comparison set, over denom."""
        return (self._mass @ self._incidence).astype(_int_dtype(self.denom))

    @cached_property
    def sets(self) -> list:
        """The comparison sets as frozensets of atoms, in column order."""
        return [frozenset(self._atoms[j] for j in np.flatnonzero(col))
                for col in self._incidence.T]

    def select(self, sample: Sequence) -> int:
        """Index of the member with the smallest maximum deviation."""
        get, outside = self._column.get, len(self._column)
        index = [get(a, outside) for a in sample]
        return self._select_counts(np.bincount(index, minlength=outside + 1)[None], [len(index)])[0]

    def _select_counts(self, counts: np.ndarray, ms: list) -> list:
        """The selection for each row of `counts`, a sample's count of each atom
        column plus, last, of the atoms outside every member's support; row r
        counts ms[r] points. On a window-structured engine a row of at most n
        distinct window atoms takes the support rule; every other row is
        looked up in the memo (`_memoised`)."""
        if not all(ms):
            raise EmptySample("minimum-distance selection needs a sample")
        if not self._varying.size or not ms:  # no comparison sets, or no rows
            return [0] * len(ms)
        if self._window is None:
            return self._memoised(counts, ms)
        seen = counts[:, self._window] != 0
        pad = self._top - seen.sum(axis=1)  # the unseen window atoms each choice holds
        taken = seen | (np.cumsum(~seen, axis=1) <= pad[:, None])
        chosen = _colex_ranks(taken, self._binom).tolist()
        if pad.min() < 0:  # rows of more than n window atoms
            rows = np.flatnonzero(pad < 0).tolist()
            for r, best in zip(rows, self._memoised(counts[rows], [ms[r] for r in rows])):
                chosen[r] = best
        return chosen

    def _memoised(self, counts: np.ndarray, ms: list) -> list:
        """The full pass's selection for each row, as _select_counts takes
        them: each row is looked up in the memo by its bytes, and each
        distinct miss takes one full pass."""
        dtype = np.min_scalar_type(max(ms))  # the narrowest unsigned dtype that holds m
        keys = counts.astype(dtype).view(f"V{counts.shape[1] * dtype.itemsize}").ravel().tolist()
        memo = self._memo
        chosen = [memo.get(key) for key in keys]  # read before any clear below
        misses = {key: r for r, (key, best) in enumerate(zip(keys, chosen)) if best is None}
        if not misses:
            return chosen
        wide = _int_dtype(self.denom * max(ms[r] for r in misses.values()))
        found = {key: self._full_pass(counts[r], ms[r], wide) for key, r in misses.items()}
        for key, best in found.items():
            if len(memo) >= SELECT_MEMO_SIZE:
                memo.clear()
            memo[key] = best
        return [found[key] if best is None else best for key, best in zip(keys, chosen)]

    def _full_pass(self, counts: np.ndarray, m: int, dtype: np.dtype) -> int:
        """The selection for one row of atom counts of an m-point sample,
        computing in `dtype`, which holds denom * m: every member's deviation
        on every comparison set, and the first member of least maximum."""
        # deviation numerators |prob_num * m - denom * count| over denom * m,
        # each at most denom * m. Every multiply names its dtype: under NEP 50
        # a narrow array times a Python int stays narrow.
        dev = np.multiply(self._nums, m, dtype=dtype, out=self._buffer(dtype))
        dev -= np.multiply(counts[:-1] @ self._incidence, self.denom, dtype=dtype)
        return int(np.abs(dev, out=dev).max(axis=1).argmin())

    def _buffer(self, dtype: np.dtype) -> np.ndarray:
        """The deviation buffer as a `_nums`-shaped `dtype` array, grown only
        when it holds fewer bytes; Python ints (object dtype) get a fresh
        array, since numpy views no bytes as objects."""
        if dtype == object:
            return np.empty(self._nums.shape, dtype)
        if self._dev.size < self._nums.size * dtype.itemsize:
            self._dev = np.empty(self._nums.size * dtype.itemsize, dtype=np.uint8)
        return np.ndarray(self._nums.shape, dtype, self._dev)


def _colex_ranks(held: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """The colex rank sum_i C(c_i, i) of each row of a boolean (rows, |W|)
    matrix that holds at most n positions c_1 < c_2 < ...: binom[pos, slot]
    is C(pos, slot) for slots 1..n, 0 elsewhere, so slot 0 adds nothing."""
    slots = np.cumsum(held, axis=1, dtype=np.min_scalar_type(held.shape[1]))  # 3x int64's speed
    slots *= held
    return binom[np.arange(held.shape[1]), slots].sum(axis=1)


# (largest bound, dtype), narrowest first; int64 stops below INT64_SAFE, and
# Python ints (object) hold the rest
_INT_WIDTHS = ((np.iinfo(np.int16).max, np.dtype(np.int16)),
               (np.iinfo(np.int32).max, np.dtype(np.int32)),
               (INT64_SAFE - 1, np.dtype(np.int64)),
               (math.inf, np.dtype(object)))


def _int_dtype(bound: int) -> np.dtype:
    """The narrowest of int16, int32 and int64 that holds every integer of
    absolute value at most `bound`; object (Python ints) once bound >= INT64_SAFE."""
    return next(dtype for top, dtype in _INT_WIDTHS if bound <= top)


# ---------------------------------------------------------------------------
# learner handles
# ---------------------------------------------------------------------------

class Learner:
    """Deterministic map from samples to an output, with a task kind and
    the agnostic factor its guarantee carries (3 for TV, 1 otherwise).
    `finite_outputs` says every output comes from a fixed finite list, so
    a memo keyed by output stays bounded. `exchangeable` says the output
    depends only on the sample's multiset of points, not on their order,
    so reordering a sample returns an equal output. `min_sample` is the
    smallest sample size `run` accepts."""

    task: str = TASK_DISTRIBUTION
    agnostic_factor: int = 1
    finite_outputs: bool = False
    exchangeable: bool = False
    min_sample: int = 1
    name: str = "learner"

    def run(self, sample: Sequence):
        raise NotImplementedError

    def run_block(self, samples: Iterable):
        """run() on each sample, lazily and in order; an `exchangeable`
        learner takes SELECT_CHUNK samples at a time as count rows
        (`dist.count_rows`) through run_counts()."""
        if not self.exchangeable:
            yield from map(self.run, samples)
            return
        samples = iter(samples)
        while chunk := list(itertools.islice(samples, SELECT_CHUNK)):
            yield from self.run_counts(*count_rows(chunk))

    def run_draws(self, target: SparseDist, m: int, seeds: Iterable[int]):
        """run_block() on the m-point samples drawn from target, one per
        generator seed (`dist.draws`), lazily and in order. An `exchangeable`
        learner takes each chunk of drawn atom positions (`dist.draw_rows`)
        as count rows over target's support: one bincount, offset by row."""
        if not self.exchangeable:
            yield from self.run_block(draws(target, m, seeds))
            return
        atoms = target.support()
        for rows in draw_rows(target, m, seeds):
            size = len(atoms) * len(rows)
            index = rows + np.arange(0, size, len(atoms))[:, None]
            yield from self.run_counts(atoms, np.bincount(index.ravel(), minlength=size)
                                       .reshape(len(rows), len(atoms)))

    def run_counts(self, atoms: Sequence, counts: np.ndarray):
        """The output on each row of `counts`, an (r, len(atoms)) non-negative
        integer matrix of samples' atom counts (`atoms` distinct and valid, in
        canonical order): run() on the sorted tuples the rows spell out.
        Only an `exchangeable` learner's output is fixed by the counts."""
        return map(self.run, (tuple(a for a, c in zip(atoms, row) for _ in range(c))
                              for row in counts.tolist()))


class ScheffeLearner(Learner):
    """3-agnostic finite-class distribution learner."""

    agnostic_factor = 3
    finite_outputs = True
    exchangeable = True

    def __init__(self, cls: FiniteClass):
        if cls.task != TASK_DISTRIBUTION:
            raise MixedTasks("hypothesis classes take the ERM learner")
        if len(cls) == 0:
            raise EmptyClass("empty candidate class")
        self.cls = cls
        self.engine = ScheffeEngine(cls.mass_table())
        self.name = f"scheffe({cls.tag or len(cls)})"

    def run(self, sample):
        return self.cls.members[self.engine.select(sample)]

    def run_counts(self, atoms: Sequence, counts: np.ndarray) -> list:
        """run() on each count row: one product sums the rows into engine
        columns, the atoms outside every member's support into the outside one."""
        engine = self.engine
        members = engine.members  # a list: no lookup through a family's ranked view
        get, outside = engine._column.get, len(engine._column)
        cols = np.array([get(a, outside) for a in atoms], dtype=np.intp)
        onehot = cols[:, None] == np.arange(outside + 1)
        chosen = engine._select_counts(np.matmul(counts, onehot, dtype=np.int64),
                                       counts.sum(axis=1).tolist())
        return [members[i] for i in chosen]


class TruncationLearner(ScheffeLearner):
    """Learns a staged union by reducing to its finite truncation.

    The truncation at accuracy eps keeps the base member and all stages
    up to the settling index of eps/4; minimum-distance selection then
    runs on that finite class, `cls`.
    """

    def __init__(self, staged: StagedClass, eps, budget: int = DEFAULT_MEMBER_BUDGET):
        if staged.task != TASK_DISTRIBUTION:
            raise MixedTasks("truncation learner is a distribution learner")
        self.staged = staged
        self.eps = Fraction(eps)
        super().__init__(staged.truncate(self.eps, budget=budget))  # may raise NonVanishing/ClassTooLarge
        self.name = f"truncation(eps={self.eps})"

    def advertised_sample_size(self, delta) -> int:
        """The union bound advertised for this reduction: stages-by-width
        squared inside the log, 128/eps^2 outside."""
        idx = self.staged.spec.settling_index(self.eps / 4)
        nmax = self.staged.spec.n_max(idx)
        eps = float(self.eps)
        return math.ceil(128 * (math.log(3 * (idx * nmax) ** 2) + math.log(1 / float(delta)))
                         / eps ** 2)


class ErmLearner(Learner):
    """Empirical risk minimization over a finite hypothesis list.

    A hypothesis's empirical risk is its exact risk (`zero_one_risk` or
    `real_risk`) on the sample's empirical distribution. On an empty
    sample every hypothesis has vacuous empirical risk, so the tie rule
    returns the lowest-index hypothesis.
    """

    finite_outputs = True
    exchangeable = True

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

    def run(self, sample):
        atoms = tuple(sample)
        if not atoms:
            return self.hypotheses[0]
        p, ctx = empirical_dist(atoms), self.real_ctx
        if self.task == TASK_CLASSIFICATION:
            return min(self.hypotheses, key=lambda h: zero_one_risk(h, p))  # first of least risk
        return min(self.hypotheses, key=lambda h: real_risk(ctx, h, p))

    def run_counts(self, atoms: Sequence, counts: np.ndarray):
        """Classification: the first hypothesis of fewest mistakes, a row's
        summed counts of the atoms (x, b) with h(x) != b, as run() picks by
        risk = mistakes / m. The real task spells the rows out."""
        if self.task != TASK_CLASSIFICATION:
            return super().run_counts(atoms, counts)
        wrong = np.array([[h(x) != b for x, b in atoms] for h in self.hypotheses], dtype=np.int64)
        best = (counts.astype(np.int64) @ wrong.T).argmin(axis=1)
        return [self.hypotheses[k] for k in best.tolist()]


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
        self.finite_outputs = all(ln.finite_outputs for ln in self.learners)
        # both halves non-empty, and the first half of ceil(m/2) points
        # large enough for every constituent
        self.min_sample = max(2, 2 * max(ln.min_sample for ln in self.learners) - 1)
        self.name = f"union({len(self.learners)})"

    def run(self, sample):
        return next(self.run_block([sample]))

    def run_block(self, samples: Iterable):
        """run() on each sample, lazily and in order, SELECT_CHUNK samples at
        a time: each constituent takes the chunk's first halves as one block."""
        samples = iter(samples)
        while chunk := [tuple(s) for s in itertools.islice(samples, SELECT_CHUNK)]:
            if min(map(len, chunk)) < 2:
                raise SampleTooSmall("need at least 2 points to split")
            cuts = [(len(atoms) + 1) // 2 for atoms in chunk]
            firsts = [atoms[:cut] for atoms, cut in zip(chunk, cuts)]
            outputs = zip(*(ln.run_block(firsts) for ln in self.learners))
            for atoms, cut, candidates in zip(chunk, cuts, outputs):
                if self.task == TASK_DISTRIBUTION:
                    yield candidates[ScheffeEngine(candidates).select(atoms[cut:])]
                else:
                    yield ErmLearner(candidates, self.task, real_ctx=self.real_ctx).run(atoms[cut:])


class EmpiricalBaseline(Learner):
    """The NFL test subject: empirical distribution for the distribution
    task, plurality labeler for the hypothesis tasks: the Bayes labeler of
    the empirical distribution, so unseen points and exact label ties go
    to 0."""

    exchangeable = True

    def __init__(self, task: str, real_ctx=None):
        self.task = task
        self.real_ctx = real_ctx
        self.name = "empirical-baseline"

    def run(self, sample):
        atoms = tuple(sample)
        if self.task == TASK_DISTRIBUTION:
            return empirical_dist(atoms)
        return self._labeler(bayes_labeler(empirical_dist(atoms)).ones if atoms else ())

    def _labeler(self, ones: tuple):
        """The task's hypothesis that labels the points `ones`, sorted, 1."""
        if self.task == TASK_CLASSIFICATION:
            return BinaryHypothesis(ones)
        if self.real_ctx is None:
            raise MixedTasks("real baseline needs a task context")
        return RealHypothesis(tuple((x, self.real_ctx.level_value) for x in ones))

    def run_counts(self, atoms: Sequence, counts: np.ndarray):
        """The distribution task builds each row's empirical distribution
        unchecked, lazily, with one Fraction(c, m) per count value. The
        hypothesis tasks label point x 1 iff a row counts more (x, 1) than
        (x, 0) points, as run()'s Bayes labeler does by mass."""
        if self.task != TASK_DISTRIBUTION:
            points = sorted({x for x, _ in atoms})
            # +1 where an atom is point x labelled 1, -1 where labelled otherwise
            votes = np.array([[(1 if b == 1 else -1) if x == p else 0 for p in points]
                              for x, b in atoms], dtype=np.int64).reshape(len(atoms), len(points))
            for ones in (counts.astype(np.int64) @ votes > 0).tolist():
                yield self._labeler(tuple(x for x, one in zip(points, ones) if one))
            return
        for row in counts.tolist():
            if not (m := sum(row)):
                raise EmptySample("empirical distribution of an empty sample")
            mass = {c: Fraction(c, m) for c in set(row)}
            yield SparseDist._trusted(tuple((a, mass[c]) for a, c in zip(atoms, row) if c))


class ConstantLearner(Learner):
    """Ignores the sample; useful as an oracle subject and at m=0."""

    finite_outputs = True
    exchangeable = True

    def __init__(self, output, task: str, name: Optional[str] = None):
        self.output = output
        self.task = task
        self.name = name or "constant"

    def run(self, sample):
        return self.output

    def run_counts(self, atoms: Sequence, counts: np.ndarray) -> list:
        return [self.output] * len(counts)
