"""Learning algorithms: minimum-distance selection, truncation, ERM,
union aggregation, and the empirical baselines.

Every learner is a pure, deterministic function of (configuration,
sample); ties always break toward the lowest index in the candidate class's
canonical order, and the Scheffé engine's choice is the exact lowest-index
argmin (`ScheffeEngine`).

Every `exchangeable` learner implements one method, `run_counts`, on count
rows; `run` is `run_block` on one sample, so run_counts on its count row. `run_block`
counts a block of tuples SELECT_CHUNK samples at a time (`dist.count_rows`),
and `run_draws` counts each chunk of drawn atom positions (`dist.draw_rows`)
with one offset bincount, so Monte Carlo trials build no tuples. On a class
that declares its window (the filtered anchored families) the Scheffé
learner selects a row of at most n window atoms by the support rule, with no
mass table and no engine; any other row takes the engine's memo and one
full pass per distinct miss. ERM sums integer losses and the empirical
baselines read the counts directly. The union learner, whose split depends
on order, takes tuples: it hands each constituent's run_block a chunk's
first halves.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .dist import SELECT_CHUNK, MassTable, SparseDist, count_rows, draw_rows, draws, int_dtype
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
from .losses import hypotheses_of_class

SELECT_MEMO_SIZE = 4096  # most entries any memo filled through `memoised` holds


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

    Blocks: _select_counts, the one selection core, takes count rows as
    `Learner.run_counts` does, and select() counts one sample. A full-pass
    choice is memoised by the bytes of the int64 count row over the
    engine's columns (`memoised`); each distinct miss takes one full pass.

    Widths: every entry of `_nums` is at most denom, and every deviation
    numerator |nums * m - denom * count| of an m-point sample at most
    denom * m. `_nums` is held in `_int_dtype(denom)`, the narrowest of
    int16, int32 and `dist.int_dtype` that holds denom, and each full pass
    computes in `_int_dtype(denom * m)`, so no step can overflow; past
    int64 it computes on Python ints (object dtype).
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
        self._memo: dict = {}  # atom-count bytes -> selected index
        # an atom of one mass in every member is in no comparison set
        self._has_sets = bool((mass != mass[0]).any())

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
        return self._select_counts(*count_rows([sample]))[0]

    def _select_counts(self, atoms: Sequence, counts: np.ndarray) -> list:
        """The selection for each row of `counts`, as `Learner.run_counts` takes
        them: one product sums the rows into engine columns, and the atoms
        outside every member's support into a last one."""
        ms = counts.sum(axis=1).tolist()
        if not all(ms):
            raise EmptySample("minimum-distance selection needs a sample")
        if not self._has_sets or not ms:
            return [0] * len(ms)
        get, outside = self._column.get, len(self._column)
        cols = np.array([get(a, outside) for a in atoms], dtype=np.intp)
        counts = np.matmul(counts, cols[:, None] == np.arange(outside + 1), dtype=np.int64)
        keys = counts.view(f"V{counts.shape[1] * 8}").ravel().tolist()

        def solve(misses: list) -> list:
            row = dict(zip(keys, range(len(keys))))
            wide = _int_dtype(self.denom * max(ms[row[key]] for key in misses))
            return [self._full_pass(counts[row[key]], ms[row[key]], wide) for key in misses]

        return memoised(self._memo, keys, solve)

    def _full_pass(self, counts: np.ndarray, m: int, dtype: np.dtype) -> int:
        """The selection for one row of atom counts of an m-point sample,
        computing in `dtype`, which holds denom * m: every member's deviation
        on every comparison set, and the first member of least maximum."""
        # deviation numerators |prob_num * m - denom * count| over denom * m,
        # each at most denom * m. Every multiply names its dtype: under NEP 50
        # a narrow array times a Python int stays narrow.
        dev = np.multiply(self._nums, m, dtype=dtype)
        dev -= np.multiply(counts[:-1] @ self._incidence, self.denom, dtype=dtype)
        return int(np.abs(dev, out=dev).max(axis=1).argmin())


def _int_dtype(bound: int) -> np.dtype:
    """The narrowest of int16 and int32 that holds every integer of absolute
    value at most `bound`, else `int_dtype(bound)`."""
    for dtype in (np.int16, np.int32):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return int_dtype(bound)


def memoised(memo: dict, keys: list, solve) -> list:
    """memo's value for each of `keys`; `solve` maps the list of distinct
    missing keys, in first-seen order, to their values. memo is cleared
    once it holds SELECT_MEMO_SIZE entries; every hit is read first, so a
    clear loses none of them."""
    chosen = list(map(memo.get, keys))
    if None not in chosen:
        return chosen
    misses = list(dict.fromkeys(key for key, value in zip(keys, chosen) if value is None))
    found = dict(zip(misses, solve(misses)))
    for key, value in found.items():
        if len(memo) >= SELECT_MEMO_SIZE:
            memo.clear()
        memo[key] = value
    return [found[key] if value is None else value for key, value in zip(keys, chosen)]


# ---------------------------------------------------------------------------
# learner handles
# ---------------------------------------------------------------------------

class Learner:
    """Deterministic map from samples to an output, with a task kind and
    the agnostic factor its guarantee carries (3 for TV, 1 otherwise).
    `exchangeable` says the output
    depends only on the sample's multiset of points, not on their order,
    so reordering a sample returns an equal output. `min_sample` is the
    smallest sample size `run` accepts."""

    task: str = TASK_DISTRIBUTION
    agnostic_factor: int = 1
    exchangeable: bool = False
    min_sample: int = 1
    name: str = "learner"

    def run(self, sample: Sequence):
        """The output on one sample: run_block() on it alone."""
        return next(iter(self.run_block([sample])))

    def run_block(self, samples: Iterable):
        """run() on each sample, lazily and in order, SELECT_CHUNK samples at
        a time as count rows (`dist.count_rows`) through run_counts()."""
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
        canonical order). Every `exchangeable` learner implements this, and
        only such a learner's output is fixed by the counts; any other
        overrides run_block()."""
        raise NotImplementedError

    def distinct_outputs(self, atoms: Sequence, samples) -> tuple:
        """(inverse, outputs): each sample's index among the distinct outputs, in first-seen
        order, on count rows over `atoms` (run_counts) if `exchangeable`, else on tuples."""
        ids: dict = {}  # output -> id; equal outputs share one id
        outs = self.run_counts(atoms, samples) if self.exchangeable else self.run_block(samples)
        return np.array([ids.setdefault(out, len(ids)) for out in outs], dtype=np.intp), list(ids)

    def mass_rows(self, table: MassTable, samples) -> tuple:
        """(inverse, rows, scale): the output on samples[r], as distinct_outputs()
        takes them over table.atoms, is rows[inverse[r]] (`MassTable.numerators`)
        over scale, a multiple of table.denom; by default the lcm of it and every
        distinct output's denominators."""
        inverse, outputs = self.distinct_outputs(table.atoms, samples)
        scale = math.lcm(table.denom, *(w.denominator for q in outputs for _, w in q.items))
        return inverse, table.numerators(outputs, scale), scale


class ScheffeLearner(Learner):
    """3-agnostic finite-class distribution learner: the engine's choice.

    Support rule: on a class that declares its window (`FiniteClass.window`)
    W and n, the comparison sets are every subset of 1..n atoms of W, so a
    count row c of an m-point sample with at most n distinct atoms of W
    selects the first member of least sum_a |m * mass_ia - denom * c_a|
    over a in W. Swapping a seen atom a out of a member's set for an unseen
    one raises that sum by m * mu + denom * c_a - |m * mu - denom * c_a| > 0
    (mu: a member's mass on each of its n atoms), so every minimiser holds
    every seen atom; every unseen atom adds m * mu, so those tie, and the
    first takes the unseen atoms of lowest position: index sum_i C(c_i, i)
    over its positions c_1 < ... < c_n in W. A row's seen atoms of W are one
    bitmask, looked up in a rank memo cleared at SELECT_MEMO_SIZE entries; a
    block's misses are ranked in one pass. Rows of more atoms of W, and all
    rows of a class with no window, take the engine, built on first use.
    """

    agnostic_factor = 3
    exchangeable = True

    def __init__(self, cls: FiniteClass):
        if cls.task != TASK_DISTRIBUTION:
            raise MixedTasks("hypothesis classes take the ERM learner")
        if len(cls) == 0:
            raise EmptyClass("empty candidate class")
        self.cls = cls
        self._ranks: dict = {}  # seen-window bitmask -> member index, -1 past n atoms
        self.name = f"scheffe({cls.tag or len(cls)})"

    @cached_property
    def engine(self) -> ScheffeEngine:
        return ScheffeEngine(self.cls.mass_table())

    def run_counts(self, atoms: Sequence, counts: np.ndarray) -> list:
        """The selection on each count row; each distinct member is read once."""
        chosen = self._choose(atoms, counts)
        members = self.cls.members
        outputs = {i: members[i] for i in set(chosen)}
        return [outputs[i] for i in chosen]

    def mass_rows(self, table: MassTable, samples) -> tuple:
        """On the class's own table, the chosen members' mass rows over
        table.denom, with no member read; any other table takes the default."""
        if self.cls._mass_table is not table:  # mass_table() would build it
            return super().mass_rows(table, samples)
        chosen, inverse = np.unique(self._choose(table.atoms, samples), return_inverse=True)
        return inverse, table.mass[chosen], table.denom

    def _choose(self, atoms: Sequence, counts: np.ndarray) -> list:
        """The member index selected on each count row, by rule or engine."""
        if self.cls.window is None:
            return self.engine._select_counts(atoms, counts)
        seen = counts != 0
        keys = (seen @ _window_weights(tuple(atoms), self.cls.window[0])).tolist()
        if 0 in keys and not seen.any(axis=1).all():  # an empty row has key 0
            raise EmptySample("minimum-distance selection needs a sample")
        chosen = memoised(self._ranks, keys, self._rank)
        if -1 in chosen:  # rows of more than n window atoms
            wide = [r for r, i in enumerate(chosen) if i < 0]
            for r, i in zip(wide, self.engine._select_counts(atoms, counts[wide])):
                chosen[r] = i
        return chosen

    def _rank(self, masks: list) -> list:
        """The rule's member index for each seen-window bitmask, -1 past n atoms."""
        width, n = len(self.cls.window[0]), self.cls.window[1]
        raw = b"".join(mask.to_bytes(-(-width // 8), "little") for mask in masks)
        seen = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(masks), -1), axis=1,
                             count=width, bitorder="little").view(bool)
        pad = n - seen.sum(axis=1)  # the unseen window atoms each choice holds
        taken = seen | (np.cumsum(~seen, axis=1) <= pad[:, None])
        slots = np.cumsum(taken, axis=1) * taken  # held position p is slot i: C(p, i)
        ranks = self._comb_table[np.arange(width), slots].sum(axis=1)
        return np.where(pad < 0, -1, ranks).tolist()

    @cached_property
    def _comb_table(self) -> np.ndarray:
        """C(position, slot) for slots 1..n, 0 at slot 0 and past n."""
        width, n = len(self.cls.window[0]), self.cls.window[1]
        return np.array([[math.comb(p, i) if 1 <= i <= n else 0 for i in range(width + 1)]
                         for p in range(width)], dtype=int_dtype(math.comb(width, n)))


@lru_cache(maxsize=SELECT_MEMO_SIZE)
def _window_weights(atoms: tuple, window: tuple) -> np.ndarray:
    """1 << position for each of `atoms` in `window`, 0 for every other atom
    (Python ints past 62 positions); shared between calls, so never written."""
    weight = {a: 1 << p for p, a in enumerate(window)}
    return np.array([weight.get(a, 0) for a in atoms], dtype=int_dtype((1 << len(window)) - 1))


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


class ErmLearner(Learner):
    """Empirical risk minimization over a finite hypothesis list: the first
    hypothesis of least summed loss on the sample, which is least empirical
    risk. On an empty sample every sum is 0, so the tie rule returns the
    lowest-index hypothesis.
    """

    exchangeable = True

    def __init__(self, hypotheses: Sequence, task: str, real_ctx=None):
        if not hypotheses:
            raise EmptyClass("ERM over an empty hypothesis list")
        if task not in (TASK_CLASSIFICATION, TASK_REAL):
            raise MixedTasks("ERM here handles the two hypothesis tasks")
        self.hypotheses = list(hypotheses)
        self.task = task
        self.real_ctx = real_ctx
        self.name = f"erm({len(self.hypotheses)})"

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

    def run_counts(self, atoms: Sequence, counts: np.ndarray) -> list:
        """The first hypothesis of least summed loss on each count row
        (`_summed_losses`)."""
        best = self._summed_losses(atoms, counts).argmin(axis=1).tolist()
        return [self.hypotheses[k] for k in best]

    def _summed_losses(self, atoms: Sequence, counts: np.ndarray) -> np.ndarray:
        """The (rows, hypotheses) integer matrix of each row's summed losses.
        Classification counts mistakes, the atoms (x, b) with h(x) != b, in
        int64. The real task scales each loss g(|h(x) - y(b)|) to an integer
        over the losses' common denominator, in `int_dtype` of the largest
        one times max(m, 1)."""
        if self.task == TASK_CLASSIFICATION:
            wrong = np.array([[h(x) != b for x, b in atoms] for h in self.hypotheses],
                             dtype=np.int64)
            return np.matmul(counts, wrong.T, dtype=np.int64)
        ctx = self.real_ctx
        loss = [[ctx.loss.g(abs(h(x) - ctx.y_of_bit(b))) for x, b in atoms]
                for h in self.hypotheses]
        scale = math.lcm(*(g.denominator for row in loss for g in row))
        nums = [[g.numerator * (scale // g.denominator) for g in row] for row in loss]
        top = max((num for row in nums for num in row), default=0)
        dtype = int_dtype(top * int(counts.sum(axis=1).max(initial=1)))
        nums = np.array(nums, dtype=dtype).reshape(len(loss), len(atoms))
        return counts.astype(dtype) @ nums.T


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
        # the real task's context, if not given: the first constituent's that carries one
        self.real_ctx = real_ctx or next(filter(None, (getattr(ln, "real_ctx", None)
                                                       for ln in learners)), None)
        if self.task == TASK_REAL and self.real_ctx is None:
            raise MixedTasks("a real-task union needs a task context")
        self.agnostic_factor = 3 if self.task == TASK_DISTRIBUTION else 1
        # both halves non-empty, and the first half of ceil(m/2) points
        # large enough for every constituent
        self.min_sample = max(2, 2 * max(ln.min_sample for ln in self.learners) - 1)
        self.name = f"union({len(self.learners)})"

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

    def labeler(self, ones: tuple):
        """The task's hypothesis that labels the points `ones`, sorted, 1."""
        if self.task == TASK_CLASSIFICATION:
            return BinaryHypothesis(ones)
        if self.real_ctx is None:
            raise MixedTasks("real baseline needs a task context")
        return RealHypothesis(tuple((x, self.real_ctx.level_value) for x in ones))

    def run_counts(self, atoms: Sequence, counts: np.ndarray):
        """The distribution task builds each row's empirical distribution
        unchecked, lazily, with one Fraction(c, m) per distinct (c, m) of the
        call, shared by every row that holds it. The hypothesis tasks label
        point x 1 iff a row counts more (x, 1) than (x, 0) points: the
        empirical distribution's Bayes labeler."""
        if self.task != TASK_DISTRIBUTION:
            points = sorted({x for x, _ in atoms})
            # +1 where an atom is point x labelled 1, -1 where labelled otherwise
            votes = np.array([[(1 if b == 1 else -1) if x == p else 0 for p in points]
                              for x, b in atoms], dtype=np.int64).reshape(len(atoms), len(points))
            for ones in (counts.astype(np.int64) @ votes > 0).tolist():
                yield self.labeler(tuple(x for x, one in zip(points, ones) if one))
            return
        fracs: dict = {}  # m -> {c: Fraction(c, m)}
        for row in counts.tolist():
            if not (m := sum(row)):
                raise EmptySample("empirical distribution of an empty sample")
            mass = fracs.setdefault(m, {})
            for c in set(row) - mass.keys():
                mass[c] = Fraction(c, m)
            yield SparseDist._trusted(tuple((a, mass[c]) for a, c in zip(atoms, row) if c))

    def mass_rows(self, table: MassTable, samples) -> tuple:
        """Each count row is its own output, c/m as c * (scale / m) over scale,
        the lcm of table.denom and every m: no distribution, no Fraction."""
        ms = samples.sum(axis=1).tolist()
        if not all(ms):
            raise EmptySample("empirical distribution of an empty sample")
        scale = math.lcm(table.denom, *set(ms))
        dtype = int_dtype(scale)
        rows = samples.astype(dtype) * np.array([scale // m for m in ms], dtype=dtype)[:, None]
        return np.arange(len(ms)), rows, scale


class ConstantLearner(Learner):
    """Ignores the sample; useful as an oracle subject and at m=0."""

    exchangeable = True

    def __init__(self, output, task: str, name: Optional[str] = None):
        self.output = output
        self.task = task
        self.name = name or "constant"

    def run_counts(self, atoms: Sequence, counts: np.ndarray) -> list:
        return [self.output] * len(counts)
