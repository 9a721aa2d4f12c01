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
bincount, so Monte Carlo trials build no tuples. The Scheffé learner selects
a call's rows with one memo pass and one batched pass over its distinct
misses: a closed form on the window-structured engines of the anchored
families, one full pass per row elsewhere. ERM on the classification task and
the empirical distribution read the counts directly, and the other
exchangeable learners spell rows out for `run`. The union learner hands
each constituent's run_block a chunk's first halves.
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
    ALL_ZERO_REAL,
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
    `sets` lists the comparison sets as frozensets of atoms, built on
    first read. The full pass computes every member's deviation on every
    set of a sample and takes the first member of least maximum.

    Closed form: when the comparison sets are every subset of 1..n atoms of
    a window W, an integer engine of three or more members selects with a
    members x W pass. At build, n is the largest set size and W the
    singleton sets' atoms: the sets are distinct subsets of at most n atoms
    of the atoms in any set, so a count of sum_{k<=n} C(|W|, k) proves the
    structure once those atoms are W. For member i and the count row c of
    an m-point sample let d_a = m * nums_ia - denom * c_a, a in W. If (a)
    the member holds at most n atoms of W and (b) the row at most n
    distinct atoms of W, then d's positive and negative entries each form a
    comparison set or none, the member's deviation is max(sum d+, sum d-),
    and twice it is sum_a |d_a| + |sum_a d_a|. An atom outside W is in no
    set, so it has one mass in every member: the window mass, and so
    |sum_a d_a|, is the same for every member, and the choice is the first
    member of least sum_a |d_a|, one rows x W x members pass in the
    deviation buffer. Condition (a) is checked at build, on `_probe`, the
    members' masses on W; a call with a row that fails (b) takes the full
    pass. Twice a deviation is at most 2 * denom * m, so this pass computes
    in the narrowest width that holds that, and a call past int64 takes the
    full pass.

    Blocks: _select_counts, the one selection core, takes rows of atom
    counts over the engine's columns; ScheffeLearner.run_counts sums count
    rows into them, and select() is one bincount. A choice is memoised by the
    bytes of the count row in the narrowest unsigned dtype that holds the
    block's largest m (rows of different dtypes differ in length, so their
    keys never collide), in a dict cleared once it holds SELECT_MEMO_SIZE
    entries; a block reads its hits first, so a clear loses none of them.
    The block's distinct misses are selected together, as many rows per
    pass as fit the deviation buffer: sets / |W| rows of the closed form
    (24 rows on a 220 x 298 engine with a 12-atom window), one row of the
    full pass.

    Widths: every entry of `_nums` is at most denom, and every deviation
    numerator |nums * m - denom * count| of an m-point sample at most
    denom * m. While denom < INT64_SAFE the engine is an integer engine:
    `_nums` and `_probe` are held in the narrowest of int16, int32 and int64
    that holds denom, and each select computes in the narrowest that holds
    denom * m, so no step can overflow; past int64 the full pass computes
    on Python ints (object dtype). The deviations go into one buffer of
    `_nums.size` entries owned by the engine, widened only when a call needs
    a wider dtype, so an engine must not be shared between threads.
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
        mass = table.mass

        # p(a) > q(a) only inside p's support, so row j of `row > mass` is
        # yatracos_set(p, members[j]). Each member's rows become bytes in one
        # call, and dict.fromkeys keeps the distinct ones in first-seen
        # (i, j) order. The bytes drop trailing zero (False) bytes, so the
        # empty set is b"".
        width = mass.shape[1]
        rows: dict = {}  # row bytes, in first-seen (i, j) order
        for row in mass:
            rows.update(dict.fromkeys((row > mass).view(f"S{width}").ravel().tolist()))
        rows.pop(b"", None)
        incidence = np.frombuffer(b"".join(row.ljust(width, b"\0") for row in rows), dtype=bool)
        incidence = incidence.reshape(len(rows), width).T.astype(np.int64)
        self._incidence = incidence
        dtype = _int_dtype(self.denom)  # object exactly when `mass` holds Python ints
        self._nums = (mass @ incidence).astype(dtype)
        self._dev = np.empty(0, dtype=np.int8)  # the deviation buffer, sized on first use
        # the closed form (cheap tests first): the sets are distinct subsets
        # of at most `top` atoms of the atoms in any set, so their count
        # proves they are all of them once those atoms are the singletons'
        # (as they are when every set is one). The union builds a two-member
        # engine per sample and selects once with it, so the test would cost
        # it more than it saves.
        self._window = None
        if dtype != object and len(mass) > 2 and incidence.shape[1]:
            sizes = incidence.sum(axis=0)
            singles, top = np.flatnonzero(sizes == 1), int(sizes.max())
            probe = self._nums[:, singles].T
            if (len(sizes) == sum(math.comb(len(singles), k) for k in range(1, top + 1))
                    and (top == 1 or np.count_nonzero(incidence.any(axis=1)) == len(singles))
                    and (probe != 0).sum(axis=0).max() <= top):
                self._window = incidence[:, singles].argmax(axis=0)  # in set order
                self._probe, self._top = probe.copy(), top
        self._memo: dict = {}  # atom-count bytes -> selected index

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
        counts ms[r] points. Each row is looked up in the memo by its bytes,
        and the distinct misses are selected together (`_argmins`)."""
        if not all(ms):
            raise EmptySample("minimum-distance selection needs a sample")
        if not self._incidence.shape[1] or not ms:
            return [0] * len(ms)
        dtype = np.min_scalar_type(max(ms))  # the narrowest unsigned dtype that holds m
        keys = counts.astype(dtype).view(f"V{counts.shape[1] * dtype.itemsize}").ravel().tolist()
        memo = self._memo
        chosen = [memo.get(key) for key in keys]  # read before any clear below
        misses = {key: r for r, (key, best) in enumerate(zip(keys, chosen)) if best is None}
        if not misses:
            return chosen
        rows = list(misses.values())
        found = dict(zip(misses, self._argmins(counts[rows], [ms[r] for r in rows])))
        for key, best in found.items():
            if len(memo) >= SELECT_MEMO_SIZE:
                memo.clear()
            memo[key] = best
        return [found[key] if best is None else best for key, best in zip(keys, chosen)]

    def _argmins(self, counts: np.ndarray, ms: list) -> list:
        """The selection for each row of atom counts, as _select_counts
        takes them, of an ms[r]-point sample."""
        # deviation numerators over common denominator denom*m:
        #   |prob_num * m - denom * count|, each at most denom*m. Every
        #   multiply names its dtype: under NEP 50 a narrow array times a
        #   Python int stays narrow. A row of more than `_top` distinct
        #   window atoms takes the full pass: samples drawn from members
        #   never have one.
        wide = _int_dtype(2 * self.denom * max(ms))
        if (self._window is not None and wide != object
                and ((counts[:, self._window] != 0).sum(axis=1) <= self._top).all()):
            return self._in_steps(self._closed_form, counts, ms, wide, self._probe.size)
        return self._in_steps(self._full_pass, counts, ms, _int_dtype(self.denom * max(ms)),
                              self._nums.size)

    def _in_steps(self, argmins, counts: np.ndarray, ms: Sequence, dtype: np.dtype,
                  block: int) -> list:
        """argmins() on as many rows at a time as blocks of `block` entries
        per row fit the deviation buffer."""
        step = self._nums.size // block
        return [best for lo in range(0, len(ms), step)
                for best in argmins(counts[lo:lo + step], ms[lo:lo + step], dtype)]

    def _closed_form(self, counts: np.ndarray, ms: Sequence, dtype: np.dtype) -> list:
        """_argmins on rows of at most `_top` distinct window atoms, computing
        in `dtype`, which holds 2 * denom * m: the first member of least
        sum_a |d_a| over the window."""
        ms = np.array(ms, dtype=dtype)
        dev = np.multiply(self._probe, ms[:, None, None], dtype=dtype,
                          out=self._buffer((len(ms), *self._probe.shape), dtype))
        dev -= np.multiply(counts[:, self._window, None], self.denom, dtype=dtype)
        return np.abs(dev, out=dev).sum(axis=1, dtype=dtype).argmin(axis=1).tolist()

    def _full_pass(self, counts: np.ndarray, ms: Sequence, dtype: np.dtype) -> list:
        """_argmins on any rows, computing in `dtype`, which holds denom * m:
        every member's deviation on every comparison set, and the first
        member of least maximum deviation."""
        ms = np.array(ms, dtype=dtype)
        dev = np.multiply(self._nums, ms[:, None, None], dtype=dtype,
                          out=self._buffer((len(ms), *self._nums.shape), dtype))
        dev -= np.multiply(counts[:, None, :-1] @ self._incidence, self.denom, dtype=dtype)
        return np.abs(dev, out=dev).max(axis=2).argmin(axis=1).tolist()

    def _buffer(self, shape: tuple, dtype: np.dtype) -> np.ndarray:
        """The deviation buffer's first bytes as a `shape` array of `dtype`;
        numpy refuses a shape larger than the buffer. The buffer is
        reallocated only for a dtype wider than its own; a narrower one
        views its bytes. Python ints (object dtype) get a fresh array, since
        numpy views no bytes as objects."""
        if dtype == object:
            return np.empty(shape, dtype)
        if self._dev.itemsize < dtype.itemsize:
            self._dev = np.empty(self._nums.size, dtype=dtype)
        return np.ndarray(shape, dtype, self._dev)


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
        labeler = bayes_labeler(empirical_dist(atoms)) if atoms else BinaryHypothesis(())
        if self.task == TASK_CLASSIFICATION:
            return labeler
        if self.real_ctx is None:
            raise MixedTasks("real baseline needs a task context")
        if not labeler.ones:
            return ALL_ZERO_REAL
        return RealHypothesis(tuple((x, self.real_ctx.level_value) for x in labeler.ones))

    def run_counts(self, atoms: Sequence, counts: np.ndarray):
        """The distribution task builds each row's empirical distribution
        unchecked, lazily, with one Fraction(c, m) per count value; the
        hypothesis tasks spell the rows out."""
        if self.task != TASK_DISTRIBUTION:
            yield from super().run_counts(atoms, counts)
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
