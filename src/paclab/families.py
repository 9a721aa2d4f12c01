"""Parametric distribution and hypothesis families, and their staged unions.

The building block is an "anchored" family: most of the mass sits on an
anchor atom (0, or (0,0) for the labeled task) and a small level eta is
spread uniformly over a subset of a finite window. Families are indexed
by subset bitmasks so that members have a canonical order: ascending
bitmask value, which every tie-breaking rule downstream refers to.

Families are exponentially large, so none is built up front: member i
and label i are computed from the rank i on first access, in that same
canonical order, and a run pays only for the members it reads. Member
distributions go through the unchecked `SparseDist._trusted`, with every
mass (1 - eta, eta/|A|, ...) computed exactly once per family.

A staged union strings countably many such families along a pair of
rules (eta per stage, window width per stage) and supports truncation
to a finite prefix once the eta rule is certified to settle below a
target level.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Union

from .dist import MassTable, SparseDist, delta, frac_str
from .errors import (
    BadEta,
    BadN,
    ClassTooLarge,
    EtaAboveGmax,
    NonVanishing,
)

if TYPE_CHECKING:
    from .losses import LossRule

ONE = Fraction(1)

TASK_DISTRIBUTION = "distribution"
TASK_CLASSIFICATION = "classification"
TASK_REAL = "real"
TASKS = (TASK_DISTRIBUTION, TASK_CLASSIFICATION, TASK_REAL)

DEFAULT_MEMBER_BUDGET = 1 << 20


# ---------------------------------------------------------------------------
# hypotheses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinaryHypothesis:
    """0/1 function given by its finite one-set."""

    ones: tuple

    def __call__(self, x: int) -> int:
        return 1 if x in self.ones else 0

    @staticmethod
    def from_set(xs) -> "BinaryHypothesis":
        return BinaryHypothesis(tuple(sorted(set(xs))))


@dataclass(frozen=True)
class RealHypothesis:
    """[0,1]-valued function, zero outside a finite association."""

    values: tuple  # sorted tuple of (x, Fraction)

    def __call__(self, x: int) -> Fraction:
        for k, v in self.values:
            if k == x:
                return v
        return Fraction(0)


ALL_ZERO_REAL = RealHypothesis(())


# ---------------------------------------------------------------------------
# stage sequences
# ---------------------------------------------------------------------------

class EtaRule:
    """Rule i -> level in [0,1]; raw() may exceed 1, value() is clamped."""

    def raw(self, i: int) -> Fraction:
        raise NotImplementedError

    def value(self, i: int) -> Fraction:
        return min(ONE, self.raw(i))

    def settling_index(self, eps: Fraction) -> int:
        """Least i with raw(j) <= eps for all j >= i."""
        raise NotImplementedError

    def to_json_obj(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(EtaRule):
    c: Fraction

    def raw(self, i: int) -> Fraction:
        return Fraction(self.c)

    def settling_index(self, eps: Fraction) -> int:
        if Fraction(self.c) <= eps:
            return 1
        raise NonVanishing(f"constant level {self.c} never drops to {eps}")

    def to_json_obj(self):
        return {"kind": "constant", "c": frac_str(Fraction(self.c))}


@dataclass(frozen=True)
class Reciprocal(EtaRule):
    """Level c/i; values above 1 (small i) are clamped at materialization."""

    c: Fraction

    def raw(self, i: int) -> Fraction:
        return Fraction(self.c) / i

    def settling_index(self, eps: Fraction) -> int:
        if eps <= 0:
            raise NonVanishing("target level must be positive")
        # least i >= 1 with c/i <= eps, i.e. i >= c/eps
        return max(1, math.ceil(Fraction(self.c) / eps))

    def to_json_obj(self):
        return {"kind": "reciprocal", "c": frac_str(Fraction(self.c))}


@dataclass(frozen=True)
class EtaTable(EtaRule):
    """Finite table of levels; cannot certify a settling index."""

    values_by_index: tuple

    def raw(self, i: int) -> Fraction:
        if not 1 <= i <= len(self.values_by_index):
            raise BadN(f"stage {i} outside table of length {len(self.values_by_index)}")
        return Fraction(self.values_by_index[i - 1])

    def settling_index(self, eps: Fraction) -> int:
        raise NonVanishing("a finite table says nothing about its tail")

    def to_json_obj(self):
        return {"kind": "table", "values": [frac_str(Fraction(v)) for v in self.values_by_index]}


@dataclass(frozen=True)
class PolyWitness(EtaRule):
    """Level max(1/f(i), 1/f(k)) for a nondecreasing witness-size table f.

    The floor 1/f(k) makes the sequence settle exactly at that floor, so
    the settling index is computable from the table prefix alone.
    """

    f_table: tuple  # f(1), f(2), ..., nondecreasing positive ints
    k: int

    def __post_init__(self):
        if self.k < 1 or self.k > len(self.f_table):
            raise BadN(f"k={self.k} outside table of length {len(self.f_table)}")
        vals = self.f_table
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)) or vals[0] < 1:
            raise BadN("witness-size table must be nondecreasing and >= 1")

    def raw(self, i: int) -> Fraction:
        if i < 1:
            raise BadN("stage index must be >= 1")
        fi = self.f_table[min(i, len(self.f_table)) - 1]
        fk = self.f_table[self.k - 1]
        return max(Fraction(1, fi), Fraction(1, fk))

    def settling_index(self, eps: Fraction) -> int:
        floor = Fraction(1, self.f_table[self.k - 1])
        if floor > eps:
            raise NonVanishing(f"level is floored at {floor} > {eps}")
        for i in range(1, self.k + 1):
            if self.raw(i) <= eps:
                return i
        return self.k

    def to_json_obj(self):
        return {"kind": "poly-witness", "f": list(self.f_table), "k": self.k}


class NRule:
    """Rule i -> window width (a natural >= 1)."""

    def value(self, i: int) -> int:
        raise NotImplementedError

    def to_json_obj(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class IdentityN(NRule):
    def value(self, i: int) -> int:
        if i < 1:
            raise BadN("stage index must be >= 1")
        return i

    def to_json_obj(self):
        return {"kind": "identity"}


@dataclass(frozen=True)
class AffineOfTarget(NRule):
    """Width 8*(g(i)+1) for a tabulated growth target g."""

    g_values: tuple  # g(1), g(2), ...

    def value(self, i: int) -> int:
        if not 1 <= i <= len(self.g_values):
            raise BadN(f"stage {i} outside target table of length {len(self.g_values)}")
        return 8 * (int(self.g_values[i - 1]) + 1)

    def to_json_obj(self):
        return {"kind": "affine-of-target", "g": list(self.g_values)}


@dataclass(frozen=True)
class NTable(NRule):
    values_by_index: tuple

    def value(self, i: int) -> int:
        if not 1 <= i <= len(self.values_by_index):
            raise BadN(f"stage {i} outside table of length {len(self.values_by_index)}")
        return int(self.values_by_index[i - 1])

    def to_json_obj(self):
        return {"kind": "table", "values": list(self.values_by_index)}


@dataclass(frozen=True)
class SequenceSpec:
    """The pair of stage rules (levels, window widths)."""

    eta: EtaRule
    n: NRule

    def eta_value(self, i: int) -> Fraction:
        v = self.eta.value(i)
        if not 0 <= v <= 1:
            raise BadEta(f"stage level {v} outside [0,1]")
        return v

    def n_value(self, i: int) -> int:
        v = self.n.value(i)
        if v < 1:
            raise BadN(f"stage width {v} < 1")
        return v

    def settling_index(self, eps) -> int:
        """Least i such that the (raw) level stays <= eps from i on."""
        return self.eta.settling_index(Fraction(eps))

    def n_max(self, i: int) -> int:
        return max(self.n_value(j) for j in range(1, i + 1))

    def to_json_obj(self):
        return {"eta": self.eta.to_json_obj(), "n": self.n.to_json_obj()}


# ---------------------------------------------------------------------------
# finite and staged class handles
# ---------------------------------------------------------------------------

Member = Union[SparseDist, BinaryHypothesis, RealHypothesis]


@dataclass(frozen=True)
class RealTaskContext:
    """Everything the real task needs beyond its members: the pointwise
    loss rule g, and the decoding of bit labels into y-values.

    This is the one place a real-task class keeps its loss rule; risk
    evaluators and learners read it from `FiniteClass.real_ctx`. Data
    atoms are (x, b) with b in {0,1}; b=1 means y = level_value (the
    plateau height g_inverse(eta)), b=0 means y = 0.
    """

    loss: LossRule         # pointwise loss g(|h(x) - y|)
    level_value: Fraction  # g_inverse(eta), in y units

    def y_of_bit(self, b: int) -> Fraction:
        return self.level_value if b else Fraction(0)


class _Ranked(Sequence):
    """Read-only sequence of `size` items; item i is `item_at(i)`, built on
    first access and kept, so reading it again returns the same object.
    A slice builds only the items it holds."""

    def __init__(self, size: int, item_at: Callable[[int], object]):
        self._size = size
        self._item_at = item_at
        self._built: dict = {}

    def __len__(self):
        return self._size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._size))]
        k = operator.index(i)
        if k < 0:
            k += self._size
        if not 0 <= k < self._size:
            raise IndexError(f"index {i} outside 0..{self._size - 1}")
        item = self._built.get(k)
        if item is None:
            item = self._built[k] = self._item_at(k)
        return item

    def __iter__(self):
        return map(self.__getitem__, range(self._size))


class FiniteClass:
    """Finite indexed family with a fixed canonical member order.

    `members` and `labels` may be any sequences. The family constructors
    pass rank-indexed views that build member i and label i on first
    access; consumers that need every member (the Scheffé engine, opt_loss,
    the exact oracles) build them all, and a class of distributions keeps
    their masses in one `mass_table`. `window`, if set, is (W, n): the
    members are one per n-subset of the atoms W, 2n <= |W|, in colex order,
    each with one mass on its n atoms and one mass off W (`anchored_family`)."""

    def __init__(self, task: str, members: Sequence[Member], labels: Optional[Sequence[str]] = None,
                 real_ctx: Optional[RealTaskContext] = None, tag: Optional[str] = None,
                 benchmark: Optional["FiniteClass"] = None, window: Optional[tuple] = None):
        if task not in TASKS:
            raise BadN(f"unknown task {task!r}")
        self.task = task
        self.members = members
        self.labels = labels if labels is not None else _Ranked(len(members), lambda i: f"m{i}")
        self.real_ctx = real_ctx
        self.tag = tag
        # for data-distribution handles: the hypothesis class losses are
        # benchmarked against (defaults to the handle itself)
        self.benchmark = benchmark
        self.window = window
        self._mass_table: Optional[MassTable] = None

    def __len__(self):
        return len(self.members)

    def __getitem__(self, i: int) -> Member:
        return self.members[i]

    def index_of(self, member: Member) -> int:
        return self.members.index(member)

    def mass_table(self) -> MassTable:
        """The members' MassTable, built on the first call and kept; only a
        class of distributions has one."""
        if self._mass_table is None:
            self._mass_table = MassTable(self.members)
        return self._mass_table


def _concat(head, parts: list) -> _Ranked:
    """`head`, then the items of each sequence in `parts`, by rank."""
    # rank of each part's first item; the last entry is the total size
    starts = list(itertools.accumulate(map(len, parts), initial=1))

    def item(k):
        if k == 0:
            return head
        p = bisect.bisect_right(starts, k) - 1
        return parts[p][k - starts[p]]

    return _Ranked(starts[-1], item)


def _masks_of_size(n: int, r: int) -> list:
    """Bitmasks of the r-element subsets of {1..n}, ascending."""
    return sorted(sum(1 << b for b in c) for c in itertools.combinations(range(n), r))


def _mask_to_set(mask: int):
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _set_labels(count: int, mask_of: Callable[[int], int] = int) -> _Ranked:
    """Labels "A=[...]" of the subsets with bitmask mask_of(i)."""
    return _Ranked(count, lambda i: f"A={_mask_to_set(mask_of(i))}")


def _anchor(eta: Fraction, atom) -> tuple:
    """The anchor item (atom, 1 - eta); none at eta = 1, as zero mass is
    never stored."""
    return ((atom, 1 - eta),) if eta < 1 else ()


def _labeled_items(mask: int, width: int, share: Fraction) -> tuple:
    """Items ((x, bit x-1 of mask), share) for x = 1..width, in canonical order."""
    return tuple(((x, mask >> (x - 1) & 1), share) for x in range(1, width + 1))


def anchored_family(eta, n: int, size_filter: Optional[int] = None,
                    budget: int = DEFAULT_MEMBER_BUDGET) -> FiniteClass:
    """Distributions (1-eta)*delta_0 + eta*Uniform(A), A a non-empty subset of {1..n}.

    With size_filter=r only subsets of size exactly r are kept (these
    filtered families are the hard instances the lower-bound harness
    feeds on). Indexed by ascending subset bitmask, which is colex order, so
    with 2r <= n the class declares its window ((1, ..., n), r), which
    lets `ScheffeLearner` select by the support rule.
    """
    eta = Fraction(eta)
    if not 0 < eta <= 1:
        raise BadEta(f"eta={eta} outside (0,1]")
    if n < 1:
        raise BadN(f"n={n} < 1")
    if size_filter is not None and not 1 <= size_filter <= n:
        raise BadN(f"size filter {size_filter} outside 1..{n}")
    count = math.comb(n, size_filter) if size_filter is not None else (1 << n) - 1
    if count > budget:
        raise ClassTooLarge(f"{count} members exceed budget {budget}")
    # member i's subset bitmask: i + 1, or the i-th one of the filtered size
    if size_filter is None:
        mask_of = lambda i: i + 1
    else:
        mask_of = _masks_of_size(n, size_filter).__getitem__
    anchor = _anchor(eta, 0)
    shares = [None] + [eta / k for k in range(1, n + 1)]  # eta/|A|

    def member(i):
        a = _mask_to_set(mask_of(i))
        share = shares[len(a)]
        return SparseDist._trusted(anchor + tuple((x, share) for x in a),
                                   tag=f"anchor(eta={eta},A={a})")

    window = (tuple(range(1, n + 1)), size_filter) if size_filter and 2 * size_filter <= n else None
    return FiniteClass(TASK_DISTRIBUTION, _Ranked(count, member), _set_labels(count, mask_of),
                       tag=f"anchored(eta={eta},n={n},r={size_filter})", window=window)


def labeled_anchored_family(eta, n: int, budget: int = DEFAULT_MEMBER_BUDGET) -> FiniteClass:
    """Labeled-task analog over {1..2n}: anchor at (0,0), each window atom
    carries mass eta/(2n) at its label. One member per labeling, indexed
    by the bitmask of the 1-labeled set."""
    eta = Fraction(eta)
    if not 0 < eta <= 1:
        raise BadEta(f"eta={eta} outside (0,1]")
    if n < 1:
        raise BadN(f"n={n} < 1")
    width = 2 * n
    count = 1 << width
    if count > budget:
        raise ClassTooLarge(f"2^{width} members exceed budget {budget}")
    anchor = _anchor(eta, (0, 0))
    share = eta / width

    def member(mask):
        return SparseDist._trusted(anchor + _labeled_items(mask, width, share),
                                   tag=f"labels(eta={eta},mask={mask})")

    labels = _Ranked(count, lambda mask: f"ones={_mask_to_set(mask)}")
    return FiniteClass(TASK_CLASSIFICATION, _Ranked(count, member), labels,
                       tag=f"labeled(eta={eta},n={n})")


def plateau_family(loss, eta, n: int, budget: int = DEFAULT_MEMBER_BUDGET) -> FiniteClass:
    """Real-valued hypotheses: value g_inverse(eta) on A, zero elsewhere,
    over all A within {1..n} (empty A gives the all-zero hypothesis)."""
    eta = Fraction(eta)
    if eta < 0 or eta > loss.g_max:
        raise EtaAboveGmax(f"eta={eta} above attainable loss {loss.g_max}")
    if n < 1:
        raise BadN(f"n={n} < 1")
    count = 1 << n
    if count > budget:
        raise ClassTooLarge(f"2^{n} members exceed budget {budget}")
    height = loss.g_inverse(eta)

    def member(mask):
        if not mask:
            return ALL_ZERO_REAL
        return RealHypothesis(tuple((x, height) for x in _mask_to_set(mask)))

    ctx = RealTaskContext(loss, height)
    return FiniteClass(TASK_REAL, _Ranked(count, member), _set_labels(count), real_ctx=ctx,
                       tag=f"plateau(eta={eta},n={n})")


def plateau_data_family(loss, eta, n: int, budget: int = DEFAULT_MEMBER_BUDGET) -> FiniteClass:
    """Realizable data distributions for the real task: marginal uniform on
    {1..n}, labels from the plateau hypothesis of each subset A; bit 1
    encodes y = g_inverse(eta). Used by the lower-bound harness."""
    hyps = plateau_family(loss, eta, n, budget=budget)
    w = Fraction(1, n)

    def member(mask):
        return SparseDist._trusted(_labeled_items(mask, n, w),
                                   tag=f"plateau-data({hyps.labels[mask]})")

    return FiniteClass(TASK_REAL, _Ranked(len(hyps), member), hyps.labels,
                       real_ctx=hyps.real_ctx, tag=f"plateau-data(eta={eta},n={n})",
                       benchmark=hyps)


class StagedClass:
    """Countable union of anchored stages; members materialize on demand.

    Full enumeration is only permitted after `truncate`, because stage
    sizes grow exponentially in the window width.
    """

    def __init__(self, task: str, spec: SequenceSpec, loss=None):
        if task not in TASKS:
            raise BadN(f"unknown task {task!r}")
        if task == TASK_REAL and loss is None:
            raise EtaAboveGmax("real-valued staged union needs a loss rule")
        self.task = task
        self.spec = spec
        self.loss = loss

    def stage_params(self, i: int):
        eta = self.spec.eta_value(i)
        n = self.spec.n_value(i)
        if self.task == TASK_REAL and eta > self.loss.g_max:
            raise EtaAboveGmax(f"stage {i} level {eta} above g_max {self.loss.g_max}")
        return eta, n

    def stage_size(self, i: int) -> int:
        _, n = self.stage_params(i)
        if self.task == TASK_DISTRIBUTION:
            return (1 << n) - 1
        if self.task == TASK_CLASSIFICATION:
            return 1 << (2 * n)
        return 1 << n

    def stage(self, i: int, budget: int = DEFAULT_MEMBER_BUDGET) -> FiniteClass:
        eta, n = self.stage_params(i)
        if self.task == TASK_DISTRIBUTION:
            fam = anchored_family(eta, n, budget=budget)
        elif self.task == TASK_CLASSIFICATION:
            fam = labeled_anchored_family(eta, n, budget=budget)
        else:
            fam = plateau_family(self.loss, eta, n, budget=budget)
        labels = fam.labels
        fam.labels = _Ranked(len(labels), lambda j: f"stage{i}/{labels[j]}")
        return fam

    def base_member(self) -> Member:
        """The degenerate member a truncated class is padded with."""
        if self.task == TASK_DISTRIBUTION:
            return delta(0, tag="anchor")
        if self.task == TASK_CLASSIFICATION:
            return delta((0, 0), tag="anchor")
        return ALL_ZERO_REAL

    def truncate(self, eps, budget: int = DEFAULT_MEMBER_BUDGET) -> FiniteClass:
        """Finite eps/4-approximation: the base member plus all stages up to
        the settling index of eps/4. Every member of a later stage sits
        within level <= eps/4 of the base member."""
        eps = Fraction(eps)
        cutoff = self.spec.settling_index(eps / 4)
        total = 1 + sum(self.stage_size(i) for i in range(1, cutoff + 1))
        if total > budget:
            raise ClassTooLarge(f"truncation at stage {cutoff} has {total} members, budget {budget}")
        stages = [self.stage(i, budget=budget) for i in range(1, cutoff + 1)]
        return FiniteClass(self.task, _concat(self.base_member(), [f.members for f in stages]),
                           _concat("base", [f.labels for f in stages]),
                           real_ctx=stages[0].real_ctx,
                           tag=f"truncate(eps={eps},stages=1..{cutoff})")

    def to_json_obj(self):
        return {"task": self.task, "spec": self.spec.to_json_obj()}
