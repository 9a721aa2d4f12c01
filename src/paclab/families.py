"""Parametric distribution and hypothesis families, and their staged unions.

The building block is an "anchored" family: most of the mass sits on an
anchor atom (0, or (0,0) for the labeled task) and a small level eta is
spread uniformly over a subset of a finite window. Families are indexed
by subset bitmasks so that members have a canonical order: ascending
bitmask value, which every tie-breaking rule downstream refers to.

A staged union strings countably many such families along a pair of
rules (eta per stage, window width per stage) and supports truncation
to a finite prefix once the eta rule is certified to settle below a
target level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .dist import SparseDist, delta, frac_str, mixture, uniform
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


class FiniteClass:
    """Finite indexed family with a fixed canonical member order."""

    def __init__(self, task: str, members: Sequence[Member], labels: Optional[Sequence[str]] = None,
                 real_ctx: Optional[RealTaskContext] = None, tag: Optional[str] = None,
                 benchmark: Optional["FiniteClass"] = None):
        if task not in TASKS:
            raise BadN(f"unknown task {task!r}")
        self.task = task
        self.members = list(members)
        self.labels = list(labels) if labels is not None else [f"m{i}" for i in range(len(members))]
        self.real_ctx = real_ctx
        self.tag = tag
        # for data-distribution handles: the hypothesis class losses are
        # benchmarked against (defaults to the handle itself)
        self.benchmark = benchmark

    def __len__(self):
        return len(self.members)

    def __getitem__(self, i: int) -> Member:
        return self.members[i]

    def index_of(self, member: Member) -> int:
        return self.members.index(member)


def _subset_bitmasks(n: int, size_filter: Optional[int]):
    """Non-empty subset bitmasks of {1..n}, all or only those of one size."""
    if size_filter is not None:
        masks = []
        for mask in range(1 << n):
            if mask.bit_count() == size_filter:
                masks.append(mask)
        return masks
    return list(range(1, 1 << n))


def _mask_to_set(mask: int):
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def anchored_family(eta, n: int, size_filter: Optional[int] = None,
                    budget: int = DEFAULT_MEMBER_BUDGET) -> FiniteClass:
    """Distributions (1-eta)*delta_0 + eta*Uniform(A), A a non-empty subset of {1..n}.

    With size_filter=r only subsets of size exactly r are kept (these
    filtered families are the hard instances the lower-bound harness
    feeds on). Indexed by ascending subset bitmask.
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
    members, labels = [], []
    for mask in _subset_bitmasks(n, size_filter):
        a = _mask_to_set(mask)
        members.append(mixture([(1 - eta, delta(0)), (eta, uniform(a))],
                               tag=f"anchor(eta={eta},A={a})"))
        labels.append(f"A={a}")
    return FiniteClass(TASK_DISTRIBUTION, members, labels, tag=f"anchored(eta={eta},n={n},r={size_filter})")


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
    if (1 << width) > budget:
        raise ClassTooLarge(f"2^{width} members exceed budget {budget}")
    per_atom = eta / width
    members, labels = [], []
    for mask in range(1 << width):
        pmf = {(0, 0): 1 - eta}
        for x in range(1, width + 1):
            b = mask >> (x - 1) & 1
            pmf[(x, b)] = pmf.get((x, b), Fraction(0)) + per_atom
        members.append(SparseDist(pmf, tag=f"labels(eta={eta},mask={mask})"))
        labels.append(f"ones={_mask_to_set(mask)}")
    return FiniteClass(TASK_CLASSIFICATION, members, labels, tag=f"labeled(eta={eta},n={n})")


def plateau_family(loss, eta, n: int, budget: int = DEFAULT_MEMBER_BUDGET) -> FiniteClass:
    """Real-valued hypotheses: value g_inverse(eta) on A, zero elsewhere,
    over all A within {1..n} (empty A gives the all-zero hypothesis)."""
    eta = Fraction(eta)
    if eta < 0 or eta > loss.g_max:
        raise EtaAboveGmax(f"eta={eta} above attainable loss {loss.g_max}")
    if n < 1:
        raise BadN(f"n={n} < 1")
    if (1 << n) > budget:
        raise ClassTooLarge(f"2^{n} members exceed budget {budget}")
    height = loss.g_inverse(eta)
    members, labels = [], []
    for mask in range(1 << n):
        a = _mask_to_set(mask)
        members.append(RealHypothesis(tuple((x, height) for x in a)) if a else ALL_ZERO_REAL)
        labels.append(f"A={a}")
    ctx = RealTaskContext(loss, height)
    return FiniteClass(TASK_REAL, members, labels, real_ctx=ctx,
                       tag=f"plateau(eta={eta},n={n})")


def plateau_data_family(loss, eta, n: int, budget: int = DEFAULT_MEMBER_BUDGET) -> FiniteClass:
    """Realizable data distributions for the real task: marginal uniform on
    {1..n}, labels from the plateau hypothesis of each subset A; bit 1
    encodes y = g_inverse(eta). Used by the lower-bound harness."""
    hyps = plateau_family(loss, eta, n, budget=budget)
    members, labels = [], []
    w = Fraction(1, n)
    for h, lab in zip(hyps.members, hyps.labels):
        ones = {x for x, _ in h.values}
        pmf = {(x, 1 if x in ones else 0): w for x in range(1, n + 1)}
        members.append(SparseDist(pmf, tag=f"plateau-data({lab})"))
        labels.append(lab)
    return FiniteClass(TASK_REAL, members, labels, real_ctx=hyps.real_ctx,
                       tag=f"plateau-data(eta={eta},n={n})", benchmark=hyps)


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
        fam.labels = [f"stage{i}/{lab}" for lab in fam.labels]
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
        members = [self.base_member()]
        labels = ["base"]
        ctx = None
        for i in range(1, cutoff + 1):
            fam = self.stage(i, budget=budget)
            members.extend(fam.members)
            labels.extend(fam.labels)
            ctx = ctx or fam.real_ctx
        return FiniteClass(self.task, members, labels, real_ctx=ctx,
                           tag=f"truncate(eps={eps},stages=1..{cutoff})")

    def to_json_obj(self):
        return {"task": self.task, "spec": self.spec.to_json_obj()}
