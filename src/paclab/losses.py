"""Loss rules and exact task-loss evaluators.

Three tasks, three evaluators:
  distribution    -> total variation to the target distribution
  classification  -> 0/1 risk, and excess risk over the Bayes labeler
  real-valued     -> expected g(|h(x) - y|) for a pointwise loss rule g

All evaluators return exact rationals. The one place irrationals could
enter (the square-root inverse of the squared loss) is pinned to a
dyadic approximation rounded so that g(stored) <= requested level; that
keeps "risk of the zero hypothesis <= level" an exact inequality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .dist import SparseDist, tv
from .errors import BadRange, EtaAboveGmax
from .families import (
    BinaryHypothesis,
    FiniteClass,
    RealHypothesis,
    RealTaskContext,
    TASK_CLASSIFICATION,
    TASK_DISTRIBUTION,
    TASK_REAL,
)

DYADIC_BITS = 40  # resolution of stored irrational inverse values
BAYES_RISK_CACHE_SIZE = 1024  # most distributions whose Bayes risk is remembered


class LossRule:
    """Pointwise loss g(|h(x)-y|) with g(0)=0 and g positive somewhere."""

    g_max = Fraction(1)  # min(sup_{a>0} g(a), 1): the largest usable level

    def g(self, t: Fraction) -> Fraction:
        raise NotImplementedError

    def g_inverse(self, y) -> Fraction:
        """Least t >= 0 with g(t) = y, for a level y in [0, g_max]: y itself,
        for the rules that are the identity there. A rule that is not
        overrides this, range-checking through it first."""
        y = Fraction(y)
        if not 0 <= y <= self.g_max:
            raise EtaAboveGmax(f"level {y} outside [0, {self.g_max}]")
        return y


class AbsoluteLoss(LossRule):
    def g(self, t: Fraction) -> Fraction:
        return abs(Fraction(t))


class SquaredLoss(LossRule):
    def g(self, t: Fraction) -> Fraction:
        t = Fraction(t)
        return t * t

    def g_inverse(self, y) -> Fraction:
        # floor(sqrt(y) * 2^B) / 2^B, so g(value) <= y exactly.
        y = super().g_inverse(y)
        scale = 1 << DYADIC_BITS
        num = y.numerator * scale * scale
        root = math.isqrt(num // y.denominator)
        return Fraction(root, scale)


@dataclass(frozen=True)
class CappedLinearLoss(LossRule):
    cap: Fraction

    @property
    def g_max(self) -> Fraction:
        return min(Fraction(self.cap), Fraction(1))

    def g(self, t: Fraction) -> Fraction:
        return min(abs(Fraction(t)), Fraction(self.cap))


# ---------------------------------------------------------------------------
# exact evaluators
# ---------------------------------------------------------------------------

def zero_one_risk(h: BinaryHypothesis, p: SparseDist) -> Fraction:
    """Pr_{(x,y)~p}[h(x) != y], exact."""
    out = Fraction(0)
    for atom, mass in p.items:
        x, y = atom
        if h(x) != y:
            out += mass
    return out


def bayes_labeler(p: SparseDist) -> BinaryHypothesis:
    """Label each point by its more likely label; ties go to 0."""
    mass1, mass0 = {}, {}
    for atom, mass in p.items:
        x, y = atom
        (mass1 if y == 1 else mass0)[x] = (mass1 if y == 1 else mass0).get(x, Fraction(0)) + mass
    ones = [x for x in mass1 if mass1[x] > mass0.get(x, Fraction(0))]
    return BinaryHypothesis.from_set(ones)


@functools.lru_cache(maxsize=BAYES_RISK_CACHE_SIZE)
def bayes_risk(p: SparseDist) -> Fraction:
    """The Bayes labeler's risk on p, remembered per distribution: every
    trial against one target scores against the same floor."""
    return zero_one_risk(bayes_labeler(p), p)


def zero_one_excess(h: BinaryHypothesis, p: SparseDist) -> Fraction:
    """Risk of h beyond the Bayes labeler's risk."""
    return zero_one_risk(h, p) - bayes_risk(p)


def real_risk(ctx: RealTaskContext, h: RealHypothesis, p: SparseDist) -> Fraction:
    """E_{(x,b)~p} g(|h(x) - y(b)|), with the loss rule g and the bit-label
    decoding both read from ctx."""
    out = Fraction(0)
    for atom, mass in p.items:
        x, b = atom
        out += mass * ctx.loss.g(abs(h(x) - ctx.y_of_bit(b)))
    return out


def task_loss(cls: FiniteClass, out, target: SparseDist) -> Fraction:
    """Uniform entry point: loss of a learner output against a target, by
    the class's task. For the real task the loss rule lives in the class's
    context, `cls.real_ctx`."""
    task = cls.task
    if task == TASK_DISTRIBUTION:
        return tv(out, target)
    if task == TASK_CLASSIFICATION:
        return zero_one_excess(out, target)
    if task == TASK_REAL:
        if cls.real_ctx is None:
            raise BadRange("real task loss needs a task context")
        return real_risk(cls.real_ctx, out, target)
    raise BadRange(f"unknown task {task!r}")


def opt_loss(cls: FiniteClass, target: SparseDist) -> Tuple[Fraction, int]:
    """Least loss over the class against the target, with the witness index
    (the first one on ties)."""
    best, best_i = None, -1
    for i, member in enumerate(cls.members):
        val = task_loss(cls, member, target)
        if best is None or val < best:
            best, best_i = val, i
    if best is None:
        raise BadRange("opt over an empty class")
    return best, best_i


def hypotheses_of_class(cls: FiniteClass) -> list:
    """The Bayes labeler of each member of a class of labeled distributions.
    Duplicates are dropped, keeping the first (lowest-index) occurrence."""
    return list(dict.fromkeys(bayes_labeler(member) for member in cls.members))
