"""Lower-bound harness: exact enumeration oracles, the support-swap
pairing, symmetrized lower bounds, Monte Carlo risk, and empirical
sample-complexity search.

The engine of the exact oracle is a measure-preserving involution on
family members: it fixes exactly the atoms observed in a sample and
swaps the rest of the support, so a sample cannot tell a member from
its partner while the two sit far apart. Summing the pair distances,
weighted by exact sample likelihoods, certifies a floor under every
learner's class-average error.

One wrinkle is forced by parity: on slices {A : C subset A, |A| = n} of
odd cardinality no within-window perfect disjoint matching exists, so
the canonical matching pairs each stranded set with a block of fresh
atoms just above the window. All pairing contract properties
(cardinality, intersection, involution) and exact measure preservation
still hold; the partner merely lies outside the family. The reported
bound keeps a factor 1/2 of the chain value, which at every shipped
instance leaves it below the fully within-family certified floor
(asserted exactly in the tests).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .dist import Sample, SparseDist, delta, draw, frac_str, mixture, sequence_prob, uniform
from .errors import (
    BadPrecondition,
    BadRange,
    EmptyClass,
    EmptyEstimate,
    EnumerationBudgetExceeded,
    SearchBoundExceeded,
)
from .families import (
    FiniteClass,
    TASK_CLASSIFICATION,
    TASK_DISTRIBUTION,
    TASK_REAL,
    anchored_family,
    labeled_anchored_family,
    plateau_data_family,
)
from .learners import Learner
from .losses import LossRule, opt_loss, task_loss
from .rng import RngStream

DEFAULT_ENUM_BUDGET = 10_000_000
# Slice matchings kept, one per (window, fixed set, size): all 299 slices
# of an n=3 distribution instance fit, so exhaustive sweeps do not thrash.
MATCHING_CACHE_SIZE = 1024


# ---------------------------------------------------------------------------
# support-swap pairing
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=MATCHING_CACHE_SIZE)
def _slice_matching(base: int, fixed: frozenset, size: int) -> dict:
    """Canonical matching of {D : D in window minus fixed, |D| = p} into
    disjoint pairs, p = size - |fixed|.

    Greedy over lexicographic order: each unmatched set pairs with the
    first later unmatched set disjoint from it. Parity (or greedy)
    strandings get fresh overflow blocks above the window, one block per
    stranded set, keeping the map an involution with empty overlaps.
    """
    p = size - len(fixed)
    free = [x for x in range(1, base + 1) if x not in fixed]
    subsets = [frozenset(c) for c in itertools.combinations(free, p)]
    match: dict = {}
    for i, d in enumerate(subsets):
        if d in match:
            continue
        for d2 in subsets[i + 1:]:
            if d2 not in match and not (d & d2):
                match[d] = d2
                match[d2] = d
                break
    overflow_next = base + 1
    for d in subsets:
        if d not in match:
            block = frozenset(range(overflow_next, overflow_next + p))
            overflow_next += p
            match[d] = block
            match[block] = d
    return match


def swap_set(base: int, fixed, a) -> frozenset:
    """Partner of the set `a` under the canonical involution fixing `fixed`.

    Contract: |swap(a)| = |a|, a & swap(a) = fixed, swap(swap(a)) = a.
    `a` must contain `fixed` and lie inside the window {1..base} (or be
    an overflow partner produced by this very map); |a| <= base/2.
    """
    fixed = frozenset(fixed)
    a = frozenset(a)
    if not fixed <= a:
        raise BadPrecondition(f"fixed atoms {sorted(fixed)} not inside {sorted(a)}")
    if 2 * len(a) > base:
        raise BadPrecondition(f"|A|={len(a)} exceeds half the window {base}")
    if not fixed <= frozenset(range(1, base + 1)):
        raise BadPrecondition("fixed atoms outside the window")
    d = a - fixed
    if not (all(1 <= x <= base for x in d) or all(x > base for x in d)):
        raise BadPrecondition(f"{sorted(a)} mixes window and overflow atoms")
    partner = _slice_matching(base, fixed, len(a)).get(d)
    if partner is None:
        raise BadPrecondition(f"{sorted(a)} is not a valid set for this pairing")
    return frozenset(fixed | partner)


def observed_atoms(task: str, seq: Sequence, base: int) -> frozenset:
    """Distinct non-anchor window points appearing in a sample sequence."""
    if task == TASK_DISTRIBUTION:
        return frozenset(x for x in seq if isinstance(x, int) and 1 <= x <= base)
    return frozenset(x for (x, _b) in seq if 1 <= x <= base)


def swap_distribution(base: int, seq: Sequence, member: SparseDist) -> SparseDist:
    """Measure-preserving partner of an anchored-family member.

    If some observed atom lies outside the member's support window, the
    partner is the escape point mass just above the window (the member
    assigns such samples likelihood zero, and so does the escape)."""
    anchor_mass = member.prob(0)
    eta = 1 - anchor_mass
    support = frozenset(x for x in member.support() if x != 0)
    fixed = observed_atoms(TASK_DISTRIBUTION, seq, base)
    if not fixed <= support:
        return delta(base + 1, tag="escape")
    partner = swap_set(base, fixed, support)
    return mixture([(anchor_mass, delta(0)), (eta, uniform(sorted(partner)))],
                   tag=f"swap({member.tag})")


def _flip_mask(mask: int, width: int, fixed: frozenset) -> int:
    flip = 0
    for x in range(1, width + 1):
        if x not in fixed:
            flip |= 1 << (x - 1)
    return mask ^ flip


def swap_labeling_index(width: int, seq: Sequence, index: int) -> int:
    """Partner index for labeled families: flip every label off the
    observed points. Relies on member index == labeling bitmask, which
    holds for the family constructors in paclab.families."""
    fixed = observed_atoms(TASK_CLASSIFICATION, seq, width)
    return _flip_mask(index, width, fixed)


# ---------------------------------------------------------------------------
# hard instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NflInstance:
    """A family prepared for the lower-bound machinery."""

    task: str
    eta: Fraction
    window: int               # distribution: base = 4n; labeled tasks: width
    set_size: Optional[int]   # distribution only: the support-size filter n
    family: FiniteClass


def nfl_distribution_instance(eta, n: int, budget: int = 1 << 20) -> NflInstance:
    """Anchored members with |A| = n inside a window of 4n points."""
    eta = Fraction(eta)
    fam = anchored_family(eta, 4 * n, size_filter=n, budget=budget)
    return NflInstance(TASK_DISTRIBUTION, eta, 4 * n, n, fam)


def nfl_classification_instance(eta, n: int, budget: int = 1 << 20) -> NflInstance:
    """All labelings of a 2n-point window under an anchored marginal."""
    eta = Fraction(eta)
    fam = labeled_anchored_family(eta, n, budget=budget)
    return NflInstance(TASK_CLASSIFICATION, eta, 2 * n, None, fam)


def nfl_real_instance(loss: LossRule, eta, width: int, budget: int = 1 << 20) -> NflInstance:
    """Realizable plateau-data family over a uniform window of `width` points."""
    eta = Fraction(eta)
    fam = plateau_data_family(loss, eta, width, budget=budget)
    return NflInstance(TASK_REAL, eta, width, None, fam)


def instance_alphabet(inst: NflInstance) -> list:
    if inst.task == TASK_DISTRIBUTION:
        return list(range(0, inst.window + 1))
    atoms = [(x, b) for x in range(1, inst.window + 1) for b in (0, 1)]
    if inst.task == TASK_CLASSIFICATION:
        return [(0, 0)] + atoms
    return atoms


def pair_distance(inst: NflInstance, member_index: int, fixed: frozenset) -> Fraction:
    """Distance between a member and its swap partner given the observed
    atoms: exact TV for distributions; for the labeled tasks the exact
    minimum, over any single output, of the pair's summed losses, which
    is eta times the unobserved window fraction."""
    if inst.task == TASK_DISTRIBUTION:
        member = inst.family[member_index]
        support = frozenset(x for x in member.support() if x != 0)
        if not fixed <= support:
            return Fraction(0)
        return inst.eta * Fraction(len(support - fixed), inst.set_size)
    return inst.eta * Fraction(inst.window - len(fixed), inst.window)


def swap_member_index(inst: NflInstance, member_index: int, seq: Sequence) -> Optional[int]:
    """Index of the swap partner inside the family, or None if the partner
    left the family (overflow pairing or escape)."""
    if inst.task == TASK_DISTRIBUTION:
        partner = swap_distribution(inst.window, seq, inst.family[member_index])
        try:
            return inst.family.index_of(partner)
        except ValueError:
            return None
    return swap_labeling_index(inst.window, seq, member_index)


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------

def _check_enum_budget(inst: NflInstance, m: int, budget: int):
    if m < 0:
        raise BadRange(f"sample size m={m} is negative")
    size = len(inst.family)
    support = max(len(p.support()) for p in inst.family.members)
    alphabet = len(instance_alphabet(inst))
    weight = max(size * support ** m, alphabet ** m)
    if weight > budget:
        raise EnumerationBudgetExceeded(
            f"{size} members x {support}^{m} sequences (alphabet {alphabet}^{m}) "
            f"= {weight} weighted pairs > budget {budget}")


def symmetrized_lower_bound(inst: NflInstance, m: int,
                            budget: int = DEFAULT_ENUM_BUDGET) -> Fraction:
    """Exact symmetrized floor under every learner's class-average error.

    Averages over flip pairs, and over all length-m sequences weighted
    by exact sample likelihood, half the member-to-partner distance:
    (1/(4T)) * sum over members i, sequences S of P_i^m(S) * dist(i, S).
    """
    _check_enum_budget(inst, m, budget)
    total = Fraction(0)
    for i, member in enumerate(inst.family.members):
        for seq in itertools.product(member.support(), repeat=m):
            w = sequence_prob(member, seq)
            fixed = observed_atoms(inst.task, seq, inst.window)
            total += w * pair_distance(inst, i, fixed)
    return total / (4 * len(inst.family))


@dataclass
class LearnerReport:
    name: str
    per_member_mean: List[Fraction]
    class_average: Fraction
    class_max: Fraction
    tails: Dict[Fraction, List[Fraction]]  # threshold -> per-member tail prob

    def to_json_obj(self):
        return {
            "name": self.name,
            "per_member_mean": [frac_str(v) for v in self.per_member_mean],
            "class_average": frac_str(self.class_average),
            "class_average_decimal": format(float(self.class_average), ".12g"),
            "class_max": frac_str(self.class_max),
            "tails": {frac_str(a): [frac_str(v) for v in vals] for a, vals in self.tails.items()},
        }


@dataclass
class ExactOracleReport:
    task: str
    eta: Fraction
    window: int
    set_size: Optional[int]
    m: int
    family_size: int
    symmetrized_bound: Fraction
    thresholds: List[Fraction]
    learners: List[LearnerReport]
    reference_lines: Dict[str, Fraction] = field(default_factory=dict)

    def to_json_obj(self):
        return {
            "task": self.task,
            "eta": frac_str(self.eta),
            "window": self.window,
            "set_size": self.set_size,
            "m": self.m,
            "family_size": self.family_size,
            "symmetrized_bound": frac_str(self.symmetrized_bound),
            "symmetrized_bound_decimal": format(float(self.symmetrized_bound), ".12g"),
            "thresholds": [frac_str(a) for a in self.thresholds],
            "reference_lines": {k: frac_str(v) for k, v in self.reference_lines.items()},
            "learners": [lr.to_json_obj() for lr in self.learners],
        }


def nfl_exact(inst: NflInstance, learners: Sequence[Learner], m: int,
              thresholds: Optional[Sequence] = None,
              budget: int = DEFAULT_ENUM_BUDGET) -> ExactOracleReport:
    """Exact per-member risk of each learner by full enumeration of all
    length-m sequences with exact likelihood weights.

    Learner outputs are computed once per sequence and shared across
    members; summation runs in sequence-index order, so the exact
    rational totals are reproducible however the work is partitioned.
    """
    _check_enum_budget(inst, m, budget)
    eta = inst.eta
    if thresholds is None:
        thresholds = [eta / 8]
    thresholds = [Fraction(a) for a in thresholds]
    alphabet = instance_alphabet(inst)
    reports = []
    for learner in learners:
        outs = {seq: learner.run(Sample(seq))
                for seq in itertools.product(alphabet, repeat=m)}
        loss_cache: dict = {}
        means, tail_lists = [], {a: [] for a in thresholds}
        for i, member in enumerate(inst.family.members):
            mean = Fraction(0)
            tail = {a: Fraction(0) for a in thresholds}
            for seq in itertools.product(member.support(), repeat=m):
                w = sequence_prob(member, seq)
                out = outs[seq]
                key = (i, out)
                err = loss_cache.get(key)
                if err is None:
                    err = task_loss(inst.family, out, member)
                    loss_cache[key] = err
                mean += w * err
                for a in thresholds:
                    if err >= a:
                        tail[a] += w
            means.append(mean)
            for a in thresholds:
                tail_lists[a].append(tail[a])
        size = len(inst.family)
        reports.append(LearnerReport(
            name=learner.name,
            per_member_mean=means,
            class_average=sum(means, Fraction(0)) / size,
            class_max=max(means),
            tails=tail_lists,
        ))
    bound = symmetrized_lower_bound(inst, m, budget=budget)
    return ExactOracleReport(
        task=inst.task, eta=eta, window=inst.window, set_size=inst.set_size,
        m=m, family_size=len(inst.family),
        symmetrized_bound=bound, thresholds=thresholds, learners=reports,
        reference_lines={
            "eta_over_4": eta / 4,
            "eta_over_8": eta / 8,
            "reference_delta": Fraction(1, 7),
            "markov_delta": markov_reverse(eta / 4, eta / 8),
        },
    )


def markov_reverse(mean, a) -> Fraction:
    """Floor on Pr[Z >= a] for Z in [0,1] with E[Z] = mean: (mean-a)/(1-a),
    clamped below at zero."""
    mean, a = Fraction(mean), Fraction(a)
    if not 0 <= a < 1:
        raise BadRange(f"threshold {a} outside [0,1)")
    if not 0 <= mean <= 1:
        raise BadRange(f"mean {mean} outside [0,1]")
    return max(Fraction(0), (mean - a) / (1 - a))


# ---------------------------------------------------------------------------
# Clopper-Pearson intervals
# ---------------------------------------------------------------------------

def _binom_cdf(x: int, n: int, p: float) -> float:
    """P[X <= x] for X ~ Binom(n, p), via log-space terms."""
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 1.0 if x >= n else 0.0
    lp, lq = math.log(p), math.log1p(-p)
    total = 0.0
    for k in range(0, x + 1):
        lt = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
              + k * lp + (n - k) * lq)
        total += math.exp(lt)
    return min(total, 1.0)


def clopper_pearson_upper(failures: int, trials: int, alpha: float = 0.05) -> float:
    """Upper endpoint of the two-sided (1-alpha) interval for a proportion."""
    if trials <= 0:
        raise EmptyEstimate("no trials")
    if failures >= trials:
        return 1.0
    target = alpha / 2
    lo, hi = failures / trials, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if _binom_cdf(failures, trials, mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def clopper_pearson_lower(failures: int, trials: int, alpha: float = 0.05) -> float:
    if trials <= 0:
        raise EmptyEstimate("no trials")
    if failures <= 0:
        return 0.0
    target = alpha / 2
    lo, hi = 0.0, failures / trials
    for _ in range(60):
        mid = (lo + hi) / 2
        if 1.0 - _binom_cdf(failures - 1, trials, mid) > target:
            hi = mid
        else:
            lo = mid
    return lo


def max_certifiable_failures(trials: int, delta: float, alpha: float = 0.05) -> int:
    """Largest failure count whose 95% CP upper bound still fits under delta
    (-1 if even zero failures cannot certify)."""
    lo, hi = -1, trials
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if clopper_pearson_upper(mid, trials, alpha) <= delta:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Monte Carlo risk and sample-complexity search
# ---------------------------------------------------------------------------

@dataclass
class McMemberStat:
    member_index: int
    trials: int
    mean_error: float
    failures: int
    threshold: Fraction
    ci_low: float
    ci_high: float

    def to_json_obj(self):
        return {
            "member_index": self.member_index,
            "trials": self.trials,
            "mean_error": format(self.mean_error, ".12g"),
            "failures": self.failures,
            "threshold": frac_str(self.threshold),
            "ci_low": format(self.ci_low, ".12g"),
            "ci_high": format(self.ci_high, ".12g"),
        }


def mc_risk(cls: FiniteClass, learner: Learner, m: int, trials: int, rng: RngStream,
            threshold, member_indices: Optional[Sequence[int]] = None) -> List[McMemberStat]:
    """Monte Carlo stand-in for the exact oracle beyond the enumeration
    budget: per-member empirical mean error and failure frequency (error
    >= threshold) with two-sided 95% Clopper-Pearson intervals. Trial t
    of member i uses substream (i, t), so results do not depend on
    scheduling."""
    if trials <= 0:
        raise EmptyEstimate("mc_risk needs at least one trial")
    threshold = Fraction(threshold)
    indices = list(member_indices) if member_indices is not None else list(range(len(cls)))
    stats = []
    for i in indices:
        target = cls.members[i]
        total = 0.0
        failures = 0
        for t in range(trials):
            sample = draw(target, m, rng.child(i, t))
            err = task_loss(cls, learner.run(sample), target)
            total += float(err)
            if err >= threshold:
                failures += 1
        stats.append(McMemberStat(
            member_index=i, trials=trials, mean_error=total / trials,
            failures=failures, threshold=threshold,
            ci_low=clopper_pearson_lower(failures, trials),
            ci_high=clopper_pearson_upper(failures, trials),
        ))
    return stats


@dataclass
class CurvePoint:
    k: Optional[int]
    eps: Fraction
    delta: Fraction
    m_hat: int
    trials: int
    worst_failures: int
    worst_ucb: float
    targets_tested: int

    def to_json_obj(self):
        return {
            "k": self.k,
            "epsilon": frac_str(self.eps),
            "delta": frac_str(self.delta),
            "m_hat": self.m_hat,
            "trials": self.trials,
            "worst_failures": self.worst_failures,
            "worst_ucb": format(self.worst_ucb, ".12g"),
            "targets_tested": self.targets_tested,
        }


@dataclass
class ComplexityCurve:
    points: List[CurvePoint]

    def to_csv(self) -> str:
        lines = ["k,epsilon,delta,m_hat,trials,failures,ucb"]
        for p in self.points:
            lines.append(",".join([
                "" if p.k is None else str(p.k),
                frac_str(p.eps),
                frac_str(p.delta),
                str(p.m_hat), str(p.trials), str(p.worst_failures),
                format(p.worst_ucb, ".12g"),
            ]))
        return "\n".join(lines) + "\n"


def _guarantee(cls: FiniteClass, target: SparseDist, eps: Fraction,
               agnostic_factor: int) -> Fraction:
    if cls.task == TASK_CLASSIFICATION:
        return eps  # excess risk already nets out the best labeler
    bench = cls.benchmark if cls.benchmark is not None else cls
    opt, _ = opt_loss(bench, target)
    return agnostic_factor * opt + eps


def _level_certifies(cls, learner, targets, m, trials, eps, delta, rng, max_fail):
    """Run one grid level; (passed, worst_failures, worst_ucb over targets)."""
    worst_fail, worst_ucb = 0, 0.0
    for t_idx in targets:
        target = cls.members[t_idx]
        bar = _guarantee(cls, target, eps, learner.agnostic_factor)
        failures = 0
        for t in range(trials):
            sample = draw(target, m, rng.child(m, t_idx, t))
            err = task_loss(cls, learner.run(sample), target)
            if err > bar:
                failures += 1
                if failures > max_fail:
                    # cannot certify even if every remaining trial succeeds
                    return False, failures, clopper_pearson_upper(failures, trials)
        worst_fail = max(worst_fail, failures)
        worst_ucb = max(worst_ucb, clopper_pearson_upper(failures, trials))
    return True, worst_fail, worst_ucb


def estimate_sample_complexity(cls: FiniteClass, learner: Learner, eps, delta,
                               rng: RngStream, trials: int = 200,
                               m_min: int = 1, m_max: int = 1024,
                               targets_cap: int = 64,
                               k: Optional[int] = None) -> CurvePoint:
    """Smallest m on a doubling-then-bisection grid at which, for every
    tested target, the 95% Clopper-Pearson upper bound on
    Pr[error > guarantee(eps)] is <= delta.

    Guarantee: 3*opt + eps for TV, excess eps over the best labeler for
    classification, opt + eps for the pointwise-loss task. Tests every
    member as a target when the class has at most `targets_cap` members,
    else a seeded subset of that size; the result is the max over tested
    targets.
    """
    eps, delta = Fraction(eps), Fraction(delta)
    if len(cls) == 0:
        raise EmptyClass("no targets")
    max_fail = max_certifiable_failures(trials, float(delta))
    if max_fail < 0:
        raise SearchBoundExceeded(
            f"{trials} trials can never certify delta={delta}", 0,
            detail={"reason": "trials too few for delta"})
    if len(cls) <= targets_cap:
        targets = list(range(len(cls)))
    else:
        gen = rng.child(917).generator()
        targets = sorted(gen.sample(range(len(cls)), targets_cap))

    m = max(1, m_min)
    certified = None
    last_failed = 0
    while m <= m_max:
        ok, fails, ucb = _level_certifies(cls, learner, targets, m, trials,
                                          eps, delta, rng, max_fail)
        if ok:
            certified = (m, fails, ucb)
            break
        last_failed = m
        m *= 2
    if certified is None:
        raise SearchBoundExceeded(
            f"no m <= {m_max} certified at eps={eps}, delta={delta}", m_max,
            detail={"last_failed": last_failed})
    lo, (hi, fails, ucb) = last_failed, certified
    best = (hi, fails, ucb)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok, f2, u2 = _level_certifies(cls, learner, targets, mid, trials,
                                      eps, delta, rng, max_fail)
        if ok:
            hi, best = mid, (mid, f2, u2)
        else:
            lo = mid
    return CurvePoint(k=k, eps=eps, delta=delta, m_hat=best[0], trials=trials,
                      worst_failures=best[1], worst_ucb=best[2],
                      targets_tested=len(targets))
