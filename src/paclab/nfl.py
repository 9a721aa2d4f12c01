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

That symmetrized floor has a closed form, eta/4 * (1 - q)^m with q the
mass a member puts on each window point, and `nfl_exact` reports it
(`closed_form_floor`) on every instance whose members all have that
shape; on any other it enumerates. The enumeration
`symmetrized_lower_bound` stays as the reference oracle the tests check
the closed form against; it walks sequences, independently of the exact
oracle's enumeration.

The exact oracle enumerates each member's samples over that member's own
support. A learner whose output ignores the order of the points
(`Learner.exchangeable`) sees one row of atom counts per multiset, weighted
by its multinomial coefficient, through `Learner.run_counts`; any other
learner sees every sequence. The weights are integers over the
denominator^m of the family's shared mass table (`FiniteClass.mass_table`),
and the enumeration budget charges exactly the samples enumerated.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from .dist import INT64_SAFE, MassTable, SparseDist, delta, frac_str, mixture, sequence_prob, uniform
from .errors import (
    BadPrecondition,
    BadRange,
    EmptyClass,
    EmptyEstimate,
    EnumerationBudgetExceeded,
    SearchBoundExceeded,
)
from .families import (
    DEFAULT_MEMBER_BUDGET,
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
# log-factorial tables kept, one per trial count n the binomial CDF is asked about
LOG_FACTORIAL_TABLES = 64
CP_ENDPOINTS = 4096  # Clopper-Pearson endpoints kept, one per (failures, trials, alpha)
MEMBER_CHUNK = 32  # members whose samples the exact oracle scores at a time


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
    """A family prepared for the lower-bound machinery.

    The nfl_*_instance constructors build every member with the same mass
    on each of its window points, which `closed_form_floor` needs; an
    instance built by hand may lack that shape, and then `nfl_exact`
    enumerates its floor instead."""

    task: str
    eta: Fraction
    window: int               # distribution: base = 4n; labeled tasks: width
    set_size: Optional[int]   # distribution only: the support-size filter n
    family: FiniteClass


def nfl_distribution_instance(eta, n: int, budget: int = DEFAULT_MEMBER_BUDGET) -> NflInstance:
    """Anchored members with |A| = n inside a window of 4n points."""
    eta = Fraction(eta)
    fam = anchored_family(eta, 4 * n, size_filter=n, budget=budget)
    return NflInstance(TASK_DISTRIBUTION, eta, 4 * n, n, fam)


def nfl_classification_instance(eta, n: int, budget: int = DEFAULT_MEMBER_BUDGET) -> NflInstance:
    """All labelings of a 2n-point window under an anchored marginal."""
    eta = Fraction(eta)
    fam = labeled_anchored_family(eta, n, budget=budget)
    return NflInstance(TASK_CLASSIFICATION, eta, 2 * n, None, fam)


def nfl_real_instance(loss: LossRule, eta, width: int,
                      budget: int = DEFAULT_MEMBER_BUDGET) -> NflInstance:
    """Realizable plateau-data family over a uniform window of `width` points."""
    eta = Fraction(eta)
    fam = plateau_data_family(loss, eta, width, budget=budget)
    return NflInstance(TASK_REAL, eta, width, None, fam)


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


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------

def _check_enum_budget(inst: NflInstance, m: int, budget: int, exchangeable: bool):
    """Charge members x (samples per member) against the budget: the
    C(s+m-1, m) multisets of the largest support s when `exchangeable`,
    its s^m sequences otherwise."""
    if m < 0:
        raise BadRange(f"sample size m={m} is negative")
    size = len(inst.family)
    support = max(len(p.support()) for p in inst.family.members)
    if exchangeable:
        kind, per_member = "multisets", math.comb(support + m - 1, m)
    else:
        kind, per_member = "sequences", support ** m
    if size * per_member > budget:
        raise EnumerationBudgetExceeded(
            f"{size} members x {per_member} {kind} of {m} points over {support} atoms "
            f"= {size * per_member} weighted samples > budget {budget}")


def symmetrized_lower_bound(inst: NflInstance, m: int,
                            budget: int = DEFAULT_ENUM_BUDGET) -> Fraction:
    """Exact symmetrized floor under every learner's class-average error.

    Averages over flip pairs, and over all length-m sequences weighted
    by exact sample likelihood, half the member-to-partner distance:
    (1/(4T)) * sum over members i, sequences S of P_i^m(S) * dist(i, S).
    """
    _check_enum_budget(inst, m, budget, exchangeable=False)
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


def _window_point_mass(inst: NflInstance) -> Optional[Fraction]:
    """q, if every member of a non-empty family puts mass exactly q on
    each point of its window, and None otherwise. q is eta/set_size for a
    distribution instance, whose members must each have exactly set_size
    atoms other than the anchor, all in 1..window; eta/window for
    classification and 1/window for the real task, as the marginal of
    every x in 1..window. The three nfl_*_instance constructors build
    this shape; a hand-built NflInstance need not have it."""
    dist_task = inst.task == TASK_DISTRIBUTION
    if len(inst.family) == 0 or inst.window < 1 or (dist_task and not inst.set_size):
        return None
    if dist_task:
        q = inst.eta / inst.set_size
    elif inst.task == TASK_CLASSIFICATION:
        q = inst.eta / inst.window
    else:
        q = Fraction(1, inst.window)
    window = range(1, inst.window + 1)
    for member in inst.family.members:
        if not isinstance(member, SparseDist):
            return None
        if dist_task:
            points = [(a, w) for a, w in member.items if a != 0]
            if len(points) != inst.set_size or any(
                    not isinstance(a, int) or a not in window or w != q for a, w in points):
                return None
            continue
        marginal = dict.fromkeys(window, Fraction(0))
        for a, w in member.items:
            if not isinstance(a, tuple):
                return None
            if a[0] in marginal:
                marginal[a[0]] += w
        if any(w != q for w in marginal.values()):
            return None
    return q


def closed_form_floor(inst: NflInstance, m: int) -> Fraction:
    """The symmetrized floor in closed form: eta/4 * (1 - q)^m.

    q is the mass a member puts on each point of its window: eta/n for a
    distribution instance (n = set_size), eta/window for classification,
    1/window for the real task. A member's pair distance is eta times the
    fraction of those points its sample missed, and each one is missed
    with probability (1 - q)^m. So on every instance of that shape (the
    three nfl_*_instance constructors build it) this equals
    `symmetrized_lower_bound`, the enumeration kept as the reference
    oracle, at a cost free of m. Any other instance raises BadPrecondition.
    """
    if m < 0:
        raise BadRange(f"sample size m={m} is negative")
    q = _window_point_mass(inst)
    if q is None:
        raise BadPrecondition("the closed-form floor needs every member to put the same "
                              "mass on each of its window points")
    return inst.eta / 4 * (1 - q) ** m


def _member_samples(table: MassTable, m: int, exchangeable: bool) -> tuple:
    """Every member's length-m samples over its own support, as (groups,
    samples). `samples` holds the distinct samples in first-seen order: an
    (r, len(table.atoms)) matrix of count rows, one per multiset, when
    `exchangeable`, else a list of atom tuples, one per sequence. A group is
    (members, ids, weights) for at most MEMBER_CHUNK members of one support
    size: ids[g, t] indexes member members[g]'s t-th sample in `samples`, and
    weights[g, t] = likelihood * denom^m is prod(num^c) times, for a multiset,
    its multinomial coefficient, with c its counts on the member's support
    and num the member's numerators. A sample's integer key is its count row
    in base m+1, or its columns in base len(atoms). Keys and weights are
    int64 below INT64_SAFE, Python ints past it."""
    base, width = (m + 1, len(table.atoms)) if exchangeable else (len(table.atoms), m)
    place = np.array([base ** d for d in range(width)],
                     dtype=np.int64 if base ** width < INT64_SAFE else object)
    by_size: dict = {}  # support size -> member indices
    for i, p in enumerate(table.members):
        by_size.setdefault(len(p.items), []).append(i)
    dtype = np.int64 if table.denom ** max(m, 1) < INT64_SAFE else object  # nums and weights
    keys: dict = {}  # sample key -> index in samples
    groups = []
    for s, indices in by_size.items():
        picks = list(itertools.combinations_with_replacement(range(s), m) if exchangeable
                     else itertools.product(range(s), repeat=m))
        counts = np.array([[bag.count(j) for j in range(s)] for bag in picks])
        picks = np.array(picks, dtype=np.intp).reshape(len(picks), m)
        coefs = np.array([math.factorial(m) // math.prod(map(math.factorial, row))
                          if exchangeable else 1 for row in counts.tolist()], dtype=dtype)
        for lo in range(0, len(indices), MEMBER_CHUNK):
            members = np.array(indices[lo:lo + MEMBER_CHUNK])
            mass = table.mass[members]
            cols = np.nonzero(mass)[1].reshape(len(members), s)
            nums = np.take_along_axis(mass, cols, 1).astype(dtype)
            found = place[cols] @ counts.T if exchangeable else cols[:, picks] @ place
            ids = [keys.setdefault(key, len(keys)) for key in found.ravel().tolist()]
            groups.append((members, np.array(ids).reshape(found.shape),
                           coefs * np.prod(nums[:, None, :] ** counts, axis=2)))
    digits = np.array(list(keys), dtype=place.dtype)[:, None] // place % base
    if exchangeable:
        return groups, digits.astype(np.min_scalar_type(m))
    return groups, [tuple(map(table.atoms.__getitem__, row)) for row in digits.tolist()]


def _sample_losses(inst: NflInstance, outputs: list, out_ids: np.ndarray, groups: list,
                   total: int):
    """Per group of `_member_samples`, lazily: (members, weights, nums, scale),
    nums[g, t] / scale the loss against members[g] of outputs[out_ids[k]], k
    its t-th sample. Distribution: TV as L1 numerators over 2H, H the lcm of
    the table's and the outputs' denominators. Other tasks: task_loss once per
    distinct (member, output), over the group's lcm. nums is int64 while each
    weight * nums and row sum (weights sum to `total`) stays below INT64_SAFE."""
    family, table = inst.family, inst.family.mass_table()
    if inst.task == TASK_DISTRIBUTION:
        half = math.lcm(table.denom, *(w.denominator for q in outputs for _, w in q.items))
        dtype = np.int64 if 2 * half * total < INT64_SAFE else object
        rows, outside = table.numerators(outputs, half, dtype)
        mass = table.mass.astype(dtype, copy=False) * (half // table.denom)
        for members, ids, weights in groups:
            k = out_ids[ids]
            diff = rows[k] - mass[members, None, :]
            yield members, weights, np.abs(diff, out=diff).sum(axis=2) + outside[k], 2 * half
        return
    for members, ids, weights in groups:
        k = out_ids[ids]
        pairs, inverse = np.unique(members[:, None] * len(outputs) + k, return_inverse=True)
        losses = [task_loss(family, outputs[p % len(outputs)], family[p // len(outputs)])
                  for p in pairs.tolist()]
        scale = math.lcm(*(err.denominator for err in losses))
        nums = [err.numerator * (scale // err.denominator) for err in losses]
        dtype = np.int64 if max(map(abs, nums)) * total < INT64_SAFE else object
        yield members, weights, np.array(nums, dtype=dtype)[inverse].reshape(k.shape), scale


def nfl_exact(inst: NflInstance, learners: Sequence[Learner], m: int,
              thresholds: Optional[Sequence] = None,
              budget: int = DEFAULT_ENUM_BUDGET) -> ExactOracleReport:
    """Exact per-member risk of each learner by full enumeration of every
    member's length-m samples with exact likelihood weights. The reported
    floor is `closed_form_floor` on an instance of the constructors' shape
    and the enumerated `symmetrized_lower_bound` on any other; either way
    it and the budget are settled before any learner runs.

    `_member_samples` enumerates the samples with integer weights over the
    family's common denominator^m: the `exchangeable` learners read their
    distinct count rows as one matrix (`Learner.run_counts`), the others
    the distinct sequences as one block. `_sample_losses` gives each
    (member, sample) loss as an integer over one scale per group of members,
    so a member's mean is one Fraction and each tail an integer sum.
    """
    _check_enum_budget(inst, m, budget, all(ln.exchangeable for ln in learners))
    try:
        bound = closed_form_floor(inst, m)
    except BadPrecondition:
        bound = symmetrized_lower_bound(inst, m, budget=budget)
    eta = inst.eta
    thresholds = [Fraction(a) for a in (thresholds if thresholds is not None else [eta / 8])]
    family, table = inst.family, inst.family.mass_table()
    total = table.denom ** m
    enumerated = {ex: _member_samples(table, m, ex) for ex in {ln.exchangeable for ln in learners}}
    reports = []
    for learner in learners:
        groups, samples = enumerated[learner.exchangeable]
        ids: dict = {}  # output -> id; equal outputs share one id
        outs = (learner.run_counts(table.atoms, samples) if learner.exchangeable
                else learner.run_block(samples))
        out_ids = np.array([ids.setdefault(out, len(ids)) for out in outs], dtype=np.intp)
        means, tails = [None] * len(family), [[None] * len(family) for _ in thresholds]
        for members, weights, nums, scale in _sample_losses(inst, list(ids), out_ids, groups, total):
            members = members.tolist()
            for i, v in zip(members, (weights * nums).sum(axis=1).tolist()):
                means[i] = Fraction(v, scale * total)
            for tail, a in zip(tails, thresholds):
                # the least numerator whose loss reaches a, kept within nums' range
                level = min(max(-(-a.numerator * scale // a.denominator), 0), int(nums.max()) + 1)
                for i, v in zip(members, np.where(nums >= level, weights, 0).sum(axis=1).tolist()):
                    tail[i] = Fraction(v, total)
        reports.append(LearnerReport(
            name=learner.name,
            per_member_mean=means,
            class_average=sum(means, Fraction(0)) / len(family),
            class_max=max(means),
            tails=dict(zip(thresholds, tails)),
        ))
    return ExactOracleReport(
        task=inst.task, eta=eta, window=inst.window, set_size=inst.set_size,
        m=m, family_size=len(family),
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

@functools.lru_cache(maxsize=LOG_FACTORIAL_TABLES)
def _log_factorials(n: int) -> tuple:
    """lgamma(j + 1), that is log(j!), for j = 0..n."""
    return tuple(math.lgamma(j + 1) for j in range(n + 1))


def _binom_cdf(x: int, n: int, p: float) -> float:
    """P[X <= x] for X ~ Binom(n, p), via log-space terms."""
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 1.0 if x >= n else 0.0
    lp, lq = math.log(p), math.log1p(-p)
    lf = _log_factorials(n)
    total = 0.0
    for k in range(0, x + 1):
        lt = lf[n] - lf[k] - lf[n - k] + k * lp + (n - k) * lq
        total += math.exp(lt)
    return min(total, 1.0)


def _bisect(lo: float, hi: float, below) -> tuple:
    """[lo, hi] halved 60 times toward the point where `below` turns false."""
    for _ in range(60):
        mid = (lo + hi) / 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


@functools.lru_cache(maxsize=CP_ENDPOINTS)
def clopper_pearson_upper(failures: int, trials: int, alpha: float = 0.05) -> float:
    """Upper endpoint of the two-sided (1-alpha) interval for a proportion."""
    if trials <= 0:
        raise EmptyEstimate("no trials")
    if failures >= trials:
        return 1.0
    return _bisect(failures / trials, 1.0,
                   lambda p: _binom_cdf(failures, trials, p) > alpha / 2)[1]


@functools.lru_cache(maxsize=CP_ENDPOINTS)
def clopper_pearson_lower(failures: int, trials: int, alpha: float = 0.05) -> float:
    if trials <= 0:
        raise EmptyEstimate("no trials")
    if failures <= 0:
        return 0.0
    return _bisect(0.0, failures / trials,
                   lambda p: 1.0 - _binom_cdf(failures - 1, trials, p) <= alpha / 2)[0]


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


def _trial_outcomes(cls: FiniteClass, learner: Learner, m: int, trials: int, rng: RngStream,
                    prefix: tuple, i: int, judge, memo: Optional[dict]):
    """judge(task loss against member i of the learner's output) for each
    trial's m-point sample, lazily and in trial order. `memo`, which the
    caller keeps for one search or Monte Carlo call, holds that value per
    (i, output); None, for outputs from no finite list, keeps no memo.

    The trials against member i run as one block, and trial t draws the
    sample draw(member i, m, rng.child(*prefix, i, t)) would: the block
    takes every trial's seed from one pass (`RngStream.child_seeds`), and
    the learner draws SELECT_CHUNK samples at a time (`Learner.run_draws`):
    an exchangeable learner takes each chunk as count rows (`run_counts`),
    any other (the union) the drawn tuples as one block (`run_block`). A caller
    that stops early has drawn at most SELECT_CHUNK - 1 past its last value."""
    target = cls.members[i]
    seeds = rng.child_seeds(*prefix, i, count=trials)
    for out in learner.run_draws(target, m, seeds):
        if memo is None:
            yield judge(task_loss(cls, out, target))
            continue
        value = memo.get((i, out))
        if value is None:
            value = memo[i, out] = judge(task_loss(cls, out, target))
        yield value


def mc_risk(cls: FiniteClass, learner: Learner, m: int, trials: int, rng: RngStream,
            threshold, member_indices: Optional[Sequence[int]] = None) -> List[McMemberStat]:
    """Monte Carlo stand-in for the exact oracle beyond the enumeration
    budget: per-member empirical mean error and failure frequency (error
    >= threshold) with two-sided 95% Clopper-Pearson intervals. Trial t
    of member i draws from substream (i, t), so results do not depend on
    scheduling; the trials of one member run as one block (`_trial_outcomes`)."""
    if trials <= 0:
        raise EmptyEstimate("mc_risk needs at least one trial")
    threshold = Fraction(threshold)
    indices = list(member_indices) if member_indices is not None else list(range(len(cls)))
    losses = {} if learner.finite_outputs else None
    stats = []
    for i in indices:
        total, failures = 0.0, 0
        for err in _trial_outcomes(cls, learner, m, trials, rng, (), i, lambda err: err, losses):
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
    """The loss a learner must stay within against `target`, a member of cls."""
    if cls.task == TASK_CLASSIFICATION:
        return eps  # excess risk already nets out the best labeler
    if cls.task == TASK_DISTRIBUTION and cls.benchmark is None:
        return eps  # the target is a member: opt = TV(target, target) = 0
    bench = cls.benchmark if cls.benchmark is not None else cls
    opt, _ = opt_loss(bench, target)
    return agnostic_factor * opt + eps


def _level_failures(cls, learner, bars, m, trials, rng, max_fail, verdicts) -> dict:
    """Run one grid level against the guarantee `bars[i]` of each tested
    target i, in the order of `bars`: each tested target's failure count,
    in that order. The level stops at the first target that fails more than
    `max_fail` times and so cannot certify; that target comes last.
    `verdicts` is the search's memo of whether an output fails a target."""
    counts = {}
    for i, bar in bars.items():
        counts[i] = 0
        for failed in _trial_outcomes(cls, learner, m, trials, rng, (m,), i,
                                      bar.__lt__, verdicts):  # err > bar
            if failed:
                counts[i] += 1
                if counts[i] > max_fail:
                    return counts
    return counts


def _no_level_certified(eps, delta, m_max: int, last_failed: int) -> SearchBoundExceeded:
    return SearchBoundExceeded(
        f"no m <= {m_max} certified at eps={eps}, delta={delta}", m_max,
        detail={"last_failed": last_failed})


def check_search_protocol(eps, delta, trials: int, targets_cap: int, m_min: int,
                          m_max: int, learner) -> int:
    """The checks of `estimate_sample_complexity` that need no class:
    at least one trial and one target (else EmptyEstimate), and a first
    level max(m_min, learner.min_sample) within m_max (else
    SearchBoundExceeded, as when no level certifies). Returns that first
    level. `learner` may be a learner class, so a caller that builds a
    costly learner can run the checks first."""
    if trials < 1 or targets_cap < 1:
        raise EmptyEstimate(f"the search needs trials >= 1 and targets_cap >= 1, "
                            f"not {trials} and {targets_cap}")
    m_start = max(m_min, learner.min_sample)
    if m_start > m_max:
        raise _no_level_certified(eps, delta, m_max, m_start - 1)
    return m_start


def estimate_sample_complexity(cls: FiniteClass, learner: Learner, eps, delta,
                               rng: RngStream, trials: int = 200,
                               m_min: int = 1, m_max: int = 1024,
                               targets_cap: int = 64,
                               k: Optional[int] = None) -> CurvePoint:
    """Smallest m on a doubling-then-bisection grid, from max(m_min, the
    learner's smallest usable sample), at which every tested target fails
    (error > guarantee(eps)) at most max_certifiable_failures(trials, delta)
    times, so its 95% Clopper-Pearson upper bound on the failure rate is <= delta.

    Guarantee: 3*opt + eps for TV, excess eps over the best labeler for
    classification, opt + eps for the pointwise-loss task. Tests every
    member as a target when the class has at most `targets_cap` members,
    else a seeded subset of that size; the result is the worst tested target.
    """
    eps, delta = Fraction(eps), Fraction(delta)
    if len(cls) == 0:
        raise EmptyClass("no targets")
    m_start = check_search_protocol(eps, delta, trials, targets_cap, m_min, m_max, learner)
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
    # the guarantee of each target holds across levels, and so does every
    # verdict seen when the learner's outputs come from a finite list
    bars = {i: _guarantee(cls, cls.members[i], eps, learner.agnostic_factor)
            for i in targets}
    verdicts = {} if learner.finite_outputs else None
    # verdicts and selections are pure, so the order targets are tested in
    # changes no result, only how soon a failing level stops: a level that
    # fails moves the target that failed it to the front, and one that
    # passes orders the targets by their failures at it, most first, stably
    order = list(targets)

    def failures_at(m):
        """The worst failure count over targets at level m, or None if a
        target fails more than max_fail times."""
        counts = _level_failures(cls, learner, {i: bars[i] for i in order}, m, trials, rng,
                                 max_fail, verdicts)
        worst, last = max(counts.values()), next(reversed(counts))
        if worst > max_fail:
            order.remove(last)
            order.insert(0, last)
            return None
        order.sort(key=counts.__getitem__, reverse=True)
        return worst

    # lo: the last level that failed, or the one just below the first level
    lo = m_start - 1
    hi, worst = lo + 1, None
    while hi <= m_max and (worst := failures_at(hi)) is None:
        lo, hi = hi, 2 * hi
    if worst is None:
        raise _no_level_certified(eps, delta, m_max, lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        fails = failures_at(mid)
        if fails is None:
            lo = mid
        else:
            hi, worst = mid, fails
    return CurvePoint(k=k, eps=eps, delta=delta, m_hat=hi, trials=trials,
                      worst_failures=worst,
                      worst_ucb=clopper_pearson_upper(worst, trials),
                      targets_tested=len(targets))
