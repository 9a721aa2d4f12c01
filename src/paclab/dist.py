"""Exact finitely-supported distributions over countable domains.

Atoms are either naturals (plain int) or labeled pairs (natural, bit)
for labeled tasks; both kinds flow through the same mass-function,
total-variation and sampling code. All probabilities are
fractions.Fraction and every constructor checks exact normalization,
because the downstream oracles rely on exact equality of sample
likelihoods. Floats appear only inside the sampler's cumulative table,
never in a reported probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import BadDistribution, BadWeights, EmptySample, EmptySupport
from .rng import RngStream

Atom = Union[int, tuple]
Prob = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def frac_str(x: Fraction) -> str:
    """The one rational encoding in reports: always "num/den", so 1 is "1/1"."""
    return f"{x.numerator}/{x.denominator}"


def atom_key(a: Atom):
    """Canonical total order: ascending natural, unlabeled before labeled."""
    if isinstance(a, tuple):
        return (a[0], 1, a[1])
    return (a, 0, 0)


def check_atom(a: Atom) -> Atom:
    if isinstance(a, bool):
        raise BadDistribution(f"bad atom {a!r}")
    if isinstance(a, int):
        if a < 0:
            raise BadDistribution(f"atom {a} is negative")
        return a
    if isinstance(a, tuple) and len(a) == 2:
        n, b = a
        if isinstance(n, int) and not isinstance(n, bool) and n >= 0 and b in (0, 1):
            return (n, b)
    raise BadDistribution(f"bad atom {a!r}")


class SparseDist:
    """Immutable exact pmf; zero-mass atoms are never stored.

    Equality is structural equality of the stored association, which by
    canonical ordering means equality as distributions.
    """

    __slots__ = ("items", "tag", "_pmf", "_hash", "_cum_cache")

    def __init__(self, pmf: Mapping[Atom, object] | Iterable[tuple], tag: Optional[str] = None):
        pairs = pmf.items() if isinstance(pmf, Mapping) else pmf
        acc: dict = {}
        for a, w in pairs:
            a = check_atom(a)
            w = Fraction(w)
            if w < 0:
                raise BadDistribution(f"negative mass {w} at {a!r}")
            if w == 0:
                continue
            acc[a] = acc.get(a, ZERO) + w
        total = sum(acc.values(), ZERO)
        if total != 1:
            raise BadDistribution(f"mass sums to {total}, not 1")
        items = tuple(sorted(acc.items(), key=lambda kv: atom_key(kv[0])))
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "_pmf", dict(items))
        object.__setattr__(self, "_hash", hash(items))
        object.__setattr__(self, "_cum_cache", None)

    def __setattr__(self, *_):
        raise AttributeError("SparseDist is immutable")

    def prob(self, a: Atom) -> Fraction:
        return self._pmf.get(a, ZERO)

    def support(self) -> tuple:
        return tuple(a for a, _ in self.items)

    def __eq__(self, other):
        return isinstance(other, SparseDist) and self.items == other.items

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{a!r}: {p}" for a, p in self.items)
        label = f" tag={self.tag!r}" if self.tag else ""
        return f"SparseDist({{{body}}}{label})"

    # -- serialization (exact rationals as "num/den" strings) --

    def to_json_obj(self) -> dict:
        def enc_atom(a):
            return [a[0], a[1]] if isinstance(a, tuple) else a
        return {
            "atoms": [[enc_atom(a), frac_str(p)] for a, p in self.items],
            "tag": self.tag,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "SparseDist":
        pairs = []
        for enc, s in obj["atoms"]:
            a = tuple(enc) if isinstance(enc, list) else enc
            pairs.append((a, Fraction(s)))
        return SparseDist(pairs, tag=obj.get("tag"))


@dataclass(frozen=True)
class Sample:
    """Ordered draw record; provenance is set whenever `draw` produced it."""

    atoms: tuple
    source_tag: Optional[str] = None
    master_seed: Optional[int] = None
    stream_index: Optional[int] = None

    def __len__(self):
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)


def delta(a: Atom, tag: Optional[str] = None) -> SparseDist:
    """Point mass at one atom."""
    return SparseDist({check_atom(a): ONE}, tag=tag)


def uniform(atoms: Iterable[Atom], tag: Optional[str] = None) -> SparseDist:
    """Uniform distribution over a finite non-empty atom set."""
    uniq = sorted({check_atom(a) for a in atoms}, key=atom_key)
    if not uniq:
        raise EmptySupport("uniform over the empty set is undefined")
    w = Fraction(1, len(uniq))
    return SparseDist({a: w for a in uniq}, tag=tag)


def mixture(components: Sequence[tuple], tag: Optional[str] = None) -> SparseDist:
    """Convex combination of distributions; weights must sum to exactly 1.

    Zero-weight components are dropped, so e.g. a clamped level of 1
    simply erases the anchor term.
    """
    if not components:
        raise BadWeights("mixture of nothing")
    weights = [Fraction(w) for w, _ in components]
    if any(w < 0 for w in weights):
        raise BadWeights("negative mixture weight")
    if sum(weights, ZERO) != 1:
        raise BadWeights(f"weights sum to {sum(weights, ZERO)}, not 1")
    acc: dict = {}
    for w, d in components:
        w = Fraction(w)
        if w == 0:
            continue
        for a, p in d.items:
            acc[a] = acc.get(a, ZERO) + w * p
    return SparseDist(acc, tag=tag)


def event_prob(p: SparseDist, event: Iterable[Atom]) -> Fraction:
    """Exact probability of a finite event."""
    ev = set(event)
    return sum((mass for a, mass in p.items if a in ev), ZERO)


def tv(p: SparseDist, q: SparseDist) -> Fraction:
    """Total variation distance, computed as half the L1 distance.

    For finitely-supported distributions this equals the sup over events
    of the probability gap (the sup is attained on the set where p > q).
    """
    atoms = set(p.support()) | set(q.support())
    l1 = sum((abs(p.prob(a) - q.prob(a)) for a in atoms), ZERO)
    return l1 / 2


def tv_brute_force(p: SparseDist, q: SparseDist) -> Fraction:
    """Independent oracle: max over all events of |p(A) - q(A)|.

    Exponential in the union support size; used to cross-check `tv`.
    """
    diffs = [p.prob(a) - q.prob(a) for a in sorted(set(p.support()) | set(q.support()), key=atom_key)]
    best = ZERO
    for mask in range(1 << len(diffs)):
        s = ZERO
        for i, d in enumerate(diffs):
            if mask >> i & 1:
                s += d
        if abs(s) > best:
            best = abs(s)
    return best


def _cumulative(p: SparseDist):
    # Float cumulative table in canonical atom order, cached per dist.
    cache = p._cum_cache
    if cache is None:
        atoms = [a for a, _ in p.items]
        cum, running = [], 0.0
        for _, mass in p.items:
            running += float(mass)
            cum.append(running)
        cum[-1] = 1.0
        cache = (atoms, cum)
        object.__setattr__(p, "_cum_cache", cache)
    return cache


def draw(p: SparseDist, m: int, rng: RngStream) -> Sample:
    """m i.i.d. atoms by inverse CDF over the canonical atom order.

    Pure in (p, m, rng): the same stream always yields the same sample,
    bit for bit.
    """
    if m < 0:
        raise BadDistribution("sample size must be >= 0")
    atoms, cum = _cumulative(p)
    if m == 0:
        drawn = ()
    elif len(atoms) == 1:
        drawn = (atoms[0],) * m
    else:
        gen = rng.generator()
        drawn = tuple(gen.choices(atoms, cum_weights=cum, k=m))
    return Sample(drawn, source_tag=p.tag, master_seed=rng.master_seed,
                  stream_index=rng.stream_index)


def empirical_measure(s: Sample | Sequence[Atom], event: Iterable[Atom]) -> Fraction:
    """Fraction of sample entries lying in the event, exact."""
    atoms = tuple(s)
    if not atoms:
        raise EmptySample("empirical measure of an empty sample")
    ev = set(event)
    return Fraction(sum(1 for a in atoms if a in ev), len(atoms))


def empirical_dist(s: Sample | Sequence[Atom], tag: Optional[str] = None) -> SparseDist:
    """Empirical distribution of a non-empty sample."""
    atoms = tuple(s)
    if not atoms:
        raise EmptySample("empirical distribution of an empty sample")
    m = len(atoms)
    counts: dict = {}
    for a in atoms:
        counts[a] = counts.get(a, 0) + 1
    return SparseDist({a: Fraction(c, m) for a, c in counts.items()}, tag=tag)


def sequence_prob(p: SparseDist, seq: Sequence[Atom]) -> Fraction:
    """Exact i.i.d. likelihood of an ordered sequence."""
    out = ONE
    for a in seq:
        mass = p.prob(a)
        if mass == 0:
            return ZERO
        out *= mass
    return out
