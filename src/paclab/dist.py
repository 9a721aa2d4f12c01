"""Exact finitely-supported distributions over countable domains.

Atoms are either naturals (plain int) or labeled pairs (natural, bit)
for labeled tasks; both kinds flow through the same mass-function,
total-variation and sampling code. All probabilities are
fractions.Fraction and every public constructor checks exact
normalization, because the downstream oracles rely on exact equality of
sample likelihoods; the family constructors, which compute their masses
exactly, build through the unchecked `SparseDist._trusted`. Floats
appear only inside the sampler's cumulative table, never in a reported
probability.

A sample has two shapes. As a plain tuple of atoms, it is what `draw`
returns, and `draws` yields one per generator seed, as
random.Random(seed).choices would. As a count row, it holds a sample's count
of each of some distinct atoms in canonical order: `count_rows` counts a
block of tuples this way, and `draw_rows`, the one sampling rule that `draws`
also reads, gives a chunk of samples as rows of positions in the canonical
atoms, which one offset bincount turns into count rows.

`MassTable` holds the masses of a list of distributions as one integer
matrix over a common denominator; the Scheffé engine, `opt_loss` and the
exact oracle all read their members' masses from it.
"""

from __future__ import annotations

import _random
import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import BadDistribution, BadRange, BadWeights, EmptySample, EmptySupport
from .rng import RngStream

Atom = Union[int, tuple]
Prob = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
INT64_SAFE = 1 << 62  # integer matrices are int64 while every entry stays below this
SELECT_CHUNK = 32  # samples drawn, and Scheffé-selected, at a time
DRAW_POINTS = 1 << 14  # most sample points one pass of draws holds: 128 KB a float array


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
        self._fill(tuple(sorted(acc.items(), key=lambda kv: atom_key(kv[0]))), tag)

    @classmethod
    def _trusted(cls, items: tuple, tag: Optional[str] = None) -> "SparseDist":
        """A dist over `items` as they are: (atom, mass) pairs with valid
        atoms in canonical order, positive Fraction masses summing to
        exactly 1. Family constructors compute such items exactly and skip
        the checks; every other caller goes through the checked constructor."""
        self = object.__new__(cls)
        self._fill(items, tag)
        return self

    def _fill(self, items: tuple, tag: Optional[str]):
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "_pmf", dict(items))
        # Fractions are normalised, so equal items give equal integer triples
        object.__setattr__(self, "_hash", hash(tuple([(a, w.numerator, w.denominator)
                                                      for a, w in items])))
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


class MassTable:
    """The masses of a list of distributions as one integer matrix.

    Columns are the atoms of every member's support in canonical order
    (`atoms`, with `column` mapping an atom to its column); `mass[i, j]`
    is member i's mass at atoms[j] as a numerator over `denom`, the least
    common denominator of every mass. The matrix is int64 while
    denom < INT64_SAFE and exact Python ints (object dtype) past it.
    """

    def __init__(self, members: Sequence[SparseDist]):
        self.members = list(members)
        if not all(isinstance(p, SparseDist) for p in self.members):
            raise BadDistribution("a mass table holds distributions only")
        self.atoms = sorted({a for p in self.members for a in p.support()}, key=atom_key)
        self.column = {a: j for j, a in enumerate(self.atoms)}
        self.denom = math.lcm(*{w.denominator for p in self.members for _, w in p.items})
        dtype = np.int64 if self.denom < INT64_SAFE else object
        self.mass = np.zeros((len(self.members), len(self.atoms)), dtype=dtype)
        for i, p in enumerate(self.members):
            for a, w in p.items:
                self.mass[i, self.column[a]] = w.numerator * (self.denom // w.denominator)

    def __len__(self):
        return len(self.members)

    def l1(self, q: SparseDist) -> tuple:
        """(nums, scale) with tv(members[i], q) == Fraction(int(nums[i]), scale):
        nums holds every member's L1 distance to q as a numerator over
        scale / 2. Atoms of q outside the columns count in full. nums is
        int64 while scale < INT64_SAFE, exact Python ints past it."""
        half = math.lcm(self.denom, *(w.denominator for _, w in q.items))
        dtype = np.int64 if 2 * half < INT64_SAFE else object
        (row,), (outside,) = self.numerators([q], half, dtype)
        diff = self.mass.astype(dtype, copy=False) * (half // self.denom) - row
        return np.abs(diff, out=diff).sum(axis=1) + outside, 2 * half

    def numerators(self, dists: Sequence[SparseDist], scale: int, dtype) -> tuple:
        """(rows, outside) in `dtype`: rows[k, j] is dists[k]'s mass at atoms[j]
        and outside[k] its mass off the columns, as numerators over `scale`, a
        multiple of every mass's denominator."""
        rows = np.zeros((len(dists), len(self.atoms)), dtype=dtype)
        outside = np.zeros(len(dists), dtype=dtype)
        for k, q in enumerate(dists):
            for a, w in q.items:
                num = w.numerator * (scale // w.denominator)
                j = self.column.get(a)
                if j is None:
                    outside[k] += num
                else:
                    rows[k, j] = num
        return rows, outside


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
    # (atoms, cum): the atoms in canonical order as an object array and the
    # float cumulative masses, the last set to exactly 1.0; cached per dist.
    cache = p._cum_cache
    if cache is None:
        atoms = np.fromiter((a for a, _ in p.items), dtype=object, count=len(p.items))
        cum = list(itertools.accumulate(float(mass) for _, mass in p.items))
        cum[-1] = 1.0
        cache = (atoms, np.array(cum))
        object.__setattr__(p, "_cum_cache", cache)
    return cache


def draw(p: SparseDist, m: int, rng: RngStream) -> tuple:
    """A sample: the tuple of m i.i.d. atoms drawn by inverse CDF over the
    canonical atom order.

    Pure in (p, m, rng): the same stream always yields the same sample,
    bit for bit.
    """
    drawn, = draws(p, m, [rng.seed])
    return drawn


def draws(p: SparseDist, m: int, seeds: Iterable[int]):
    """One m-point sample per generator seed, lazily and in order: the atoms
    at `draw_rows`' positions, so draws(p, m, rng.child_seeds(*prefix,
    count=n)) yields draw(p, m, rng.child(*prefix, t)) for t < n."""
    atoms, _ = _cumulative(p)
    for rows in draw_rows(p, m, seeds):
        yield from map(tuple, atoms[rows].tolist())


def draw_rows(p: SparseDist, m: int, seeds: Iterable[int]):
    """The one sampling rule: per chunk of seeds, lazily, the integer (seeds,
    m) matrix whose row r holds the positions in p's canonical atoms of the
    points random.Random(seed).choices draws over them and their float
    cumulative masses for the chunk's r-th seed (zeros at m = 0 or one atom).

    Seeds are read SELECT_CHUNK at a time (fewer past DRAW_POINTS points),
    so a caller that stops early has read at most SELECT_CHUNK - 1 past its
    last sample. One getrandbits call gives a seed's 2m MT19937 words; a
    word pair (a, b) is random()'s double ((a >> 5) * 2**26 + (b >> 6)) *
    2**-53, and a right searchsorted over cum[:-1] is choices' bisect."""
    if m < 0:
        raise BadDistribution("sample size must be >= 0")
    if 64 * m > 2 ** 31 - 1:  # getrandbits takes its bit count as a C int
        raise BadRange(f"sample size m={m} is past {(2 ** 31 - 1) // 64}, the most one draw takes")
    _, cum = _cumulative(p)
    # seeded with 0, not from os.urandom: each draw reseeds it below, as
    # random.Random.seed does for an int
    gen = _random.Random(0)
    reseed, bits = gen.seed, gen.getrandbits
    per_pass = max(1, min(SELECT_CHUNK, DRAW_POINTS // max(m, 1)))
    seeds = iter(seeds)
    while chunk := list(itertools.islice(seeds, per_pass)):
        words = []
        for seed in chunk:
            reseed(seed)
            words.append(bits(64 * m).to_bytes(8 * m, "little"))
        w = np.frombuffer(b"".join(words), dtype="<u4")
        u = (w[0::2] >> 5) * 67108864.0
        u += w[1::2] >> 6
        u *= cum[-1] * 2.0 ** -53  # choices scales random() by cum[-1]
        yield np.searchsorted(cum[:-1], u, side="right").reshape(len(chunk), m)


def count_rows(samples: Sequence[Sequence[Atom]]) -> tuple:
    """(atoms, counts): the distinct atoms of the samples, checked and in
    canonical order, and the (len(samples), len(atoms)) matrix whose row r
    counts samples[r]'s points at each atom. The samples may differ in length."""
    atoms = sorted(map(check_atom, {a for sample in samples for a in sample}), key=atom_key)
    column, width = {a: j for j, a in enumerate(atoms)}, len(atoms)
    index = [base + column[a] for base, sample in zip(itertools.count(0, width), samples)
             for a in sample]
    return atoms, np.bincount(index, minlength=width * len(samples)).reshape(len(samples), width)


def empirical_measure(s: Sequence[Atom], event: Iterable[Atom]) -> Fraction:
    """Fraction of sample entries lying in the event, exact."""
    atoms = tuple(s)
    if not atoms:
        raise EmptySample("empirical measure of an empty sample")
    ev = set(event)
    return Fraction(sum(1 for a in atoms if a in ev), len(atoms))


def empirical_dist(s: Sequence[Atom], tag: Optional[str] = None) -> SparseDist:
    """Empirical distribution of a non-empty sample.

    Its masses c/m sum to exactly 1 by construction, so once each distinct
    atom is checked the dist is built unchecked, in canonical order."""
    atoms = tuple(s)
    if not atoms:
        raise EmptySample("empirical distribution of an empty sample")
    m = len(atoms)
    counts: dict = {}
    for a in atoms:
        counts[a] = counts.get(a, 0) + 1
    for a in counts:
        check_atom(a)
    return SparseDist._trusted(tuple((a, Fraction(counts[a], m))
                                     for a in sorted(counts, key=atom_key)), tag)


def sequence_prob(p: SparseDist, seq: Sequence[Atom]) -> Fraction:
    """Exact i.i.d. likelihood of an ordered sequence."""
    out = ONE
    for a in seq:
        mass = p.prob(a)
        if mass == 0:
            return ZERO
        out *= mass
    return out
