"""Eventual-dominance comparisons, diagonalization over function tables,
and the end-to-end pipeline from a growth target to a hard class with a
lower-bound certificate.

Dominance over all naturals cannot be checked exhaustively, so
certificates are explicit about their horizon: they assert g <= f on
[witness, K] for the tabulated prefix 1..K only. Tables carrying a
closed-form rule tag (polynomial or exponential) additionally get a
symbolic asymptotic verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .dist import frac_str
from .errors import BadN, BadPrecondition, EmptyList, LengthMismatch
from .families import (
    AffineOfTarget,
    Reciprocal,
    SequenceSpec,
    StagedClass,
    TASK_DISTRIBUTION,
    anchored_family,
)
from .nfl import check_search_protocol, estimate_sample_complexity, markov_reverse
from .rng import RngStream


@dataclass(frozen=True)
class FunctionTable:
    """Natural-valued function tabulated on the contiguous prefix 1..K, K >= 1."""

    values: tuple  # values[i-1] = value at i
    rule: Optional[tuple] = None  # ("poly", degree) | ("exp", base) | None

    def __post_init__(self):
        if not self.values:
            raise EmptyList("a function table needs at least one value")
        if any(int(v) < 0 for v in self.values):
            raise BadN("table values must be naturals")

    @property
    def horizon(self) -> int:
        return len(self.values)

    def at(self, k: int) -> int:
        if not 1 <= k <= self.horizon:
            raise LengthMismatch(f"index {k} outside tabulated prefix 1..{self.horizon}")
        return int(self.values[k - 1])

    @staticmethod
    def from_values(values: Sequence[int], rule: Optional[tuple] = None) -> "FunctionTable":
        return FunctionTable(tuple(int(v) for v in values), rule=rule)

    @staticmethod
    def from_rule(fn, horizon: int, rule: Optional[tuple] = None) -> "FunctionTable":
        return FunctionTable(tuple(int(fn(k)) for k in range(1, horizon + 1)), rule=rule)

    def to_json_obj(self):
        return {"values": list(self.values),
                "rule": list(self.rule) if self.rule else None}


@dataclass(frozen=True)
class DominanceCertificate:
    """Verdict of a prefix dominance check; never a claim about all naturals."""

    dominates: bool
    witness: Optional[int]     # least index from which g <= f holds to the horizon
    fails_at: Optional[int]    # last index with g > f when the check fails
    horizon: int
    asymptotic: Optional[str] = None  # symbolic verdict when both rules are tagged

    def to_json_obj(self):
        return {
            "dominates_on_prefix": self.dominates,
            "witness": self.witness,
            "fails_at": self.fails_at,
            "horizon": self.horizon,
            "asymptotic": self.asymptotic,
        }


def _asymptotic_verdict(f_rule, g_rule) -> Optional[str]:
    # Shipped rule tags only: ("poly", degree) and ("exp", base). Equal
    # orders say nothing about dominance without constants, hence "same-order".
    if not f_rule or not g_rule:
        return None
    fk, gk = f_rule[0], g_rule[0]
    if fk == "exp" and gk == "poly":
        return "dominates" if float(f_rule[1]) > 1 else None
    if fk == "poly" and gk == "exp" and float(g_rule[1]) > 1:
        return "dominated"
    if fk == gk and fk in ("poly", "exp"):
        rf, rg = float(f_rule[1]), float(g_rule[1])
        if rf > rg:
            return "dominates"
        if rf < rg:
            return "dominated"
        return "same-order"
    return None


def dominates_prefix(f: FunctionTable, g: FunctionTable) -> DominanceCertificate:
    """Least witness x0 with g(x) <= f(x) on [x0, K], or the failure point.

    Tables must share the prefix length K. The certificate is a prefix
    statement only; the asymptotic field is filled when both tables
    carry shipped closed-form rule tags.
    """
    if f.horizon != g.horizon:
        raise LengthMismatch(f"prefix lengths differ: {f.horizon} vs {g.horizon}")
    horizon = f.horizon
    verdict = _asymptotic_verdict(f.rule, g.rule)
    last_bad = None
    for k in range(1, horizon + 1):
        if g.at(k) > f.at(k):
            last_bad = k
    if last_bad == horizon:
        return DominanceCertificate(False, None, last_bad, horizon, verdict)
    witness = 1 if last_bad is None else last_bad + 1
    return DominanceCertificate(True, witness, None, horizon, verdict)


def diagonalize(tables: Sequence[FunctionTable]) -> FunctionTable:
    """Table n -> max over the first min(n, len(tables)) inputs at n, plus 1.

    The output exceeds table i at every index n >= i, so it prefix-
    dominates each input with witness at most that input's position.
    """
    tables = list(tables)
    if not tables:
        raise EmptyList("diagonal of no tables")
    horizon = min(t.horizon for t in tables)
    out = []
    for n in range(1, horizon + 1):
        scope = tables[:min(n, len(tables))]
        out.append(max(t.at(n) for t in scope) + 1)
    return FunctionTable(tuple(out))


@dataclass
class SynthesisReport:
    """A growth target, the hard staged class built over it, the stagewise
    lower-bound line, and the dominance certificate of that line."""

    target: FunctionTable
    spec: SequenceSpec
    lower_bounds: FunctionTable
    certificate: DominanceCertificate
    delta_reference: Fraction          # the fixed 1/7 convention
    spot_check: Optional[dict] = None  # one empirical complexity point

    def to_json_obj(self):
        return {
            "target": self.target.to_json_obj(),
            "spec": self.spec.to_json_obj(),
            "lower_bounds": self.lower_bounds.to_json_obj(),
            "certificate": self.certificate.to_json_obj(),
            "delta_reference": "1/7",
            "spot_check": self.spot_check,
        }


def synthesized_class(g: FunctionTable) -> StagedClass:
    """The staged union with level rule 8/k and stage width 8*(g(k)+1)."""
    spec = SequenceSpec(eta=Reciprocal(Fraction(8)), n=AffineOfTarget(tuple(g.values)))
    return StagedClass(TASK_DISTRIBUTION, spec)


def stage_lower_bound(g: FunctionTable, k: int) -> int:
    """Quarter of the stage width: the certified floor on the number of
    samples needed at stage k, equal to 2*(g(k)+1) > g(k)."""
    return 2 * (g.at(k) + 1)


def _spot_check(g: FunctionTable, k: int, rng: RngStream, trials: int,
                member_budget: int, m_max: int, targets_cap: int) -> dict:
    """Empirical complexity point on a subfamily embedded in stage k.

    The stage's full hard family is far beyond any enumeration budget,
    so the check runs on the largest filtered family (support size n'
    inside a 4n' window, n' * 4 <= stage width) whose size fits the
    member budget; a subfamily's complexity can only understate the
    stage's, so exceeding the target is still meaningful.
    """
    from .learners import ScheffeLearner

    width = 8 * (g.at(k) + 1)  # k outside the table raises before 8/k
    eta = min(Fraction(1), Fraction(8, k))
    n_spot = 1
    while (4 * (n_spot + 1) <= width
           and math.comb(4 * (n_spot + 1), n_spot + 1) <= member_budget):
        n_spot += 1
    eps = eta / 8
    delta = markov_reverse(eta / 4, eta / 8)
    # a protocol that cannot run is rejected before the class is built
    check_search_protocol(eps, delta, trials, targets_cap, 1, m_max, ScheffeLearner)
    family = anchored_family(eta, 4 * n_spot, size_filter=n_spot)
    learner = ScheffeLearner(family)
    point = estimate_sample_complexity(
        family, learner, eps, delta, rng.child(k), trials=trials,
        m_max=m_max, targets_cap=targets_cap, k=k)
    return {
        "k": k,
        "stage_width": width,
        "subfamily": {"eta": frac_str(eta),
                      "window": 4 * n_spot, "set_size": n_spot,
                      "members": len(family)},
        "epsilon": frac_str(eps),
        "delta_convention": "markov_reverse(eta/4, eta/8); the fixed 1/7 "
                            "convention is reported, not used",
        "delta": frac_str(delta),
        "delta_reference": "1/7",
        "point": point.to_json_obj(),
    }


def synthesize(g: FunctionTable, rng: Optional[RngStream] = None,
               spot_check_k: Optional[int] = None, trials: int = 120,
               member_budget: int = 1024, m_max: int = 256,
               targets_cap: int = 64) -> SynthesisReport:
    """Growth target -> hard class -> stagewise lower-bound certificate.

    The lower-bound line is LB(k) = 2*(g(k)+1), which strictly exceeds
    g(k) everywhere, certified on the tabulated prefix. With
    spot_check_k set, one empirical complexity estimate on an embedded
    subfamily is attached (requires rng).
    """
    cls = synthesized_class(g)
    lb = FunctionTable.from_rule(lambda k: stage_lower_bound(g, k), g.horizon,
                                 rule=g.rule)
    cert = dominates_prefix(lb, g)
    spot = None
    if spot_check_k is not None:
        if rng is None:
            raise BadPrecondition("spot check needs an rng stream")
        spot = _spot_check(g, spot_check_k, rng, trials, member_budget, m_max,
                           targets_cap)
    return SynthesisReport(
        target=g, spec=cls.spec, lower_bounds=lb, certificate=cert,
        delta_reference=Fraction(1, 7), spot_check=spot,
    )
