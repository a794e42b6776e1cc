"""Classification of strongly real conjugacy classes.

An element is real when it is conjugate to its inverse, and strongly real
when some involution conjugates it to its inverse.  For odd q the answer is
complete: a real class of U(n, F_q) is strongly real exactly when every even
part of the partitions at t-1 and t+1 has even multiplicity (equivalently,
the class meets an embedded orthogonal group).  For even q only partial
criteria are known, so the classifier is three-valued there and reports
Unknown outside the decided region.

Every non-Unknown verdict carries a stable rule tag so it can be audited:
"reality", "MainThm", "Real2", "notstrong2-1", "notstrong2-2", "SpCor".
"""

from __future__ import annotations

from .classdata import (
    ClassDatum,
    Partition,
    SymplecticClassDatum,
    is_real,
    partition,
    t_minus_one,
    t_plus_one,
    unipotent_datum,
)
from .fields import PrimePower, _Frozen

STRONGLY_REAL = "StronglyReal"
NOT_STRONGLY_REAL = "NotStronglyReal"
UNKNOWN = "Unknown"

RULE_REALITY = "reality"
RULE_MAIN = "MainThm"
RULE_REAL2 = "Real2"
RULE_NS2_1 = "notstrong2-1"
RULE_NS2_2 = "notstrong2-2"
RULE_SPCOR = "SpCor"

class Verdict(_Frozen):
    __slots__ = ("status", "rule", "witness")

    def __init__(self, status: str, rule: str | None = None, witness=None):
        if status not in (STRONGLY_REAL, NOT_STRONGLY_REAL, UNKNOWN):
            raise ValueError(f"bad status {status!r}")
        if status != UNKNOWN and not rule:
            raise ValueError("decided verdicts must cite a rule")
        # a dict or (key, value) pairs, kept as pairs in key order so that verdicts hash
        witness = None if witness is None else tuple(sorted(dict(witness).items()))
        super().__init__(status, rule, witness)

    @property
    def witness_hint(self) -> dict | None:
        return None if self.witness is None else dict(self.witness)

    @property
    def decided(self) -> bool:
        return self.status != UNKNOWN

    @property
    def real(self) -> bool:
        """Reality of the class, for a verdict of strongly_real, which cites
        the reality rule exactly when the class is not real."""
        return self.rule != RULE_REALITY

    def to_json(self):
        return {"status": self.status, "rule": self.rule, "witness": self.witness_hint}

    def __repr__(self):
        extra = f", rule={self.rule}" if self.rule else ""
        return f"Verdict({self.status}{extra})"


def _unpaired_even(rule: str, at_minus: Partition, at_plus: Partition) -> list[Verdict]:
    """A NotStronglyReal verdict by rule for each of t-1 and t+1, in that
    order, with an even part of odd multiplicity; it names the smallest."""
    return [
        Verdict(
            NOT_STRONGLY_REAL,
            rule,
            {"poly": label, "even_part": bad[0], "multiplicity": mu.mult(bad[0])},
        )
        for label, mu in (("t-1", at_minus), ("t+1", at_plus))
        if (bad := mu.unpaired(0))
    ]


def orthogonal_embeddable(d: ClassDatum) -> bool:
    """Real, and every even part at t-1 and t+1 has even multiplicity (q odd).

    These are exactly the classes meeting an embedded orthogonal group, and
    by MainThm exactly the strongly real ones, which is how it is decided.
    """
    if d.q.p == 2:
        raise ValueError("orthogonal embedding criterion requires odd q")
    return strongly_real(d).status == STRONGLY_REAL


def symplectic_embeddable_even_q(d: ClassDatum) -> bool:
    """Real, and every part 2m+1 (m >= 1) at t-1 has even multiplicity.

    For even q and even n these are the classes meeting an embedded
    symplectic group.  Strong reality follows but the converse fails.
    """
    if d.q.p != 2:
        raise ValueError("symplectic embedding criterion requires even q")
    if d.n % 2:
        raise ValueError("symplectic embedding criterion requires even dimension")
    return is_real(d) and not d.partition_at(t_minus_one(d.q)).unpaired(1, 3)


def _real2_applies(mu: Partition) -> int:
    """0 if neither sufficient condition holds, else 1 or 2 for the branch.

    Branch 1: every odd part >= 3 has even multiplicity.
    Branch 2: part 1 is present and every odd part >= 5 has even multiplicity.
    """
    if not mu.unpaired(1, 3):
        return 1
    if mu.mult(1) >= 1 and not mu.unpaired(1, 5):
        return 2
    return 0


def _notstrong2_applies(mu: Partition):
    """None if neither negative condition holds, else (rule, witness).

    Case 1: the number of odd parts is odd and k - l >= 3, where k is the
    smallest odd part and l the largest even part (0 if none).
    Case 2: exactly one odd part k >= 3, with k - l = 1 and the largest even
    part l of multiplicity one.
    """
    odd_parts = [p for p in mu.parts if p % 2 == 1]
    l = max((p for p in mu.parts if p % 2 == 0), default=0)
    if len(odd_parts) % 2 == 1 and min(odd_parts) - l >= 3:
        return RULE_NS2_1, {
            "odd_part_count": len(odd_parts),
            "smallest_odd": min(odd_parts),
            "largest_even": l,
        }
    if len(odd_parts) == 1 and odd_parts[0] >= 3 and odd_parts[0] - l == 1 and mu.mult(l) == 1:
        return RULE_NS2_2, {"odd_part": odd_parts[0], "largest_even": l}
    return None


def strongly_real(d: ClassDatum) -> Verdict:
    """Classify a class datum.

    Reality is necessary for any q.  For odd q the criterion is complete:
    strongly real iff orthogonally embeddable.  For even q the question
    reduces to the partition mu at t-1 and is answered by sufficient
    conditions on either side, with Unknown in between.
    """
    if not is_real(d):
        return Verdict(NOT_STRONGLY_REAL, RULE_REALITY)
    if d.q.p != 2:
        at = d.partition_at
        found = _unpaired_even(RULE_MAIN, at(t_minus_one(d.q)), at(t_plus_one(d.q)))
        # the smallest part over both; min keeps the first of a tie, t-1
        return min(
            found,
            key=lambda v: v.witness_hint["even_part"],
            default=Verdict(STRONGLY_REAL, RULE_MAIN),
        )
    # even q: strong reality is decided by the t-1 block alone
    mu = d.partition_at(t_minus_one(d.q))
    branch = _real2_applies(mu)
    if branch:
        return Verdict(STRONGLY_REAL, RULE_REAL2, {"branch": branch})
    found = _notstrong2_applies(mu)
    if found:
        return Verdict(NOT_STRONGLY_REAL, *found)
    return Verdict(UNKNOWN)


def unipotent_strongly_real(q: PrimePower, mu) -> Verdict:
    """Verdict for the unipotent class of the given type."""
    return strongly_real(unipotent_datum(q, mu))


def reduce_sharp(mu: Partition, l: int) -> Partition:
    """Subtract 2 from every part >= l and drop the resulting zeros.

    Requires 2 <= l <= max part with the part l present.  Strong reality of
    unipotent classes descends along this reduction, which shrinks n by
    2 * (number of parts >= l).
    """
    if l < 2:
        raise ValueError("l must be at least 2")
    if mu.mult(l) == 0:
        raise ValueError(f"partition has no part equal to {l}")
    new_parts = []
    for p in mu.parts:
        if p >= l:
            if p - 2 > 0:
                new_parts.append(p - 2)
        else:
            new_parts.append(p)
    return partition(new_parts)


def sp_strongly_real(d: SymplecticClassDatum) -> Verdict:
    """Negative criterion for symplectic classes, q odd.

    NotStronglyReal when some even part value has odd multiplicity in the
    underlying partition at t-1 or t+1; no positive criterion is available,
    so everything else is Unknown.
    """
    found = _unpaired_even(RULE_SPCOR, d.signed_plus.base, d.signed_minus.base)
    return found[0] if found else Verdict(UNKNOWN)
