"""The one shape every identity check reports in, and the first-defect rule.

A check returns a CheckResult: PASS or FAIL, and a FAIL always names its
degree.  Every check decides through one of two rules here: an exact check is
`first_defect` over (index, difference) pairs and a failure also carries the
offending coefficient; a numeric check is `first_residual` over (degree,
residual) pairs and a failure puts the residual in `detail`.  Extra fields
(notes, numeric residuals, sub-checks) ride along in `extra` and are merged
into the JSON record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Tuple, Union

from genusforge.ring import RingElement

__all__ = ["CheckResult", "first_defect", "first_residual"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one identity check, exact or numeric."""

    status: str  # "PASS" | "FAIL"
    degree: Optional[int] = None
    coefficient: Optional[RingElement] = None
    detail: Optional[str] = None
    extra: "Mapping[str, object]" = field(default_factory=dict, hash=False)

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def to_obj(self) -> dict:
        obj: dict = {"status": self.status}
        if not self.passed:
            if self.degree is not None:
                obj["degree"] = self.degree
            if self.coefficient is not None:
                obj["coefficient"] = self.coefficient.to_obj()
        if self.detail:
            obj["detail"] = self.detail
        for key, value in self.extra.items():
            obj[key] = value.to_obj() if isinstance(value, CheckResult) else value
        return obj

    @staticmethod
    def ok(**extra) -> "CheckResult":
        return CheckResult("PASS", extra=extra)

    @staticmethod
    def fail(degree: int, coefficient=None, detail=None, **extra) -> "CheckResult":
        return CheckResult("FAIL", degree, coefficient, detail, extra)


Index = Union[int, Tuple[int, ...]]


def first_defect(
    pairs: "Iterable[tuple[Index, RingElement]]", detail: Optional[str] = None, **extra
) -> CheckResult:
    """The lowest-degree nonzero difference among (index, difference) pairs.

    An index is a degree, or a tuple of exponents whose sum is the degree.
    Among nonzero differences of equal degree the lexicographically first
    index wins, an integer index ordering as the 1-tuple (index,), and among
    equal indices the first pair.  No nonzero difference is a pass; `detail`
    is reported only on failure.
    """
    best = None
    for index, diff in pairs:
        if diff.is_zero():
            continue
        key = (index, (index,)) if isinstance(index, int) else (sum(index), index)
        if best is None or key < best[0]:
            best = (key, diff)
    if best is None:
        return CheckResult.ok(**extra)
    (degree, _), diff = best
    return CheckResult.fail(degree, diff, detail, **extra)


def first_residual(
    pairs: "Iterable[tuple[int, float]]", tolerance: float, /, **extra
) -> CheckResult:
    """The lowest degree among (degree, residual) pairs whose residual is not
    below `tolerance`, with that residual in `detail`; none is a pass."""
    bad = [(degree, residual) for degree, residual in pairs if not residual < tolerance]
    if not bad:
        return CheckResult.ok(**extra)
    degree, residual = min(bad)
    return CheckResult.fail(degree, None, f"residual {residual!r} not below {tolerance!r}", **extra)
