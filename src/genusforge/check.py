"""The one shape every identity check reports in, and the first-defect rule.

A check returns a CheckResult: PASS or FAIL, and on failure the degree and
the coefficient of the first defect.  Extra fields (notes, numeric residuals,
sub-checks) ride along in `extra` and are merged into the JSON record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Tuple, Union

from genusforge.ring import RingElement

__all__ = ["CheckResult", "first_defect"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an exact identity check."""

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
    def fail(degree=None, coefficient=None, detail=None, **extra) -> "CheckResult":
        return CheckResult("FAIL", degree, coefficient, detail, extra)

    @staticmethod
    def from_flag(passed: bool, **extra) -> "CheckResult":
        return CheckResult("PASS" if passed else "FAIL", extra=extra)


Index = Union[int, Tuple[int, ...]]


def first_defect(
    pairs: "Iterable[tuple[Index, RingElement]]", detail: Optional[str] = None, **extra
) -> CheckResult:
    """The lowest-degree nonzero difference among (index, difference) pairs.

    An index is a degree, or a tuple of exponents whose sum is the degree.
    Among nonzero differences of equal degree the lexicographically first
    index wins, and among equal indices the first pair.  No nonzero
    difference is a pass; `detail` is reported only on failure.
    """
    best = None
    for index, diff in pairs:
        if diff.is_zero():
            continue
        key = (index if isinstance(index, int) else sum(index), index)
        if best is None or key < best[0]:
            best = (key, diff)
    if best is None:
        return CheckResult.ok(**extra)
    (degree, _), diff = best
    return CheckResult.fail(degree, diff, detail, **extra)
