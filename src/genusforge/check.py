"""The one shape every identity check reports in, and the first-defect rule.

A check returns a CheckResult: PASS or FAIL, and a FAIL always names its
degree.  Every check decides through one of two rules here: an exact check is
`first_defect` over (index, difference) pairs and a failure also carries the
offending coefficient; a numeric check is `first_residual` over (degree,
residual) pairs and a failure puts the residual in `detail`.  Extra fields
(notes, numeric residuals, sub-checks) ride along in `extra` as sorted (key,
value) pairs and are merged into the JSON record.  Record is the base of every
value class of the package; a field holds only immutable values.  It stands
in for dataclasses, whose import (inspect, ast, dis, tokenize) was about half
of what a fresh CLI process paid to import the package.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple, Union

from genusforge.ring import RingElement

__all__ = ["CheckResult", "Record", "first_defect", "first_residual", "replace"]

_REQUIRED = object()  # the template value of a field without a default


class Record:
    """An immutable record of its class's annotated fields, in order, each an immutable
    value (a number, a string, None, a record, a tuple of these or another hashable value);
    a default is a class attribute.  Equality, the hash and pickling read every field alike,
    and `__post_init__` validates, also in `replace`."""

    _fields = ()

    def __init_subclass__(cls):
        own = cls.__dict__.get("__annotations__")  # none: keep the parent's fields
        if own:
            cls._fields = tuple(own)
            cls._template = {name: cls.__dict__.get(name, _REQUIRED) for name in own}
            cls._required = tuple(k for k, v in cls._template.items() if v is _REQUIRED)

    def __init__(self, *args, **kwargs):
        fields, d = self._fields, self.__dict__
        d.update(self._template)
        if args:
            d.update(zip(fields, args))
        if kwargs:
            d.update(kwargs)
        ok = len(d) == len(fields) >= len(args)
        if args and kwargs:
            ok = ok and kwargs.keys().isdisjoint(fields[: len(args)])
        for name in self._required:
            ok = ok and d[name] is not _REQUIRED
        if not ok:
            raise TypeError(f"{type(self).__name__} takes each of the fields {fields} once")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r}: a {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.__dict__ == other.__dict__ if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(self.__dict__.values())


def replace(record: Record, /, **changes) -> Record:
    """A copy of `record` with `changes` to its fields, validated again."""
    return type(record)(**{**record.__dict__, **changes})


class CheckResult(Record):
    """Outcome of one identity check, exact or numeric."""

    status: str  # "PASS" | "FAIL"
    degree: Optional[int] = None
    coefficient: Optional[RingElement] = None
    detail: Optional[str] = None
    extra: "tuple[tuple[str, object], ...]" = ()  # sorted by key

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
        obj.update((key, _plain(value)) for key, value in self.extra)
        return obj

    @staticmethod
    def ok(**extra) -> "CheckResult":
        return CheckResult("PASS", extra=tuple(sorted(extra.items())))

    @staticmethod
    def fail(degree: int, coefficient=None, detail=None, **extra) -> "CheckResult":
        return CheckResult("FAIL", degree, coefficient, detail, tuple(sorted(extra.items())))


def _plain(value):
    """An extra value's JSON form, in new containers: a record's to_obj, a tuple's list."""
    if isinstance(value, Record):
        return value.to_obj()
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


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
