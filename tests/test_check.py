import ast
import copy
import json
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from genusforge import fgl, genus, verify
from genusforge.check import CheckResult, Record, first_defect, first_residual, replace
from genusforge.fgl import AxiomReport, FormalGroupLaw, MobiusTrial
from genusforge.genus import GenusSeries, ManifoldDescriptor, WittenSeries
from genusforge.ring import RingElement
from genusforge.series import Series1, Series2

R = RingElement
gen = RingElement.gen


class TestFirstDefect:
    def test_series1_first_nonzero_degree(self):
        diff = Series1([0, 0, 3, 5], 3)
        res = first_defect(diff.items(), "why")
        assert (res.passed, res.degree, res.coefficient, res.detail) == (False, 2, R.from_rational(3), "why")

    def test_series2_lowest_degree_then_lexicographic(self):
        diff = Series2({(3, 0): 7, (2, 1): 4, (1, 2): 2, (0, 4): 1}, 4)
        res = first_defect(diff.items())
        assert (res.degree, res.coefficient) == (3, R.from_rational(2))

    def test_triple_index_in_any_order(self):
        pairs = [
            ((0, 0, 4), R.from_rational(9)),
            ((2, 1, 0), R.from_rational(5)),
            ((0, 0, 2), R.zero()),
            ((1, 1, 1), R.from_rational(3)),
            ((0, 3, 0), R.from_rational(8)),
        ]
        res = first_defect(pairs)
        assert (res.degree, res.coefficient) == (3, R.from_rational(8))

    def test_equal_indices_keep_the_first_pair(self):
        res = first_defect([(2, gen("t")), (2, gen("u")), (1, R.zero())])
        assert (res.degree, res.coefficient) == (2, gen("t"))

    def test_mixed_index_kinds_order_an_integer_as_a_one_tuple(self):
        """An integer and a tuple index of one degree compare as (2,) against
        (1, 1) or (2, 0), in place of raising TypeError."""
        res = first_defect([(2, gen("t")), ((2, 0), gen("x1")), ((1, 1), gen("u")), (1, R.zero())])
        assert (res.degree, res.coefficient) == (2, gen("u"))
        res = first_defect([((2, 0), gen("x1")), (2, gen("t"))])
        assert (res.degree, res.coefficient) == (2, gen("t"))

    def test_all_zero_passes_without_detail(self):
        res = first_defect(Series2.zeros(3).items(), "unused", note="kept")
        assert res.to_obj() == {"status": "PASS", "note": "kept"}

    def test_failing_series_comparison_names_degree_and_coefficient(self):
        jac = fgl.catalog("jacobi", 6, params={"delta": Fraction(-1, 8), "epsilon": 1})
        hyp = fgl.catalog("hyperbolic", 6)
        res = first_defect((jac.F - hyp.F).items())
        assert not res.passed
        assert (res.degree, res.coefficient) == (5, R.from_rational(Fraction(1, 2)))


class TestFirstResidual:
    def test_lowest_degree_not_below_tolerance_names_its_residual(self):
        res = first_residual([(5, 0.5), (3, 1e-13), (4, 0.25), (6, 1.0)], 0.25, note="kept")
        assert res.to_obj() == {
            "status": "FAIL", "degree": 4, "detail": "residual 0.25 not below 0.25", "note": "kept"
        }

    def test_all_below_passes_with_extras_only(self):
        res = first_residual([(1, 0.0), (2, 1e-13)], 1e-12, tolerance=1e-12)
        assert res.to_obj() == {"status": "PASS", "tolerance": 1e-12}

    def test_nan_is_a_failure(self):
        res = first_residual([(2, 0.0), (3, float("nan"))], 1e-12)
        assert (res.passed, res.degree, res.detail) == (False, 3, "residual nan not below 1e-12")


class TestCheckResult:
    def test_extra_fields_merge_and_nest(self):
        inner = CheckResult.fail(4, gen("t"))
        res = CheckResult.fail(2, sub=inner, note="n")
        assert res.to_obj() == {
            "status": "FAIL",
            "degree": 2,
            "sub": {"status": "FAIL", "degree": 4, "coefficient": gen("t").to_obj()},
            "note": "n",
        }

    def test_equal_results_hash_equally(self):
        a = CheckResult.fail(1, gen("x1"), "d", note=(1,))
        b = CheckResult.fail(1, gen("x1"), "d", note=(1,))
        assert a == b and hash(a) == hash(b)

    def test_extras_are_pairs_sorted_by_key(self):
        a = CheckResult.ok(note="n", count=2, sub=CheckResult("PASS"))
        assert a.extra == (("count", 2), ("note", "n"), ("sub", CheckResult("PASS")))
        assert a == CheckResult.ok(sub=CheckResult("PASS"), count=2, note="n")
        assert dict(a.extra)["note"] == "n"


def _failure_calls_without_degree(tree):
    """CheckResult.fail(...) and CheckResult("FAIL", ...) calls in `tree` that
    pass no degree, or None for it."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, list(node.args)
        if isinstance(func, ast.Attribute) and func.attr == "fail":
            is_failure = isinstance(func.value, ast.Name) and func.value.id == "CheckResult"
        elif isinstance(func, ast.Name) and func.id == "CheckResult":
            status = args.pop(0) if args else next(
                (k.value for k in node.keywords if k.arg == "status"), None
            )
            is_failure = isinstance(status, ast.Constant) and status.value == "FAIL"
        else:
            continue
        degree = args[0] if args else next(
            (k.value for k in node.keywords if k.arg == "degree"), None
        )
        if is_failure and (degree is None or getattr(degree, "value", 0) is None):
            yield node.lineno


def test_every_failure_in_src_names_a_degree_and_from_flag_is_gone():
    """The check shape is kept by the source itself: a failing result always
    names a degree, and no pass/fail flag constructor exists."""
    offences = []
    for path in sorted(Path(fgl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        if "from_flag" in names:
            offences.append(f"{path.name}: from_flag")
        offences += [f"{path.name}:{line}" for line in _failure_calls_without_degree(tree)]
    assert offences == []


@pytest.mark.parametrize(
    "source, lines",
    [
        ("CheckResult.fail(detail='x')", [1]),
        ("CheckResult.fail(None, c)", [1]),
        ("CheckResult('FAIL', extra={})", [1]),
        ("CheckResult(status='FAIL', degree=None)", [1]),
        ("CheckResult.fail(2 * k, c)\nCheckResult('FAIL', d)\nCheckResult.fail(degree=n)", []),
        ("CheckResult('PASS')\nother.fail()", []),
    ],
)
def test_the_degree_guard_sees_what_it_should(source, lines):
    assert list(_failure_calls_without_degree(ast.parse(source))) == lines


# -- the Record contract, for every record class of the package ---------------

# One fresh record per class, and a value for one of its fields that differs
# from the record's own.
RECORDS = {
    "CheckResult": (lambda: CheckResult.fail(2, R.from_rational(3), "why", note="n"), {"extra": (("x", 1),)}),
    "FormalGroupLaw": (lambda: fgl.catalog("multiplicative_t", 3, {"t": 2}), {"construction": "other"}),
    "AxiomReport": (lambda: fgl.check_axioms(fgl.catalog("additive", 3)), {"unit": CheckResult.fail(1)}),
    "MobiusTrial": (lambda: fgl.mobius_sweep(3)[0], {"fail_degree": 3}),
    "GenusSeries": (lambda: genus.genus_series("todd", 4), {"name": "other"}),
    "ManifoldDescriptor": (
        lambda: ManifoldDescriptor.from_chern(2, {(2,): 3, (1, 1): 4}),
        {"chern": (((1, 1), Fraction(6)), ((2,), Fraction(5)))},
    ),
    "WittenSeries": (lambda: genus.witten_series(3, 2), {"q_order": 3}),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    make, change = RECORDS[request.param]
    return make, change


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def _mutable_parts(value, path):
    """The paths under `value`, through record fields and tuple items, that
    hold a dict, a list or a set."""
    if isinstance(value, (dict, list, set)):
        yield path
    elif isinstance(value, Record):
        for name, v in vars(value).items():
            yield from _mutable_parts(v, f"{path}.{name}")
    elif isinstance(value, tuple):
        for i, v in enumerate(value):
            yield from _mutable_parts(v, f"{path}[{i}]")


class TestRecord:
    def test_every_record_class_is_covered(self):
        classes = {CheckResult, FormalGroupLaw, AxiomReport, MobiusTrial, GenusSeries}
        classes |= {ManifoldDescriptor, WittenSeries}
        assert {cls.__name__ for cls in classes} == set(RECORDS)
        assert all(issubclass(cls, Record) for cls in classes)
        assert {type(make()) for make, _ in RECORDS.values()} == classes

    def test_equal_records_hash_equally_without_the_unhashed_fields(self, record):
        """No field is left out of the hash: it is the hash of every field
        value, in order, and a change to one field changes it."""
        make, change = record
        a, b = make(), replace(make())
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash(tuple(vars(a).values()))
        c = replace(a, **change)
        assert c != a and hash(c) != hash(a)

    def test_another_class_with_equal_fields_is_unequal(self, record):
        a = record[0]()

        class Other(type(a)):
            pass

        b = Other(**vars(a))
        assert vars(b) == vars(a) and b != a and a != b
        assert a != tuple(vars(a).values())

    def test_fields_can_be_neither_assigned_nor_deleted(self, record):
        a = record[0]()
        before = dict(vars(a))
        for name in (*type(a)._fields, "new_attribute"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert vars(a) == before

    def test_copies_and_pickles_are_equal_and_hash_equally(self, record):
        a = record[0]()
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(b) is type(a) and b == a and hash(b) == hash(a)
            assert list(vars(b)) == list(type(a)._fields)

    def test_bad_fields_raise_type_error(self, record):
        a = record[0]()
        cls, fields, values = type(a), type(a)._fields, list(vars(a).values())
        with pytest.raises(TypeError):
            cls(**vars(a), not_a_field=1)
        with pytest.raises(TypeError):
            cls(values[0], **vars(a))
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            replace(a, not_a_field=1)
        if cls is not ManifoldDescriptor:  # its every field has a default
            with pytest.raises(TypeError):
                cls(**{k: v for k, v in vars(a).items() if k != fields[0]})

    def test_fields_keep_their_order(self, record):
        a = record[0]()
        assert list(vars(a)) == list(type(a)._fields)
        assert repr(a).startswith(f"{type(a).__name__}({type(a)._fields[0]}=")

    def test_replace_validates_again(self):
        law = fgl.catalog("additive", 3)
        with pytest.raises(ValueError, match="unit axiom"):
            replace(law, F=law.F + Series2({(2, 0): 1}, 3))
        table = ManifoldDescriptor.from_chern(2, {(2,): 3, (1, 1): 4})
        with pytest.raises(genus.IncompleteChernTableError):
            replace(table, chern_dim=3)

    def test_no_field_holds_a_dict_list_or_set(self):
        """Each field holds an immutable value: the defaults of every record
        class, the records each memo serves and every CheckResult of a verify
        run, walked through nested records and tuples."""
        offences = []
        for cls in _all_subclasses(Record):
            offences += _mutable_parts(tuple(cls._template.values()), f"{cls.__name__} defaults")
        a, m = fgl.catalog("additive", 4), fgl.catalog("multiplicative", 4)
        served = {"verify_iso": fgl.verify_iso(fgl.canonical_strict_iso(a, m), a, m)}
        served.update((f"catalog {name}", fgl.catalog(name, 4)) for name in fgl.CATALOG)
        served.update((f"genus_series {name}", genus.genus_series(name, 4)) for name in genus.GENUS_SERIES)
        served["witten_series"] = genus.witten_series(4, 3)
        for builder in verify._SUITE_BUILDERS.values():
            served.update(builder(6))
        for name, value in served.items():
            offences += _mutable_parts(value, name)
        assert "mobius_convention_sweep" in served and "axioms_additive" in served
        assert offences == []

    def test_pickles_keep_a_nested_report_and_a_sweep(self):
        nested = fgl.check_axioms(fgl.catalog("broken_demo", 4)).as_check()
        sweep = CheckResult.ok(combinations=fgl.mobius_sweep(3), conclusion="none")
        for a in (nested, sweep):
            b = pickle.loads(pickle.dumps(a))
            assert b == a and hash(b) == hash(a) and b.to_obj() == a.to_obj()
        assert isinstance(dict(nested.extra)["report"], AxiomReport)


class TestServedRecordsStayPut:
    """A memo hands one record to every caller, so no caller can change what
    the next one reads."""

    def test_an_iso_verdict_has_no_mutable_extra(self):
        a, m = fgl.catalog("additive", 4), fgl.catalog("multiplicative", 4)
        phi = fgl.canonical_strict_iso(a, m)
        with pytest.raises(TypeError):
            fgl.verify_iso(phi, a, m).extra["note"] = "x"
        assert fgl.verify_iso(phi, a, m).to_obj() == {"status": "PASS"}

    def test_to_obj_builds_new_containers_on_every_call(self):
        report = fgl.check_axioms(fgl.catalog("additive", 3)).as_check()
        sweep = CheckResult.ok(combinations=fgl.mobius_sweep(3))
        before = [json.dumps(r.to_obj(), sort_keys=True) for r in (report, sweep)]
        report.to_obj()["report"]["unit"] = "FAIL"
        report.to_obj()["report"].clear()
        sweep.to_obj()["combinations"][0]["status"] = "PASS"
        sweep.to_obj()["combinations"].clear()
        assert [json.dumps(r.to_obj(), sort_keys=True) for r in (report, sweep)] == before
