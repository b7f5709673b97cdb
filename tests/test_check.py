from fractions import Fraction

from genusforge import fgl
from genusforge.check import CheckResult, first_defect
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

    def test_all_zero_passes_without_detail(self):
        res = first_defect(Series2.zeros(3).items(), "unused", note="kept")
        assert res.to_obj() == {"status": "PASS", "note": "kept"}

    def test_failing_series_comparison_names_degree_and_coefficient(self):
        jac = fgl.catalog("jacobi", 6, params={"delta": Fraction(-1, 8), "epsilon": 1})
        hyp = fgl.catalog("hyperbolic", 6)
        res = first_defect((jac.F - hyp.F).items())
        assert not res.passed
        assert (res.degree, res.coefficient) == (5, R.from_rational(Fraction(1, 2)))


class TestCheckResult:
    def test_extra_fields_merge_and_nest(self):
        inner = CheckResult.fail(4, gen("t"))
        res = CheckResult.from_flag(False, sub=inner, note="n")
        assert res.to_obj() == {
            "status": "FAIL",
            "sub": {"status": "FAIL", "degree": 4, "coefficient": gen("t").to_obj()},
            "note": "n",
        }

    def test_equal_results_hash_equally(self):
        a = CheckResult.fail(1, gen("x1"), "d", note=[1])
        b = CheckResult.fail(1, gen("x1"), "d", note=[1])
        assert a == b and hash(a) == hash(b)
