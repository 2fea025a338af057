"""Record classes (`reporting.record`): construction, equality, hashing,
immutability, and the state a record keeps outside its fields."""

import collections
from fractions import Fraction

import pytest

from hopfgal import cocyclic, hopf, reporting, zoo
from hopfgal.errors import AxiomError, ShapeError
from hopfgal.linalg import GF, QQ
from hopfgal.reporting import CheckResult, VerificationReport


def test_fields_by_position_keyword_and_default():
    c = CheckResult("unit", False, (3,))
    assert (c.name, c.passed, c.witness) == ("unit", False, (3,))
    assert CheckResult(witness=(3,), passed=False, name="unit") == c
    assert CheckResult("unit", True).witness is None
    assert CheckResult("unit", passed=True) == CheckResult("unit", True, None)


@pytest.mark.parametrize("args,kwargs", [
    ((), {}),
    (("unit",), {}),
    (("unit", True, None, 1), {}),
    (("unit", True), {"colour": 1}),
    (("unit", True), {"name": "counit"}),
], ids=["none", "missing", "extra", "unknown-keyword", "twice"])
def test_missing_or_extra_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        CheckResult(*args, **kwargs)


def test_a_record_equals_only_records_of_its_class():
    @reporting.record
    class Other:
        name: str
        passed: bool
        witness: object = None

    c = CheckResult("unit", True)
    assert c == CheckResult("unit", True)
    assert c != ("unit", True, None) and ("unit", True, None) != c
    assert c != Other("unit", True) and Other("unit", True) != c


def test_hash_agrees_with_equality():
    a, b = CheckResult("unit", True, (1, 2)), CheckResult("unit", True, (1, 2))
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, CheckResult("unit", False, (1, 2))}) == 2
    assert hash(VerificationReport((a,))) == hash(VerificationReport((b,)))


def test_a_record_refuses_assignment_and_deletion():
    c = CheckResult("unit", True)
    for change in (lambda: setattr(c, "passed", False), lambda: setattr(c, "note", 1),
                   lambda: delattr(c, "name")):
        with pytest.raises(AttributeError):
            change()
    assert c == CheckResult("unit", True)


def test_repr_names_the_fields_in_order():
    assert repr(CheckResult("unit", False, (3,))) == (
        "CheckResult(name='unit', passed=False, witness=(3,))")


def test_post_init_errors_are_unchanged():
    sw = hopf.sweedler(QQ)
    with pytest.raises(ShapeError):
        hopf.HopfAlgebraData(sw.algebra, sw.comult, sw.counit[:3], sw.antipode)
    h = zoo.qc2()
    # the unit of H acting by 2 breaks the module law
    action = tuple((((0, Fraction(2)),),) for _ in range(2))
    with pytest.raises(AxiomError) as err:
        cocyclic.AydModuleData(cocyclic.trivial_comodule(h, 1), action)
    assert (err.value.check, err.value.witness) == ("module-law", ("unit",))
    # one block over QC_2: the shape is refused before the module law reads the missing block
    with pytest.raises(ShapeError):
        cocyclic.AydModuleData(cocyclic.trivial_comodule(h, 1), action[:1])


def test_report_and_integrals_stay_out_of_equality_and_repr():
    h = hopf.sweedler(QQ)
    hopf.left_integrals(h)
    bare = hopf.HopfAlgebraData(h.algebra, h.comult, h.counit, h.antipode)
    assert h.report.passed and h.integrals
    assert bare.report is None and bare.integrals == {}
    assert h == bare and hash(h) == hash(bare)
    assert repr(h) == repr(bare) and "report" not in repr(h) and "integrals" not in repr(h)


def test_derived_values_are_worked_out_once(monkeypatch):
    h = zoo.fpc2(3)
    alg = hopf.AlgebraData(h.domain, h.dim, h.labels, h.algebra.mult, h.algebra.unit)
    m = zoo.group_like_ayd(h)
    calls = collections.Counter()
    for owner, name in ((hopf, "generating_set"), (cocyclic, "ayd_check")):
        def counted(*args, _name=name, _fn=getattr(owner, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(owner, name, counted)
    assert alg.generators is alg.generators
    assert m.ayd is m.ayd and m.ayd == (True, None)
    assert calls == {"generating_set": 1, "ayd_check": 1}


@pytest.mark.parametrize("h", [
    hopf.sweedler(QQ),
    hopf.taft(GF(7), 3, 2),
    hopf.taft(GF(13), 4, 5),
    hopf.group_algebra(GF(5), zoo.quaternion_table()),
], ids=["sweedler", "taft3", "taft4", "quaternion"])
def test_the_dual_of_the_dual_is_the_algebra_with_starred_labels(h):
    dd = hopf.dual(hopf.dual(h))
    starred = hopf.AlgebraData(h.domain, h.dim, tuple(f"{x}**" for x in h.labels),
                               h.algebra.mult, h.algebra.unit)
    expected = hopf.HopfAlgebraData(starred, h.comult, h.counit, h.antipode)
    assert dd == expected and hash(dd) == hash(expected)
    assert dd.report is h.report
