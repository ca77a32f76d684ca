"""The contract of the record types: repr text, hashing, immutability,
keyword construction and defaults, and the errors of the validating
constructors; and the modules a cold import of the CLI loads."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import threefold
from threefold import (BlowupReport, CD2Model, ChartFinding, ChartGroup, ChartReport,
                       CheckResult, CIGerm, CorrectionProfile, DimensionTable,
                       NormalFormResult, QuotientType, SparsePoly, ValidationReport)

SRC = Path(threefold.__file__).resolve().parent.parent


def _germ(variables=("x1", "x2", "x3", "x4")):
    return CIGerm(QuotientType(2, (1, 1, 0, 0)), list(variables),
                  (SparsePoly(("x4",), {(1,): 1}),))


# (record, its repr): the validating constructors reduce weights mod n,
# re-express p and q over their variables, and flatten germ equations
RECORDS = [
    (QuotientType(7, (1, 2, 10)), "QuotientType(n=7, weights=(1, 2, 3))"),
    (CheckResult("a", True), "CheckResult(name='a', passed=True, detail='')"),
    (ValidationReport((CheckResult("a", False, "d"),)),
     "ValidationReport(checks=(CheckResult(name='a', passed=False, detail='d'),))"),
    (CD2Model(7, SparsePoly(("x3",), {(4,): 1}), SparsePoly(("x4",), {(6,): 1})),
     "CD2Model(r=7, p=SparsePoly(('x2', 'x3', 'x4'), {(0, 4, 0): Fraction(1, 1)}), "
     "q=SparsePoly(('x1', 'x3', 'x4'), {(0, 0, 6): Fraction(1, 1)}))"),
    (NormalFormResult("A", True, False, {"alpha": 2}),
     "NormalFormResult(form='A', elephant_ok=True, flipped_x4=False, data={'alpha': 2})"),
    (_germ(),
     "CIGerm(ambient=QuotientType(n=2, weights=(1, 1, 0, 0)), "
     "variables=('x1', 'x2', 'x3', 'x4'), "
     "equations=(SparsePoly(('x1', 'x2', 'x3', 'x4'), {(0, 0, 0, 1): Fraction(1, 1)}),))"),
    (ChartFinding("x1", "smooth"),
     "ChartFinding(variable='x1', kind='smooth', quotient=None, detail='')"),
    (BlowupReport((Fraction(8), Fraction(6)), Fraction(2), Fraction(1, 7), ()),
     "BlowupReport(orders=(Fraction(8, 1), Fraction(6, 1)), discrepancy=Fraction(2, 1), "
     "e_cubed=Fraction(1, 7), chart_findings=())"),
    (ChartGroup((QuotientType(2, (1, 1)),)),
     "ChartGroup(factors=(QuotientType(n=2, weights=(1, 1)),))"),
    (ChartReport((ChartGroup(()),)), "ChartReport(charts=(ChartGroup(factors=()),))"),
    (DimensionTable(7, {(0, 0): 1}), "DimensionTable(r=7, rows={(0, 0): 1})"),
    (CorrectionProfile(7, {0: Fraction(1, 7)}),
     "CorrectionProfile(r=7, delta={0: Fraction(1, 7)})"),
]
IDS = [text.partition("(")[0] for _, text in RECORDS]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=IDS)
def test_fields_and_new_attributes_are_refused(record):
    field = repr(record).partition("(")[2].partition("=")[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_quotient_type_hashes_as_its_fields():
    for n, weights in ((7, (1, 2, 3)), (1, (0, 0, 0)), (12, (5, 7, 0, 11))):
        assert hash(QuotientType(n, weights)) == hash((n, weights))
    assert QuotientType(7, (8, 9, 10)) == QuotientType(7, (1, 2, 3))
    assert len({QuotientType(7, (8, 9, 10)), QuotientType(7, (1, 2, 3))}) == 1


def test_keyword_construction_and_defaults():
    assert QuotientType(n=5, weights=[6, -1]) == QuotientType(5, (1, 4))
    assert type(QuotientType(n=5, weights=[6, -1]).weights) is tuple
    assert CheckResult(name="a", passed=True).detail == ""
    finding = ChartFinding(variable="x1", kind="smooth")
    assert finding.quotient is None and finding.detail == ""
    assert ChartFinding("x1", "quotient", QuotientType(2, (1, 1)), detail="d").detail == "d"
    model = CD2Model(r=7, p=SparsePoly(("x3",), {(4,): 1}), q=SparsePoly(("x4",), {(6,): 1}))
    assert model.p.variables == ("x2", "x3", "x4") and model.q.variables == ("x1", "x3", "x4")
    germ = CIGerm(ambient=QuotientType(2, (1, 1, 0, 0)), variables=["x1", "x2", "x3", "x4"],
                  equations=[SparsePoly(("x4",), {(1,): 1})])
    assert germ == _germ() and type(germ.variables) is tuple and type(germ.equations) is tuple


@pytest.mark.parametrize("n", [0, -3])
def test_quotient_type_order_must_be_positive(n):
    with pytest.raises(ValueError, match="^group order must be a positive integer$"):
        QuotientType(n, (1, 1))


@pytest.mark.parametrize("r", [7.0, "7", Fraction(7)])
def test_model_r_must_be_an_int(r):
    with pytest.raises(ValueError, match="^r must be an integer$"):
        CD2Model(r, SparsePoly(("x3",), {(4,): 1}), SparsePoly(("x4",), {(6,): 1}))


@pytest.mark.parametrize("p, q, message", [
    (SparsePoly(("x1",), {(2,): 1}), SparsePoly(("x4",), {(6,): 1}),
     "p may involve only x2, x3, x4"),
    (SparsePoly(("x3",), {(4,): 1}), SparsePoly(("x2",), {(6,): 1}),
     "q may involve only x1, x3, x4"),
])
def test_model_variables(p, q, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CD2Model(7, p, q)


NAMES = ("x1", "x2", "x3", "x4")


@pytest.mark.parametrize("ambient, names, equation, message", [
    (QuotientType(2, (1, 1, 0, 0)), NAMES[:3], SparsePoly(("x4",), {(1,): 1}),
     "variable count does not match quotient arity"),
    (QuotientType(2, (1, 1, 0, 0)), NAMES, SparsePoly(("x4",)),
     "equation 0 is identically zero"),
    (QuotientType(2, (1, 1, 0, 0)), NAMES, SparsePoly(("x5",), {(1,): 1}),
     "equation 0 uses foreign variables"),
    (QuotientType(2, (1, 1, 0, 0)), NAMES, SparsePoly(("x4",), {(1,): 1, (0,): 1}),
     "equation 0 does not pass through the origin"),
    (QuotientType(2, (1, 1, 0, 0)), NAMES, SparsePoly(("x1", "x4"), {(1, 0): 1, (0, 1): 1}),
     r"equation 0 is not semi-invariant under 1/2\(1,1,0,0\)"),
])
def test_germ_errors(ambient, names, equation, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        CIGerm(ambient, names, (equation,))


def test_cli_import_loads_no_record_machinery():
    # -S keeps site, and whatever its .pth files import, out of the count
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); before = set(sys.modules); "
            "import threefold.cli; print(*sorted(set(sys.modules) - before))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, check=True, timeout=60)
    loaded = set(done.stdout.split())
    assert "threefold.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "typing", "random"}), \
        sorted(loaded & {"dataclasses", "inspect", "typing", "random"})
