"""The blow-up layer against the slow reference it replaced.

The reference is built here from the parts the fast path no longer uses:
an uncached blowup_charts call for every germ, strict transforms shifted by
weighted_order times the denominator, characters as Fractions, and the
first independent columns found by trying every k x k minor of the linear
terms with rational_determinant.
"""

import json
import math
import random
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from threefold import blowup, models, quotients
from threefold.blowup import (BlowupReport, CIGerm, ChartFinding, MANUAL, QUOTIENT, SMOOTH,
                              analyze_blowup, model_germ, verify_blowup_profile)
from threefold.cli import main
from threefold.linalg import rational_determinant
from threefold.models import (AMBIENT, CD2Model, GERM_VARIABLES, blowup_vector,
                              generate_model, model_equations, validate_model)
from threefold.polynomials import SparsePoly, is_semi_invariant, weighted_order
from threefold.quotients import (ChartGroup, ChartReport, LatticeError, QuotientType,
                                 blowup_charts, effective_factors)

from helpers import parse_poly, reference_poly_from_dict

HALF = Fraction(1, 2)


def reference_transform(eq, variables, v, chart, denominator):
    shift = weighted_order(eq, dict(zip(variables, v))) * denominator
    assert shift.denominator == 1
    terms = {}
    for exps, c in eq.terms.items():
        new = list(exps)
        new[chart] = int(sum(x * denominator * e for x, e in zip(v, exps)) - shift)
        terms[tuple(new)] = c
    return SparsePoly(variables, terms)


def reference_characters(poly, factor, chart, denominator):
    return {sum(Fraction(w, denominator if l == chart else 1) * e
                for l, (w, e) in enumerate(zip(factor.weights, exps))) % factor.n
            for exps in poly.terms}


def nonzero_minor(matrix, rows, cols):
    return rational_determinant([[matrix[a][c] for c in cols] for a in rows]) != 0


def reference_rank(matrix, width):
    return max(size for size in range(min(len(matrix), width) + 1)
               if any(nonzero_minor(matrix, rows, cols)
                      for rows in combinations(range(len(matrix)), size)
                      for cols in combinations(range(width), size)))


def reference_findings(germ, v):
    vv = tuple(Fraction(x) for x in v)
    m, k = len(germ.variables), len(germ.equations)
    report = blowup_charts(germ.ambient, vv)
    denominator = math.lcm(*(x.denominator for x in vv))
    findings = []
    for i, var in enumerate(germ.variables):
        transforms = [reference_transform(eq, germ.variables, vv, i, denominator)
                      for eq in germ.equations]
        for factor in report.charts[i].factors:
            assert all(len(reference_characters(p, factor, i, denominator)) == 1
                       for p in transforms)
        constant = next((n for n, p in enumerate(transforms) if p.constant_term() != 0), None)
        if constant is not None:
            findings.append(ChartFinding(var, SMOOTH, detail=f"equation {constant} has a "
                                         "nonzero constant term; origin is off the germ"))
            continue
        linear = [[p.coefficient([(denominator if l == i else 1) if l == c else 0
                                  for l in range(m)]) for c in range(m)]
                  for p in transforms]
        rows = "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in linear) + "]"
        data = f"linear terms {rows}, rank {reference_rank(linear, m)}"
        chosen = next((cols for cols in combinations(range(m), k)
                       if nonzero_minor(linear, range(k), cols)), None)
        if chosen is None:
            findings.append(ChartFinding(var, MANUAL, detail="no independent linear terms; "
                                         "strict transform is singular or needs analytic "
                                         f"units at the chart origin; {data}"))
            continue
        keep = [l for l in range(m) if l not in chosen]
        residual = effective_factors(report.charts[i].restricted(keep))
        if not residual:
            findings.append(ChartFinding(var, SMOOTH, detail="residual group is trivial"))
        elif len(residual) == 1:
            qtype = residual[0].normalized()
            findings.append(ChartFinding(var, QUOTIENT, qtype,
                                         detail=f"quotient point of type {qtype}"))
        else:
            findings.append(ChartFinding(var, MANUAL,
                                         detail=f"residual group is not cyclic; {data}"))
    return tuple(findings)


def reference_report(germ, v):
    vv = tuple(Fraction(x) for x in v)
    orders = tuple(weighted_order(eq, dict(zip(germ.variables, vv))) for eq in germ.equations)
    return BlowupReport(orders, sum(vv) - sum(orders) - 1,
                        math.prod(orders) / (germ.ambient.n * math.prod(vv)),
                        reference_findings(germ, vv))


def germ(ambient, text):
    names = tuple(f"x{i + 1}" for i in range(ambient.arity))
    equations = tuple(parse_poly(eq, names) for eq in text.split(";") if eq)
    return CIGerm(ambient, names, equations)


# the fractional-weight, manual and quotient-point germs of test_blowup.py,
# and the ordinary double point
FIXTURES = {
    "half_weight_quadric": (germ(QuotientType(2, (1, 1, 1, 1)), "x1^2 + x2^2 + x3^2 + x4^2"),
                            (HALF, HALF, HALF, HALF)),
    "manual": (germ(QuotientType(2, (1, 1, 1, 1)), "x1^2 + x2^2 + x3^2 + x4^4"), (1, 1, 1, 2)),
    "kawamata_1_5_2_3_1": (germ(QuotientType(5, (2, 3, 1)), ""),
                           (Fraction(2, 5), Fraction(3, 5), Fraction(1, 5))),
    "ordinary_double_point": (germ(QuotientType(1, (0, 0, 0, 0)), "x1*x2 + x3*x4"),
                              (1, 1, 1, 1)),
}
MODELS = [(r, seed) for r in (7, 23, 47, 95) for seed in (1, 2, 3)]


@pytest.mark.parametrize("r, seed", MODELS, ids=[f"r{r}-seed{s}" for r, s in MODELS])
def test_family_models_match_reference(r, seed):
    family, v = model_germ(generate_model(r, seed)), blowup_vector(r)
    report, expected = analyze_blowup(family, v), reference_report(family, v)
    assert report.chart_findings == expected.chart_findings
    assert report == expected


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_match_reference(name):
    fixture, v = FIXTURES[name]
    report, expected = analyze_blowup(fixture, v), reference_report(fixture, v)
    assert report.chart_findings == expected.chart_findings
    assert report == expected


# the exponent vectors of total degree 1 to 4 in m variables, m = 3, 4, 5
MONOMIALS = {m: [e for e in product(range(5), repeat=m) if 0 < sum(e) <= 4] for m in (3, 4, 5)}


def random_coefficient(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def sweep_case(rng):
    """A random three-fold germ in C^m/(1/n)(a), m = 3, 4 or 5, and a weight
    vector v of denominator 1, 2 or 3 in the lattice Z^m + Z*a/n.

    Each of the m - 3 equations starts from a pure power or an x_l*x_i^j
    term, the lead, and takes the terms of its character that weigh as much
    as the lead or one unit of t more (they keep t^0 or t^denominator) with
    probability 1/2, and heavier ones with 1/10.  Terms of one character
    differ in weight by whole units, as v lies in the lattice."""
    m = rng.randint(3, 5)
    d = rng.choice((1, 2, 2, 3, 3))
    n = d * rng.choice((1, 2))
    a = tuple(rng.randrange(n) for _ in range(m))
    s = rng.choice([x for x in range(1, d + 1) if math.gcd(x, d) == 1])
    # v = s*a/d mod 1 plus an integer, so v lies in the lattice and is positive
    v = tuple(Fraction(s * w % d, d) + rng.randint(0 if s * w % d else 1, 2) for w in a)
    scaled = [int(x * d) for x in v]
    names = tuple(f"x{l + 1}" for l in range(m))

    def weight(e):
        return sum(map(int.__mul__, scaled, e))

    def character(e):
        return sum(map(int.__mul__, a, e)) % n

    leads = [e for e in MONOMIALS[m] if m - e.count(0) == 1 or (m - e.count(0) == 2 and 1 in e)]
    equations = []
    for _ in range(m - 3):
        lead = rng.choice(leads)
        least, chi = weight(lead), character(lead)
        terms = {lead: random_coefficient(rng)}
        for e in MONOMIALS[m]:
            if e != lead and character(e) == chi and weight(e) >= least:
                if rng.random() < (0.5 if weight(e) <= least + d else 0.1):
                    terms[e] = random_coefficient(rng)
        equations.append(SparsePoly(names, terms))
    return CIGerm(QuotientType(n, a), names, equations), v


def test_random_germs_match_reference():
    # the chart step reads only the terms keeping t^0 or t^denominator, and
    # settles an origin by a pure power of its chart coordinate: random germs
    # with such terms, x_l*x_i^j terms and heavier ones find as the
    # reference, which reads every chart's whole strict transform; a v that
    # is not primitive is refused by both
    rng = random.Random(24)
    seen = {"lattice": 0, "denominator 2": 0, "denominator 3": 0}
    for _ in range(150):
        case, v = sweep_case(rng)
        try:
            expected = reference_report(case, v)
        except LatticeError:
            with pytest.raises(LatticeError):
                analyze_blowup(case, v)
            seen["lattice"] += 1
            continue
        assert analyze_blowup(case, v) == expected, (case, v)
        denominator = math.lcm(*(x.denominator for x in v))
        if denominator > 1:
            seen[f"denominator {denominator}"] += 1
        for finding in expected.chart_findings:
            reason = finding.detail.partition(";")[0]
            if finding.kind == QUOTIENT:
                key = QUOTIENT
            elif "constant term" in reason:
                key = "smooth: constant term"
            else:
                key = f"{finding.kind}: {reason}"
            seen[key] = seen.get(key, 0) + 1
    assert sorted(seen) == [
        "denominator 2", "denominator 3", "lattice",
        "manual: no independent linear terms", "manual: residual group is not cyclic",
        "quotient", "smooth: constant term", "smooth: residual group is trivial"]
    assert min(seen.values()) >= 5, seen


def test_orders_come_from_the_term_powers(monkeypatch):
    # the orders are the shifts of the strict transforms: no threefold module
    # asks weighted_order for them
    cases = [*FIXTURES.values(),
             *((model_germ(generate_model(r, 1)), blowup_vector(r)) for r in (7, 23, 47, 95))]
    expected = [reference_report(*case) for case in cases]

    def no_weighted_order(p, weights):
        raise AssertionError("weighted_order called")

    bound = [name for name, module in list(sys.modules.items())
             if name.partition(".")[0] == "threefold"
             and getattr(module, "weighted_order", None) is weighted_order]
    assert "threefold.polynomials" in bound
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "weighted_order", no_weighted_order)
    assert [analyze_blowup(*case) for case in cases] == expected


def test_one_chart_report_per_r(monkeypatch):
    calls = []

    def counting(ambient, v):
        calls.append((ambient, v))
        return blowup_charts(ambient, v)

    monkeypatch.setattr(blowup, "blowup_charts", counting)
    blowup._chart_data.cache_clear()
    try:
        reports = [verify_blowup_profile(generate_model(23, seed)) for seed in range(10)]
    finally:
        blowup._chart_data.cache_clear()
    assert all(report.passed for report in reports)
    assert calls == [(QuotientType(2, (1, 1, 1, 0, 0)),
                      tuple(Fraction(x) for x in blowup_vector(23)))]


def test_chart_factors_are_tested_once_per_r(monkeypatch):
    # the chart record tests the lattice vector of each of an r's five chart
    # factors, and later models of that r test none
    tested = []
    contains = QuotientType.lattice_contains

    def counting(self, vector):
        tested.append(vector)
        return contains(self, vector)

    monkeypatch.setattr(QuotientType, "lattice_contains", counting)
    blowup._chart_data.cache_clear()
    try:
        counts = []
        for r in (7, 23):
            for seed in range(10):
                assert verify_blowup_profile(generate_model(r, seed)).passed
                counts.append(len(tested))
    finally:
        blowup._chart_data.cache_clear()
    assert counts == [5] * 10 + [10] * 10


R7 = (AMBIENT, tuple(Fraction(x) for x in blowup_vector(7)))
R7_MODEL = Path(__file__).parent / "golden" / "model_r7_seed42.json"


def single_weight_mutants():
    # (chart, factor, report): the r = 7 chart report with one weight of one
    # chart factor replaced by another residue
    report = blowup_charts(*R7)
    for i, chart in enumerate(report.charts):
        for j, factor in enumerate(chart.factors):
            for l, weight in enumerate(factor.weights):
                for other in range(factor.n):
                    if other != weight:
                        factors = list(chart.factors)
                        factors[j] = QuotientType(factor.n, factor.weights[:l] + (other,)
                                                  + factor.weights[l + 1:])
                        charts = list(report.charts)
                        charts[i] = ChartGroup(tuple(factors))
                        yield i, factors[j], ChartReport(tuple(charts))


def test_every_single_weight_mutant_is_refused():
    refused = 0
    for chart, factor, report in single_weight_mutants():
        with pytest.raises(ArithmeticError) as info:
            blowup._chart_data(lambda ambient, v: report, *R7)
        assert str(info.value) == (f"chart {chart} factor {factor} does not act through "
                                   "the lattice of 1/2(1,1,1,0,0)")
        refused += 1
    assert refused == 145


def wrong_chart_function(calls):
    # a chart function giving the r = 7 report with one wrong factor weight
    _, _, report = next(single_weight_mutants())

    def wrong(ambient, v):
        calls.append(v)
        return report
    return wrong


def test_wrong_chart_factor_fails_every_analysis(monkeypatch):
    calls = []
    model = CD2Model.from_json_dict(json.loads(R7_MODEL.read_text(encoding="utf-8")))
    monkeypatch.setattr(blowup, "blowup_charts", wrong_chart_function(calls))
    for _ in range(2):
        with pytest.raises(ArithmeticError, match="^chart 0 factor 1/8"):
            analyze_blowup(model_germ(model), blowup_vector(7))
    # the fault is not cached: the second analysis asked the chart function again
    assert calls == [R7[1]] * 2
    monkeypatch.setattr(blowup, "blowup_charts", blowup_charts)
    assert verify_blowup_profile(model).passed


def test_wrong_chart_factor_exits_three(monkeypatch, capsys):
    # a broken chart factor is neither bad input nor a failed verification
    monkeypatch.setattr(blowup, "blowup_charts", wrong_chart_function([]))
    assert main(["blowup", "--model", str(R7_MODEL)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal error: chart 0 factor 1/8(0,1,2,7,1) does not act "
                            "through the lattice of 1/2(1,1,1,0,0)\n")


def test_chart_analysis_makes_no_semi_invariance_call(monkeypatch):
    # every strict transform is semi-invariant by the chart record's lattice
    # test, so analysing a germ asks is_semi_invariant nothing
    family, v = model_germ(generate_model(23, 3)), blowup_vector(23)
    expected = reference_report(family, v)
    calls = []
    monkeypatch.setattr(blowup, "is_semi_invariant", lambda *args: calls.append(args))
    blowup._chart_data.cache_clear()
    try:
        assert analyze_blowup(family, v) == expected
    finally:
        blowup._chart_data.cache_clear()
    assert calls == []


def test_rebound_chart_function_computes_afresh(monkeypatch):
    # the cache is keyed on the chart function: once it is warm, a rebinding
    # of blowup.blowup_charts (as a tracer makes) is still called, once per r
    model = generate_model(23, 1)
    expected = verify_blowup_profile(model)
    calls = []

    def counting(ambient, v):
        calls.append(v)
        return blowup_charts(ambient, v)

    monkeypatch.setattr(blowup, "blowup_charts", counting)
    assert [verify_blowup_profile(model) for _ in range(3)] == [expected] * 3
    assert calls == [tuple(Fraction(x) for x in blowup_vector(23))]


def test_one_pass_over_the_term_powers(monkeypatch):
    # the chart data is read once and each equation's term powers are listed
    # once; the orders, the discrepancy, E^3 and every chart read that one pass
    calls = []

    def counting(name, compute):
        def counted(*args):
            calls.append(name)
            return compute(*args)
        return counted

    family, v = model_germ(generate_model(23, 2)), blowup_vector(23)
    expected = reference_report(family, v)
    for name in ("_chart_data", "_term_powers"):
        monkeypatch.setattr(blowup, name, counting(name, getattr(blowup, name)))
    assert analyze_blowup(family, v) == expected
    assert calls == ["_chart_data"] + ["_term_powers"] * len(family.equations)


def test_chart_step_is_called_once_through_the_module(monkeypatch):
    # a rebinding of blowup.chart_singularities, as a tracer makes, sees one
    # call per analysis, and what it returns is what the report holds
    returned = []
    chart_step = blowup.chart_singularities

    def counting(*args):
        returned.append(chart_step(*args))
        return returned[-1]

    monkeypatch.setattr(blowup, "chart_singularities", counting)
    model = generate_model(23, 4)
    assert verify_blowup_profile(model).passed
    assert len(returned) == 1
    report = analyze_blowup(model_germ(model), blowup_vector(23))
    assert len(returned) == 2 and report.chart_findings is returned[1]
    # the profile checks the findings it was handed: without the quotient
    # point of the x5 chart it fails
    monkeypatch.setattr(blowup, "chart_singularities", lambda *args: chart_step(*args)[:4])
    failed = verify_blowup_profile(model)
    assert [c.name for c in failed.failures()] == ["one_singular_point", "quotient_type"]


def test_residual_groups_are_computed_once_per_r(monkeypatch):
    # after one model of an r, further models of that r make no lattice
    # computation: the chart data and its residual groups are shared
    calls = []

    def counting(name, compute):
        def counted(*args):
            calls.append(name)
            return compute(*args)
        return counted

    blowup._chart_data.cache_clear()
    try:
        assert verify_blowup_profile(generate_model(47, 0)).passed
        for module, name in ((blowup, "effective_factors"), (quotients, "smith_normal_form")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        reports = [verify_blowup_profile(generate_model(47, seed)) for seed in range(1, 31)]
        assert calls == []
        # the counters see the calls fresh chart data makes: one for the basis
        # of the ambient lattice and one for each of the five charts in
        # blowup_charts, one for the lattice test of each of the five chart
        # factors, then one residual of two
        blowup._chart_data.cache_clear()
        data = blowup._chart_data(blowup_charts, QuotientType(2, (1, 1, 1, 0, 0)),
                                  blowup_vector(47))
        for _ in range(2):
            data.residual(0, (1, 2, 3))
    finally:
        blowup._chart_data.cache_clear()
    assert all(report.passed for report in reports)
    assert calls.count("smith_normal_form") == 13 and calls.count("effective_factors") == 1


def test_expected_point_is_normalized_once_per_r(monkeypatch):
    # the quotient type a model must show depends on r alone
    normalized = []
    normalize = QuotientType.normalized

    def counted(self):
        normalized.append(self)
        return normalize(self)

    assert verify_blowup_profile(generate_model(23, 0)).passed
    monkeypatch.setattr(QuotientType, "normalized", counted)
    assert all(verify_blowup_profile(generate_model(23, seed)).passed for seed in range(1, 21))
    assert normalized == []


def test_chart_analysis_builds_no_polynomial(monkeypatch):
    # strict transforms are term lists: the five charts of a model build no
    # SparsePoly, with the chart groups computed afresh or from the cache.
    # The counter sees both constructors: __init__ and the one for terms of
    # checked polynomials, which model_equations uses
    model = generate_model(23, 5)
    v = blowup_vector(23)
    expected = reference_findings(model_germ(model), v)
    built = []
    construct, of_checked = SparsePoly.__init__, SparsePoly._of_checked_terms

    def counting(self, *args, **kwargs):
        built.append(args)
        construct(self, *args, **kwargs)

    def counting_checked(cls, *args):
        built.append(args)
        return of_checked(*args)

    monkeypatch.setattr(SparsePoly, "__init__", counting)
    monkeypatch.setattr(SparsePoly, "_of_checked_terms", classmethod(counting_checked))
    family = model_germ(model)
    assert len(built) == 2, "the counter sees the two equations of model_germ"
    built.clear()
    blowup._chart_data.cache_clear()
    try:
        findings = [analyze_blowup(family, v).chart_findings for _ in range(2)]
    finally:
        blowup._chart_data.cache_clear()
        monkeypatch.undo()
    assert built == []
    assert findings == [expected, expected]
    assert SparsePoly.__init__ is construct
    assert SparsePoly._of_checked_terms == of_checked


GOLDEN_MODELS = sorted((Path(__file__).parent / "golden").glob("model_*.json"))


def golden_model_data():
    return [json.loads(path.read_text(encoding="utf-8")) for path in GOLDEN_MODELS]


def reversed_model_data(data):
    """A model file's dict with both 'vars' lists and every exponent vector reversed."""
    return {"r": data["r"], **{key: {"vars": data[key]["vars"][::-1],
                                     "terms": [{"c": t["c"], "e": t["e"][::-1]}
                                               for t in data[key]["terms"]]}
                               for key in ("p", "q")}}


def test_loading_a_model_runs_no_polynomial_constructor(monkeypatch):
    # poly_from_dict checks each term once and builds p and q from the
    # checked terms; the model keeps them, written over P_ and Q_VARIABLES,
    # and a file or a germ with its variables in another order is
    # re-expressed from those checked terms without checking them again
    canonical = golden_model_data() + [generate_model(r, seed).to_json_dict()
                                       for r in (7, 23, 47, 95) for seed in (0, 1)]
    datas = canonical + [reversed_model_data(d) for d in canonical]
    expected = [CD2Model(d["r"], reference_poly_from_dict(d["p"]),
                         reference_poly_from_dict(d["q"])) for d in canonical] * 2
    equations = [model_equations(m) for m in expected]
    permuted = ("x3", "x5", "x1", "x4", "x2")
    order = [GERM_VARIABLES.index(v) for v in permuted]
    ambient = QuotientType(AMBIENT.n, tuple(AMBIENT.weights[k] for k in order))
    construct = SparsePoly.__init__
    calls = []

    def counting(self, *args, **kwargs):
        calls.append(args)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(SparsePoly, "__init__", counting)
    loaded = [CD2Model.from_json_dict(d) for d in datas]
    germs = [CIGerm(ambient, permuted, eqs) for eqs in equations[:len(canonical)]]
    monkeypatch.undo()
    assert calls == []
    assert [(m.r, list(m.p.terms.items()), list(m.q.terms.items())) for m in loaded] == [
        (m.r, list(m.p.terms.items()), list(m.q.terms.items())) for m in expected]
    for germ, eqs in zip(germs, equations):
        assert germ.variables == permuted
        assert [list(eq.terms.items()) for eq in germ.equations] == [
            [(tuple(e[k] for k in order), c) for e, c in eq.terms.items()] for eq in eqs]


def test_profile_asks_two_semi_invariance_questions_per_model(monkeypatch):
    # p_parity and q_parity; the germ of a valid model is not asked again
    calls = []

    def counting(exponents, action):
        calls.append(action)
        return is_semi_invariant(exponents, action)

    for module in (models, blowup):
        monkeypatch.setattr(module, "is_semi_invariant", counting)
    family = [generate_model(r, seed) for r in (7, 23, 47, 95) for seed in range(3)]
    assert all(verify_blowup_profile(model).passed for model in family)
    assert len(calls) == 2 * len(family)


def spy_on_checked_germs(monkeypatch, fail=False):
    """The germs CIGerm._of_checked_equations builds, in order; with fail,
    a call raises AssertionError instead."""
    built = []
    make = CIGerm._of_checked_equations

    def spy(cls, *args):
        assert not fail, "a germ was built for a model that fails validation"
        built.append(make(*args))
        return built[-1]

    monkeypatch.setattr(CIGerm, "_of_checked_equations", classmethod(spy))
    return built


def test_no_germ_for_a_model_that_fails_validation(monkeypatch, tmp_path, capsys):
    square = Path(__file__).parent / "golden" / "model_square_r23.json"
    data = json.loads((Path(__file__).parent / "golden" / "model_r23_seed42.json")
                      .read_text(encoding="utf-8"))
    data["p"]["terms"].append({"c": "1", "e": [1, 0, 24]})  # x2*x4^24 is odd under the twist
    odd = tmp_path / "odd_p.json"
    odd.write_text(json.dumps(data), encoding="utf-8")
    failing = {square: ["q_square_free"], odd: ["p_parity"]}
    spy_on_checked_germs(monkeypatch, fail=True)
    for path, names in failing.items():
        model = CD2Model.from_json_dict(json.loads(path.read_text(encoding="utf-8")))
        assert [c.name for c in validate_model(model).failures()] == names
        report = verify_blowup_profile(model)
        assert [(c.name, c.passed) for c in report.checks] == [("model_valid", False)]
        for fmt in ("table", "json"):
            assert main(["--format", fmt, "blowup", "--model", str(path)]) == 1
            assert "model fails validation" in capsys.readouterr().err


def test_checked_germ_is_the_model_germ(monkeypatch):
    built = spy_on_checked_germs(monkeypatch)
    family = [CD2Model.from_json_dict(d) for d in golden_model_data()]
    family += [generate_model(r, seed) for r in (7, 23, 47, 95) for seed in range(5)]
    valid = 0
    for model in family:
        built.clear()
        verify_blowup_profile(model)
        if not validate_model(model).passed:
            assert built == []
            continue
        valid += 1
        expected = model_germ(model)
        assert built == [expected]
        assert ([list(eq.terms.items()) for eq in built[0].equations]
                == [list(eq.terms.items()) for eq in expected.equations])
    assert valid == len(family) - 1  # the square model fails


@pytest.mark.parametrize("r", [7, 23])
def test_one_rank_and_no_evidence_per_family_model(monkeypatch, r):
    # four of a family model's five chart origins are off the germ by a pure
    # power of their coordinate, so one linear-term matrix is reduced, and no
    # finding is manual, so none is written out
    family, v = model_germ(generate_model(r, 1)), blowup_vector(r)
    expected = reference_report(family, v)
    calls = []
    pivots = blowup.pivot_columns

    def counting(rows):
        calls.append("pivot_columns")
        return pivots(rows)

    monkeypatch.setattr(blowup, "pivot_columns", counting)
    monkeypatch.setattr(blowup, "_matrix_str", lambda rows: calls.append("_matrix_str"))
    assert analyze_blowup(family, v) == expected
    assert calls == ["pivot_columns"]


def test_lattice_error_is_raised_on_every_call():
    smooth = germ(QuotientType(1, (0, 0, 0)), "")
    for _ in range(2):
        with pytest.raises(LatticeError):
            analyze_blowup(smooth, (2, 2, 2))
