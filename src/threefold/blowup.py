"""Weighted blow-ups of complete-intersection germs in cyclic quotients.

For a three-fold germ {phi_1 = ... = phi_k = 0} in C^m/(1/n)(a_1,...,a_m)
and a primitive weight vector v, an equation's least term weight under v
is its vanishing order along the exceptional divisor E; the discrepancy
sum(v) - sum(orders) - 1 and E^3 = prod(orders) / (n * prod(v)) follow.
Each chart origin is off the germ (a nonzero constant term), or cut out by
independent linear terms as an equivariant graph whose residual quotient
type is reported; charts that rule cannot settle are manual findings,
never guessed.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .linalg import pivot_columns
from .models import (CD2Model, CheckResult, GERM_VARIABLES, ValidationReport,
                     blowup_vector, model_equations, validate_model, AMBIENT)
from .polynomials import SparsePoly, _excerpt, is_semi_invariant
from .quotients import ChartGroup, QuotientType, blowup_charts, effective_factors


class DimensionError(ValueError):
    """The germ is not a three-fold where a three-fold is required."""


class CIGerm(namedtuple("CIGerm", "ambient variables equations")):
    """Complete-intersection germ through the origin of a cyclic quotient.

    The constructor re-expresses each equation, a SparsePoly, over the
    variable tuple and checks that it is nonzero, uses no other variable,
    vanishes at the origin and is semi-invariant under the ambient action;
    the chart data's lattice test carries that to every strict transform.
    """

    __slots__ = ()

    def __new__(cls, ambient: QuotientType, variables, equations) -> "CIGerm":
        variables = tuple(variables)
        if len(variables) != ambient.arity:
            raise ValueError("variable count does not match quotient arity")
        flattened = []
        for k, eq in enumerate(equations):
            if eq.is_zero:
                raise ValueError(f"equation {k} is identically zero")
            flat = eq.with_variables(variables)
            if flat is None:
                raise ValueError(f"equation {k} uses foreign variables")
            if flat.constant_term() != 0:
                raise ValueError(f"equation {k} does not pass through the origin")
            if is_semi_invariant(flat.terms, ambient) is None:
                raise ValueError(f"equation {k} is not semi-invariant under {ambient}")
            flattened.append(flat)
        return tuple.__new__(cls, (ambient, variables, tuple(flattened)))

    @classmethod
    def _of_checked_equations(cls, ambient: QuotientType, variables: tuple[str, ...],
                              equations: tuple[SparsePoly, ...]) -> "CIGerm":
        """The germ of equations known to meet every condition of the
        constructor, already written over variables; nothing is checked
        again.  Only _validated_blowup calls it."""
        return tuple.__new__(cls, (ambient, variables, equations))


# -- strict transforms and chart analysis -------------------------------------


_ZERO = Fraction(0)

SMOOTH = "smooth"
QUOTIENT = "quotient"
MANUAL = "manual"


class ChartFinding(namedtuple("ChartFinding", "variable kind quotient detail",
                              defaults=(None, ""))):
    """What one chart origin is: kind is SMOOTH, QUOTIENT (with its
    QuotientType) or MANUAL, and detail gives the evidence."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"variable": self.variable, "finding": self.kind,
                "type": str(self.quotient) if self.quotient else None,
                "detail": self.detail}


def _term_powers(eq: SparsePoly, scaled: tuple[int, ...]
                 ) -> tuple[list[tuple[tuple[int, ...], Fraction, int]], int]:
    """Each term of eq with the power of t^(1/denominator) it keeps after
    x_l -> y_l * t^(v_l) and division by t^(order), and the shift, the order
    times denominator; scaled is v times denominator.  The power is the same
    on every chart, so it is computed once per equation."""
    powers = [sum(map(operator.mul, scaled, exps)) for exps in eq.terms]
    shift = min(powers)
    terms = [(exps, c, power - shift) for (exps, c), power in zip(eq.terms.items(), powers)]
    return terms, shift


class _ChartData(namedtuple("_ChartData", "charts scaled denominator residuals")):
    # the chart groups, scaled = v times denominator, the least common
    # denominator of v, and the residual store of residual()
    __slots__ = ()

    def residual(self, chart: int, keep: tuple[int, ...]):
        """The effective factors of chart's group on the coordinates in keep, and
        their normalized type when there is one factor; computed once per pair."""
        found = self.residuals.get((chart, keep))
        if found is None:
            factors = tuple(effective_factors(self.charts[chart].restricted(keep)))
            qtype = factors[0].normalized() if len(factors) == 1 else None
            found = self.residuals[chart, keep] = (factors, qtype)
        return found


@lru_cache(maxsize=64)
def _chart_data(compute, ambient: QuotientType, v: tuple[Fraction, ...]) -> _ChartData:
    """The chart record of (ambient, v), computed once and shared: for the
    model family it depends on r alone.

    compute(ambient, v) checks v and gives the chart groups; a LatticeError is
    not cached.  A factor 1/k(b) of chart i acts on x_l = y_l * t^(v_l) as
    u = (b_l/k for l != i, 0 at i) + (b_i/k) * v, which must lie in N, or an
    uncached ArithmeticError is raised: then u.e = lambda * (a.e)/n mod 1, so
    the characters k * (u.e) - const of the terms of a semi-invariant
    equation's strict transform agree.  The key holds the chart function, so
    a rebinding of blowup.blowup_charts (a test's or a tracer's) computes
    afresh rather than reading another function's records."""
    report = compute(ambient, v)
    for i, chart in enumerate(report.charts):
        for factor in chart.factors:
            k, b = factor.n, factor.weights
            u = [Fraction(b[i] * x + (b[l] if l != i else 0), k) for l, x in enumerate(v)]
            if not ambient.lattice_contains(u):
                raise ArithmeticError(f"chart {i} factor {_excerpt(factor, str)} does not "
                                      f"act through the lattice of {_excerpt(ambient, str)}")
    denominator = math.lcm(*(x.denominator for x in v))
    scaled = tuple(x.numerator * (denominator // x.denominator) for x in v)
    return _ChartData(report.charts, scaled, denominator, {})


def _matrix_str(rows) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in rows) + "]"


def _linear_terms(terms, chart: int, m: int, denominator: int) -> list[Fraction]:
    """The coefficients of the probes y_l (l != chart) and t^denominator (at
    chart) in one equation's strict transform on the chart of coordinate
    chart, from its (exps, c, power) terms.  Positive weights keep two terms
    off one probe: terms that differ only in the chart coordinate's
    exponent keep different powers of t."""
    row = [_ZERO] * m
    for exps, c, power in terms:
        rest = [l for l, e in enumerate(exps) if e and l != chart]
        if not rest and power == denominator:
            row[chart] = c
        elif power == 0 and len(rest) == 1 and exps[rest[0]] == 1:
            row[rest[0]] = c
    return row


def chart_singularities(germ: CIGerm, data: _ChartData,
                        powers: Sequence[list]) -> tuple[ChartFinding, ...]:
    """Per-chart analysis of the strict transform at the chart origins;
    data is the _chart_data record of the germ's ambient and v, and powers
    holds the term list _term_powers gives for each equation.

    On the chart of x_i a term keeps its exponents off i and t^power.  The
    origin and the linear probes keep t^0 or t^denominator, so only terms
    keeping at most t^denominator are read.  A pure power of x_i keeping
    t^0 is a nonzero constant there, so that origin is off the germ.
    """
    m = len(germ.variables)
    denominator = data.denominator
    selected = [[term for term in terms if term[2] <= denominator] for terms in powers]
    off = {}  # chart -> the first equation with a constant term there
    for k, terms in enumerate(selected):
        for exps, _, power in terms:
            if power == 0 and exps.count(0) == m - 1:
                off.setdefault(next(l for l, e in enumerate(exps) if e), k)
    findings = []
    for i, var in enumerate(germ.variables):
        if i in off:
            findings.append(ChartFinding(var, SMOOTH,
                                         detail=f"equation {off[i]} has a nonzero "
                                                f"constant term; origin is off the germ"))
            continue

        linear = [_linear_terms(terms, i, m, denominator) for terms in selected]
        chosen = pivot_columns(linear)
        if len(chosen) == len(linear):
            residual, qtype = data.residual(i, tuple(l for l in range(m) if l not in chosen))
            if not residual:
                findings.append(ChartFinding(var, SMOOTH,
                                             detail="residual group is trivial"))
                continue
            if qtype is not None:
                findings.append(ChartFinding(var, QUOTIENT, qtype,
                                             detail=f"quotient point of type {qtype}"))
                continue
            reason = "residual group is not cyclic"
        else:
            reason = ("no independent linear terms; strict transform is singular or "
                      "needs analytic units at the chart origin")
        findings.append(ChartFinding(var, MANUAL, detail=f"{reason}; linear terms "
                                     f"{_matrix_str(linear)}, rank {len(chosen)}"))
    return tuple(findings)


class BlowupReport(namedtuple("BlowupReport", "orders discrepancy e_cubed chart_findings")):
    """The orders, discrepancy and E^3 of a blow-up, Fractions, and the
    ChartFinding of each chart."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "orders": [str(x) for x in self.orders],
            "discrepancy": str(self.discrepancy),
            "e3": str(self.e_cubed),
            "charts": [f.to_json_dict() for f in self.chart_findings],
        }


def analyze_blowup(germ: CIGerm, v: Sequence) -> BlowupReport:
    """The blow-up of a three-fold germ by v; blowup_charts first raises
    LatticeError unless v is primitive and positive."""
    data = _chart_data(blowup_charts, germ.ambient,
                       tuple(x if type(x) is Fraction else Fraction(x) for x in v))
    if len(germ.variables) - len(germ.equations) != 3:
        raise DimensionError(
            f"the blow-up needs a three-fold; got {len(germ.variables)} variables "
            f"and {len(germ.equations)} equations")
    scaled, denominator = data.scaled, data.denominator
    passes = [_term_powers(eq, scaled) for eq in germ.equations]
    shifts = [shift for _, shift in passes]
    orders = tuple(Fraction(shift, denominator) for shift in shifts)
    disc = Fraction(sum(scaled) - sum(shifts), denominator) - 1
    # E^3 = prod(orders) / (n * prod(v)), and m - k = 3 denominators are left over
    e3 = Fraction(math.prod(shifts) * denominator ** 3, germ.ambient.n * math.prod(scaled))
    findings = chart_singularities(germ, data, [terms for terms, _ in passes])
    return BlowupReport(orders, disc, e3, findings)


# -- the full model pipeline ---------------------------------------------------


def model_germ(model: CD2Model) -> CIGerm:
    """The germ of a model's two equations in C^5/(1/2)(1,1,1,0,0), with
    every check of the CIGerm constructor, whether or not the model is valid."""
    return CIGerm(AMBIENT, GERM_VARIABLES, model_equations(model))


def _validated_blowup(model: CD2Model) -> tuple[ValidationReport, BlowupReport | None]:
    """validate_model(model), and the blow-up of the model's germ by
    blowup_vector(r) when the model passes, else None.

    A passing model's equations need no germ check: they hold x1^2 and
    x2^2, so they are nonzero; p_order > r and q_weight = r - 1 leave no
    constant term; and x1^2, x4*x5, x2^2 and x5 have character 0 under the
    half-twist, so p_parity and q_parity make both semi-invariant.
    """
    validation = validate_model(model)
    if not validation.passed:
        return validation, None
    germ = CIGerm._of_checked_equations(AMBIENT, GERM_VARIABLES, model_equations(model))
    return validation, analyze_blowup(germ, blowup_vector(model.r))


@lru_cache(maxsize=64)
def _expected_point(r: int) -> QuotientType:
    # the normal form of the singular point 1/2r(1, 2r-1, r+4), once per r
    return QuotientType(2 * r, (1, 2 * r - 1, r + 4)).normalized()


def verify_blowup_profile(model: CD2Model) -> ValidationReport:
    """Check the numeric profile of a model's weighted blow-up.

    A model failing validation is rejected before any blow-up runs.  The
    blow-up must have discrepancy exactly 2, E^3 exactly 1/r, no charts
    needing manual analysis, and exactly one non-smooth finding at the five
    chart origins, a quotient point of type 1/(2r)(1, 2r-1, r+4);
    one_singular_point sees no other point of E.
    """
    validation, report = _validated_blowup(model)
    if report is None:
        names = ", ".join(c.name for c in validation.failures())
        return ValidationReport((CheckResult("model_valid", False,
                                             f"rejected before blow-up: {names}"),))
    r = model.r
    checks = [CheckResult("model_valid", True, "all model invariants hold")]
    checks.append(CheckResult("discrepancy", report.discrepancy == 2,
                              f"discrepancy = {report.discrepancy}, expected 2"))
    checks.append(CheckResult("e_cubed", report.e_cubed == Fraction(1, r),
                              f"E^3 = {report.e_cubed}, expected 1/{r}"))
    nonsmooth = [f for f in report.chart_findings if f.kind != SMOOTH]
    manual = [f for f in report.chart_findings if f.kind == MANUAL]
    checks.append(CheckResult("one_singular_point", len(nonsmooth) == 1,
                              f"{len(nonsmooth)} non-smooth chart findings"))
    checks.append(CheckResult("no_manual_charts", not manual,
                              f"{len(manual)} charts need manual analysis"))
    expected = _expected_point(r)
    found = (len(nonsmooth) == 1 and nonsmooth[0].kind == QUOTIENT
             and nonsmooth[0].quotient == expected)
    detail = (nonsmooth[0].to_json_dict() if nonsmooth else {"finding": "none"})
    checks.append(CheckResult("quotient_type", found,
                              f"expected {expected}, found {detail}"))
    return ValidationReport(tuple(checks))
