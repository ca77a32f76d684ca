"""Weighted blow-ups of complete-intersection germs in cyclic quotients.

Given a three-fold germ {phi_1 = ... = phi_k = 0} in C^m/(1/n)(a_1,...,a_m)
and a primitive weight vector v, analyze_blowup reads v's cached chart data
and lists each equation's term powers once.  The least term weight of an
equation is its vanishing order along the exceptional divisor (its weighted
order under v); the discrepancy  sum(v) - sum(orders) - 1  and the toric
self-intersection  E^3 = prod(orders) / (n * prod(v))  follow from the
orders.  The same term powers give the strict transform on every chart;
the chart data shows once per (ambient, v) that every chart factor acts
through the ambient lattice, so each strict transform is semi-invariant,
and chart_singularities analyses each chart origin: either a nonzero
constant term shows the origin is off the germ, or linearly independent
pure linear terms cut the germ out as an equivariant graph whose residual
cyclic quotient type is reported.  Charts the rule cannot settle are
reported as manual findings, never guessed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .linalg import pivot_columns
from .models import (CD2Model, CheckResult, GERM_VARIABLES, ValidationReport,
                     blowup_vector, model_equations, validate_model, AMBIENT)
from .polynomials import SparsePoly, _excerpt, is_semi_invariant
from .quotients import ChartGroup, QuotientType, blowup_charts, effective_factors


class DimensionError(ValueError):
    """The germ is not a three-fold where a three-fold is required."""


@dataclass(frozen=True)
class CIGerm:
    """Complete-intersection germ through the origin of a cyclic quotient.

    Every equation must vanish at the origin and be semi-invariant under
    the ambient action; the chart data's lattice test then carries that to
    its strict transform on every chart of a blow-up.
    """

    ambient: QuotientType
    variables: tuple[str, ...]
    equations: tuple[SparsePoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) != self.ambient.arity:
            raise ValueError("variable count does not match quotient arity")
        flattened = []
        for k, eq in enumerate(self.equations):
            if eq.is_zero:
                raise ValueError(f"equation {k} is identically zero")
            if not eq.used_variables() <= set(self.variables):
                raise ValueError(f"equation {k} uses foreign variables")
            flat = eq.with_variables(self.variables)
            if flat.constant_term() != 0:
                raise ValueError(f"equation {k} does not pass through the origin")
            if is_semi_invariant(flat.terms, self.ambient) is None:
                raise ValueError(f"equation {k} is not semi-invariant under {self.ambient}")
            flattened.append(flat)
        object.__setattr__(self, "equations", tuple(flattened))


# -- strict transforms and chart analysis -------------------------------------


_ZERO = Fraction(0)

SMOOTH = "smooth"
QUOTIENT = "quotient"
MANUAL = "manual"


@dataclass(frozen=True)
class ChartFinding:
    variable: str
    kind: str
    quotient: QuotientType | None = None
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"variable": self.variable, "finding": self.kind,
                "type": str(self.quotient) if self.quotient else None,
                "detail": self.detail}


def _term_powers(eq: SparsePoly, scaled: tuple[int, ...]
                 ) -> tuple[list[tuple[tuple[int, ...], Fraction, int]], int]:
    """Each term of eq with the power of t^(1/denominator) it keeps after
    x_l -> y_l * t^(v_l) and division by t^(order), and the shift: the order
    times denominator; scaled is v times denominator, from _chart_data.

    The power is the term's weight times denominator, less the shift, the
    least such product over the terms, so no power is negative.  It does not
    depend on the chart, so it is computed once and each chart's strict
    transform only writes it in as the exponent of its own coordinate t.
    """
    powers = [sum(map(operator.mul, scaled, exps)) for exps in eq.terms]
    shift = min(powers)
    terms = [(exps, c, power - shift) for (exps, c), power in zip(eq.terms.items(), powers)]
    return terms, shift


def _strict_transform(terms, chart: int) -> dict[tuple[int, ...], Fraction]:
    """The strict transform on the chart of the coordinate with index chart,
    as a term map {exponents: coefficient}; terms come from _term_powers.

    Positive weights keep the keys distinct: two terms that differ only in
    the chart coordinate's exponent differ in their power too."""
    return {exps[:chart] + (power,) + exps[chart + 1:]: c for exps, c, power in terms}


class _ChartData(NamedTuple):
    # scaled is v times denominator, the least common denominator of v
    charts: tuple[ChartGroup, ...]
    scaled: tuple[int, ...]
    denominator: int
    residuals: dict

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
    """The chart record of (ambient, v), computed once and then shared.

    compute(ambient, v) checks v and gives the chart groups; a LatticeError is
    not cached.  A factor 1/k(b) of chart i acts on x_l = y_l * t^(v_l) as
    u = (b_l/k for l != i, 0 at i) + (b_i/k) * v, which must lie in N, or an
    uncached ArithmeticError is raised: then u.e = lambda * (a.e)/n mod 1, so
    the characters k * (u.e) - const of the terms of a semi-invariant
    equation's strict transform agree.  The groups depend on r alone for the
    model family, so every model of one r reuses one record.  The key holds
    the chart function too, so a rebinding of blowup.blowup_charts (a test's
    or a tracer's) computes afresh rather than reading another function's
    records."""
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


def chart_singularities(germ: CIGerm, data: _ChartData,
                        powers: Sequence[list]) -> tuple[ChartFinding, ...]:
    """Per-chart analysis of the strict transform at the chart origins;
    data is the _chart_data record of the germ's ambient and v, and powers
    holds the term list _term_powers gives for each equation."""
    m = len(germ.variables)
    origin = (0,) * m
    findings = []
    for i, var in enumerate(germ.variables):
        transforms = [_strict_transform(terms, i) for terms in powers]
        constant = next((k for k, transform in enumerate(transforms)
                         if transform.get(origin, 0) != 0), None)
        if constant is not None:
            findings.append(ChartFinding(var, SMOOTH,
                                         detail=f"equation {constant} has a nonzero "
                                                f"constant term; origin is off the germ"))
            continue

        probes = [origin[:l] + (data.denominator if l == i else 1,) + origin[l + 1:]
                  for l in range(m)]
        linear = [[transform.get(probe, _ZERO) for probe in probes] for transform in transforms]
        chosen = pivot_columns(linear)
        evidence = f"linear terms {_matrix_str(linear)}, rank {len(chosen)}"
        if len(chosen) < len(transforms):
            findings.append(ChartFinding(var, MANUAL,
                                         detail="no independent linear terms; "
                                                "strict transform is singular or needs "
                                                f"analytic units at the chart origin; {evidence}"))
            continue

        residual, qtype = data.residual(i, tuple(l for l in range(m) if l not in chosen))
        if not residual:
            findings.append(ChartFinding(var, SMOOTH,
                                         detail="residual group is trivial"))
        elif qtype is not None:
            findings.append(ChartFinding(var, QUOTIENT, qtype,
                                         detail=f"quotient point of type {qtype}"))
        else:
            findings.append(ChartFinding(var, MANUAL,
                                         detail=f"residual group is not cyclic; {evidence}"))
    return tuple(findings)


@dataclass(frozen=True)
class BlowupReport:
    orders: tuple[Fraction, ...]
    discrepancy: Fraction
    e_cubed: Fraction
    chart_findings: tuple[ChartFinding, ...]

    def to_json_dict(self) -> dict:
        return {
            "orders": [str(x) for x in self.orders],
            "discrepancy": str(self.discrepancy),
            "e3": str(self.e_cubed),
            "charts": [f.to_json_dict() for f in self.chart_findings],
        }


def analyze_blowup(germ: CIGerm, v: Sequence) -> BlowupReport:
    """The blow-up of a three-fold germ by v, from one pass over each
    equation's term powers: an equation's shift is its order times the
    denominator, and the discrepancy and E^3 are read off the shifts.  First
    blowup_charts raises LatticeError unless v is primitive and positive."""
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
    return CIGerm(AMBIENT, GERM_VARIABLES, model_equations(model))


@lru_cache(maxsize=64)
def _expected_point(r: int) -> QuotientType:
    # the normal form of the singular point 1/2r(1, 2r-1, r+4), once per r
    return QuotientType(2 * r, (1, 2 * r - 1, r + 4)).normalized()


def verify_blowup_profile(model: CD2Model) -> ValidationReport:
    """Check the numeric profile of a model's weighted blow-up.

    A model failing validation is rejected before any blow-up runs.  For a
    valid model the blow-up must have discrepancy exactly 2, E^3 exactly
    1/r, no charts needing manual analysis, and exactly one non-smooth
    finding at the five chart origins, a quotient point of type
    1/(2r)(1, 2r-1, r+4); one_singular_point sees no other point of E.
    """
    validation = validate_model(model)
    if not validation.passed:
        names = ", ".join(c.name for c in validation.failures())
        return ValidationReport((CheckResult("model_valid", False,
                                             f"rejected before blow-up: {names}"),))
    r = model.r
    germ = model_germ(model)
    v = blowup_vector(r)
    report = analyze_blowup(germ, v)

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
