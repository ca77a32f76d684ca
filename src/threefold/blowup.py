"""Weighted blow-ups of complete-intersection germs in cyclic quotients.

Given a germ {phi_1 = ... = phi_k = 0} in C^m/(1/n)(a_1,...,a_m) and a
primitive weight vector v, this module computes the vanishing order of
each equation along the exceptional divisor (its weighted order under v),
the discrepancy  sum(v) - sum(orders) - 1,  the toric self-intersection
E^3 = prod(orders) / (n * prod(v)),  and a per-chart singularity analysis
of the strict transform: on each chart the equations are divided by the
chart coordinate to their exact vanishing order, after which either a
nonzero constant term shows the chart origin is off the germ, or linearly
independent pure linear terms cut the germ out as an equivariant graph
whose residual cyclic quotient type is reported.  Charts the rule cannot
settle are reported as manual findings, never guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .linalg import rational_determinant
from .models import (CD2Model, CheckResult, GERM_VARIABLES, ValidationReport,
                     blowup_vector, model_equations, validate_model, AMBIENT)
from .polynomials import (SparsePoly, is_semi_invariant, poly_from_dict,
                          poly_to_dict, weighted_order)
from .quotients import QuotientType, blowup_charts, effective_factors


class DimensionError(ValueError):
    """The germ is not a three-fold where a three-fold is required."""


@dataclass(frozen=True)
class CIGerm:
    """Complete-intersection germ through the origin of a cyclic quotient.

    Every equation must vanish at the origin and be semi-invariant under
    the ambient action.
    """

    ambient: QuotientType
    variables: tuple[str, ...]
    equations: tuple[SparsePoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) != self.ambient.arity:
            raise ValueError("variable count does not match the ambient arity")
        action = self.ambient.group_action(self.variables)
        flattened = []
        for k, eq in enumerate(self.equations):
            if eq.is_zero:
                raise ValueError(f"equation {k} is identically zero")
            if not eq.used_variables() <= set(self.variables):
                raise ValueError(f"equation {k} uses foreign variables")
            flat = eq.with_variables(self.variables)
            if flat.constant_term() != 0:
                raise ValueError(f"equation {k} does not pass through the origin")
            if is_semi_invariant(flat, action) is None:
                raise ValueError(f"equation {k} is not semi-invariant under {self.ambient}")
            flattened.append(flat)
        object.__setattr__(self, "equations", tuple(flattened))

    @property
    def fiber_dimension(self) -> int:
        return len(self.variables) - len(self.equations)

    def to_json_dict(self, v: Sequence) -> dict:
        return {
            "ambient": str(self.ambient),
            "vars": list(self.variables),
            "weights": [str(Fraction(x)) for x in v],
            "equations": [poly_to_dict(eq) for eq in self.equations],
        }

    @classmethod
    def from_json_dict(cls, data) -> tuple["CIGerm", tuple[Fraction, ...]]:
        germ = cls(QuotientType.parse(data["ambient"]), tuple(data["vars"]),
                   tuple(poly_from_dict(e) for e in data["equations"]))
        v = tuple(Fraction(str(w)) for w in data["weights"])
        return germ, v


def _weight_map(germ: CIGerm, v: Sequence) -> dict[str, Fraction]:
    vv = [Fraction(x) for x in v]
    if len(vv) != len(germ.variables):
        raise ValueError("weight vector arity mismatch")
    if any(x <= 0 for x in vv):
        raise ValueError("weights must be positive")
    return dict(zip(germ.variables, vv))


def equation_orders(germ: CIGerm, v: Sequence) -> tuple[Fraction, ...]:
    """Vanishing order of each equation along the exceptional divisor."""
    weights = _weight_map(germ, v)
    return tuple(weighted_order(eq, weights) for eq in germ.equations)


def discrepancy(germ: CIGerm, v: Sequence) -> Fraction:
    orders = equation_orders(germ, v)
    return sum(Fraction(x) for x in v) - sum(orders, Fraction(0)) - 1


def e_cubed(germ: CIGerm, v: Sequence) -> Fraction:
    """Toric degree of the exceptional divisor of the weighted blow-up."""
    if germ.fiber_dimension != 3:
        raise DimensionError(
            f"E^3 needs a three-fold; got {len(germ.variables)} variables "
            f"and {len(germ.equations)} equations")
    numerator = Fraction(1)
    for order in equation_orders(germ, v):
        numerator *= order
    denominator = Fraction(germ.ambient.n)
    for x in v:
        denominator *= Fraction(x)
    return numerator / denominator


# -- strict transforms and chart analysis -------------------------------------


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


def _strict_transform(eq: SparsePoly, variables, v: Sequence[Fraction],
                      chart: int, denominator: int) -> SparsePoly:
    """Substitute x_l -> y_l * t^(v_l) with t the chart coordinate and divide
    by t^(order).  The chart coordinate's exponents are recorded in units of
    t^(1/denominator) so that everything stays integral."""
    scaled = [x * denominator for x in v]
    if any(x.denominator != 1 for x in scaled):
        raise ArithmeticError(f"denominator {denominator} does not clear the weights {v}")
    scaled = [int(x) for x in scaled]
    shift = int(weighted_order(eq, dict(zip(variables, v))) * denominator)
    terms = {}
    for exps, c in eq.terms.items():
        t_power = sum(s * e for s, e in zip(scaled, exps)) - shift
        if t_power < 0:
            raise ArithmeticError("strict transform has a negative power of the chart coordinate")
        new = list(exps)
        new[chart] = t_power
        terms[tuple(new)] = c
    return SparsePoly(variables, terms)


def _chart_character(poly: SparsePoly, factor, chart: int, denominator: int) -> Fraction | None:
    # character of a strict transform under one chart group factor, with the
    # chart coordinate's weight scaled by 1/denominator per recorded unit
    found = None
    for exps in poly.terms:
        chi = Fraction(0)
        for l, e in enumerate(exps):
            if e:
                w = Fraction(factor.weights[l])
                chi += (w / denominator if l == chart else w) * e
        chi %= factor.order
        if found is None:
            found = chi
        elif chi != found:
            return None
    return found


def chart_singularities(germ: CIGerm, v: Sequence) -> tuple[ChartFinding, ...]:
    """Per-chart analysis of the strict transform at the chart origins."""
    if germ.fiber_dimension != 3:
        raise DimensionError("chart analysis needs a three-fold germ")
    vv = tuple(Fraction(x) for x in v)
    _weight_map(germ, vv)
    m = len(germ.variables)
    report = blowup_charts(germ.ambient, vv)
    denominator = 1
    for x in vv:
        denominator = denominator * x.denominator // math.gcd(denominator, x.denominator)

    findings = []
    for i, var in enumerate(germ.variables):
        transforms = [_strict_transform(eq, germ.variables, vv, i, denominator)
                      for eq in germ.equations]
        for factor in report.charts[i].factors:
            for poly in transforms:
                if _chart_character(poly, factor, i, denominator) is None:
                    raise ArithmeticError("strict transform lost semi-invariance")

        constant = next((k for k, poly in enumerate(transforms)
                         if poly.constant_term() != 0), None)
        if constant is not None:
            findings.append(ChartFinding(var, SMOOTH,
                                         detail=f"equation {constant} has a nonzero "
                                                f"constant term; origin is off the germ"))
            continue

        linear = []
        for poly in transforms:
            row = []
            for l in range(m):
                probe = [0] * m
                probe[l] = denominator if l == i else 1
                row.append(poly.coefficient(probe))
            linear.append(row)

        chosen = None
        k = len(transforms)
        for cols in combinations(range(m), k):
            minor = [[linear[a][c] for c in cols] for a in range(k)]
            if rational_determinant(minor) != 0:
                chosen = cols
                break
        if k == 0:
            chosen = ()
        if chosen is None:
            findings.append(ChartFinding(var, MANUAL,
                                         detail="no independent linear terms; "
                                                "strict transform is singular or needs "
                                                "analytic units at the chart origin"))
            continue

        keep = [l for l in range(m) if l not in chosen]
        residual = effective_factors(report.charts[i].restricted(keep), len(keep))
        if not residual:
            findings.append(ChartFinding(var, SMOOTH,
                                         detail="residual group is trivial"))
        elif len(residual) == 1:
            qtype = residual[0].as_type().normalized()
            findings.append(ChartFinding(var, QUOTIENT, qtype,
                                         detail=f"quotient point of type {qtype}"))
        else:
            findings.append(ChartFinding(var, MANUAL,
                                         detail="residual group is not cyclic"))
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
    return BlowupReport(equation_orders(germ, v), discrepancy(germ, v),
                        e_cubed(germ, v), chart_singularities(germ, v))


# -- the full model pipeline ---------------------------------------------------


def model_germ(model: CD2Model) -> CIGerm:
    return CIGerm(AMBIENT, GERM_VARIABLES, model_equations(model))


def verify_blowup_profile(model: CD2Model) -> ValidationReport:
    """Check the numeric profile of a model's weighted blow-up.

    A model failing validation is rejected before any blow-up runs.  For a
    valid model the blow-up must have discrepancy exactly 2, E^3 exactly
    1/r, no charts needing manual analysis, and exactly one non-smooth
    chart finding, a quotient point of type 1/(2r)(1, 2r-1, r+4).
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
    expected = QuotientType(2 * r, (1, 2 * r - 1, r + 4)).normalized()
    found = (len(nonsmooth) == 1 and nonsmooth[0].kind == QUOTIENT
             and nonsmooth[0].quotient == expected)
    detail = (nonsmooth[0].to_json_dict() if nonsmooth else {"finding": "none"})
    checks.append(CheckResult("quotient_type", found,
                              f"expected {expected}, found {detail}"))
    return ValidationReport(tuple(checks))
