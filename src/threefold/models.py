"""The cD/2 germ family

    x1^2 + x4*x5 + p(x2,x3,x4) = 0,  x2^2 + q(x1,x3,x4) + x5 = 0
    inside C^5 / (1/2)(1,1,1,0,0),   wt(x1..x5) = ((r+1)/2,(r-1)/2,2,1,r),

with r >= 7, r = +-1 mod 8, p of weighted order > r, q weighted
homogeneous of weight r-1, both invariant under the half-twist, and q not
a constant times a square of the shape (x3*s(x3^2,x4))^2.  This module
validates such models, generates deterministic random ones, and writes
their two defining equations over (x1,...,x5).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction

from .polynomials import (SparsePoly, _excerpt, detect_square_form, is_json_int,
                          json_fields, poly_from_dict, poly_to_dict)
from .quotients import QuotientType

GERM_VARIABLES = ("x1", "x2", "x3", "x4", "x5")
P_VARIABLES = ("x2", "x3", "x4")
Q_VARIABLES = ("x1", "x3", "x4")
AMBIENT = QuotientType(2, (1, 1, 1, 0, 0))


def model_weights(r: int) -> dict[str, int]:
    """Blow-up weights on (x1,...,x5) for the given r."""
    return {"x1": (r + 1) // 2, "x2": (r - 1) // 2, "x3": 2, "x4": 1, "x5": r}


def blowup_vector(r: int) -> tuple[Fraction, ...]:
    w = model_weights(r)
    return tuple(Fraction(w[v]) for v in GERM_VARIABLES)


def valid_r(r: int) -> bool:
    return r >= 7 and r % 8 in (1, 7)


class CheckResult(namedtuple("CheckResult", "name passed detail", defaults=("",))):
    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", "checks")):
    """The CheckResult of each check, in the tuple checks."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
        }


class CD2Model(namedtuple("CD2Model", "r p q")):
    """A candidate germ datum (r, p, q); run validate_model to check it.  The
    constructor re-expresses the SparsePoly p over P_VARIABLES and q over
    Q_VARIABLES."""

    __slots__ = ()

    def __new__(cls, r: int, p: SparsePoly, q: SparsePoly) -> "CD2Model":
        if not isinstance(r, int):
            raise ValueError("r must be an integer")
        flat_p = p.with_variables(P_VARIABLES)
        if flat_p is None:
            raise ValueError("p may involve only x2, x3, x4")
        flat_q = q.with_variables(Q_VARIABLES)
        if flat_q is None:
            raise ValueError("q may involve only x1, x3, x4")
        return tuple.__new__(cls, (r, flat_p, flat_q))

    def to_json_dict(self) -> dict:
        return {"r": self.r, "p": poly_to_dict(self.p), "q": poly_to_dict(self.q)}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "CD2Model":
        r, p, q = json_fields(data, "a model", "r", "p", "q")
        if not is_json_int(r):
            raise ValueError(f"r must be a JSON integer, got {_excerpt(r)}")
        return cls(r, poly_from_dict(p), poly_from_dict(q))


def required_monomials(r: int) -> dict[str, tuple[int, ...]]:
    """The p- and q-monomials forced by the congruence class of r mod 8.

    Exponent tuples are over P_VARIABLES and Q_VARIABLES respectively.
    """
    if not valid_r(r):
        raise ValueError(f"r must be >= 7 and = +-1 mod 8, got {r}")
    if r % 8 == 1:
        return {"p": (1, (r + 3) // 4, 0), "q": (0, (r - 1) // 2, 0)}
    return {"p": (0, (r + 1) // 2, 0), "q": (1, (r - 3) // 4, 0)}


def check_required_monomials(model: CD2Model) -> tuple[CheckResult, CheckResult]:
    need = required_monomials(model.r)
    p_ok = model.p.coefficient(need["p"]) != 0
    q_ok = model.q.coefficient(need["q"]) != 0
    p_mono = SparsePoly(P_VARIABLES, {need["p"]: 1})
    q_mono = SparsePoly(Q_VARIABLES, {need["q"]: 1})
    return (
        CheckResult("required_p_monomial", p_ok,
                    f"{p_mono} {'present in' if p_ok else 'missing from'} p"),
        CheckResult("required_q_monomial", q_ok,
                    f"{q_mono} {'present in' if q_ok else 'missing from'} q"),
    )


def _weights_and_parity(poly: SparsePoly, weights: list[int]) -> tuple[list[int], bool]:
    """The integer weight of each term of poly, a polynomial over
    P_VARIABLES or Q_VARIABLES, under their three weights, in terms order;
    and whether every term has even total degree in the first two
    variables.  Those are the two of x1, x2, x3, which the half-twist
    AMBIENT negates, so that is semi-invariance of character 0."""
    wa, wb, wc = weights
    found = []
    odd = 0
    for a, b, c in poly.terms:
        found.append(a * wa + b * wb + c * wc)
        odd |= a ^ b  # its lowest bit is set once some a + b is odd
    return found, not odd & 1


def validate_model(model: CD2Model, strict: bool = False) -> ValidationReport:
    """Run every model invariant as a named check; failures are report
    entries, and only a square-root peel past its limit raises ValueError.
    With strict=True the congruence-forced monomials must be present too."""
    r = model.r
    weights = model_weights(r)
    checks: list[CheckResult] = []

    congruence = valid_r(r)
    checks.append(CheckResult("congruence", congruence,
                              f"r={r}, r mod 8 = {r % 8}"))

    p_weights, p_even = _weights_and_parity(model.p, [weights[v] for v in P_VARIABLES])
    q_weights, q_even = _weights_and_parity(model.q, [weights[v] for v in Q_VARIABLES])

    # the zero polynomial has no monomial, so its weighted order is infinite
    p_order = "infinite" if model.p.is_zero else min(p_weights)
    checks.append(CheckResult("p_order", model.p.is_zero or p_order > r,
                              f"weighted order of p is {p_order}, needs > {r}"))

    q_homogeneous = bool(q_weights) and all(w == r - 1 for w in q_weights)
    listed = ", ".join(map(str, sorted(set(q_weights))))
    checks.append(CheckResult("q_weight", q_homogeneous,
                              f"q term weights [{listed}], needs exactly {{{r - 1}}}"))

    checks.append(CheckResult("p_parity", p_even,
                              "p must have even total degree in x2, x3 in every term"))
    checks.append(CheckResult("q_parity", q_even,
                              "q must have even total degree in x1, x3 in every term"))

    # q a constant times a square over C makes E reducible
    square = detect_square_form(model.q)
    scale = "" if square is None or square[0] == 1 else f"{square[0]}*"
    checks.append(CheckResult("q_square_free", square is None,
                              "" if square is None else f"q = {scale}(x3*({square[1]}))^2"))

    if strict:
        if congruence:
            checks.extend(check_required_monomials(model))
        else:
            checks.append(CheckResult("required_monomials", False,
                                      "congruence fails, forced monomials undefined"))
    return ValidationReport(tuple(checks))


# -- deterministic model generation ------------------------------------------


def _even_q_monomials(r: int) -> list[tuple[int, ...]]:
    # exponents (a, b, c) over (x1, x3, x4): a*(r+1)/2 + 2b + c = r-1, a+b even
    out = []
    for a in (0, 1):
        rest = (r - 1) - a * (r + 1) // 2
        for b in range(rest // 2 + 1):
            if (a + b) % 2 == 0:
                out.append((a, b, rest - 2 * b))
    return out


def _even_p_monomials(r: int, extra_degree: int) -> list[tuple[int, ...]]:
    # exponents (a, b, c) over (x2, x3, x4): weight in (r, r+extra], a+b even
    w2 = (r - 1) // 2
    top = r + extra_degree
    out = []
    for a in range(top // w2 + 1):
        for b in range((top - a * w2) // 2 + 1):
            if (a + b) % 2:
                continue
            low = max(0, r + 1 - a * w2 - 2 * b)
            for c in range(low, top - a * w2 - 2 * b + 1):
                out.append((a, b, c))
    return out


# the most candidate p-monomials (a, b, c) generate_model may visit: its (a, b)
# pairs times extra_degree + 1 values of c; the r/2 q-candidates are fewer
GENERATE_STEP_LIMIT = 1_000_000


def generate_model(r: int, seed: int, extra_degree: int = 4) -> CD2Model:
    """Deterministically sample a valid model for the given r.

    Fixed algorithm (Mersenne Twister seeded from (r, seed, extra_degree)):
    enumerate the even-parity q-monomials of weight r-1 and the even-parity
    p-monomials of weight in (r, r+extra_degree], keep each optional one
    with probability 1/5, and draw coefficients +-num/den with num, den in
    [1, 9].  The congruence-forced monomials are always included (they are
    necessary for the germ family), as is x4^(r-1) in q, which keeps the
    germ disjoint from the x4-axis away from the origin and hence the
    blow-up chart of x4 smooth at its origin.  x3^2 does not divide that
    term, so q is never of the form (x3*s)^2 and no draw is rejected.
    """
    need = required_monomials(r)  # raises ValueError for an invalid r
    if extra_degree < 0:
        raise ValueError("extra_degree must be non-negative")
    top = r + extra_degree
    steps = (top // ((r - 1) // 2) + 1) * (top // 2 + 1) * (extra_degree + 1)
    if steps > GENERATE_STEP_LIMIT:
        raise ValueError(f"a model of r={r} with extra degree {extra_degree} takes {steps} "
                         f"steps; at most GENERATE_STEP_LIMIT = {GENERATE_STEP_LIMIT}")
    import random  # here, so that importing the CLI does not load it
    rng = random.Random((seed * 1_000_003 + r) * 1_009 + extra_degree)

    def coefficient() -> Fraction:
        return Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))

    q_terms = {need["q"]: coefficient(), (0, 0, r - 1): coefficient()}
    for mono in _even_q_monomials(r):
        if mono not in q_terms and rng.random() < 0.2:
            q_terms[mono] = coefficient()
    q = SparsePoly(Q_VARIABLES, q_terms)

    p_terms = {need["p"]: coefficient()}
    for mono in _even_p_monomials(r, extra_degree):
        if mono not in p_terms and rng.random() < 0.2:
            p_terms[mono] = coefficient()
    p = SparsePoly(P_VARIABLES, p_terms)

    return CD2Model(r, p, q)


# -- the five-variable germ ---------------------------------------------------


# exponents over GERM_VARIABLES of the monomials every model's equations share
_X1_SQUARED, _X4_X5 = (2, 0, 0, 0, 0), (0, 0, 0, 1, 1)
_X2_SQUARED, _X5 = (0, 2, 0, 0, 0), (0, 0, 0, 0, 1)
_ONE = Fraction(1)


def model_equations(model: CD2Model) -> tuple[SparsePoly, SparsePoly]:
    """The two defining equations over (x1,...,x5), built without a second
    check: no term of p (over x2, x3, x4) or of q (over x1, x3, x4) falls
    on x1^2, x4*x5, x2^2 or x5, so the term maps merge without sums."""
    first = {_X1_SQUARED: _ONE, _X4_X5: _ONE}
    first.update(((0, a, b, c, 0), coeff) for (a, b, c), coeff in model.p.terms.items())
    second = {_X2_SQUARED: _ONE}
    second.update(((a, 0, b, c, 0), coeff) for (a, b, c), coeff in model.q.terms.items())
    second[_X5] = _ONE
    return (SparsePoly._of_checked_terms(GERM_VARIABLES, first),
            SparsePoly._of_checked_terms(GERM_VARIABLES, second))
