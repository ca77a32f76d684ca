"""Exact sparse multivariate polynomials over the rationals.

A polynomial maps exponent vectors to nonzero Fraction coefficients over
an ordered tuple of named variables; binary operations align two variable
tuples by name first.  Beside + - * == the module gives weighted orders
(the vanishing order along the exceptional divisor of a weighted blow-up),
cyclic semi-invariance, exact square roots, the detector for squares
(x3*s(x3^2, x4))^2 and the model-file JSON form.  No floating point
appears: every coefficient and order is a Fraction.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Iterable, Mapping
from fractions import Fraction


class SparsePoly:
    """Sparse polynomial with Fraction coefficients and named variables."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple, object] | None = None):
        variables = tuple(variables)
        arity = len(variables)
        if len(set(variables)) != arity:
            raise ValueError("duplicate variable names")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            try:
                exps = tuple(map(operator.index, exps))
            except TypeError:
                raise ValueError("exponents must be integers") from None
            if len(exps) != arity:
                raise ValueError("exponent vector arity mismatch")
            if exps and min(exps) < 0:
                raise ValueError("negative exponent")
            if type(coeff) is not Fraction:
                if isinstance(coeff, float):
                    raise ValueError(f"coefficient {coeff!r} is a float, not an exact rational")
                coeff = Fraction(coeff)
            if coeff:
                clean[exps] = coeff
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of_checked_terms(cls, variables: tuple[str, ...],
                          terms: dict[tuple[int, ...], Fraction]) -> "SparsePoly":
        """The polynomial of terms as __init__ leaves them: distinct names,
        keys of len(variables) non-negative ints, nonzero Fraction values.
        Nothing is checked again, and terms is kept, not copied."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    @classmethod
    def monomial(cls, variables: Iterable[str], exponents: Iterable[int], coefficient=1) -> "SparsePoly":
        return cls(variables, {tuple(exponents): coefficient})

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def arity(self) -> int:
        return len(self.variables)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.arity, Fraction(0))

    def coefficient(self, exponents: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

    def with_variables(self, variables: Iterable[str]) -> "SparsePoly | None":
        """This polynomial over another variable tuple, in one pass over its
        checked terms, or None when the tuple lacks a used variable; repeated
        names in the tuple raise ValueError after that."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        index = {v: i for i, v in enumerate(variables)}
        slots = [index.get(v) for v in self.variables]
        terms = {}
        for exps, c in self.terms.items():
            new = [0] * len(variables)
            for k, e in zip(slots, exps):
                if e:
                    if k is None:
                        return None
                    new[k] = e
            terms[tuple(new)] = c
        if len(index) != len(variables):
            raise ValueError("duplicate variable names")
        return SparsePoly._of_checked_terms(variables, terms)

    # -- arithmetic --------------------------------------------------------

    def _aligned(self, other: "SparsePoly") -> tuple["SparsePoly", "SparsePoly"]:
        if self.variables == other.variables:
            return self, other
        merged = self.variables + tuple(v for v in other.variables if v not in self.variables)
        return self.with_variables(merged), other.with_variables(merged)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        a, b = self._aligned(other)
        return a.terms == b.terms

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return NotImplemented
        a, b = self._aligned(other)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return SparsePoly(a.variables, terms)

    def __sub__(self, other) -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + -other

    def __mul__(self, other) -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return SparsePoly(self.variables, {e: c * x for e, x in self.terms.items()})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        a, b = self._aligned(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                key = tuple(map(operator.add, e1, e2))
                c = c1 * c2
                terms[key] = terms[key] + c if key in terms else c
        return SparsePoly(a.variables, terms)

    __rmul__ = __mul__

    # -- display -----------------------------------------------------------

    def _term_str(self, exps, coeff) -> str:
        factors = []
        for v, e in zip(self.variables, exps):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        if not factors:
            return str(coeff)
        body = "*".join(factors)
        if coeff == 1:
            return body
        if coeff == -1:
            return f"-{body}"
        return f"{coeff}*{body}"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = [self._term_str(e, c) for e, c in sorted(self.terms.items(), reverse=True)]
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out

    def __repr__(self) -> str:
        return f"SparsePoly({self.variables!r}, {self.terms!r})"


# -- weighted orders -------------------------------------------------------


def scaled_term_weights(p: SparsePoly, weights: Mapping) -> tuple[list[int], int]:
    """The weight of each term of p, in p.terms order, times one common
    denominator of the weights of p's variables; and that denominator.
    A used variable without a weight raises KeyError, naming the first one
    in term order; an unused one counts as weight 0."""
    missing = [k for k, v in enumerate(p.variables) if v not in weights]
    if missing:
        for exps in p.terms:
            name = next((p.variables[k] for k in missing if exps[k]), None)
            if name is not None:
                raise KeyError(f"no weight for variable {name!r}")
    values = [w if type(w) is int else Fraction(w)
              for w in (weights[v] if v in weights else 0 for v in p.variables)]
    denominator = math.lcm(*(w.denominator for w in values))
    scaled = [w.numerator * (denominator // w.denominator) for w in values]
    return [sum(map(operator.mul, scaled, e)) for e in p.terms], denominator


def weighted_order(p: SparsePoly, weights: Mapping) -> Fraction:
    """Minimum weight over the monomials of p; ValueError for the zero polynomial."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no weighted order")
    powers, denominator = scaled_term_weights(p, weights)
    return Fraction(min(powers), denominator)


def is_semi_invariant(exponents: Iterable[tuple[int, ...]], action: QuotientType) -> int | None:
    """The common character mod action.n of the monomials with these
    exponent vectors (the keys of a term map), or None when they differ.
    Weight k goes with entry k; a vector of another length raises
    ValueError.  No monomials have character 0."""
    n, weights = action.n, action.weights
    found = set()
    for exps in exponents:
        if len(exps) != len(weights):
            raise ValueError(f"exponent vector {list(exps)} does not match "
                             f"the {len(weights)} weights of {action}")
        found.add(sum(map(operator.mul, weights, exps)) % n)
    if len(found) > 1:
        return None
    return found.pop() if found else 0


# -- exact square roots and the special square form -------------------------


def _fraction_sqrt(c: Fraction) -> Fraction | None:
    if c < 0:
        return None
    sn = math.isqrt(c.numerator)
    sd = math.isqrt(c.denominator)
    if sn * sn != c.numerator or sd * sd != c.denominator:
        return None
    return Fraction(sn, sd)


# the most term products polynomial_sqrt may take; a root of T terms takes
# T*(T+1)/2 - 1 of them, so roots of up to 223 terms fit
SQRT_STEP_LIMIT = 25_000


def polynomial_sqrt(p: SparsePoly) -> SparsePoly | None:
    """Exact square root of p, or None if p is not a perfect square.

    Peels the root term by term from the lexicographically leading monomial;
    one remainder, p minus the square of the root so far, gives each next
    term, and the root is returned only when it reaches zero, so its square
    is exactly p.  More than SQRT_STEP_LIMIT term products, or a root
    coefficient of more than DIGIT_LIMIT digits, raise ValueError: a peel
    cut short has no verdict.
    """
    if p.is_zero:
        return SparsePoly(p.variables)
    lead = max(p.terms)
    if any(e % 2 for e in lead):
        return None
    lead_coeff = _fraction_sqrt(p.terms[lead])
    if lead_coeff is None:
        return None
    half = tuple(e // 2 for e in lead)
    root_terms: dict[tuple[int, ...], Fraction] = {half: lead_coeff}
    remainder = dict(p.terms)
    del remainder[lead]
    previous = None
    steps = 0
    while remainder:
        top = max(remainder)
        exps = tuple(a - b for a, b in zip(top, half))
        if any(e < 0 for e in exps):
            return None
        if previous is not None and exps >= previous:
            return None
        previous = exps
        steps += len(root_terms) + 1
        if steps > SQRT_STEP_LIMIT:
            raise ValueError(f"the square root of a polynomial of {len(p.terms)} terms takes "
                             f"more than SQRT_STEP_LIMIT = {SQRT_STEP_LIMIT} steps")
        c = remainder[top] / (2 * lead_coeff)
        check_digits(str(c), "a coefficient of the square root")
        taken = [(tuple(map(operator.add, exps, e)), 2 * c * d) for e, d in root_terms.items()]
        taken.append((tuple(2 * e for e in exps), c * c))
        for key, d in taken:
            rest = remainder.get(key, 0) - d
            if rest:
                remainder[key] = rest
            else:
                del remainder[key]
        root_terms[exps] = c
    return SparsePoly(p.variables, root_terms)


def detect_square_form(q: SparsePoly) -> tuple[Fraction, SparsePoly] | None:
    """(c, s) when q == c * (x3 * s(x3^2, x4))^2, a constant times a square
    over C, otherwise None.  Then the root of q / lc(q) has rational
    coefficients, so the peel stays over Q; c is 1 when lc(q) is a
    rational square, else lc(q).  s is over (x3, x4), with even x3 powers.
    """
    names = ("x3", "x4")
    flat = None if q.is_zero else q.with_variables(names)
    if flat is None:
        return None
    lead = flat.terms[max(flat.terms)]
    c = Fraction(1) if _fraction_sqrt(lead) is not None else lead
    root = polynomial_sqrt(flat if c == 1 else flat * (1 / c))
    if root is None:
        return None
    if any(e[0] % 2 == 0 for e in root.terms):
        return None
    return c, SparsePoly(names, {(e[0] - 1, e[1]): d for e, d in root.terms.items()})


# -- JSON form ---------------------------------------------------------------


def poly_to_dict(p: SparsePoly) -> dict:
    """JSON-ready form: {"vars": [...], "terms": [{"c": "p/q", "e": [...]}, ...]}."""
    return {
        "vars": list(p.variables),
        "terms": [{"c": str(c), "e": list(e)} for e, c in sorted(p.terms.items())],
    }


def is_json_int(x) -> bool:
    """True for a JSON integer; JSON booleans load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

# the most digits of a number in input (a rational, a JSON integer, a quotient
# order or weight); below CPython's own bound on int() of a string
DIGIT_LIMIT = 1000


def check_digits(text: str, what: str) -> None:
    """Refuse a numeral of more than DIGIT_LIMIT digits, naming `what` and
    the digit count but not the numeral."""
    digits = sum(map(str.isdigit, text)) if len(text) > DIGIT_LIMIT else 0
    if digits > DIGIT_LIMIT:
        raise ValueError(f"{what} has {digits} digits; at most DIGIT_LIMIT = {DIGIT_LIMIT}")


# the most characters of input that an error message quotes in full
_EXCERPT_LIMIT = 80


def _excerpt(value, render=repr) -> str:
    """render(value) in full up to _EXCERPT_LIMIT characters, else its first
    _EXCERPT_LIMIT characters and its length, so that no error message
    repeats arbitrarily large input."""
    text = render(value)
    if len(text) <= _EXCERPT_LIMIT:
        return text
    return f"{text[:_EXCERPT_LIMIT]}... ({len(text)} characters)"


def parse_rational(x, what: str) -> Fraction:
    """A JSON integer, or a string "n" or "p/q" of ASCII digits with an
    optional leading minus, as a Fraction.  Any other value (exponent or
    decimal notation, underscores, spaces, a plus sign) or more than
    DIGIT_LIMIT digits raise ValueError naming it as `what`; a zero
    denominator raises ZeroDivisionError."""
    return Fraction(x) if is_json_int(x) else _parse_rational_text(x, what)


def _parse_rational_text(x, what: str) -> Fraction:
    # parse_rational of anything but a JSON integer
    match = _RATIONAL.fullmatch(x) if isinstance(x, str) else None
    if match is None:
        raise ValueError(f"{what} {_excerpt(x)} is not an integer or a 'p/q' string")
    check_digits(x, what)
    numerator, denominator = match.groups()
    return Fraction(int(numerator), int(denominator)) if denominator else Fraction(int(numerator))


def json_fields(data, what: str, *keys: str) -> list:
    """The values of keys in data, a JSON object described as `what`;
    ValueError if data is not an object or lacks a key, naming the first."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"{what} has no key {missing[0]!r}")
    return [data[key] for key in keys]


# the type of the exponents json.load gives
_INT = frozenset((int,))


def _exponent_vector(e) -> tuple[int, ...] | None:
    """e as a tuple of plain ints when it is a list of JSON integers, else None."""
    if not isinstance(e, list):
        return None
    if _INT.issuperset(map(type, e)):
        return tuple(e)
    return tuple(map(int, e)) if all(map(is_json_int, e)) else None


def poly_from_dict(data: Mapping) -> SparsePoly:
    """Inverse of poly_to_dict, in one pass over the terms; ValueError on
    any other shape.  Each term is checked once, in this order: its shape
    (an object with a list 'e' of JSON integers and a JSON integer or
    string 'c'), a repeated vector, then the coefficient; the first failing
    term raises.  Only then do repeated variable names raise, and then the
    first vector of the wrong length or with a negative entry.  A zero
    coefficient is dropped, but its vector still counts as a repeat.
    """
    variables, terms = json_fields(data, "a polynomial", "vars", "terms")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise ValueError("polynomial 'vars' must be a list of strings, "
                         f"got {_excerpt(variables)}")
    if not isinstance(terms, list):
        raise ValueError(f"polynomial 'terms' must be a list, got {_excerpt(terms)}")
    arity = len(variables)
    clean: dict[tuple[int, ...], Fraction] = {}
    dropped = set()  # the vectors of zero coefficients
    misfit = None  # why the first vector that does not fit the variables fails
    for t in terms:
        # a dict is a Mapping; the type test spares it the slower ABC test
        is_object = type(t) is dict or isinstance(t, Mapping)
        e, c = (t.get("e"), t.get("c")) if is_object else (None, None)
        exps = _exponent_vector(e)
        if exps is None or not (isinstance(c, str) or is_json_int(c)):
            raise ValueError("each polynomial term must be an object with an integer "
                             f"list 'e' and an integer or 'p/q' string 'c', got {_excerpt(t)}")
        if exps in clean or exps in dropped:
            raise ValueError(f"exponent vector {_excerpt(e, str)} appears twice in a polynomial")
        try:
            coeff = _parse_rational_text(c, "coefficient") if isinstance(c, str) else Fraction(c)
        except ZeroDivisionError:
            raise ValueError(f"coefficient {_excerpt(c)} has a zero denominator") from None
        if coeff:
            clean[exps] = coeff
        else:
            dropped.add(exps)
        if misfit is None and (len(exps) != arity or exps and min(exps) < 0):
            misfit = ("exponent vector arity mismatch" if len(exps) != arity
                      else "negative exponent")
    if len(set(variables)) != arity:
        raise ValueError("duplicate variable names")
    if misfit is not None:
        raise ValueError(misfit)
    return SparsePoly._of_checked_terms(tuple(variables), clean)
