"""The polynomial layer against the slow reference it replaced.

The reference is built here: the SparsePoly constructor that converted
every coefficient and added every term to a Fraction zero, the model-file
loader that checked every term again in that constructor
(reference_poly_from_dict, in helpers), term weights as
sums of Fraction products with the weighted order on top of them,
characters of is_semi_invariant summed weight by weight from weights not
reduced mod n, the model equations as sums of SparsePoly values, and the
square-root peel that squared the whole root again for every term.
On seeded random inputs the fast code must give the same values and raise
the same errors, message included.
"""

import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from threefold.models import (CD2Model, GERM_VARIABLES, P_VARIABLES,
                              generate_model, model_equations, valid_r)
from threefold.polynomials import (DIGIT_LIMIT, SparsePoly, is_semi_invariant,
                                   poly_from_dict, polynomial_sqrt, scaled_term_weights,
                                   weighted_order)
from threefold.quotients import QuotientType

from helpers import mutate_model, parse_poly, reference_poly_from_dict

NAMES = ("x1", "x2", "x3", "x4", "x5", "x6")


def reference_terms(variables, terms):
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names")
    clean = {}
    for exps, coeff in (terms or {}).items():
        if not all(isinstance(e, int) for e in exps):
            raise ValueError("exponents must be integers")
        exps = tuple(exps)
        if len(exps) != len(variables):
            raise ValueError("exponent vector arity mismatch")
        if any(e < 0 for e in exps):
            raise ValueError("negative exponent")
        c = Fraction(coeff)
        if c != 0:
            clean[exps] = clean.get(exps, Fraction(0)) + c
            if clean[exps] == 0:
                del clean[exps]
    return variables, clean


def reference_term_weight(variables, exponents, weights):
    total = Fraction(0)
    for v, e in zip(variables, exponents):
        if e:
            if v not in weights:
                raise KeyError(f"no weight for variable {v!r}")
            total += Fraction(weights[v]) * e
    return total


def reference_weighted_order(p, weights):
    if p.is_zero:
        raise ValueError("the zero polynomial has no weighted order")
    return min(reference_term_weight(p.variables, e, weights) for e in p.terms)


def term_weights(p, weights):
    powers, denominator = scaled_term_weights(p, weights)
    return [Fraction(w, denominator) for w in powers]


def outcome(f, *args):
    """("value", result) or ("error", type, message), for comparing two paths."""
    try:
        return ("value", f(*args))
    except Exception as exc:  # every error must match, whatever its type
        return ("error", type(exc), str(exc))


def as_items(poly):
    # dict order included: the old constructor's insertion order is kept
    assert all(type(c) is Fraction for c in poly.terms.values())
    return poly.variables, list(poly.terms.items())


def random_coefficient(rng):
    n, d = rng.randint(-6, 6), rng.randint(1, 6)
    return rng.choice((n, f"{n}/{d}", Fraction(n, d), Fraction(n, d)))


def random_non_integer(rng, e):
    # an exponent int() would have read as e
    return rng.choice((Fraction(2 * e + 1, 2), e + 0.75, float(e), str(e), Fraction(e)))


def random_terms(rng, variables):
    arity = len(variables)
    terms = {}
    for _ in range(rng.randint(0, 8)):
        exps = tuple(rng.randint(0, 4) for _ in range(arity))
        terms[exps] = random_coefficient(rng)
        kind = rng.random()
        if kind < 0.03 and arity:
            terms[(random_non_integer(rng, exps[0]),) + exps[1:]] = 1
        elif kind < 0.08:
            terms[exps + (1,)] = 1
        elif kind < 0.13 and arity:
            terms[exps[:-1] + (-1,)] = 1
    return terms


def random_variables(rng):
    variables = rng.sample(NAMES, rng.randint(0, 5))
    if variables and rng.random() < 0.05:
        variables.append(variables[0])
    return tuple(variables)


def random_poly(rng, variables=None):
    variables = variables or tuple(rng.sample(NAMES, rng.randint(1, 5)))
    terms = {tuple(rng.randint(0, 5) for _ in variables): random_coefficient(rng)
             for _ in range(rng.choice((0, 1, 2, 4, 8)))}
    return SparsePoly(variables, terms)


def random_weights(rng, variables):
    weights = {}
    for v in variables:
        if rng.random() < 0.15:
            continue  # a missing weight: fine if v is unused, KeyError if used
        n, d = rng.randint(-2, 12), rng.choice((1, 1, 2, 3, 4, 5, 6, 7))
        weights[v] = rng.choice((Fraction(n, d), Fraction(n, d), n, f"{n}/{d}"))
    return weights


CASES = range(1500)


def test_constructor_matches_reference():
    rng = random.Random(20111)
    seen = set()
    for _ in CASES:
        variables = random_variables(rng)
        terms = random_terms(rng, variables)
        expected = outcome(reference_terms, variables, terms)
        got = outcome(lambda: as_items(SparsePoly(variables, terms)))
        if expected[0] == "value":
            expected = ("value", (expected[1][0], list(expected[1][1].items())))
        assert got == expected, (variables, terms)
        seen.add(expected[2] if expected[0] == "error" else "value")
    # every check was reached
    assert seen == {"value", "duplicate variable names", "exponent vector arity mismatch",
                    "negative exponent", "exponents must be integers"}


def test_constructor_rejects_non_integer_exponents():
    # an exponent int() would truncate is refused, alone or beside its
    # integer twin, which it would otherwise have merged with or cancelled
    rng = random.Random(20112)
    refused = ("error", ValueError, "exponents must be integers")
    for _ in CASES:
        variables = tuple(rng.sample(NAMES, rng.randint(1, 4)))
        exps = tuple(rng.randint(0, 3) for _ in variables)
        c = random_coefficient(rng)
        k = rng.randrange(len(variables))
        twin = exps[:k] + (random_non_integer(rng, exps[k]),) + exps[k + 1:]
        # a twin equal to exps, such as (2.0,) beside (2,), is the same key
        pair = [{exps: c, twin: -Fraction(c)}] if twin != exps else []
        for terms in [{twin: c}, *pair]:
            assert outcome(reference_terms, variables, terms) == refused
            assert outcome(SparsePoly, variables, terms) == refused, terms


def test_arithmetic_matches_reference():
    rng = random.Random(20113)
    targets = random.Random(20118)  # the variable tuples for with_variables
    dropped = set()
    for _ in CASES:
        a = random_poly(rng)
        b = (random_poly(rng, a.variables) if rng.random() < 0.5 else
             SparsePoly(a.variables, {e: -c for e, c in a.terms.items() if rng.random() < 0.7}))
        total = dict(a.terms)
        for e, c in b.terms.items():
            total[e] = total.get(e, Fraction(0)) + c
        product = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                product[key] = product.get(key, Fraction(0)) + c1 * c2
        for got, terms in ((a + b, total), (a * b, product)):
            _, clean = reference_terms(a.variables, terms)
            assert as_items(got) == (a.variables, list(clean.items()))
        # with_variables is None exactly when a used variable is dropped
        used = {v for exps in a.terms for v, e in zip(a.variables, exps) if e}
        assert a.with_variables(a.variables) is a
        target = tuple(targets.sample(NAMES, targets.randint(0, 6)))
        moved = a.with_variables(target)
        assert (moved is None) == (not used <= set(target)), (a, target)
        dropped.add(moved is None)
        if moved is not None:
            remapped = [(tuple(dict(zip(a.variables, e)).get(v, 0) for v in target), c)
                        for e, c in a.terms.items()]
            assert as_items(moved) == (target, remapped)
    assert dropped == {True, False}


def test_weights_match_reference():
    rng = random.Random(20114)
    errors = zeros = 0
    for _ in CASES:
        p = random_poly(rng)
        weights = random_weights(rng, p.variables)
        expected = outcome(reference_weighted_order, p, weights)
        assert outcome(weighted_order, p, weights) == expected, (p, weights)
        errors += expected[0] == "error"
        zeros += p.is_zero
        assert outcome(term_weights, p, weights) == outcome(
            lambda: [reference_term_weight(p.variables, e, weights) for e in p.terms])
    assert errors > 0 and zeros > 0


def test_int_fraction_and_mixed_weights_match_reference():
    # the model weights are ints, used as they are; Fractions and a mix of
    # both give the same term weights and orders as the Fraction sums
    rng = random.Random(20117)
    for kind in ("int", "fraction", "mixed"):
        for _ in range(300):
            p = random_poly(rng)
            weights = {}
            for v in p.variables:
                n, d = rng.randint(1, 12), rng.choice((2, 3, 4))
                as_int = kind == "int" or kind == "mixed" and rng.random() < 0.5
                weights[v] = n if as_int else Fraction(n, d)
            expected = [reference_term_weight(p.variables, e, weights) for e in p.terms]
            assert term_weights(p, weights) == expected, (p, weights)
            if not p.is_zero:
                assert weighted_order(p, weights) == reference_weighted_order(p, weights)


@pytest.mark.parametrize("terms, weights, name", [
    # x3 unused: no weight needed
    ({(1, 0, 2): 1, (2, 0, 0): Fraction(1, 2)}, {"x2": 3, "x4": Fraction(1, 2)}, None),
    # the first term using a weightless variable names it
    ({(0, 1, 0): 1, (1, 0, 1): 1}, {"x2": 1}, "x3"),
    ({(1, 0, 1): 1, (0, 1, 0): 1}, {"x2": 1}, "x4"),
    ({(0, 1, 1): 1}, {"x2": 1}, "x3"),
    ({(2, 0, 0): 1, (0, 0, 1): 1}, {"x2": Fraction(1, 3), "x3": 2}, "x4"),
])
def test_missing_weights(terms, weights, name):
    p = SparsePoly(P_VARIABLES, terms)
    expected = outcome(lambda: [reference_term_weight(p.variables, e, weights)
                                for e in p.terms])
    assert outcome(term_weights, p, weights) == expected
    if name is None:
        assert expected[0] == "value"
    else:
        assert expected == ("error", KeyError, repr(f"no weight for variable {name!r}"))


def loaded(load, data):
    """The variables, the term items in order and the types of every
    exponent and coefficient of load(data), or its error's type and message."""
    try:
        poly = load(data)
    except Exception as exc:  # every error must match, whatever its type
        return ("error", type(exc), str(exc))
    types = {type(x) for exps in poly.terms for x in exps} | set(map(type, poly.terms.values()))
    return ("value", poly.variables, list(poly.terms.items()), types)


def error_kind(message):
    return next((kind for kind in ("twice", "zero denominator", "each polynomial term",
                                   "duplicate variable", "arity mismatch", "negative",
                                   "JSON object") if kind in message), message)


def test_loader_matches_reference_on_mutated_model_files():
    # the model files of test_cli's exit-contract test, drawn the same way
    rng = random.Random(24)
    bases = [generate_model(r, seed).to_json_dict() for r in (7, 9, 15) for seed in (1, 2)]
    seen = Counter()
    for _ in range(300):
        data = json.loads(json.dumps(rng.choice(bases)))
        for _ in range(rng.randint(1, 2)):
            if isinstance(data["p"], dict) and isinstance(data["q"], dict):
                mutate_model(rng, data)
        for poly in (data["p"], data["q"]):
            expected = loaded(reference_poly_from_dict, poly)
            assert loaded(poly_from_dict, poly) == expected, poly
            seen[error_kind(expected[2]) if expected[0] == "error" else "value"] += 1
    assert set(seen) == {"value", "zero denominator", "each polynomial term",
                         "duplicate variable", "arity mismatch", "negative",
                         "JSON object"}, seen


class Exponent(int):
    """An int subclass, which the loaders store as a plain int."""


def term(c, *e):
    return {"c": c, "e": list(e)}


GOOD = term("-3/7", 1, 0)
TOO_LONG = "1" * (DIGIT_LIMIT + 1)


@pytest.mark.parametrize("variables, terms, message", [
    # a per-term error after a wrong-arity or negative term comes first
    (["a", "b"], [term(1, 1), term("x", 1, 0)], "coefficient 'x' is not an integer"),
    (["a", "b"], [term(1, -1, 0), term("1/0", 0, 1)], "coefficient '1/0' has a zero"),
    (["a", "b"], [term(1, 1, 0, 0), term(1.5, 0, 1)], "each polynomial term"),
    (["a", "b"], [term(1, 1), GOOD, term(2, 1, 0)], "exponent vector [1, 0] appears twice"),
    # and before repeated names
    (["a", "a"], [term("1/0", 1, 0)], "coefficient '1/0' has a zero denominator"),
    (["a", "a"], [GOOD, GOOD], "exponent vector [1, 0] appears twice"),
    (["a", "a"], [term(1, 1), term(1, -1, 0)], "duplicate variable names"),
    # one term: its shape, then a repeat, then its coefficient
    (["a", "b"], [GOOD, term(1.5, 1, 0)], "each polynomial term"),
    (["a", "b"], [GOOD, term("1/0", 1, 0)], "exponent vector [1, 0] appears twice"),
    (["a", "b"], [term(TOO_LONG + "/0", 1, 0)], f"coefficient has {DIGIT_LIMIT + 2} digits"),
    # a zero coefficient is dropped but still repeats; its vector still fits or not
    (["a", "b"], [term("0", 1, 0), term(3, 1, 0)], "exponent vector [1, 0] appears twice"),
    (["a", "b"], [term("-0/5", 1, 0), term(0, 1, 0)], "exponent vector [1, 0] appears twice"),
    (["a", "b"], [term("0", 1), GOOD], "exponent vector arity mismatch"),
    (["a", "b"], [term(0, 2, 0), GOOD], None),
    # the first vector that does not fit names the error; arity before sign
    (["a", "b"], [GOOD, term(1, -1, 0)], "negative exponent"),
    (["a", "b"], [term(1, 0, -2), term(1, 1)], "negative exponent"),
    (["a", "b"], [term(1, 1), term(1, 0, -2)], "exponent vector arity mismatch"),
    (["a", "b"], [term(1, -1)], "exponent vector arity mismatch"),
    (["a", "b"], [term(1, True, 0)], "each polynomial term"),
    (["a", "b"], [term(2, Exponent(1), Exponent(0)), term("1/2", 0, 1)], None),
    ([], [term(5)], None),
])
def test_loader_precedence_matches_reference(variables, terms, message):
    data = {"vars": variables, "terms": terms}
    expected = loaded(reference_poly_from_dict, data)
    assert loaded(poly_from_dict, data) == expected
    if message is None:
        assert expected[0] == "value" and expected[3] <= {int, Fraction}
    else:
        assert expected[:2] == ("error", ValueError) and expected[2].startswith(message)


def reference_is_semi_invariant(exponents, n, weights):
    characters = []
    for exps in exponents:
        if len(exps) != len(weights):
            raise ValueError("exponent vector length differs from the weight count")
        chi = 0
        for w, e in zip(weights, exps):
            chi += w * e
        characters.append(chi % n)
    found = None
    for chi in characters:
        if found is None:
            found = chi
        elif chi != found:
            return None
    return 0 if found is None else found


def semi_invariant_poly(rng, n, weights, variables):
    # terms of one character, found by rejection, so the value path is common
    target = rng.randrange(n)
    terms = {}
    for _ in range(40):
        exps = tuple(rng.randint(0, 5) for _ in variables)
        if sum(w * e for w, e in zip(weights, exps)) % n == target:
            terms[exps] = random_coefficient(rng) or 1
        if len(terms) == 4:
            break
    return SparsePoly(variables, terms)


def test_semi_invariance_matches_reference():
    # weights line up with the exponent vectors by position; one action in
    # ten has one weight too few or too many
    rng = random.Random(20116)
    seen = {"value": 0, "none": 0, "error": 0, "zero": 0}
    for _ in CASES:
        variables = tuple(rng.sample(NAMES, rng.randint(1, 5)))
        n = rng.choice((1, 2, 3, 4, 6, 12))
        weights = tuple(rng.randint(-n, 2 * n) for _ in variables)
        if rng.random() < 0.1:
            weights = weights[:-1] if rng.random() < 0.5 else weights + (rng.randrange(n),)
        p = (semi_invariant_poly(rng, n, weights, variables) if rng.random() < 0.5
             else random_poly(rng, variables))
        expected = outcome(reference_is_semi_invariant, p.terms, n, weights)
        got = outcome(is_semi_invariant, p.terms, QuotientType(n, weights))
        assert got[:2] == expected[:2], (p, n, weights)
        seen["zero"] += p.is_zero
        seen["error" if expected[0] == "error" else
             "none" if expected[1] is None else "value"] += 1
    assert min(seen.values()) > 20, seen


def reference_model_equations(model):
    first = (parse_poly("x1^2 + x4*x5", GERM_VARIABLES)
             + model.p.with_variables(GERM_VARIABLES))
    second = (parse_poly("x2^2", GERM_VARIABLES)
              + model.q.with_variables(GERM_VARIABLES)
              + parse_poly("x5", GERM_VARIABLES))
    return first, second


def test_model_equations_match_reference():
    for r in filter(valid_r, range(101)):
        for seed in (0, 1):
            model = generate_model(r, seed)
            if seed:
                model = CD2Model(r, SparsePoly(P_VARIABLES), model.q)
            got, expected = model_equations(model), reference_model_equations(model)
            assert [as_items(eq) for eq in got] == [as_items(eq) for eq in expected], r


def reference_fraction_sqrt(c):
    if c < 0:
        return None
    n, d = math.isqrt(c.numerator), math.isqrt(c.denominator)
    return Fraction(n, d) if n * n == c.numerator and d * d == c.denominator else None


def reference_sqrt(p):
    # the peel polynomial_sqrt replaced: after each new term it squares the
    # whole root so far and subtracts it from p again
    if p.is_zero:
        return SparsePoly(p.variables)
    lead = max(p.terms)
    if any(e % 2 for e in lead):
        return None
    lead_coeff = reference_fraction_sqrt(p.terms[lead])
    if lead_coeff is None:
        return None
    half = tuple(e // 2 for e in lead)
    root_terms = {half: lead_coeff}
    previous = None
    while True:
        root = SparsePoly(p.variables, root_terms)
        remainder = p - root * root
        if remainder.is_zero:
            return root
        top = max(remainder.terms)
        exps = tuple(a - b for a, b in zip(top, half))
        if any(e < 0 for e in exps):
            return None
        if previous is not None and exps >= previous:
            return None
        previous = exps
        root_terms[exps] = remainder.terms[top] / (2 * lead_coeff)


def sqrt_items(p):
    root = polynomial_sqrt(p)
    return None if root is None else as_items(root)


def test_sqrt_matches_reference():
    # squares written as products s*s, squares perturbed below their
    # leading term (so the peel runs before it fails), and random
    # polynomials, over three variables
    rng = random.Random(20117)
    variables = ("x1", "x3", "x4")
    kinds = {"square": 0, "none": 0}
    for case in range(3000):
        s = random_poly(rng, variables)
        p = s * s
        if case % 3 == 1 and not p.is_zero:
            lead = max(p.terms)
            below = [e for e in (tuple(rng.randint(0, 8) for _ in variables)
                                 for _ in range(4)) if e < lead]
            p = p + SparsePoly(variables, {e: random_coefficient(rng) for e in below})
        elif case % 3 == 2:
            p = random_poly(rng, variables)
        expected = reference_sqrt(p)
        expected = None if expected is None else as_items(expected)
        assert sqrt_items(p) == expected, p
        kinds["none" if expected is None else "square"] += 1
    assert min(kinds.values()) > 1000, kinds
