"""Helpers shared by the test modules.

The package reads polynomials only from model JSON (poly_from_dict); tests
write them as text, which parse_poly reads.  reference_poly_from_dict is the
loader poly_from_dict replaced, and mutate_model seeds one defect into a
model file's dict.  is_primitive reads primitivity off the lattice
coordinates the chart code computes.  pytest puts this directory on
sys.path for every test module in it (the tests directory is no package),
so ``from helpers import ...`` works under a whole-suite run, for one test
file, and from inside the directory.
"""

import json
import math
import re
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

from threefold.models import CD2Model, GERM_VARIABLES, P_VARIABLES, Q_VARIABLES
from threefold.polynomials import (SparsePoly, _excerpt, is_json_int, json_fields,
                                   parse_rational)
from threefold.quotients import _lattice_point

_POWER = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)(?:\^(?P<exp>[0-9]+))?")


def parse_poly(text, variables):
    """Parse a flat polynomial expression such as "x1^2 + x4*x5 - 1/2*x3^4".

    No parentheses; terms are separated by + and -, factors inside a term
    by *.  A factor is either a rational in the model-file grammar (an
    integer or p/q of ASCII digits) or name[^exp] with ASCII digits.
    """
    variables = tuple(variables)
    index = {v: i for i, v in enumerate(variables)}
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    chunks = []
    current = ""
    for ch in s:
        if ch in "+-" and current:
            chunks.append(current)
            current = ch if ch == "-" else ""
        else:
            current += ch
    chunks.append(current)
    terms = {}
    for chunk in chunks:
        if chunk in ("", "-"):
            raise ValueError(f"malformed term in {text!r}")
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign = Fraction(-1)
            chunk = chunk[1:]
        coeff = sign
        exps = [0] * len(variables)
        for factor in chunk.split("*"):
            m = _POWER.fullmatch(factor)
            if not m:
                coeff *= parse_rational(factor, "factor")
                continue
            if m.group("name") not in index:
                raise ValueError(f"unknown factor {factor!r} in {text!r}")
            exps[index[m.group("name")]] += int(m.group("exp") or 1)
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return SparsePoly(variables, terms)


def matrix_product(a, b):
    return [[sum(x * y for x, y in zip(row, col, strict=True)) for col in zip(*b)]
            for row in a]


def reference_eliminate_x5(model):
    """Substitute x5 = -(x2^2 + q) into x1^2 + x4*x5 + p: the hypersurface
    germ x1^2 - x4*(x2^2 + q) + p over (x1, x2, x3, x4)."""
    four = GERM_VARIABLES[:4]
    x4 = parse_poly("x4", four)
    return (parse_poly("x1^2", four) + model.p.with_variables(four)
            - x4 * (parse_poly("x2^2", four) + model.q.with_variables(four)))


def square_variants():
    """Models whose q is a constant times a square: {name: (model, passes)}.

    They start from tests/golden/model_square_r23.json, whose q = (x3*s)^2
    with s = x4^9 + 2*x3^2*x4^5 - 1/3*x3^4*x4.  Model B negates q and adds
    x4^24 to p, which takes the origin of the x4 chart off the germ;
    twice_square doubles q.  On E, x2^2 + q then factors as
    (x2 - a*x3*s)(x2 + a*x3*s) with a^2 = 1 or -2, and the half-twist keeps
    each factor, so E has two components: both models fail.  Model C,
    q = x4^22, is a square too, but its root x4^11 is invariant, so the
    half-twist swaps x2 - i*x4^11 and x2 + i*x4^11 and E stays irreducible
    in the quotient: C passes.
    """
    golden = Path(__file__).parent / "golden" / "model_square_r23.json"
    square = CD2Model.from_json_dict(json.loads(golden.read_text(encoding="utf-8")))
    return {
        "model_B": (CD2Model(23, square.p + parse_poly("x4^24", P_VARIABLES), -square.q),
                    False),
        "twice_square": (CD2Model(23, square.p, square.q * 2), False),
        "model_C": (CD2Model(23, parse_poly("x3^12", P_VARIABLES),
                             parse_poly("x4^22", Q_VARIABLES)), True),
    }


def reference_poly_from_dict(data):
    """The two-step loader poly_from_dict replaced: every term's shape, a
    repeated vector and the coefficient in one loop, then the SparsePoly
    constructor, which checks the names and every vector's arity and sign
    again and drops the zero coefficients."""
    variables, terms = json_fields(data, "a polynomial", "vars", "terms")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise ValueError("polynomial 'vars' must be a list of strings, "
                         f"got {_excerpt(variables)}")
    if not isinstance(terms, list):
        raise ValueError(f"polynomial 'terms' must be a list, got {_excerpt(terms)}")
    clean = {}
    for t in terms:
        e, c = (t.get("e"), t.get("c")) if isinstance(t, Mapping) else (None, None)
        if (not isinstance(e, list) or not all(is_json_int(x) for x in e)
                or not (is_json_int(c) or isinstance(c, str))):
            raise ValueError("each polynomial term must be an object with an integer "
                             f"list 'e' and an integer or 'p/q' string 'c', got {_excerpt(t)}")
        exps = tuple(e)
        if exps in clean:
            raise ValueError(f"exponent vector {_excerpt(e, str)} appears twice in a polynomial")
        try:
            clean[exps] = parse_rational(c, "coefficient")
        except ZeroDivisionError:
            raise ValueError(f"coefficient {_excerpt(c)} has a zero denominator") from None
    return SparsePoly(variables, clean)


def mutate_model(rng, data):
    """One seeded defect in a model file's dict: a bool, negative or
    wrong-arity exponent, a coefficient "0", "1/0" or 1.5, a foreign or
    duplicate variable name, or a p or q that is no object."""
    name = rng.choice(("p", "q"))
    poly = data[name]
    term = rng.choice(poly["terms"])
    kind = rng.randrange(9)
    if kind == 0:
        term["e"][rng.randrange(3)] = rng.choice((True, False))
    elif kind == 1:
        term["e"][rng.randrange(3)] = -rng.randint(1, 3)
    elif kind == 2:
        term["e"] = term["e"] + [0] if rng.random() < 0.5 else term["e"][:rng.randrange(3)]
    elif kind in (3, 4, 5):
        term["c"] = ("0", "1/0", 1.5)[kind - 3]
    elif kind == 6:
        poly["vars"][rng.randrange(3)] = rng.choice(("x1", "x2", "x5", "y"))
    elif kind == 7:
        k = rng.randrange(3)
        poly["vars"][k] = poly["vars"][k - 1]
    else:
        data[name] = rng.choice(([], "x3^2", 7, None, [poly]))


def is_primitive(ambient, vector):
    """Whether vector is a primitive vector of the lattice of ambient: it lies
    in the lattice and its coordinates there, from _lattice_point, are coprime."""
    point = _lattice_point(ambient, vector)
    return point is not None and math.gcd(*point[2]) == 1
