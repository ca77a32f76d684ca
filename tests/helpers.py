"""Helpers shared by the test modules.

The package reads polynomials only from model JSON (poly_from_dict); tests
write them as text, which parse_poly reads.  reference_poly_from_dict is the
loader poly_from_dict replaced, and mutate_model seeds one defect into a
model file's dict.  lattice_contains and is_primitive read membership and
primitivity off the lattice coordinates the chart code computes, and
ref_normalized is the normal form of a quotient type by a loop over units.
reference_smith_normal_form is the Smith normal form
linalg.smith_normal_form replaced, with the same row and column operations
in the same order through closures, and the only source of the row
transform u, which linalg no longer builds.  determinant expands
over permutations, so it shares no elimination with linalg.  pytest puts this directory on
sys.path for every test module in it (the tests directory is no package),
so ``from helpers import ...`` works under a whole-suite run, for one test
file, and from inside the directory.
"""

import itertools
import json
import math
import re
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

from threefold.linalg import identity_matrix
from threefold.models import CD2Model, GERM_VARIABLES, P_VARIABLES, Q_VARIABLES
from threefold.polynomials import (SparsePoly, _excerpt, is_json_int, json_fields,
                                   parse_rational)
from threefold.quotients import _lattice_points

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


def determinant(matrix):
    """The determinant of a square matrix as a Fraction, by the Leibniz
    expansion: a sum over permutations, each signed by its inversions."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("not square")
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(Fraction(matrix[i][perm[i]]) for i in range(n))
    return total


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
        clean[exps] = parse_rational(c, "coefficient")
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


def lattice_contains(ambient, vector):
    """Whether vector lies in the lattice of ambient, by _lattice_points."""
    return _lattice_points(ambient, [vector])[1][0] is not None


def is_primitive(ambient, vector):
    """Whether vector is a primitive vector of the lattice of ambient: it lies
    in the lattice and its coordinates there, from _lattice_points, are coprime."""
    point = _lattice_points(ambient, [vector])[1][0]
    return point is not None and math.gcd(*point[1]) == 1


def units(n):
    return [u for u in range(1, n + 1) if math.gcd(u, n) == 1]


def ref_normalized(n, weights, unit_list=None):
    """The normal form of 1/n(weights): the least sorted weight tuple over
    the units mod n."""
    return min(tuple(sorted(u * w % n for w in weights)) for u in unit_list or units(n))


def refuse_float(x):
    """x, or ValueError when it is a float, which is inexact as written."""
    if isinstance(x, float):
        raise ValueError(f"matrix entry {x!r} is a float, not an exact rational")
    return x


def reference_smith_normal_form(matrix):
    """(u, d, v, v_inv) with u*matrix*v == d, as linalg.smith_normal_form
    computed them before it was inlined and dropped u: one closure per row
    or column operation, a pivot search over the whole remaining block, and
    the divisibility chain checked for every pivot.  The operations come in
    the same order, so u also fits the (d, v, v_inv) linalg returns.  A
    float entry is refused where int() would read it."""
    d = [[int(refuse_float(x)) for x in row] for row in matrix]
    m = len(d)
    n = len(d[0]) if m else 0
    if any(len(row) != n for row in d):
        raise ValueError("ragged matrix")
    if any(x != y for row, src in zip(d, matrix) for x, y in zip(row, src)):
        raise ValueError("matrix is not integral")
    u = identity_matrix(m)
    v = identity_matrix(n)
    v_inv = identity_matrix(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(i, j, c):
        # row i += c * row j
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):
        # col i += c * col j, and on the inverse row j -= c * row i
        for row in d:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]
        v_inv[j] = [x - c * y for x, y in zip(v_inv[j], v_inv[i])]

    def pivot_position(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pos = pivot_position(t)
        if pos is None:
            break
        if pos[0] != t:
            swap_rows(t, pos[0])
        if pos[1] != t:
            swap_cols(t, pos[1])
        while True:
            restart = False
            for i in range(t + 1, m):
                if d[i][t]:
                    add_row(i, t, -(d[i][t] // d[t][t]))
                    if d[i][t]:
                        # remainder is a strictly smaller pivot candidate
                        swap_rows(i, t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if d[t][j]:
                    add_col(j, t, -(d[t][j] // d[t][t]))
                    if d[t][j]:
                        swap_cols(j, t)
                        restart = True
                        break
            if restart:
                continue
            break
        # enforce the divisibility chain before moving on
        offender = None
        for i in range(t + 1, m):
            if any(d[i][j] % d[t][t] for j in range(t + 1, n)):
                offender = i
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue
        t += 1

    for i in range(min(m, n)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
    return u, d, v, v_inv
