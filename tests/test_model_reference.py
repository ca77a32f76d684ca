"""validate_model against the slow reference it replaced.

The reference reads p and q as validation did before it took one integer
pass over each polynomial: the order of p from weighted_order, the term
weights of q from scaled_term_weights as Fractions, and each parity from
is_semi_invariant under the half-twist restricted to the polynomial's
variables.
"""

import random
from fractions import Fraction

from threefold.models import (AMBIENT, CD2Model, GERM_VARIABLES, P_VARIABLES, Q_VARIABLES,
                              generate_model, model_weights, valid_r, validate_model)
from threefold.polynomials import (SparsePoly, is_semi_invariant, scaled_term_weights,
                                   weighted_order)
from threefold.quotients import QuotientType

CHECKED = ("p_order", "q_weight", "p_parity", "q_parity")


def half_twist(names):
    # the ambient action on these variables, one weight per variable
    return QuotientType(AMBIENT.n, tuple(AMBIENT.weights[GERM_VARIABLES.index(v)]
                                         for v in names))


def reference_checks(model):
    """{name: (passed, detail)} of the four checks the one pass serves."""
    r, weights = model.r, model_weights(model.r)
    p_order = "infinite" if model.p.is_zero else weighted_order(model.p, weights)
    q_powers, scale = scaled_term_weights(model.q, weights)
    q_weights = sorted(Fraction(w, scale) for w in set(q_powers))
    return {
        "p_order": (model.p.is_zero or p_order > r,
                    f"weighted order of p is {p_order}, needs > {r}"),
        "q_weight": (bool(q_powers) and all(Fraction(w, scale) == r - 1 for w in q_powers),
                     f"q term weights [{', '.join(map(str, q_weights))}], "
                     f"needs exactly {{{r - 1}}}"),
        "p_parity": (is_semi_invariant(model.p.terms, half_twist(P_VARIABLES)) == 0,
                     "p must have even total degree in x2, x3 in every term"),
        "q_parity": (is_semi_invariant(model.q.terms, half_twist(Q_VARIABLES)) == 0,
                     "q must have even total degree in x1, x3 in every term"),
    }


def random_terms(rng, r, count):
    # exponents over three variables whose weights come near r and r - 1
    return {(rng.randint(0, 2), rng.randint(0, r // 2 + 1), rng.randint(0, r + 1)):
            Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 4)) for _ in range(count)}


def homogeneous_q_terms(rng, r):
    # terms x3^b * x4^(r-1-2b) of weight r - 1, of either parity
    return {(0, b, r - 1 - 2 * b): Fraction(rng.randint(1, 5))
            for b in rng.sample(range((r - 1) // 2 + 1), rng.randint(1, 3))}


def seeded_case(rng, r):
    """A model of r: for a valid r a generated one, otherwise a homogeneous
    q; then p and q are each kept, emptied, extended by a random term or by
    an odd one, and p may get x4^r, of weighted order exactly r."""
    if valid_r(r):
        base = generate_model(r, rng.randrange(1000))
        p, q = dict(base.p.terms), dict(base.q.terms)
    else:
        p, q = random_terms(rng, r, rng.randint(1, 4)), homogeneous_q_terms(rng, r)
    for terms in (p, q):
        change = rng.randrange(5)
        if change == 0:
            terms.clear()
        elif change == 1:
            terms.update(random_terms(rng, r, 1))
        elif change == 2:
            terms[1, 0, r] = Fraction(-1)  # a + b odd
    if rng.random() < 0.3:
        p[0, 0, r] = Fraction(1)
    return CD2Model(r, SparsePoly(P_VARIABLES, p), SparsePoly(Q_VARIABLES, q))


def test_one_pass_matches_the_reference():
    rng = random.Random(31)
    seen = {"zero p": 0, "zero q": 0, "p order r": 0}
    for r in (7, 8, 9, 11, 13, 15, 17, 23, 25, 31, 47, 95):
        for _ in range(40):
            model = seeded_case(rng, r)
            expected = reference_checks(model)
            report = {c.name: (c.passed, c.detail) for c in validate_model(model).checks
                      if c.name in CHECKED}
            assert report == expected, model
            for name, (passed, _) in expected.items():
                seen[name, passed] = seen.get((name, passed), 0) + 1
            seen["zero p"] += model.p.is_zero
            seen["zero q"] += model.q.is_zero
            seen["p order r"] += expected["p_order"][1].startswith(
                f"weighted order of p is {r},")
    assert len(seen) == 3 + 2 * len(CHECKED)
    assert min(seen.values()) >= 10, seen
