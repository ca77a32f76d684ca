import random
from fractions import Fraction

import pytest

from threefold import polynomials
from threefold.polynomials import (DIGIT_LIMIT, SparsePoly,
                                   detect_square_form, is_semi_invariant,
                                   parse_rational, poly_from_dict,
                                   poly_to_dict, polynomial_sqrt, weighted_order)
from threefold.quotients import QuotientType

from helpers import parse_poly

V4 = ("x1", "x2", "x3", "x4")
V5 = ("x1", "x2", "x3", "x4", "x5")


def P(text, variables=V5):
    return parse_poly(text, variables)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = SparsePoly(V4, {(1, 0, 0, 0): 0, (0, 1, 0, 0): 2})
        assert p.terms == {(0, 1, 0, 0): Fraction(2)}

    def test_like_terms_combine(self):
        p = SparsePoly(("x",), {(1,): Fraction(1, 2)}) + SparsePoly(("x",), {(1,): Fraction(1, 2)})
        assert p == parse_poly("x", ("x",))

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            SparsePoly(V4, {(1, 0, 0): 1})

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            SparsePoly(("x",), {(-1,): 1})

    def test_exponents_are_integers(self):
        # neither truncated to x nor read as x^2
        for exps in ((Fraction(3, 2),), ("2",), (2.0,), (Fraction(2),)):
            with pytest.raises(ValueError, match="^exponents must be integers$"):
                SparsePoly(("x",), {exps: 1})

    @pytest.mark.parametrize("coefficient", [0.1, 1.0, -2.5, 0.0])
    def test_coefficients_are_exact(self, coefficient):
        # a float is refused, not read as its binary fraction
        message = f"^coefficient {coefficient!r} is a float, not an exact rational$"
        with pytest.raises(ValueError, match=message):
            SparsePoly(("x",), {(1,): coefficient})

    def test_coefficient_must_be_a_number(self):
        # Fraction(None) would raise TypeError
        with pytest.raises(ValueError, match="^coefficient None is not a rational number$"):
            SparsePoly(("x",), {(1,): None})

    def test_immutability(self):
        p = P("x1")
        with pytest.raises(AttributeError):
            p.terms = {}


class TestParser:
    def test_round_trip(self):
        p = P("x1^2 + x4*x5 - 1/2*x3^4")
        assert p.coefficient((2, 0, 0, 0, 0)) == 1
        assert p.coefficient((0, 0, 0, 1, 1)) == 1
        assert p.coefficient((0, 0, 4, 0, 0)) == Fraction(-1, 2)
        assert P(str(p)) == p

    def test_constants_and_signs(self):
        assert P("3/4").constant_term() == Fraction(3, 4)
        assert P("-x1 + 2*x1") == P("x1")

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            P("y^2")

    def test_repeated_factor_accumulates(self):
        assert P("x1*x1") == P("x1^2")


class TestArithmetic:
    def test_alignment_across_universes(self):
        a = parse_poly("x1^2", ("x1", "x2"))
        b = parse_poly("x3", ("x3",))
        total = a + b
        assert set(total.variables) == {"x1", "x2", "x3"}
        assert total == parse_poly("x1^2 + x3", ("x1", "x2", "x3"))

    def test_equality_across_universes(self):
        assert parse_poly("x1", ("x1", "x2")) == parse_poly("x1", ("x1",))

    def test_with_variables_guards_used(self):
        assert P("x5").with_variables(V4) is None
        # a dropped variable is found before repeated names, as CIGerm reports
        assert P("x5").with_variables(("x1", "x1")) is None
        with pytest.raises(ValueError, match="duplicate variable names"):
            P("x5").with_variables(("x5", "x1", "x5"))


WEIGHTS7 = {"x1": 4, "x2": 3, "x3": 2, "x4": 1, "x5": 7}


class TestWeightedOrder:
    def test_monomial_weight_anchor(self):
        # weight (r+5)/2 = 6 at r=7
        assert weighted_order(P("x2*x3*x4"), WEIGHTS7) == 6

    def test_square_weight_anchor(self):
        # a coordinate of weight (r-1)/2 squared has weight r-1 = 6 at r=7
        assert weighted_order(P("x2^2"), WEIGHTS7) == 6

    def test_zero_polynomial(self):
        with pytest.raises(ValueError, match="the zero polynomial has no weighted order"):
            weighted_order(SparsePoly(V5), WEIGHTS7)

    def test_missing_weight(self):
        with pytest.raises(KeyError):
            weighted_order(P("x5"), {"x1": 1})

    def test_unused_variables_need_no_weight(self):
        assert weighted_order(P("x1"), {"x1": 4}) == 4

    @pytest.mark.parametrize("weight", [0.1, 0.5, 2.0])
    def test_float_weights_are_refused(self, weight):
        # 0.1 would be read as 3602879701896397/36028797018963968
        with pytest.raises(ValueError, match=f"^weight {weight!r} is a float, not an exact "
                                             f"rational$"):
            weighted_order(P("x1 + x2"), {"x1": 1, "x2": weight})

    def test_order_additive_on_products(self):
        rng = random.Random(7)
        for _ in range(25):
            a = _random_poly(rng, V4)
            b = _random_poly(rng, V4)
            if a.is_zero or b.is_zero:
                continue
            w = {v: Fraction(rng.randint(1, 9), rng.randint(1, 3)) for v in V4}
            assert weighted_order(a * b, w) == weighted_order(a, w) + weighted_order(b, w)


# the half-twist on V5, weight k on variable k
HALF_TWIST = QuotientType(2, (1, 1, 1, 0, 0))


class TestSemiInvariance:
    def test_invariant_pair(self):
        assert is_semi_invariant(P("x1^2 + x4*x5").terms, HALF_TWIST) == 0

    def test_even_monomial_r17(self):
        # x2 * x3^((r+3)/4) at r=17: exponent sum 1 + 5 is even
        assert is_semi_invariant(P("x2*x3^5").terms, HALF_TWIST) == 0

    def test_mixed_characters(self):
        assert is_semi_invariant(P("x1 + x4").terms, HALF_TWIST) is None

    def test_length_mismatch(self):
        # exponent vectors line up with the weights by position, so a
        # vector of another length has no character
        with pytest.raises(ValueError) as caught:
            is_semi_invariant(P("x1^2 + x4*x5").terms, QuotientType(2, (1, 1, 1, 0)))
        assert str(caught.value) == ("exponent vector [2, 0, 0, 0, 0] does not match "
                                     "the 4 weights of 1/2(1,1,1,0)")
        with pytest.raises(ValueError):
            is_semi_invariant([(0, 1), (1,)], QuotientType(2, (1, 1)))

    def test_character_sums_on_products(self):
        rng = random.Random(3)
        for _ in range(25):
            a = _random_poly(rng, V4, max_terms=3)
            b = _random_poly(rng, V4, max_terms=3)
            n = rng.randint(2, 6)
            action = QuotientType(n, tuple(rng.randrange(n) for _ in V4))
            ca, cb = is_semi_invariant(a.terms, action), is_semi_invariant(b.terms, action)
            if ca is None or cb is None or (a * b).is_zero:
                continue
            assert is_semi_invariant((a * b).terms, action) == (ca + cb) % n


class TestSquareRoot:
    def test_random_squares(self):
        rng = random.Random(13)
        for _ in range(30):
            s = _random_poly(rng, ("x3", "x4"), max_terms=4)
            if s.is_zero:
                continue
            root = polynomial_sqrt(s * s)
            assert root is not None
            assert root == s or root == -s

    def test_non_square(self):
        assert polynomial_sqrt(parse_poly("x3^2 + x4", ("x3", "x4"))) is None
        assert polynomial_sqrt(parse_poly("2*x3^2", ("x3", "x4"))) is None
        assert polynomial_sqrt(parse_poly("-x3^2", ("x3", "x4"))) is None

    def test_builds_one_polynomial(self, monkeypatch):
        # the peel works on term maps and builds only the root it returns
        s = parse_poly("x3^4*x4 - 2*x3^2*x4^3 + 1/3*x4^5 + 7*x4 - 1", ("x3", "x4"))
        square = s * s
        built = []
        init = SparsePoly.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(SparsePoly, "__init__", counted)
        root = polynomial_sqrt(square)
        monkeypatch.undo()
        assert len(built) == 1 and root == s

    def test_step_limit(self, monkeypatch):
        # a root of T terms takes 2 + 3 + ... + T term products
        square = parse_poly("x3^2 + 2*x3*x4 + 2*x3 + x4^2 + 2*x4 + 1", ("x3", "x4"))
        monkeypatch.setattr(polynomials, "SQRT_STEP_LIMIT", 5)
        assert polynomial_sqrt(square) == parse_poly("x3 + x4 + 1", ("x3", "x4"))
        monkeypatch.setattr(polynomials, "SQRT_STEP_LIMIT", 4)
        with pytest.raises(ValueError) as caught:
            polynomial_sqrt(square)
        assert str(caught.value) == ("the square root of a polynomial of 6 terms takes "
                                     "more than SQRT_STEP_LIMIT = 4 steps")

    def test_limit_never_reads_as_square_free(self, monkeypatch):
        # x3^20 + x3^19 is no square, but its peel runs 11 terms before an
        # exponent turns negative; cut short, it raises instead of None
        q = parse_poly("x3^20 + x3^19", ("x3", "x4"))
        assert polynomial_sqrt(q) is None
        assert detect_square_form(q) is None
        monkeypatch.setattr(polynomials, "SQRT_STEP_LIMIT", 20)
        for check in (polynomial_sqrt, detect_square_form):
            with pytest.raises(ValueError, match="SQRT_STEP_LIMIT = 20"):
                check(q)

    def test_root_coefficient_digits(self):
        # the first peeled coefficient of x^2 + b*x is b/2
        b = 3 * 10 ** (DIGIT_LIMIT - 1) + 1
        with pytest.raises(ValueError) as caught:
            polynomial_sqrt(SparsePoly(("x",), {(2,): 1, (1,): b}))
        assert str(caught.value) == (f"a coefficient of the square root has {DIGIT_LIMIT + 1} "
                                     f"digits; at most DIGIT_LIMIT = {DIGIT_LIMIT}")


class TestSquareFormDetector:
    def test_detects_plain_square(self):
        q = parse_poly("x3^2*x4^4", ("x1", "x3", "x4"))
        assert detect_square_form(q) == (1, parse_poly("x4^2", ("x3", "x4")))

    @pytest.mark.parametrize("c", [-1, 2, Fraction(-3, 7), Fraction(2, 9)])
    def test_constant_times_square(self, c):
        # a square over C: the peel runs on q / lc(q), whose root is rational
        names = ("x3", "x4")
        root = parse_poly("x3^3 - 2*x3*x4^2", names)
        q = root * root * c
        assert detect_square_form(q) == (c, parse_poly("x3^2 - 2*x4^2", names))
        assert detect_square_form(q + parse_poly("x4^8", names)) is None

    def test_even_power_is_not_of_the_form(self):
        # x3^4 is a square, but of x3^2, whose x3-degree is even
        assert detect_square_form(parse_poly("x3^4", ("x3", "x4"))) is None

    def test_foreign_variable(self):
        assert detect_square_form(parse_poly("x1*x3", ("x1", "x3", "x4"))) is None

    def test_round_trip_random(self):
        rng = random.Random(17)
        x3 = parse_poly("x3", ("x3", "x4"))
        for _ in range(40):
            s = _random_even_x3_poly(rng, max_degree=10)
            if s.is_zero:
                continue
            q = (x3 * s) * (x3 * s)
            got = detect_square_form(q)
            assert got is not None
            assert got == (1, s) or got == (1, -s)
            # any x1-perturbation leaves the family
            k = rng.randint(0, 4)
            spoiled = q.with_variables(("x1", "x3", "x4")) + parse_poly(
                f"x1*x3^{k}" if k else "x1", ("x1", "x3", "x4"))
            assert detect_square_form(spoiled) is None


class TestJson:
    def test_bit_exact_round_trip(self):
        p = P("x1^2 + x4*x5 - 1/2*x3^4 + 7/3*x2")
        d = poly_to_dict(p)
        assert d["vars"] == list(V5)
        assert any(t["c"] == "-1/2" for t in d["terms"])
        assert poly_from_dict(d) == p

    def test_term_order_stable(self):
        p = P("x2 + x1")
        assert poly_to_dict(p) == poly_to_dict(P("x1 + x2"))

    def test_coefficient_grammar(self):
        for c, value in ((3, 3), (-3, -3), ("7", 7), ("-1/2", Fraction(-1, 2)),
                         ("6/4", Fraction(3, 2)), ("0", 0)):
            assert parse_rational(c, "coefficient") == value, c
        message = r"^coefficient .* is not an integer or a 'p/q' string$"
        for c in ("1e5", "1.5", "1_0", " 3 ", "3\n", "+3", "1/-2", "", "\u0663", 1.5, True):
            with pytest.raises(ValueError, match=message):
                parse_rational(c, "coefficient")
            if isinstance(c, str):
                with pytest.raises(ValueError, match=message):
                    poly_from_dict({"vars": ["x1"], "terms": [{"c": c, "e": [1]}]})
        with pytest.raises(ValueError, match="^weight '1/0' has a zero denominator$"):
            parse_rational("1/0", "weight")

    def test_digit_limit(self):
        # the limit counts every digit of a numeral, sign and slash aside
        top = "9" * DIGIT_LIMIT
        assert parse_rational("-" + top, "coefficient") == -int(top)
        half = "7" * (DIGIT_LIMIT // 2)
        assert parse_rational(f"{half}/{half}", "coefficient") == 1
        for c in ("-" + top + "9", f"{half}/{half}9"):
            with pytest.raises(ValueError) as caught:
                parse_rational(c, "coefficient")
            assert str(caught.value) == (f"coefficient has {DIGIT_LIMIT + 1} digits; "
                                         f"at most DIGIT_LIMIT = {DIGIT_LIMIT}")

    def test_fast_parse_matches_the_fraction_of_the_text(self):
        # parse_rational builds the Fraction from the integers its grammar
        # matched; Fraction(text), which reads the text with a grammar of its
        # own, is the slow path it replaces
        rng = random.Random(17)

        def digits(count):
            return "".join(rng.choice("0123456789") for _ in range(count))

        texts = ["0", "-0", "00", "-007", "0/7", "-0/7", "6/4", "-6/4", "10/100",
                 "007/0014", "1/1", "-1/1", "9" * DIGIT_LIMIT,
                 "-" + "9" * DIGIT_LIMIT, "1" + "0" * (DIGIT_LIMIT - 1)]
        # the limit counts the digits of both parts together
        for split in (1, DIGIT_LIMIT // 2, DIGIT_LIMIT - 1):
            denominator = rng.choice("123456789") + digits(DIGIT_LIMIT - split - 1)
            texts.append(f"{digits(split)}/{denominator}")
        for _ in range(300):
            sign = rng.choice(("", "-"))
            numerator = digits(rng.choice((1, 2, 5, 20, rng.randint(1, 60))))
            if rng.random() < 0.5:
                texts.append(sign + numerator)
            else:
                denominator = digits(rng.randint(0, 40)) + rng.choice("123456789")
                texts.append(f"{sign}{numerator}/{denominator}")
        for text in texts:
            assert sum(map(str.isdigit, text)) <= DIGIT_LIMIT, text
            value = parse_rational(text, "coefficient")
            assert type(value) is Fraction and value == Fraction(text), text
        for text in ("1/0", "-5/000", "0/0"):
            with pytest.raises(ValueError, match=f"^coefficient '{text}' has a zero denominator$"):
                parse_rational(text, "coefficient")
        # the digit count is checked before int() reads the numeral, so a
        # numeral past int()'s own 4300-digit bound gets the same message
        for count in (DIGIT_LIMIT + 1, 5000):
            for text in ("1" * count, "-" + "1" * count, "1/" + "1" * (count - 1)):
                with pytest.raises(ValueError) as caught:
                    parse_rational(text, "coefficient")
                assert str(caught.value) == (f"coefficient has {count} digits; "
                                             f"at most DIGIT_LIMIT = {DIGIT_LIMIT}")


def _random_poly(rng, variables, max_terms=5, max_exp=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) if rng.random() < 0.5 else 0
                     for _ in variables)
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return SparsePoly(variables, terms)


def _random_even_x3_poly(rng, max_degree=10):
    # polynomial in x3^2 and x4 of total degree <= max_degree
    terms = {}
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(0, max_degree // 2)
        b = rng.randint(0, max_degree - 2 * a)
        terms[(2 * a, b)] = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
    return SparsePoly(("x3", "x4"), terms)
