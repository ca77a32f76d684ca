import itertools
import math
import random
from fractions import Fraction

import pytest

from threefold import quotients
from threefold.cli import main
from threefold.linalg import (identity_matrix, invert_unimodular, pivot_columns,
                              rational_determinant, smith_normal_form)
from threefold.quotients import (ChartGroup, LatticeError,
                                 QuotientType, blowup_charts, effective_factors,
                                 reid_tai_is_canonical, reid_tai_is_terminal)

from helpers import is_primitive, matrix_product


class TestQuotientType:
    @pytest.mark.parametrize("n, weights", [
        (2, (Fraction(3, 2), 1)),  # would print 1/2(1,1)
        (Fraction(5, 2), (1,)),  # would print 1/5/2(1)
        (2, (1.0, 1)),
        (2.0, (1, 1)),
        (2, (Fraction(2), 1)),
    ])
    def test_order_and_weights_are_integers(self, n, weights):
        # never truncated or carried as a non-integer
        with pytest.raises(ValueError, match="^the order and weights of a quotient type "
                                             "must be integers$"):
            QuotientType(n, weights)

    def test_parse_and_print(self):
        q = QuotientType.parse("1/14(1,13,11)")
        assert q == QuotientType(14, (1, 13, 11))
        assert str(q) == "1/14(1,13,11)"

    def test_parse_whitespace_and_negatives(self):
        q = QuotientType.parse(" 1 / 14 ( 1, -1, 18 ) ")
        assert q.weights == (1, 13, 4)

    def test_parse_errors(self):
        for bad in ("2/3(1,2)", "1/4", "1/4()", "quotient"):
            with pytest.raises(ValueError):
                QuotientType.parse(bad)

    @pytest.mark.parametrize("text, weight", [
        ("1/5(1_0,2,3)", "1_0"),
        ("1/5(1,,2)", ""),
        ("1/5(\u0663,1,2)", "\u0663"),  # an Arabic-Indic 3
        ("1/5(1,\u20032,3)", "\u20032"),  # an em space before the 2
        ("1/5(1, 2 3)", " 2 3"),
        ("1/5(1,--2)", "--2"),
        ("1/5(0x1,2)", "0x1"),
    ])
    def test_weights_outside_the_grammar(self, text, weight):
        with pytest.raises(ValueError) as info:
            QuotientType.parse(text)
        assert str(info.value) == f"weight {weight!r} of {text!r} is not an integer"

    @pytest.mark.parametrize("text", ["1/\u0663(1,2,3)", "1/1_0(1,2,3)", "1/+5(1,2)",
                                      "\u20031/5(1,2)", "1/5(1,2)x"])
    def test_orders_outside_the_grammar(self, text):
        with pytest.raises(ValueError) as info:
            QuotientType.parse(text)
        assert str(info.value) == f"cannot parse quotient type {text!r}"

    def test_parse_signs_and_ascii_whitespace(self):
        q = QuotientType.parse("\t1/5( +1 ,-2,\t3 )\n")
        assert (q.n, q.weights) == (5, (1, 3, 3))

    def test_weights_reduced(self):
        assert QuotientType(14, (143, -1, 25)).weights == (3, 13, 11)


class TestNormalization:
    def test_unit_orbit_example(self):
        # 3 * (2,4,3) = (1,2,4) mod 5, so the two types coincide
        assert (QuotientType(5, (2, 4, 3)).normalized()
                == QuotientType(5, (1, 2, 4)).normalized())

    def test_permutation_example(self):
        assert (QuotientType(14, (13, 1, 11)).normalized()
                == QuotientType(14, (1, 13, 11)).normalized())

    def test_canonical_value_r7(self):
        # -1 * (1,13,11) = (13,1,3) mod 14, sorted (1,3,13) is the orbit minimum
        assert QuotientType(14, (1, 13, 11)).normalized() == QuotientType(14, (1, 3, 13))

    def test_idempotent(self):
        q = QuotientType(14, (1, 13, 11)).normalized()
        assert q.normalized() == q

    def test_orbit_constancy_random(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 40)
            m = rng.randint(1, 5)
            q = QuotientType(n, tuple(rng.randrange(n) if n > 1 else 0 for _ in range(m)))
            canonical = q.normalized()
            units = [u for u in range(1, max(n, 2)) if math.gcd(u, n) == 1]
            u = rng.choice(units)
            shuffled = list((u * w) % n for w in q.weights)
            rng.shuffle(shuffled)
            assert QuotientType(n, tuple(shuffled)).normalized() == canonical

    def test_trivial_group(self):
        assert QuotientType(1, (0, 0, 0)).normalized() == QuotientType(1, (0, 0, 0))
        assert QuotientType(6, (0, 0)).normalized() == QuotientType(6, (0, 0))

    def test_unit_loop_above_the_limit_is_refused(self, monkeypatch):
        # g = min gcd(a_i, n) candidate units per distinct weight of gcd g,
        # each tested with one gcd and sorting the 3 weights: refused before
        # the first
        calls = []
        gcd = math.gcd
        monkeypatch.setattr(quotients.math, "gcd", lambda *a: calls.append(a) or gcd(*a))
        q = QuotientType(2 * 10 ** 7, (10 ** 7,) * 3)
        with pytest.raises(ValueError) as info:
            q.normalized()
        assert str(info.value) == (f"the normal form of {q} takes 30000000 steps; at most "
                                   f"QUOTIENT_ORDER_LIMIT = {quotients.QUOTIENT_ORDER_LIMIT}")
        assert len(calls) == 3
        # g = 1 takes one candidate per weight at any n
        assert QuotientType(10 ** 7 + 19, (2, 1, -1)).normalized().weights == (1, 2, 10 ** 7 + 18)

    def test_limit_admits_exactly_its_steps(self, monkeypatch):
        # g = 5 units for the one distinct weight, 3 weights each
        monkeypatch.setattr(quotients, "QUOTIENT_ORDER_LIMIT", 15)
        assert QuotientType(10, (5, 5, 5)).normalized() == QuotientType(10, (5, 5, 5))
        with pytest.raises(ValueError):
            QuotientType(12, (6, 6, 6)).normalized()
        # two distinct weights of gcd g = 5 take 5 units each: 30 steps
        monkeypatch.setattr(quotients, "QUOTIENT_ORDER_LIMIT", 30)
        assert QuotientType(20, (5, 15, 10)).normalized() == QuotientType(20, (5, 10, 15))
        monkeypatch.setattr(quotients, "QUOTIENT_ORDER_LIMIT", 29)
        with pytest.raises(ValueError):
            QuotientType(20, (5, 15, 10)).normalized()


class TestReidTai:
    def test_half_twist_terminal(self):
        assert reid_tai_is_terminal(QuotientType(2, (1, 1, 1))) is True

    def test_age_exactly_one(self):
        q = QuotientType(2, (1, 1, 0))
        assert reid_tai_is_terminal(q) is False
        assert reid_tai_is_canonical(q) is True

    def test_singular_point_of_the_family(self):
        assert reid_tai_is_terminal(QuotientType(14, (1, 13, 11))) is True

    def test_trivial_group_terminal(self):
        assert reid_tai_is_terminal(QuotientType(1, (0, 0, 0))) is True

    def test_non_faithful_fails(self):
        assert reid_tai_is_terminal(QuotientType(4, (2, 2, 2))) is False


class TestSmithNormalForm:
    def test_identity(self):
        u, d, v, _ = smith_normal_form(identity_matrix(3))
        assert d == identity_matrix(3)
        assert matrix_product(matrix_product(u, identity_matrix(3)), v) == d

    def test_already_diagonal(self):
        u, d, v, _ = smith_normal_form([[2, 0], [0, 4]])
        assert d == [[2, 0], [0, 4]]

    def test_divisibility_enforced(self):
        u, d, v, _ = smith_normal_form([[2, 0], [0, 3]])
        assert d == [[1, 0], [0, 6]]

    def test_rectangular(self):
        a = [[2, 4, 4], [-6, 6, 12]]
        u, d, v, _ = smith_normal_form(a)
        assert matrix_product(matrix_product(u, a), v) == d
        assert d[0][0] == 2 and d[1][1] % d[0][0] == 0

    def test_random_property_suite(self):
        rng = random.Random(31)
        matrices = []
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            matrices.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        # rank-deficient ones: a row that is a combination of two others
        for _ in range(40):
            m, n = rng.randint(2, 4), rng.randint(1, 5)
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            a.append([s * x + t * y for x, y in zip(a[0], a[1])])
            rng.shuffle(a)
            matrices.append(a)
        for a in matrices:
            m, n = len(a), len(a[0])
            u, d, v, v_inv = smith_normal_form(a)
            assert matrix_product(matrix_product(u, a), v) == d
            assert abs(rational_determinant(u)) == 1
            assert abs(rational_determinant(v)) == 1
            assert v_inv == invert_unimodular(v)
            assert matrix_product(v, v_inv) == identity_matrix(n)
            diag = [d[i][i] for i in range(min(m, n))]
            for i in range(m):
                for j in range(n):
                    if i != j:
                        assert d[i][j] == 0
            for x, y in zip(diag, diag[1:]):
                assert x >= 0 and y >= 0
                if x == 0:
                    assert y == 0
                else:
                    assert y % x == 0

    def test_invert_unimodular_rejects(self):
        with pytest.raises(ValueError):
            invert_unimodular([[2, 0], [0, 1]])


class TestPivotColumns:
    def test_known_pivots(self):
        assert pivot_columns([[0, 2, 4], [0, 1, 2]]) == (1,)
        assert pivot_columns([[1, 2, 0], [2, 4, 1]]) == (0, 2)
        assert pivot_columns([]) == ()
        # the third row is the first less the second; int entries divided
        # as floats would leave a rounding residue there and a third pivot
        matrix = [[3, 4, -8], [-1, 7, 6], [4, -3, -14]]
        assert pivot_columns(matrix) == (0, 1)
        assert pivot_columns([[Fraction(x) for x in row] for row in matrix]) == (0, 1)

    def test_entry_types_give_the_same_pivots(self):
        # Fraction entries are taken as they are and int entries converted,
        # so an int, a Fraction and a mixed matrix agree
        rng = random.Random(5)
        for _ in range(200):
            rows, cols = rng.randint(1, 4), rng.randint(1, 5)
            matrix = [[rng.randint(-3, 3) if rng.random() < 0.7 else 0 for _ in range(cols)]
                      for _ in range(rows)]
            if rows > 1 and rng.random() < 0.5:
                # a dependent row, so the rank falls short of the row count
                c = rng.randint(-2, 2)
                matrix[-1] = [x + c * y for x, y in zip(matrix[0], matrix[1 % rows])]
            fractions = [[Fraction(x) for x in row] for row in matrix]
            mixed = [[Fraction(x) if rng.random() < 0.5 else x for x in row] for row in matrix]
            pivots = pivot_columns(matrix)
            assert pivot_columns(fractions) == pivots
            assert pivot_columns(mixed) == pivots
            # the pivot columns are independent: some maximal minor is nonzero
            assert any(rational_determinant([[matrix[a][c] for c in pivots] for a in chosen])
                       for chosen in itertools.combinations(range(rows), len(pivots)))


class TestLattice:
    def test_integral_vector_in_lattice(self):
        amb = QuotientType(2, (1, 1, 1, 0, 0))
        assert amb.lattice_contains((4, 3, 2, 1, 7))
        assert is_primitive(amb, (4, 3, 2, 1, 7))
        assert len(blowup_charts(amb, (4, 3, 2, 1, 7)).charts) == 5

    def test_not_primitive(self):
        amb = QuotientType(1, (0, 0, 0))
        assert amb.lattice_contains((2, 2, 2))
        assert not is_primitive(amb, (2, 2, 2))
        with pytest.raises(LatticeError, match="not primitive in"):
            blowup_charts(amb, (2, 2, 2))

    def test_generator_is_primitive(self):
        amb = QuotientType(2, (1, 1, 1))
        half = (Fraction(1, 2),) * 3
        assert amb.lattice_contains(half)
        assert is_primitive(amb, half)
        assert len(blowup_charts(amb, half).charts) == 3

    def test_outside_lattice(self):
        amb = QuotientType(2, (1, 1, 1))
        assert not amb.lattice_contains((Fraction(1, 2), 0, 0))
        assert not amb.lattice_contains((Fraction(1, 3),) * 3)

    def test_huge_order_costs_one_snf(self, snf_calls):
        n = 10 ** 7
        amb = QuotientType(n, (1, 2, 3))
        assert not amb.lattice_contains((1, 1, Fraction(1, n)))
        assert is_primitive(amb, (Fraction(1, n), Fraction(2, n), Fraction(3, n)))
        assert not is_primitive(amb, (Fraction(5, n), Fraction(10, n), Fraction(15, n)))
        assert not is_primitive(amb, (0, 0, 0))
        assert len(snf_calls) == 4


class TestCharts:
    @pytest.mark.parametrize("ambient, v", [
        (QuotientType(7, (2, 5, 1)), (Fraction(2, 7), Fraction(5, 7), Fraction(1, 7))),
        (QuotientType(2, (1, 1, 1, 0, 0)), (4, 3, 2, 1, 7)),
    ])
    def test_one_elimination_per_chart(self, snf_calls, unimodular_inverses, ambient, v):
        # one SNF for the basis of N and one per chart, each returning the
        # inverse of its transform, so no unimodular inverse is computed
        report = blowup_charts(ambient, v)
        assert len(report.charts) == ambient.arity
        assert len(snf_calls) == ambient.arity + 1 and unimodular_inverses == []

    def test_family_chart_orders(self):
        report = blowup_charts(QuotientType(2, (1, 1, 1, 0, 0)), (4, 3, 2, 1, 7))
        assert [c.order for c in report.charts] == [8, 6, 4, 2, 14]

    def test_family_last_chart_type(self):
        report = blowup_charts(QuotientType(2, (1, 1, 1, 0, 0)), (4, 3, 2, 1, 7))
        last = report.charts[4]
        assert len(last.factors) == 1
        assert last.factors[0].n == 14

    def test_ordinary_blowup_smooth(self):
        report = blowup_charts(QuotientType(1, (0, 0, 0)), (1, 1, 1))
        assert all(not c.factors for c in report.charts)

    def test_half_point_resolution_charts(self):
        report = blowup_charts(QuotientType(2, (1, 1, 1)), (Fraction(1, 2),) * 3)
        assert all(not c.factors for c in report.charts)

    def test_kawamata_chart_type(self):
        # 1/3(1,1,2) blown up at (1/3,1/3,2/3) keeps one 1/2(1,1,1) point
        report = blowup_charts(QuotientType(3, (1, 1, 2)),
                               (Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)))
        orders = [c.order for c in report.charts]
        assert orders == [1, 1, 2]
        assert report.charts[2].factors[0].normalized() == \
            QuotientType(2, (1, 1, 1)).normalized()

    def test_rejects_bad_vectors(self):
        amb = QuotientType(2, (1, 1, 1, 0, 0))
        with pytest.raises(LatticeError):
            blowup_charts(amb, (4, 3, 2, 1))  # arity
        with pytest.raises(LatticeError):
            blowup_charts(amb, (4, 3, 2, 0, 7))  # not positive
        with pytest.raises(LatticeError):
            blowup_charts(QuotientType(1, (0, 0, 0)), (2, 2, 2))  # not primitive
        with pytest.raises(LatticeError):
            blowup_charts(QuotientType(2, (1, 1, 1)), (Fraction(1, 2), 1, Fraction(1, 2)))

    def test_order_formula_random(self):
        # chart order = v_i * [lattice : Z^m] for integral v
        rng = random.Random(41)
        for _ in range(25):
            m = rng.randint(2, 4)
            n = rng.randint(1, 8)
            weights = tuple(rng.randrange(n) if n > 1 else 0 for _ in range(m))
            amb = QuotientType(n, weights)
            v = tuple(rng.randint(1, 5) for _ in range(m))
            if not is_primitive(amb, v):
                continue
            index = n // math.gcd(n, *weights) if any(weights) else 1
            report = blowup_charts(amb, v)
            for i, chart in enumerate(report.charts):
                assert chart.order == v[i] * index


class TestEffectiveFactors:
    def test_kernel_divided_out(self):
        group = ChartGroup((QuotientType(4, (2,)),))
        assert effective_factors(group) == [QuotientType(2, (1,))]

    def test_trivial_action(self):
        group = ChartGroup((QuotientType(4, (0, 0)),))
        assert effective_factors(group) == []

    def test_coprime_factors_merge(self):
        group = ChartGroup((QuotientType(2, (1, 1, 1)), QuotientType(7, (1, 6, 3))))
        merged = effective_factors(group)
        assert len(merged) == 1 and merged[0].n == 14


class TestNonIntegralWeight:
    # a generator whose weight is not integral breaks the factor builder's
    # invariant: it is an internal fault, never a silently reduced weight
    @pytest.fixture(autouse=True)
    def broken_presentation(self, monkeypatch):
        # order 3 with generator e_1: weight 3*1/2 at scale 2
        def broken(basis, *rest):
            return [(3, [1] + [0] * (len(basis) - 1))]

        monkeypatch.setattr(quotients, "quotient_presentation", broken)

    def test_chart_weight(self):
        with pytest.raises(ArithmeticError) as info:
            blowup_charts(QuotientType(1, (0, 0, 0)), (2, 1, 1))
        assert str(info.value) == "chart action weight is not integral"

    def test_effective_weight(self):
        with pytest.raises(ArithmeticError) as info:
            effective_factors(ChartGroup((QuotientType(2, (1,)),)))
        assert str(info.value) == "effective action weight is not integral"

    def test_charts_command_exits_three(self, capsys):
        code = main(["charts", "--ambient", "1/1(0,0,0)", "--weights", "2,1,1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == "internal error: chart action weight is not integral\n"
