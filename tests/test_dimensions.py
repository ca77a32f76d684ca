from fractions import Fraction

import pytest

from threefold import dimensions
from threefold.dimensions import (CorrectionProfile, DimensionTable,
                                  InconsistencyError, WellDefinednessError,
                                  check_decomposition, correction_profile,
                                  degree_point_count, degree_points,
                                  graded_dimension, solve_correction)


def brute_force_points(r, i):
    """Independent oracle: filter the full bounded box by the weighted equation."""
    if i < 0:
        return set()
    out = set()
    for l1 in (0, 1):
        for l2 in (0, 1):
            for l3 in range(i + 1):
                for l4 in range(i + 1):
                    for l5 in range(i // r + 1):
                        if ((r + 1) // 2 * l1 + (r - 1) // 2 * l2
                                + 2 * l3 + l4 + r * l5) == i:
                            out.add((l1, l2, l3, l4, l5))
    return out


class TestDegreePoints:
    def test_degree_one(self):
        assert set(degree_points(7, 1)) == {(0, 0, 0, 1, 0)}

    def test_negative_degree_empty(self):
        assert degree_points(7, -2) == frozenset()

    def test_degree_four_frozen(self):
        # computed by exhaustive loop over bounded exponents
        expected = {(1, 0, 0, 0, 0), (0, 1, 0, 1, 0), (0, 0, 0, 4, 0),
                    (0, 0, 1, 2, 0), (0, 0, 2, 0, 0)}
        points = degree_points(7, 4)
        assert points == expected
        assert sum(1 for p in points if sum(p[:3]) % 2 == 0) == 2
        assert sum(1 for p in points if sum(p[:3]) % 2 == 1) == 3

    def test_against_brute_force(self):
        for r in (7, 9):
            for i in range(-2, 31):
                assert degree_points(r, i) == brute_force_points(r, i)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            degree_points(8, 3)
        with pytest.raises(ValueError):
            degree_points(5, 3)

    @pytest.mark.parametrize("r", [7.0, Fraction(7), 7.5, "7"])
    def test_rejects_non_integer_r(self, r):
        with pytest.raises(ValueError, match="^r must be an odd integer >= 7, got "):
            degree_points(r, 4)

    def test_rejects_non_integer_degree(self):
        # range() would raise TypeError
        with pytest.raises(ValueError, match="^a degree must be an integer, got float$"):
            degree_points(7, 4.0)


class TestDegreePointCount:
    def test_matches_enumeration(self):
        for r in (7, 9, 15, 23):
            for i in range(-3, 6 * r):
                assert degree_point_count(r, i) == len(degree_points(r, i)), (r, i)

    def test_matches_the_per_l5_sum_at_a_huge_degree(self):
        # one (l3, l4) pair per value of l3 = 0..rest//2, for every (l1, l2, l5)
        r, i = 7, 100_000
        expected = sum((base - r * l5) // 2 + 1
                       for base in (i, i - 4, i - 3, i - 7)
                       for l5 in range(base // r + 1))
        assert degree_point_count(r, i) == expected

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            degree_point_count(8, 4)


class TestGradedDimension:
    def test_degree_one_anchors(self):
        assert graded_dimension(7, 1, 0) == 1
        assert graded_dimension(7, 1, 1) == 0

    def test_degree_two_anchor(self):
        assert graded_dimension(7, 2, 1) == 1

    def test_origin(self):
        assert graded_dimension(7, 0, 0) == 1
        assert graded_dimension(7, 0, 1) == 0

    def test_negative_degree(self):
        assert graded_dimension(9, -1, 0) == 0

    def test_bad_parity(self):
        with pytest.raises(ValueError):
            graded_dimension(7, 1, 2)

    def test_monotone_under_degree_shift(self):
        # adding one to l3 injects degree i parity j into degree i+2 parity 1-j
        for r in (7, 9):
            for i in range(0, 3 * r):
                for j in (0, 1):
                    assert graded_dimension(r, i + 2, 1 - j) >= graded_dimension(r, i, j)


class TestDimensionTable:
    def test_base_rows(self):
        table = DimensionTable.compute(7, 10)
        assert table.rows[(0, 0)] == 1
        assert table.rows[(0, 1)] == 0

    @pytest.mark.parametrize("r", [7.0, Fraction(7), 7.5, "7"])
    def test_rejects_non_integer_r(self, r):
        with pytest.raises(ValueError, match="^r must be an odd integer >= 7, got "):
            DimensionTable.compute(r, 3)

    def test_rejects_non_integer_degree_bound(self):
        with pytest.raises(ValueError, match="^a degree must be an integer, got float$"):
            DimensionTable.compute(7, 3.0)

    def test_json_shape(self):
        d = DimensionTable.compute(7, 2).to_json_dict()
        assert d["r"] == 7
        assert {"i": 0, "j": 0, "dim": 1} in d["dims"]
        assert len(d["dims"]) == 6


class TestDecomposition:
    def test_examples(self):
        assert check_decomposition(7, 4, 0) is True
        assert check_decomposition(7, 0, 1) is True
        assert check_decomposition(9, 20, 1) is True

    def test_both_sides_by_enumeration(self):
        # independent re-derivation of both counts for a sample
        r = 9
        for i in range(0, 25):
            for j in (0, 1):
                pts = brute_force_points(r, i)
                prev = brute_force_points(r, i - 2)
                lhs = (sum(1 for p in pts if sum(p[:3]) % 2 == j)
                       - sum(1 for p in prev if sum(p[:3]) % 2 == 1 - j))
                pats = ((0, 0), (1, 1)) if j == 0 else ((0, 1), (1, 0))
                rhs = sum(1 for p in pts if p[2] == 0 and p[:2] in pats)
                assert lhs == rhs
                assert check_decomposition(r, i, j) is True

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            check_decomposition(7, -1, 0)


class TestCorrectionProfile:
    def test_r7_covers_all_residues(self):
        profile = correction_profile(7, 28)
        assert sorted(profile.delta) == list(range(14))

    def test_imax_too_small(self):
        with pytest.raises(ValueError):
            correction_profile(7, 10)

    def test_two_r_is_the_least_max_degree(self):
        # degrees 2..2r already witness every residue once
        for r in (7, 9, 23):
            assert correction_profile(r, 2 * r) == correction_profile(r, 6 * r)
            with pytest.raises(ValueError) as info:
                correction_profile(r, 2 * r - 1)
            assert str(info.value) == f"max_degree must be at least 2r = {2 * r}"

    def test_matches_graded_dimension(self):
        # the table-backed increments against one enumeration per count
        r = 9

        def enumerated(i, j):
            return sum(1 for p in degree_points(r, i) if sum(p[:3]) % 2 == j)

        profile = correction_profile(r, 6 * r)
        for i in range(2, 6 * r + 1):
            for j in (0, 1):
                expected = (enumerated(i, j) - enumerated(i - 2, 1 - j)
                            - Fraction(2 * i + 1, r))
                assert profile.delta[(2 * i + r * j) % (2 * r)] == expected, (i, j)

    def test_orbit_sums_vanish(self):
        profile = correction_profile(9, 100)
        for start in (0, 1):
            assert sum(profile.delta[k] for k in range(start, 18, 2)) == 0

    def test_denominators_divide_r(self):
        profile = correction_profile(7, 42)
        assert all(7 % v.denominator == 0 for v in profile.delta.values())

    def test_well_definedness_error_message(self, monkeypatch):
        # one doctored count breaks its residue class; the message names the
        # class, the first pair met in it and the pair that disagrees
        counts = dimensions.parity_counts

        def doctored(r, degree):
            even, odd = counts(r, degree)
            return (even + 1, odd) if degree == 20 else (even, odd)

        monkeypatch.setattr(dimensions, "parity_counts", doctored)
        with pytest.raises(WellDefinednessError) as caught:
            correction_profile(7, 42)
        assert str(caught.value) == ("residue 12 mod 14: (i,j)=(6, 0) gave -6/7 "
                                     "but (i,j)=(20,0) gave 1/7")


class TestSolveCorrection:
    def test_reconstruction_r7(self):
        profile = correction_profile(7, 28)
        table = solve_correction(profile)
        assert len(table) == 14
        assert table[0] == 0 and table[1] == 0
        for k in range(14):
            assert table[(k + 2) % 14] - table[k] == profile.delta[k]

    def test_zero_profile(self):
        profile = CorrectionProfile(7, {k: Fraction(0) for k in range(14)})
        assert solve_correction(profile) == {k: Fraction(0) for k in range(14)}

    def test_injected_orbit_sum_fails(self):
        delta = {k: Fraction(0) for k in range(14)}
        delta[0] = Fraction(1, 7)
        with pytest.raises(InconsistencyError):
            solve_correction(CorrectionProfile(7, delta))

    def test_incomplete_profile_rejected(self):
        with pytest.raises(ValueError):
            solve_correction(CorrectionProfile(7, {0: Fraction(0)}))
