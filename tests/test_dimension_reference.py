"""The closed-form counts of threefold.dimensions against the enumeration
they replace.

Every reference here comes from degree_points or a loop written in the
test, never from parity_counts, so no assertion restates the code it
checks.
"""

import io
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from threefold import cli, dimensions
from threefold.dimensions import (DimensionTable, check_decomposition,
                                  closed_form_profile, correction_profile,
                                  degree_point_count, degree_points,
                                  graded_dimension, parity_counts,
                                  solve_correction)

R_VALUES = (7, 9, 15, 23, 47)


@pytest.fixture(scope="module")
def enumerated():
    """{r: {degree: [parity 0 count, parity 1 count]}} for degrees -2..8r."""
    out = {}
    for r in R_VALUES:
        counts = {}
        for i in range(-2, 8 * r + 1):
            split = [0, 0]
            for point in degree_points(r, i):
                split[sum(point[:3]) % 2] += 1
            counts[i] = split
        out[r] = counts
    return out


def test_parity_counts_match_enumeration(enumerated):
    for r, counts in enumerated.items():
        table = DimensionTable.compute(r, 8 * r)
        for i, (even, odd) in counts.items():
            assert parity_counts(r, i) == (even, odd), (r, i)
            assert degree_point_count(r, i) == even + odd, (r, i)
            assert [graded_dimension(r, i, j) for j in (0, 1)] == [even, odd], (r, i)
            assert [table.dimension(i, j) for j in (0, 1)] == [even, odd], (r, i)


def test_parity_counts_match_the_per_l5_loop_at_a_huge_degree():
    # for each (l1, l2, l5), l3 = 0..half gives half//2 + 1 even values and
    # (half + 1)//2 odd ones
    r, i = 23, 10_007
    expected = [0, 0]
    for l1 in (0, 1):
        for l2 in (0, 1):
            base = i - (r + 1) // 2 * l1 - (r - 1) // 2 * l2
            for l5 in range(base // r + 1):
                half = (base - r * l5) // 2
                expected[(l1 + l2) % 2] += half // 2 + 1
                expected[(l1 + l2 + 1) % 2] += (half + 1) // 2
    assert parity_counts(r, i) == tuple(expected)


def test_decomposition_holds_at_every_degree():
    # the counts are right (above), so a False here is a wrong boundary count
    for r in R_VALUES:
        for i in range(8 * r + 1):
            for j in (0, 1):
                assert check_decomposition(r, i, j), (r, i, j)


def test_decomposition_catches_a_wrong_count(monkeypatch):
    # the boundary is counted apart from parity_counts: one miscounted
    # piece breaks the recursion on both sides of it
    r, bad = 9, 20
    real = dimensions.parity_counts

    def off_by_one(r_, degree):
        even, odd = real(r_, degree)
        return (even + 1, odd) if degree == bad else (even, odd)

    monkeypatch.setattr(dimensions, "parity_counts", off_by_one)
    failing = {(i, j) for i in range(40) for j in (0, 1)
               if not check_decomposition(r, i, j)}
    assert failing == {(bad, 0), (bad + 2, 1)}


def test_increment_formulas_equal_count_differences(enumerated):
    for r, counts in enumerated.items():
        a, b = (r + 1) // 2, (r - 1) // 2
        profile = closed_form_profile(r)
        for i in range(8 * r + 1):
            d0 = counts[i][0] - counts[i - 2][1]
            d1 = counts[i][1] - counts[i - 2][0]
            assert d0 == 2 * (i // r) + 1, (r, i)
            assert d1 == (i - a) // r + (i - b) // r + 2, (r, i)
            for j, d in ((0, d0), (1, d1)):
                key = (2 * i + r * j) % (2 * r)
                assert profile.delta[key] == d - Fraction(2 * i + 1, r), (r, i, j)


def test_correction_profile_matches_enumeration(enumerated):
    for r, counts in enumerated.items():
        profile = correction_profile(r, 8 * r)
        for i in range(2, 8 * r + 1):
            for j in (0, 1):
                expected = (counts[i][j] - counts[i - 2][1 - j]
                            - Fraction(2 * i + 1, r))
                assert profile.delta[(2 * i + r * j) % (2 * r)] == expected, (r, i, j)


def test_even_residues_of_the_closed_form_correction():
    # on even residues the increment is 1 - (2m+1)/r, so B(2m) = m(r-m)/r
    for r in (7, 23, 95):
        b = solve_correction(closed_form_profile(r))
        for m in range(r):
            assert b[2 * m] == Fraction(m * (r - m), r), (r, m)


def test_r95_suite_runs_without_enumeration(monkeypatch):
    def no_enumeration(r, degree):
        raise AssertionError("degree_points called")

    monkeypatch.setattr(dimensions, "degree_points", no_enumeration)
    monkeypatch.setattr(cli, "degree_points", no_enumeration)
    r, imax = 95, 6 * 95
    assert len(DimensionTable.compute(r, imax).rows) == 2 * (imax + 1)
    assert all(check_decomposition(r, i, j) for i in range(imax + 1) for j in (0, 1))
    profile = correction_profile(r, imax)
    assert solve_correction(profile) == solve_correction(closed_form_profile(r))
    for argv in (["dims", "--r", "95", "--imax", "570"], ["verify-dim", "--r", "95"]):
        with redirect_stdout(io.StringIO()):
            assert cli.main(["--format", "json", *argv]) == cli.PASS, argv
