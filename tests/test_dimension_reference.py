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
from threefold.dimensions import (DimensionTable, WellDefinednessError,
                                  check_decomposition, closed_form_profile,
                                  correction_profile, degree_point_count,
                                  degree_points, graded_dimension, parity_counts,
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


# the profile's r values: r = 11 and 13 are admitted like any odd r >= 7
PROFILE_R_VALUES = (7, 9, 11, 13, 15, 17, 23, 47, 95)


def fraction_profile(table, max_degree):
    """The correction increments as the Fraction loop that the integer
    comparison of DimensionTable.counted_profile replaced: three Fractions
    per (i, j) pair, compared as Fractions, with the same error text."""
    r = table.r
    period = 2 * r
    delta, first_pair = {}, {}
    for i in range(2, max_degree + 1):
        for j in (0, 1):
            value = (Fraction(table.dimension(i, j) - table.dimension(i - 2, 1 - j))
                     - Fraction(2 * i + 1, r))
            key = (2 * i + r * j) % period
            if key in delta:
                if delta[key] != value:
                    raise WellDefinednessError(
                        f"residue {key} mod {period}: (i,j)={first_pair[key]} gave "
                        f"{delta[key]} but (i,j)=({i},{j}) gave {value}")
            else:
                delta[key] = value
                first_pair[key] = (i, j)
    return delta


@pytest.mark.parametrize("r", PROFILE_R_VALUES)
def test_integer_profile_matches_the_fraction_loop(r):
    # the counts are checked against enumeration above; here the loop that
    # reads them is: the same residues, first met in the same order, with
    # equal Fractions
    imax = 6 * r
    table = DimensionTable.compute(r, imax)
    profile = table.counted_profile()
    assert list(profile.delta.items()) == list(fraction_profile(table, imax).items())
    assert all(type(value) is Fraction for value in profile.delta.values())
    assert correction_profile(r, imax) == profile == closed_form_profile(r)


@pytest.mark.parametrize("r", PROFILE_R_VALUES)
def test_table_decomposition_matches_the_per_pair_check(r):
    imax = 6 * r
    table = DimensionTable.compute(r, imax)
    pairs = [(i, j) for i in range(imax + 1) for j in (0, 1)]
    assert [table.decomposes(i, j) for i, j in pairs] == [
        check_decomposition(r, i, j) for i, j in pairs]
    assert all(table.decomposes(i, j) for i, j in pairs)


@pytest.mark.parametrize("r, bad, parity", [
    (7, 20, 0), (7, 0, 1), (7, 42, 1), (9, 33, 1), (11, 5, 0), (13, 77, 1),
    (23, 138, 0), (95, 300, 1),
])
def test_a_doctored_count_fails_both_paths_alike(monkeypatch, r, bad, parity):
    # one count raised by 1, in the table and in parity_counts: the table
    # path and the per-pair check fail at the same pairs, and the integer
    # profile raises the Fraction loop's message word for word
    imax = 6 * r
    rows = dict(DimensionTable.compute(r, imax).rows)
    rows[(bad, parity)] += 1
    doctored = DimensionTable(r, rows)
    real = dimensions.parity_counts

    def off_by_one(r_, degree):
        split = list(real(r_, degree))
        if degree == bad:
            split[parity] += 1
        return tuple(split)

    monkeypatch.setattr(dimensions, "parity_counts", off_by_one)
    pairs = [(i, j) for i in range(imax + 1) for j in (0, 1)]
    failing = [(i, j) for i, j in pairs if not doctored.decomposes(i, j)]
    assert failing == [(i, j) for i, j in pairs if not check_decomposition(r, i, j)]
    assert failing == [pair for pair in ((bad, parity), (bad + 2, 1 - parity))
                       if pair[0] <= imax]
    with pytest.raises(WellDefinednessError) as expected:
        fraction_profile(doctored, imax)
    for profile in (doctored.counted_profile, lambda: correction_profile(r, imax)):
        with pytest.raises(WellDefinednessError) as caught:
            profile()
        assert str(caught.value) == str(expected.value)
