"""Lattice-point dimension counting for the bigraded ring of a weighted
blow-up with weights ((r+1)/2, (r-1)/2, 2, 1, r), r odd.

The dimension of the piece of degree i and parity j in {0, 1} is the
number of (l1,...,l5) with l1, l2 in {0,1} solving

    (r+1)/2*l1 + (r-1)/2*l2 + 2*l3 + l4 + r*l5 = i,   l1+l2+l3 = j mod 2,

counted in closed form.  The counts obey a two-term recursion whose
inhomogeneous part is (2i+1)/r plus the difference of a correction term of
period 2r, reconstructed from the counts when its increments are well
defined on residues of 2i+rj mod 2r and telescope to zero around each
parity orbit; closed_form_profile gives the same increments without counting.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


class WellDefinednessError(Exception):
    """Two degree/parity pairs in the same residue class gave different increments."""


class InconsistencyError(Exception):
    """A correction profile does not telescope to zero around an orbit."""


def _check_r(r: int, degree: int = 0) -> None:
    if not isinstance(r, int) or r % 2 == 0 or r < 7:
        raise ValueError(f"r must be an odd integer >= 7, got {r}")
    if not isinstance(degree, int):
        raise ValueError(f"a degree must be an integer, got {type(degree).__name__}")


def _check_parity(j: int) -> None:
    if j not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {j}")


def degree_points(r: int, degree: int) -> frozenset[tuple[int, int, int, int, int]]:
    """All solutions (l1,...,l5) of the weighted equation in the given
    degree, for `ni` and as the reference of the counts; empty for negative
    degrees."""
    _check_r(r, degree)
    w1 = (r + 1) // 2
    w2 = (r - 1) // 2
    points = []
    for l1 in (0, 1):
        for l2 in (0, 1):
            base = degree - w1 * l1 - w2 * l2
            if base < 0:
                continue
            for l5 in range(base // r + 1):
                rest = base - r * l5
                for l3 in range(rest // 2 + 1):
                    l4 = rest - 2 * l3
                    points.append((l1, l2, l3, l4, l5))
    return frozenset(points)


def parity_counts(r: int, degree: int) -> tuple[int, int]:
    """(points of parity 0, points of parity 1) in the degree, counted
    without building the points.

    For each (l1, l2, l5), l3 runs over 0..half, half = rest // 2 with
    rest = base - r*l5: half // 2 + 1 = rest // 4 + 1 of them even and
    (half + 1) // 2 odd, and l1 + l2 decides which parity each set lands
    in.  Over l5 = 0..base//r the rests are base % r + r*k, k = 0..base//r;
    their sum has a closed form and, r being odd, they alternate mod 2 and
    run through every residue mod 4 once in four terms, so the sums of
    rest // 2 and rest // 4 cost the same for every degree.
    """
    _check_r(r, degree)
    counts = [0, 0]
    w1 = (r + 1) // 2
    w2 = (r - 1) // 2
    # (l1, l2) = (0,0), (0,1), (1,0), (1,1): shift w1*l1 + w2*l2, ascending
    for shift, parity in ((0, 0), (w2, 1), (w1, 1), (r, 0)):
        base = degree - shift
        if base < 0:
            break
        top, low = divmod(base, r)
        n = top + 1
        total = n * low + r * n * top // 2
        halves = (total - (n + low % 2) // 2) // 2
        leftover = 0
        for k in range(n % 4):
            leftover += (low + r * k) % 4
        quarters = (total - 6 * (n // 4) - leftover) // 4
        counts[parity] += quarters + n
        counts[1 - parity] += halves - quarters
    return counts[0], counts[1]


def degree_point_count(r: int, degree: int) -> int:
    """len(degree_points(r, degree)), counted without building the points."""
    return sum(parity_counts(r, degree))


def graded_dimension(r: int, degree: int, parity: int) -> int:
    """Number of lattice points of the given degree and parity class."""
    _check_parity(parity)
    return parity_counts(r, degree)[parity]


class DimensionTable(namedtuple("DimensionTable", "r rows")):
    """Dimensions of every (degree, parity) piece up to a degree bound, rows
    mapping (degree, parity) to its dimension.

    The decomposition check and the correction profile both read the
    table, so a caller that needs both counts each degree once.
    """

    __slots__ = ()

    @classmethod
    def compute(cls, r: int, max_degree: int) -> "DimensionTable":
        _check_r(r, max_degree)
        rows = {}
        for i in range(max_degree + 1):
            rows[(i, 0)], rows[(i, 1)] = parity_counts(r, i)
        return cls(r, rows)

    def dimension(self, degree: int, parity: int) -> int:
        return self.rows.get((degree, parity), 0)

    def increment(self, degree: int, parity: int) -> int:
        """D(i, j) = dim(i, j) - dim(i-2, 1-j), the step of the two-term
        recursion, for a degree the table holds."""
        rows = self.rows
        return rows[(degree, parity)] - rows.get((degree - 2, 1 - parity), 0)

    def decomposes(self, degree: int, parity: int) -> bool:
        """Verify the two-term recursion for one (degree, parity) pair.

        Shifting l3 by one raises the degree by 2 and flips the parity, so
        the increment across that shift must equal the number of points
        with l3 = 0, which _l3_boundary counts on its own.
        """
        return self.increment(degree, parity) == _l3_boundary(self.r, degree, parity)

    def counted_profile(self) -> "CorrectionProfile":
        """The correction increments over 2 <= i <= the top degree of a
        table computed from degree 0, which must be at least 2r; 6r gives
        three periods, every residue witnessed twice.

        Each increment is compared as the integer r*D(i, j) - (2i+1), r
        times its value, and becomes one Fraction per residue at the end.
        Two pairs of one residue class that disagree raise
        WellDefinednessError.
        """
        r = self.r
        period = 2 * r
        scaled: dict[int, int] = {}
        first_pair: dict[int, tuple[int, int]] = {}
        for i in range(2, len(self.rows) // 2):
            for j in (0, 1):
                value = r * self.increment(i, j) - (2 * i + 1)
                key = (2 * i + r * j) % period
                if key in scaled:
                    if scaled[key] != value:
                        raise WellDefinednessError(
                            f"residue {key} mod {period}: (i,j)={first_pair[key]} gave "
                            f"{Fraction(scaled[key], r)} but (i,j)=({i},{j}) gave "
                            f"{Fraction(value, r)}")
                else:
                    scaled[key] = value
                    first_pair[key] = (i, j)
        return CorrectionProfile(r, {key: Fraction(value, r) for key, value in scaled.items()})

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "dims": [{"i": i, "j": j, "dim": d}
                     for (i, j), d in sorted(self.rows.items())],
        }


def _l3_boundary(r: int, degree: int, parity: int) -> int:
    """The points of a degree >= 0 and a parity with l3 = 0.

    The (l1, l2) patterns of parity 0 are (0,0) and (1,1), of shift 0 and r;
    those of parity 1 are (0,1) and (1,0), of shift (r-1)/2 and (r+1)/2.
    With l3 = 0, each l5 = 0..base//r, base = degree - shift, fixes l4, so
    a pattern adds base//r + 1: nothing when base < 0, as then base >= -r.
    """
    a, b = (0, r) if parity == 0 else ((r - 1) // 2, (r + 1) // 2)
    return (degree - a) // r + (degree - b) // r + 2


def check_decomposition(r: int, degree: int, parity: int) -> bool:
    """DimensionTable.decomposes for one pair, on a table of the two
    degrees it reads."""
    _check_parity(parity)
    if degree < 0:
        raise ValueError("degree must be non-negative")
    rows = {}
    for i in (degree - 2, degree):
        rows[(i, 0)], rows[(i, 1)] = parity_counts(r, i)
    return DimensionTable(r, rows).decomposes(degree, parity)


class CorrectionProfile(namedtuple("CorrectionProfile", "r delta")):
    """Increment of the dimension recursion beyond its linear part (2i+1)/r,
    recorded in delta as a Fraction per residue class of 2i+rj mod 2r."""

    __slots__ = ()


def correction_profile(r: int, max_degree: int) -> CorrectionProfile:
    """DimensionTable.counted_profile on the table up to max_degree, which
    must be at least 2r."""
    _check_r(r)
    if max_degree < 2 * r:
        raise ValueError(f"max_degree must be at least 2r = {2 * r}")
    return DimensionTable.compute(r, max_degree).counted_profile()


def closed_form_profile(r: int) -> CorrectionProfile:
    """The correction increments from the closed forms of the differences
    D(i, j) = dim(i, j) - dim(i-2, 1-j), which hold at every degree i >= 0:

        D(i, 0) = 2*floor(i/r) + 1,
        D(i, 1) = floor((i-a)/r) + floor((i-b)/r) + 2,   a, b = (r+1)/2, (r-1)/2,

    the counts of the l3 = 0 boundary (_l3_boundary).  No point is counted.
    Residue k mod 2r is witnessed by its one pair (i, j) with 0 <= i < r.
    """
    _check_r(r)
    delta: dict[int, Fraction] = {}
    for k in range(2 * r):
        j = k % 2
        i = (k - r * j) // 2 % r
        delta[k] = _l3_boundary(r, i, j) - Fraction(2 * i + 1, r)
    return CorrectionProfile(r, delta)


def solve_correction(profile: CorrectionProfile) -> dict[int, Fraction]:
    """Reconstruct the periodic correction term B from its difference profile.

    B satisfies B(k+2) - B(k) = delta(k) on Z/2r and is normalized by
    B(0) = B(1) = 0; only differences of B are observable, so the two free
    constants are fixed this way.  Raises InconsistencyError when the
    profile does not sum to zero around an orbit of k -> k+2.
    """
    period = 2 * profile.r
    missing = [k for k in range(period) if k not in profile.delta]
    if missing:
        raise ValueError(f"profile does not cover residues {missing}")
    table: dict[int, Fraction] = {}
    for start in (0, 1):
        cycle = range(start, period, 2)
        total = sum(profile.delta[k] for k in cycle)
        if total != 0:
            raise InconsistencyError(
                f"orbit through {start} has nonzero telescoping sum {total}")
        value = Fraction(0)
        for k in cycle:
            table[k] = value
            value += profile.delta[k]
    return table
