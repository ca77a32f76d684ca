"""Lattice-point dimension counting for the bigraded ring of a weighted
blow-up with weights ((r+1)/2, (r-1)/2, 2, 1, r), r odd.

The degree-i piece of the ring splits by a parity j in {0, 1}; its
dimension equals the number of exponent vectors (l1,...,l5) with l1,l2 in
{0,1} solving

    (r+1)/2*l1 + (r-1)/2*l2 + 2*l3 + l4 + r*l5 = i,   l1+l2+l3 = j mod 2.

Counting these points exposes a two-term recursion whose inhomogeneous
part is (2i+1)/r plus the difference of a periodic correction term of
period 2r.  The correction term itself is reconstructed from the counts:
the increment profile must be well defined on residues of 2i+rj mod 2r,
and it telescopes to zero around each parity orbit, which is exactly what
solve_correction checks before integrating the profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


class WellDefinednessError(Exception):
    """Two degree/parity pairs in the same residue class gave different increments."""


class InconsistencyError(Exception):
    """A correction profile does not telescope to zero around an orbit."""


@dataclass(frozen=True, order=True)
class LatticePoint:
    """Exponent vector (l1,...,l5); l1+l2+l3 mod 2 is its parity."""

    exponents: tuple[int, int, int, int, int]

    @property
    def parity(self) -> int:
        return sum(self.exponents[:3]) % 2


def _check_r(r: int) -> None:
    if r % 2 == 0 or r < 7:
        raise ValueError(f"r must be an odd integer >= 7, got {r}")


def _check_parity(j: int) -> None:
    if j not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {j}")


def degree_points(r: int, degree: int) -> frozenset[LatticePoint]:
    """All solutions of the weighted equation in the given degree.

    Empty for negative degrees.  Bounded nested loops: l1, l2 in {0,1},
    then l5 and l3 are bounded by the degree and l4 is determined.
    """
    _check_r(r)
    if degree < 0:
        return frozenset()
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
                    points.append(LatticePoint((l1, l2, l3, l4, l5)))
    return frozenset(points)


def degree_point_count(r: int, degree: int) -> int:
    """len(degree_points(r, degree)), counted without building the points.

    For each (l1, l2, l5) the pair (l3, l4) takes rest // 2 + 1 values,
    rest = base - r*l5.  Summed over l5 = 0..base//r in closed form (r is
    odd, so rest alternates in parity), the count costs the same for every
    degree.
    """
    _check_r(r)
    if degree < 0:
        return 0
    w1 = (r + 1) // 2
    w2 = (r - 1) // 2
    total = 0
    for l1 in (0, 1):
        for l2 in (0, 1):
            base = degree - w1 * l1 - w2 * l2
            if base < 0:
                continue
            top = base // r
            rests = (top + 1) * base - r * top * (top + 1) // 2
            odd_rests = (top + 1) // 2 if base % 2 == 0 else top // 2 + 1
            total += (rests - odd_rests) // 2 + top + 1
    return total


def graded_dimension(r: int, degree: int, parity: int) -> int:
    """Number of lattice points of the given degree and parity class."""
    _check_parity(parity)
    return sum(1 for p in degree_points(r, degree) if p.parity == parity)


@dataclass(frozen=True)
class DimensionTable:
    """Dimensions of every (degree, parity) piece up to a degree bound."""

    r: int
    rows: dict[tuple[int, int], int]

    @classmethod
    def compute(cls, r: int, max_degree: int) -> "DimensionTable":
        _check_r(r)
        rows = {}
        for i in range(max_degree + 1):
            counts = [0, 0]
            for p in degree_points(r, i):
                counts[p.parity] += 1
            rows[(i, 0)] = counts[0]
            rows[(i, 1)] = counts[1]
        return cls(r, rows)

    def dimension(self, degree: int, parity: int) -> int:
        return self.rows.get((degree, parity), 0)

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "dims": [{"i": i, "j": j, "dim": d}
                     for (i, j), d in sorted(self.rows.items())],
        }


def check_decomposition(r: int, degree: int, parity: int) -> bool:
    """Verify the two-term recursion for one (degree, parity) pair.

    Shifting l3 by one raises the degree by 2 and flips the parity, so the
    count difference across that shift must equal the number of points with
    l3 = 0; those split by (l1, l2) into (0,0)/(1,1) for parity 0 and
    (0,1)/(1,0) for parity 1.
    """
    _check_parity(parity)
    if degree < 0:
        raise ValueError("degree must be non-negative")
    current = degree_points(r, degree)
    lhs = (sum(1 for p in current if p.parity == parity)
           - graded_dimension(r, degree - 2, 1 - parity))
    patterns = ((0, 0), (1, 1)) if parity == 0 else ((0, 1), (1, 0))
    boundary = sum(1 for p in current
                   if p.exponents[2] == 0 and p.exponents[:2] in patterns)
    return lhs == boundary


@dataclass(frozen=True)
class CorrectionProfile:
    """Increment of the dimension recursion beyond its linear part (2i+1)/r,
    recorded per residue class of 2i+rj mod 2r."""

    r: int
    delta: dict[int, Fraction]
    witnesses: dict[int, tuple[int, int]] = field(default_factory=dict)


def correction_profile(r: int, max_degree: int | None = None) -> CorrectionProfile:
    """Tabulate the correction increments over 2 <= i <= max_degree.

    max_degree defaults to 6r (three full periods, so every residue class
    is witnessed at least twice) and must be at least 2r.  Raises
    WellDefinednessError if two pairs in one residue class disagree, which
    would falsify the implementation.
    """
    _check_r(r)
    if max_degree is None:
        max_degree = 6 * r
    if max_degree < 2 * r:
        raise ValueError(f"max_degree must be at least 2r = {2 * r}")
    period = 2 * r
    table = DimensionTable.compute(r, max_degree)
    delta: dict[int, Fraction] = {}
    witnesses: dict[int, tuple[int, int]] = {}
    for i in range(2, max_degree + 1):
        for j in (0, 1):
            value = (Fraction(table.dimension(i, j) - table.dimension(i - 2, 1 - j))
                     - Fraction(2 * i + 1, r))
            key = (2 * i + r * j) % period
            if key in delta:
                if delta[key] != value:
                    raise WellDefinednessError(
                        f"residue {key} mod {period}: (i,j)={witnesses[key]} gave "
                        f"{delta[key]} but (i,j)=({i},{j}) gave {value}")
            else:
                delta[key] = value
                witnesses[key] = (i, j)
    return CorrectionProfile(r, delta, witnesses)


def orbit(start: int, period: int) -> list[int]:
    """The orbit of k -> k+2 on Z/period starting at `start`."""
    out = [start % period]
    k = (start + 2) % period
    while k != out[0]:
        out.append(k)
        k = (k + 2) % period
    return out


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
        cycle = orbit(start, period)
        total = sum(profile.delta[k] for k in cycle)
        if total != 0:
            raise InconsistencyError(
                f"orbit through {start} has nonzero telescoping sum {total}")
        value = Fraction(0)
        for k in cycle:
            table[k] = value
            value += profile.delta[k]
    return table
