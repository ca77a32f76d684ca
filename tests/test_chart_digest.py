"""Byte identity of the chart groups beyond the charts_* goldens.

A seeded sweep of blow-ups is rendered with repr, errors included, and
hashed: Kawamata data 1/n(a,n-a,1) at v = (a,n-a,1)/n for n <= 40 and every
a, smooth points at weights (1,a,b) with a, b <= 12 coprime, the cD/2
ambient at every valid r < 200, and 500 random ambients.  A rewrite of the
chart code or of the Smith normal form must keep the digest.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from threefold import linalg, quotients
from threefold.cli import main
from threefold.models import AMBIENT, blowup_vector, valid_r
from threefold.quotients import QuotientType, blowup_charts

SWEEP_SHA256 = "1bb9822500815f5b37ecedd9672049284e5a09a3a2dfaf426e371d17a54899a3"


def sweep_inputs():
    for n in range(2, 41):
        for a in range(1, n):
            yield QuotientType(n, (a, n - a, 1)), (Fraction(a, n), Fraction(n - a, n),
                                                   Fraction(1, n))
    smooth = QuotientType(1, (0, 0, 0))
    for a in range(1, 13):
        for b in range(1, 13):
            if math.gcd(a, b) == 1:
                yield smooth, (1, a, b)
    for r in filter(valid_r, range(200)):
        yield AMBIENT, blowup_vector(r)
    rng = random.Random(27)
    for _ in range(500):
        m, n = rng.randint(1, 5), rng.randint(1, 40)
        ambient = QuotientType(n, tuple(rng.randrange(n) for _ in range(m)))
        k = rng.randrange(n)
        v = [Fraction(k * a % n, n) + rng.randint(0, 3) for a in ambient.weights]
        if rng.random() < 0.2:
            v = [x * rng.randint(2, 3) for x in v]
        yield ambient, tuple(v)


def sweep_digest():
    digest = hashlib.sha256()
    for ambient, v in sweep_inputs():
        try:
            result = blowup_charts(ambient, v)
        except (ValueError, ArithmeticError) as exc:
            result = (type(exc).__name__, str(exc))
        digest.update(repr((ambient, v, result)).encode())
    return digest.hexdigest()


def test_sweep_digest():
    assert sweep_digest() == SWEEP_SHA256


def test_a_dropped_invariant_factor_is_an_internal_fault(monkeypatch, capsys):
    # a Smith normal form that loses the last nontrivial factor of every
    # chart leaves the factors' product short of the chart's lattice index;
    # the first call, the basis of the ambient lattice, is left intact
    compute = linalg.smith_normal_form
    calls = []

    def dropping(matrix):
        d, v, v_inv = compute(matrix)
        factors = [i for i in range(min(len(d), len(d[0]))) if d[i][i] > 1]
        if calls and factors:
            d[factors[-1]][factors[-1]] = 1
        calls.append(matrix)
        return d, v, v_inv

    monkeypatch.setattr(quotients, "smith_normal_form", dropping)
    ambient = QuotientType(7, (2, 5, 1))
    with pytest.raises(ArithmeticError, match="^invariant factors of product 1, not the "
                                              "lattice index 2$"):
        blowup_charts(ambient, (Fraction(2, 7), Fraction(5, 7), Fraction(1, 7)))
    calls.clear()
    assert main(["charts", "--ambient", "1/7(2,5,1)", "--weights", "2/7,5/7,1/7"]) == 3
    assert capsys.readouterr() == ("", "internal error: invariant factors of product 1, "
                                       "not the lattice index 2\n")


def test_a_covolume_that_does_not_divide_a_chart_is_an_internal_fault(monkeypatch):
    # the lattice 7N of 1/7(2,5,1) has covolume 49 and chart indices 2, 5
    # and 1; a covolume of 21 leaves chart 1 a fractional index
    lattice_points = quotients._lattice_points

    def skewed(ambient, vectors):
        lattice, points = lattice_points(ambient, vectors)
        return lattice._replace(diagonal=[1, 3, 7]), points

    monkeypatch.setattr(quotients, "_lattice_points", skewed)
    with pytest.raises(ArithmeticError, match="^chart 1 has a fractional lattice index$"):
        blowup_charts(QuotientType(7, (2, 5, 1)), (Fraction(2, 7), Fraction(5, 7), Fraction(1, 7)))
